"""Content-addressed on-disk cache for sweep evaluations.

Every sweep point is keyed by a stable SHA-256 over its canonicalized
payload (the full flow config plus the evaluation options — data seed and
train seed ride inside the config) and a cache schema version.  Records
are JSON files under ``<root>/<key[:2]>/<key>.json`` so crashed or
re-launched sweeps resume instantly: any point whose key is already on
disk is loaded instead of re-evaluated, and cached records are, by
construction, bit-identical to a fresh evaluation of the same payload.

``CACHE_VERSION`` must be bumped whenever the evaluation semantics change
(new metrics, different training code paths), which invalidates every old
entry without touching the files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

__all__ = ["CACHE_VERSION", "sweep_key", "SweepCache"]

# v2: the vectorized backend moved to bit-plane packed automata state
# (word-level feedback); training code paths changed, so every v1 record
# predates the layout and must be re-evaluated.  The later move back to
# in-place int16 state is bit-identical, so v2 records remain valid.
# v3: Type I feedback draws one Bernoulli mask per event from raw PCG64
# words, which changes every trained model.
CACHE_VERSION = 3


def canonical_json(payload):
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def sweep_key(payload):
    """Stable content hash of one evaluation payload."""
    body = canonical_json({"version": CACHE_VERSION, "payload": payload})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class SweepCache:
    """Filesystem store: key -> evaluation record (a JSON dict)."""

    def __init__(self, root):
        self.root = Path(root)

    def path(self, key):
        return self.root / key[:2] / f"{key}.json"

    def get(self, key):
        """The cached record, or ``None`` when absent or unreadable."""
        path = self.path(key)
        try:
            with open(path, encoding="utf-8") as f:
                record = json.load(f)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            return None  # corrupt or foreign file: treat as a miss
        return record

    def put(self, key, record):
        """Store ``record`` under ``key``; returns the file path."""
        record = dict(record)
        record["key"] = key
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        text = json.dumps(record, indent=1, sort_keys=True)
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)  # atomic: a crashed writer never corrupts a hit
        return path

    def keys(self):
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*/*.json"))

    def __len__(self):
        return len(self.keys())

    def __contains__(self, key):
        return self.path(key).is_file()
