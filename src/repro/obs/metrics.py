"""Process-local metrics: counters, gauges, log-bucketed histograms.

Every layer of the system used to invent its own telemetry —
``FabricStats`` counters, per-replica ``stats()`` dicts — none of which
composed.  This module is the shared vocabulary:
a :class:`MetricsRegistry` holds named instruments with label sets
(``requests_total{tenant="a"}``), and the instrumented layers
(:mod:`repro.serving`, :mod:`repro.streaming`, :mod:`repro.sweep`,
training backends, and the flow's per-stage
``flow_stage_seconds{stage}`` histogram) all write into one
process-local registry.

Three instrument kinds, Prometheus-style:

``Counter``
    Monotonically increasing count (requests served, batches shed).

``Gauge``
    A value that goes both ways (queue depth, live engine version).

``Histogram``
    Streaming log-bucketed value distribution — the
    :class:`~repro.serving.LatencyHistogram` bucketing relocated here
    as the shared core (that class is now a thin latency-flavoured
    subclass).  Fixed geometry per ``min_value``, so two histograms
    merge by adding counts.

Two exporters, both deterministic given the same observations:
:meth:`MetricsRegistry.snapshot` (a JSON-able dict; snapshots from
other processes merge via :meth:`MetricsRegistry.merge_snapshot` —
counters and gauges add, histograms add bucket-wise) and
:meth:`MetricsRegistry.to_prometheus` (text exposition format).
Nothing here reads a wall clock; callers pass values in, which keeps
the virtual-time traffic simulator exactly reproducible.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "merge_snapshots",
    "set_registry",
]

SNAPSHOT_SCHEMA = "repro.obs/1"


class Counter:
    """Monotonically increasing counter.

    >>> c = Counter("requests_total", (("tenant", "a"),))
    >>> c.inc(); c.inc(2)
    >>> c.value, c.labels
    (3, {'tenant': 'a'})
    >>> c.inc(-1)
    Traceback (most recent call last):
        ...
    ValueError: counter requests_total: cannot inc() by -1
    """

    __slots__ = ("name", "labels", "value")

    def __init__(self, name, labels=()):
        self.name = name
        self.labels = dict(labels)
        self.value = 0

    def inc(self, amount=1):
        """Add ``amount`` (>= 0) to the counter."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name}: cannot inc() by {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, live version).

    >>> g = Gauge("queue_depth")
    >>> g.set(5); g.inc(2); g.dec(3)
    >>> g.value
    4
    """

    __slots__ = ("name", "labels", "value")

    def __init__(self, name, labels=()):
        self.name = name
        self.labels = dict(labels)
        self.value = 0

    def set(self, value):
        """Set the gauge to ``value``."""
        self.value = value

    def inc(self, amount=1):
        """Add ``amount`` to the gauge."""
        self.value += amount

    def dec(self, amount=1):
        """Subtract ``amount`` from the gauge."""
        self.value -= amount


class Histogram:
    """Streaming log-bucketed histogram with interpolated quantiles.

    Fixed geometry: bucket upper edges grow by ``2**0.25`` (~19%) per
    bucket from ``min_value`` over 112 buckets (an overflow bucket
    catches the rest) — quantiles come from O(1) memory with bounded
    ~10% relative error, and two histograms with the same geometry
    merge by adding counts.  The exact maximum is tracked separately,
    so ``quantile(1.0)`` is exact and survives merges.

    This is the log-bucketed core relocated from the serving QoS
    layer; :class:`~repro.serving.LatencyHistogram` subclasses it with
    latency-flavoured (milliseconds) reporting.

    >>> h = Histogram(min_value=1.0)
    >>> for v in (1, 2, 3, 4, 100):
    ...     h.record(v)
    >>> h.count, h.max_value
    (5, 100.0)
    >>> 2 < h.quantile(0.5) < 4
    True
    >>> h.quantile(1.0)
    100.0
    >>> merged = Histogram(min_value=1.0).merge(h).merge(h)
    >>> merged.count
    10
    """

    GROWTH = 2 ** 0.25
    N_BUCKETS = 112

    __slots__ = ("name", "labels", "edges", "counts", "count", "total",
                 "max_value")

    def __init__(self, min_value=1e-6, name="", labels=()):
        self.name = name
        self.labels = dict(labels)
        self.edges = [min_value * self.GROWTH ** i
                      for i in range(self.N_BUCKETS)]
        self.counts = [0] * (self.N_BUCKETS + 1)  # +1: overflow bucket
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0

    def record(self, value):
        """Fold one observation into the histogram."""
        value = max(0.0, float(value))
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    # Prometheus-style alias for the same operation.
    observe = record

    def merge(self, other):
        """Add ``other``'s observations into this histogram (same geometry)."""
        if other.edges[0] != self.edges[0]:
            raise ValueError("histogram geometries differ; cannot merge")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self.max_value = max(self.max_value, other.max_value)
        return self

    def quantile(self, q):
        """Value at quantile ``q`` in [0, 1], or ``None`` when empty.

        Linear interpolation inside the covering bucket, clamped to the
        exact observed maximum (so ``quantile(1.0)`` is exact).
        """
        if self.count == 0:
            return None
        target = q * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cum + c >= target:
                hi = self.edges[i] if i < self.N_BUCKETS else self.max_value
                lo = 0.0 if i == 0 else self.edges[i - 1]
                frac = max(0.0, min(1.0, (target - cum) / c))
                return min(self.max_value, lo + frac * (hi - lo))
            cum += c
        return self.max_value

    def summary(self):
        """JSON-able ``{count, mean, p50, p95, p99, max}`` (raw units)."""
        if self.count == 0:
            return {"count": 0, "mean": None, "p50": None,
                    "p95": None, "p99": None, "max": None}
        return {
            "count": self.count,
            "mean": round(self.total / self.count, 6),
            "p50": round(self.quantile(0.50), 6),
            "p95": round(self.quantile(0.95), 6),
            "p99": round(self.quantile(0.99), 6),
            "max": round(self.max_value, 6),
        }

    def state(self):
        """Mergeable snapshot state: sparse buckets + exact aggregates."""
        return {
            "min_value": self.edges[0],
            "count": self.count,
            "total": self.total,
            "max": self.max_value,
            "buckets": {str(i): c for i, c in enumerate(self.counts) if c},
        }

    def merge_state(self, state):
        """Fold a :meth:`state` dict (same geometry) into this histogram."""
        if state["min_value"] != self.edges[0]:
            raise ValueError("histogram geometries differ; cannot merge")
        for i, c in state["buckets"].items():
            self.counts[int(i)] += c
        self.count += state["count"]
        self.total += state["total"]
        self.max_value = max(self.max_value, state["max"])
        return self


_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name):
    name = _NAME_RE.sub("_", name)
    return name if name and not name[0].isdigit() else f"_{name}"


def _prom_value(value):
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _prom_labels(items):
    if not items:
        return ""
    body = ",".join(
        '%s="%s"' % (
            _LABEL_RE.sub("_", k),
            str(v).replace("\\", "\\\\").replace('"', '\\"')
                  .replace("\n", "\\n"),
        )
        for k, v in items
    )
    return "{" + body + "}"


class MetricsRegistry:
    """Named, labeled instruments with mergeable snapshots.

    ``counter``/``gauge``/``histogram`` return the instrument for the
    given name and label set, creating it on first use — so call sites
    never pre-declare anything, and the same call from two places hits
    the same series.  A name is bound to one instrument kind; asking
    for the same name as a different kind raises.

    Snapshots (:meth:`snapshot`) are plain JSON-able dicts that merge
    across processes (:meth:`merge_snapshot`): counters and gauges add,
    histograms add bucket-wise — that is how worker-process engine
    metrics fold into the parent's registry.

    >>> reg = MetricsRegistry()
    >>> reg.counter("requests_total", tenant="a").inc(2)
    >>> reg.counter("requests_total", tenant="b").inc()
    >>> [s["labels"]["tenant"] for s in
    ...  reg.snapshot()["metrics"]["requests_total"]["series"]]
    ['a', 'b']
    >>> reg.gauge("requests_total")
    Traceback (most recent call last):
        ...
    ValueError: metric 'requests_total' is a counter, not a gauge
    """

    def __init__(self):
        self._families = {}  # name -> {kind, help, [min_value], series}

    def _series(self, name, kind, help_text, labels, factory):
        family = self._families.get(name)
        if family is None:
            family = {"kind": kind, "help": help_text, "series": {}}
            self._families[name] = family
        elif family["kind"] != kind:
            raise ValueError(
                f"metric {name!r} is a {family['kind']}, not a {kind}")
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        instrument = family["series"].get(key)
        if instrument is None:
            instrument = factory(key)
            family["series"][key] = instrument
        return instrument

    def counter(self, name, help="", **labels):
        """The :class:`Counter` series ``name{**labels}`` (create on use).

        >>> MetricsRegistry().counter("hits_total").value
        0
        """
        return self._series(name, "counter", help, labels,
                            lambda key: Counter(name, key))

    def gauge(self, name, help="", **labels):
        """The :class:`Gauge` series ``name{**labels}`` (create on use).

        >>> reg = MetricsRegistry()
        >>> reg.gauge("depth", replica="0").set(7)
        >>> reg.gauge("depth", replica="0").value
        7
        """
        return self._series(name, "gauge", help, labels,
                            lambda key: Gauge(name, key))

    def histogram(self, name, help="", min_value=1e-6, **labels):
        """The :class:`Histogram` series ``name{**labels}`` (create on use).

        ``min_value`` fixes the bucket geometry for the whole family on
        first use (1e-6 suits seconds; use 1.0 for sizes/counts).

        >>> reg = MetricsRegistry()
        >>> reg.histogram("batch_size", min_value=1.0).record(8)
        >>> reg.histogram("batch_size", min_value=1.0).count
        1
        """
        family = self._families.get(name)
        if family is not None and family.get("min_value") != min_value:
            raise ValueError(
                f"histogram {name!r} created with min_value="
                f"{family.get('min_value')}, got {min_value}")
        instrument = self._series(
            name, "histogram", help, labels,
            lambda key: Histogram(min_value, name, key))
        self._families[name]["min_value"] = min_value
        return instrument

    # ------------------------------------------------------------------
    def snapshot(self):
        """Deterministic JSON-able snapshot of every series.

        >>> reg = MetricsRegistry()
        >>> reg.counter("hits_total", shard="a").inc()
        >>> reg.snapshot()["metrics"]["hits_total"]["series"]
        [{'labels': {'shard': 'a'}, 'value': 1}]
        """
        metrics = {}
        for name in sorted(self._families):
            family = self._families[name]
            series = []
            for key in sorted(family["series"]):
                instrument = family["series"][key]
                entry = {"labels": dict(key)}
                if family["kind"] == "histogram":
                    entry.update(instrument.state())
                else:
                    entry["value"] = instrument.value
                series.append(entry)
            metrics[name] = {"kind": family["kind"], "help": family["help"],
                             "series": series}
        return {"schema": SNAPSHOT_SCHEMA, "metrics": metrics}

    def merge_snapshot(self, snap):
        """Fold a :meth:`snapshot` dict (e.g. from a worker) into this registry.

        Counters and gauges add; histograms merge bucket-wise.  Returns
        ``self`` so merges chain.

        >>> a, b = MetricsRegistry(), MetricsRegistry()
        >>> a.counter("hits_total").inc(2)
        >>> b.counter("hits_total").inc(3)
        >>> merged = MetricsRegistry()
        >>> _ = merged.merge_snapshot(a.snapshot())
        >>> _ = merged.merge_snapshot(b.snapshot())
        >>> merged.counter("hits_total").value
        5
        """
        for name, family in snap.get("metrics", {}).items():
            kind = family["kind"]
            for entry in family["series"]:
                labels = entry["labels"]
                if kind == "histogram":
                    instrument = self._series(
                        name, "histogram", family.get("help", ""), labels,
                        lambda key, e=entry: Histogram(e["min_value"],
                                                       name, key))
                    self._families[name].setdefault("min_value",
                                                    entry["min_value"])
                    instrument.merge_state(entry)
                elif kind == "gauge":
                    self._series(name, "gauge", family.get("help", ""),
                                 labels, lambda key: Gauge(name, key)
                                 ).inc(entry["value"])
                else:
                    self._series(name, "counter", family.get("help", ""),
                                 labels, lambda key: Counter(name, key)
                                 ).inc(entry["value"])
        return self

    # ------------------------------------------------------------------
    def to_json(self, indent=2):
        """The :meth:`snapshot` as canonical JSON text (sorted keys).

        >>> reg = MetricsRegistry()
        >>> reg.counter("hits_total").inc()
        >>> '"hits_total"' in reg.to_json()
        True
        """
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self):
        """Prometheus text exposition of every series (deterministic order).

        Histograms expose cumulative ``_bucket{le=...}`` lines for the
        occupied buckets plus ``+Inf``, ``_sum``, and ``_count``.

        >>> reg = MetricsRegistry()
        >>> reg.counter("requests_total", help="served", route="a").inc(3)
        >>> print(reg.to_prometheus())
        # HELP requests_total served
        # TYPE requests_total counter
        requests_total{route="a"} 3
        <BLANKLINE>
        """
        lines = []
        for name in sorted(self._families):
            family = self._families[name]
            pname = _prom_name(name)
            if family["help"]:
                help_text = family["help"].replace("\\", "\\\\")
                help_text = help_text.replace("\n", "\\n")
                lines.append(f"# HELP {pname} {help_text}")
            lines.append(f"# TYPE {pname} {family['kind']}")
            for key in sorted(family["series"]):
                instrument = family["series"][key]
                if family["kind"] != "histogram":
                    lines.append(f"{pname}{_prom_labels(key)} "
                                 f"{_prom_value(instrument.value)}")
                    continue
                cum = 0
                inf_done = False
                for i, c in enumerate(instrument.counts):
                    if c == 0:
                        continue
                    cum += c
                    if i >= instrument.N_BUCKETS:
                        le = "+Inf"
                        inf_done = True
                    else:
                        le = format(instrument.edges[i], ".6g")
                    lines.append(
                        f"{pname}_bucket"
                        f"{_prom_labels(key + (('le', le),))} {cum}")
                if not inf_done:
                    lines.append(
                        f"{pname}_bucket"
                        f"{_prom_labels(key + (('le', '+Inf'),))} "
                        f"{instrument.count}")
                lines.append(f"{pname}_sum{_prom_labels(key)} "
                             f"{_prom_value(instrument.total)}")
                lines.append(f"{pname}_count{_prom_labels(key)} "
                             f"{instrument.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def merge_snapshots(*snapshots):
    """Merge :meth:`MetricsRegistry.snapshot` dicts into one snapshot.

    The cross-process aggregation helper: the ``repro obs`` CLI merges
    per-process snapshot files with this before rendering.

    >>> a, b = MetricsRegistry(), MetricsRegistry()
    >>> a.counter("hits_total").inc(1)
    >>> b.counter("hits_total").inc(4)
    >>> merged = merge_snapshots(a.snapshot(), b.snapshot())
    >>> merged["metrics"]["hits_total"]["series"][0]["value"]
    5
    """
    registry = MetricsRegistry()
    for snap in snapshots:
        registry.merge_snapshot(snap)
    return registry.snapshot()


_default_registry = MetricsRegistry()


def get_registry():
    """The process-local default registry the instrumented layers share.

    >>> get_registry() is get_registry()
    True
    """
    return _default_registry


def set_registry(registry):
    """Swap the process default registry; returns the previous one.

    Tests (and the CLI, for per-run isolation) install a fresh registry
    and restore the old one afterwards.

    >>> fresh = MetricsRegistry()
    >>> previous = set_registry(fresh)
    >>> get_registry() is fresh
    True
    >>> _ = set_registry(previous)
    """
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
