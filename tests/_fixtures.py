"""Importable shared test helpers.

Lives in its own module (rather than ``conftest.py``) because both
``tests/`` and ``benchmarks/`` ship a ``conftest.py``; when pytest adds
both directories to ``sys.path`` the module name ``conftest`` is
ambiguous and ``from conftest import ...`` resolves to whichever was
imported first.  A uniquely named module sidesteps the clash.
"""

from __future__ import annotations

import numpy as np

from repro.model import TMModel
from repro.rtl.parser import _LEXEME_RE, VerilogSyntaxError


def random_model(n_classes=3, n_clauses=8, n_features=24, density=0.12,
                 seed=0, name="rand"):
    """A random (untrained) include matrix — enough for structural tests."""
    rng = np.random.default_rng(seed)
    include = rng.random((n_classes, n_clauses, 2 * n_features)) < density
    # Avoid contradictory literals so clause outputs are non-trivial.
    pos = include[:, :, :n_features]
    neg = include[:, :, n_features:]
    both = pos & neg
    neg &= ~both
    include = np.concatenate([pos, neg], axis=2)
    return TMModel(include=include, n_features=n_features, name=name)


def scan_lexemes(src):
    """Reference tokenizer: one ``re.match`` per lexeme.

    The parser's one-pass scanner before it became a validating
    ``match`` plus a ``findall``; the tests check that both give the same
    tokens, and the same error offset on a source that does not scan.
    """
    tokens = []
    pos = 0
    while pos < len(src):
        m = _LEXEME_RE.match(src, pos)
        if not m:
            raise VerilogSyntaxError(
                f"cannot tokenize at offset {pos}: {src[pos:pos + 30]!r}"
            )
        pos = m.end()
        if m.group(1):
            tokens.append(m.group(1))
    return tokens
