"""``partial_fit`` replay is bit-identical to ``fit`` for every family.

The continual-learning contract: chunked ``partial_fit`` calls over a
fixed overall sample order must leave the machine in exactly the state a
single ``fit(X, y, epochs=1, shuffle=False)`` over the concatenation
would — same automata states, same weights, same RNG position — for the
flat, coalesced, and convolutional families on both the reference and
vectorized backends.  That is what makes online training auditable: any
stream can be replayed offline through ``fit`` and must reproduce the
deployed model bit for bit.
"""

import numpy as np
import pytest

from repro.tsetlin import (
    CoalescedTsetlinMachine,
    ConvolutionalTsetlinMachine,
    TsetlinMachine,
)

BACKENDS = ("reference", "vectorized")


def _data(n=60, f=16, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    protos = rng.random((n_classes, f)) < 0.5
    y = rng.integers(0, n_classes, n)
    X = (protos[y] ^ (rng.random((n, f)) < 0.08)).astype(np.uint8)
    return X, y


def _image_data(n=36, side=6, seed=4):
    rng = np.random.default_rng(seed)
    X = (rng.random((n, side * side)) < 0.5).astype(np.uint8)
    return X, rng.integers(0, 2, n)


def _chunks(X, y, sizes):
    lo = 0
    for size in sizes:
        yield X[lo:lo + size], y[lo:lo + size]
        lo += size
    if lo < len(X):
        yield X[lo:], y[lo:]


@pytest.mark.parametrize("backend", BACKENDS)
class TestFlatBitIdentity:
    def _machine(self, backend):
        return TsetlinMachine(3, 16, n_clauses=8, T=5, s=3.5, seed=7,
                              backend=backend)

    def test_chunked_replay_equals_fit(self, backend):
        X, y = _data()
        ref = self._machine(backend)
        ref.fit(X, y, epochs=1, shuffle=False)
        inc = self._machine(backend)
        for cx, cy in _chunks(X, y, (17, 25, 3)):
            inc.partial_fit(cx, cy)
        assert np.array_equal(ref.team.state, inc.team.state)
        assert np.array_equal(ref.includes(), inc.includes())

    def test_two_passes_equal_two_epochs(self, backend):
        X, y = _data(seed=1)
        ref = self._machine(backend)
        ref.fit(X, y, epochs=2, shuffle=False)
        inc = self._machine(backend)
        inc.partial_fit(X, y)
        inc.partial_fit(X, y)
        assert np.array_equal(ref.team.state, inc.team.state)

    def test_rng_position_identical_after_replay(self, backend):
        # Not just the trained state: the *next* draw must agree, so
        # training can keep alternating fit/partial_fit indefinitely.
        X, y = _data(seed=2)
        a = self._machine(backend)
        a.fit(X, y, epochs=1, shuffle=False)
        b = self._machine(backend)
        b.partial_fit(X[:30], y[:30])
        b.partial_fit(X[30:], y[30:])
        assert np.array_equal(a.rng.random((16,)), b.rng.random((16,)))


@pytest.mark.parametrize("backend", BACKENDS)
def test_coalesced_bit_identity(backend):
    X, y = _data(seed=3)
    ref = CoalescedTsetlinMachine(3, 16, n_clauses=9, T=5, seed=11,
                                  backend=backend)
    ref.fit(X, y, epochs=1, shuffle=False)
    inc = CoalescedTsetlinMachine(3, 16, n_clauses=9, T=5, seed=11,
                                  backend=backend)
    for cx, cy in _chunks(X, y, (20, 20)):
        inc.partial_fit(cx, cy)
    assert np.array_equal(ref.team.state, inc.team.state)
    assert np.array_equal(ref.weights, inc.weights)


@pytest.mark.parametrize("backend", BACKENDS)
def test_convolutional_bit_identity(backend):
    X, y = _image_data()
    kw = dict(patch_shape=(3, 3), n_clauses=6, T=4, seed=3, backend=backend)
    ref = ConvolutionalTsetlinMachine(2, (6, 6), **kw)
    ref.fit(X, y, epochs=1, shuffle=False)
    inc = ConvolutionalTsetlinMachine(2, (6, 6), **kw)
    for cx, cy in _chunks(X, y, (13, 13)):
        inc.partial_fit(cx, cy)
    assert np.array_equal(ref.team.state, inc.team.state)


def test_cross_backend_partial_fit_identity():
    # reference and vectorized agree with *each other* chunk by chunk.
    X, y = _data(seed=5)
    machines = [TsetlinMachine(3, 16, n_clauses=8, T=5, seed=13, backend=b)
                for b in BACKENDS]
    for cx, cy in _chunks(X, y, (9, 21, 14)):
        for m in machines:
            m.partial_fit(cx, cy)
    assert np.array_equal(machines[0].team.state, machines[1].team.state)


def test_partial_fit_validation_and_empty_chunk():
    tm = TsetlinMachine(3, 16, n_clauses=8, T=5, seed=1)
    X, y = _data()
    before = tm.team.state.copy()
    tm.partial_fit(X[:0], y[:0])  # empty chunk is a no-op
    assert np.array_equal(tm.team.state, before)
    with pytest.raises(ValueError, match="same length"):
        tm.partial_fit(X[:5], y[:4])
    with pytest.raises(ValueError, match="labels out of range"):
        tm.partial_fit(X[:5], np.full(5, 99))
    with pytest.raises(ValueError, match="boolean features"):
        tm.partial_fit(np.zeros((4, 17), dtype=np.uint8), np.zeros(4, int))
