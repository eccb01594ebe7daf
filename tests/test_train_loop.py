"""The one training loop shared by the flat, coalesced and convolutional
machines.

``MachineBase`` owns the hyperparameter checks, ``fit``/``partial_fit``
input validation, the epoch loop and its metrics for all three families.
These tests pin that each family gets the same checks, that the shared
loop's trained state stays pinned for every family, and that every
family's epochs count into the training metrics.
"""

import hashlib

import numpy as np
import pytest

from repro.obs import MetricsRegistry, set_registry
from repro.tsetlin import (
    CoalescedTsetlinMachine,
    ConvolutionalTsetlinMachine,
    TsetlinMachine,
)

BACKENDS = ("reference", "vectorized")

# 16 boolean features per sample: flat vectors, or 4x4 images for the CTM.
FAMILIES = {
    "flat": lambda **kw: TsetlinMachine(2, 16, n_clauses=4, **kw),
    "coalesced": lambda **kw: CoalescedTsetlinMachine(2, 16, n_clauses=4,
                                                      **kw),
    "convolutional": lambda **kw: ConvolutionalTsetlinMachine(
        2, (4, 4), patch_shape=(3, 3), n_clauses=4, **kw),
}


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _binary(n=12, seed=0):
    rng = np.random.default_rng(seed)
    X = (rng.random((n, 16)) < 0.5).astype(np.uint8)
    return X, rng.integers(0, 2, n)


@pytest.mark.parametrize("family", FAMILIES)
class TestSharedValidation:
    def test_zero_T_rejected(self, family):
        with pytest.raises(ValueError, match="T must be"):
            FAMILIES[family](T=0)

    def test_s_below_one_rejected(self, family):
        with pytest.raises(ValueError, match="s must be"):
            FAMILIES[family](s=0.5)

    @pytest.mark.parametrize("method", ["fit", "partial_fit"])
    def test_non_binary_features_rejected(self, family, method):
        # Cast to uint8, a 0.5 would train as 0, though predict rejects it.
        tm = FAMILIES[family](seed=1)
        X, y = _binary()
        X = X.astype(float)
        X[3, 5] = 0.5
        before = tm.team.state.copy()
        with pytest.raises(ValueError, match="0 or 1"):
            getattr(tm, method)(X, y)
        with pytest.raises(ValueError, match="0 or 1"):
            tm.predict(X)
        assert np.array_equal(tm.team.state, before)

    @pytest.mark.parametrize("method", ["fit", "partial_fit"])
    @pytest.mark.parametrize("n_labels", [11, 13])
    def test_label_count_must_match_samples(self, family, method, n_labels):
        # A longer y would pair samples with the wrong labels; a shorter
        # one would run out of labels mid-epoch.
        tm = FAMILIES[family](seed=1)
        X, _ = _binary()
        y = np.zeros(n_labels, dtype=np.int64)
        before = tm.team.state.copy()
        with pytest.raises(ValueError, match="same length"):
            getattr(tm, method)(X, y)
        assert np.array_equal(tm.team.state, before)

    @pytest.mark.parametrize("method", ["fit", "partial_fit"])
    def test_non_integer_labels_rejected(self, family, method):
        # Cast to int64, 0.7 and 1.9 would train as classes 0 and 1.
        tm = FAMILIES[family](seed=1)
        X, y = _binary()
        y = y.astype(float)
        y[[2, 7]] = [0.7, 1.9]
        before = tm.team.state.copy()
        with pytest.raises(ValueError, match="labels must be integers"):
            getattr(tm, method)(X, y)
        assert np.array_equal(tm.team.state, before)

    def test_integral_float_labels_accepted(self, family):
        X, y = _binary()
        a = FAMILIES[family](seed=1).fit(X, y, epochs=1)
        b = FAMILIES[family](seed=1).fit(X, y.astype(float), epochs=1)
        assert np.array_equal(a.team.state, b.team.state)

    @pytest.mark.parametrize("method", ["fit", "partial_fit"])
    def test_empty_batch_is_a_no_op(self, family, method):
        tm = FAMILIES[family](seed=1)
        fresh = FAMILIES[family](seed=1)
        empty = np.zeros((0, 16), dtype=np.uint8)
        assert getattr(tm, method)(empty, []) is tm
        assert np.array_equal(tm.team.state, fresh.team.state)
        assert tm.rng.integers(0, 2**30) == fresh.rng.integers(0, 2**30)
        assert np.array_equal(tm.rng.random((4,)), fresh.rng.random((4,)))


# sha256 of the trained state after a fixed fit plus one partial_fit
# chunk, recorded under the one-Bernoulli-mask Type I stream.  Backends
# are bit-identical, so one value serves both.
COTM_STATE_SHA = (
    "a371344e4790df91f7b1707950574436c95f47febc796a445b0c71e8845a9348")
COTM_WEIGHTS_SHA = (
    "c2f1abea13dc0ff559352d5953bf769870108be04d68db33c4fd054a1f52b6d5")
CTM_STATE_SHA = (
    "8dfd52519440b131adc80292f4ef62dd1edc7012cdcf7d17eee4e4570c74b9f9")


@pytest.mark.parametrize("backend", BACKENDS)
class TestPinnedTrainedState:
    def test_coalesced(self, backend):
        rng = np.random.default_rng(8)
        protos = rng.random((3, 16)) < 0.5
        y = rng.integers(0, 3, 48)
        X = (protos[y] ^ (rng.random((48, 16)) < 0.1)).astype(np.uint8)
        cotm = CoalescedTsetlinMachine(3, 16, n_clauses=10, T=6, s=3.5,
                                       seed=5, backend=backend)
        cotm.fit(X[:36], y[:36], epochs=2)
        cotm.partial_fit(X[36:], y[36:])
        assert cotm.team.state.dtype == np.int16
        assert cotm.weights.dtype == np.int32
        assert _sha(cotm.team.state) == COTM_STATE_SHA
        assert _sha(cotm.weights) == COTM_WEIGHTS_SHA

    def test_convolutional(self, backend):
        rng = np.random.default_rng(9)
        X = (rng.random((30, 36)) < 0.5).astype(np.uint8)
        y = rng.integers(0, 2, 30)
        ctm = ConvolutionalTsetlinMachine(2, (6, 6), patch_shape=(3, 3),
                                          n_clauses=6, T=4, s=3.0, seed=6,
                                          backend=backend)
        ctm.fit(X[:24], y[:24], epochs=2)
        ctm.partial_fit(X[24:], y[24:])
        assert ctm.team.state.dtype == np.int16
        assert _sha(ctm.team.state) == CTM_STATE_SHA


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_counts_its_epochs(family, backend):
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        tm = FAMILIES[family](seed=2, backend=backend)
        X, y = _binary()
        tm.fit(X, y, epochs=2)
    finally:
        set_registry(previous)
    name = type(tm.backend).__name__
    assert registry.counter("train_epochs_total", backend=name).value == 2
    assert registry.histogram("train_epoch_seconds",
                              backend=name).count == 2
