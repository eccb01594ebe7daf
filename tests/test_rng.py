"""Tests for the RNG substrate (numpy adapter, xorshift, cyclostationary)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsetlin.rng import (
    CyclostationaryRandom,
    NumpyRandom,
    XorShift128Plus,
    make_rng,
)


class TestNumpyRandom:
    def test_range(self):
        rng = NumpyRandom(0)
        vals = rng.random((1000,))
        assert vals.min() >= 0.0
        assert vals.max() < 1.0

    def test_deterministic_by_seed(self):
        a = NumpyRandom(42).random((50,))
        b = NumpyRandom(42).random((50,))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = NumpyRandom(1).random((50,))
        b = NumpyRandom(2).random((50,))
        assert not np.array_equal(a, b)

    def test_bernoulli_rate(self):
        rng = NumpyRandom(0)
        draws = rng.bernoulli(0.3, (20000,))
        assert abs(draws.mean() - 0.3) < 0.02

    def test_bernoulli_extremes(self):
        rng = NumpyRandom(0)
        assert not rng.bernoulli(0.0, (100,)).any()
        assert rng.bernoulli(1.0, (100,)).all()

    def test_integers_in_range(self):
        rng = NumpyRandom(0)
        vals = [rng.integers(3, 7) for _ in range(200)]
        assert set(vals) <= {3, 4, 5, 6}
        assert len(set(vals)) > 1


class TestXorShift:
    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            XorShift128Plus(0)

    def test_range_and_shape(self):
        rng = XorShift128Plus(1)
        vals = rng.random((7, 3))
        assert vals.shape == (7, 3)
        assert (vals >= 0).all() and (vals < 1).all()

    def test_deterministic(self):
        a = XorShift128Plus(99).random((64,))
        b = XorShift128Plus(99).random((64,))
        assert np.array_equal(a, b)

    def test_mean_near_half(self):
        vals = XorShift128Plus(7).random((4000,))
        assert abs(vals.mean() - 0.5) < 0.03

    def test_scalar_shape(self):
        v = XorShift128Plus(5).random(())
        assert isinstance(float(v), float)


class TestCyclostationary:
    def test_bank_replay_is_periodic(self):
        rng = CyclostationaryRandom(bank_size=101, seed=0, stride=7)
        first = rng.random((101,))
        second = rng.random((101,))
        # Same bank, different starting offset -> same multiset of values.
        assert np.allclose(np.sort(first), np.sort(second))

    def test_small_bank_rejected(self):
        with pytest.raises(ValueError):
            CyclostationaryRandom(bank_size=1)

    def test_stride_coprime_adjustment(self):
        # stride sharing a factor with bank size must be fixed up internally.
        rng = CyclostationaryRandom(bank_size=100, seed=0, stride=10)
        vals = rng.random((100,))
        assert len(np.unique(vals)) > 50  # visits many bank entries

    def test_bernoulli_rate(self):
        rng = CyclostationaryRandom(seed=3)
        draws = rng.bernoulli(0.25, (20000,))
        assert abs(draws.mean() - 0.25) < 0.02


class TestFactory:
    @pytest.mark.parametrize("kind,cls", [
        ("numpy", NumpyRandom),
        ("xorshift", XorShift128Plus),
        ("cyclostationary", CyclostationaryRandom),
    ])
    def test_kinds(self, kind, cls):
        assert isinstance(make_rng(kind, seed=1), cls)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_rng("quantum")


@settings(max_examples=80, deadline=None)
@given(shape=st.lists(st.integers(0, 7), min_size=1, max_size=2).map(tuple),
       p=st.one_of(st.sampled_from([0.0, 1.0, -0.5, 1.5, 0.5]),
                   st.floats(0.0, 1.0)),
       seed=st.integers(1, 2**32), after_integers=st.booleans())
def test_numpy_bernoulli_is_the_raw_word_formula(shape, p, seed,
                                                 after_integers):
    """The mask is ``u < floor(p * 2**32)`` over the 32-bit halves of
    ``ceil(n / 2)`` raw PCG64 words, and the next ``integers()`` and
    ``random()`` draws match a generator advanced by exactly those
    words, also with ``integers()``' spare half buffered beforehand."""
    rng, ref = NumpyRandom(seed), np.random.default_rng(seed)
    if after_integers:
        assert rng.integers(0, 7) == int(ref.integers(0, 7))
    n = int(np.prod(shape))
    mask = rng.bernoulli(p, shape)
    u = ref.bit_generator.random_raw(-(-n // 2)).view(np.uint32)[:n]
    if p >= 1:
        expected = np.ones(n, dtype=bool)
    elif p <= 0:
        expected = np.zeros(n, dtype=bool)
    else:
        expected = u < int(p * 2**32)
    assert mask.dtype == bool and mask.shape == shape
    assert np.array_equal(mask.ravel(), expected)
    assert rng.integers(0, 1000) == int(ref.integers(0, 1000))
    assert np.array_equal(rng.random((3,)), ref.random((3,)))


@pytest.mark.parametrize("kind", ["xorshift", "cyclostationary"])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_hardware_bernoulli_compares_uniforms(kind, p):
    """The hardware models keep ``random(shape) < p``, uniform for
    uniform."""
    rng, ref = make_rng(kind, seed=11), make_rng(kind, seed=11)
    mask = rng.bernoulli(p, (5, 7))
    assert np.array_equal(mask, ref.random((5, 7)) < p)
    assert np.array_equal(rng.random((3,)), ref.random((3,)))


class TestTrainingWithHardwareRngs:
    """The hardware RNG models must actually train a TM (refs [20], [21])."""

    @pytest.mark.parametrize("kind", ["xorshift", "cyclostationary"])
    def test_tm_learns_with_hw_rng(self, kind):
        from repro.tsetlin import TsetlinMachine

        rng = np.random.default_rng(0)
        n = 120
        X = rng.integers(0, 2, size=(n, 12)).astype(np.uint8)
        y = X[:, 0].astype(np.int64)  # trivially separable
        tm = TsetlinMachine(2, 12, n_clauses=6, T=6, s=3.0,
                            rng=make_rng(kind, seed=5))
        tm.fit(X, y, epochs=5)
        assert tm.evaluate(X, y) > 0.9
