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


@st.composite
def _row_blocks(draw):
    """A block shape and a sorted row subset of it (none and all included)."""
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 6))
    rows = sorted(draw(st.sets(st.integers(0, n_rows - 1))))
    return rows, n_rows, n_cols


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["numpy", "xorshift", "cyclostationary"]),
       block=_row_blocks(), seed=st.integers(1, 2**32),
       after_integers=st.booleans())
def test_random_rows_equals_the_full_block_slice(kind, block, seed,
                                                 after_integers):
    """``random_rows`` returns the full block's rows and leaves the stream
    where the full block draw would, also with PCG64's spare 32-bit half
    buffered by a preceding ``integers()`` call."""
    rows, n_rows, n_cols = block
    full_rng, rows_rng = make_rng(kind, seed=seed), make_rng(kind, seed=seed)
    if after_integers:
        assert full_rng.integers(0, 7) == rows_rng.integers(0, 7)
    full = full_rng.random((n_rows, n_cols))
    got = rows_rng.random_rows(rows, n_rows, n_cols)
    assert got.shape == (len(rows), n_cols)
    assert np.array_equal(got, full[rows])
    assert rows_rng.integers(0, 1000) == full_rng.integers(0, 1000)
    assert np.array_equal(rows_rng.random((3,)), full_rng.random((3,)))


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
