"""Tests for Tsetlin Automata teams (state storage and transitions)."""

import numpy as np
import pytest

from repro.tsetlin.automata import AutomataTeam
from repro.tsetlin.rng import NumpyRandom


class TestInit:
    def test_boundary_initialization(self):
        team = AutomataTeam((2, 3, 8), n_states=10, rng=NumpyRandom(0))
        assert set(np.unique(team.state)) <= {10, 11}

    def test_no_rng_is_deterministic_but_mixed(self):
        team = AutomataTeam((2, 2, 4), n_states=5)
        # Boundary init, alternating exclude/include: reproducible without
        # an rng, but not the degenerate all-exclude state.
        assert set(np.unique(team.state)) == {5, 6}
        assert team.include_fraction() == pytest.approx(0.5)
        clone = AutomataTeam((2, 2, 4), n_states=5)
        assert np.array_equal(team.state, clone.state)

    def test_invalid_states(self):
        with pytest.raises(ValueError):
            AutomataTeam((1, 1, 2), n_states=0)


class TestActions:
    def test_threshold(self):
        team = AutomataTeam((1, 1, 4), n_states=3)
        team.state[:] = np.array([1, 3, 4, 6], dtype=np.int16)
        assert team.actions().ravel().tolist() == [False, False, True, True]

    def test_include_fraction(self):
        team = AutomataTeam((1, 1, 4), n_states=3)
        team.state[:] = np.array([1, 4, 4, 2], dtype=np.int16)
        assert team.include_fraction() == pytest.approx(0.5)


class TestSerialization:
    def test_roundtrip(self):
        team = AutomataTeam((2, 2, 6), n_states=9, rng=NumpyRandom(4))
        team.state[0, 0, 0] = 17
        clone = AutomataTeam.from_dict(team.to_dict())
        assert clone.n_states == team.n_states
        assert clone.shape == team.shape
        assert np.array_equal(clone.state, team.state)

    def test_repr_contains_fraction(self):
        team = AutomataTeam((1, 1, 4), n_states=3)
        assert "include_fraction" in repr(team)
