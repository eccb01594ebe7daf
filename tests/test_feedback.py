"""Directed tests for the Type I / Type II learning rules."""

import numpy as np

from repro.tsetlin.automata import AutomataTeam
from repro.tsetlin.feedback import clause_outputs, type_i_feedback, type_ii_feedback


class FixedRandom:
    """Deterministic RNG stub returning a constant."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)

    def bernoulli(self, p, shape):
        return self.random(shape) < p


def make_team(include_rows, n_states=10):
    """Team of one class whose include actions match the given rows."""
    rows = np.asarray(include_rows, dtype=bool)
    team = AutomataTeam((1, rows.shape[0], rows.shape[1]), n_states=n_states)
    team.state[0] = np.where(rows, n_states + 1, n_states).astype(np.int16)
    return team


class TestClauseOutputs:
    def test_empty_clause_training_convention(self):
        inc = np.zeros((2, 6), dtype=bool)
        lits = np.array([1, 0, 1, 0, 1, 0])
        assert clause_outputs(inc, lits, empty_output=1).tolist() == [1, 1]
        assert clause_outputs(inc, lits, empty_output=0).tolist() == [0, 0]

    def test_violated_include_kills_clause(self):
        inc = np.zeros((1, 4), dtype=bool)
        inc[0, 2] = True
        lits = np.array([1, 1, 0, 1])
        assert clause_outputs(inc, lits).tolist() == [0]

    def test_satisfied_clause_fires(self):
        inc = np.zeros((1, 4), dtype=bool)
        inc[0, [0, 3]] = True
        lits = np.array([1, 0, 0, 1])
        assert clause_outputs(inc, lits).tolist() == [1]


class TestTypeI:
    # One mask S ~ Bernoulli(1/s) drives both transitions of a fired
    # clause: erode = ~base & S and memorize = base & ~S, where base holds
    # its 1-valued literals.  FixedRandom(0.0) gives S all True and
    # FixedRandom(0.999) S all False.

    def test_fired_clause_strengthens_true_literals(self):
        """S all False: memorize every 1-valued literal, erode nothing."""
        team = make_team([[True, False, False, False]])
        lits = np.array([1, 1, 0, 0])
        out = clause_outputs(team.actions()[0], lits, empty_output=1)
        assert out[0] == 1
        before = team.state.copy()
        type_i_feedback(team, 0, np.array([True]), out, lits, s=4.0,
                        rng=FixedRandom(0.999))
        assert team.state[0, 0, 0] == before[0, 0, 0] + 1
        assert team.state[0, 0, 1] == before[0, 0, 1] + 1
        assert np.array_equal(team.state[0, 0, 2:], before[0, 0, 2:])

    def test_fired_clause_sample_erodes_false_literals_only(self):
        """S all True: erode every 0-valued literal, memorize nothing."""
        team = make_team([[True, False, False, False]])
        lits = np.array([1, 1, 0, 0])
        out = clause_outputs(team.actions()[0], lits, empty_output=1)
        assert out[0] == 1
        before = team.state.copy()
        type_i_feedback(team, 0, np.array([True]), out, lits, s=4.0,
                        rng=FixedRandom(0.0))
        assert np.array_equal(team.state[0, 0, :2], before[0, 0, :2])
        assert team.state[0, 0, 2] == before[0, 0, 2] - 1
        assert team.state[0, 0, 3] == before[0, 0, 3] - 1

    def test_unfired_clause_erodes_everything(self):
        team = make_team([[True, True, False, False]])
        lits = np.array([0, 1, 1, 0])  # literal 0 violates -> clause 0
        out = clause_outputs(team.actions()[0], lits, empty_output=1)
        assert out[0] == 0
        before = team.state.copy()
        type_i_feedback(team, 0, np.array([True]), out, lits, s=4.0,
                        rng=FixedRandom(0.0))
        assert (team.state == before - 1).all()

    def test_no_probability_no_change(self):
        team = make_team([[True, False, False, False]])
        lits = np.array([1, 1, 0, 0])
        out = clause_outputs(team.actions()[0], lits, empty_output=1)
        before = team.state.copy()
        # rng value just below 1 -> erosion (p=1/s) never fires; with
        # boost_true_positive the strengthening still fires at p=1.
        type_i_feedback(team, 0, np.array([True]), out, lits, s=4.0,
                        rng=FixedRandom(0.999), boost_true_positive=True)
        assert team.state[0, 0, 0] == before[0, 0, 0] + 1
        assert team.state[0, 0, 1] == before[0, 0, 1] + 1
        assert np.array_equal(team.state[0, 0, 2:], before[0, 0, 2:])

    def test_unselected_clause_untouched(self):
        team = make_team([[True, False, False, False],
                          [False, True, False, False]])
        lits = np.array([1, 1, 0, 0])
        out = clause_outputs(team.actions()[0], lits, empty_output=1)
        before = team.state.copy()
        type_i_feedback(team, 0, np.array([True, False]), out, lits, s=4.0,
                        rng=FixedRandom(0.0))
        assert np.array_equal(team.state[0, 1], before[0, 1])
        assert not np.array_equal(team.state[0, 0], before[0, 0])

    def test_states_stay_in_bounds(self):
        team = make_team([[True] * 4], n_states=3)
        team.state[:] = 6
        lits = np.array([1, 1, 1, 1])
        out = clause_outputs(team.actions()[0], lits, empty_output=1)
        for _ in range(10):
            type_i_feedback(team, 0, np.array([True]), out, lits, s=2.0,
                            rng=FixedRandom(0.0))
        assert team.state.max() <= 6
        assert team.state.min() >= 1


class TestTypeII:
    def test_includes_zero_valued_literals(self):
        team = make_team([[True, False, False, False]])
        lits = np.array([1, 0, 1, 0])  # clause fires (only literal 0 included)
        out = clause_outputs(team.actions()[0], lits, empty_output=1)
        assert out[0] == 1
        before = team.state.copy()
        type_ii_feedback(team, 0, np.array([True]), out, lits)
        # literals 1 and 3 are 0 and excluded -> stepped toward include
        assert team.state[0, 0, 1] == before[0, 0, 1] + 1
        assert team.state[0, 0, 3] == before[0, 0, 3] + 1
        # literal 0 (value 1) and literal 2 (value 1) untouched
        assert team.state[0, 0, 0] == before[0, 0, 0]
        assert team.state[0, 0, 2] == before[0, 0, 2]

    def test_non_firing_clause_untouched(self):
        team = make_team([[True, True, False, False]])
        lits = np.array([0, 1, 0, 0])
        out = clause_outputs(team.actions()[0], lits, empty_output=1)
        assert out[0] == 0
        before = team.state.copy()
        type_ii_feedback(team, 0, np.array([True]), out, lits)
        assert np.array_equal(team.state, before)

    def test_already_included_not_pushed(self):
        team = make_team([[True, True, False, False]])
        lits = np.array([1, 1, 0, 0])
        out = clause_outputs(team.actions()[0], lits, empty_output=1)
        before = team.state.copy()
        type_ii_feedback(team, 0, np.array([True]), out, lits)
        # literals 0,1 are included already; 2,3 are 0-valued and excluded
        assert team.state[0, 0, 0] == before[0, 0, 0]
        assert team.state[0, 0, 1] == before[0, 0, 1]
        assert team.state[0, 0, 2] == before[0, 0, 2] + 1

    def test_type_ii_makes_clause_stop_firing_eventually(self):
        team = make_team([[True, False, False, False]], n_states=2)
        lits = np.array([1, 0, 0, 0])
        for _ in range(5):
            out = clause_outputs(team.actions()[0], lits, empty_output=1)
            if out[0] == 0:
                break
            type_ii_feedback(team, 0, np.array([True]), out, lits)
        out = clause_outputs(team.actions()[0], lits, empty_output=1)
        assert out[0] == 0
