"""RNG stream edge cases of the vectorized backend's Type I feedback.

Both backends draw one ``rng.bernoulli(1 / s, (selected rows, 2f))``
mask per Type I event and nothing for an empty selection.  The
equivalence suite exercises this only through whole training runs;
these tests pin the edge cases of ``apply_type_i`` directly, pairing a
reference and a vectorized backend on identical automata and asserting,
per scenario:

* identical post-feedback automaton states,
* identical RNG stream position (the next draw matches bit for bit).

Covered: zero-clause selection, all clauses selected, single rows at
every boundary, nearby rows with short gaps, scattered rows, the
xorshift and cyclostationary generators (``random < p`` masks), the
number of raw PCG64 words one event consumes, and automata pinned at
the ``1`` / ``2N`` clip bounds.
"""

import numpy as np
import pytest

from repro.tsetlin import AutomataTeam, make_rng
from repro.tsetlin.backend import ReferenceBackend, VectorizedBackend

N_CLAUSES = 16
N_LITERALS = 24  # 2 * features
N_STATES = 31


def _paired_backends(seed=0):
    """Reference + vectorized backends over bit-identical automata."""
    rng = np.random.default_rng(seed)
    states = rng.integers(1, 2 * N_STATES + 1, (2, N_CLAUSES, N_LITERALS))
    teams = []
    for _ in range(2):
        team = AutomataTeam((2, N_CLAUSES, N_LITERALS), n_states=N_STATES)
        team.state[:] = states.astype(np.int16)
        teams.append(team)
    return ReferenceBackend(teams[0]), VectorizedBackend(teams[1])


def _literals(seed=1):
    return (np.random.default_rng(seed).random(N_LITERALS) < 0.5)


def _apply_both(mask, rng_kind="numpy", seed=5, outputs=None, s=3.9,
                boost=False):
    """Run one Type I event on both backends; return (ref, vec, rngs)."""
    ref, vec = _paired_backends(seed=seed)
    mask = np.asarray(mask, dtype=bool)
    lit = _literals(seed=seed + 1)
    if outputs is None:
        outputs = vec.bank_outputs(0, lit)
    rngs = [make_rng(rng_kind, seed=99), make_rng(rng_kind, seed=99)]
    ref.apply_type_i(0, mask, outputs, lit, s, rngs[0],
                     boost_true_positive=boost)
    vec.apply_type_i(0, mask, outputs, lit, s, rngs[1],
                     boost_true_positive=boost)
    return ref, vec, rngs


def _assert_equivalent(ref, vec, rngs):
    assert np.array_equal(ref.team.state, vec.team.state), "states diverged"
    a, b = rngs[0].random((8,)), rngs[1].random((8,))
    assert np.array_equal(a, b), "RNG stream positions diverged"


# ----------------------------------------------------------------------
# Zero-clause selection
# ----------------------------------------------------------------------
class TestZeroClauseSelection:
    def test_empty_mask_consumes_nothing(self):
        """No selected clause: zero RNG draws, in every machine family."""
        ref, vec, rngs = _apply_both(np.zeros(N_CLAUSES, dtype=bool))
        _assert_equivalent(ref, vec, rngs)  # consumes 8 draws per stream
        # And the stream really is untouched: matches a fresh generator
        # (offset by the 8 draws the equivalence probe consumed).
        fresh = make_rng("numpy", seed=99)
        fresh.random((8,))
        assert np.array_equal(rngs[1].random((4,)), fresh.random((4,)))

    def test_empty_mask_leaves_states_untouched(self):
        ref, vec, rngs = _apply_both(np.zeros(N_CLAUSES, dtype=bool))
        fresh_ref, fresh_vec = _paired_backends(seed=5)
        assert np.array_equal(vec.team.state, fresh_vec.team.state)

    def test_type_ii_zero_fired_rows(self):
        """Type II with selected-but-unfired clauses must be a no-op."""
        ref, vec = _paired_backends(seed=7)
        lit = _literals(seed=8)
        mask = np.ones(N_CLAUSES, dtype=bool)
        outputs = np.zeros(N_CLAUSES, dtype=np.uint8)  # nothing fired
        before = vec.team.state.copy()
        ref.apply_type_ii(0, mask, outputs, lit)
        vec.apply_type_ii(0, mask, outputs, lit)
        assert np.array_equal(ref.team.state, vec.team.state)
        assert np.array_equal(vec.team.state, before)


# ----------------------------------------------------------------------
# All rows masked in / boundary singletons
# ----------------------------------------------------------------------
class TestMaskPatterns:
    @pytest.mark.parametrize("rng_kind", ["numpy", "xorshift",
                                          "cyclostationary"])
    def test_all_clauses_selected(self, rng_kind):
        """Full mask: one mask over every row."""
        ref, vec, rngs = _apply_both(np.ones(N_CLAUSES, dtype=bool),
                                     rng_kind=rng_kind)
        _assert_equivalent(ref, vec, rngs)

    @pytest.mark.parametrize("row", [0, N_CLAUSES // 2, N_CLAUSES - 1])
    def test_single_row(self, row):
        """One selected clause at each boundary."""
        mask = np.zeros(N_CLAUSES, dtype=bool)
        mask[row] = True
        ref, vec, rngs = _apply_both(mask)
        _assert_equivalent(ref, vec, rngs)

    def test_dense_span_path(self):
        """Nearby rows: two pairs separated by a one-row gap."""
        mask = np.zeros(N_CLAUSES, dtype=bool)
        mask[[3, 4, 6, 7]] = True  # runs 3-4 and 6-7
        ref, vec, rngs = _apply_both(mask)
        _assert_equivalent(ref, vec, rngs)

    def test_scattered_sparse_path(self):
        """Far-apart rows."""
        mask = np.zeros(N_CLAUSES, dtype=bool)
        mask[[0, 5, 10, 15]] = True  # four one-row runs
        ref, vec, rngs = _apply_both(mask)
        _assert_equivalent(ref, vec, rngs)

    def test_contiguous_run_in_middle(self):
        mask = np.zeros(N_CLAUSES, dtype=bool)
        mask[5:9] = True
        ref, vec, rngs = _apply_both(mask)
        _assert_equivalent(ref, vec, rngs)

    @pytest.mark.parametrize("boost", [False, True])
    def test_boost_variants(self, boost):
        mask = np.zeros(N_CLAUSES, dtype=bool)
        mask[[1, 9]] = True
        ref, vec, rngs = _apply_both(mask, boost=boost)
        _assert_equivalent(ref, vec, rngs)

    @pytest.mark.parametrize("rng_kind", ["xorshift", "cyclostationary"])
    def test_sparse_rows_without_pcg_advance(self, rng_kind):
        """The hardware models, whose masks compare uniforms, land on the
        same stream position on both backends for a sparse selection."""
        mask = np.zeros(N_CLAUSES, dtype=bool)
        mask[[2, 13]] = True
        ref, vec, rngs = _apply_both(mask, rng_kind=rng_kind)
        _assert_equivalent(ref, vec, rngs)


class TestConsumedWords:
    """A Type I event consumes ``ceil(rows * 2f / 2)`` raw PCG64 words,
    however the selected rows are spread: it leaves the generator where
    ``random_raw`` of that many words leaves a fresh one."""

    @pytest.mark.parametrize("rows", [[0, 2, 4, 6], [3, 5, 6, 9, 12],
                                      [1, 14], [N_CLAUSES - 1]])
    @pytest.mark.parametrize("s", [1.0, 3.9])
    def test_rows_consume_only_their_words(self, rows, s):
        mask = np.zeros(N_CLAUSES, dtype=bool)
        mask[rows] = True
        ref, vec, rngs = _apply_both(mask, s=s)
        fresh = np.random.default_rng(99)
        fresh.bit_generator.random_raw(-(-len(rows) * N_LITERALS // 2))
        for rng in rngs:
            assert rng._gen.bit_generator.state == fresh.bit_generator.state
        _assert_equivalent(ref, vec, rngs)


# ----------------------------------------------------------------------
# Saturation at the clip bounds
# ----------------------------------------------------------------------
class TestSaturation:
    """States pinned at ``1`` and ``2N`` must stay put under the
    saturating ±1, exactly where the reference clips its net delta."""

    N = 3  # 2N = 6: a few events walk every automaton into a bound

    def _pinned_backends(self):
        N = self.N
        rng = np.random.default_rng(13)
        states = np.empty((2, N_CLAUSES, N_LITERALS), dtype=np.int16)
        states[:, :4] = 1
        states[:, 4:8] = 2 * N
        # Mixed rows: every bound and both sides of the include threshold.
        states[:, 8:] = rng.choice([1, N, N + 1, 2 * N],
                                   (2, N_CLAUSES - 8, N_LITERALS))
        teams = []
        for _ in range(2):
            team = AutomataTeam((2, N_CLAUSES, N_LITERALS), n_states=N)
            team.state[:] = states
            teams.append(team)
        return ReferenceBackend(teams[0]), VectorizedBackend(teams[1])

    @pytest.mark.parametrize("boost", [False, True])
    def test_pinned_states_on_both_backends(self, boost):
        ref, vec = self._pinned_backends()
        rng_ref = make_rng("numpy", seed=3)
        rng_vec = make_rng("numpy", seed=3)
        data = np.random.default_rng(4)
        for event in range(24):
            bank = event % 2
            lit = data.random(N_LITERALS) < 0.5
            mask = data.random(N_CLAUSES) < 0.6
            outputs = vec.bank_outputs(bank, lit)
            assert np.array_equal(outputs, ref.bank_outputs(bank, lit))
            if event % 3 == 0:
                # Force the fired branch, so memorize reaches rows at 2N.
                outputs = np.ones(N_CLAUSES, dtype=np.uint8)
            for be, rng in ((ref, rng_ref), (vec, rng_vec)):
                be.apply_type_i(bank, mask, outputs, lit, 1.5, rng,
                                boost_true_positive=boost)
            assert np.array_equal(ref.team.state, vec.team.state)
            for be in (ref, vec):
                be.apply_type_ii(bank, ~mask, outputs, lit)
            assert np.array_equal(ref.team.state, vec.team.state)
            assert np.array_equal(ref.includes(), vec.includes())
        state = vec.team.state
        assert state.min() == 1 and state.max() == 2 * self.N
        assert np.array_equal(rng_ref.random((8,)), rng_vec.random((8,)))


# ----------------------------------------------------------------------
# Stream-position accounting across consecutive events
# ----------------------------------------------------------------------
class TestStreamAccounting:
    def test_mixed_event_sequence_stays_aligned(self):
        """Alternating empty/sparse/full selections keep both streams in
        lockstep — the regime a real training epoch produces."""
        ref, vec = _paired_backends(seed=21)
        rng_ref = make_rng("numpy", seed=5)
        rng_vec = make_rng("numpy", seed=5)
        masks = [
            np.zeros(N_CLAUSES, dtype=bool),
            np.ones(N_CLAUSES, dtype=bool),
            np.zeros(N_CLAUSES, dtype=bool),
            np.zeros(N_CLAUSES, dtype=bool),
        ]
        masks[2][[0, 7, 14]] = True
        rng_data = np.random.default_rng(3)
        for i, mask in enumerate(masks):
            lit = rng_data.random(N_LITERALS) < 0.5
            out_ref = ref.bank_outputs(i % 2, lit)
            out_vec = vec.bank_outputs(i % 2, lit)
            assert np.array_equal(out_ref, out_vec)
            ref.apply_type_i(i % 2, mask, out_ref, lit, 3.9, rng_ref)
            vec.apply_type_i(i % 2, mask, out_vec, lit, 3.9, rng_vec)
            assert np.array_equal(ref.team.state, vec.team.state)
        assert np.array_equal(rng_ref.random((16,)), rng_vec.random((16,)))

    def test_type_i_after_integers_draw(self):
        """PCG64 buffers a spare 32-bit half after ``integers()``; a Type I
        mask drawn in between takes whole raw words and leaves that half
        for the next ``integers()`` call, on both backends."""
        ref, vec = _paired_backends(seed=23)
        lit = _literals(seed=24)
        outputs = vec.bank_outputs(0, lit)
        mask = np.zeros(N_CLAUSES, dtype=bool)
        mask[[2, 3, 11]] = True
        rngs = [make_rng("numpy", seed=17), make_rng("numpy", seed=17)]
        plain = np.random.default_rng(17)
        first = int(plain.integers(0, 5))
        assert [rng.integers(0, 5) for rng in rngs] == [first] * 2
        ref.apply_type_i(0, mask, outputs, lit, 3.9, rngs[0])
        vec.apply_type_i(0, mask, outputs, lit, 3.9, rngs[1])
        plain.bit_generator.random_raw(3 * N_LITERALS // 2)
        expected = int(plain.integers(0, 1000))
        assert [rng.integers(0, 1000) for rng in rngs] == [expected] * 2
        _assert_equivalent(ref, vec, rngs)
