"""Vectorized backend — in-place int16 feedback + bit-packed clause eval.

The reference trainer pays three per-sample costs that dwarf the actual
learning signal: it rematerializes the full ``(classes, clauses, 2f)``
include matrix from the automaton states, evaluates clauses against dense
uint8 literal vectors, and writes the whole ``(clauses, 2f)`` bank per
Type I event even though only the masked clause rows change.

This backend removes all three while staying **bit-identical** with
:class:`~repro.tsetlin.backend.reference.ReferenceBackend`:

* Type I/II feedback updates ``team.state`` in place, on the selected
  clause rows only: a saturating int16 ±1 per row block.  The include
  caches (dense bool, uint64 words and the active-clause index) change
  only for the rows whose ``state > N`` flipped, so the include matrix
  is never re-thresholded or re-packed as a whole on the hot path;
* clause evaluation works on uint64-word-packed literals and includes,
  so one sample/bank evaluation is a ``(clauses, ceil(2f/64))`` word AND
  plus a reduction (a clause fails iff any included literal is 0, i.e.
  iff ``include & ~literals`` has any set bit), with clause rows whose
  include mask is empty skipped entirely via an active-clause index;
* Type I feedback draws the same one ``rng.bernoulli(1 / s, (selected
  rows, 2f))`` mask as the reference, so both leave the generator in
  the same state.

``team.state`` is always live: callers may read it mid-fit with no extra
step.  :meth:`sync` rebuilds the include caches from ``state > N`` after
an external edit and keeps the per-sample output cache when the include
matrix came out unchanged, since clause outputs depend on includes only.

Because the RNG stream and the arithmetic on touched automata are
identical, a machine trained on this backend has the same include matrix,
bit for bit, as one trained on the reference backend with the same seed.
"""

from __future__ import annotations

import numpy as np

from .base import TMBackend, literal_matrix, register_backend
from .packed import (
    pack_not_literal_words,
    pack_words,
    packed_clause_outputs,
)

__all__ = ["VectorizedBackend"]


@register_backend
class VectorizedBackend(TMBackend):
    """Packed-word backend, bit-identical with the reference."""

    name = "vectorized"

    # Retain the per-dataset output cache across fits only below this
    # footprint; repeated fits over the same literal matrix (steady-state
    # benchmarks, sweep refits) then skip the cold refill entirely.
    _CACHE_KEEP_BYTES = 32 << 20

    def __init__(self, team):
        super().__init__(team)
        self._inc = None  # (C, K, F) bool: team.state > N
        self._nlw = None  # uint64-packed ~literals from begin_fit
        self._out_cache = None  # per-(class, sample) clause outputs
        self._in_fit = False
        self.sync()
        self._reset_versions()

    # A sample whose refresh would have to replay more than this many
    # change-log entries re-evaluates the full bank instead; a class
    # whose log outgrows 4x this is reset to full-refresh-for-everyone.
    _LOG_WALK_MAX = 8

    # -- lifecycle -----------------------------------------------------
    def sync(self):
        """Rebuild the include caches from ``team.state > N``.

        Clause outputs depend on includes only, so when the include
        matrix is unchanged — back-to-back fits, or an external edit that
        moves states without crossing ``N`` — the caches and the output
        cache all stay valid and nothing is rebuilt.
        """
        self._N = self.team.n_states
        inc = self.team.state > self._N
        if (
            self._inc is not None
            and self._inc.shape == inc.shape
            and np.array_equal(inc, self._inc)
        ):
            return
        self._inc = inc
        self._incw = pack_words(inc)  # (C, K, W) uint64
        self._active = inc.any(axis=2)  # (C, K) nonempty-clause index
        if self._out_cache is not None:
            # Everything cached is now suspect: force a full re-evaluation
            # on every sample's next visit.
            self._reset_versions()

    def _reset_versions(self):
        """(Re)initialize the output-cache version bookkeeping.

        Each class bank carries an integer version, bumped whenever any of
        its clause include rows change, plus a change log of ``(version,
        rows)`` events.  A sample row of the output cache stores the bank
        version it was last scored against; on a later visit it replays
        only the logged rows — or re-evaluates the whole bank when it is
        older than ``base`` (the log was reset under it).
        """
        C = self.team.shape[0]
        self._class_ver = [1] * C
        self._base_ver = [1] * C
        self._log = [[] for _ in range(C)]
        if self._out_cache is not None:
            n = self._out_cache.shape[1]
            self._samp_ver = [[0] * n for _ in range(C)]

    def begin_fit(self, L_all):
        self.sync()
        self._in_fit = True
        L = np.asarray(L_all, dtype=bool)
        nlw = pack_not_literal_words(L)
        if L.ndim != 2:
            self._nlw = nlw
            self._out_cache = None
            return
        if (
            self._out_cache is not None
            and self._nlw is not None
            and self._nlw.shape == nlw.shape
            and np.array_equal(nlw, self._nlw)
        ):
            return  # same dataset as the previous fit: cache stays warm
        n = len(L)
        C, K, _ = self.team.shape
        self._nlw = nlw
        self._out_cache = np.zeros((C, n, K), dtype=np.uint8)
        self._reset_versions()

    def end_fit(self):
        self._in_fit = False
        keep = (
            self._out_cache is not None
            and self._out_cache.nbytes + self._nlw.nbytes
            <= self._CACHE_KEEP_BYTES
        )
        if not keep:
            self._nlw = None
            self._out_cache = None

    # -- queries -------------------------------------------------------
    def includes(self):
        return self._inc

    def _not_literal_words(self, literals, lit_index):
        if lit_index is not None and self._in_fit and self._nlw is not None:
            return self._nlw[lit_index]
        return pack_not_literal_words(literal_matrix(literals))

    def bank_outputs(self, class_index, literals, lit_index=None):
        if (
            lit_index is not None
            and self._in_fit
            and self._out_cache is not None
        ):
            row = self._out_cache[class_index][lit_index]
            cv = self._class_ver[class_index]
            sample_vers = self._samp_ver[class_index]
            sv = sample_vers[lit_index]
            if sv == cv:
                return row
            nl = self._nlw[lit_index]
            stale = None
            if sv >= self._base_ver[class_index]:
                # Replay only the rows logged since this sample was last
                # scored — typically one or two tiny events.
                parts = []
                for ver, rows in reversed(self._log[class_index]):
                    if ver <= sv:
                        break
                    parts.append(rows)
                    if len(parts) > self._LOG_WALK_MAX:
                        parts = None  # too much churn: full re-eval wins
                        break
                if parts is not None:
                    stale = parts[0] if len(parts) == 1 else (
                        np.concatenate(parts)
                    )
            if stale is None:
                # Full-bank refresh: empty clauses have all-zero include
                # words, hence no violation, hence output 1 — the training
                # convention falls out with no active-mask step.
                violated = np.bitwise_and(
                    self._incw[class_index], nl
                ).any(axis=1)
                np.logical_not(violated, out=row.view(bool))
            else:
                # Of the replayed rows, only active (non-empty) ones need
                # evaluation; empty ones output 1 directly.
                live = stale[self._active[class_index][stale]]
                row[stale] = 1
                if live.size:
                    violated = np.bitwise_and(
                        self._incw[class_index][live], nl
                    ).any(axis=1)
                    row[live] = ~violated
            sample_vers[lit_index] = cv
            return row
        nl = self._not_literal_words(literals, lit_index)  # (W,)
        violated = np.bitwise_and(self._incw[class_index], nl).any(axis=1)
        return (~violated).view(np.uint8)

    def batch_outputs(self, L, empty_output=0):
        nlw = pack_not_literal_words(literal_matrix(L))  # (n, W)
        nonempty = self._active if empty_output == 0 else None
        return packed_clause_outputs(nlw, self._incw, nonempty)

    def patch_match(self, class_index, patch_literals, lit_index=None):
        nl = self._not_literal_words(patch_literals, lit_index)  # (P, W)
        v = np.bitwise_and(nl[:, None, :], self._incw[class_index][None])
        return ~v.any(axis=2)  # (P, K)

    # -- feedback ------------------------------------------------------
    def _write_rows(self, class_index, rows, st, was_included):
        """Store the updated state ``rows`` of one bank; track include flips.

        ``st`` holds the new states of ``rows`` and ``was_included``
        their ``state > N`` before the update.  Only rows whose include
        mask flipped touch the include caches; they bump the class's
        output-cache version and are logged.  No cached output is
        re-scored here: each stale sample row repairs lazily in
        :meth:`bank_outputs` on that sample's next visit, at the cost of
        the rows logged since.
        """
        self.team.state[class_index][rows] = st
        now_included = st > self._N
        changed = np.flatnonzero((now_included != was_included).any(axis=1))
        if not changed.size:
            return
        touched = rows[changed]
        inc_rows = now_included[changed]
        self._inc[class_index][touched] = inc_rows
        self._incw[class_index][touched] = pack_words(inc_rows)
        self._active[class_index][touched] = inc_rows.any(axis=1)
        ver = self._class_ver[class_index] + 1
        self._class_ver[class_index] = ver
        log = self._log[class_index]
        log.append((ver, touched))
        if len(log) > 4 * self._LOG_WALK_MAX:
            # High churn: stop logging individual events and make
            # every sample of this class do a full refresh instead.
            self._base_ver[class_index] = ver
            log.clear()

    def apply_type_i(self, class_index, clause_mask, outputs, literals, s,
                     rng, boost_true_positive=False):
        rows = np.flatnonzero(clause_mask)
        if not rows.size:
            return
        sample = rng.bernoulli(1.0 / s, (len(rows), self.team.shape[2]))

        lit = literal_matrix(literals)
        lit = lit[np.newaxis, :] if lit.ndim == 1 else lit[rows]
        base = np.asarray(outputs, dtype=bool)[rows, np.newaxis] & lit

        # The reference law on the selected rows only: memorize/erode
        # are disjoint, so the guarded increment then the guarded
        # decrement equals the reference's add-then-clip.
        memorize = base if boost_true_positive else base & ~sample
        erode = sample & ~base
        N = self._N
        st = self.team.state[class_index][rows]
        was_included = st > N
        st += memorize & (st < 2 * N)
        st -= erode & (st > 1)
        self._write_rows(class_index, rows, st, was_included)

    def apply_type_ii(self, class_index, clause_mask, outputs, literals):
        mask = np.asarray(clause_mask, dtype=bool) & np.asarray(
            outputs, dtype=bool
        )
        if not mask.any():
            return
        rows = np.flatnonzero(mask)
        lit = literal_matrix(literals)
        lit = lit[np.newaxis, :] if lit.ndim == 1 else lit[rows]
        st = self.team.state[class_index][rows]
        was_included = st > self._N
        # Step excluded automata of 0-valued literals one state toward
        # include; they sit at state <= N, so the result never exceeds
        # N + 1 <= 2N and the unguarded add is exact.
        st += ~lit & ~was_included
        self._write_rows(class_index, rows, st, was_included)
