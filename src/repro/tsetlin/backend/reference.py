"""Reference backend — the seed repo's exact per-sample training path.

This backend preserves today's update semantics verbatim: every update
phase snapshots the full ``(classes, clauses, 2f)`` include matrix via
``team.actions()`` (both the target and rival banks of one update are
evaluated against that pre-update snapshot), clause outputs are computed
densely, and feedback delegates to the original
:mod:`repro.tsetlin.feedback` functions.  Same RNG draw order, bit-identical
trained state for a given seed — the baseline every optimized backend is
validated against.
"""

from __future__ import annotations

import numpy as np

from ..feedback import (
    any_violated,
    clause_outputs,
    type_i_feedback,
    type_ii_feedback,
)
from .base import TMBackend, register_backend

__all__ = ["ReferenceBackend"]


@register_backend
class ReferenceBackend(TMBackend):
    """Dense per-sample backend matching the pre-backend code path."""

    name = "reference"

    def __init__(self, team):
        super().__init__(team)
        self._snapshot = None

    # -- lifecycle -----------------------------------------------------
    def begin_update(self):
        # The seed trainer materialized the full include matrix once per
        # datapoint and read both banks from it.
        self._snapshot = self.team.actions()

    def sync(self):
        self._snapshot = None

    def end_fit(self):
        self._snapshot = None

    # -- queries -------------------------------------------------------
    def includes(self):
        return self.team.actions()

    def bank_outputs(self, class_index, literals, lit_index=None):
        inc = self._snapshot if self._snapshot is not None else self.team.actions()
        return clause_outputs(inc[class_index], literals, empty_output=1)

    def batch_outputs(self, L, empty_output=0):
        inc = self.team.actions()  # (C, K, 2f)
        not_l = (~np.asarray(L, dtype=bool)).astype(np.uint8)
        out = (~any_violated(not_l, inc)).astype(np.uint8)
        if empty_output == 0:
            nonempty = inc.any(axis=2)  # (C, K)
            out &= nonempty[np.newaxis, :, :].astype(np.uint8)
        return out

    def patch_match(self, class_index, patch_literals, lit_index=None):
        inc = self.team.actions()[class_index]  # (K, 2f)
        not_l = 1 - np.asarray(patch_literals, dtype=np.uint8)
        return ~any_violated(not_l, inc[np.newaxis])[:, 0]

    # -- feedback ------------------------------------------------------
    def apply_type_i(self, class_index, clause_mask, outputs, literals, s,
                     rng, boost_true_positive=False):
        type_i_feedback(
            self.team, class_index, clause_mask, outputs, literals, s, rng,
            boost_true_positive=boost_true_positive,
        )

    def apply_type_ii(self, class_index, clause_mask, outputs, literals):
        type_ii_feedback(self.team, class_index, clause_mask, outputs, literals)
