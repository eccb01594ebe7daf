"""Coalesced Tsetlin Machine (CoTM) — shared clause pool with class weights.

The paper cites the Coalesced TM [16] as a small-memory-footprint variant and
names "accelerating other TM models" as future work.  We implement it as an
extension so the MATADOR flow can also generate accelerators for weighted
shared-clause models.

In a CoTM a single pool of ``n_clauses`` clauses is shared by all classes;
each class holds a signed integer weight per clause and the class sum is the
weight-weighted sum of clause outputs.  Training updates both the clause
automata (Type I/II, as in the vanilla machine) and the weights (±1 steps).
"""

from __future__ import annotations

import numpy as np

from .automata import AutomataTeam
from .backend import make_backend
from .machine import MachineBase

__all__ = ["CoalescedTsetlinMachine"]


class CoalescedTsetlinMachine(MachineBase):
    """Coalesced multi-output Tsetlin Machine.

    Parameters mirror :class:`repro.tsetlin.machine.TsetlinMachine`, except
    ``n_clauses`` counts the *shared* pool, not clauses per class; the
    shared pool trains through the same pluggable ``backend`` engines.
    """

    def __init__(self, n_classes, n_features, n_clauses=64, T=20, s=3.9,
                 n_states=127, boost_true_positive=True, rng=None, seed=42,
                 backend="reference"):
        super().__init__(n_classes, n_clauses, T, s, boost_true_positive,
                         rng, seed)
        if n_clauses < 1:
            raise ValueError("n_clauses must be >= 1")
        self.n_features = int(n_features)
        # The shared pool lives in a 1-class team: (1, K, 2f).
        self.team = AutomataTeam(
            (1, self.n_clauses, 2 * self.n_features), n_states=n_states, rng=self.rng
        )
        # Integer weights per (class, clause); start at +1/-1 alternating so
        # each class begins with balanced vote polarity.
        signs = np.where(np.arange(self.n_clauses) % 2 == 0, 1, -1)
        self.weights = np.tile(signs, (self.n_classes, 1)).astype(np.int32)
        self.backend = make_backend(backend, self.team)

    # ------------------------------------------------------------------
    def includes(self):
        """Shared include matrix ``(clauses, 2 * features)`` (read-only)."""
        return self.backend.includes()[0]

    def clause_outputs_batch(self, X, empty_output=0):
        """Shared pool outputs per sample: ``(samples, clauses)``."""
        return self.clause_votes(X, empty_output=empty_output)[:, 0, :]

    # InferenceMixin primitives: one shared bank voted by learned weights.
    def clause_votes(self, X, empty_output=0):
        L = self._literals(self._check_features(X)).astype(bool)
        return self.backend.batch_outputs(L, empty_output=empty_output)

    def vote_weights(self):
        return self.weights

    # ------------------------------------------------------------------
    def _update_for_class(self, literals, cls, is_target, lit_index=None):
        """CoTM update of the shared pool and one class's weights.

        Each class phase re-evaluates the live pool (the rival phase sees
        the target phase's feedback), so ``begin_update`` runs per phase.
        """
        be = self.backend
        be.begin_update()
        out = be.bank_outputs(0, literals, lit_index)
        vote = int(np.dot(out.astype(np.int64), self.weights[cls]))
        T = self.T
        vote = max(-T, min(T, vote))
        p = (T - vote) / (2.0 * T) if is_target else (T + vote) / (2.0 * T)
        sel = self.rng.bernoulli(p, (self.n_clauses,))
        w_pos = self.weights[cls] >= 0
        fired = out.astype(bool)

        if is_target:
            # Positive-weight clauses learn the pattern; negative-weight
            # clauses that fire are suppressed (Type II).
            be.apply_type_i(
                0, sel & w_pos, out, literals, self.s, self.rng,
                boost_true_positive=self.boost_true_positive,
            )
            be.apply_type_ii(0, sel & ~w_pos, out, literals)
            # Weight update: firing selected clauses drift toward this class.
            self.weights[cls] += (sel & fired & w_pos).astype(np.int32)
            self.weights[cls] -= (sel & fired & ~w_pos).astype(np.int32)
        else:
            be.apply_type_ii(0, sel & w_pos, out, literals)
            be.apply_type_i(
                0, sel & ~w_pos, out, literals, self.s, self.rng,
                boost_true_positive=self.boost_true_positive,
            )
            self.weights[cls] -= (sel & fired & w_pos).astype(np.int32)
            self.weights[cls] += (sel & fired & ~w_pos).astype(np.int32)

    def _update_one(self, literals, target, lit_index=None):
        """Target phase, then one rival class's phase, on the live pool."""
        self._update_for_class(literals, target, True, lit_index)
        self._update_for_class(literals, self._rival(target), False,
                               lit_index)

    # ------------------------------------------------------------------
    def export_model(self, name="cotm"):
        """Freeze into a weighted :class:`repro.model.TMModel`.

        The shared pool is replicated per class with the class's weights, so
        downstream tooling (codegen, analysis) sees the standard layout.  The
        weight matrix is preserved so the generator can emit weighted
        class-sum adders.
        """
        from ..model.model import TMModel

        inc = self.includes()
        replicated = np.tile(inc[np.newaxis, :, :], (self.n_classes, 1, 1))
        return TMModel(
            include=replicated,
            n_features=self.n_features,
            name=name,
            weights=self.weights.copy(),
            hyperparameters={
                "n_clauses": self.n_clauses,
                "T": self.T,
                "s": self.s,
                "coalesced": True,
            },
        )
