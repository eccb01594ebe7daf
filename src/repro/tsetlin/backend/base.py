"""Backend abstraction for Tsetlin Machine training and inference.

Every TM variant in :mod:`repro.tsetlin` decomposes one datapoint's update
into the same primitives: evaluate a clause bank, then apply Type I / Type
II feedback to a masked subset of its clauses.  A :class:`TMBackend`
implements those primitives against an :class:`~repro.tsetlin.automata.
AutomataTeam`, so the machines (flat, coalesced, convolutional) only
orchestrate *which* primitives run in *what* order — the order that fixes
the RNG stream and therefore the trained model.

Two implementations ship:

* :class:`~repro.tsetlin.backend.reference.ReferenceBackend` — the seed
  repo's exact per-sample code path (full ``actions()`` rematerialization
  per update, dense feedback).  Bit-identical with the pre-backend code for
  a given seed; the semantic baseline.
* :class:`~repro.tsetlin.backend.vectorized.VectorizedBackend` — keeps the
  include matrix (bool + bit-packed) incrementally in sync with the
  automaton states, evaluates clauses with uint64-word-packed bitwise
  ops and touches only the clause rows selected by feedback.  Produces
  bit-identical trained state to the reference backend at a fraction of
  the cost.

Backends are registered by name; machines accept ``backend="reference"``,
``backend="vectorized"``, or a :class:`TMBackend` subclass, which they
construct against their own automata team.  (``make_backend`` also passes
through an already-constructed instance, but only when it is bound to the
same team — machines create their team internally, so instance passing is
for callers that wire teams and backends together themselves.)
"""

from __future__ import annotations

import numpy as np

__all__ = ["TMBackend", "BACKENDS", "register_backend", "make_backend"]


class TMBackend:
    """Interface every training/inference backend implements.

    A backend is bound to one :class:`~repro.tsetlin.automata.AutomataTeam`
    of shape ``(classes, clauses, 2 * features)``.  The team's state array
    remains the single source of truth (serialization, ``include_count``,
    direct test manipulation all keep working); backends may cache derived
    views of it but must honour :meth:`sync` after external mutation.
    """

    name = None

    def __init__(self, team):
        self.team = team

    # -- lifecycle -----------------------------------------------------
    def begin_fit(self, L_all):
        """Called once per ``fit`` with the full literal matrix.

        ``L_all`` is ``(samples, 2f)`` (flat/coalesced) or ``(samples,
        patches, 2f)`` (convolutional).  Backends may precompute per-sample
        structures; ``lit_index`` arguments to the query primitives then
        address rows of this matrix.
        """

    def end_fit(self):
        """Called when ``fit`` finishes; drop per-dataset caches."""

    def begin_update(self):
        """Called at the start of one datapoint's update phase.

        The reference backend snapshots ``team.actions()`` here — the seed
        semantics where the target and rival banks of one update are both
        evaluated against the pre-update include matrix.
        """

    def sync(self):
        """Resynchronize any cached state from ``team.state``.

        Must be called after the team's state array is mutated behind the
        backend's back (deserialization, tests poking states, direct calls
        to the :mod:`repro.tsetlin.feedback` functions).
        """

    # -- queries -------------------------------------------------------
    def includes(self):
        """Include matrix ``(classes, clauses, 2f)`` bool.

        May return an internal cache; callers must not mutate the result.
        """
        raise NotImplementedError

    def bank_outputs(self, class_index, literals, lit_index=None):
        """Training-convention clause outputs ``(clauses,)`` uint8.

        Empty clauses output 1 (the hardware training convention).  When
        ``lit_index`` is given and a ``begin_fit`` literal matrix is live,
        backends may use their precomputed form of row ``lit_index``
        instead of ``literals``.
        """
        raise NotImplementedError

    def batch_outputs(self, L, empty_output=0):
        """Inference clause outputs ``(samples, classes, clauses)`` uint8.

        ``L`` is a boolean ``(samples, 2f)`` literal matrix.  With
        ``empty_output=0`` clauses with no includes are pruned, matching
        the generated accelerator.
        """
        raise NotImplementedError

    def patch_match(self, class_index, patch_literals, lit_index=None):
        """Convolutional clause/patch satisfaction ``(patches, clauses)``.

        ``patch_literals`` is ``(patches, 2f)`` for one sample; entry
        ``(p, k)`` is True iff clause ``k`` is satisfied by patch ``p``.
        ``lit_index`` addresses the ``begin_fit`` literal tensor as in
        :meth:`bank_outputs`.
        """
        raise NotImplementedError

    # -- feedback ------------------------------------------------------
    def apply_type_i(self, class_index, clause_mask, outputs, literals, s,
                     rng, boost_true_positive=False):
        """Type I feedback on the masked clauses of one bank.

        Must consume the RNG stream exactly like
        :func:`repro.tsetlin.feedback.type_i_feedback` (one
        ``rng.bernoulli(1 / s, (selected clauses, 2f))`` mask when the
        mask is non-empty, nothing otherwise), so that all backends stay
        bit-identical.
        """
        raise NotImplementedError

    def apply_type_ii(self, class_index, clause_mask, outputs, literals):
        """Type II feedback on the masked clauses of one bank (no RNG)."""
        raise NotImplementedError


BACKENDS = {}


def register_backend(cls):
    """Class decorator: register a backend under its ``name``."""
    if not cls.name:
        raise ValueError("backend class must define a non-empty name")
    BACKENDS[cls.name] = cls
    return cls


def make_backend(backend, team):
    """Resolve ``backend`` (name, class, or instance) against ``team``."""
    if isinstance(backend, TMBackend):
        if backend.team is not team:
            raise ValueError("backend instance is bound to a different team")
        return backend
    if isinstance(backend, type) and issubclass(backend, TMBackend):
        return backend(team)
    try:
        cls = BACKENDS[backend]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown backend {backend!r}; available: {sorted(BACKENDS)}"
        ) from None
    return cls(team)


def literal_matrix(literals):
    """Normalize to a bool array without copying when already bool."""
    return np.asarray(literals, dtype=bool)
