"""Sparsity and logic-sharing analysis of trained TM models (Fig. 3).

Section II of the paper reports two empirical observations that make the
boolean-to-silicon translation effective:

1. **Sparsity** — trained models include only a tiny fraction of the
   available literals;
2. **Sharing** — identical boolean (sub)expressions recur across clauses
   within a class and between classes, so synthesis can absorb them into
   shared logic.

This module quantifies both so the design generator and the Fig. 3 / Fig. 8
benches can report them — and, since the sparsity observation holds, puts
it to work: :class:`ActiveClauseIndex` compacts an include matrix down to
its non-empty clauses so the serving hot loop evaluates only clauses that
can ever fire, and densifies back to the exact original artifact on
snapshot/promotion boundaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .expressions import shared_expression_pool

__all__ = [
    "ActiveClauseIndex",
    "SparsityReport",
    "SharingReport",
    "analyze_sparsity",
    "analyze_sharing",
]

# Bytes of one float64 row block of :func:`_pairwise_overlap`'s Gram matrix.
OVERLAP_BLOCK_BYTES = 1 << 20


@dataclass
class SparsityReport:
    """Include-density statistics of a model."""

    n_classes: int
    n_clauses: int
    n_literals: int
    total_automata: int
    total_includes: int
    density: float
    includes_per_clause_mean: float
    includes_per_clause_max: int
    empty_clauses: int
    contradictory_clauses: int
    per_class_density: list = field(default_factory=list)

    def summary(self):
        return (
            f"density={self.density:.4%} "
            f"(includes={self.total_includes}/{self.total_automata}), "
            f"mean includes/clause={self.includes_per_clause_mean:.1f}, "
            f"empty clauses={self.empty_clauses}"
        )


@dataclass
class SharingReport:
    """Expression-sharing statistics of a model.

    ``pairwise_literal_overlap`` is the mean Jaccard overlap between the
    literal sets of two non-empty clauses, exact over all unordered pairs
    of the model's non-empty clauses — the raw material synthesis
    logic-absorption exploits even when full clauses are not identical.
    ``shared_literal_pairs`` counts the pairs with at least one common
    literal.
    """

    distinct_expressions: int
    total_nonempty_clauses: int
    duplicated_expressions: int
    duplicate_instances: int
    intra_class_duplicates: int
    inter_class_duplicates: int
    full_clause_sharing_ratio: float
    shared_literal_pairs: int
    pairwise_literal_overlap: float
    top_shared: list = field(default_factory=list)

    def summary(self):
        return (
            f"{self.distinct_expressions} distinct / "
            f"{self.total_nonempty_clauses} clauses, "
            f"{self.duplicate_instances} duplicate instances "
            f"({self.full_clause_sharing_ratio:.2%} clause sharing), "
            f"mean literal overlap={self.pairwise_literal_overlap:.3f}"
        )


class ActiveClauseIndex:
    """Compact form of an include matrix: only the non-empty clauses.

    Empty clauses (no included literal) can never fire under the
    hardware/serving convention — evaluating them is pure waste, and
    trained models routinely leave a large fraction of the clause budget
    empty (see :func:`analyze_sparsity`).  This index flattens a
    ``(banks, clauses, 2f)`` include matrix to the ``A`` active rows plus
    the bookkeeping needed to (a) vote them into per-class sums with one
    matmul and (b) reconstruct the **exact** dense artifact.

    ``banks`` is ``n_classes`` for per-class clause banks or 1 for a
    coalesced shared pool (which votes every class's weight row).

    Round-trip contract: :meth:`densify` returns an include matrix
    ``np.array_equal`` to the original, and :meth:`densify_model` (when
    built :meth:`from_model`) a :class:`~repro.model.TMModel` whose
    serialized bytes equal the source model's — pruning is a hot-loop
    layout change, never a semantic one.

    >>> import numpy as np
    >>> include = np.zeros((2, 3, 4), dtype=bool)
    >>> include[0, 1, 0] = True; include[1, 2, 3] = True
    >>> idx = ActiveClauseIndex.from_include(include, [[1, -1, 1], [1, -1, 1]])
    >>> idx.n_active, idx.bank_ids.tolist(), idx.clause_ids.tolist()
    (2, [0, 1], [1, 2])
    >>> idx.weights_active.tolist()     # class x active-clause votes
    [[-1, 0], [0, 1]]
    >>> bool(np.array_equal(idx.densify(), include))
    True
    """

    def __init__(self, include_active, bank_ids, clause_ids, weights_active,
                 shape, weights=None):
        self.include_active = include_active  # (A, 2f) bool
        self.bank_ids = bank_ids              # (A,) source bank per row
        self.clause_ids = clause_ids          # (A,) clause index in bank
        self.weights_active = weights_active  # (C, A) int32 vote matrix
        self.shape = tuple(int(s) for s in shape)  # dense (banks, K, 2f)
        self.weights = weights                # dense (C, K) vote matrix
        self._model_meta = None

    @property
    def n_active(self):
        """Number of non-empty clauses across all banks."""
        return int(self.include_active.shape[0])

    @classmethod
    def from_include(cls, include, weights):
        """Build from a ``(banks, clauses, 2f)`` include + ``(C, K)`` weights."""
        include = np.asarray(include, dtype=bool)
        weights = np.asarray(weights, dtype=np.int32)
        banks, n_clauses, _ = include.shape
        n_classes = weights.shape[0]
        bank_ids, clause_ids = np.nonzero(include.any(axis=2))
        include_active = np.ascontiguousarray(include[bank_ids, clause_ids])
        # One matmul votes the compact outputs into class sums: class c
        # weights active row j iff the row's bank votes for c (its own
        # bank for per-class banks; every class for a shared pool).
        weights_active = weights[:, clause_ids].copy()
        if banks != 1:
            weights_active *= bank_ids[np.newaxis] == np.arange(
                n_classes
            )[:, np.newaxis]
        return cls(include_active, bank_ids, clause_ids, weights_active,
                   include.shape, weights=weights)

    @classmethod
    def from_model(cls, model):
        """Build from a :class:`~repro.model.TMModel` (exact round-trip)."""
        index = cls.from_include(model.include, model.vote_weights())
        index._model_meta = {
            "name": model.name,
            "n_features": model.n_features,
            "weights": model.weights,
            "hyperparameters": dict(model.hyperparameters),
        }
        return index

    def densify(self):
        """The exact dense ``(banks, clauses, 2f)`` include matrix."""
        include = np.zeros(self.shape, dtype=bool)
        include[self.bank_ids, self.clause_ids] = self.include_active
        return include

    def densify_model(self):
        """Reconstruct the source :class:`~repro.model.TMModel`.

        Only available when built via :meth:`from_model`; the result
        serializes to byte-identical JSON (same include matrix, name,
        weights, and hyperparameters).
        """
        from .model import TMModel

        if self._model_meta is None:
            raise ValueError(
                "densify_model() requires an index built with from_model()"
            )
        meta = self._model_meta
        return TMModel(
            include=self.densify(),
            n_features=meta["n_features"],
            name=meta["name"],
            weights=meta["weights"],
            hyperparameters=meta["hyperparameters"],
        )

    def __repr__(self):
        banks, n_clauses, _ = self.shape
        return (
            f"ActiveClauseIndex({self.n_active}/{banks * n_clauses} "
            f"clauses active, shape={self.shape})"
        )


def analyze_sparsity(model):
    """Compute a :class:`SparsityReport` for a :class:`repro.model.TMModel`."""
    counts = model.includes_per_clause()
    inc, f = model.include, model.n_features
    return SparsityReport(
        n_classes=model.n_classes,
        n_clauses=model.n_clauses,
        n_literals=model.n_literals,
        total_automata=int(model.include.size),
        total_includes=int(counts.sum()),
        density=model.density(),
        includes_per_clause_mean=float(counts.mean()),
        includes_per_clause_max=int(counts.max()),
        empty_clauses=int(model.empty_clause_mask().sum()),
        # A clause holding both x_j and ~x_j never fires.
        contradictory_clauses=int((inc[..., :f] & inc[..., f:]).any(axis=2).sum()),
        per_class_density=[float(model.include[c].mean()) for c in range(model.n_classes)],
    )


def _pairwise_overlap(model):
    """Exact mean Jaccard overlap and shared-literal pair count over all
    unordered pairs of non-empty clauses, from a float32 Gram matrix taken
    in row blocks of about :data:`OVERLAP_BLOCK_BYTES` (never ``(n, n)``).
    Intersections are small integers, exact in float32; the division and
    the sum run in float64.
    """
    inc = model.include.reshape(-1, model.n_literals)
    active = inc[inc.any(axis=1)].astype(np.float32)
    n = active.shape[0]
    if n < 2:
        return 0.0, 0
    sizes = active.sum(axis=1, dtype=np.float64)
    block = max(1, OVERLAP_BLOCK_BYTES // (8 * n))
    total, shared = 0.0, 0
    for a in range(0, n - 1, block):
        # Row i = a + r of the block against every clause j: keep j > i.
        inter = np.triu(active[a:a + block] @ active.T, k=a + 1).astype(np.float64)
        total += float((inter / (sizes[a:a + block, None] + sizes - inter)).sum())
        shared += int(np.count_nonzero(inter))
    return total / (n * (n - 1) // 2), shared


def analyze_sharing(model, top_k=10):
    """Compute a :class:`SharingReport` for a :class:`repro.model.TMModel`.

    >>> import numpy as np
    >>> from repro.model import TMModel
    >>> include = np.zeros((1, 3, 4), dtype=bool)  # literals x0 x1 ~x0 ~x1
    >>> include[0, 0, [0, 1]] = True; include[0, 1, 0] = True
    >>> include[0, 2, 1] = True  # x0 & x1, x0, x1: Jaccard 1/2, 1/2 and 0
    >>> rep = analyze_sharing(TMModel(include=include, n_features=2))
    >>> rep.shared_literal_pairs, round(rep.pairwise_literal_overlap, 4)
    (2, 0.3333)
    """
    pool = shared_expression_pool(model)
    total_nonempty = sum(len(v) for v in pool.values())
    duplicated = {e: locs for e, locs in pool.items() if len(locs) > 1}
    duplicate_instances = sum(len(v) for v in duplicated.values())

    intra = 0
    inter = 0
    for locs in duplicated.values():
        classes = Counter(c for c, _ in locs)
        intra += sum(n - 1 for n in classes.values() if n > 1)
        if len(classes) > 1:
            inter += len(classes) - 1

    overlap, shared_pairs = _pairwise_overlap(model)
    top = sorted(duplicated.items(), key=lambda kv: -len(kv[1]))[:top_k]
    return SharingReport(
        distinct_expressions=len(pool),
        total_nonempty_clauses=total_nonempty,
        duplicated_expressions=len(duplicated),
        duplicate_instances=duplicate_instances,
        intra_class_duplicates=intra,
        inter_class_duplicates=inter,
        full_clause_sharing_ratio=(
            (total_nonempty - len(pool)) / total_nonempty if total_nonempty else 0.0
        ),
        shared_literal_pairs=shared_pairs,
        pairwise_literal_overlap=overlap,
        top_shared=[(len(locs), expr) for expr, locs in top],
    )
