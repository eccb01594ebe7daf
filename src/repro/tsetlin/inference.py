"""Shared inference surface for every Tsetlin machine variant.

The flat, coalesced, and convolutional machines all reduce inference to
the same three steps — clause outputs, vote-weighted class sums, argmax
with ties broken toward the lower class index (the generated argmax tree
uses strictly-greater comparisons, so hardware and software must agree on
this).  Before this mixin each machine re-implemented the trio; now they
only supply two primitives:

``clause_votes(X, empty_output=0)``
    ``(samples, banks, clauses)`` uint8 clause outputs, where ``banks``
    is ``n_classes`` for per-class clause banks or 1 for a coalesced
    shared pool.

``vote_weights()``
    ``(classes, clauses)`` int vote weights — alternating ±1 polarity
    for vanilla/convolutional machines, the learned weight matrix for
    coalesced ones.
"""

from __future__ import annotations

import numpy as np

__all__ = ["InferenceMixin", "argmax_lowest", "check_features"]


def argmax_lowest(class_sums):
    """Winning class per row, ties toward the **lower** class index.

    ``np.argmax`` already returns the first maximal index; naming the
    convention here keeps the tie-breaking contract (shared with the
    generated argmax comparison tree) explicit and testable in one place.
    """
    return np.argmax(class_sums, axis=1)


def check_features(X, n_features):
    """Validate and normalize ``X`` to ``(samples, n_features)`` uint8.

    Any value other than 0 or 1 raises: cast to uint8, a ``2`` would
    expand to the literal pair ``(2, 255)`` and read as true in both
    halves, silently disagreeing with the dense reference semantics.
    """
    X = np.asarray(X)
    if X.ndim == 1:
        X = X[np.newaxis, :]
    if X.shape[1] != n_features:
        raise ValueError(
            f"expected {n_features} boolean features, got {X.shape[1]}"
        )
    U = X.astype(np.uint8, copy=False)
    exact = X.dtype in (np.bool_, np.uint8) or np.array_equal(U, X)
    if not exact or U.max(initial=0) > 1:
        raise ValueError("features must be 0 or 1")
    return U


class InferenceMixin:
    """``class_sums`` / ``predict`` / ``evaluate`` over machine primitives."""

    def vote_weights(self):
        """Integer vote weights ``(classes, clauses)``."""
        raise NotImplementedError

    def clause_votes(self, X, empty_output=0):
        """Clause outputs ``(samples, banks, clauses)`` uint8."""
        raise NotImplementedError

    def _check_features(self, X):
        return check_features(X, self.n_features)

    def class_sums(self, X, empty_output=0):
        """Vote totals ``(samples, classes)`` int32.

        Hardware convention by default: clauses with no includes are
        pruned (``empty_output=0``), matching the generated accelerator.
        """
        out = np.asarray(self.clause_votes(X, empty_output=empty_output),
                         dtype=np.int32)
        weights = np.asarray(self.vote_weights(), dtype=np.int32)
        if out.shape[1] == 1 and weights.shape[0] != 1:
            # Shared clause pool: one bank voted through per-class weights.
            return out[:, 0, :] @ weights.T
        return np.einsum("nck,ck->nc", out, weights)

    def predict(self, X):
        """Predicted class index per sample: ``argmax_lowest`` of
        :meth:`class_sums` (ties toward the lower index)."""
        return argmax_lowest(self.class_sums(X))

    def evaluate(self, X, y):
        """Classification accuracy on ``(X, y)``."""
        return float(np.mean(self.predict(X) == np.asarray(y)))
