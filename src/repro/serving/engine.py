"""Packed-literal batched inference engine over frozen model snapshots.

Training mutates automata in place; serving must not observe that.  An
:class:`InferenceEngine` therefore freezes one *snapshot* of a model —
the active include rows packed once into uint64 words (``pack_words``),
the vote-weight matrix copied — and answers every subsequent request
with the same word-AND kernel the
:class:`~repro.tsetlin.backend.VectorizedBackend` trains with
(:mod:`repro.tsetlin.backend.packed`).  Packing per snapshot
instead of per request is what the generic ``batch_outputs`` path cannot
do: it re-derives the include matrix from whatever backend happens to be
attached, every call.

Three snapshot shapes cover the machine zoo:

* flat machines / :class:`~repro.model.TMModel` — per-class clause banks
  ``(C, K, 2f)`` voted by alternating polarity (or attached weights);
* coalesced machines — one shared bank ``(1, K, 2f)`` voted by the
  learned ``(C, K)`` weight matrix (served without replicating the pool
  per class, unlike ``export_model``);
* convolutional machines — per-class banks over patch literals, a clause
  firing iff **any** patch satisfies it
  (:class:`ConvolutionalInferenceEngine`).

All three reproduce the reference software semantics bit for bit (empty
clauses pruned, argmax ties toward the lower class index), which is what
lets :class:`~repro.serving.differential.DifferentialChecker` replay
served batches through the cycle-accurate simulator and demand equality.
"""

from __future__ import annotations

import numpy as np

from ..model.sparsity import ActiveClauseIndex
from ..tsetlin.booleanize import literals_from_features
from ..tsetlin.backend.packed import (
    BATCH_CHUNK_BYTES,
    pack_not_literal_words,
    pack_words,
    packed_clause_outputs,
)
from ..tsetlin.coalesced import CoalescedTsetlinMachine
from ..tsetlin.convolutional import ConvolutionalTsetlinMachine, patch_features
from ..tsetlin.inference import argmax_lowest, check_features

__all__ = ["InferenceEngine", "ConvolutionalInferenceEngine", "snapshot_engine"]


class InferenceEngine:
    """Batched inference over one frozen include-matrix snapshot.

    Parameters
    ----------
    include:
        Boolean include matrix ``(banks, clauses, 2 * n_features)`` —
        ``banks`` is ``n_classes`` for per-class clause banks or 1 for a
        coalesced shared pool.  Copied (the snapshot must not alias live
        training state).
    weights:
        Integer vote weights ``(n_classes, clauses)``.
    n_features:
        Boolean input width (half the literal count).
    name, version:
        Snapshot identity, stamped by :class:`~repro.serving.registry.
        Registry` on publish.

    >>> import numpy as np
    >>> from repro.serving import InferenceEngine
    >>> include = np.zeros((2, 1, 4), dtype=bool)
    >>> include[0, 0, 0] = True                  # class-0 clause: x0
    >>> include[1, 0, 2] = True                  # class-1 clause: NOT x0
    >>> engine = InferenceEngine(include, weights=[[1], [1]], n_features=2)
    >>> engine.predict([[1, 0], [0, 1]])
    array([0, 1])
    >>> engine.class_sums([[1, 0]])
    array([[1, 0]], dtype=int32)
    """

    def __init__(self, include, weights, n_features, name="model", version=0):
        include = np.array(include, dtype=bool)  # snapshot copy
        if include.ndim != 3:
            raise ValueError("include must be (banks, clauses, 2*features)")
        if include.shape[2] != 2 * n_features:
            raise ValueError(
                f"include has {include.shape[2]} literal columns, expected "
                f"{2 * n_features}"
            )
        weights = np.array(weights, dtype=np.int32)
        if weights.ndim != 2 or weights.shape[1] != include.shape[1]:
            raise ValueError("weights must be (classes, clauses)")
        if include.shape[0] not in (1, weights.shape[0]):
            raise ValueError(
                f"{include.shape[0]} clause banks cannot vote for "
                f"{weights.shape[0]} classes"
            )
        self.include = include
        self.include.setflags(write=False)
        self.weights = weights
        self.weights.setflags(write=False)
        self.n_features = int(n_features)
        self.name = str(name)
        self.version = int(version)
        # Clause-sparsity skipping: the hot loop evaluates only the
        # non-empty clauses (empty ones can never fire under the pruning
        # convention) and votes them with a float64 (n, A) @ (A, C)
        # matmul (``_vote``).
        # The dense snapshot above remains the interchange artifact for
        # promotion/serialization; the index densifies back exactly.
        self.active_index = ActiveClauseIndex.from_include(include, weights)
        self._inc_words_active = pack_words(self.active_index.include_active)
        self._weights_active_t = np.ascontiguousarray(
            self.active_index.weights_active.T, dtype=np.float64
        )

    # ------------------------------------------------------------------
    @property
    def n_classes(self):
        return self.weights.shape[0]

    @property
    def n_clauses(self):
        return self.include.shape[1]

    # ------------------------------------------------------------------
    def class_sums(self, X):
        """Vote totals ``(samples, classes)`` int32, empty clauses pruned."""
        X = check_features(X, self.n_features)
        nlw = pack_not_literal_words(literals_from_features(X))
        out = packed_clause_outputs(nlw, self._inc_words_active)  # (n, A)
        return self._vote(out)

    def _vote(self, fired):
        """Class sums ``(n, C)`` int32 of active clause outputs ``(n, A)``.

        The matmul runs in float64, which has a BLAS path (numpy's integer
        matmul has none) and is exact for any int32 weights.  Rows are
        cast in blocks of at most ``BATCH_CHUNK_BYTES``, so a large batch
        makes no whole float64 copy.
        """
        weights = self._weights_active_t
        sums = np.empty((len(fired), weights.shape[1]), dtype=np.int32)
        rows = max(1, BATCH_CHUNK_BYTES // max(8 * weights.shape[0], 1))
        for a in range(0, len(fired), rows):
            sums[a:a + rows] = fired[a:a + rows].astype(np.float64) @ weights
        return sums

    def predict(self, X):
        """Predicted class per sample (ties toward the lower index)."""
        return argmax_lowest(self.class_sums(X))

    def predict_with_sums(self, X):
        """``(predictions, class_sums)`` from a single packed evaluation."""
        sums = self.class_sums(X)
        return argmax_lowest(sums), sums

    def evaluate(self, X, y):
        return float(np.mean(self.predict(X) == np.asarray(y)))

    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model, name=None, version=0):
        """Snapshot a :class:`~repro.model.TMModel` (flat or weighted)."""
        return cls(
            include=model.include,
            weights=model.vote_weights(),
            n_features=model.n_features,
            name=name if name is not None else model.name,
            version=version,
        )

    def __repr__(self):
        return (
            f"{type(self).__name__}(name={self.name!r}, v{self.version}, "
            f"classes={self.n_classes}, clauses={self.n_clauses}, "
            f"features={self.n_features}, banks={self.include.shape[0]})"
        )


class ConvolutionalInferenceEngine(InferenceEngine):
    """Patch-OR inference snapshot of a convolutional machine.

    Clause semantics follow the CTM: a clause fires for a sample iff any
    ``(patch_h, patch_w)`` window's literal vector (pixels + thermometer
    coordinates) satisfies it.  The patch geometry is copied from the
    machine at snapshot time.

    >>> from repro.tsetlin import ConvolutionalTsetlinMachine
    >>> from repro.serving import ConvolutionalInferenceEngine  # doctest: +SKIP
    >>> engine = ConvolutionalInferenceEngine.from_machine(ctm)  # doctest: +SKIP
    >>> engine.predict(X_images)  # doctest: +SKIP
    """

    def __init__(self, include, weights, image_shape, patch_shape, coord_bits,
                 name="ctm", version=0):
        self.image_h, self.image_w = map(int, image_shape)
        self.patch_h, self.patch_w = map(int, patch_shape)
        self._coord_bits = np.array(coord_bits, dtype=np.uint8)
        n_patch_features = include.shape[2] // 2
        super().__init__(include, weights, n_patch_features,
                         name=name, version=version)
        # The engine's request width is the flat image, not patch features.
        self.n_features = self.image_h * self.image_w

    def class_sums(self, X):
        patches = patch_features(check_features(X, self.n_features),
                                 (self.image_h, self.image_w),
                                 (self.patch_h, self.patch_w),
                                 self._coord_bits)  # (n, P, f)
        n, P, f = patches.shape
        nlw = pack_not_literal_words(
            literals_from_features(patches.reshape(n * P, f)))
        # Active clauses only: a pruned (empty) clause can never fire, so
        # the patch-OR and the vote run over the compact rows.
        per_patch = packed_clause_outputs(nlw, self._inc_words_active)
        A = per_patch.shape[-1]
        fired = per_patch.reshape(n, P, A).any(axis=1)
        return self._vote(fired)

    @classmethod
    def from_machine(cls, machine, name="ctm", version=0):
        return cls(
            include=machine.backend.includes(),
            weights=machine.vote_weights(),
            image_shape=(machine.image_h, machine.image_w),
            patch_shape=(machine.patch_h, machine.patch_w),
            coord_bits=machine._coord_bits,
            name=name,
            version=version,
        )


def snapshot_engine(source, name=None, version=0):
    """Snapshot any model/machine kind into the right engine.

    Accepts a :class:`~repro.model.TMModel`, a flat
    :class:`~repro.tsetlin.TsetlinMachine`, a
    :class:`~repro.tsetlin.CoalescedTsetlinMachine` (served as a single
    shared bank — no per-class replication), or a
    :class:`~repro.tsetlin.ConvolutionalTsetlinMachine`.

    >>> import numpy as np
    >>> from repro.model import TMModel
    >>> from repro.serving import snapshot_engine
    >>> include = np.zeros((2, 1, 4), dtype=bool)
    >>> include[0, 0, 0] = True; include[1, 0, 2] = True
    >>> model = TMModel(include=include, n_features=2, weights=[[1], [1]])
    >>> engine = snapshot_engine(model, name="tiny", version=7)
    >>> engine.name, engine.version, engine.n_classes
    ('tiny', 7, 2)
    >>> engine.predict([[1, 0]])
    array([0])
    """
    if isinstance(source, ConvolutionalTsetlinMachine):
        return ConvolutionalInferenceEngine.from_machine(
            source, name=name or "ctm", version=version
        )
    if isinstance(source, CoalescedTsetlinMachine):
        return InferenceEngine(
            include=source.includes()[np.newaxis],
            weights=source.vote_weights(),
            n_features=source.n_features,
            name=name or "cotm",
            version=version,
        )
    if hasattr(source, "export_model"):  # flat machine
        model = source.export_model(name or "tm")
        return InferenceEngine.from_model(model, name=name, version=version)
    return InferenceEngine.from_model(source, name=name, version=version)
