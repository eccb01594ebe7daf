"""Multiclass (vanilla) Tsetlin Machine — training and inference.

This is the ML substrate of the reproduction: the machine whose trained
include/exclude matrix MATADOR translates into silicon.  The implementation
follows Granmo's original multiclass formulation [9] as used by the paper:

* each class owns ``n_clauses`` clauses of alternating polarity
  (even index = +1, odd index = -1, matching Fig. 1a);
* a class sum is the polarity-weighted sum of clause outputs, clamped to
  ``[-T, T]`` during training;
* per datapoint, the target class receives Type I feedback on its positive
  clauses and Type II on its negative clauses, while one randomly drawn
  negative class receives the mirrored combination.

Inference (``predict``) uses the hardware-compatible convention: clauses
that include no literal are pruned (output 0) so that software predictions
match the generated accelerator exactly.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs import get_registry
from .automata import AutomataTeam
from .backend import make_backend
from .booleanize import literals_from_features
from .inference import InferenceMixin
from .rng import NumpyRandom

__all__ = ["MachineBase", "TsetlinMachine"]


class MachineBase(InferenceMixin):
    """Training surface shared by the flat, coalesced and convolutional
    machines: hyperparameter checks, the epoch loop, ``partial_fit`` and
    the rival-class draw.

    A machine calls ``super().__init__`` before building its automata
    team (which draws from ``self.rng``), sets ``self.backend``, and
    supplies two primitives:

    ``_literals(X)``
        The literal tensor of a validated ``(samples, n_features)``
        batch, indexed by sample: ``(samples, 2 * features)`` flat
        literals by default, ``(samples, patches, 2 * patch_features)``
        for the convolutional machine.
    ``_update_one(literals, target, lit_index)``
        One datapoint's feedback, ``literals`` being row ``lit_index``
        of ``_literals``; it fixes the RNG draw order of an update.
    """

    def __init__(self, n_classes, n_clauses, T, s, boost_true_positive,
                 rng, seed):
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if T < 1:
            raise ValueError("T must be >= 1")
        if s < 1.0:
            raise ValueError("s must be >= 1.0")
        self.n_classes = int(n_classes)
        self.n_clauses = int(n_clauses)
        self.T = int(T)
        self.s = float(s)
        self.boost_true_positive = bool(boost_true_positive)
        self.rng = rng if rng is not None else NumpyRandom(seed)

    def _literals(self, X):
        return literals_from_features(X)

    def _update_one(self, literals, target, lit_index=None):
        raise NotImplementedError

    def _rival(self, target):
        """One class other than ``target``, drawn uniformly."""
        rival = self.rng.integers(0, self.n_classes - 1)
        return rival + 1 if rival >= target else rival

    def fit(self, X, y, epochs=10, shuffle=True):
        """Train for ``epochs`` passes over ``(X, y)``.

        ``X`` is a ``(samples, n_features)`` 0/1 matrix and ``y`` the
        integer class labels ``(samples,)``; ``shuffle`` redraws the
        sample order every epoch.  Each epoch counts into
        ``train_epochs_total{backend}`` and ``train_epoch_seconds{backend}``.
        An empty batch is a no-op: state and RNG stream stay as they are.

        >>> import numpy as np
        >>> from repro.tsetlin import CoalescedTsetlinMachine
        >>> X = np.array([[1, 0], [0, 1]] * 4, dtype=np.uint8)
        >>> y = X[:, 0]
        >>> cotm = CoalescedTsetlinMachine(2, 2, n_clauses=8, T=4, seed=1)
        >>> cotm.fit(X, y, epochs=10).evaluate(X, y)
        1.0
        >>> cotm.fit(X, y[:-1])
        Traceback (most recent call last):
        ...
        ValueError: X and y must have the same length
        >>> cotm.fit(X, y + 0.5)
        Traceback (most recent call last):
        ...
        ValueError: labels must be integers
        """
        X = self._check_features(X)
        labels = np.asarray(y)
        if len(X) != len(labels):
            raise ValueError("X and y must have the same length")
        if not len(labels):
            return self
        y = labels.astype(np.int64)
        if not np.array_equal(y, labels):
            raise ValueError("labels must be integers")
        if y.min() < 0 or y.max() >= self.n_classes:
            raise ValueError("labels out of range for n_classes")
        literals = self._literals(X)

        # Instruments resolved once, outside the epoch loop: the hot
        # path only pays one histogram record per epoch.
        backend_name = type(self.backend).__name__
        registry = get_registry()
        m_epoch_s = registry.histogram("train_epoch_seconds",
                                       backend=backend_name)
        m_epochs = registry.counter("train_epochs_total",
                                    backend=backend_name)

        self.backend.begin_fit(literals)
        try:
            y_list = y.tolist()  # plain ints: no per-update numpy scalar
            order = np.arange(len(X))
            for _ in range(epochs):
                t_epoch = time.perf_counter()
                if shuffle:
                    order = order[np.argsort(self.rng.random((len(X),)))]
                for idx in order.tolist():
                    self._update_one(literals[idx], y_list[idx], idx)
                m_epoch_s.record(time.perf_counter() - t_epoch)
                m_epochs.inc()
        finally:
            self.backend.end_fit()
        return self

    def partial_fit(self, X, y):
        """One epoch-free, in-order pass over ``(X, y)``.

        The streaming counterpart of :meth:`fit`: one update per sample
        in the given order.  Because the RNG stream advances only
        through the per-sample updates, chunked ``partial_fit`` calls
        replaying a fixed overall sample order are **bit-identical** to
        a single ``fit(X, y, epochs=1, shuffle=False)`` over the
        concatenated samples (pinned by ``tests/test_partial_fit.py``) —
        which is exactly what this delegates to, so the two paths cannot
        drift apart.
        """
        return self.fit(X, y, epochs=1, shuffle=False)


class TsetlinMachine(MachineBase):
    """Vanilla multiclass Tsetlin Machine.

    Parameters
    ----------
    n_classes:
        Number of output classes.
    n_clauses:
        Clauses **per class** (the paper's Table II counts, e.g. 200 for
        MNIST).  Must be even so polarities balance.
    T:
        Vote margin target.  Feedback probability decays as the clamped
        class sum approaches ``±T``.
    s:
        Specificity; controls the include/erode balance of Type I feedback.
    n_states:
        TA states per action (default 127).
    boost_true_positive:
        Pass-through to Type I feedback.
    rng:
        A :class:`repro.tsetlin.rng.TMRandom`; defaults to a seeded
        :class:`NumpyRandom`.
    backend:
        Training/inference engine: ``"reference"`` (the seed per-sample
        path), ``"vectorized"`` (bit-packed incremental engine,
        bit-identical results, much faster), or a
        :class:`repro.tsetlin.backend.TMBackend` subclass (it is
        constructed against this machine's automata team).
    """

    def __init__(self, n_classes, n_features, n_clauses=20, T=15, s=3.9,
                 n_states=127, boost_true_positive=True, rng=None, seed=42,
                 backend="reference"):
        super().__init__(n_classes, n_clauses, T, s, boost_true_positive,
                         rng, seed)
        if n_clauses < 2 or n_clauses % 2 != 0:
            raise ValueError("n_clauses must be an even number >= 2")
        self.n_features = int(n_features)
        self.team = AutomataTeam(
            (self.n_classes, self.n_clauses, 2 * self.n_features),
            n_states=n_states,
            rng=self.rng,
        )
        # Polarity alternates [+1, -1, +1, ...] along the clause index
        # (Fig. 1a of the paper).
        self.polarity = np.where(np.arange(self.n_clauses) % 2 == 0, 1, -1)
        self._positive = self.polarity > 0
        self._negative = ~self._positive
        # int32 copy for the per-update vote dot: narrower accumulation
        # than the default int64 polarity, same value range (|vote| <= K).
        self._polarity32 = self.polarity.astype(np.int32)
        self.backend = make_backend(backend, self.team)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def includes(self):
        """Include matrix ``(classes, clauses, 2 * features)`` (bool).

        Backends may return an internal cache; treat the result as
        read-only (``export_model`` copies it).
        """
        return self.backend.includes()

    def clause_outputs_batch(self, X, empty_output=0):
        """Clause outputs for a batch: ``(samples, classes, clauses)``.

        Vectorized across the batch by the backend: a clause fails iff any
        included literal is 0 for that sample.
        """
        L = self._literals(self._check_features(X)).astype(bool)  # (n, 2f)
        return self.backend.batch_outputs(L, empty_output=empty_output)

    # InferenceMixin primitives: per-class clause banks voted by polarity.
    clause_votes = clause_outputs_batch

    def vote_weights(self):
        return np.tile(self.polarity, (self.n_classes, 1)).astype(np.int32)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _update_one(self, literals, target, lit_index=None):
        """Single-datapoint update: target class + one sampled rival.

        The backend supplies clause evaluation and feedback application;
        this method fixes the orchestration (and thus the RNG draw order),
        which is identical across backends.  Both banks of one update are
        evaluated against the pre-update include matrix (the rival bank is
        untouched by the target's feedback, so live-cache backends agree
        with the reference snapshot).
        """
        be = self.backend
        be.begin_update()
        T = self.T

        # --- target class -------------------------------------------------
        out_t = be.bank_outputs(target, literals, lit_index)
        vote_t = int(np.dot(out_t, self._polarity32))
        vote_t = max(-T, min(T, vote_t))
        p_t = (T - vote_t) / (2.0 * T)
        pos, neg = self._positive, self._negative
        # An all-False selection consumes no further RNG draws (the
        # backends only draw for non-empty masks), so skipping both
        # feedback calls is stream-exact — and in the trained steady
        # state votes sit at ±T, making empty selections the common case.
        sel = self.rng.bernoulli(p_t, (self.n_clauses,))
        if sel.any():
            be.apply_type_i(
                target, sel & pos, out_t, literals, self.s, self.rng,
                boost_true_positive=self.boost_true_positive,
            )
            be.apply_type_ii(target, sel & neg, out_t, literals)

        # --- one rival class ----------------------------------------------
        rival = self._rival(target)
        out_r = be.bank_outputs(rival, literals, lit_index)
        vote_r = int(np.dot(out_r, self._polarity32))
        vote_r = max(-T, min(T, vote_r))
        p_r = (T + vote_r) / (2.0 * T)
        sel_r = self.rng.bernoulli(p_r, (self.n_clauses,))
        if sel_r.any():
            be.apply_type_ii(rival, sel_r & pos, out_r, literals)
            be.apply_type_i(
                rival, sel_r & neg, out_r, literals, self.s, self.rng,
                boost_true_positive=self.boost_true_positive,
            )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_model(self, name="tm"):
        """Freeze the trained machine into a :class:`repro.model.TMModel`."""
        from ..model.model import TMModel

        return TMModel(
            include=self.includes().copy(),
            n_features=self.n_features,
            name=name,
            hyperparameters={
                "n_clauses": self.n_clauses,
                "T": self.T,
                "s": self.s,
                "n_states": self.team.n_states,
            },
        )
