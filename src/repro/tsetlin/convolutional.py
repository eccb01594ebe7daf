"""Convolutional Tsetlin Machine (CTM) — paper ref [14], future work.

The paper's conclusion names "accelerating other TM models for
scalability to larger datasets" as further work, citing the
Convolutional TM.  This module provides the ML substrate: clauses are
evaluated over every ``(patch_h, patch_w)`` window of the input image
and fire if **any** window matches (an OR over patches), which buys
translation tolerance that the flat machine lacks.

Following Granmo et al., each patch's literal vector contains the patch
pixels plus thermometer-coded patch coordinates, so clauses can learn
position-sensitive patterns ("a loop in the upper half") as well as
position-free ones.

Training follows the CTM rule: when a clause fires, one of its matching
patches is drawn at random and Type I/II feedback is applied against
that patch's literals.

Hardware generation for CTMs is out of scope here, as in the paper; the
accelerator path covers the flat and coalesced machines.
"""

from __future__ import annotations

import numpy as np

from .automata import AutomataTeam
from .backend import make_backend
from .machine import MachineBase

__all__ = ["ConvolutionalTsetlinMachine", "patch_features"]


def patch_features(X, image_shape, patch_shape, coord_bits):
    """Patch feature tensor ``(n, patches, n_patch_features)``.

    ``X`` is a validated ``(n, image_h * image_w)`` uint8 batch.  Each
    ``patch_shape`` window contributes its pixels (row-major) followed by
    its thermometer row/col coordinates ``coord_bits[p]``.  The machine
    and the serving engine both build their patch literals from this.
    """
    image_h, image_w = image_shape
    patch_h, patch_w = patch_shape
    imgs = X.reshape(-1, image_h, image_w)
    n = len(imgs)
    windows = np.lib.stride_tricks.sliding_window_view(
        imgs, (patch_h, patch_w), axis=(1, 2)
    )  # (n, rows, cols, ph, pw)
    n_patches = len(coord_bits)
    pixels = windows.reshape(n, n_patches, patch_h * patch_w)
    coords = np.broadcast_to(
        coord_bits[np.newaxis], (n, n_patches, coord_bits.shape[1])
    )
    return np.concatenate([pixels, coords], axis=2)


class ConvolutionalTsetlinMachine(MachineBase):
    """Multiclass convolutional TM over 2-D boolean images.

    Parameters
    ----------
    n_classes:
        Output classes.
    image_shape:
        ``(height, width)`` of the boolean input images (inputs are flat
        vectors of ``height * width``).
    patch_shape:
        ``(patch_h, patch_w)`` clause window.
    n_clauses, T, s, n_states, boost_true_positive, rng, seed:
        As in :class:`repro.tsetlin.machine.TsetlinMachine`.
    """

    def __init__(self, n_classes, image_shape, patch_shape=(10, 10),
                 n_clauses=20, T=15, s=3.9, n_states=127,
                 boost_true_positive=True, rng=None, seed=42,
                 backend="reference"):
        super().__init__(n_classes, n_clauses, T, s, boost_true_positive,
                         rng, seed)
        if n_clauses < 2 or n_clauses % 2:
            raise ValueError("n_clauses must be an even number >= 2")
        self.image_h, self.image_w = map(int, image_shape)
        self.patch_h, self.patch_w = map(int, patch_shape)
        if self.patch_h > self.image_h or self.patch_w > self.image_w:
            raise ValueError("patch larger than image")

        self.rows = self.image_h - self.patch_h + 1
        self.cols = self.image_w - self.patch_w + 1
        self.n_patches = self.rows * self.cols
        # Patch feature vector: pixels + row/col thermometer coordinates.
        self.n_patch_features = (
            self.patch_h * self.patch_w + (self.rows - 1) + (self.cols - 1)
        )
        self.team = AutomataTeam(
            (self.n_classes, self.n_clauses, 2 * self.n_patch_features),
            n_states=n_states,
            rng=self.rng,
        )
        self.polarity = np.where(np.arange(self.n_clauses) % 2 == 0, 1, -1)
        self.backend = make_backend(backend, self.team)
        self._coord_bits = self._coordinate_features()

    # ------------------------------------------------------------------
    def _coordinate_features(self):
        """Thermometer row/col features per patch position: (P, coords)."""
        coords = np.zeros(
            (self.n_patches, (self.rows - 1) + (self.cols - 1)), dtype=np.uint8
        )
        for r in range(self.rows):
            for c in range(self.cols):
                p = r * self.cols + c
                coords[p, : self.rows - 1] = (np.arange(1, self.rows) <= r)
                coords[p, self.rows - 1 :] = (np.arange(1, self.cols) <= c)
        return coords

    @property
    def n_features(self):
        """Flat boolean input width: ``image_h * image_w`` pixels."""
        return self.image_h * self.image_w

    def _patches(self, X):
        """Extract patch feature matrices: (n, P, n_patch_features)."""
        return patch_features(self._check_features(X),
                              (self.image_h, self.image_w),
                              (self.patch_h, self.patch_w), self._coord_bits)

    def _literals(self, X):
        """(n, P, 2f) patch literals: patch features, then negations."""
        patches = self._patches(X)
        return np.concatenate([patches, 1 - patches], axis=2)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def clause_outputs_batch(self, X, empty_output=0):
        """(n, classes, clauses): 1 iff any patch satisfies the clause."""
        literals = self._literals(X)  # (n, P, 2f)
        inc = self.backend.includes()  # (C, K, 2f)
        banks = inc.reshape(-1, inc.shape[2]).T.astype(np.float32)
        out = np.empty((len(literals), banks.shape[1]), dtype=np.uint8)
        for i, lit in enumerate(literals):
            # Violations per (patch, clause), one sample at a time to keep
            # the temporaries small; float32 counts are exact below 2**24
            # literals, where a uint8 count would wrap at 256.
            v = (1 - lit).astype(np.float32) @ banks
            out[i] = (v == 0).any(axis=0)
        out = out.reshape(len(literals), self.n_classes, self.n_clauses)
        if empty_output == 0:
            nonempty = inc.any(axis=2)
            out &= nonempty[np.newaxis].astype(np.uint8)
        return out

    # InferenceMixin primitives: per-class banks voted by polarity.
    clause_votes = clause_outputs_batch

    def vote_weights(self):
        return np.tile(self.polarity, (self.n_classes, 1)).astype(np.int32)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _clause_patch_state(self, literals, class_index, lit_index=None):
        """Per clause: output bit and one randomly chosen matching patch.

        ``literals``: (P, 2f) for one sample.  Returns ``(out, chosen)``
        where ``chosen[k]`` is a patch literal vector for clause k (the
        matching patch if it fired, else an arbitrary patch — unused).
        """
        match = self.backend.patch_match(class_index, literals,
                                         lit_index=lit_index)  # (P, K)
        out = match.any(axis=0).astype(np.uint8)
        chosen = np.zeros((self.n_clauses, literals.shape[1]), dtype=np.uint8)
        draws = self.rng.random((self.n_clauses,))
        for k in np.flatnonzero(out):
            patch_ids = np.flatnonzero(match[:, k])
            pick = patch_ids[int(draws[k] * len(patch_ids)) % len(patch_ids)]
            chosen[k] = literals[pick]
        return out, chosen

    def _update_one(self, literals, target, lit_index=None):
        """One CTM update; feedback runs on each clause's chosen patch."""
        be = self.backend
        T = self.T
        pos = self.polarity > 0

        out, chosen = self._clause_patch_state(literals, target, lit_index)
        vote = int(np.dot(out.astype(np.int32), self.polarity))
        vote = max(-T, min(T, vote))
        sel = self.rng.bernoulli((T - vote) / (2.0 * T), (self.n_clauses,))
        be.apply_type_i(target, sel & pos, out, chosen, self.s, self.rng,
                        boost_true_positive=self.boost_true_positive)
        be.apply_type_ii(target, sel & ~pos, out, chosen)

        rival = self._rival(target)
        out_r, chosen_r = self._clause_patch_state(literals, rival, lit_index)
        vote_r = int(np.dot(out_r.astype(np.int32), self.polarity))
        vote_r = max(-T, min(T, vote_r))
        sel_r = self.rng.bernoulli((T + vote_r) / (2.0 * T), (self.n_clauses,))
        be.apply_type_ii(rival, sel_r & pos, out_r, chosen_r)
        be.apply_type_i(rival, sel_r & ~pos, out_r, chosen_r, self.s,
                        self.rng, boost_true_positive=self.boost_true_positive)
