"""Tests for the Convolutional Tsetlin Machine extension."""

import numpy as np
import pytest

from repro.tsetlin.convolutional import ConvolutionalTsetlinMachine


def shifted_pattern_data(n=160, size=8, seed=0):
    """Class 1 images contain a 3x3 cross at a *random* position."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, size * size), dtype=np.uint8)
    y = rng.integers(0, 2, size=n).astype(np.int64)
    for i in range(n):
        img = (rng.random((size, size)) < 0.05).astype(np.uint8)
        if y[i] == 1:
            r = rng.integers(0, size - 3)
            c = rng.integers(0, size - 3)
            img[r + 1, c : c + 3] = 1
            img[r : r + 3, c + 1] = 1
        X[i] = img.ravel()
    return X, y


class TestConstruction:
    def test_patch_bigger_than_image_rejected(self):
        with pytest.raises(ValueError):
            ConvolutionalTsetlinMachine(2, (5, 5), patch_shape=(6, 3))

    def test_odd_clauses_rejected(self):
        with pytest.raises(ValueError):
            ConvolutionalTsetlinMachine(2, (8, 8), n_clauses=5)

    def test_patch_feature_arithmetic(self):
        ctm = ConvolutionalTsetlinMachine(2, (8, 8), patch_shape=(3, 3),
                                          n_clauses=4)
        assert ctm.n_patches == 36
        assert ctm.n_patch_features == 9 + 5 + 5

    def test_full_image_patch_degenerates_to_flat(self):
        ctm = ConvolutionalTsetlinMachine(2, (4, 4), patch_shape=(4, 4),
                                          n_clauses=4)
        assert ctm.n_patches == 1
        assert ctm.n_patch_features == 16


class TestPatchExtraction:
    def test_patch_contents(self):
        ctm = ConvolutionalTsetlinMachine(2, (3, 3), patch_shape=(2, 2),
                                          n_clauses=4)
        img = np.arange(9).reshape(3, 3) % 2
        patches = ctm._patches(img.ravel()[np.newaxis].astype(np.uint8))
        assert patches.shape == (1, 4, 4 + 1 + 1)
        # top-left patch pixels are the image's top-left 2x2 window
        assert patches[0, 0, :4].tolist() == [0, 1, 1, 0]

    def test_coordinate_thermometer(self):
        ctm = ConvolutionalTsetlinMachine(2, (4, 4), patch_shape=(2, 2),
                                          n_clauses=4)
        coords = ctm._coord_bits  # (9, 2+2)
        assert coords[0].tolist() == [0, 0, 0, 0]      # r=0, c=0
        assert coords[4].tolist() == [1, 0, 1, 0]      # r=1, c=1
        assert coords[8].tolist() == [1, 1, 1, 1]      # r=2, c=2


class TestInference:
    def test_clause_fires_iff_any_patch_matches(self):
        ctm = ConvolutionalTsetlinMachine(2, (4, 4), patch_shape=(2, 2),
                                          n_clauses=2)
        # Force clause 0 of class 0 to require pixel(0,0) of its patch = 1.
        ctm.team.state[:] = 1
        ctm.team.state[0, 0, 0] = 2 * ctm.team.n_states  # include literal 0
        img0 = np.zeros(16, dtype=np.uint8)
        img1 = np.zeros(16, dtype=np.uint8)
        img1[10] = 1  # some patch has its top-left at this pixel
        out0 = ctm.clause_outputs_batch(img0[np.newaxis])
        out1 = ctm.clause_outputs_batch(img1[np.newaxis])
        assert out0[0, 0, 0] == 0
        assert out1[0, 0, 0] == 1

    def test_empty_clauses_vote_zero(self):
        ctm = ConvolutionalTsetlinMachine(2, (4, 4), n_clauses=4,
                                          patch_shape=(2, 2))
        ctm.team.state[:] = 1
        sums = ctm.class_sums(np.ones((2, 16), dtype=np.uint8))
        assert (sums == 0).all()

    def test_wrong_pixel_count_rejected(self):
        ctm = ConvolutionalTsetlinMachine(2, (4, 4), patch_shape=(2, 2), n_clauses=4)
        with pytest.raises(ValueError):
            ctm.predict(np.zeros((1, 17), dtype=np.uint8))


class TestLearning:
    def test_learns_translated_pattern(self):
        """The CTM's reason to exist: position-independent detection."""
        X, y = shifted_pattern_data(n=300, seed=4)
        ctm = ConvolutionalTsetlinMachine(
            2, (8, 8), patch_shape=(4, 4), n_clauses=20, T=12, s=4.0, seed=5
        )
        ctm.fit(X, y, epochs=12)
        assert ctm.evaluate(X, y) > 0.75

    def test_generalizes_to_unseen_positions(self):
        """The CTM classifies fresh random placements of the pattern.

        Trained on 300 shifted placements, it scores above 0.7 on 200
        held-out ones, so what it learned is not tied to the training
        positions.  It is not shown to beat an equal flat TM: at this
        size the flat machine scores higher on most machine seeds.
        """
        X_tr, y_tr = shifted_pattern_data(n=300, seed=4)
        X_te, y_te = shifted_pattern_data(n=200, seed=99)
        ctm = ConvolutionalTsetlinMachine(
            2, (8, 8), patch_shape=(4, 4), n_clauses=20, T=12, s=4.0, seed=5
        )
        ctm.fit(X_tr, y_tr, epochs=12)
        assert ctm.evaluate(X_te, y_te) > 0.7

    def test_label_validation(self):
        ctm = ConvolutionalTsetlinMachine(2, (4, 4), patch_shape=(2, 2),
                                          n_clauses=4)
        with pytest.raises(ValueError):
            ctm.fit(np.zeros((2, 16), dtype=np.uint8), np.array([0, 3]), epochs=1)

    def test_states_stay_bounded(self):
        X, y = shifted_pattern_data(n=60, seed=6)
        ctm = ConvolutionalTsetlinMachine(
            2, (8, 8), patch_shape=(3, 3), n_clauses=6, T=5, s=2.5, seed=7,
            n_states=8,
        )
        ctm.fit(X, y, epochs=3)
        assert ctm.team.state.min() >= 1
        assert ctm.team.state.max() <= 16
