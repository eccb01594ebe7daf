"""Tests for the TMModel artifact and its reference semantics."""

import numpy as np
import pytest

from repro.model import TMModel
from _fixtures import random_model


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TMModel(include=np.zeros((2, 4), dtype=bool), n_features=2)

    def test_literal_width_validation(self):
        with pytest.raises(ValueError):
            TMModel(include=np.zeros((2, 4, 7), dtype=bool), n_features=3)

    def test_weights_shape_validation(self):
        inc = np.zeros((2, 4, 6), dtype=bool)
        with pytest.raises(ValueError):
            TMModel(include=inc, n_features=3, weights=np.zeros((2, 3)))

    def test_include_readonly(self):
        m = random_model()
        with pytest.raises(ValueError):
            m.include[0, 0, 0] = True


class TestSemantics:
    def test_clause_outputs_manual(self):
        # one class, one clause: x0 & ~x1  over 2 features
        inc = np.zeros((1, 2, 4), dtype=bool)
        inc[0, 0, 0] = True   # x0
        inc[0, 0, 3] = True   # ~x1
        m = TMModel(include=inc, n_features=2)
        X = np.array([[1, 0], [1, 1], [0, 0]], dtype=np.uint8)
        out = m.clause_outputs(X)
        assert out[:, 0, 0].tolist() == [1, 0, 0]
        # clause 1 is empty -> always 0
        assert out[:, 0, 1].tolist() == [0, 0, 0]

    def test_non_binary_features_rejected(self):
        # A 2 cast to uint8 would read true in both literal halves.
        inc = np.zeros((2, 1, 4), dtype=bool)
        inc[0, 0, 0] = True
        inc[1, 0, 2] = True
        m = TMModel(include=inc, n_features=2, weights=[[1], [1]])
        for bad in ([[2, 0]], [[-1, 0]], [[0.5, 1]]):
            with pytest.raises(ValueError, match="0 or 1"):
                m.class_sums(bad)
        assert m.class_sums([[True, False]]).tolist() == [[1, 0]]

    def test_class_sums_polarity(self):
        inc = np.zeros((1, 4, 4), dtype=bool)
        inc[0, 0, 0] = True  # +1 clause: x0
        inc[0, 1, 0] = True  # -1 clause: x0
        inc[0, 2, 1] = True  # +1 clause: x1
        # clause 3 empty
        m = TMModel(include=inc, n_features=2)
        sums = m.class_sums(np.array([[1, 1], [1, 0]], dtype=np.uint8))
        assert sums[0, 0] == 1   # +1 -1 +1 + 0
        assert sums[1, 0] == 0   # +1 -1 +0

    def test_weighted_class_sums(self):
        inc = np.zeros((2, 2, 4), dtype=bool)
        inc[:, :, 0] = True  # every clause is just x0
        w = np.array([[3, -1], [2, 2]], dtype=np.int32)
        m = TMModel(include=inc, n_features=2, weights=w)
        sums = m.class_sums(np.array([[1, 0]], dtype=np.uint8))
        assert sums.tolist() == [[2, 4]]

    def test_predict_tie_breaks_low_index(self):
        inc = np.zeros((2, 2, 4), dtype=bool)
        m = TMModel(include=inc, n_features=2)
        pred = m.predict(np.array([[1, 1]], dtype=np.uint8))
        assert pred[0] == 0

    def test_contradictory_clause_never_fires(self):
        inc = np.zeros((1, 2, 4), dtype=bool)
        inc[0, 0, 0] = True  # x0
        inc[0, 0, 2] = True  # ~x0
        m = TMModel(include=inc, n_features=2)
        X = np.array([[0, 0], [1, 0]], dtype=np.uint8)
        assert (m.clause_outputs(X)[:, 0, 0] == 0).all()

    def test_feature_count_checked(self):
        m = random_model(n_features=10)
        with pytest.raises(ValueError):
            m.predict(np.zeros((2, 11), dtype=np.uint8))


class TestQueries:
    def test_density_and_counts(self):
        m = random_model(density=0.1, seed=5)
        assert 0.0 < m.density() < 0.2
        assert m.includes_per_clause().shape == (m.n_classes, m.n_clauses)
        assert m.literal_usage().shape == (m.n_literals,)

    def test_empty_clause_mask(self):
        inc = np.zeros((1, 3, 4), dtype=bool)
        inc[0, 1, 0] = True
        m = TMModel(include=inc, n_features=2)
        assert m.empty_clause_mask()[0].tolist() == [True, False, True]

    def test_vote_weights_polarity_default(self):
        m = random_model(n_clauses=4)
        assert m.vote_weights()[0].tolist() == [1, -1, 1, -1]


class TestSerialization:
    def test_roundtrip_dict(self):
        m = random_model(seed=8)
        clone = TMModel.from_dict(m.to_dict())
        assert clone == m

    def test_roundtrip_file(self, tmp_path):
        m = random_model(seed=9, name="disk")
        path = tmp_path / "model.json"
        m.save(path)
        clone = TMModel.load(path)
        assert clone == m
        assert clone.name == "disk"

    def test_weighted_roundtrip(self):
        inc = np.zeros((2, 2, 4), dtype=bool)
        inc[0, 0, 1] = True
        w = np.array([[1, 2], [-3, 4]], dtype=np.int32)
        m = TMModel(include=inc, n_features=2, weights=w)
        clone = TMModel.from_dict(m.to_dict())
        assert clone == m
        assert np.array_equal(clone.weights, w)

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError):
            TMModel.from_dict({"format": "something-else"})

    def test_equality_vs_other_types(self):
        m = random_model()
        assert (m == 42) is False or (m == 42) is NotImplemented or not (m == 42)
