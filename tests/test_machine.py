"""Tests for the multiclass Tsetlin Machine trainer."""

import numpy as np
import pytest

from repro.tsetlin import TsetlinMachine


def separable_data(n=160, n_features=16, n_classes=2, seed=0):
    """Class = parity-free simple rule on two feature bits."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, n_features)).astype(np.uint8)
    if n_classes == 2:
        y = X[:, 0].astype(np.int64)
    else:
        y = (X[:, 0] + 2 * X[:, 1]).astype(np.int64) % n_classes
    return X, y


class TestValidation:
    def test_odd_clause_count_rejected(self):
        with pytest.raises(ValueError):
            TsetlinMachine(2, 4, n_clauses=5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            TsetlinMachine(1, 4)

    def test_bad_T(self):
        with pytest.raises(ValueError):
            TsetlinMachine(2, 4, T=0)

    def test_bad_s(self):
        with pytest.raises(ValueError):
            TsetlinMachine(2, 4, s=0.5)

    def test_wrong_feature_count(self):
        tm = TsetlinMachine(2, 8)
        with pytest.raises(ValueError):
            tm.predict(np.zeros((3, 9), dtype=np.uint8))

    def test_labels_out_of_range(self):
        tm = TsetlinMachine(2, 4)
        X = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            tm.fit(X, np.array([0, 1, 2, 0]), epochs=1)

    def test_length_mismatch(self):
        tm = TsetlinMachine(2, 4)
        with pytest.raises(ValueError):
            tm.fit(np.zeros((4, 4), dtype=np.uint8), np.array([0, 1]), epochs=1)


class TestLearning:
    def test_learns_single_bit_rule(self):
        X, y = separable_data()
        tm = TsetlinMachine(2, 16, n_clauses=8, T=8, s=3.0, seed=1)
        tm.fit(X, y, epochs=6)
        assert tm.evaluate(X, y) > 0.95

    def test_learns_multiclass(self):
        X, y = separable_data(n=240, n_classes=4, seed=2)
        tm = TsetlinMachine(4, 16, n_clauses=10, T=8, s=3.0, seed=1)
        tm.fit(X, y, epochs=10)
        assert tm.evaluate(X, y) > 0.85

    def test_seed_reproducibility(self):
        X, y = separable_data(n=80)
        tm1 = TsetlinMachine(2, 16, n_clauses=6, T=6, seed=9)
        tm2 = TsetlinMachine(2, 16, n_clauses=6, T=6, seed=9)
        tm1.fit(X, y, epochs=2)
        tm2.fit(X, y, epochs=2)
        assert np.array_equal(tm1.team.state, tm2.team.state)


class TestInference:
    def test_class_sums_shape(self):
        tm = TsetlinMachine(3, 8, n_clauses=4, seed=0)
        sums = tm.class_sums(np.zeros((5, 8), dtype=np.uint8))
        assert sums.shape == (5, 3)

    def test_empty_clauses_do_not_vote_in_inference(self):
        tm = TsetlinMachine(2, 8, n_clauses=4, seed=0)
        tm.team.state[:] = 1  # everything excluded -> all clauses empty
        sums = tm.class_sums(np.ones((2, 8), dtype=np.uint8))
        assert (sums == 0).all()

    def test_polarity_alternates(self):
        tm = TsetlinMachine(2, 4, n_clauses=6, seed=0)
        assert tm.polarity.tolist() == [1, -1, 1, -1, 1, -1]

    def test_predict_matches_argmax_of_sums(self):
        X, y = separable_data(n=50)
        tm = TsetlinMachine(2, 16, n_clauses=8, T=8, seed=3)
        tm.fit(X, y, epochs=2)
        sums = tm.class_sums(X)
        assert np.array_equal(tm.predict(X), np.argmax(sums, axis=1))

    def test_1d_input(self):
        tm = TsetlinMachine(2, 8, n_clauses=4, seed=0)
        pred = tm.predict(np.zeros(8, dtype=np.uint8))
        assert pred.shape == (1,)


class TestExport:
    def test_export_matches_machine_predictions(self):
        X, y = separable_data(n=100)
        tm = TsetlinMachine(2, 16, n_clauses=8, T=8, seed=4)
        tm.fit(X, y, epochs=3)
        model = tm.export_model("unit")
        assert np.array_equal(model.predict(X), tm.predict(X))

    def test_export_metadata(self):
        tm = TsetlinMachine(2, 8, n_clauses=4, T=7, s=3.5, seed=0)
        model = tm.export_model("meta")
        assert model.name == "meta"
        assert model.hyperparameters["T"] == 7
        assert model.hyperparameters["s"] == 3.5

    def test_export_is_frozen_copy(self):
        tm = TsetlinMachine(2, 8, n_clauses=4, seed=0)
        model = tm.export_model()
        tm.team.state[:] = 2 * tm.team.n_states  # mutate machine afterwards
        assert model.include.sum() == 0 or model.include.sum() < model.include.size
        with pytest.raises(ValueError):
            model.include[0, 0, 0] = True  # read-only
