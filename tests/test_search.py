"""Tests for the automated clause-budget search."""

import numpy as np
import pytest

from repro.tsetlin import search_clause_budget


def make_task(n=220, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, 14)).astype(np.uint8)
    y = ((X[:, 0] & X[:, 1]) | X[:, 2]).astype(np.int64)
    split = n * 3 // 4
    return X[:split], y[:split], X[split:], y[split:]


class TestClauseBudgetSearch:
    def test_meets_reachable_target(self):
        X_tr, y_tr, X_val, y_val = make_task()
        result, tm = search_clause_budget(
            X_tr, y_tr, X_val, y_val, target_accuracy=0.85,
            start=4, max_clauses=64, epochs=4,
        )
        assert result.target_met
        assert result.best.accuracy >= 0.85
        assert tm.evaluate(X_val, y_val) == pytest.approx(result.best.accuracy)

    def test_unreachable_target_returns_best(self):
        X_tr, y_tr, X_val, y_val = make_task(seed=1)
        result, _ = search_clause_budget(
            X_tr, y_tr, X_val, y_val, target_accuracy=1.01,
            start=4, max_clauses=16, epochs=2,
        )
        assert not result.target_met
        assert result.best.accuracy == max(p.accuracy for p in result.evaluated)

    def test_budgets_grow_geometrically(self):
        X_tr, y_tr, X_val, y_val = make_task(seed=2)
        result, _ = search_clause_budget(
            X_tr, y_tr, X_val, y_val, start=4, max_clauses=32, epochs=2,
            tolerance=-1.0,  # never saturate -> explore the whole range
        )
        budgets = [p.n_clauses for p in result.evaluated]
        assert budgets[0] == 4
        assert 8 in budgets and 16 in budgets and 32 in budgets

    def test_frontier_is_monotone(self):
        X_tr, y_tr, X_val, y_val = make_task(seed=3)
        result, _ = search_clause_budget(
            X_tr, y_tr, X_val, y_val, start=4, max_clauses=32, epochs=2,
        )
        frontier = result.frontier()
        costs = [p.cost() for p in frontier]
        accs = [p.accuracy for p in frontier]
        assert costs == sorted(costs)
        assert accs == sorted(accs)

    def test_start_validated(self):
        X_tr, y_tr, X_val, y_val = make_task()
        with pytest.raises(ValueError):
            search_clause_budget(X_tr, y_tr, X_val, y_val, start=3)

