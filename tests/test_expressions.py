"""Tests for clause expressions (Fig. 2 / Fig. 4b semantics)."""

import numpy as np
import pytest

from repro.model import TMModel
from repro.model.expressions import (
    ClauseExpression,
    expressions_from_model,
    format_clause,
    model_snippet,
    shared_expression_pool,
)
from _fixtures import random_model


class TestClauseExpression:
    def test_sorted_canonical(self):
        e = ClauseExpression([5, 1, 3], n_features=4)
        assert e.literals == (1, 3, 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ClauseExpression([8], n_features=4)

    def test_positive_negative_split(self):
        e = ClauseExpression([0, 5, 3], n_features=4)
        assert e.positive_features() == (0, 3)
        assert e.negated_features() == (1,)

    def test_contradiction(self):
        e = ClauseExpression([1, 5], n_features=4)  # x1 & ~x1
        assert e.is_contradictory()
        assert ClauseExpression([1, 6], n_features=4).is_contradictory() is False

    def test_evaluate(self):
        e = ClauseExpression([0, 5], n_features=4)  # x0 & ~x1
        assert e.evaluate([1, 0, 0, 0]) == 1
        assert e.evaluate([1, 1, 0, 0]) == 0
        assert e.evaluate([0, 0, 0, 0]) == 0

    def test_empty_evaluates_zero(self):
        assert ClauseExpression([], n_features=3).evaluate([1, 1, 1]) == 0

    def test_include_row_roundtrip(self):
        e = ClauseExpression([2, 7], n_features=4)
        row = e.include_row()
        assert ClauseExpression.from_include_row(row, 4) == e

    def test_hashable_equality(self):
        a = ClauseExpression([1, 2], n_features=4)
        b = ClauseExpression([2, 1], n_features=4)
        assert a == b
        assert len({a, b}) == 1


class TestFormatting:
    def test_format(self):
        e = ClauseExpression([0, 6], n_features=4)
        assert format_clause(e) == "x0 & ~x2"

    def test_empty_format(self):
        assert format_clause(ClauseExpression([], 4)) == "1'b1"

    def test_snippet_mentions_polarity(self):
        m = random_model()
        text = model_snippet(m, n_classes=1, n_clauses=2)
        assert "C[0][0] (+)" in text
        assert "C[0][1] (-)" in text


class TestModelViews:
    def test_expressions_match_model_outputs(self, small_model):
        exprs = expressions_from_model(small_model)
        rng = np.random.default_rng(0)
        X = rng.integers(0, 2, size=(10, small_model.n_features)).astype(np.uint8)
        ref = small_model.clause_outputs(X)
        for i, x in enumerate(X):
            for c in range(small_model.n_classes):
                for k in range(small_model.n_clauses):
                    assert exprs[c][k].evaluate(x) == ref[i, c, k]

    def test_shared_pool_counts_duplicates(self):
        inc = np.zeros((2, 2, 4), dtype=bool)
        inc[0, 0, 0] = True
        inc[1, 1, 0] = True  # same expression in another class
        inc[0, 1, 1] = True  # unique
        m = TMModel(include=inc, n_features=2)
        pool = shared_expression_pool(m)
        assert len(pool) == 2
        dup = ClauseExpression([0], n_features=2)
        assert sorted(pool[dup]) == [(0, 0), (1, 1)]

    def test_pool_skips_empty(self):
        m = TMModel(include=np.zeros((1, 3, 4), dtype=bool), n_features=2)
        assert shared_expression_pool(m) == {}
