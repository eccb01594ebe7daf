"""Clause expressions — the boolean formulas a trained TM encodes.

Fig. 2(c) and Fig. 4(b) of the paper show trained clauses as conjunctions of
literals, e.g. ``x101 & ~x205 & x310``.  This module provides the symbolic
view of a :class:`repro.model.TMModel`:

* :class:`ClauseExpression` — one clause as a canonical literal set,
  hashable so identical expressions can be pooled (the basis of logic
  sharing, Fig. 3);
* :func:`expressions_from_model` — the paper's 2-D clause array
  ``[classes][clauses]``;
* :func:`format_clause` / :func:`model_snippet` — the textual rendering
  seen in Fig. 4(b).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ClauseExpression",
    "expressions_from_model",
    "format_clause",
    "model_snippet",
    "shared_expression_pool",
]


class ClauseExpression:
    """A single clause as an immutable conjunction of literals.

    Literals are stored as a sorted tuple of literal indexes into the
    ``[x_0 .. x_{f-1}, ~x_0 .. ~x_{f-1}]`` layout.  Two clause objects are
    equal iff they denote the same boolean function over the inputs.
    """

    __slots__ = ("literals", "n_features")

    def __init__(self, literals, n_features):
        self.literals = tuple(sorted(int(lit) for lit in literals))
        self.n_features = int(n_features)
        for lit in self.literals:
            if not 0 <= lit < 2 * self.n_features:
                raise ValueError(f"literal index {lit} out of range")

    @classmethod
    def from_include_row(cls, row, n_features):
        """Build from one row of the include matrix."""
        row = np.asarray(row, dtype=bool)
        return cls(np.flatnonzero(row), n_features)

    # ------------------------------------------------------------------
    @property
    def is_empty(self):
        return not self.literals

    @property
    def n_includes(self):
        return len(self.literals)

    def positive_features(self):
        """Feature indexes included in plain form."""
        return tuple(lit for lit in self.literals if lit < self.n_features)

    def negated_features(self):
        """Feature indexes included in negated form."""
        return tuple(lit - self.n_features for lit in self.literals
                     if lit >= self.n_features)

    def is_contradictory(self):
        """True if the clause includes both ``x_j`` and ``~x_j`` (always 0)."""
        return bool(set(self.positive_features()) & set(self.negated_features()))

    def evaluate(self, features):
        """Evaluate on one boolean feature vector (empty clause → 0).

        Matches the reference semantics of :class:`repro.model.TMModel`.
        """
        if self.is_empty:
            return 0
        features = np.asarray(features, dtype=bool)
        for lit in self.literals:
            if lit < self.n_features:
                if not features[lit]:
                    return 0
            elif features[lit - self.n_features]:
                return 0
        return 1

    def include_row(self):
        """Back-conversion to a boolean include row."""
        row = np.zeros(2 * self.n_features, dtype=bool)
        row[list(self.literals)] = True
        return row

    # ------------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, ClauseExpression):
            return NotImplemented
        return self.literals == other.literals and self.n_features == other.n_features

    def __hash__(self):
        return hash((self.literals, self.n_features))

    def __len__(self):
        return len(self.literals)

    def __repr__(self):
        return f"ClauseExpression({format_clause(self)})"


def format_clause(expr, var="x", true_text="1'b1"):
    """Render a clause the way Fig. 4(b) prints them: ``x3 & ~x17 & x42``."""
    if expr.is_empty:
        return true_text
    parts = []
    for lit in expr.literals:
        if lit < expr.n_features:
            parts.append(f"{var}{lit}")
        else:
            parts.append(f"~{var}{lit - expr.n_features}")
    return " & ".join(parts)


def expressions_from_model(model):
    """The paper's 2-D clause array ``[n_classes][n_clauses]``."""
    return [
        [
            ClauseExpression.from_include_row(model.include[c, k], model.n_features)
            for k in range(model.n_clauses)
        ]
        for c in range(model.n_classes)
    ]


def model_snippet(model, n_classes=2, n_clauses=4, var="x"):
    """A printable snippet of clause expressions (Fig. 4b reproduction)."""
    exprs = expressions_from_model(model)
    lines = []
    for c in range(min(n_classes, model.n_classes)):
        lines.append(f"class {c}:")
        for k in range(min(n_clauses, model.n_clauses)):
            pol = "+" if k % 2 == 0 else "-"
            lines.append(f"  C[{c}][{k}] ({pol}): {format_clause(exprs[c][k], var=var)}")
    return "\n".join(lines)


def shared_expression_pool(model):
    """Pool identical clause expressions across the whole model.

    Returns
    -------
    pool:
        dict mapping each distinct non-empty :class:`ClauseExpression` to the
        list of ``(class, clause)`` positions where it occurs.  Expressions
        occurring more than once are exactly the full-clause sharing
        opportunities highlighted in Fig. 3.
    """
    pool = {}
    exprs = expressions_from_model(model)
    for c, row in enumerate(exprs):
        for k, expr in enumerate(row):
            if expr.is_empty:
                continue
            pool.setdefault(expr, []).append((c, k))
    return pool
