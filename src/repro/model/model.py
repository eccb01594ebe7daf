"""Trained-model artifact: the include/exclude matrix MATADOR consumes.

A trained Tsetlin Machine reduces to a boolean *include matrix* of shape
``(classes, clauses, 2 * features)`` — the boolean actions of every
automaton (Fig. 2 of the paper).  :class:`TMModel` freezes that matrix
together with the metadata the design generator needs, and defines the
single reference semantics for inference that both the software evaluator
and the generated hardware must agree on:

* literal ``j``          = feature ``j``       for ``j <  n_features``
* literal ``n_features+j`` = NOT feature ``j`` for the upper half
* clause output = AND of included literals; clauses with **no** includes
  output 0 (they are pruned from hardware);
* class sum = sum of (+1) even-index clauses minus (-1) odd-index clauses,
  or the weighted sum when a Coalesced weight matrix is attached;
* prediction = argmax with ties broken toward the lower class index.
"""

from __future__ import annotations

import json

import numpy as np

from ..tsetlin.booleanize import literals_from_features
from ..tsetlin.feedback import any_violated
from ..tsetlin.inference import check_features

__all__ = ["TMModel"]


class TMModel:
    """Immutable trained-model artifact.

    Parameters
    ----------
    include:
        Boolean array ``(classes, clauses, 2 * features)``.
    n_features:
        Number of boolean input features (half the literal count).
    name:
        Human-readable model name, used in generated RTL module names.
    weights:
        Optional integer array ``(classes, clauses)`` of vote weights
        (Coalesced TM).  When absent, alternating ±1 polarity applies.
    hyperparameters:
        Free-form dict recorded for provenance.
    """

    def __init__(self, include, n_features, name="tm", weights=None,
                 hyperparameters=None):
        include = np.asarray(include, dtype=bool)
        if include.ndim != 3:
            raise ValueError("include must have shape (classes, clauses, 2*features)")
        if include.shape[2] != 2 * n_features:
            raise ValueError(
                f"include has {include.shape[2]} literal columns, expected "
                f"{2 * n_features}"
            )
        self.include = include
        self.include.setflags(write=False)
        self.n_features = int(n_features)
        self.name = str(name)
        self.hyperparameters = dict(hyperparameters or {})
        if weights is not None:
            weights = np.asarray(weights, dtype=np.int32)
            if weights.shape != include.shape[:2]:
                raise ValueError("weights must have shape (classes, clauses)")
        self.weights = weights

    # ------------------------------------------------------------------
    # Shape properties
    # ------------------------------------------------------------------
    @property
    def n_classes(self):
        return self.include.shape[0]

    @property
    def n_clauses(self):
        """Clauses per class."""
        return self.include.shape[1]

    @property
    def n_literals(self):
        return self.include.shape[2]

    @property
    def polarity(self):
        """Vote weight per clause index: alternating ±1, or +1 if weighted."""
        if self.weights is not None:
            return None
        return np.where(np.arange(self.n_clauses) % 2 == 0, 1, -1)

    def vote_weights(self):
        """Per-(class, clause) integer vote weights (always defined)."""
        if self.weights is not None:
            return self.weights
        return np.tile(self.polarity, (self.n_classes, 1)).astype(np.int32)

    # ------------------------------------------------------------------
    # Reference inference semantics
    # ------------------------------------------------------------------
    def clause_outputs(self, X):
        """Clause outputs ``(samples, classes, clauses)``; empty clauses → 0."""
        L = literals_from_features(check_features(X, self.n_features))
        out = (~any_violated(1 - L, self.include)).astype(np.uint8)
        nonempty = self.include.any(axis=2)
        out &= nonempty[np.newaxis, :, :].astype(np.uint8)
        return out

    def class_sums(self, X):
        """Vote totals ``(samples, classes)`` under the reference semantics."""
        out = self.clause_outputs(X).astype(np.int32)
        return np.einsum("nck,ck->nc", out, self.vote_weights())

    def predict(self, X):
        return np.argmax(self.class_sums(X), axis=1)

    def evaluate(self, X, y):
        return float(np.mean(self.predict(X) == np.asarray(y)))

    # ------------------------------------------------------------------
    # Structure queries used by the generator and analysis
    # ------------------------------------------------------------------
    def includes_per_clause(self):
        """Number of included literals per (class, clause)."""
        return self.include.sum(axis=2)

    def empty_clause_mask(self):
        """(classes, clauses) — True where the clause has no includes."""
        return ~self.include.any(axis=2)

    def literal_usage(self):
        """How many clauses include each literal, across all classes."""
        return self.include.sum(axis=(0, 1))

    def density(self):
        """Fraction of automata in the include action (lower = sparser)."""
        return float(self.include.mean())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self):
        payload = {
            "format": "matador-tm-model",
            "version": 1,
            "name": self.name,
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "n_clauses": self.n_clauses,
            "hyperparameters": self.hyperparameters,
            "include": [
                ["".join("1" if b else "0" for b in clause) for clause in cls]
                for cls in self.include
            ],
        }
        if self.weights is not None:
            payload["weights"] = self.weights.tolist()
        return payload

    @classmethod
    def from_dict(cls, payload):
        if payload.get("format") != "matador-tm-model":
            raise ValueError("not a matador-tm-model payload")
        include = np.array(
            [
                [[c == "1" for c in clause] for clause in cls]
                for cls in payload["include"]
            ],
            dtype=bool,
        )
        weights = payload.get("weights")
        return cls(
            include=include,
            n_features=int(payload["n_features"]),
            name=payload.get("name", "tm"),
            weights=np.asarray(weights, dtype=np.int32) if weights is not None else None,
            hyperparameters=payload.get("hyperparameters"),
        )

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=1)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def __eq__(self, other):
        if not isinstance(other, TMModel):
            return NotImplemented
        same_weights = (
            (self.weights is None and other.weights is None)
            or (
                self.weights is not None
                and other.weights is not None
                and np.array_equal(self.weights, other.weights)
            )
        )
        return (
            self.n_features == other.n_features
            and np.array_equal(self.include, other.include)
            and same_weights
        )

    def __repr__(self):
        return (
            f"TMModel(name={self.name!r}, classes={self.n_classes}, "
            f"clauses={self.n_clauses}, features={self.n_features}, "
            f"density={self.density():.4f})"
        )
