"""Tests for sparsity/sharing analysis and the external-model importer."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from repro.model import (
    TMModel,
    analyze_sharing,
    analyze_sparsity,
    import_bit_matrix,
    import_model,
    import_state_dump,
    sparsity,
)
from repro.model.expressions import expressions_from_model
from repro.model.importer import ImportError_
from _fixtures import random_model


class TestSparsityReport:
    def test_counts_on_crafted_model(self):
        inc = np.zeros((1, 4, 8), dtype=bool)
        inc[0, 0, [0, 1]] = True
        inc[0, 1, 2] = True
        # clauses 2, 3 empty
        m = TMModel(include=inc, n_features=4)
        rep = analyze_sparsity(m)
        assert rep.total_includes == 3
        assert rep.empty_clauses == 2
        assert rep.includes_per_clause_max == 2
        assert rep.density == pytest.approx(3 / 32)

    def test_contradictory_counted(self):
        inc = np.zeros((1, 2, 8), dtype=bool)
        inc[0, 0, 0] = True
        inc[0, 0, 4] = True  # x0 & ~x0
        m = TMModel(include=inc, n_features=4)
        assert analyze_sparsity(m).contradictory_clauses == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_contradictory_matches_expression_count(self, seed):
        rng = np.random.default_rng(seed)
        f = 16
        inc = rng.random((3, 12, 2 * f)) < 0.08
        cls, k = np.nonzero(rng.random((3, 12)) < 0.3)
        j = rng.integers(0, f, size=len(cls))
        inc[cls, k, j] = True
        inc[cls, k, f + j] = True  # plant x_j & ~x_j
        m = TMModel(include=inc, n_features=f)
        expected = sum(
            e.is_contradictory() for row in expressions_from_model(m) for e in row
        )
        assert expected >= len(cls)
        assert analyze_sparsity(m).contradictory_clauses == expected

    def test_per_class_density(self):
        m = random_model(n_classes=3, seed=11)
        rep = analyze_sparsity(m)
        assert len(rep.per_class_density) == 3
        assert np.isclose(np.mean(rep.per_class_density), rep.density, atol=1e-9)

    def test_summary_text(self):
        rep = analyze_sparsity(random_model())
        assert "density" in rep.summary()


class TestSharingReport:
    def test_duplicates_detected(self):
        inc = np.zeros((2, 4, 6), dtype=bool)
        inc[:, :, 0] = True  # all 8 clauses identical (x0)
        m = TMModel(include=inc, n_features=3)
        rep = analyze_sharing(m)
        assert rep.distinct_expressions == 1
        assert rep.total_nonempty_clauses == 8
        assert rep.duplicate_instances == 8
        assert rep.full_clause_sharing_ratio == pytest.approx(7 / 8)
        assert rep.inter_class_duplicates >= 1
        assert rep.intra_class_duplicates >= 1

    def test_no_duplicates(self):
        inc = np.zeros((1, 3, 8), dtype=bool)
        inc[0, 0, 0] = True
        inc[0, 1, 1] = True
        inc[0, 2, 2] = True
        m = TMModel(include=inc, n_features=4)
        rep = analyze_sharing(m)
        assert rep.duplicated_expressions == 0
        assert rep.full_clause_sharing_ratio == 0.0

    def test_literal_overlap_positive_for_trained_like(self):
        m = random_model(density=0.3, seed=4)
        rep = analyze_sharing(m)
        assert rep.pairwise_literal_overlap > 0.0


def brute_force_overlap(include):
    """Mean Jaccard overlap and shared pair count, one clause pair at a time."""
    rows = [set(np.flatnonzero(r)) for r in include.reshape(-1, include.shape[-1])]
    pairs = list(itertools.combinations([r for r in rows if r], 2))
    if not pairs:
        return 0.0, 0
    jaccard = math.fsum(len(a & b) / len(a | b) for a, b in pairs)
    return jaccard / len(pairs), sum(1 for a, b in pairs if a & b)


class TestPairwiseOverlap:
    """The overlap is exact over all pairs, in one block or many."""

    @staticmethod
    def check(include, n_features):
        rep = analyze_sharing(TMModel(include=include, n_features=n_features))
        mean, shared = brute_force_overlap(include)
        assert rep.shared_literal_pairs == shared
        assert rep.pairwise_literal_overlap == pytest.approx(mean, abs=1e-12)
        return rep

    @pytest.mark.parametrize("block_rows", [None, 1, 2, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed, block_rows, monkeypatch):
        rng = np.random.default_rng(seed)
        f = int(rng.integers(3, 20))
        density = rng.uniform(0.02, 0.4)
        include = rng.random((int(rng.integers(1, 4)), 9, 2 * f)) < density
        include[0, 0] = include[0, 1]  # a duplicate pair
        if block_rows is not None:  # shrink the budget to a few rows a block
            n = int(include.any(axis=2).sum())
            monkeypatch.setattr(sparsity, "OVERLAP_BLOCK_BYTES", 8 * n * block_rows)
        self.check(include, f)

    def test_many_blocks_at_the_default_budget(self):
        rng = np.random.default_rng(3)
        include = rng.random((4, 150, 80)) < 0.05
        n = int(include.any(axis=2).sum())
        block = sparsity.OVERLAP_BLOCK_BYTES // (8 * n)
        assert -(-(n - 1) // block) >= 3
        self.check(include, 40)

    @pytest.mark.parametrize("n_active", [0, 1])
    def test_fewer_than_two_clauses(self, n_active):
        include = np.zeros((2, 3, 8), dtype=bool)
        include[1, 2, :n_active] = True
        rep = analyze_sharing(TMModel(include=include, n_features=4))
        assert (rep.pairwise_literal_overlap, rep.shared_literal_pairs) == (0.0, 0)

    def test_identical_clauses_overlap_fully(self):
        include = np.zeros((2, 4, 10), dtype=bool)
        include[..., [1, 3, 8]] = True
        rep = self.check(include, 5)
        assert rep.pairwise_literal_overlap == 1.0
        assert rep.shared_literal_pairs == 8 * 7 // 2

    def test_disjoint_clauses_share_nothing(self):
        include = np.zeros((3, 4, 24), dtype=bool)
        include.reshape(12, 24)[np.arange(12), 2 * np.arange(12)] = True
        rep = self.check(include, 12)
        assert (rep.pairwise_literal_overlap, rep.shared_literal_pairs) == (0.0, 0)

    def test_peak_memory_is_a_few_megabytes(self):
        # mnist-sized model, about 28 includes per clause: 400 active
        # clauses and 79,800 pairs.  The bound holds only if no array of
        # (pairs, literals) size is ever built.
        rng = np.random.default_rng(0)
        include = rng.random((10, 40, 1568)) < 28 / 1568
        m = TMModel(include=include, n_features=784)
        tracemalloc.start()
        try:
            analyze_sharing(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"analyze_sharing peaked at {peak / 2**20:.1f} MiB"


class TestImporter:
    def test_state_dump(self):
        states = np.full((2, 2, 6), 5, dtype=np.int64)
        states[0, 0, 0] = 9  # include (> n_states = 5)
        m = import_state_dump(states, n_states=5)
        assert m.include[0, 0, 0]
        assert m.include.sum() == 1
        assert m.n_features == 3

    def test_state_dump_range_check(self):
        states = np.full((1, 1, 4), 20, dtype=np.int64)
        with pytest.raises(ImportError_):
            import_state_dump(states, n_states=5)

    def test_state_dump_odd_literals(self):
        with pytest.raises(ImportError_):
            import_state_dump(np.ones((1, 1, 5), dtype=np.int64), n_states=1)

    def test_bit_matrix_dense(self):
        bits = np.zeros((1, 2, 4), dtype=np.int64)
        bits[0, 1, 3] = 1
        m = import_bit_matrix(bits)
        assert m.include[0, 1, 3]

    def test_bit_matrix_strings(self):
        m = import_bit_matrix([["1000", "0010"]])
        assert m.n_features == 2
        assert m.include[0, 0, 0]
        assert m.include[0, 1, 2]

    def test_bit_matrix_rejects_non_binary(self):
        with pytest.raises(ImportError_):
            import_bit_matrix(np.full((1, 1, 4), 2))

    def test_feature_crosscheck(self):
        with pytest.raises(ImportError_):
            import_bit_matrix(np.zeros((1, 1, 4)), n_features=3)

    def test_import_native_file(self, tmp_path):
        m = random_model(seed=14)
        path = tmp_path / "native.json"
        m.save(path)
        clone = import_model(path)
        assert clone == m

    def test_import_state_file(self, tmp_path):
        states = np.full((1, 2, 4), 3, dtype=np.int64)
        states[0, 0, 1] = 6
        path = tmp_path / "dump.json"
        path.write_text(json.dumps({"states": states.tolist(), "n_states": 3}))
        m = import_model(path)
        assert m.include[0, 0, 1]

    def test_import_npy(self, tmp_path):
        states = np.full((1, 2, 4), 3, dtype=np.int64)
        states[0, 1, 0] = 6
        path = tmp_path / "dump.npy"
        np.save(path, states)
        m = import_model(str(path))
        assert m.include[0, 1, 0]

    def test_unknown_payload(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ImportError_):
            import_model(path)

    def test_imported_model_runs_inference(self):
        bits = np.zeros((2, 2, 6), dtype=np.int64)
        bits[0, 0, 0] = 1
        m = import_bit_matrix(bits)
        pred = m.predict(np.array([[1, 0, 0]], dtype=np.uint8))
        assert pred[0] == 0
