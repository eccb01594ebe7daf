"""Tests for the parallel design-space exploration subsystem."""

import json

import pytest

from repro.flow import FlowConfig
from repro.sweep import (
    SweepCache,
    SweepSpec,
    parallel_map,
    pareto_front,
    run_sweep,
    sweep_key,
)
from repro.tsetlin import search_clause_budget
from test_search import make_task


def tiny_base(**overrides):
    base = dict(
        dataset="kws6", n_train=160, n_test=80, clauses_per_class=8,
        T=8, s=4.0, epochs=2, verify_samples=4,
    )
    base.update(overrides)
    return FlowConfig(**base)


# ----------------------------------------------------------------------
class TestParetoFront:
    def test_dominated_points_removed(self):
        points = [
            {"acc": 0.9, "cost": 10},
            {"acc": 0.8, "cost": 12},   # dominated: worse on both
            {"acc": 0.95, "cost": 20},
            {"acc": 0.9, "cost": 15},   # dominated by the first point
        ]
        front = pareto_front(points, (("acc", "max"), ("cost", "min")))
        # Sorted by the first objective in minimize-form (-acc ascending).
        assert front == [points[2], points[0]]

    def test_senses_respected(self):
        points = [{"a": 1.0, "b": 1.0}, {"a": 2.0, "b": 2.0}]
        assert pareto_front(
            points, (("a", "max"), ("b", "max"))
        ) == [points[1]]
        assert pareto_front(
            points, (("a", "min"), ("b", "min"))
        ) == [points[0]]

    def test_incomplete_points_excluded(self):
        points = [{"acc": 0.9, "cost": None}, {"acc": 0.5, "cost": 3}]
        front = pareto_front(points, (("acc", "max"), ("cost", "min")))
        assert front == [points[1]]

    def test_duplicate_vectors_deduplicated(self):
        a = {"acc": 0.9, "cost": 10}
        front = pareto_front(
            [a, dict(a)], (("acc", "max"), ("cost", "min"))
        )
        assert len(front) == 1

    def test_search_frontier_delegates(self):
        X_tr, y_tr, X_val, y_val = make_task(seed=3)
        result, _ = search_clause_budget(
            X_tr, y_tr, X_val, y_val, start=4, max_clauses=32, epochs=2,
        )
        frontier = result.frontier()
        costs = [p.cost() for p in frontier]
        accs = [p.accuracy for p in frontier]
        assert costs == sorted(costs)
        assert accs == sorted(accs)


# ----------------------------------------------------------------------
class TestSweepCache:
    def test_key_is_order_insensitive(self):
        assert sweep_key({"a": 1, "b": 2}) == sweep_key({"b": 2, "a": 1})

    def test_key_changes_with_payload(self):
        assert sweep_key({"a": 1}) != sweep_key({"a": 2})

    def test_put_get_roundtrip(self, tmp_path):
        cache = SweepCache(tmp_path / "c")
        key = sweep_key({"x": 1})
        record = {"config": {"x": 1}, "metrics": {"accuracy": 0.5}}
        cache.put(key, record)
        loaded = cache.get(key)
        assert loaded["config"] == {"x": 1}
        assert loaded["metrics"]["accuracy"] == 0.5
        assert key in cache
        assert len(cache) == 1

    def test_missing_and_corrupt_are_misses(self, tmp_path):
        cache = SweepCache(tmp_path / "c")
        key = sweep_key({"x": 1})
        assert cache.get(key) is None
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_cache_version_invalidates_old_records(self, monkeypatch):
        # The packed-word backend state layout landed in schema v2: any
        # key minted under an older version must not resolve records
        # written by the new code (and vice versa).
        from repro.sweep import cache as cache_mod

        payload = {"config": {"s": 5.0}, "seed": 1}
        assert cache_mod.CACHE_VERSION >= 2
        current = sweep_key(payload)
        monkeypatch.setattr(cache_mod, "CACHE_VERSION",
                            cache_mod.CACHE_VERSION - 1)
        assert cache_mod.sweep_key(payload) != current

    def test_foreign_record_rejected(self, tmp_path):
        cache = SweepCache(tmp_path / "c")
        key = sweep_key({"x": 1})
        other = sweep_key({"x": 2})
        cache.put(other, {"config": {}})
        # A record stored under the wrong key must not satisfy a lookup.
        cache.path(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path(key).write_text(
            cache.path(other).read_text(encoding="utf-8"), encoding="utf-8"
        )
        assert cache.get(key) is None


# ----------------------------------------------------------------------
class TestSweepSpec:
    def test_grid_product(self):
        spec = SweepSpec.from_grid(
            base=tiny_base(),
            clauses_per_class=[8, 16],
            bus_width=[32, 64],
            T=[8],
        )
        assert len(spec) == 4
        assert {cfg.clauses_per_class for cfg in spec} == {8, 16}
        assert all(cfg.dataset == "kws6" for cfg in spec)

    def test_scalar_axis_promoted(self):
        spec = SweepSpec.from_grid(base=tiny_base(), T=12)
        assert len(spec) == 1
        assert spec.points[0].T == 12

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec.from_grid(base=tiny_base(), clauses=[8])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec.from_grid(base=tiny_base(), T=[])

    def test_from_file_grid_and_points(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "base": {"dataset": "kws6", "epochs": 2},
            "grid": {"clauses_per_class": [8, 16]},
        }))
        spec = SweepSpec.from_file(grid_path)
        assert len(spec) == 2

        points_path = tmp_path / "points.json"
        points_path.write_text(json.dumps({
            "points": [{"dataset": "mnist"}, {"dataset": "kws6"}],
        }))
        spec = SweepSpec.from_file(points_path)
        assert [cfg.dataset for cfg in spec] == ["mnist", "kws6"]

        bad_path = tmp_path / "bad.json"
        bad_path.write_text("{}")
        with pytest.raises(ValueError):
            SweepSpec.from_file(bad_path)


# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


class TestParallelMap:
    def test_inline(self):
        assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_pool_preserves_order(self):
        assert parallel_map(_square, list(range(8)), jobs=2) == [
            x * x for x in range(8)
        ]

    def test_invalid_jobs(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1], jobs=0)

    def test_worker_error_propagates(self):
        with pytest.raises(RuntimeError):
            parallel_map(_boom, [1, 2], jobs=2)


# ----------------------------------------------------------------------
class TestRunSweep:
    @pytest.fixture(scope="class")
    def swept(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("sweep_cache")
        spec = SweepSpec.from_grid(
            base=tiny_base(),
            clauses_per_class=[8, 12],
            bus_width=[32, 64],
        )
        fresh = run_sweep(spec, jobs=1, cache_dir=cache_dir)
        resumed = run_sweep(spec, jobs=1, cache_dir=cache_dir)
        return spec, fresh, resumed

    def test_every_point_evaluated(self, swept):
        spec, fresh, _ = swept
        assert len(fresh) == len(spec) == 4
        assert not fresh.errors
        for point in fresh.points:
            assert 0.0 <= point.metric("accuracy") <= 1.0
            assert point.metric("luts") > 0
            assert point.metric("latency_us") > 0
            assert point.metric("total_power_w") > 0
            assert point.metric("verified") is None  # verify off by default

    def test_resume_hits_cache(self, swept):
        _, fresh, resumed = swept
        assert not any(p.cached for p in fresh.points)
        assert all(p.cached for p in resumed.points)

    def test_cached_report_bit_identical(self, swept):
        _, fresh, resumed = swept
        assert fresh.to_json() == resumed.to_json()
        assert fresh.to_csv() == resumed.to_csv()

    def test_pareto_front_nonempty_subset(self, swept):
        _, fresh, _ = swept
        front = fresh.pareto()
        assert 0 < len(front) <= len(fresh.points)
        keys = {p.key for p in fresh.points}
        assert all(p.key in keys for p in front)

    def test_report_structure(self, swept):
        _, fresh, _ = swept
        report = fresh.report()
        assert report["n_points"] == 4
        assert report["n_errors"] == 0
        assert len(report["points"]) == 4
        keys = [p["key"] for p in report["points"]]
        assert keys == sorted(keys)
        flagged = [p["key"] for p in report["points"] if p["pareto"]]
        assert flagged == report["pareto_keys"]
        json.dumps(report)  # must be JSON-serializable

    def test_errors_recorded_not_cached(self, tmp_path):
        spec = SweepSpec.from_points([{"dataset": "no_such_dataset"}])
        result = run_sweep(spec, cache_dir=tmp_path / "c")
        assert len(result.errors) == 1
        assert "no_such_dataset" in result.errors[0].error
        assert len(SweepCache(tmp_path / "c")) == 0
        # The erroring point still appears in the report, flagged.
        assert result.report()["n_errors"] == 1

    def test_no_cache_mode(self):
        spec = SweepSpec.from_points([tiny_base(epochs=1)])
        result = run_sweep(spec, cache_dir=None)
        assert len(result) == 1 and not result.points[0].cached

    def test_resume_false_recomputes(self, tmp_path):
        spec = SweepSpec.from_points([tiny_base(epochs=1)])
        first = run_sweep(spec, cache_dir=tmp_path / "c")
        second = run_sweep(spec, cache_dir=tmp_path / "c", resume=False)
        assert not second.points[0].cached
        assert first.to_json() == second.to_json()

    def test_convolutional_family_trains_without_hardware(self):
        spec = SweepSpec.from_points([
            tiny_base(dataset="mnist", n_train=100, n_test=60, epochs=1,
                      model_family="convolutional"),
        ])
        result = run_sweep(spec)
        point = result.points[0]
        assert point.ok
        assert point.metric("accuracy") is not None
        assert point.metric("luts") is None
        assert point.metric("latency_us") is None

    def test_progress_callback_fires_per_point(self, tmp_path):
        spec = SweepSpec.from_points([
            tiny_base(epochs=1),
            tiny_base(epochs=1, T=9),
        ])
        calls = []
        run_sweep(
            spec,
            cache_dir=tmp_path / "c",
            progress=lambda done, total, p: calls.append((done, total)),
        )
        assert calls == [(1, 2), (2, 2)]
        cached_flags = []
        run_sweep(
            spec,
            cache_dir=tmp_path / "c",
            progress=lambda done, total, p: cached_flags.append(p.cached),
        )
        assert cached_flags == [True, True]

    def test_verify_flag_records_verdict(self, tmp_path):
        spec = SweepSpec.from_points([tiny_base(epochs=1)])
        result = run_sweep(spec, cache_dir=tmp_path / "c", verify=True)
        assert result.points[0].metric("verified") is True
        # Verification participates in the cache key: the non-verifying
        # sweep of the same config must not reuse this record.
        plain = run_sweep(spec, cache_dir=tmp_path / "c")
        assert not plain.points[0].cached


# ----------------------------------------------------------------------
class TestSearchDelegation:
    def test_clause_budget_parallel_matches_serial(self):
        X_tr, y_tr, X_val, y_val = make_task(seed=8)
        kwargs = dict(start=4, max_clauses=32, epochs=2, tolerance=-1.0)
        serial, tm_s = search_clause_budget(
            X_tr, y_tr, X_val, y_val, jobs=1, **kwargs
        )
        fanned, tm_f = search_clause_budget(
            X_tr, y_tr, X_val, y_val, jobs=3, **kwargs
        )
        assert serial.evaluated == fanned.evaluated
        assert serial.best == fanned.best
        assert tm_s.team.state.tolist() == tm_f.team.state.tolist()

    def test_clause_budget_early_stop_discards_speculation(self):
        X_tr, y_tr, X_val, y_val = make_task(seed=9)
        kwargs = dict(start=4, max_clauses=64, epochs=2, tolerance=10.0)
        serial, _ = search_clause_budget(
            X_tr, y_tr, X_val, y_val, jobs=1, **kwargs
        )
        fanned, _ = search_clause_budget(
            X_tr, y_tr, X_val, y_val, jobs=4, **kwargs
        )
        # tolerance=10 stops at the second rung; the speculative wave must
        # not leak extra evaluated points into the result.
        assert [p.n_clauses for p in fanned.evaluated] == [
            p.n_clauses for p in serial.evaluated
        ]
