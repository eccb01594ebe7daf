"""Tests for the CI benchmark-regression gate (benchmarks/compare_bench.py)."""

import importlib.util
import io
import json
from pathlib import Path

_SCRIPT = Path(__file__).parent.parent / "benchmarks" / "compare_bench.py"
_spec = importlib.util.spec_from_file_location("compare_bench", _SCRIPT)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)


def write_payloads(root, cold=3.0, steady=18.0, serve=10.0, online=2.0,
                   automl_fraction=0.26, winner_ratio=1.0):
    root.mkdir(parents=True, exist_ok=True)
    (root / "automl_efficiency.json").write_text(json.dumps({
        "winner_score_ratio": winner_ratio,
        "automl_budget_fraction": automl_fraction,
        "spent_epochs": 21,
        "grid_epochs": 81,
        "n_candidates": 9,
    }))
    (root / "train_throughput.json").write_text(json.dumps({
        "cold_speedup": cold,
        "steady_speedup": steady,
        "steady_vectorized_samples_per_sec": 5000.0,
    }))
    (root / "serve_throughput.json").write_text(json.dumps({
        "per_sample_baseline_rps": 1500.0,
        "batch_sizes": {
            "1": {"speedup_vs_per_sample": serve},
            "64": {"speedup_vs_per_sample": serve},
            "256": {"speedup_vs_per_sample": serve},
        },
    }))
    (root / "stream_throughput.json").write_text(json.dumps({
        "online_speedup": online,
        "vectorized_updates_per_sec": 1000.0,
        "detection_delay_samples": 80,
    }))


def run_gate(tmp_path, argv):
    out = io.StringIO()
    code = compare_bench.main(argv, out=out)
    return code, out.getvalue()


class TestLookup:
    def test_dotted_paths(self):
        payload = {"a": {"b": {"c": 3}}}
        assert compare_bench.lookup(payload, "a.b.c") == 3
        assert compare_bench.lookup(payload, "a.missing") is None
        assert compare_bench.lookup(payload, "a.b.c.d") is None


class TestGate:
    def test_identical_results_pass(self, tmp_path):
        write_payloads(tmp_path / "base")
        write_payloads(tmp_path / "fresh")
        code, text = run_gate(tmp_path, [
            "--baselines", str(tmp_path / "base"),
            "--results", str(tmp_path / "fresh"),
        ])
        assert code == 0
        assert "REGRESSION" not in text

    def test_small_drop_within_budget_passes(self, tmp_path):
        write_payloads(tmp_path / "base", steady=18.0)
        write_payloads(tmp_path / "fresh", steady=13.0)  # -28%
        code, _ = run_gate(tmp_path, [
            "--baselines", str(tmp_path / "base"),
            "--results", str(tmp_path / "fresh"),
        ])
        assert code == 0

    def test_large_drop_fails(self, tmp_path):
        write_payloads(tmp_path / "base", steady=18.0)
        write_payloads(tmp_path / "fresh", steady=12.0)  # -33% > 30% budget
        code, text = run_gate(tmp_path, [
            "--baselines", str(tmp_path / "base"),
            "--results", str(tmp_path / "fresh"),
        ])
        assert code == 1
        assert "steady_speedup" in text and "REGRESSION" in text

    def test_missing_fresh_result_warns_but_passes(self, tmp_path):
        # A bench that skipped (constrained hardware) must not fail the
        # gate; the absence is surfaced as a warning.
        write_payloads(tmp_path / "base")
        (tmp_path / "fresh").mkdir()
        code, text = run_gate(tmp_path, [
            "--baselines", str(tmp_path / "base"),
            "--results", str(tmp_path / "fresh"),
        ])
        assert code == 0
        assert "WARN" in text and "no fresh result" in text
        assert "FAIL" not in text

    def test_missing_baseline_warns_but_passes(self, tmp_path):
        # A benchmark landing for the first time has no committed
        # baseline yet — warn, don't block the PR that introduces it.
        (tmp_path / "base").mkdir()
        write_payloads(tmp_path / "fresh")
        code, text = run_gate(tmp_path, [
            "--baselines", str(tmp_path / "base"),
            "--results", str(tmp_path / "fresh"),
        ])
        assert code == 0
        assert "WARN" in text and "new benchmark" in text
        assert "FAIL" not in text

    def test_metric_missing_from_one_side_warns_but_passes(self, tmp_path):
        write_payloads(tmp_path / "base")
        write_payloads(tmp_path / "fresh")
        # Drop one gated metric from the baseline (new metric) and one
        # from the fresh side (removed/skipped metric).
        base_file = tmp_path / "base" / "train_throughput.json"
        payload = json.loads(base_file.read_text())
        del payload["steady_speedup"]
        base_file.write_text(json.dumps(payload))
        fresh_file = tmp_path / "fresh" / "serve_throughput.json"
        payload = json.loads(fresh_file.read_text())
        del payload["batch_sizes"]["256"]
        fresh_file.write_text(json.dumps(payload))
        code, text = run_gate(tmp_path, [
            "--baselines", str(tmp_path / "base"),
            "--results", str(tmp_path / "fresh"),
        ])
        assert code == 0
        assert "new metric" in text
        assert "removed/skipped metric" in text

    def test_regression_still_fails_alongside_warnings(self, tmp_path):
        # Warnings must never mask a real regression in another file.
        write_payloads(tmp_path / "base", steady=18.0)
        write_payloads(tmp_path / "fresh", steady=9.0)  # -50%
        (tmp_path / "fresh" / "stream_throughput.json").unlink()
        code, text = run_gate(tmp_path, [
            "--baselines", str(tmp_path / "base"),
            "--results", str(tmp_path / "fresh"),
        ])
        assert code == 1
        assert "WARN" in text and "REGRESSION" in text

    def test_tighter_budget_flag(self, tmp_path):
        write_payloads(tmp_path / "base", steady=18.0)
        write_payloads(tmp_path / "fresh", steady=16.0)  # -11%
        code, _ = run_gate(tmp_path, [
            "--baselines", str(tmp_path / "base"),
            "--results", str(tmp_path / "fresh"),
            "--max-regression", "0.05",
        ])
        assert code == 1

    def test_invalid_budget_rejected(self, tmp_path):
        code, _ = run_gate(tmp_path, ["--max-regression", "1.5"])
        assert code == 2

    def test_lower_is_better_increase_fails(self, tmp_path):
        # automl_budget_fraction growing past the ceiling is a search
        # regression even though the value "went up".
        write_payloads(tmp_path / "base", automl_fraction=0.26)
        write_payloads(tmp_path / "fresh", automl_fraction=0.40)  # +54%
        code, text = run_gate(tmp_path, [
            "--baselines", str(tmp_path / "base"),
            "--results", str(tmp_path / "fresh"),
        ])
        assert code == 1
        assert "automl_budget_fraction" in text and "ceiling" in text

    def test_lower_is_better_decrease_passes(self, tmp_path):
        # Spending *less* budget is an improvement, never a regression —
        # the exact asymmetry a higher-is-better floor would get wrong.
        write_payloads(tmp_path / "base", automl_fraction=0.26)
        write_payloads(tmp_path / "fresh", automl_fraction=0.10)  # -62%
        code, text = run_gate(tmp_path, [
            "--baselines", str(tmp_path / "base"),
            "--results", str(tmp_path / "fresh"),
        ])
        assert code == 0
        assert "REGRESSION" not in text

    def test_lower_is_better_small_increase_within_budget_passes(self, tmp_path):
        write_payloads(tmp_path / "base", automl_fraction=0.26)
        write_payloads(tmp_path / "fresh", automl_fraction=0.30)  # +15%
        code, _ = run_gate(tmp_path, [
            "--baselines", str(tmp_path / "base"),
            "--results", str(tmp_path / "fresh"),
        ])
        assert code == 0

    def test_winner_ratio_drop_fails(self, tmp_path):
        # The same file carries a higher-is-better gate too: the
        # scheduler falling away from the grid winner must fail.
        write_payloads(tmp_path / "base", winner_ratio=1.0)
        write_payloads(tmp_path / "fresh", winner_ratio=0.5)
        code, text = run_gate(tmp_path, [
            "--baselines", str(tmp_path / "base"),
            "--results", str(tmp_path / "fresh"),
        ])
        assert code == 1
        assert "winner_score_ratio" in text

    def test_no_metric_gated_in_both_directions(self):
        for filename, metrics in compare_bench.GATES_LOWER.items():
            overlap = set(metrics) & set(compare_bench.GATES.get(filename, ()))
            assert not overlap, (filename, overlap)

    def test_update_writes_baselines(self, tmp_path):
        write_payloads(tmp_path / "fresh")
        code, text = run_gate(tmp_path, [
            "--baselines", str(tmp_path / "base"),
            "--results", str(tmp_path / "fresh"),
            "--update",
        ])
        assert code == 0
        assert (tmp_path / "base" / "train_throughput.json").exists()
        # And the freshly written baselines gate cleanly against themselves.
        code, _ = run_gate(tmp_path, [
            "--baselines", str(tmp_path / "base"),
            "--results", str(tmp_path / "fresh"),
        ])
        assert code == 0


class TestCommittedBaselines:
    def test_baselines_exist_and_carry_gated_metrics(self):
        baselines = _SCRIPT.parent / "baselines"
        for filename, metrics in compare_bench.GATES.items():
            payload = json.loads((baselines / filename).read_text())
            for metric in metrics:
                value = compare_bench.lookup(payload, metric)
                assert isinstance(value, (int, float)), (filename, metric)
                if filename == "traffic_sim.json":
                    # goodput / slo_attainment are fractions, not speedups.
                    assert 0.0 < value <= 1.0, (filename, metric, value)
                elif filename == "automl_efficiency.json":
                    # winner_score_ratio is scheduler-vs-grid accuracy;
                    # 1.0 exactly means the grid winner was found.
                    assert value == 1.0, (filename, metric, value)
                elif metric == "lane_scaling_ratio":
                    # 1-lane over 64-lane time; its in-run floor is 0.67.
                    assert value >= 0.67, (filename, metric, value)
                elif filename == "sim_throughput.json":
                    # Probe kernel over simulator time: no in-run floor.
                    assert value > 0.0, (filename, metric, value)
                else:
                    assert value > 1.0, (filename, metric, value)

    def test_lower_is_better_baselines_are_fractions(self):
        baselines = _SCRIPT.parent / "baselines"
        for filename, metrics in compare_bench.GATES_LOWER.items():
            payload = json.loads((baselines / filename).read_text())
            for metric in metrics:
                value = compare_bench.lookup(payload, metric)
                assert isinstance(value, (int, float)), (filename, metric)
                assert 0.0 < value < 1.0, (filename, metric, value)
