#!/usr/bin/env python
"""Benchmark-regression gate: fresh results vs committed baselines.

CI runs the benchmark suite (which writes ``benchmarks/results/*.json``)
and then this script, which compares the fresh numbers against the JSON
baselines committed under ``benchmarks/baselines/`` and fails the build
when any gated metric regresses by more than ``--max-regression``
(default 30%).

Gated metrics are *ratios* (vectorized-vs-reference training speedup,
packed-vs-per-sample serving speedup), which are stable across runner
hardware generations; absolute rates are reported for the artifact trail
but never gated.  Most gates are higher-is-better (``GATES``); metrics
where an *increase* is the regression — e.g. the AutoML scheduler's
spent-budget fraction — register in ``GATES_LOWER`` and are checked
against a ceiling of ``baseline * (1 + max_regression)`` instead.
Refresh the baselines after an intentional perf change with::

    python benchmarks/compare_bench.py --update

Missing data on either side is a **warning**, not a failure: a baseline
file or metric with no fresh counterpart usually means a bench skipped on
constrained hardware (the scaling/throughput benches skip below 4 CPUs),
and a fresh result with no committed baseline is a metric landing for the
first time (commit it with ``--update`` in the same PR).  Only a metric
present on both sides can regress.

Exit codes: 0 = within budget (warnings allowed), 1 = regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).parent

# filename -> dotted paths of gated (higher-is-better) ratio metrics.
GATES = {
    "train_throughput.json": (
        "cold_speedup",
        "steady_speedup",
    ),
    "serve_throughput.json": (
        "batch_sizes.1.speedup_vs_per_sample",
        "batch_sizes.64.speedup_vs_per_sample",
        "batch_sizes.256.speedup_vs_per_sample",
    ),
    "stream_throughput.json": (
        "online_speedup",
    ),
    "fabric_throughput.json": (
        "fabric_speedup",
    ),
    # Virtual-time overload simulation: both metrics are deterministic
    # ratios (pure functions of the seed), so any drop is a behaviour
    # change in the QoS stack, not runner noise.
    "traffic_sim.json": (
        "goodput",
        "slo_attainment",
    ),
    # Successive-halving scheduler vs the exhaustive grid: the winner's
    # Pareto score must keep matching the grid winner's (ratio of 1.0).
    "automl_efficiency.json": (
        "winner_score_ratio",
    ),
    # Bit-parallel netlist simulator: the speed-probe kernel's time over
    # the 64-lane simulator time, and 1-lane over 64-lane simulator time.
    # The probe runs no program code, so only the simulator moves either.
    "sim_throughput.json": (
        "probe_to_sim_ratio",
        "lane_scaling_ratio",
    ),
}

# filename -> dotted paths of gated LOWER-is-better metrics: the fresh
# value must stay under ``baseline * (1 + max_regression)``.  A metric
# must never appear in both GATES and GATES_LOWER.
GATES_LOWER = {
    # Fraction of the exhaustive grid's training epochs the scheduler
    # spends to find its winner; an increase is a search regression.
    "automl_efficiency.json": (
        "automl_budget_fraction",
    ),
}

# Reported (never gated) context metrics, when present.
REPORTED = {
    "train_throughput.json": ("steady_vectorized_samples_per_sec",),
    "serve_throughput.json": ("per_sample_baseline_rps",),
    "stream_throughput.json": (
        "vectorized_updates_per_sec",
        "detection_delay_samples",
    ),
    "fabric_throughput.json": (
        "fabric_requests_per_s",
        "single_replica_requests_per_s",
    ),
    "traffic_sim.json": (
        "shed_rate",
        "latency_ms.p99",
        "burst.p99_ms",
    ),
    "automl_efficiency.json": (
        "spent_epochs",
        "grid_epochs",
        "n_candidates",
    ),
    # Engine over simulator time: a faster engine lowers it, so it is
    # context for the simulator gate, not a gate itself.
    "sim_throughput.json": (
        "engine_to_sim_ratio",
        "run_batch_1_lane_ms",
        "run_batch_64_lanes_ms",
        "engine_ms",
        "probe_ms",
    ),
}


def _gated_files():
    """Every filename with at least one gated metric, either direction."""
    return sorted(set(GATES) | set(GATES_LOWER))


def lookup(payload, dotted):
    value = payload
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def update_baselines(baselines, results, out):
    baselines.mkdir(parents=True, exist_ok=True)
    wrote = 0
    for filename in _gated_files():
        payload = load(results / filename)
        if payload is None:
            print(f"update: {filename}: no fresh result, skipped", file=out)
            continue
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        (baselines / filename).write_text(text, encoding="utf-8")
        print(f"update: wrote {baselines / filename}", file=out)
        wrote += 1
    return 0 if wrote else 1


def compare(baselines, results, max_regression, out):
    failures = []
    warnings = []
    rows = []
    for filename in _gated_files():
        base = load(baselines / filename)
        fresh = load(results / filename)
        if base is None and fresh is None:
            warnings.append(f"{filename}: no baseline and no fresh result")
            continue
        if base is None:
            warnings.append(
                f"{filename}: new benchmark, no committed baseline yet "
                "(commit with --update)"
            )
            continue
        if fresh is None:
            warnings.append(
                f"{filename}: no fresh result (bench skipped or not run)"
            )
            continue
        gated = [(m, "higher") for m in GATES.get(filename, ())]
        gated += [(m, "lower") for m in GATES_LOWER.get(filename, ())]
        for metric, direction in gated:
            base_value = lookup(base, metric)
            fresh_value = lookup(fresh, metric)
            if base_value is None and fresh_value is None:
                warnings.append(f"{filename}:{metric}: missing on both sides")
                continue
            if base_value is None:
                warnings.append(
                    f"{filename}:{metric}: new metric, not in baseline "
                    "(commit with --update)"
                )
                continue
            if fresh_value is None:
                warnings.append(
                    f"{filename}:{metric}: removed/skipped metric, not in "
                    "fresh result"
                )
                continue
            if direction == "lower":
                # Lower-is-better (e.g. spent training budget): regressing
                # means growing, so the bound is a ceiling, not a floor.
                bound = base_value * (1.0 + max_regression)
                ok = fresh_value <= bound
                verdict = f"{fresh_value:.4g} > ceiling {bound:.4g}"
            else:
                bound = base_value * (1.0 - max_regression)
                ok = fresh_value >= bound
                verdict = f"{fresh_value:.4g} < floor {bound:.4g}"
            rows.append((filename, metric, base_value, fresh_value, bound, ok))
            if not ok:
                failures.append(
                    f"{filename}:{metric}: {verdict} "
                    f"(baseline {base_value:.4g}, {max_regression:.0%} budget)"
                )
        for metric in REPORTED.get(filename, ()):
            value = lookup(fresh, metric)
            if value is not None:
                print(f"info: {filename}:{metric} = {value}", file=out)

    if rows:
        width = max(len(f"{f}:{m}") for f, m, *_ in rows)
        header = "metric".ljust(width)
        print(f"{header}  baseline     fresh      bound   ", file=out)
        for filename, metric, base_value, fresh_value, bound, ok in rows:
            status = "ok" if ok else "REGRESSION"
            label = f"{filename}:{metric}".ljust(width)
            print(
                f"{label}  {base_value:8.4g}  {fresh_value:8.4g}  "
                f"{bound:8.4g}  {status}",
                file=out,
            )
    for warning in warnings:
        print(f"WARN: {warning}", file=out)
    for failure in failures:
        print(f"FAIL: {failure}", file=out)
    if failures:
        return 1
    budget = f"{max_regression:.0%}"
    print(
        f"benchmark gate: {len(rows)} metrics within {budget} of baseline"
        + (f", {len(warnings)} warning(s)" if warnings else ""),
        file=out,
    )
    return 0


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        description="fail the build on >max-regression benchmark drops",
    )
    parser.add_argument(
        "--baselines",
        default=str(HERE / "baselines"),
        help="directory of committed baseline JSONs",
    )
    parser.add_argument(
        "--results",
        default=str(HERE / "results"),
        help="directory of fresh benchmark JSONs",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="allowed fractional drop per gated metric",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baselines from the fresh results",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.max_regression < 1.0:
        print("--max-regression must be in [0, 1)", file=out)
        return 2
    baselines = Path(args.baselines)
    results = Path(args.results)
    if args.update:
        return update_baselines(baselines, results, out)
    return compare(baselines, results, args.max_regression, out)


if __name__ == "__main__":
    sys.exit(main())
