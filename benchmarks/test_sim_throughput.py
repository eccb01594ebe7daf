"""Netlist-simulator throughput: bit-parallel lanes vs fixed references.

Times :meth:`repro.simulator.AcceleratorSimulator.run_batch` on the
scaled mnist design, 64 test samples at once, against three references:

* perfbench's speed-probe kernel, which uses no code of the program, so
  ``probe_to_sim_ratio`` (probe time / 64-lane simulator time) moves
  only with the simulator's own speed — the gated figure;
* :meth:`repro.serving.InferenceEngine.predict_with_sums` on the same
  samples: the simulator stays within 10x of the engine
  (``engine_to_sim_ratio`` = engine time / simulator time >= 0.1).  A
  faster engine lowers this ratio, so it is reported, not gated;
* the simulator at 1 lane: 64 lanes cost about what 1 lane costs — one
  word either way (``lane_scaling_ratio`` = 1-lane time / 64-lane time
  >= 0.67).

Every figure is an in-run ratio, so it holds across runner hardware.
Runs are interleaved and each side takes its best time, so a slow phase
of a shared host hits all sides alike.  Writes
``benchmarks/results/sim_throughput.json``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from _harness import get_dataset, get_matador_design, save_results
from repro.serving import InferenceEngine
from repro.simulator import AcceleratorSimulator

# perfbench's speed-probe kernel; appended, so it shadows no module.
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import _probe_kernel  # noqa: E402

LANES = 64
REPEATS = 15
MIN_ENGINE_TO_SIM = 0.1
MIN_LANE_SCALING = 0.67


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_sim_throughput():
    design = get_matador_design("mnist")
    X = get_dataset("mnist").X_test[:LANES]
    engine = InferenceEngine.from_model(design.model)
    sim = AcceleratorSimulator(design)

    # Exactness first: the timed runs are the checked ones.
    report = sim.run_batch(X)
    predictions, sums = engine.predict_with_sums(X)
    assert np.array_equal(report.predictions, predictions)
    assert np.array_equal(report.class_sums_of_winner,
                          sums[np.arange(LANES), predictions])
    sim.run_batch(X[:1])

    times = {"engine": [], "sim_1": [], "sim_64": [], "probe": []}
    for _ in range(REPEATS):
        times["engine"].append(_timed(lambda: engine.predict_with_sums(X)))
        times["sim_1"].append(_timed(lambda: sim.run_batch(X[:1])))
        times["sim_64"].append(_timed(lambda: sim.run_batch(X)))
        times["probe"].append(_timed(_probe_kernel))
    best = {name: min(ts) for name, ts in times.items()}
    engine_to_sim = best["engine"] / best["sim_64"]
    lane_scaling = best["sim_1"] / best["sim_64"]
    probe_to_sim = best["probe"] / best["sim_64"]

    payload = {
        "design_nodes": design.netlist.n_nodes(),
        "cycles": report.cycles_run,
        "lanes": LANES,
        "engine_ms": best["engine"] * 1e3,
        "probe_ms": best["probe"] * 1e3,
        "run_batch_1_lane_ms": best["sim_1"] * 1e3,
        "run_batch_64_lanes_ms": best["sim_64"] * 1e3,
        "engine_to_sim_ratio": engine_to_sim,
        "lane_scaling_ratio": lane_scaling,
        "probe_to_sim_ratio": probe_to_sim,
    }
    path = save_results("sim_throughput.json", payload)
    print()
    print(f"simulator ({payload['design_nodes']} nodes, "
          f"{payload['cycles']} cycles): 1 lane "
          f"{payload['run_batch_1_lane_ms']:.1f} ms, {LANES} lanes "
          f"{payload['run_batch_64_lanes_ms']:.1f} ms; engine "
          f"{payload['engine_ms']:.2f} ms; probe "
          f"{payload['probe_ms']:.2f} ms")
    print(f"  probe/sim {probe_to_sim:.3f}, engine/sim {engine_to_sim:.3f}, "
          f"1-lane/64-lane {lane_scaling:.2f}; results: {path}")

    assert engine_to_sim >= MIN_ENGINE_TO_SIM, (
        f"simulator is {1 / engine_to_sim:.1f}x the engine on {LANES} "
        f"samples (need within {1 / MIN_ENGINE_TO_SIM:.0f}x)")
    assert lane_scaling >= MIN_LANE_SCALING, (
        f"{LANES} lanes cost {1 / lane_scaling:.2f}x one lane "
        f"(need <= {1 / MIN_LANE_SCALING:.2f}x)")
