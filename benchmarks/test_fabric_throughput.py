"""Fabric scaling benchmark: multi-replica aggregate vs single replica.

The serving fabric's contract is near-linear throughput scaling across
worker processes: the same request traffic driven through a 4-replica
:class:`~repro.serving.Gateway` must aggregate at least 2.5x the
single-replica rate on the same model.  Both runs pay identical
parent-side submit and IPC cost (one gateway, one pipe protocol), so the
ratio isolates the fan-out; like the other scaling benches this skips on
machines with fewer than 4 usable CPUs, where a process pool cannot
physically deliver the ratio and the measurement is noise.

Results land in ``benchmarks/results/fabric_throughput.json`` and the
``fabric_speedup`` ratio is gated against the committed baseline by
``compare_bench.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _harness import save_results
from repro.model import TMModel
from repro.serving import Gateway, ReplicaPool, snapshot_engine
from repro.sweep import available_cpus

MIN_FABRIC_SPEEDUP = 2.5
FABRIC_REPLICAS = 4


def fabric_benchmark(model, n_replicas, max_batch, n_requests, repeats,
                     mode="process"):
    """Measure multi-replica fabric throughput against a single replica.

    Drives ``n_requests`` single-sample submissions through a
    :class:`~repro.serving.fabric.Gateway` twice — over a one-replica
    pool and over an ``n_replicas`` pool — and reports the aggregate
    rates plus ``fabric_speedup`` (multi / single).  Pools are built
    outside the timed region (worker start-up and snapshot shipping are
    deployment cost, not serving cost); both runs pay identical
    parent-side submit overhead, so the ratio isolates the fan-out.

    ``mode="inline"`` exists for smoke-testing the harness itself on
    machines where process workers cannot scale (the scaling test skips
    below 4 CPUs).
    """
    engine = snapshot_engine(model)
    rng = np.random.default_rng(0)
    X = (rng.random((n_requests, engine.n_features)) < 0.5).astype(np.uint8)

    def run(replicas):
        best_rate = 0.0
        report = None
        for _ in range(repeats):
            with ReplicaPool(engine, n_replicas=replicas, mode=mode,
                             max_batch=max_batch) as pool:
                gateway = Gateway(
                    pool, max_batch=max_batch,
                    max_queue=max(512, 4 * max_batch * replicas),
                )
                t0 = time.perf_counter()
                gateway.submit_many(X)
                gateway.flush()
                dt = time.perf_counter() - t0
                rate = n_requests / dt if dt > 0 else 0.0
                if rate >= best_rate:
                    best_rate = rate
                    report = gateway.report()
        return best_rate, report

    single_rps, _ = run(1)
    fabric_rps, fabric_report = run(n_replicas)
    return {
        "replicas": int(n_replicas),
        "mode": mode,
        "max_batch": int(max_batch),
        "requests": int(n_requests),
        "n_features": engine.n_features,
        "n_classes": engine.n_classes,
        "n_clauses": engine.n_clauses,
        "single_replica_requests_per_s": round(single_rps, 1),
        "fabric_requests_per_s": round(fabric_rps, 1),
        "fabric_speedup": round(fabric_rps / single_rps, 2)
        if single_rps else None,
        "fabric_latency_ms": (fabric_report or {}).get(
            "fabric", {}).get("latency"),
        "fabric_report": fabric_report,
    }


def bench_model():
    """A deterministic synthetic model sized so compute dominates IPC.

    784 boolean features x 10 classes x 96 clauses/class: one request
    ships ~0.8 KB over the pipe but costs ~190 KB of packed clause
    evaluation, so worker compute — the thing the fabric scales — is the
    bottleneck in both the single- and multi-replica runs.
    """
    rng = np.random.default_rng(17)
    n_classes, n_clauses, n_features = 10, 96, 784
    include = rng.random((n_classes, n_clauses, 2 * n_features)) < 0.08
    pos = include[:, :, :n_features]
    neg = include[:, :, n_features:]
    neg &= ~(pos & neg)  # no contradictory literals: clauses can fire
    include = np.concatenate([pos, neg], axis=2)
    return TMModel(include=include, n_features=n_features, name="fabric_bench")


def test_fabric_aggregate_throughput_scales():
    if available_cpus() < FABRIC_REPLICAS:
        pytest.skip(
            f"needs >= {FABRIC_REPLICAS} usable CPUs to demonstrate "
            f"{MIN_FABRIC_SPEEDUP}x fabric scaling, have {available_cpus()}"
        )
    payload = fabric_benchmark(
        bench_model(),
        n_replicas=FABRIC_REPLICAS,
        max_batch=64,
        n_requests=4096,
        repeats=2,
    )
    payload["cpus_available"] = available_cpus()
    save_results("fabric_throughput.json", payload)
    assert payload["fabric_speedup"] is not None
    assert payload["fabric_speedup"] >= MIN_FABRIC_SPEEDUP, payload


def test_fabric_benchmark_payload_shape():
    """Harness smoke in inline mode: correctness, not speedup."""
    payload = fabric_benchmark(bench_model(), n_replicas=2, max_batch=8,
                               n_requests=64, repeats=1, mode="inline")
    assert payload["replicas"] == 2
    assert payload["requests"] == 64
    assert payload["single_replica_requests_per_s"] > 0
    assert payload["fabric_requests_per_s"] > 0
    assert payload["fabric_speedup"] is not None
    assert payload["fabric_report"]["fabric"]["samples"] == 64
