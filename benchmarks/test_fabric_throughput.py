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

import numpy as np
import pytest

from _harness import save_results
from repro.model import TMModel
from repro.serving import fabric_benchmark
from repro.sweep import available_cpus

MIN_FABRIC_SPEEDUP = 2.5
FABRIC_REPLICAS = 4


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
