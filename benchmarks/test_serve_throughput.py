"""Serving-throughput benchmark: packed batched inference vs per-sample.

Measures requests/sec of the :class:`repro.serving.InferenceEngine`
packed path at batch sizes {1, 8, 64, 256} against the per-sample
baseline (one generic ``model.predict(x)`` call per request — the only
serving story before the serving subsystem existed), on an MNIST-scale
model (10 classes, 784 features, 128 clauses/class).

Two assertions pin the serving contract:

* the packed batched path is **>= 5x** faster than per-sample predict at
  batch 64 (the default ``Batcher`` size trigger);
* a full micro-batched serving session with a
  :class:`~repro.serving.DifferentialChecker` attached replays at least
  one served batch through the cycle-accurate simulator with identical
  predictions and bit-identical winning class sums.

The JSON payload lands in ``benchmarks/results/serve_throughput.json``
(uploaded as a CI artifact) so the serving perf trajectory is recorded
across PRs.
"""

from __future__ import annotations

import time

import numpy as np

from _harness import save_results
from repro.accelerator import AcceleratorConfig, generate_accelerator
from repro.model import TMModel
from repro.serving import (
    Batcher,
    DifferentialChecker,
    Registry,
    snapshot_engine,
)
from repro.tsetlin import TsetlinMachine

BATCH_SIZES = (1, 8, 64, 256)
MIN_SPEEDUP_AT_64 = 5.0

N_CLASSES = 10
N_FEATURES = 784
N_CLAUSES = 128


def _best_rate(fn, n_requests, repeats):
    """Requests/sec, best of ``repeats`` (least-noise estimator)."""
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = max(best, n_requests / dt if dt > 0 else 0.0)
    return best


def serve_benchmark(model, batch_sizes=(1, 8, 64, 256), n_requests=None,
                    repeats=3, baseline_requests=64):
    """Measure packed-batch vs per-sample serving throughput.

    Parameters
    ----------
    model:
        A :class:`~repro.model.TMModel` to serve.
    batch_sizes:
        Batch widths to measure the packed path at.
    n_requests:
        Requests per timed run; defaults to enough for the largest batch.
    repeats:
        Timed repetitions per point (best-of).
    baseline_requests:
        How many single-sample ``model.predict`` calls to time for the
        per-sample baseline.

    Returns a JSON-ready dict with per-batch-size requests/sec, the
    per-sample baseline, and ``speedup`` (packed rps / baseline rps).
    """
    engine = snapshot_engine(model)
    rng = np.random.default_rng(0)
    max_b = max(batch_sizes)
    n_requests = n_requests or max(256, max_b * 4)
    X = (rng.random((max(n_requests, max_b), engine.n_features)) < 0.5).astype(
        np.uint8
    )

    # Per-sample baseline: one generic predict call per request.
    Xb = X[:baseline_requests]

    def per_sample():
        for row in Xb:
            model.predict(row)

    baseline_rps = _best_rate(per_sample, len(Xb), repeats)

    results = {}
    for b in batch_sizes:
        n_batches = max(1, n_requests // b)
        served = n_batches * b

        def packed():
            for i in range(n_batches):
                engine.predict(X[(i * b) % (len(X) - b + 1):][:b])

        rps = _best_rate(packed, served, repeats)
        results[int(b)] = {
            "requests_per_s": round(rps, 1),
            "batches": n_batches,
            "speedup_vs_per_sample": round(rps / baseline_rps, 2)
            if baseline_rps else None,
        }

    return {
        "engine": repr(engine),
        "n_features": engine.n_features,
        "n_classes": engine.n_classes,
        "n_clauses": engine.n_clauses,
        "per_sample_baseline_rps": round(baseline_rps, 1),
        "batch_sizes": {str(b): results[int(b)] for b in batch_sizes},
    }


def _served_model(seed=9):
    """A briefly trained MNIST-scale machine (structure > accuracy here)."""
    rng = np.random.default_rng(seed)
    protos = rng.random((N_CLASSES, N_FEATURES)) < 0.5
    y = rng.integers(0, N_CLASSES, 80)
    X = (protos[y] ^ (rng.random((80, N_FEATURES)) < 0.05)).astype(np.uint8)
    tm = TsetlinMachine(N_CLASSES, N_FEATURES, n_clauses=N_CLAUSES, T=12,
                        s=5.0, seed=seed, backend="vectorized")
    tm.fit(X, y, epochs=2)
    return tm.export_model("serve_bench")


def test_serve_throughput_and_differential():
    model = _served_model()
    payload = serve_benchmark(model, batch_sizes=BATCH_SIZES, repeats=3)

    # --- the >=5x packed-vs-per-sample contract at the default batch ----
    speedup_64 = payload["batch_sizes"]["64"]["speedup_vs_per_sample"]
    assert speedup_64 >= MIN_SPEEDUP_AT_64, (
        f"packed batched inference is only {speedup_64:.2f}x the per-sample "
        f"path at batch 64 (need >= {MIN_SPEEDUP_AT_64}x)"
    )

    # --- differential replay of actually-served batches -----------------
    # Small model for the simulator leg (compile cost scales with gates);
    # the check is about served-batch equality, not width.
    small_rng = np.random.default_rng(3)
    sX = (small_rng.random((96, 20)) < 0.5).astype(np.uint8)
    sy = small_rng.integers(0, 3, 96)
    small = TsetlinMachine(3, 20, n_clauses=8, T=5, seed=4,
                           backend="vectorized")
    small.fit(sX, sy, epochs=2)
    smodel = small.export_model("serve_diff")
    design = generate_accelerator(smodel, AcceleratorConfig(name="serve_diff"))

    registry = Registry()
    engine = registry.publish("serve_diff", smodel)
    checker = DifferentialChecker(design, fraction=0.5, seed=0)
    batcher = Batcher(engine, max_batch=16, max_delay=None,
                      observers=[checker])
    tickets = [batcher.submit(x) for x in sX]
    batcher.flush()

    assert all(t.done for t in tickets)
    assert [t.result() for t in tickets] == smodel.predict(sX).tolist()
    assert checker.batches_checked >= 1, "no served batch was replayed"
    assert checker.clean, f"differential mismatch: {checker.mismatches}"

    payload["differential"] = checker.report()
    payload["batcher"] = batcher.stats.to_dict()
    path = save_results("serve_throughput.json", payload)

    print()
    print(f"serve throughput (per-sample baseline "
          f"{payload['per_sample_baseline_rps']:.0f} req/s):")
    for b in BATCH_SIZES:
        row = payload["batch_sizes"][str(b)]
        print(f"  batch {b:>3d}: {row['requests_per_s']:>10.0f} req/s "
              f"({row['speedup_vs_per_sample']:.1f}x)")
    print(f"  differential: {checker.summary()}")
    print(f"  results: {path}")


def test_serve_benchmark_payload_shape():
    """Harness smoke on a tiny random model: payload shape, not speed."""
    rng = np.random.default_rng(8)
    model = TMModel(include=rng.random((3, 6, 32)) < 0.12, n_features=16,
                    name="serve_smoke")
    payload = serve_benchmark(model, batch_sizes=(1, 4), n_requests=16,
                              repeats=1, baseline_requests=8)
    assert set(payload["batch_sizes"]) == {"1", "4"}
    for row in payload["batch_sizes"].values():
        assert row["requests_per_s"] > 0
