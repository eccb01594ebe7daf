"""Serving throughput measurement shared by the CLI and the benchmarks.

Two measurements matter for the serving engine:

* **packed batched path** — ``InferenceEngine.predict`` on whole batches
  (what the gateway dispatches);
* **per-sample baseline** — the pre-serving way: one
  ``model.predict(x)`` call per request, paying the generic
  ``batch_outputs`` setup every time.

``serve_benchmark`` times both over a grid of batch sizes and reports
requests/sec plus the speedup of the packed path at every size; the
``bench-serve`` CLI command and ``benchmarks/test_serve_throughput.py``
both consume it, so the number the CI artifact records is the number the
CLI prints.

``fabric_benchmark`` is the scale-out counterpart: it drives the same
request traffic through a single-replica fabric and an N-replica fabric
(:mod:`repro.serving.fabric`) and reports the aggregate speedup — the
number ``bench-fabric`` prints and
``benchmarks/test_fabric_throughput.py`` gates on.  For behaviour
*under overload* (shedding, SLO attainment, burst p99) see the seeded
virtual-time simulator in :mod:`repro.serving.traffic`
(``bench-fabric --traffic-sim``).
"""

from __future__ import annotations

import time

import numpy as np

from .engine import InferenceEngine, snapshot_engine
from .fabric import Gateway, ReplicaPool

__all__ = [
    "serve_benchmark",
    "format_benchmark",
    "fabric_benchmark",
    "format_fabric_benchmark",
]


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
                    repeats=3, seed=0, baseline_requests=64):
    """Measure packed-batch vs per-sample serving throughput.

    Parameters
    ----------
    model:
        A :class:`~repro.model.TMModel` (or machine) to serve.
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

    >>> from repro.serving import serve_benchmark  # doctest: +SKIP
    >>> payload = serve_benchmark(model, batch_sizes=(1, 64))  # doctest: +SKIP
    >>> payload["batch_sizes"]["64"]["speedup_vs_per_sample"]  # doctest: +SKIP
    9.7
    """
    engine = snapshot_engine(model) if not isinstance(model, InferenceEngine) \
        else model
    sw = model if not isinstance(model, InferenceEngine) else None
    rng = np.random.default_rng(seed)
    max_b = max(batch_sizes)
    n_requests = n_requests or max(256, max_b * 4)
    X = (rng.random((max(n_requests, max_b), engine.n_features)) < 0.5).astype(
        np.uint8
    )

    # Per-sample baseline: one generic predict call per request.
    target = sw if sw is not None else engine
    Xb = X[:baseline_requests]

    def per_sample():
        for row in Xb:
            target.predict(row)

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


def fabric_benchmark(model, n_replicas=4, max_batch=64, n_requests=2048,
                     repeats=2, seed=0, mode="process"):
    """Measure multi-replica fabric throughput against a single replica.

    Drives ``n_requests`` single-sample submissions through a
    :class:`~repro.serving.fabric.Gateway` twice — over a one-replica
    pool and over an ``n_replicas`` pool — and reports the aggregate
    rates plus ``fabric_speedup`` (multi / single).  Pools are built
    outside the timed region (worker start-up and snapshot shipping are
    deployment cost, not serving cost); both runs pay identical
    parent-side submit overhead, so the ratio isolates the fan-out.

    ``mode="inline"`` exists for smoke-testing the harness itself on
    machines where process workers cannot scale (the benchmark suite
    skips below 4 CPUs).

    >>> from repro.serving import fabric_benchmark  # doctest: +SKIP
    >>> payload = fabric_benchmark(model, n_replicas=4)  # doctest: +SKIP
    >>> payload["fabric_speedup"] >= 2.5  # doctest: +SKIP
    True
    """
    engine = snapshot_engine(model) if not isinstance(model, InferenceEngine) \
        else model
    rng = np.random.default_rng(seed)
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


def format_fabric_benchmark(payload):
    """Plain-text summary of a :func:`fabric_benchmark` payload.

    >>> print(format_fabric_benchmark({
    ...     "replicas": 4, "mode": "process", "requests": 2048,
    ...     "single_replica_requests_per_s": 10000.0,
    ...     "fabric_requests_per_s": 31000.0, "fabric_speedup": 3.1}))
    fabric benchmark: 4 process replicas, 2048 requests
      single replica:     10000 req/s
      fabric aggregate:   31000 req/s  (3.1x)
    """
    return "\n".join([
        f"fabric benchmark: {payload['replicas']} {payload['mode']} "
        f"replicas, {payload['requests']} requests",
        f"  single replica:   {payload['single_replica_requests_per_s']:>7.0f}"
        " req/s",
        f"  fabric aggregate: {payload['fabric_requests_per_s']:>7.0f}"
        f" req/s  ({payload['fabric_speedup']:.1f}x)",
    ])


def format_benchmark(payload):
    """Plain-text table of a :func:`serve_benchmark` payload.

    >>> print(format_benchmark({
    ...     "engine": "InferenceEngine(tiny)",
    ...     "per_sample_baseline_rps": 1000.0,
    ...     "batch_sizes": {"64": {"requests_per_s": 9000.0,
    ...                            "speedup_vs_per_sample": 9.0}}}))
    serving benchmark: InferenceEngine(tiny)
    per-sample baseline: 1000 req/s
     batch         req/s   speedup
        64          9000      9.0x
    """
    lines = [
        f"serving benchmark: {payload['engine']}",
        f"per-sample baseline: {payload['per_sample_baseline_rps']:.0f} req/s",
        f"{'batch':>6s}  {'req/s':>12s}  {'speedup':>8s}",
    ]
    for b, row in payload["batch_sizes"].items():
        lines.append(
            f"{b:>6s}  {row['requests_per_s']:>12.0f}  "
            f"{row['speedup_vs_per_sample']:>7.1f}x"
        )
    return "\n".join(lines)
