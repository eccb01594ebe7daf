"""Streaming-subsystem benchmark: online updates/sec + detection delay.

Measures the continual-learning hot path on an MNIST-like replay stream
at a Table-II-scale clause budget:

* ``partial_fit`` update throughput per training backend — the gated
  metric is the vectorized-vs-reference **ratio** (``online_speedup``),
  hardware-robust like the batch-training speedup gate;
* drift-detection delay on an induced abrupt label-permutation shift —
  reported for the artifact trail (a detector property, not a perf one)
  but sanity-bounded here so a detector regression cannot land silently.

Results land in ``benchmarks/results/stream_throughput.json`` and gate
against ``benchmarks/baselines/stream_throughput.json`` via
``compare_bench.py``.  Skipped below 4 usable cores (like the other
scaling/throughput benches): timing ratios on starved CI/laptop
containers are noise, and the gate treats the missing result as a
warning, not a failure.
"""

from __future__ import annotations

import time

import pytest

from _harness import save_results
from repro.data import load_dataset
from repro.streaming import DriftDetector, DriftStream, ReplayStream, permute_labels
from repro.sweep import available_cpus
from repro.tsetlin import TsetlinMachine

MIN_ONLINE_SPEEDUP = 1.3
MAX_DETECTION_DELAY = 200  # samples past the induced onset

DATASET = "mnist"
N_CLAUSES = 120
T = 10
S = 4.0
SEED = 42
STREAM_SAMPLES = 600  # per timed run
BATCH_SIZE = 64
REPEATS = 2  # timed runs per backend (best-of)
DRIFT_AT = 300
DETECTOR_WINDOW = 300


def _make_machine(ds, backend):
    return TsetlinMachine(
        n_classes=ds.n_classes,
        n_features=ds.n_features,
        n_clauses=N_CLAUSES,
        T=T,
        s=S,
        seed=SEED,
        backend=backend,
    )


def _updates_per_sec(ds, backend):
    """Best-of-``REPEATS`` partial_fit throughput on a replayed stream."""
    best = 0.0
    for _ in range(REPEATS):
        machine = _make_machine(ds, backend)
        stream = ReplayStream(ds, batch_size=BATCH_SIZE,
                              n_samples=STREAM_SAMPLES, seed=SEED)
        # Warm pass: first chunk pays cold-start costs (allocations,
        # packing); steady-state is what a standing loop sees.
        batches = list(stream)
        machine.partial_fit(batches[0].X, batches[0].y)
        timed = batches[1:]
        n = sum(len(b) for b in timed)
        t0 = time.perf_counter()
        for batch in timed:
            machine.partial_fit(batch.X, batch.y)
        elapsed = time.perf_counter() - t0
        if elapsed > 0:
            best = max(best, n / elapsed)
    return best


def _detection_delay(ds):
    """Delay (samples) between induced abrupt drift and detector firing."""
    machine = _make_machine(ds, "vectorized")
    machine.fit(ds.X_train, ds.y_train, epochs=2, shuffle=False)
    stream = DriftStream(
        ReplayStream(ds, batch_size=BATCH_SIZE, n_samples=4 * DRIFT_AT,
                     seed=SEED + 1),
        permute_labels(ds.n_classes, seed=SEED),
        drift_at=DRIFT_AT,
    )
    detector = DriftDetector(window=DETECTOR_WINDOW, check_every=BATCH_SIZE)
    for batch in stream:
        detector.update(machine.predict(batch.X) == batch.y)
        # Stop at the first firing at/after the true onset; earlier
        # firings are false alarms and must not abort the measurement.
        if any(d >= DRIFT_AT for d in detector.detections):
            break
    hits = [d for d in detector.detections if d >= DRIFT_AT]
    return int(hits[0] - DRIFT_AT) if hits else None


def stream_benchmark():
    """Measure online update throughput per backend + detection delay.

    Trains one machine per backend over the same replayed stream and
    times ``partial_fit`` updates/sec, then measures how many samples an
    induced abrupt drift takes to detect.
    """
    ds = load_dataset(DATASET, n_train=400, n_test=100, seed=0)
    rates = {backend: _updates_per_sec(ds, backend)
             for backend in ("reference", "vectorized")}
    return {
        "dataset": ds.name,
        "n_clauses": N_CLAUSES,
        "batch_size": BATCH_SIZE,
        "stream_samples": STREAM_SAMPLES,
        "reference_updates_per_sec": round(rates["reference"], 1),
        "vectorized_updates_per_sec": round(rates["vectorized"], 1),
        "online_speedup": round(rates["vectorized"]
                                / max(rates["reference"], 1e-9), 2),
        "drift_at": DRIFT_AT,
        "detection_delay_samples": _detection_delay(ds),
    }


@pytest.fixture(scope="module")
def payload():
    if available_cpus() < 4:
        pytest.skip(
            f"{available_cpus()} usable CPUs: throughput timing on a "
            "starved machine is noise (CI runs this on 4-core runners)"
        )
    result = stream_benchmark()
    save_results("stream_throughput.json", result)
    return result


def test_online_updates_beat_reference(payload):
    assert payload["reference_updates_per_sec"] > 0
    assert payload["vectorized_updates_per_sec"] > 0
    assert payload["online_speedup"] >= MIN_ONLINE_SPEEDUP, payload


def test_induced_drift_detected_promptly(payload):
    delay = payload["detection_delay_samples"]
    assert delay is not None, "induced drift never detected"
    assert 0 <= delay <= MAX_DETECTION_DELAY, payload
