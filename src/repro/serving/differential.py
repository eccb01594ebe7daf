"""Differential sim-vs-software verification of served batches.

The paper's core promise is that the generated accelerator is
functionally identical to the software model.  Training-side backends pin
their half of that promise with ``tests/test_backend_equivalence.py``;
this module pins the serving side *continuously*: a
:class:`DifferentialChecker` registered as a gateway observer replays a
sampled fraction of the batches the engine actually served through the
cycle-accurate netlist simulator
(:class:`~repro.simulator.design_sim.AcceleratorSimulator`) and demands

* identical predictions on every lane, and
* bit-identical winning class sums (the ``result_sum`` bus vs the
  engine's ``class_sums`` at the predicted index).

Any divergence is recorded (and by default raised), so a serving stack
that drifts from its silicon — a stale snapshot, a packing bug, a
codegen regression — fails loudly in production traffic, not in a
quarterly verification run.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs import get_registry
from ..simulator.design_sim import AcceleratorSimulator

__all__ = ["DifferentialChecker", "DifferentialMismatch"]


class DifferentialMismatch(AssertionError):
    """A served batch disagreed with the cycle-accurate simulation.

    >>> issubclass(DifferentialMismatch, AssertionError)
    True
    """


class DifferentialChecker:
    """Replay sampled served batches through the design simulator.

    Parameters
    ----------
    design:
        The :class:`~repro.accelerator.generator.AcceleratorDesign`
        generated from the *same* model snapshot the engine serves.
    fraction:
        Fraction of batches to replay (deterministic per ``seed``).  The
        first batch is always checked so every serving session verifies
        at least once.
    seed:
        Seed for the sampling stream.
    raise_on_mismatch:
        Raise :class:`DifferentialMismatch` immediately (default) or just
        record mismatches for :meth:`report`.
    max_lanes:
        Batches wider than this are replayed on their first
        ``max_lanes`` samples only.  A replay runs exactly one simulator
        lane per checked sample, without padding, on the one program
        compiled at construction (:attr:`simulator`); its cost grows
        by one 64-lane word per 64 samples.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` the checker counts into
        (``differential_samples_checked_total``,
        ``differential_mismatches_total`` — one per mismatched sample —
        and the ``differential_check_seconds`` replay histogram).
        Defaults to the process registry (:func:`repro.obs.get_registry`).

    Registered as a :class:`~repro.serving.Gateway` observer (any fleet
    size, a one-replica :class:`~repro.serving.Batcher` included), it
    sees every collected batch; its exceptions *do* propagate out of the
    otherwise error-isolated observer loop (``propagate_errors = True``)
    because a divergence is a correctness event, not a metrics blip.

    >>> import numpy as np
    >>> from repro.accelerator import AcceleratorConfig, generate_accelerator
    >>> from repro.model import TMModel
    >>> from repro.serving import Batcher, DifferentialChecker, InferenceEngine
    >>> include = np.zeros((2, 1, 4), dtype=bool)
    >>> include[0, 0, 0] = True; include[1, 0, 2] = True
    >>> model = TMModel(include=include, n_features=2, weights=[[1], [1]])
    >>> design = generate_accelerator(model, AcceleratorConfig())
    >>> checker = DifferentialChecker(design, fraction=1.0)
    >>> with Batcher(InferenceEngine.from_model(model), max_batch=2,
    ...              observers=[checker]) as batcher:
    ...     tickets = [batcher.submit(x) for x in ([1, 0], [0, 1], [1, 0])]
    >>> [t.result() for t in tickets], checker.samples_checked, checker.clean
    ([0, 1, 0], 3, True)
    """

    #: A divergence must surface even though plain observer errors are
    #: isolated by the gateway (see ``notify_observers``).
    propagate_errors = True

    def __init__(self, design, fraction=0.1, seed=0, raise_on_mismatch=True,
                 max_lanes=256, metrics=None):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.design = design
        self.fraction = float(fraction)
        self.raise_on_mismatch = bool(raise_on_mismatch)
        self.max_lanes = int(max_lanes)
        self._rng = np.random.default_rng(seed)
        self.simulator = AcceleratorSimulator(design)
        self.metrics = metrics if metrics is not None else get_registry()
        self._m_samples = self.metrics.counter(
            "differential_samples_checked_total")
        self._m_mismatches = self.metrics.counter(
            "differential_mismatches_total")
        self._m_seconds = self.metrics.histogram("differential_check_seconds")
        self.batches_seen = 0
        self.batches_checked = 0
        self.samples_checked = 0
        self.mismatches = []

    # ------------------------------------------------------------------
    def __call__(self, X, class_sums, predictions):
        """Gateway-observer entry point: maybe replay this batch."""
        self.batches_seen += 1
        take = self.batches_seen == 1 or self._rng.random() < self.fraction
        if not take:
            return None
        return self.check(X, class_sums, predictions)

    def check(self, X, class_sums, predictions):
        """Replay one batch unconditionally; returns True iff it matched."""
        X = np.asarray(X, dtype=np.uint8)
        if X.ndim == 1:
            X = X[np.newaxis, :]
        class_sums = np.asarray(class_sums)
        predictions = np.asarray(predictions)
        if len(X) > self.max_lanes:
            X = X[: self.max_lanes]
            class_sums = class_sums[: self.max_lanes]
            predictions = predictions[: self.max_lanes]

        n = len(X)
        start = time.perf_counter()
        report = self.simulator.run_batch(X)
        self._m_seconds.record(time.perf_counter() - start)
        hw_predictions = report.predictions
        hw_winner_sums = report.class_sums_of_winner
        sw_winner_sums = class_sums[np.arange(n), predictions]
        bad = np.flatnonzero(
            (hw_predictions != predictions)
            | (hw_winner_sums != sw_winner_sums)
        )

        self.batches_checked += 1
        self.samples_checked += n
        self._m_samples.inc(n)
        if not len(bad):
            return True
        self._m_mismatches.inc(len(bad))
        record = {
            "batch_index": self.batches_seen,
            "n_samples": n,
            "bad_lanes": bad.tolist(),
            "hw_predictions": hw_predictions[bad].tolist(),
            "sw_predictions": predictions[bad].tolist(),
            "hw_winner_sums": hw_winner_sums[bad].tolist(),
            "sw_winner_sums": sw_winner_sums[bad].tolist(),
        }
        self.mismatches.append(record)
        if self.raise_on_mismatch:
            raise DifferentialMismatch(
                f"served batch {self.batches_seen} diverged from the "
                f"simulator on {len(bad)}/{n} lanes "
                f"(first lane {bad[0]}: hw={record['hw_predictions'][0]}/"
                f"sum {record['hw_winner_sums'][0]}, "
                f"sw={record['sw_predictions'][0]}/"
                f"sum {record['sw_winner_sums'][0]})"
            )
        return False

    # ------------------------------------------------------------------
    @property
    def clean(self):
        return not self.mismatches

    def report(self):
        """Serving-session verification summary."""
        return {
            "batches_seen": self.batches_seen,
            "batches_checked": self.batches_checked,
            "samples_checked": self.samples_checked,
            "check_fraction_configured": self.fraction,
            "mismatched_batches": len(self.mismatches),
            "clean": self.clean,
        }

    def summary(self):
        r = self.report()
        status = "OK" if r["clean"] else "MISMATCH"
        return (
            f"[{status}] differential: {r['batches_checked']}/"
            f"{r['batches_seen']} batches replayed "
            f"({r['samples_checked']} samples), "
            f"{r['mismatched_batches']} mismatched"
        )
