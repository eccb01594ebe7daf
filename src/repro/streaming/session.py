"""The standing continual-learning loop: serve, detect, adapt, promote.

:class:`StreamSession` wires the whole subsystem together over one
stream:

1. **Warmup** — the first ``warmup`` samples train the initial champion
   (via ``partial_fit``), which is published to the registry as v1 and
   served through a :class:`~repro.serving.Batcher` (a one-replica
   :class:`~repro.serving.Gateway`).
2. **Serve** — every subsequent sample is submitted to the batcher as a
   single request; each stream batch is flushed so every ticket
   resolves (the session counts unresolved/failed tickets — the
   zero-drop contract the e2e test asserts).
3. **Detect** — labels arrive ``label_delay`` batches after serving
   (the production reality the detector is built for); correctness bits
   of served predictions vs delayed labels feed the
   :class:`~repro.streaming.DriftDetector`.
4. **Adapt** — on a detection, a fresh challenger machine is built
   (``machine_factory(seed)``) and trained online on the next
   ``adapt_window`` labelled samples — post-detection traffic only, so
   the challenger learns the new concept uncontaminated by pre-drift
   history.
5. **Promote** — after its ``adapt_window`` the challenger is *frozen*
   and the next ``eval_window`` labelled samples are collected as a
   held-out shadow set (the challenger never trains on them, so
   champion and challenger are both scored out-of-sample — an honest
   comparison).  On a win it is hot-swapped via the
   :class:`~repro.streaming.Promoter` (champion pinned during the
   window, batcher drained before the swap, no dropped requests).
   :meth:`rollback` reverses the last promotion.

The loop is synchronous and deterministic (no wall-clock deadline in the
batcher, seeded streams), so the e2e test can assert exact versions and
replay behaviour; a production deployment would run the same objects
behind a request thread.
"""

from __future__ import annotations

import numpy as np

from ..obs import get_registry
from ..serving.fabric import Batcher
from ..serving.registry import Registry
from .drift import DriftDetector
from .promote import Promoter

__all__ = ["StreamSession", "run_stream"]


class StreamSession:
    """One continual-learning run over a stream.

    Parameters
    ----------
    stream:
        A :class:`~repro.streaming.StreamSource`; if it exposes
        ``drift_at`` (a :class:`~repro.streaming.DriftStream`), the
        report includes ground-truth detection delay.
    machine_factory:
        ``machine_factory(seed) -> machine`` with ``partial_fit``; used
        for the champion (``seed``) and each challenger (``seed + k``).
    warmup:
        Samples used to train and publish the initial champion.
    registry, detector:
        Injectable; fresh ones are built by default.
    name:
        Registry model name.
    max_batch:
        Batcher size trigger (the deadline is disabled — flush points
        must be deterministic).
    label_delay:
        Batches between serving a sample and its label arriving.
    adapt_window:
        Labelled post-detection samples a challenger trains on.
    eval_window:
        Labelled samples collected *after* the challenger stops
        training, used as the held-out shadow-evaluation set.
    promote_margin:
        Required challenger edge, passed to the Promoter.
    seed:
        Base seed for the champion/challenger factory calls.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` lifecycle counters
        (``stream_detections_total``, ``stream_promotions_total``, ...)
        and the ``stream_live_version`` gauge are recorded into
        (defaults to the process registry).

    >>> from repro.data import load_dataset  # doctest: +SKIP
    >>> from repro.streaming import DriftStream, ReplayStream, StreamSession
    >>> ds = load_dataset("kws6", n_train=500, n_test=100)  # doctest: +SKIP
    >>> stream = DriftStream(ReplayStream(ds, n_samples=2600),
    ...                      permute_labels(ds.n_classes),
    ...                      drift_at=1200)  # doctest: +SKIP
    >>> session = StreamSession(stream, factory, warmup=400)  # doctest: +SKIP
    >>> report = session.run()  # doctest: +SKIP
    >>> report["unresolved"]  # doctest: +SKIP
    0
    """

    def __init__(self, stream, machine_factory, warmup=200, registry=None,
                 detector=None, name="stream", max_batch=32, label_delay=1,
                 adapt_window=300, eval_window=200, promote_margin=0.0,
                 seed=42, metrics=None):
        if warmup < 1:
            raise ValueError("warmup must be >= 1")
        self.stream = stream
        self.machine_factory = machine_factory
        self.warmup = int(warmup)
        self.registry = registry if registry is not None else Registry()
        self.detector = detector if detector is not None else DriftDetector()
        self.name = name
        self.max_batch = int(max_batch)
        self.label_delay = int(label_delay)
        self.adapt_window = int(adapt_window)
        self.eval_window = int(eval_window)
        self.promote_margin = float(promote_margin)
        self.seed = int(seed)

        self.batcher = None
        self.promoter = None
        self.champion = None
        self._challenger = None
        self._challenger_phase = None  # "adapt" -> "shadow"
        self._challenger_samples = 0
        self._shadow_X = []
        self._shadow_y = []
        self._n_challengers = 0
        # Per-sample correctness history (global index + bit).  Kept for
        # the whole run so report() can segment accuracy around events
        # discovered only later (drift, promotion); ~a few bytes per
        # sample, so a bounded session is cheap — a truly unbounded
        # deployment would swap this for windowed counters and forfeit
        # the retrospective segments.
        self._correct_idx = []
        self._correct_bits = []
        self.report_events = {
            "detections": [], "promotions": [], "rejections": [],
            "rollbacks": [],
        }
        self._requests = 0
        self._served = 0
        self._unresolved = 0
        self.metrics = metrics if metrics is not None else get_registry()
        self._m_events = {
            event: self.metrics.counter(f"stream_{event}_total")
            for event in ("detections", "promotions", "rejections",
                          "rollbacks")
        }
        self._m_live_version = self.metrics.gauge("stream_live_version")

    # ------------------------------------------------------------------
    def run(self):
        """Drive the whole stream; returns the report dict."""
        batches = iter(self.stream)
        self._warmup_and_publish(batches)
        pending = []  # (batch, predictions) awaiting delayed labels
        with self.batcher:
            for batch in batches:
                predictions = self._serve(batch)
                pending.append((batch, predictions))
                if len(pending) > self.label_delay:
                    self._labels_arrived(*pending.pop(0))
            # Stream over: remaining labels arrive, no more serving.
            for item in pending:
                self._labels_arrived(*item)
        return self.report()

    # ------------------------------------------------------------------
    def _warmup_and_publish(self, batches):
        X_parts, y_parts, n = [], [], 0
        for batch in batches:
            X_parts.append(batch.X)
            y_parts.append(batch.y)
            n += len(batch)
            if n >= self.warmup:
                break
        if n < self.warmup:
            raise ValueError(
                f"stream ended during warmup ({n} < {self.warmup} samples)"
            )
        X = np.concatenate(X_parts)
        y = np.concatenate(y_parts)
        self.champion = self.machine_factory(self.seed)
        self.champion.partial_fit(X, y)
        self._warmup_samples = n
        engine = self.registry.publish(self.name, self.champion)
        self.batcher = Batcher(engine, max_batch=self.max_batch,
                               max_delay=None, metrics=self.metrics)
        self._m_live_version.set(engine.version)
        self.promoter = Promoter(self.registry, self.name,
                                 gateway=self.batcher,
                                 margin=self.promote_margin)

    def _serve(self, batch):
        tickets = self.batcher.submit_many(batch.X)
        self.batcher.flush()
        self._requests += len(tickets)
        predictions = np.empty(len(tickets), dtype=np.int64)
        for i, ticket in enumerate(tickets):
            if ticket.done and ticket.prediction is not None:
                self._served += 1
                predictions[i] = ticket.prediction
            else:  # the zero-drop contract says this never happens
                self._unresolved += 1
                predictions[i] = -1
        return predictions

    def _labels_arrived(self, batch, predictions):
        correct = predictions == batch.y
        self._correct_idx.extend(batch.indices.tolist())
        self._correct_bits.extend(correct.tolist())

        if self._challenger_phase == "adapt":
            self._challenger.partial_fit(batch.X, batch.y)
            self._challenger_samples += len(batch)
            if self._challenger_samples >= self.adapt_window:
                # Freeze: the next eval_window samples are held out so
                # the shadow comparison is out-of-sample for *both*
                # contenders (an in-sample-fit challenger would win a
                # rigged comparison).
                self._challenger_phase = "shadow"
        elif self._challenger_phase == "shadow":
            self._shadow_X.append(batch.X)
            self._shadow_y.append(batch.y)
            if sum(len(y) for y in self._shadow_y) >= self.eval_window:
                self._judge_challenger()

        if self.detector.update(correct):
            # A firing while a challenger is mid-adapt/shadow means the
            # distribution moved *again* (the window restarted at the
            # previous firing): the half-trained challenger is stale, so
            # it is abandoned and a fresh one starts from this point —
            # a detection is never silently discarded.
            self.report_events["detections"].append({
                "sample_index": int(self._correct_idx[-1]),
                "restarted_challenger": self._challenger is not None,
            })
            self._m_events["detections"].inc()
            self._spawn_challenger()

    def _spawn_challenger(self):
        # The challenger starts blank and learns from post-detection
        # traffic only: the ring behind the detection point is dominated
        # by the *old* concept and would poison it.
        self._n_challengers += 1
        self._challenger = self.machine_factory(self.seed + self._n_challengers)
        self._challenger_phase = "adapt"
        self._challenger_samples = 0
        self._shadow_X = []
        self._shadow_y = []

    def _judge_challenger(self):
        X = np.concatenate(self._shadow_X)
        y = np.concatenate(self._shadow_y)
        record = self.promoter.promote(self._challenger, X, y)
        record = dict(record, sample_index=int(self._correct_idx[-1]))
        if record["promoted"]:
            self.champion = self._challenger
            self.report_events["promotions"].append(record)
            self._m_events["promotions"].inc()
            self._m_live_version.set(self.batcher.engine.version)
        else:
            self.report_events["rejections"].append(record)
            self._m_events["rejections"].inc()
        self._challenger = None
        self._challenger_phase = None
        self._challenger_samples = 0
        self._shadow_X = []
        self._shadow_y = []
        # Post-decision traffic is judged fresh either way.
        self.detector.reset()

    # ------------------------------------------------------------------
    def rollback(self):
        """Reverse the last promotion (delegates to the Promoter)."""
        record = self.promoter.rollback()
        self.report_events["rollbacks"].append(record)
        self._m_events["rollbacks"].inc()
        self._m_live_version.set(self.batcher.engine.version)
        return record

    # ------------------------------------------------------------------
    def _segment_accuracy(self, lo, hi):
        idx = np.asarray(self._correct_idx)
        bits = np.asarray(self._correct_bits)
        mask = (idx >= lo) & (idx < hi)
        if not mask.any():
            return None
        return round(float(bits[mask].mean()), 4)

    def report(self):
        """JSON-able summary of the run (the CLI/CI artifact payload)."""
        n_scored = len(self._correct_bits)
        end = (self._correct_idx[-1] + 1) if self._correct_idx else 0
        drift_at = getattr(self.stream, "drift_at", None)
        detections = [d["sample_index"]
                      for d in self.report_events["detections"]]
        delay = None
        if drift_at is not None:
            post = [d for d in detections if d >= drift_at]
            if post:
                delay = post[0] - drift_at
        accuracy = {"overall": self._segment_accuracy(0, end)}
        if drift_at is not None:
            accuracy["pre_drift"] = self._segment_accuracy(0, drift_at)
            promoted_at = [p["sample_index"]
                           for p in self.report_events["promotions"]]
            recover_at = promoted_at[0] if promoted_at else end
            accuracy["post_drift_pre_promotion"] = self._segment_accuracy(
                drift_at, recover_at)
            if promoted_at:
                accuracy["post_promotion"] = self._segment_accuracy(
                    recover_at, end)
        return {
            "name": self.name,
            "warmup_samples": self._warmup_samples,
            "requests": self._requests,
            "served": self._served,
            "unresolved": self._unresolved,
            "scored": n_scored,
            "label_delay_batches": self.label_delay,
            "true_drift_at": drift_at,
            "detections": detections,
            "detection_delay": delay,
            "promotions": self.report_events["promotions"],
            "rejections": self.report_events["rejections"],
            "rollbacks": self.report_events["rollbacks"],
            "live_version": self.batcher.engine.version,
            "registry_versions": self.registry.versions(self.name),
            "accuracy": accuracy,
            "batcher": self.batcher.stats.to_dict(),
            "detector": self.detector.to_dict(),
        }


def run_stream(stream, machine_factory, **kwargs):
    """Convenience wrapper: build a session, run it, return the report.

    >>> from repro.streaming import run_stream  # doctest: +SKIP
    >>> report = run_stream(stream, factory, warmup=400)  # doctest: +SKIP
    >>> report["live_version"]  # doctest: +SKIP
    2
    """
    return StreamSession(stream, machine_factory, **kwargs).run()
