"""The benchmark's four workloads.

Each workload builds its inputs from the seed it is given, sets up
(``setup`` is repeated and timed by the harness), measures for a fixed
wall time and checks every output it measured.  Why each one exists is
recorded in BENCHMARK.json; what one operation is, in NOTES.md.

The closed loops scale the time of each unit of work by the host's
speed while it ran: ``flow-mnist`` and ``stream-drift``, whose work all
runs in this thread, by a fixed kernel that ``SpeedProbe`` runs every
50 ms; ``serve-bulk`` by the same kernel timed on both CPUs between
chunks (``CpuPairProbe``).  The hosts this benchmark runs on change
speed by up to 1.6x, for seconds to a minute at a time; kernel and
program slow together, so the scaled times of runs made in slow and
fast periods compare.  The unscaled figures are printed beside them.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from repro.data import load_dataset
from repro.flow.flow import FlowConfig, MatadorFlow
from repro.serving import (DifferentialChecker, Gateway, InferenceEngine,
                           ReplicaPool)
from repro.streaming import (DriftDetector, DriftStream, ReplayStream,
                             StreamSession, drift_transform)
from repro.tsetlin import TsetlinMachine

# ROADMAP item 1's baseline flow; the serving workloads serve its model.
FLOW = dict(dataset="mnist", clauses_per_class=40, epochs=4,
            verify_samples=64)
# Slots in a process replica's shared-memory ring (ProcessReplica's
# default).  A gateway that holds more requests than the ring can carry
# overflows into pickled pipe messages, and a burst of those deadlocks
# parent and worker in socket send (NOTES.md), so the serving workloads
# bound the gateway at the ring's capacity.
RING_SLOTS = 8


@dataclass
class Measurement:
    """What one measurement window produced.

    An operation is the unit whose latency is measured: one flow run,
    one request, or one stream pass.
    """

    latencies_s: list = field(default_factory=list)  # per operation
    scales: list = field(default_factory=list)  # per operation, or empty
    ok: list = field(default_factory=list)  # per operation: output correct
    items: int = 0          # flows, requests or stream samples completed
    elapsed_s: float = 0.0
    busy_s: float = 0.0     # time of the timed work (closed loops)
    busy_scaled_s: float = 0.0
    other_failures: int = 0  # failures not tied to one operation
    lag_p99_ms: float = 0.0  # open loop only: send time minus due time
    details: dict = field(default_factory=dict)  # name -> (value, unit)

    @property
    def attempted(self):
        return len(self.ok)

    @property
    def failed(self):
        return (self.attempted - int(np.count_nonzero(self.ok))
                + self.other_failures)

    def latencies(self, scaled=True):
        lat = np.asarray(self.latencies_s)
        return lat * np.asarray(self.scales) if scaled and self.scales \
            else lat

    def latency_ms(self, q, scaled=True):
        return float(np.percentile(self.latencies(scaled), q)) * 1e3

    def throughput(self, scaled=True):
        """Work items per second of timed work (of wall time if open)."""
        busy = self.busy_scaled_s if scaled else self.busy_s
        return self.items / (busy or self.elapsed_s)

    def attainment(self, limit_s):
        """Share of operations correct and within ``limit_s``."""
        within = self.latencies() <= limit_s
        return float(np.count_nonzero(within & np.asarray(self.ok))
                     / self.attempted)

    def add_work(self, seconds, scale):
        self.busy_s += seconds
        self.busy_scaled_s += seconds * scale


# The speed probe's kernel: interpreted Python and small boolean-matrix
# numpy calls, the mix the program runs.  It uses no code of the
# program, so a change to the program cannot speed it up, and its data
# fit in a core's private cache, so the program's use of the caches
# barely changes its time once it has run.
_PROBE_RNG = np.random.default_rng(0)
_PROBE_BITS = _PROBE_RNG.random((16, 350)) < 0.5
_PROBE_WEIGHTS = _PROBE_RNG.integers(-5, 5, (350, 48)).astype(np.int32)
# Seconds the kernel's second run took on the 2-CPU host the bounds were
# set on, in one of its fast periods.  It sets only the units of the
# scaled times.
PROBE_KERNEL_S = 0.5e-3


def _probe_kernel():
    total, seen = 0, {}
    for i in range(2500):
        total += i * i
        seen[i & 255] = total
    x = _PROBE_BITS & _PROBE_BITS[::-1]
    (x.astype(np.int32) @ _PROBE_WEIGHTS).argmax(axis=1)
    x.sum(axis=0)


class SpeedProbe:
    """Samples the host's speed while work runs in this thread.

    Inside ``with SpeedProbe() as probe``, a SIGALRM every
    ``PERIOD_S`` runs the kernel twice between two bytecodes of
    whatever this thread is doing and records the time of the second,
    cache-warm, run.  ``probe.timed(op)`` runs ``op()`` and returns its
    result, its wall time and its scale: the kernel's reference time
    over its mean time during the call (or the last sample before it,
    if none fell inside).  The kernel takes about 2% of the thread's
    time.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.times = []

    def _sample(self, *_):
        _probe_kernel()
        t0 = time.perf_counter()
        _probe_kernel()
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, op):
        first = len(self.times)
        t0 = time.perf_counter()
        result = op()
        latency = time.perf_counter() - t0
        inside = self.times[first:] or self.times[first - 1:first]
        return result, latency, PROBE_KERNEL_S / float(np.mean(inside))


class CpuPairProbe:
    """Speed of the two CPUs a process replica and its gateway run on.

    The engine runs in the replica worker, which a ``SpeedProbe`` in the
    gateway's process cannot see, and the two CPUs of the host slow
    independently as often as together.  Inside ``with CpuPairProbe()``
    this process runs on the first CPU it may use and every live
    ``multiprocessing`` child (the replica worker) on the last.
    ``scale()``, called while the worker is idle, times the kernel's
    second, cache-warm, run on each CPU in turn and returns the
    kernel's reference time over the mean of the samples taken now and
    at the previous call.
    """

    def __enter__(self):
        self._saved = os.sched_getaffinity(0)
        cpus = sorted(self._saved)
        self._cpus = (cpus[0], cpus[-1])
        for child in multiprocessing.active_children():
            os.sched_setaffinity(child.pid, {cpus[-1]})
        self._last = self._sample()
        return self

    def __exit__(self, *exc):
        os.sched_setaffinity(0, self._saved)

    def _sample(self):
        total = 0.0
        for cpu in reversed(self._cpus):
            os.sched_setaffinity(0, {cpu})
            _probe_kernel()
            t0 = time.perf_counter()
            _probe_kernel()
            total += time.perf_counter() - t0
        return total / len(self._cpus)

    def scale(self):
        before, self._last = self._last, self._sample()
        return 2.0 * PROBE_KERNEL_S / (before + self._last)


def closed_loop(seconds):
    """Yield until the window has run out; the last operation completes."""
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        yield


class FlowMnist:
    """Closed loop: one full ``MatadorFlow.run()`` per operation.

    A window runs a fixed number of flows, one per ``nominal_flow_s`` of
    the window, not as many as fit: the process's peak memory grows with
    each flow (166 MB after two, 176 MB after three), so a count that
    followed the host's speed would move ``peak_rss_mb``.
    """

    name = "flow-mnist"
    slo_s = 30.0
    nominal_flow_s = 5.0  # a flow on the 2-CPU host the bounds were set on

    def __init__(self, seed):
        self.seed = seed
        self.config = FlowConfig(**FLOW, data_seed=seed)

    def setup(self):
        # Each flow loads its own data, so set-up is the imports alone.
        # (A first flow in a fresh process measured no slower than later
        # ones, so there is nothing to warm.)
        return None

    def close(self, state):
        pass

    def measure(self, state, seconds, tracer=None):
        m = Measurement()
        start = time.monotonic()
        with SpeedProbe() as probe:
            for _ in range(max(1, round(seconds / self.nominal_flow_s))):
                result, latency, scale = probe.timed(
                    MatadorFlow(self.config).run)
                m.ok.append(result.verification is not None
                            and result.verification.passed)
                m.items += 1
                m.latencies_s.append(latency)
                m.scales.append(scale)
                m.add_work(latency, scale)
        m.elapsed_s = time.monotonic() - start
        m.details = {
            "flow_s": (m.latency_ms(50, scaled=False) / 1e3, "s"),
            "test_accuracy": (result.accuracy, "fraction"),
            "design_luts": (result.implementation.resources.luts, "count"),
            "accel_latency_cycles": (result.design.latency.latency_cycles,
                                     "cycles"),
        }
        return m


class _Serving:
    """Set-up shared by the serving workloads: the flow model, one replica."""

    max_batch = 64
    design = False

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        flow = MatadorFlow(FlowConfig(**FLOW, data_seed=self.seed))
        ds = flow.load_data()
        flow.train()
        design = flow.generate() if self.design else None
        engine = InferenceEngine.from_model(flow.result.model, version=1)
        pool = ReplicaPool(engine, n_replicas=1, mode="process",
                           max_batch=self.max_batch)
        state = {"ds": ds, "engine": engine, "pool": pool, "design": design,
                 "expected": engine.predict(ds.X_test)}
        self.warm(state)
        return state

    def close(self, state):
        state["pool"].close()

    def gateway(self, state, tracer, **kwargs):
        return Gateway(state["pool"], max_batch=self.max_batch,
                       max_queue=RING_SLOTS * self.max_batch, tracer=tracer,
                       **kwargs)

    @staticmethod
    def resolved(tickets):
        """Predictions (-1 if unresolved) and resolve times of tickets."""
        preds = np.array([t.prediction if t.done else -1 for t in tickets])
        resolved_at = np.array([t.submit_t + t.latency_s if t.done
                                else np.inf for t in tickets])
        return preds, resolved_at


class ServeBulk(_Serving):
    """Closed loop: ``submit_many`` of one chunk, then ``flush``."""

    name = "serve-bulk"
    chunk = 1024
    slo_s = 0.1

    def warm(self, state):
        self.measure(state, 0.5)

    def measure(self, state, seconds, tracer=None):
        X, y = state["ds"].X_test, state["ds"].y_test
        expected = state["expected"]
        gateway = self.gateway(state, tracer)
        rng = np.random.default_rng(self.seed)
        m = Measurement()
        right = 0

        start = time.monotonic()
        with CpuPairProbe() as probe:
            for _ in closed_loop(seconds):
                rows = rng.integers(0, len(X), self.chunk)
                t0 = time.perf_counter()
                tickets = gateway.submit_many(X[rows])
                gateway.flush()
                busy = time.perf_counter() - t0
                scale = probe.scale()
                m.add_work(busy, scale)
                preds, resolved_at = self.resolved(tickets)
                latency = resolved_at - np.array([t.submit_t
                                                  for t in tickets])
                ok = preds == expected[rows]
                m.ok.extend(ok.tolist())
                m.items += int(np.count_nonzero(ok))
                m.latencies_s.extend(latency.tolist())
                m.scales.extend([scale] * len(rows))
                right += int(np.count_nonzero(preds == y[rows]))
        m.elapsed_s = time.monotonic() - start
        m.details = {
            "serve_bulk_rps": (m.throughput(scaled=False), "1/s"),
            "served_accuracy": (right / m.attempted, "fraction"),
        }
        return m


class ServeOpen(_Serving):
    """Open loop: Poisson arrivals, differential checker on the gateway."""

    name = "serve-open"
    max_batch = 32
    design = True
    # Below the rate at which the checker saturates the parent (NOTES.md).
    rate = 100.0        # requests per second
    max_delay = 0.002
    slo_s = 0.050       # from the request's due time

    def warm(self, state):
        X, expected = state["ds"].X_test, state["expected"]
        checker = DifferentialChecker(state["design"],
                                      raise_on_mismatch=False)
        # The checker compiles one simulator per power-of-two batch
        # width on first use; compile them all before timing.
        width = 1
        while width <= self.max_batch:
            _, sums = state["engine"].predict_with_sums(X[:width])
            checker.check(X[:width], sums, expected[:width])
            width *= 2
        state["checker"] = checker
        self.measure(state, 0.5)

    def measure(self, state, seconds, tracer=None):
        X, y = state["ds"].X_test, state["ds"].y_test
        expected, checker = state["expected"], state["checker"]
        mismatched_before = len(checker.mismatches)
        gateway = self.gateway(state, tracer, max_delay=self.max_delay,
                               observers=[checker])
        rng = np.random.default_rng(self.seed)
        # A Poisson process with a given count in a window places its
        # arrivals uniformly at random; fixing the count keeps the offered
        # load identical from seed to seed.
        due = np.sort(rng.uniform(0.0, seconds, int(self.rate * seconds)))
        rows = rng.integers(0, len(X), len(due))
        tickets, lags = [], np.empty(len(due))
        # The gateway checks max_delay only when a request arrives; between
        # arrivals the loop dispatches a queue whose first request it has
        # held for max_delay, as a serving loop around poll() must.
        queued_since = None
        start = time.monotonic()
        for i, offset in enumerate(due):
            t_due = start + offset
            while True:
                now = time.monotonic()
                if now >= t_due:
                    break
                gateway.poll()
                if queued_since is not None \
                        and now - queued_since >= self.max_delay:
                    gateway.dispatch_queued()
                    queued_since = None
                left = t_due - time.monotonic()
                if left > 5e-4:
                    time.sleep(min(left - 2e-4, 5e-4))
            lags[i] = now - t_due
            tickets.append(gateway.submit(X[rows[i]]))
            queued_since = queued_since or now
        gateway.flush()
        elapsed = time.monotonic() - start
        preds, resolved_at = self.resolved(tickets)
        ok = preds == expected[rows]
        m = Measurement(
            latencies_s=(resolved_at - (start + due)).tolist(),
            ok=ok.tolist(), items=int(np.count_nonzero(ok)),
            elapsed_s=elapsed, lag_p99_ms=float(np.percentile(lags, 99)) * 1e3,
            other_failures=sum(len(rec["bad_lanes"]) for rec in
                               checker.mismatches[mismatched_before:]))
        m.details = {
            "serve_p50_ms": (m.latency_ms(50), "ms"),
            "serve_p99_ms": (m.latency_ms(99), "ms"),
            "serve_slo_attainment": (m.attainment(self.slo_s), "fraction"),
            "served_accuracy": (float(np.mean(preds == y[rows])), "fraction"),
        }
        return m


class StreamDrift:
    """Closed loop: one ``StreamSession`` pass over a drifting kws6 stream."""

    name = "stream-drift"
    samples = 4000
    drift_at = 1500
    slo_s = 10.0

    def __init__(self, seed):
        self.seed = seed

    def _session(self, ds, samples, drift=True):
        stream = ReplayStream(ds, batch_size=32, n_samples=samples,
                              seed=self.seed)
        if drift:
            stream = DriftStream(
                stream, drift_transform("labels", ds, seed=self.seed),
                drift_at=self.drift_at, seed=self.seed)

        def factory(seed):
            return TsetlinMachine(n_classes=ds.n_classes,
                                  n_features=ds.n_features, n_clauses=24,
                                  T=10, s=4.0, seed=seed,
                                  backend="vectorized")

        # A batcher size trigger above the stream chunk leaves every
        # chunk to the public Batcher.flush, which the trace times.
        return StreamSession(stream, factory, warmup=400, name="kws6",
                             detector=DriftDetector(window=400),
                             max_batch=64, label_delay=1, adapt_window=400,
                             eval_window=200, seed=self.seed)

    def setup(self):
        ds = load_dataset("kws6", n_train=500, n_test=100, seed=self.seed)
        self._session(ds, 600, drift=False).run()
        return {"ds": ds}

    def close(self, state):
        pass

    def measure(self, state, seconds, tracer=None):
        m = Measurement()
        start = time.monotonic()
        with SpeedProbe() as probe:
            for _ in closed_loop(seconds):
                session = self._session(state["ds"], self.samples)
                report, latency, scale = probe.timed(session.run)
                post = report["accuracy"].get("post_promotion")
                m.ok.append(report["unresolved"] == 0
                            and bool(report["promotions"])
                            and post is not None)
                m.items += self.samples
                m.latencies_s.append(latency)
                m.scales.append(scale)
                m.add_work(latency, scale)
        m.elapsed_s = time.monotonic() - start
        m.details = {
            "stream_samples_per_s": (m.throughput(scaled=False), "1/s"),
            "stream_post_promotion_accuracy": (post, "fraction"),
            "stream_detection_delay": (report["detection_delay"], "samples"),
        }
        return m


WORKLOADS = {w.name: w for w in (FlowMnist, ServeBulk, ServeOpen, StreamDrift)}
