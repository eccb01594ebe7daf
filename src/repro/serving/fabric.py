"""The serving front-end: micro-batch, route and observe over N replicas.

One mechanism serves every fleet size.  Request traffic fans across a
*pool of replicas* — each hosting its own engine snapshot, with the
per-replica micro-batching done by the gateway's queues — behind one
front-end:

``ReplicaPool``
    N replicas over one frozen registry snapshot.  ``mode="process"``
    starts one worker process per replica (the snapshot is packed once in
    the parent and shipped warm, so workers answer their first request at
    full speed); ``mode="inline"`` hosts the replicas in-process, which
    is deterministic and what the end-to-end tests drive.  Process
    replicas move every batch through a ring of preallocated
    shared-memory slots (input bits in, predictions and class sums out),
    so nothing is pickled per batch — only a few ints cross the pipe.

``Gateway``
    The front-end: a bounded per-replica queue with backpressure,
    size+deadline aware dispatch, deterministic request->replica routing
    (``key % n_replicas`` with linear probing past unhealthy replicas),
    failover re-dispatch of in-flight work when a worker dies, and
    per-replica plus aggregate latency/throughput metrics.  Observers
    (e.g. the :class:`~repro.serving.differential.DifferentialChecker`)
    run in the parent over every collected batch, so the differential
    guarantee survives the fan-out.

``Gateway.rolling_swap``
    The promotion primitive: drain and swap one replica at a time, health
    checking each before moving on, so a challenger rolls through the
    fleet with zero dropped requests; a failed roll swaps the already-
    promoted replicas back.  :class:`~repro.streaming.Promoter` drives
    it from the shadow-evaluation gate.

``Batcher``
    A one-replica, in-process ``Gateway`` built straight from an engine:
    the single-sample micro-batching front-end that streaming sessions
    and small deployments use.  Everything but the constructor is the
    gateway's.

Overload behaviour (the QoS layer, policies in
:mod:`repro.serving.fabric_qos`): an optional
:class:`~repro.serving.AdmissionController` rate-limits per tenant at
the door, ``overflow="shed"`` resolves over-queue requests immediately
as ``shed=True`` tickets instead of blocking, and an optional
:class:`~repro.serving.SLO` sheds requests whose predicted queue wait
already exceeds their deadline.  Request latency is tracked in
streaming histograms per replica and fleet-wide
(``Gateway.report()["fabric"]["latency"]``), and
:meth:`Gateway.add_replica` / :meth:`Gateway.remove_replica` let an
:class:`~repro.serving.Autoscaler` resize the fleet between flushes —
removal drains the tail replica first, so scale-down drops nothing.

Determinism: routing, dispatch points, and per-replica batch contents
are pure functions of the submit sequence (inline mode adds nothing
else), which is what lets the rolling-promotion e2e test assert exact
version transitions and a zero drop count.

Observability (:mod:`repro.obs`): the gateway counts requests, sheds,
failovers, batches, and latency into a :class:`~repro.obs.MetricsRegistry`
(the process default unless one is injected), and an optional
:class:`~repro.obs.Tracer` follows each request across the layers —
``gateway.request`` -> ``replica.dispatch`` -> ``engine.predict`` —
with the trace context propagated to worker processes beside each
slot-ring batch (the worker ships its finished engine span back beside
the result).  Worker
processes keep their own registry of engine-side counters, returned
with every ``ping`` and mergeable into the parent's registry via
:meth:`ReplicaPool.collect_metrics`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import uuid
from collections import deque
from multiprocessing import shared_memory

import numpy as np

from repro.obs import MetricsRegistry, get_registry
from repro.tsetlin.inference import check_features

from .fabric_qos import LatencyHistogram

__all__ = [
    "Backpressure",
    "Batcher",
    "FabricStats",
    "FabricTicket",
    "Gateway",
    "ReplicaError",
    "ReplicaPool",
]


def notify_observers(observers, X, class_sums, predictions, stats, errors):
    """Run every observer over one served batch, isolating failures.

    Observers are metrics/verification hooks riding on served traffic; a
    crashing hook must not take the serving path down with it.  Each
    failure is counted on ``stats.observer_errors`` and appended to
    ``errors`` as ``(observer_name, exception_repr)``.  An observer with
    a truthy ``propagate_errors`` attribute (the
    :class:`~repro.serving.differential.DifferentialChecker`) re-raises —
    but only after the remaining observers have seen the batch, so a
    divergence report never starves the hooks behind it.

    >>> import numpy as np
    >>> class Stats:
    ...     observer_errors = 0
    >>> def bad(X, sums, preds):
    ...     raise ValueError("boom")
    >>> seen = []
    >>> errors = []
    >>> notify_observers([bad, lambda X, s, p: seen.append(len(X))],
    ...                  np.zeros((3, 2)), None, None, Stats(), errors)
    >>> seen, len(errors)
    ([3], 1)
    """
    deferred = None
    for obs in observers:
        try:
            obs(X, class_sums, predictions)
        except Exception as exc:
            propagate = getattr(obs, "propagate_errors", False)
            if propagate and deferred is None:
                deferred = exc
            else:
                # Recorded: isolated observers always; a *second*
                # propagating failure too — only one exception can
                # surface, and a divergence must never vanish untraced.
                stats.observer_errors += 1
                name = getattr(obs, "__name__", type(obs).__name__)
                errors.append((name, repr(exc)))
                del errors[:-32]  # bound the error log
    if deferred is not None:
        raise deferred


class Backpressure(RuntimeError):
    """The gateway queue is full and ``overflow="error"`` was configured.

    >>> issubclass(Backpressure, RuntimeError)
    True
    """


class ReplicaError(RuntimeError):
    """A replica failed (dead worker, broken pipe, failed health check).

    >>> issubclass(ReplicaError, RuntimeError)
    True
    """


# ----------------------------------------------------------------------
# Transport: a ring of preallocated shared-memory slots
# ----------------------------------------------------------------------
# Slots per process replica: the most batches one replica holds in
# flight, and so the most messages its pipe carries in each direction.
RING_SLOTS = 8


def _slot_offsets(max_rows, n_features, n_classes):
    """Byte offsets ``(preds, sums, total)`` of one slot's layout."""
    pred_off = -(-(max_rows * n_features) // 8) * 8  # int64 block 8-aligned
    sums_off = pred_off + max_rows * 8
    return pred_off, sums_off, sums_off + max_rows * n_classes * 4


def _slot_views(buf, max_rows, n_features, n_classes):
    """``(X, preds, sums)`` ndarray views over one slot's buffer."""
    pred_off, sums_off, _ = _slot_offsets(max_rows, n_features, n_classes)
    X = np.frombuffer(buf, dtype=np.uint8,
                      count=max_rows * n_features).reshape(max_rows,
                                                           n_features)
    preds = np.frombuffer(buf, dtype=np.int64, count=max_rows,
                          offset=pred_off)
    sums = np.frombuffer(buf, dtype=np.int32, count=max_rows * n_classes,
                         offset=sums_off).reshape(max_rows, n_classes)
    return X, preds, sums


def _close_segments(segments):
    """Close (never unlink) shared-memory handles, ignoring failures."""
    for shm in segments:
        try:
            shm.close()
        except (OSError, BufferError):
            pass


class _ShmRing:
    """Ring of :data:`RING_SLOTS` shared-memory slots for one replica.

    Each slot is one POSIX shared-memory segment laid out as
    ``[X uint8 (max_rows, n_features) | preds int64 (max_rows) |
    sums int32 (max_rows, n_classes)]`` with the ``preds`` block starting
    at the next 8-byte boundary.  The parent writes a batch into a free
    slot and sends only ``("predict_shm", req_id, slot, n_rows, ctx)``
    down the pipe (``ctx`` is the trace context or ``None``); the worker
    computes over a view of the same pages and writes the results back
    in place — no request or response payload is ever pickled.

    The ring is parent-owned: the worker attaches by name (and drops the
    segments from its own resource tracker so only the parent unlinks),
    and :meth:`destroy` — reached from ``ProcessReplica.close`` even when
    the worker died mid-batch — unlinks every segment exactly once.
    """

    def __init__(self, key, max_rows, n_features, n_classes):
        self.max_rows = int(max_rows)
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        size = _slot_offsets(self.max_rows, self.n_features,
                             self.n_classes)[2]
        self._segments = []
        # Views are materialized lazily, on first use *after* the worker
        # fork: a forked child inheriting live ndarray exports over the
        # segments could never close its inherited SharedMemory copies
        # cleanly at exit.
        self._views = None
        try:
            for slot in range(RING_SLOTS):
                name = (f"tmfab-{os.getpid()}-{key}-{slot}-"
                        f"{uuid.uuid4().hex[:8]}")
                self._segments.append(shared_memory.SharedMemory(
                    name=name, create=True, size=size))
        except (OSError, ValueError):
            self.destroy()
            raise
        self._free = list(range(RING_SLOTS))

    def _slot(self, slot):
        if self._views is None:
            self._views = [
                _slot_views(shm.buf, self.max_rows, self.n_features,
                            self.n_classes)
                for shm in self._segments
            ]
        return self._views[slot]

    def spec(self):
        """Attach instructions shipped to the worker."""
        return {
            "names": [shm.name for shm in self._segments],
            "max_rows": self.max_rows,
            "n_features": self.n_features,
            "n_classes": self.n_classes,
        }

    def acquire(self):
        """A free slot index, or ``None`` when every slot is in flight."""
        return self._free.pop() if self._free else None

    def release(self, slot):
        self._free.append(slot)

    def write(self, slot, X):
        self._slot(slot)[0][: len(X)] = X

    def read_result(self, slot, n_rows):
        """Copy ``(preds, sums)`` out of a slot (before releasing it)."""
        _, preds, sums = self._slot(slot)
        return preds[:n_rows].copy(), sums[:n_rows].copy()

    def destroy(self):
        """Close and unlink every segment (idempotent, dead-worker safe)."""
        segments, self._segments = self._segments, []
        self._views = None        # drop the buffer exports before close()
        self._free = []
        _close_segments(segments)
        for shm in segments:
            try:
                shm.unlink()
            except OSError:       # already gone (FileNotFoundError et al.)
                pass


def _untrack(shm):
    """Drop a worker-attached segment from its resource tracker.

    The parent owns the ring's lifetime; on spawn-style start methods
    the worker has a tracker of its own that would unlink the segments
    a second time at process exit.  Under ``fork`` the worker *shares*
    the parent's tracker (registrations are idempotent set-adds there),
    so unregistering would instead erase the parent's entry — skip.
    """
    try:
        if multiprocessing.get_start_method(allow_none=True) == "fork":
            return
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def _attach_ring(spec):
    """Worker-side attach of a parent ring: ``(segments, views)``."""
    segments = []
    try:
        for name in spec["names"]:
            shm = shared_memory.SharedMemory(name=name)
            _untrack(shm)
            segments.append(shm)
    except (OSError, ValueError):
        _close_segments(segments)
        raise
    views = [_slot_views(shm.buf, spec["max_rows"], spec["n_features"],
                         spec["n_classes"]) for shm in segments]
    return segments, views


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _host_loop(conn, engine, ring_spec):
    """Replica worker body: one engine snapshot driven over a pipe.

    Each ``predict_shm`` message names a ring slot holding an already-
    assembled micro-batch (the gateway's per-replica queues do the
    coalescing), so the worker makes exactly one packed
    ``predict_with_sums`` call per message, reading the batch from the
    slot's pages and writing predictions and class sums back in place.
    Messages are handled strictly in order, which is what makes the
    rolling swap zero-drop: every batch sent before a ``swap`` is
    answered by the old snapshot before the swap is acknowledged.

    An ``("attach", spec)`` message swaps the worker onto a new ring and
    is acknowledged with ``("attached",)``.  Start-up is the same
    message: the loop begins by attaching ``ring_spec``, so the parent's
    first reply is that ack (or an ``error`` if attaching failed).

    Observability: every ``predict_shm`` message carries the parent's
    trace context (or ``None``); the worker times the engine call and
    ships a finished ``engine.predict`` span record back in the result
    tuple, so one ``trace_id`` covers the request across the process
    boundary.  The worker also keeps its own
    :class:`~repro.obs.MetricsRegistry` of engine-side counters and
    returns a snapshot with every ``pong`` — the parent merges those
    into its registry (cross-process snapshot merge).
    """
    segments, views = [], []
    pid = os.getpid()
    span_seq = 0
    metrics = MetricsRegistry()
    m_batches = metrics.counter("engine_batches_total")
    m_samples = metrics.counter("engine_samples_total")
    h_batch = metrics.histogram("engine_batch_seconds")

    def predict(req_id, slot, n_rows, ctx):
        # A function of its own, so the slot views it binds are released
        # on return and a later re-attach can close the old segments.
        nonlocal span_seq
        X, preds_out, sums_out = views[slot]
        t0 = time.perf_counter()
        preds, sums = engine.predict_with_sums(X[:n_rows])
        t1 = time.perf_counter()
        preds_out[:n_rows] = preds
        sums_out[:n_rows] = sums
        m_batches.inc()
        m_samples.inc(int(n_rows))
        h_batch.record(t1 - t0)
        span = None
        if ctx is not None:
            span_seq += 1
            span = {
                "name": "engine.predict",
                "trace_id": ctx["trace_id"],
                "span_id": f"w{pid}.{span_seq}",
                "parent_id": ctx["span_id"],
                "start_s": t0,
                "end_s": t1,
                "duration_s": max(0.0, t1 - t0),
                "status": "ok",
                "attrs": {"n_rows": int(n_rows), "transport": "shm",
                          "pid": pid, "version": engine.version},
            }
        return ("result_shm", req_id, slot, n_rows, engine.version, span)

    msg = ("attach", ring_spec)
    while True:
        kind = msg[0]
        try:
            if kind == "predict_shm":
                conn.send(predict(*msg[1:]))
            elif kind == "attach":
                views = []  # drop the old exports so close() can unmap
                _close_segments(segments)
                segments, views = _attach_ring(msg[1])
                conn.send(("attached",))
            elif kind == "swap":
                engine = msg[1]  # all prior predicts answered by the old one
                conn.send(("swapped", engine.version))
            elif kind == "ping":
                conn.send(("pong", {
                    "version": engine.version,
                    "batches": m_batches.value,
                    "samples": m_samples.value,
                    "metrics": metrics.snapshot(),
                }))
            elif kind == "stop":
                conn.send(("stopped", m_samples.value))
                break
            else:
                conn.send(("error", f"unknown message kind {kind!r}"))
        except Exception as exc:  # forwarded to the parent as ReplicaError
            try:
                conn.send(("error", repr(exc)))
            except (OSError, ValueError):
                break
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
    views = []  # release the buffer exports so close() can unmap
    _close_segments(segments)
    conn.close()


# ----------------------------------------------------------------------
# Parent-side replicas
# ----------------------------------------------------------------------
class _ReplicaBase:
    """Shared bookkeeping for one replica (any hosting mode)."""

    def __init__(self, index, engine):
        self.index = int(index)
        self.version = engine.version
        self.healthy = True
        self.n_samples = 0
        # Per-batch dispatch->result time; its count, total and max are
        # the replica's batch count, busy time and worst batch latency.
        self.latency = LatencyHistogram()
        self.tracer = None       # set by a Gateway constructed with one

    def _account(self, n_samples, latency_s):
        self.n_samples += n_samples
        self.latency.record(latency_s)

    def stats(self):
        """Per-replica counter snapshot (JSON-able)."""
        latency = self.latency
        quantiles = latency.summary()
        return {
            "kind": self.kind,
            "healthy": self.healthy,
            "version": self.version,
            "batches": latency.count,
            "samples": self.n_samples,
            "busy_s": round(latency.total, 4),
            "max_latency_ms": round(latency.max_value * 1e3, 3),
            "p50_ms": quantiles["p50_ms"],
            "p95_ms": quantiles["p95_ms"],
            "p99_ms": quantiles["p99_ms"],
        }

    def __repr__(self):
        state = "up" if self.healthy else "DOWN"
        return (f"{type(self).__name__}(#{self.index}, v{self.version}, "
                f"{state}, {self.n_samples} samples)")


class InlineReplica(_ReplicaBase):
    """In-process replica: its engine runs in the caller's thread.

    Deterministic (no processes, no wall-clock), so the e2e tests and
    doctests drive this mode; ``dispatch`` computes immediately and
    ``collect`` hands the buffered result back.
    """

    kind = "inline"

    def __init__(self, index, engine):
        super().__init__(index, engine)
        self.engine = engine
        self._results = deque()

    @property
    def outstanding(self):
        return len(self._results)

    def alive(self):
        return True

    def has_ready(self):
        """Whether :meth:`collect` would return without blocking."""
        return bool(self._results)

    def dispatch(self, req_id, X, trace_ctx=None):
        span = None
        if self.tracer is not None and trace_ctx is not None:
            span = self.tracer.start_span(
                "engine.predict", parent=trace_ctx, replica=self.index,
                transport="inline", n_rows=len(X))
        t0 = time.perf_counter()
        preds, sums = self.engine.predict_with_sums(X)
        latency = time.perf_counter() - t0
        self._account(len(X), latency)
        if span is not None:
            span.set_attrs(version=self.engine.version)
            span.end()
        self._results.append((req_id, preds, sums, self.engine.version))

    def collect(self):
        if not self._results:
            raise ReplicaError(f"replica {self.index}: nothing to collect")
        return self._results.popleft()

    def swap(self, engine):
        self.engine = engine
        self.version = engine.version

    def ping(self):
        return {"version": self.version, "batches": self.latency.count,
                "samples": self.n_samples}

    def close(self):
        pass


class ProcessReplica(_ReplicaBase):
    """Replica hosted by a worker process, driven over a duplex pipe.

    The engine snapshot is packed in the parent and pickled to the worker
    at start-up (a *warm* start: the first request is answered by the
    same packed kernels as the thousandth).  The pipe is FIFO and the
    worker single-threaded, so results come back in dispatch order and a
    ``swap`` sent after N batches is applied after exactly those N.

    Every batch travels through the replica's :class:`_ShmRing`, sized
    for ``max_rows``-row batches; only a few ints cross the pipe.  When
    every slot is in flight, :meth:`dispatch` first reads the oldest
    result out (it waits in the ready queue for :meth:`collect`), which
    frees its slot — so the pipe never holds more than
    :data:`RING_SLOTS` messages each way.  A batch larger than the slots,
    or a swap to a snapshot of another ``(n_features, n_classes)``,
    re-creates the ring at the new geometry.
    """

    kind = "process"

    def __init__(self, index, engine, max_rows=64):
        super().__init__(index, engine)
        self._ring = _ShmRing(index, max_rows, engine.n_features,
                              engine.n_classes)
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        self._conn = parent_conn
        try:
            self._proc = multiprocessing.Process(
                target=_host_loop,
                args=(child_conn, engine, self._ring.spec()),
                daemon=True, name=f"fabric-replica-{index}",
            )
            self._proc.start()
        except Exception:
            self._ring.destroy()
            raise
        child_conn.close()
        self._pending = deque()  # (req_id, t0, slot) at the worker
        self._ready = deque()    # (req_id, preds, sums, version) read back
        try:
            self._recv("attached")
        except ReplicaError:
            # A failed handshake must tear down the *whole* half-built
            # replica: worker process, parent pipe end, and ring.
            self._abort_init()
            raise

    def _abort_init(self):
        """Tear down a half-constructed replica: worker, pipe, and ring."""
        try:
            self._proc.terminate()
            self._proc.join(timeout=5.0)
            if self._proc.is_alive():  # pragma: no cover - stuck worker
                self._proc.kill()
                self._proc.join(timeout=5.0)
        finally:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover
                pass
            self._ring.destroy()

    @property
    def outstanding(self):
        return len(self._pending) + len(self._ready)

    def alive(self):
        return self._proc.is_alive()

    def has_ready(self):
        """Whether :meth:`collect` would return without blocking."""
        if self._ready:
            return True
        try:
            return self._conn.poll()
        except (OSError, ValueError):  # pragma: no cover - racing close
            return False

    def dispatch(self, req_id, X, trace_ctx=None):
        n_rows = len(X)
        if n_rows > self._ring.max_rows:
            self._recreate_ring(n_rows, self._ring.n_features,
                                self._ring.n_classes)
        slot = self._ring.acquire()
        if slot is None:  # every slot in flight: free the oldest
            self._read_oldest()
            slot = self._ring.acquire()
        self._ring.write(slot, X)
        self._send(("predict_shm", req_id, slot, n_rows, trace_ctx),
                   "dispatch")
        self._pending.append((req_id, time.perf_counter(), slot))

    def collect(self):
        if not self._ready:
            self._read_oldest()
        return self._ready.popleft()

    def _read_oldest(self):
        """Block for the oldest pending result; move it to the ready queue."""
        self._take(self._recv("result_shm"))

    def _take(self, msg):
        """Copy a result out of its slot, free the slot, queue the result."""
        _, req_id, slot, n_rows, version, span = msg
        sent_id, t0, sent_slot = self._pending.popleft()
        if (sent_id, sent_slot) != (req_id, slot):
            # The pipe is FIFO; this is a logic error.
            self.healthy = False
            raise ReplicaError(
                f"replica {self.index}: result {req_id} != dispatched {sent_id}"
            )
        preds, sums = self._ring.read_result(slot, n_rows)
        self._ring.release(slot)
        if span is not None and self.tracer is not None:
            self.tracer.ingest(span)
        self._account(n_rows, time.perf_counter() - t0)
        self._ready.append((req_id, preds, sums, version))

    def _recv(self, expected):
        """Receive the next message of ``expected`` kind.

        A control reply (``pong``/``stopped``) arrives after the results
        of every previously dispatched batch; those results are read
        into the ready queue for the next :meth:`collect`.
        """
        while True:
            try:
                msg = self._conn.recv()
            except (EOFError, OSError) as exc:
                self.healthy = False
                raise ReplicaError(
                    f"replica {self.index}: worker died ({exc!r})"
                ) from exc
            kind = msg[0]
            if kind == expected:
                return msg
            if kind == "result_shm":
                self._take(msg)
                continue
            if kind == "error":
                self.healthy = False
                raise ReplicaError(f"replica {self.index}: {msg[1]}")
            raise ReplicaError(
                f"replica {self.index}: expected {expected!r}, got {kind!r}"
            )

    def _send(self, msg, what):
        try:
            self._conn.send(msg)
        except (OSError, ValueError) as exc:
            self.healthy = False
            raise ReplicaError(
                f"replica {self.index}: {what} failed ({exc!r})"
            ) from exc

    def _recreate_ring(self, max_rows, n_features, n_classes):
        """Move the replica onto a new ring of the given geometry.

        Pending results are read out first (their slots belong to the
        old ring), then the worker attaches the new ring with the same
        ``attached`` ack start-up uses, and the old ring is unlinked.
        """
        while self._pending:
            self._read_oldest()
        old = self._ring
        try:
            self._ring = _ShmRing(self.index, max_rows, n_features,
                                  n_classes)
        except (OSError, ValueError) as exc:
            self.healthy = False
            raise ReplicaError(
                f"replica {self.index}: ring re-create failed ({exc!r})"
            ) from exc
        finally:
            old.destroy()
        self._send(("attach", self._ring.spec()), "ring attach")
        self._recv("attached")

    def swap(self, engine):
        if self.outstanding:
            raise ReplicaError(
                f"replica {self.index}: swap with {self.outstanding} "
                "uncollected batches; drain first"
            )
        self._send(("swap", engine), "swap")
        self.version = self._recv("swapped")[1]
        ring = self._ring
        if (engine.n_features, engine.n_classes) != (ring.n_features,
                                                     ring.n_classes):
            self._recreate_ring(ring.max_rows, engine.n_features,
                                engine.n_classes)

    def ping(self):
        if not self.alive():
            raise ReplicaError(f"replica {self.index}: worker not alive")
        self._send(("ping",), "ping")
        return self._recv("pong")[1]

    def close(self):
        try:
            try:
                self._conn.send(("stop",))
                self._recv("stopped")
            except (ReplicaError, OSError, ValueError):
                pass
            self._proc.join(timeout=5.0)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout=5.0)
            self._conn.close()
        finally:
            # The unlink must happen on every exit path — including a
            # worker killed mid-batch — or /dev/shm leaks a ring per
            # replica per run.
            self._ring.destroy()


# ----------------------------------------------------------------------
# Pool
# ----------------------------------------------------------------------
class ReplicaPool:
    """N replicas hosting one frozen engine snapshot.

    Parameters
    ----------
    engine:
        The :class:`~repro.serving.engine.InferenceEngine` snapshot every
        replica starts from (packed once, shipped warm to every worker).
    n_replicas:
        Fleet size.
    mode:
        ``"process"`` (default) hosts each replica in its own worker
        process — the throughput path; ``"inline"`` hosts them in-process
        — the deterministic path the tests drive.
    max_batch:
        Default dispatch size trigger for gateways fronting this pool
        (the gateway assembles per-replica micro-batches; each worker
        answers a batch with one packed engine call).  Process replicas
        also size their shared-memory slots for ``max_batch`` rows.

    The pool is a context manager; leaving the ``with`` block stops the
    workers and unlinks their shared-memory rings (even for workers
    that died mid-batch).

    >>> import numpy as np
    >>> from repro.model import TMModel
    >>> from repro.serving import InferenceEngine, ReplicaPool
    >>> include = np.zeros((2, 1, 4), dtype=bool)
    >>> include[0, 0, 0] = True; include[1, 0, 2] = True
    >>> model = TMModel(include=include, n_features=2, weights=[[1], [1]])
    >>> engine = InferenceEngine.from_model(model, version=1)
    >>> with ReplicaPool(engine, n_replicas=3, mode="inline") as pool:
    ...     len(pool), pool.versions()
    (3, [1, 1, 1])
    """

    def __init__(self, engine, n_replicas=2, mode="process", max_batch=64):
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if mode not in ("process", "inline"):
            raise ValueError(f"unknown replica mode {mode!r}")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.engine = engine
        self.mode = mode
        self.max_batch = int(max_batch)
        # Build incrementally so a replica that fails to construct (e.g.
        # worker spawn or shm handshake failure) does not abandon the
        # already-started workers and their /dev/shm rings.
        self.replicas = []
        try:
            for i in range(n_replicas):
                self.replicas.append(self._spawn(i, engine))
        except Exception:
            self.close()
            raise

    def _spawn(self, index, engine):
        """One replica of this pool's mode at ``index`` (not registered)."""
        if self.mode == "process":
            return ProcessReplica(index, engine, max_rows=self.max_batch)
        return InlineReplica(index, engine)

    def add_replica(self, engine=None):
        """Grow the pool by one replica (warm-started); returns its index.

        The new replica serves ``engine`` (default: the pool's current
        snapshot, so an autoscaled-up fleet comes up on the promoted
        version).  Prefer :meth:`Gateway.add_replica`, which also grows
        the gateway's routing structures.
        """
        index = len(self.replicas)
        self.replicas.append(self._spawn(index, engine or self.engine))
        return index

    def remove_replica(self):
        """Close and drop the tail replica; returns its index.

        Tail-only removal keeps replica indices dense (``0..n-1``), which
        the gateway's ``key % n`` routing relies on.  The caller must
        have drained the replica first (:meth:`Gateway.remove_replica`
        does); any still-queued work would be dropped here.
        """
        if len(self.replicas) <= 1:
            raise ValueError("cannot remove the last replica")
        replica = self.replicas.pop()
        try:
            replica.close()
        except ReplicaError:
            pass
        return replica.index

    @classmethod
    def from_registry(cls, registry, name, version=None, **kwargs):
        """Build a pool over a published registry snapshot.

        The replicas serve ``registry.engine(name, version)`` — the
        pinned/latest resolution rules of the
        :class:`~repro.serving.Registry` apply.
        """
        return cls(registry.engine(name, version), **kwargs)

    # ------------------------------------------------------------------
    def healthy(self):
        """The replicas currently routable (in index order)."""
        return [r for r in self.replicas if r.healthy]

    def versions(self):
        """Per-replica engine versions, index order."""
        return [r.version for r in self.replicas]

    def health_check(self):
        """Ping every replica; returns ``{index: report}`` and updates flags.

        A replica that fails its ping (dead worker, broken pipe) is
        marked unhealthy and reported with an ``"error"`` entry; the
        gateway stops routing to it from the next request on.
        """
        report = {}
        for replica in self.replicas:
            if not replica.healthy:
                report[replica.index] = {"healthy": False, "error": "down"}
                continue
            try:
                info = replica.ping()
            except ReplicaError as exc:
                replica.healthy = False
                report[replica.index] = {"healthy": False, "error": str(exc)}
            else:
                report[replica.index] = dict(info, healthy=True)
        return report

    def collect_metrics(self, registry=None):
        """Merge worker-process metric snapshots into ``registry``.

        Process replicas keep their own engine-side
        :class:`~repro.obs.MetricsRegistry`; each healthy one is pinged
        and its snapshot merged into ``registry`` (default: the process
        default registry).  Returns the number of snapshots merged —
        inline replicas run in this process and contribute zero.

        >>> import numpy as np
        >>> from repro.model import TMModel
        >>> from repro.serving import InferenceEngine, ReplicaPool
        >>> include = np.zeros((2, 1, 4), dtype=bool)
        >>> include[0, 0, 0] = True; include[1, 0, 2] = True
        >>> model = TMModel(include=include, n_features=2,
        ...                 weights=[[1], [1]])
        >>> engine = InferenceEngine.from_model(model, version=1)
        >>> with ReplicaPool(engine, n_replicas=2, mode="inline") as pool:
        ...     pool.collect_metrics()
        0
        """
        registry = registry if registry is not None else get_registry()
        merged = 0
        for replica in self.replicas:
            if not replica.healthy:
                continue
            try:
                info = replica.ping()
            except ReplicaError:
                continue
            snap = info.get("metrics") if isinstance(info, dict) else None
            if snap:
                registry.merge_snapshot(snap)
                merged += 1
        return merged

    def close(self):
        """Stop every worker (idempotent)."""
        for replica in self.replicas:
            try:
                replica.close()
            except ReplicaError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __len__(self):
        return len(self.replicas)

    def __repr__(self):
        up = len(self.healthy())
        return (f"ReplicaPool({len(self.replicas)} x {self.mode}, "
                f"{up} healthy, v{self.engine.version})")


# ----------------------------------------------------------------------
# Gateway
# ----------------------------------------------------------------------
class FabricTicket:
    """Handle for one request submitted to a :class:`Gateway`.

    Resolves with the prediction, the class sums, and *which replica at
    which engine version* served it — the provenance the rolling-
    promotion test asserts on.

    A request refused by the QoS layer (admission, quota, full queue
    under ``overflow="shed"``, or an unmeetable deadline) resolves
    immediately with ``shed=True``, ``shed_reason`` set, and
    ``prediction=None`` — shedding is an answer, not an exception.

    >>> import numpy as np
    >>> from repro.model import TMModel
    >>> from repro.serving import Gateway, InferenceEngine, ReplicaPool
    >>> include = np.zeros((2, 1, 4), dtype=bool)
    >>> include[0, 0, 0] = True; include[1, 0, 2] = True
    >>> model = TMModel(include=include, n_features=2, weights=[[1], [1]])
    >>> pool = ReplicaPool(InferenceEngine.from_model(model, version=1),
    ...                    n_replicas=2, mode="inline")
    >>> gateway = Gateway(pool, max_batch=4)
    >>> ticket = gateway.submit([1, 0])
    >>> ticket.result(), ticket.replica, ticket.version
    (0, 0, 1)
    >>> ticket.shed, ticket.latency_s is not None
    (False, True)
    """

    __slots__ = ("_gateway", "done", "prediction", "class_sums", "replica",
                 "version", "tenant", "submit_t", "latency_s", "shed",
                 "shed_reason", "span")

    def __init__(self, gateway, tenant=None):
        self._gateway = gateway
        self.done = False
        self.prediction = None
        self.class_sums = None
        self.replica = None
        self.version = None
        self.tenant = tenant
        self.submit_t = None
        self.latency_s = None
        self.shed = False
        self.shed_reason = None
        self.span = None    # open gateway.request span when tracing

    def result(self):
        """The predicted class; forces a fabric flush if still pending.

        ``None`` for a shed ticket (check :attr:`shed` to distinguish a
        refusal from a prediction of class ``None`` — there is none).
        """
        if not self.done:
            self._gateway.flush()
        return self.prediction


class FabricStats:
    """Aggregate counters for one gateway.

    ``n_requests`` counts *accepted* requests; ``shed`` (broken down by
    reason in ``shed_by_reason``) counts requests the QoS layer refused,
    and ``latency`` holds the fleet-wide submit->resolve histogram.

    >>> stats = FabricStats()
    >>> stats.n_requests, stats.failovers, stats.shed
    (0, 0, 0)
    >>> sorted(stats.to_dict())[:4]
    ['batches', 'failovers', 'latency', 'observer_errors']
    """

    def __init__(self):
        self.n_requests = 0
        self.n_batches = 0
        self.n_samples = 0
        self.failovers = 0        # requests routed past an unhealthy replica
        self.rerouted_batches = 0  # in-flight batches re-dispatched on death
        self.observer_errors = 0
        self.shed = 0             # requests refused by the QoS layer
        self.shed_by_reason = {}  # reason -> count
        self.latency = LatencyHistogram()  # request submit->resolve

    def to_dict(self):
        return {
            "requests": self.n_requests,
            "batches": self.n_batches,
            "samples": self.n_samples,
            "failovers": self.failovers,
            "rerouted_batches": self.rerouted_batches,
            "observer_errors": self.observer_errors,
            "shed": self.shed,
            "shed_by_reason": dict(self.shed_by_reason),
            "latency": self.latency.summary(),
        }


class _Inflight:
    """One dispatched batch awaiting its result."""

    __slots__ = ("X", "tickets", "replica_index", "seq", "span")

    def __init__(self, X, tickets, replica_index, seq, span=None):
        self.X = X
        self.tickets = tickets
        self.replica_index = replica_index
        self.seq = seq
        self.span = span    # open replica.dispatch span when tracing


class Gateway:
    """Fabric front-end: route, queue, dispatch, collect, observe.

    Parameters
    ----------
    pool:
        The :class:`ReplicaPool` to serve through.
    max_batch:
        Per-replica dispatch size trigger (defaults to the pool's).
    max_queue:
        Bound on requests in the fabric at once (queued + in flight).
        Submitting past it applies the ``overflow`` policy.
    overflow:
        ``"wait"`` (default): collect finished work until there is room —
        natural backpressure, nothing is ever dropped.  ``"error"``:
        raise :class:`Backpressure` immediately (caller sheds load).
        ``"shed"``: resolve the overflow request immediately as a
        ``shed=True`` ticket (``shed_reason="queue"``) — the fabric
        sheds load so callers never block.
    max_delay:
        Optional deadline in seconds for the oldest queued request per
        replica, checked on every submit (``None`` — the default — keeps
        dispatch points deterministic).
    clock:
        Monotonic time source, injectable for deadline tests.
    admission:
        Optional :class:`~repro.serving.AdmissionController` consulted
        first on every submit; a refusal (per-tenant rate or quota)
        sheds the request at the door.
    slo:
        Optional :class:`~repro.serving.SLO`.  When the request's
        deadline is provably unmeetable — predicted queue wait plus one
        batch's service time exceeds it — the request is shed
        (``shed_reason="deadline"``) instead of queued to time out.
        Request submit->resolve latency is recorded fleet-wide either
        way (``report()["fabric"]["latency"]``).
    observers:
        ``obs(X, class_sums, predictions)`` hooks run in the parent over
        every *collected* batch.  A crashing observer is recorded
        (``stats.observer_errors``) instead of dropping the batch; one
        that sets ``propagate_errors = True`` re-raises after every
        ticket of the batch has resolved (see :func:`notify_observers`).
    metrics:
        The :class:`~repro.obs.MetricsRegistry` the gateway counts into
        (requests, sheds, failovers, batch sizes, per-replica queue
        depth, request latency).  Defaults to the process registry
        (:func:`repro.obs.get_registry`); inject one for isolation.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  When set, every accepted
        request opens a ``gateway.request`` span, each dispatched batch
        a ``replica.dispatch`` child, and the engine call an
        ``engine.predict`` grandchild — across the process boundary
        too.  ``None`` (default) disables tracing with zero
        per-request overhead.

    >>> import numpy as np
    >>> from repro.model import TMModel
    >>> from repro.serving import Gateway, InferenceEngine, ReplicaPool
    >>> include = np.zeros((2, 1, 4), dtype=bool)
    >>> include[0, 0, 0] = True; include[1, 0, 2] = True
    >>> model = TMModel(include=include, n_features=2, weights=[[1], [1]])
    >>> pool = ReplicaPool(InferenceEngine.from_model(model, version=1),
    ...                    n_replicas=2, mode="inline")
    >>> gateway = Gateway(pool, max_batch=2)
    >>> tickets = [gateway.submit(x) for x in ([1, 0], [0, 1], [1, 0])]
    >>> _ = gateway.flush()
    >>> [t.result() for t in tickets]
    [0, 1, 0]
    >>> sorted({t.replica for t in tickets})    # round-robin over 2 replicas
    [0, 1]
    """

    def __init__(self, pool, max_batch=None, max_queue=4096, overflow="wait",
                 max_delay=None, clock=time.monotonic, admission=None,
                 slo=None, observers=(), metrics=None, tracer=None):
        if overflow not in ("wait", "error", "shed"):
            raise ValueError(f"unknown overflow policy {overflow!r}")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_delay is not None and max_delay < 0:
            raise ValueError("max_delay must be >= 0 (or None)")
        self.pool = pool
        self.metrics = metrics if metrics is not None else get_registry()
        self.tracer = tracer
        if tracer is not None:
            for replica in pool.replicas:
                replica.tracer = tracer
        self.max_batch = int(max_batch if max_batch is not None
                             else pool.max_batch)
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_queue = int(max_queue)
        self.overflow = overflow
        self.max_delay = max_delay
        self._clock = clock
        self.admission = admission
        self.slo = slo
        self.observers = list(observers)
        self.observer_errors = []
        self.stats = FabricStats()
        n = len(pool.replicas)
        self._queues = [[] for _ in range(n)]   # (x, ticket) per replica
        self._queue_oldest = [None] * n         # clock() of oldest queued
        self._inflight = {}                     # req_id -> _Inflight
        self._order = [deque() for _ in range(n)]  # req_ids per replica, FIFO
        self._next_req = 0
        self._seq = 0
        self._pending_count = 0
        # Instrument handles are resolved once (and cached per label set
        # below) so the submit hot path never rebuilds a registry key.
        m = self.metrics
        self._m_pending = m.gauge("fabric_pending_requests")
        self._m_latency = m.histogram("fabric_request_latency_seconds")
        self._m_batch_size = m.histogram("fabric_batch_size", min_value=1.0)
        self._m_batches = m.counter("fabric_batches_total")
        self._m_failovers = m.counter("fabric_failovers_total")
        self._m_rerouted = m.counter("fabric_rerouted_batches_total")
        self._m_requests = {}   # (tenant, klass) -> Counter
        self._m_sheds = {}      # (reason, tenant) -> Counter
        self._m_depth = {}      # replica index -> Gauge

    def _request_counter(self, tenant, klass):
        key = (tenant, klass)
        counter = self._m_requests.get(key)
        if counter is None:
            counter = self.metrics.counter(
                "fabric_requests_total",
                tenant=tenant if tenant is not None else "-",
                klass=klass if klass is not None else "-")
            self._m_requests[key] = counter
        return counter

    def _shed_counter(self, reason, tenant):
        key = (reason, tenant)
        counter = self._m_sheds.get(key)
        if counter is None:
            counter = self.metrics.counter(
                "fabric_shed_total", reason=reason,
                tenant=tenant if tenant is not None else "-")
            self._m_sheds[key] = counter
        return counter

    def _depth_gauge(self, idx):
        gauge = self._m_depth.get(idx)
        if gauge is None:
            gauge = self.metrics.gauge("fabric_replica_queue_depth",
                                       replica=idx)
            self._m_depth[idx] = gauge
        return gauge

    # ------------------------------------------------------------------
    @property
    def pending(self):
        """Requests inside the fabric (queued + in flight).

        Maintained as a counter (+1 on submit, -len(batch) on resolve):
        this is read on every submit's backpressure check, the parent's
        hot path.
        """
        return self._pending_count

    def add_observer(self, observer):
        self.observers.append(observer)

    # ------------------------------------------------------------------
    def submit(self, x, key=None, tenant=None, klass=None):
        """Queue one sample; returns a :class:`FabricTicket`.

        ``key`` picks the home replica deterministically
        (``key % n_replicas``, probing past unhealthy replicas); without
        one, requests round-robin in submit order.  ``tenant`` scopes
        admission control and quotas; ``klass`` selects the SLO deadline
        class.  A request the QoS layer refuses comes back as an
        already-resolved ``shed=True`` ticket.
        """
        if np.ndim(x) != 1:
            raise ValueError("submit() takes a single sample; use "
                             "submit_many() for batches")
        x = check_features(x, self.pool.engine.n_features)[0]
        return self._submit_checked(x, key, tenant, klass)

    def submit_many(self, X, keys=None, tenants=None, klass=None):
        """Queue a whole array of samples; returns the tickets.

        The bulk path of :meth:`submit`: one width and 0/1 value check
        for the array, then per-row routing identical to submitting each
        row in order.
        """
        if np.ndim(X) != 2:
            raise ValueError(
                f"expected (n, {self.pool.engine.n_features}) samples, "
                f"got {np.shape(X)}"
            )
        X = check_features(X, self.pool.engine.n_features)
        if keys is not None and len(keys) != len(X):
            raise ValueError("keys must match X row for row")
        if tenants is not None and len(tenants) != len(X):
            raise ValueError("tenants must match X row for row")
        return [
            self._submit_checked(
                x,
                keys[i] if keys is not None else None,
                tenants[i] if tenants is not None else None,
                klass,
            )
            for i, x in enumerate(X)
        ]

    def _shed(self, reason, tenant):
        """Resolve a refused request immediately (shedding is an answer)."""
        self.stats.shed += 1
        self.stats.shed_by_reason[reason] = (
            self.stats.shed_by_reason.get(reason, 0) + 1)
        self._shed_counter(reason, tenant).inc()
        if self.tracer is not None:
            span = self.tracer.start_span("gateway.request", tenant=tenant,
                                          shed_reason=reason)
            span.end(status="shed")
        ticket = FabricTicket(self, tenant=tenant)
        ticket.done = True
        ticket.shed = True
        ticket.shed_reason = reason
        return ticket

    def _predicted_wait(self, idx):
        """Predicted completion time (s) at replica ``idx``, or ``None``.

        The routed replica's backlog (queued + in-flight samples) over
        its service rate, plus the request's own batch — sized by the
        queue's current occupancy — plus the dispatch-deadline slack.
        Per replica, so a hot-key-skewed queue sheds on *its* depth, not
        the fleet average.  The rate comes from ``slo.service_rate``
        (samples/s per replica) or, when unset, the replicas' own
        served-samples/busy-time history; ``None`` (never shed) until
        there is evidence to predict from.
        """
        rate = self.slo.service_rate
        if rate is None:
            busy = sum(r.latency.total for r in self.pool.replicas)
            served = sum(r.n_samples for r in self.pool.replicas)
            if busy <= 0.0 or served < self.max_batch:
                return None
            rate = served / busy
        queued = len(self._queues[idx])
        inflight = sum(len(self._inflight[req_id].tickets)
                       for req_id in self._order[idx])
        own_batch = min(self.max_batch, queued + 1)
        return ((queued + inflight + own_batch) / rate
                + (self.max_delay or 0.0))

    def _submit_checked(self, x, key, tenant=None, klass=None):
        now = self._clock()
        if self.admission is not None:
            reason = self.admission.admit(tenant, now)
            if reason is not None:
                return self._shed(reason, tenant)
        if self.overflow == "shed" and self.pending >= self.max_queue:
            return self._shed("queue", tenant)
        while self.pending >= self.max_queue:
            if self.overflow == "error":
                raise Backpressure(
                    f"fabric holds {self.pending} >= max_queue="
                    f"{self.max_queue} requests"
                )
            self._make_room()
        if key is None:
            key = self._next_req
        self._next_req += 1
        idx = self._route(int(key))
        if self.slo is not None:
            deadline = self.slo.deadline_for(klass)
            if deadline is not None:
                wait = self._predicted_wait(idx)
                if wait is not None and wait > deadline:
                    return self._shed("deadline", tenant)
        if self.max_delay is not None:
            # Every queue's deadline is honored on every submit — sticky
            # routing must not leave another replica's sub-max_batch
            # tail waiting unboundedly.
            for qidx, oldest in enumerate(self._queue_oldest):
                if oldest is not None and now - oldest >= self.max_delay:
                    self._dispatch_queue(qidx)
        ticket = FabricTicket(self, tenant=tenant)
        ticket.submit_t = now
        if self.tracer is not None:
            ticket.span = self.tracer.start_span(
                "gateway.request", tenant=tenant, klass=klass)
        self._queues[idx].append((x, ticket))
        self._pending_count += 1
        if self._queue_oldest[idx] is None:
            self._queue_oldest[idx] = now
        self.stats.n_requests += 1
        self._request_counter(tenant, klass).inc()
        self._m_pending.set(self._pending_count)
        self._depth_gauge(idx).set(len(self._queues[idx]))
        if len(self._queues[idx]) >= self.max_batch:
            self._dispatch_queue(idx)
        return ticket

    def _make_room(self):
        """Free queue space without dropping anything (overflow="wait")."""
        if self._inflight:
            self._collect_oldest()
            return
        # Nothing in flight: push the longest queue out as a batch.
        idx = max(range(len(self._queues)), key=lambda i: len(self._queues[i]))
        if not self._queues[idx]:
            raise Backpressure(
                f"max_queue={self.max_queue} is smaller than one request"
            )
        self._dispatch_queue(idx)

    # ------------------------------------------------------------------
    def _route(self, key):
        replicas = self.pool.replicas
        n = len(replicas)
        home = key % n
        for off in range(n):
            replica = replicas[(home + off) % n]
            if replica.healthy:
                if off:
                    self.stats.failovers += 1
                    self._m_failovers.inc()
                return replica.index
        raise ReplicaError("no healthy replicas in the pool")

    def _dispatch_queue(self, idx):
        queue = self._queues[idx]
        if not queue:
            return
        self._queues[idx] = []
        self._queue_oldest[idx] = None
        self._depth_gauge(idx).set(0)
        X = np.stack([x for x, _ in queue])
        tickets = [t for _, t in queue]
        self._dispatch_batch(X, tickets, preferred=idx)

    def _dispatch_batch(self, X, tickets, preferred):
        replicas = self.pool.replicas
        n = len(replicas)
        for off in range(n):
            replica = replicas[(preferred + off) % n]
            if not replica.healthy:
                continue
            req_id = self._seq + 1
            span = None
            if self.tracer is not None:
                span = self.tracer.start_span(
                    "replica.dispatch", parent=tickets[0].span,
                    replica=replica.index, n_rows=len(tickets),
                    transport=replica.kind)
            try:
                replica.dispatch(req_id, X,
                                 span.context() if span is not None else None)
            except ReplicaError:
                if span is not None:
                    span.set_attrs(error="dispatch failed")
                    span.end(status="error")
                continue  # replica marked itself unhealthy; probe on
            if off:
                # Dispatch-time failover (the routed replica died after
                # submit): counted in request units, same as _route.
                self.stats.failovers += len(tickets)
                self._m_failovers.inc(len(tickets))
            self._seq = req_id
            self._inflight[req_id] = _Inflight(X, tickets, replica.index,
                                               req_id, span)
            self._order[replica.index].append(req_id)
            self._m_batch_size.record(len(tickets))
            return
        raise ReplicaError(
            f"no healthy replica available for a batch of {len(tickets)}"
        )

    # ------------------------------------------------------------------
    def _collect_from(self, replica):
        """Collect one result from ``replica``; failover on death."""
        order = self._order[replica.index]
        if not order:
            return 0
        try:
            req_id, preds, sums, version = replica.collect()
        except ReplicaError:
            self._reroute_replica(replica)
            return 0
        order.popleft()
        entry = self._inflight.pop(req_id)
        self._resolve(entry, preds, sums, replica.index, version)
        return len(entry.tickets)

    def _resolve(self, entry, preds, sums, replica_index, version):
        now = self._clock()
        if entry.span is not None:
            entry.span.set_attrs(version=version)
            entry.span.end()
        for i, ticket in enumerate(entry.tickets):
            ticket.done = True
            ticket.prediction = int(preds[i])
            ticket.class_sums = sums[i]
            ticket.replica = replica_index
            ticket.version = version
            if ticket.submit_t is not None:
                ticket.latency_s = max(0.0, now - ticket.submit_t)
                self.stats.latency.record(ticket.latency_s)
                self._m_latency.record(ticket.latency_s)
            if ticket.span is not None:
                ticket.span.set_attrs(replica=replica_index, version=version)
                ticket.span.end()
        self.stats.n_batches += 1
        self.stats.n_samples += len(entry.tickets)
        self._pending_count -= len(entry.tickets)
        self._m_batches.inc()
        self._m_pending.set(self._pending_count)
        notify_observers(self.observers, entry.X, sums, preds,
                         self.stats, self.observer_errors)

    def _reroute_replica(self, replica):
        """Re-dispatch every in-flight batch of a dead replica (zero drop)."""
        order = self._order[replica.index]
        entries = [self._inflight.pop(req_id) for req_id in order]
        order.clear()
        for entry in entries:
            self.stats.rerouted_batches += 1
            self._m_rerouted.inc()
            if entry.span is not None:
                # The dispatch to the dead replica still closes — with
                # an error status — before the re-dispatch opens a new
                # span on the failover target.
                entry.span.set_attrs(error=f"replica {replica.index} died")
                entry.span.end(status="error")
            self._dispatch_batch(entry.X, entry.tickets,
                                 preferred=replica.index + 1)

    def _collect_oldest(self):
        """Collect from the replica holding the oldest in-flight batch."""
        oldest = min(self._inflight.values(), key=lambda e: e.seq)
        self._collect_from(self.pool.replicas[oldest.replica_index])

    # ------------------------------------------------------------------
    def flush(self):
        """Dispatch everything queued and collect everything in flight.

        Returns the number of samples served by this call.  Every ticket
        accepted before the call is ``done`` afterwards (or a
        :class:`ReplicaError` is raised because the whole fleet is down —
        requests are never silently dropped).
        """
        served = 0
        for idx in range(len(self._queues)):
            self._dispatch_queue(idx)
        # A collect can reroute a dead replica's batches onto a replica
        # already visited this pass, so loop passes until nothing is in
        # flight.  Termination: each pass strictly drains every order
        # deque (collect pops one, a death clears the whole deque via
        # reroute), a replica can die at most once, and a reroute with
        # no healthy replica left raises instead of requeueing.
        while self._inflight:
            for replica in self.pool.replicas:
                while self._order[replica.index]:
                    served += self._collect_from(replica)
        return served

    def flush_replica(self, index):
        """Drain one replica: dispatch its queue, collect its in-flight work."""
        self._dispatch_queue(index)
        replica = self.pool.replicas[index]
        served = 0
        while self._order[index]:
            served += self._collect_from(replica)
        return served

    def dispatch_queued(self):
        """Dispatch every per-replica queue now, without collecting.

        The open-loop path (traffic simulator, autoscaler drains) uses
        this with :meth:`poll` instead of the blocking :meth:`flush`.
        """
        for idx in range(len(self._queues)):
            self._dispatch_queue(idx)

    def poll(self):
        """Collect every result that is ready *now*, without blocking.

        Returns the number of samples resolved.  Unlike :meth:`flush`
        this never waits on a replica, so an open-loop caller (the
        traffic simulator, a serving loop between arrivals) can drain
        completed work while requests are still streaming in.
        """
        served = 0
        for replica in list(self.pool.replicas):
            while self._order[replica.index] and replica.has_ready():
                served += self._collect_from(replica)
        return served

    # ------------------------------------------------------------------
    def add_replica(self):
        """Grow the fleet by one warm replica; returns its index.

        The replica comes up on the pool's *current* engine (so scaling
        up after a promotion serves the promoted version) and is
        immediately routable — the gateway's queue/order structures grow
        with the pool.
        """
        index = self.pool.add_replica()
        if self.tracer is not None:
            self.pool.replicas[index].tracer = self.tracer
        self._queues.append([])
        self._queue_oldest.append(None)
        self._order.append(deque())
        return index

    def remove_replica(self):
        """Drain and drop the tail replica; returns the served count.

        The replica's queued and in-flight work is flushed *before* the
        removal (its tickets resolve normally), so scale-down drops zero
        requests.
        """
        index = len(self.pool.replicas) - 1
        if index < 1:
            raise ValueError("cannot remove the last replica")
        served = self.flush_replica(index)
        self.pool.remove_replica()
        del self._queues[index]
        del self._queue_oldest[index]
        del self._order[index]
        return served

    # ------------------------------------------------------------------
    def rolling_swap(self, engine):
        """Promote the fleet to ``engine`` one replica at a time.

        Per replica: drain its queued and in-flight work (those tickets
        resolve on the old snapshot), swap, then health-check the replica
        before moving on — zero requests dropped, at most one replica in
        transition at any instant.  If a replica fails mid-roll it is
        marked unhealthy, the already-promoted replicas are swapped back,
        and :class:`ReplicaError` is raised: the fleet is never left
        serving two versions.

        Returns the per-replica roll events (the promotion audit trail).
        """
        old_engine = self.pool.engine
        rolled = []
        events = []
        # Snapshot: the fleet may have been autoscaled since the last
        # promotion — the roll covers exactly the replicas present now.
        for replica in list(self.pool.replicas):
            if not replica.healthy:
                events.append({"replica": replica.index, "skipped": "down"})
                continue
            # The drain is inside the guarded region: even an exception
            # surfacing from it (a propagating observer such as a
            # differential mismatch, not just a replica death) must
            # restore the already-promoted replicas — the fleet is never
            # left serving two versions.
            try:
                self.flush_replica(replica.index)
                replica.swap(engine)
                health = replica.ping()
                if health.get("version") != engine.version:
                    raise ReplicaError(
                        f"replica {replica.index} reports "
                        f"v{health.get('version')} after swap to "
                        f"v{engine.version}"
                    )
            except Exception as exc:
                if isinstance(exc, ReplicaError):
                    replica.healthy = False
                self._restore(rolled, old_engine)
                if isinstance(exc, ReplicaError):
                    raise ReplicaError(
                        f"rolling promotion aborted at replica "
                        f"{replica.index}; fleet restored to "
                        f"v{old_engine.version} ({exc})"
                    ) from exc
                raise  # e.g. DifferentialMismatch from the drain
            rolled.append(replica)
            events.append({"replica": replica.index,
                           "version": engine.version})
        self.pool.engine = engine
        return events

    def _restore(self, rolled, old_engine):
        """Best-effort swap-back of already-promoted replicas on abort."""
        for back in rolled:
            try:
                self.flush_replica(back.index)
                back.swap(old_engine)
            except Exception:
                # The abort is already propagating; a replica that cannot
                # be restored is quarantined rather than left routable on
                # the abandoned version.
                back.healthy = False

    # ------------------------------------------------------------------
    def health_check(self):
        """Drain in-flight work, then ping the fleet (delegates to the pool)."""
        while self._inflight:
            self._collect_oldest()
        return self.pool.health_check()

    def report(self):
        """JSON-able gateway + per-replica metrics snapshot."""
        report = {
            "replicas": len(self.pool.replicas),
            "healthy": len(self.pool.healthy()),
            "mode": self.pool.mode,
            "version": self.pool.engine.version,
            "max_batch": self.max_batch,
            "max_queue": self.max_queue,
            "overflow": self.overflow,
            "pending": self.pending,
            "fabric": self.stats.to_dict(),
            "per_replica": {r.index: r.stats() for r in self.pool.replicas},
        }
        if self.admission is not None:
            report["tenants"] = self.admission.report()
        return report

    # ------------------------------------------------------------------
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.flush()
            return False
        # An exception is already propagating out of the body: a flush
        # failure here (e.g. the fleet died, ReplicaError) must not mask
        # it — drain best-effort instead.
        try:
            self.flush()
        except Exception:
            pass
        return False


class Batcher(Gateway):
    """A one-replica, in-process :class:`Gateway` built from an engine.

    The single-engine micro-batching front-end: requests coalesce into
    packed batches on ``max_batch`` (size trigger) or on the oldest
    request waiting ``max_delay`` seconds (deadline trigger, checked on
    every submit; ``None`` disables it).  A triggered batch is
    dispatched inside :meth:`submit`; its tickets resolve and its
    observers run at the next :meth:`flush`, :meth:`poll` or
    :meth:`FabricTicket.result` — the gateway contract.  Queueing,
    tickets, stats, observers, the drain-on-exit context manager and
    :meth:`rolling_swap` (how a :class:`~repro.streaming.Promoter`
    hot-swaps the engine) all come from :class:`Gateway`.

    >>> import numpy as np
    >>> from repro.model import TMModel
    >>> from repro.serving import Batcher, InferenceEngine
    >>> include = np.zeros((2, 1, 4), dtype=bool)
    >>> include[0, 0, 0] = True                  # class-0 clause: x0
    >>> include[1, 0, 2] = True                  # class-1 clause: NOT x0
    >>> model = TMModel(include=include, n_features=2, weights=[[1], [1]])
    >>> batcher = Batcher(InferenceEngine.from_model(model), max_batch=2,
    ...                   max_delay=None)
    >>> first = batcher.submit([1, 0])
    >>> second = batcher.submit([0, 1])          # size trigger: dispatched
    >>> first.done, batcher.poll(), first.done   # resolved on collection
    (False, 2, True)
    >>> first.result(), second.result(), batcher.stats.n_batches
    (0, 1, 1)
    """

    def __init__(self, engine, max_batch=64, max_delay=0.002,
                 clock=time.monotonic, observers=(), metrics=None):
        pool = ReplicaPool(engine, n_replicas=1, mode="inline",
                           max_batch=max_batch)
        super().__init__(pool, max_delay=max_delay, clock=clock,
                         observers=observers, metrics=metrics)

    @property
    def engine(self):
        """The engine snapshot answering traffic right now."""
        return self.pool.engine
