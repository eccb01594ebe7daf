"""Open-loop traffic simulator: prove fabric behaviour under overload.

The fabric throughput benchmark measures speed; this module measures
*conduct* — what the gateway does when offered more load than the fleet
can serve.
The simulator drives a real :class:`~repro.serving.Gateway` (real
routing, real QoS decisions, real engine predictions) in **virtual
time**:

* arrivals are seeded open-loop Poisson (exponential inter-arrival
  times, a configurable burst window multiplying the rate, hot-key and
  hot-tenant skew), so offered load does not slow down when the fabric
  backs up — the overload is genuine;
* replicas are :class:`SimReplica` — an inline replica whose *service
  time* is modelled (``busy-until + n_rows / service_rate``) while the
  predictions are computed for real, so correctness checks and latency
  accounting both hold;
* the gateway's clock is a :class:`SimClock` the simulator advances to
  each arrival, so every admission, shed, dispatch, and latency value
  is a pure function of the seed — the overload report is exactly
  reproducible and gated as a committed benchmark baseline.

The entry point is :func:`simulate_traffic`, which returns the JSON
overload report (goodput, shed rate and reasons, latency percentiles,
SLO attainment, burst-window breakdown, per-tenant counters, autoscale
events); :func:`format_traffic_report` renders it for humans.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .fabric import Gateway, InlineReplica, ReplicaPool
from .fabric_qos import SLO, AdmissionController, Autoscaler

__all__ = [
    "SimClock",
    "SimReplica",
    "SimReplicaPool",
    "format_traffic_report",
    "simulate_traffic",
]


class SimClock:
    """Deterministic monotonic clock for virtual-time simulation.

    Injected as the gateway's ``clock``; the simulator advances it to
    each arrival time, so all time-based decisions replay exactly.

    >>> clock = SimClock()
    >>> clock.advance_to(1.5); clock()
    1.5
    >>> clock.advance_to(1.0); clock()   # monotonic: never goes back
    1.5
    """

    __slots__ = ("now",)

    def __init__(self, start=0.0):
        self.now = float(start)

    def __call__(self):
        return self.now

    def advance_to(self, t):
        if t > self.now:
            self.now = float(t)


class SimReplica(InlineReplica):
    """Inline replica with modelled service time in virtual time.

    ``dispatch`` computes the real predictions immediately (so tickets
    resolve with genuine engine output) but accounts a *virtual* busy
    interval: the batch finishes at ``max(free_at, now) + n_rows /
    service_rate`` — one busy server with a FIFO backlog.  The result
    only becomes collectable (:meth:`has_ready`) once the clock passes
    that finish time, which is what makes queueing delay, deadline
    shedding, and latency percentiles meaningful in simulation.

    >>> import numpy as np
    >>> from repro.model import TMModel
    >>> from repro.serving import InferenceEngine
    >>> include = np.zeros((2, 1, 4), dtype=bool)
    >>> include[0, 0, 0] = True; include[1, 0, 2] = True
    >>> model = TMModel(include=include, n_features=2, weights=[[1], [1]])
    >>> engine = InferenceEngine.from_model(model, version=1)
    >>> clock = SimClock()
    >>> replica = SimReplica(0, engine, clock, service_rate=10.0)
    >>> replica.dispatch(1, np.zeros((5, 2), dtype=np.uint8))
    >>> replica.has_ready()              # 5 rows at 10/s: ready at t=0.5
    False
    >>> clock.advance_to(0.5); replica.has_ready()
    True
    >>> replica.collect()[0]
    1
    """

    kind = "sim"

    def __init__(self, index, engine, clock, service_rate):
        super().__init__(index, engine)
        if service_rate <= 0:
            raise ValueError("service_rate must be > 0 samples/s")
        self._sim_clock = clock
        self.service_rate = float(service_rate)
        self._free_at = 0.0
        self._ready_at = deque()    # finish time per buffered result, FIFO

    def dispatch(self, req_id, X, trace_ctx=None):
        preds, sums = self.engine.predict_with_sums(X)
        now = self._sim_clock()
        done = max(self._free_at, now) + len(X) / self.service_rate
        self._free_at = done
        self._account(len(X), done - now)
        if self.tracer is not None and trace_ctx is not None:
            # The engine span covers the *modelled* busy interval in
            # virtual time (start when the server frees up, end at the
            # batch's finish time), so traced simulations stay a pure
            # function of the seed.
            span = self.tracer.start_span(
                "engine.predict", parent=trace_ctx, replica=self.index,
                transport="sim", n_rows=len(X),
                version=self.engine.version)
            span.start_s = done - len(X) / self.service_rate
            span.end_s = done
            span.status = "ok"
            self.tracer.ingest(span.to_dict())
        self._results.append((req_id, preds, sums, self.engine.version))
        self._ready_at.append(done)

    def has_ready(self):
        return bool(self._ready_at) and self._ready_at[0] <= self._sim_clock()

    def collect(self):
        result = super().collect()
        self._ready_at.popleft()
        return result


class SimReplicaPool(ReplicaPool):
    """A :class:`~repro.serving.ReplicaPool` of :class:`SimReplica` s.

    Shares all pool mechanics (health, swap, autoscale spawn path) with
    the real pool; only the replica type differs, so
    :meth:`~repro.serving.fabric.Gateway.add_replica` keeps working in
    simulation — a scaled-up virtual fleet gains virtual capacity.

    >>> import numpy as np
    >>> from repro.model import TMModel
    >>> from repro.serving import InferenceEngine
    >>> include = np.zeros((2, 1, 4), dtype=bool)
    >>> include[0, 0, 0] = True; include[1, 0, 2] = True
    >>> model = TMModel(include=include, n_features=2, weights=[[1], [1]])
    >>> engine = InferenceEngine.from_model(model, version=1)
    >>> pool = SimReplicaPool(engine, 2, SimClock(), service_rate=100.0)
    >>> len(pool), pool.replicas[0].kind
    (2, 'sim')
    """

    def __init__(self, engine, n_replicas, clock, service_rate,
                 max_batch=64):
        self._sim_clock = clock
        self.service_rate = float(service_rate)
        super().__init__(engine, n_replicas=n_replicas, mode="inline",
                         max_batch=max_batch)

    def _spawn(self, index, engine):
        return SimReplica(index, engine, self._sim_clock, self.service_rate)


def _arrivals(rng, duration_s, rate, burst_start, burst_end, burst_x):
    """Open-loop Poisson arrival times with a rate-multiplied burst window."""
    times = []
    t = 0.0
    while True:
        r = rate * burst_x if burst_start <= t < burst_end else rate
        t += rng.exponential(1.0 / r)
        if t >= duration_s:
            return times
        times.append(t)


def simulate_traffic(
    engine,
    *,
    n_replicas=4,
    duration_s=3.0,
    rate=1200.0,
    burst_at=0.4,
    burst_len=0.25,
    burst_x=4.0,
    n_keys=64,
    hot_keys=2,
    hot_key_fraction=0.2,
    n_tenants=4,
    service_rate=800.0,
    deadline_ms=100.0,
    max_batch=32,
    max_queue=512,
    overflow="shed",
    admit_rate=None,
    admit_burst=None,
    quota=None,
    autoscale=None,
    seed=0,
):
    """Run the seeded overload simulation; returns the JSON report.

    Parameters
    ----------
    engine:
        The :class:`~repro.serving.engine.InferenceEngine` snapshot the
        (virtual) fleet serves — predictions are computed for real.
    n_replicas, service_rate:
        Initial fleet size and the modelled per-replica service rate in
        samples/s (fleet capacity = ``n_replicas * service_rate``).
    duration_s, rate, burst_at, burst_len, burst_x:
        Offered load: Poisson arrivals at ``rate``/s for ``duration_s``
        seconds of virtual time, multiplied by ``burst_x`` inside the
        burst window (``burst_at``/``burst_len`` are fractions of the
        duration).  The defaults offer a 4x burst over ~1.5x fleet
        capacity — a genuine overload.
    n_keys, hot_keys, hot_key_fraction, n_tenants:
        Key skew: ``hot_key_fraction`` of requests hit one of the first
        ``hot_keys`` keys; tenants are ``key % n_tenants``, so the hot
        keys make hot tenants.
    deadline_ms, max_batch, max_queue, overflow:
        The gateway's QoS configuration (``deadline_ms`` becomes an
        :class:`~repro.serving.SLO` with the explicit ``service_rate``,
        so deadline shedding is deterministic from the first request).
    admit_rate, admit_burst, quota:
        Optional per-tenant :class:`~repro.serving.AdmissionController`
        settings (requests/s, burst tokens, lifetime cap).
    autoscale:
        Optional dict for :class:`~repro.serving.Autoscaler` —
        ``{"max_replicas": ..., "every": N}`` plus any Autoscaler
        kwargs; the scaler steps every ``N`` arrivals (default 64).
    seed:
        Seeds arrivals, keys, and payloads; the whole report is a pure
        function of the seed and parameters.

    >>> import numpy as np
    >>> from repro.model import TMModel
    >>> from repro.serving import InferenceEngine
    >>> include = np.zeros((2, 1, 4), dtype=bool)
    >>> include[0, 0, 0] = True; include[1, 0, 2] = True
    >>> model = TMModel(include=include, n_features=2, weights=[[1], [1]])
    >>> engine = InferenceEngine.from_model(model, version=1)
    >>> report = simulate_traffic(engine, n_replicas=2, duration_s=0.5,
    ...                           rate=400.0, service_rate=150.0, seed=7)
    >>> report["offered"] == report["served"] + report["shed"]
    True
    >>> report["shed"] > 0 and report["goodput"] < 1.0   # overloaded
    True
    >>> report == simulate_traffic(engine, n_replicas=2, duration_s=0.5,
    ...                            rate=400.0, service_rate=150.0, seed=7)
    True
    """
    if not 0.0 <= burst_at <= 1.0 or burst_len < 0.0:
        raise ValueError("burst_at in [0, 1] and burst_len >= 0 required")
    rng = np.random.default_rng(seed)
    burst_start = burst_at * duration_s
    burst_end = min(duration_s, burst_start + burst_len * duration_s)
    arrivals = _arrivals(rng, duration_s, rate, burst_start, burst_end,
                         burst_x)
    n = len(arrivals)
    hot = rng.random(n) < hot_key_fraction
    keys = np.where(
        hot,
        rng.integers(0, max(1, hot_keys), size=n),
        rng.integers(min(hot_keys, n_keys - 1), n_keys, size=n),
    )
    payloads = rng.integers(0, 2, size=(256, engine.n_features),
                            dtype=np.uint8)

    clock = SimClock()
    pool = SimReplicaPool(engine, n_replicas, clock, service_rate,
                          max_batch=max_batch)
    admission = None
    if admit_rate is not None or quota is not None:
        admission = AdmissionController(rate=admit_rate, burst=admit_burst,
                                        quota=quota)
    deadline_s = None if deadline_ms is None else deadline_ms * 1e-3
    slo = SLO(deadline_s=deadline_s, service_rate=service_rate)
    max_delay = (deadline_s / 4.0) if deadline_s is not None else 0.05
    gateway = Gateway(pool, max_batch=max_batch, max_queue=max_queue,
                      overflow=overflow, max_delay=max_delay, clock=clock,
                      admission=admission, slo=slo)
    scaler = None
    autoscale_every = 64
    if autoscale:
        opts = dict(autoscale)
        autoscale_every = int(opts.pop("every", 64))
        opts.setdefault("min_replicas", n_replicas)
        scaler = Autoscaler(gateway, **opts)

    tickets = []
    for i, t in enumerate(arrivals):
        clock.advance_to(t)
        gateway.poll()
        if scaler is not None and i % autoscale_every == 0:
            scaler.step()
        key = int(keys[i])
        tickets.append(gateway.submit(payloads[i % len(payloads)], key=key,
                                      tenant=f"t{key % n_tenants}"))
    # Drain in virtual time: dispatch the queued tails, then advance the
    # clock until every in-flight batch has (virtually) finished.
    gateway.dispatch_queued()
    drain_step = max_batch / (4.0 * service_rate)
    while gateway.pending:
        clock.advance_to(clock.now + drain_step)
        gateway.poll()

    served = [(t, tk) for t, tk in zip(arrivals, tickets) if not tk.shed]
    shed = [(t, tk) for t, tk in zip(arrivals, tickets) if tk.shed]
    in_burst = [bool(burst_start <= t < burst_end) for t in arrivals]
    burst_served = [tk for (t, tk), b in zip(zip(arrivals, tickets), in_burst)
                    if b and not tk.shed]
    burst_offered = sum(in_burst)
    lat_ms = np.array([tk.latency_s for _, tk in served]) * 1e3
    burst_lat_ms = np.array([tk.latency_s for tk in burst_served]) * 1e3

    def _pct(values, q):
        if len(values) == 0:
            return None
        return round(float(np.percentile(values, q)), 3)

    report = {
        "seed": int(seed),
        "config": {
            "n_replicas": n_replicas,
            "service_rate": service_rate,
            "duration_s": duration_s,
            "rate": rate,
            "burst_at": burst_at,
            "burst_len": burst_len,
            "burst_x": burst_x,
            "hot_keys": hot_keys,
            "hot_key_fraction": hot_key_fraction,
            "deadline_ms": deadline_ms,
            "max_batch": max_batch,
            "max_queue": max_queue,
            "overflow": overflow,
            "admit_rate": admit_rate,
            "quota": quota,
            "autoscale": dict(autoscale) if autoscale else None,
        },
        "offered": n,
        "served": len(served),
        "shed": len(shed),
        "goodput": round(len(served) / n, 4) if n else None,
        "shed_rate": round(len(shed) / n, 4) if n else None,
        "shed_by_reason": dict(gateway.stats.shed_by_reason),
        "slo_attainment": (
            None if deadline_ms is None or len(lat_ms) == 0
            else round(float((lat_ms <= deadline_ms).mean()), 4)),
        "latency_ms": {
            "p50": _pct(lat_ms, 50),
            "p95": _pct(lat_ms, 95),
            "p99": _pct(lat_ms, 99),
            "max": _pct(lat_ms, 100),
        },
        "burst": {
            "offered": burst_offered,
            "served": len(burst_served),
            "shed_rate": (round(1.0 - len(burst_served) / burst_offered, 4)
                          if burst_offered else None),
            "p99_ms": _pct(burst_lat_ms, 99),
        },
        "final_replicas": len(pool.replicas),
        "autoscale_events": list(scaler.events) if scaler else [],
        "fabric": gateway.report(),
    }
    return report


def format_traffic_report(report):
    """Human-readable rendering of a :func:`simulate_traffic` report.

    >>> print(format_traffic_report({
    ...     "offered": 10, "served": 8, "shed": 2, "goodput": 0.8,
    ...     "shed_rate": 0.2, "shed_by_reason": {"deadline": 2},
    ...     "slo_attainment": 1.0,
    ...     "latency_ms": {"p50": 1.0, "p95": 2.0, "p99": 3.0, "max": 4.0},
    ...     "burst": {"offered": 5, "served": 4, "shed_rate": 0.2,
    ...               "p99_ms": 3.0},
    ...     "final_replicas": 4, "autoscale_events": [],
    ...     "config": {"n_replicas": 4, "service_rate": 800.0,
    ...                "rate": 1200.0, "burst_x": 4.0,
    ...                "deadline_ms": 100.0},
    ... }))           # doctest: +NORMALIZE_WHITESPACE
    traffic-sim: 10 offered -> 8 served, 2 shed (goodput 80.0%)
      fleet    : 4 -> 4 replicas @ 800 samples/s each
      offered  : 1200/s Poisson, 4.0x burst
      latency  : p50 1.0 ms, p95 2.0 ms, p99 3.0 ms, max 4.0 ms
      SLO      : 100.0 ms deadline, 100.0% attainment
      burst    : 5 offered, 4 served, shed 20.0%, p99 3.0 ms
      shed by  : deadline=2
    """
    cfg = report["config"]
    lat = report["latency_ms"]
    burst = report["burst"]
    shed_by = ", ".join(f"{k}={v}"
                        for k, v in sorted(report["shed_by_reason"].items()))
    lines = [
        (f"traffic-sim: {report['offered']} offered -> "
         f"{report['served']} served, {report['shed']} shed "
         f"(goodput {report['goodput'] * 100:.1f}%)"),
        (f"  fleet    : {cfg['n_replicas']} -> {report['final_replicas']} "
         f"replicas @ {cfg['service_rate']:.0f} samples/s each"),
        (f"  offered  : {cfg['rate']:.0f}/s Poisson, "
         f"{cfg['burst_x']:.1f}x burst"),
        (f"  latency  : p50 {lat['p50']} ms, p95 {lat['p95']} ms, "
         f"p99 {lat['p99']} ms, max {lat['max']} ms"),
    ]
    if report.get("slo_attainment") is not None:
        lines.append(f"  SLO      : {cfg['deadline_ms']} ms deadline, "
                     f"{report['slo_attainment'] * 100:.1f}% attainment")
    if burst["offered"]:
        lines.append(f"  burst    : {burst['offered']} offered, "
                     f"{burst['served']} served, "
                     f"shed {burst['shed_rate'] * 100:.1f}%, "
                     f"p99 {burst['p99_ms']} ms")
    if shed_by:
        lines.append(f"  shed by  : {shed_by}")
    for event in report.get("autoscale_events", []):
        lines.append(f"  autoscale: step {event['step']} {event['action']} "
                     f"{event['n_before']}->{event['n_after']} "
                     f"(depth {event['depth']})")
    return "\n".join(lines)
