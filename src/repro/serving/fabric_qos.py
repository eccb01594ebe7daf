"""QoS primitives for the serving fabric: admission, SLOs, autoscaling.

The :class:`~repro.serving.fabric.Gateway` routes, queues, and fails
over; production traffic needs a front door on top of that.  This
module holds the policy pieces, each independently testable and all
driven by an injectable clock so every decision is deterministic under
a virtual time source (the traffic simulator in
:mod:`repro.serving.traffic` runs the whole stack in virtual time):

``TokenBucket`` / ``AdmissionController``
    Per-tenant rate limiting and lifetime quotas.  A request that the
    controller refuses is *shed* at the gateway door — resolved
    immediately with ``shed=True`` instead of queued — so one hot
    tenant cannot starve the fleet.

``LatencyHistogram`` / ``SLO``
    Streaming log-bucketed latency histograms (p50/p95/p99 without
    storing samples) and the service-level objective the gateway
    enforces: a deadline per request class plus the service-rate model
    used to *predict* whether a request admitted now could possibly
    meet its deadline.  Provably-late work is shed at submit time
    instead of wasting fleet capacity.

``Autoscaler``
    Queue-depth driven fleet sizing: grow the
    :class:`~repro.serving.fabric.ReplicaPool` while backlog per
    healthy replica is above the high watermark, shrink (draining
    first, so scale-down drops zero requests) while below the low one.

Everything here is policy over counters — no processes, no numpy on
the hot path — which keeps the admission check O(1) per request.
"""

from __future__ import annotations

from repro.obs import Histogram

__all__ = [
    "AdmissionController",
    "Autoscaler",
    "LatencyHistogram",
    "SLO",
    "TokenBucket",
]


class TokenBucket:
    """Classic token bucket: sustained ``rate``/s with ``burst`` headroom.

    The bucket holds at most ``burst`` tokens and refills continuously
    at ``rate`` tokens per second; each admitted request takes one.
    Time is passed in by the caller (monotonic seconds), never read
    from a wall clock, so replaying the same arrival times yields the
    same admit/deny sequence.

    >>> bucket = TokenBucket(rate=10.0, burst=2)
    >>> [bucket.try_take(0.0), bucket.try_take(0.0), bucket.try_take(0.0)]
    [True, True, False]
    >>> bucket.try_take(0.1)            # 0.1 s later: one token refilled
    True
    """

    __slots__ = ("rate", "burst", "tokens", "_last")

    def __init__(self, rate, burst=None):
        if rate <= 0:
            raise ValueError("rate must be > 0 tokens/s")
        self.rate = float(rate)
        self.burst = float(burst if burst is not None else max(1.0, rate))
        if self.burst < 1:
            raise ValueError("burst must be >= 1 token")
        self.tokens = self.burst
        self._last = None

    def try_take(self, now, n=1):
        """Take ``n`` tokens at time ``now``; ``False`` if underfunded."""
        if self._last is not None and now > self._last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._last) * self.rate)
        self._last = now
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


class AdmissionController:
    """Per-tenant token-bucket admission plus lifetime quotas.

    Parameters
    ----------
    rate, burst:
        Default sustained requests/s and burst headroom applied to each
        tenant (every tenant gets its *own* bucket, created lazily on
        first request — isolation, not a shared pool).  ``rate=None``
        disables rate limiting for tenants without an override.
    quota:
        Optional lifetime request cap per tenant (admitted requests
        count against it; shed ones do not).
    tenants:
        Per-tenant overrides: ``{tenant: {"rate": ..., "burst": ...,
        "quota": ...}}``.  Unlisted tenants use the defaults.

    :meth:`admit` returns ``None`` to accept or the shed reason
    (``"rate"`` / ``"quota"``) to refuse; the gateway turns a refusal
    into a resolved ``shed=True`` ticket without queueing anything.

    >>> ctl = AdmissionController(rate=5.0, burst=1, quota=3)
    >>> [ctl.admit("hot", t) for t in (0.0, 0.0, 0.2, 0.4, 0.6)]
    [None, 'rate', None, None, 'quota']
    >>> ctl.admit("cold", 0.6)          # other tenants are unaffected
    >>> ctl.report()["hot"]["shed"]
    2
    """

    DEFAULT_TENANT = "-"

    def __init__(self, rate=None, burst=None, quota=None, tenants=None):
        self.rate = rate
        self.burst = burst
        self.quota = quota
        self.overrides = dict(tenants or {})
        self._buckets = {}
        self._counts = {}   # tenant -> [offered, admitted, shed]

    def _bucket(self, tenant):
        if tenant not in self._buckets:
            cfg = self.overrides.get(tenant, {})
            rate = cfg.get("rate", self.rate)
            self._buckets[tenant] = (
                None if rate is None
                else TokenBucket(rate, cfg.get("burst", self.burst))
            )
        return self._buckets[tenant]

    def _quota(self, tenant):
        return self.overrides.get(tenant, {}).get("quota", self.quota)

    def admit(self, tenant, now):
        """``None`` to admit ``tenant`` at ``now``, else the shed reason."""
        tenant = self.DEFAULT_TENANT if tenant is None else tenant
        counts = self._counts.setdefault(tenant, [0, 0, 0])
        counts[0] += 1
        quota = self._quota(tenant)
        if quota is not None and counts[1] >= quota:
            counts[2] += 1
            return "quota"
        bucket = self._bucket(tenant)
        if bucket is not None and not bucket.try_take(now):
            counts[2] += 1
            return "rate"
        counts[1] += 1
        return None

    def report(self):
        """Per-tenant ``{offered, admitted, shed}`` counters (JSON-able)."""
        return {
            tenant: {"offered": c[0], "admitted": c[1], "shed": c[2]}
            for tenant, c in sorted(self._counts.items())
        }


class LatencyHistogram(Histogram):
    """Streaming log-bucketed latency histogram with interpolated quantiles.

    A latency-flavoured :class:`repro.obs.Histogram` (the log-bucketed
    core now lives there): bucket upper edges grow by ``2**0.25``
    (~19%) per bucket from ``min_latency_s``, spanning ~1 µs to ~100 s
    in 112 buckets — so p50/p95/p99 come from O(1) memory with bounded
    ~10% relative error, and two histograms with the same geometry
    merge by adding counts (per-replica -> fleet aggregation).  The
    only difference from the base class is reporting: :meth:`summary`
    speaks milliseconds.

    >>> hist = LatencyHistogram()
    >>> for ms in [1, 2, 3, 4, 100]:
    ...     hist.record(ms / 1000.0)
    >>> hist.count
    5
    >>> 0.002 < hist.quantile(0.5) < 0.004
    True
    >>> hist.quantile(1.0) == 0.1       # the exact max is tracked
    True
    >>> summary = hist.summary()
    >>> sorted(summary)
    ['count', 'max_ms', 'mean_ms', 'p50_ms', 'p95_ms', 'p99_ms']
    """

    __slots__ = ()

    def __init__(self, min_latency_s=1e-6):
        super().__init__(min_value=min_latency_s)

    def summary(self):
        """JSON-able ``{count, mean_ms, p50_ms, p95_ms, p99_ms, max_ms}``."""
        if self.count == 0:
            return {"count": 0, "mean_ms": None, "p50_ms": None,
                    "p95_ms": None, "p99_ms": None, "max_ms": None}
        return {
            "count": self.count,
            "mean_ms": round(self.total / self.count * 1e3, 3),
            "p50_ms": round(self.quantile(0.50) * 1e3, 3),
            "p95_ms": round(self.quantile(0.95) * 1e3, 3),
            "p99_ms": round(self.quantile(0.99) * 1e3, 3),
            "max_ms": round(self.max_value * 1e3, 3),
        }


class SLO:
    """Latency objective the gateway sheds against.

    Parameters
    ----------
    deadline_s:
        Default completion deadline (seconds from submit) a request must
        be servable within, or ``None`` for no deadline.
    class_deadlines:
        Optional ``{request_class: deadline_s}`` overrides; requests
        submitted with ``klass="batch"`` etc. use their class deadline.
    service_rate:
        Expected per-replica service rate in samples/s, used to predict
        queue wait.  ``None`` (default) estimates it from the replicas'
        own served-samples/busy-time counters; until those exist no
        deadline shedding happens (a prediction the fabric cannot back
        with evidence never sheds).

    >>> slo = SLO(deadline_s=0.1, class_deadlines={"batch": 2.0},
    ...           service_rate=1000.0)
    >>> slo.deadline_for(None), slo.deadline_for("batch")
    (0.1, 2.0)
    """

    __slots__ = ("deadline_s", "class_deadlines", "service_rate")

    def __init__(self, deadline_s=None, class_deadlines=None,
                 service_rate=None):
        self.deadline_s = deadline_s
        self.class_deadlines = dict(class_deadlines or {})
        self.service_rate = service_rate

    def deadline_for(self, klass=None):
        """The deadline for request class ``klass`` (or the default)."""
        if klass is not None and klass in self.class_deadlines:
            return self.class_deadlines[klass]
        return self.deadline_s


class Autoscaler:
    """Queue-depth driven replica-fleet sizing for one gateway.

    Call :meth:`step` between flushes (the traffic simulator calls it on
    a fixed arrival cadence).  While backlog per healthy replica is at
    or above ``high_watermark``, one replica is added per step up to
    ``max_replicas``; while at or below ``low_watermark`` (and above
    ``min_replicas``), the tail replica is *drained* and removed —
    :meth:`~repro.serving.fabric.Gateway.remove_replica` flushes its
    queued and in-flight work first, so scale-down drops zero requests.
    ``cooldown`` steps must pass between actions (hysteresis).

    >>> import numpy as np
    >>> from repro.model import TMModel
    >>> from repro.serving import Gateway, InferenceEngine, ReplicaPool
    >>> include = np.zeros((2, 1, 4), dtype=bool)
    >>> include[0, 0, 0] = True; include[1, 0, 2] = True
    >>> model = TMModel(include=include, n_features=2, weights=[[1], [1]])
    >>> pool = ReplicaPool(InferenceEngine.from_model(model, version=1),
    ...                    n_replicas=1, mode="inline")
    >>> gateway = Gateway(pool, max_batch=64)
    >>> scaler = Autoscaler(gateway, max_replicas=2, high_watermark=4,
    ...                     low_watermark=1)
    >>> _ = gateway.submit_many(np.zeros((6, 2), dtype=np.uint8))
    >>> scaler.step()["n_after"]        # backlog 6 >= 4: grow the fleet
    2
    >>> _ = gateway.flush()
    >>> scaler.step()["n_after"]        # idle: drain + drop the tail
    1
    """

    def __init__(self, gateway, min_replicas=1, max_replicas=8,
                 high_watermark=None, low_watermark=None, cooldown=0):
        if min_replicas < 1 or max_replicas < min_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        self.gateway = gateway
        self.min_replicas = int(min_replicas)
        self.max_replicas = int(max_replicas)
        self.high_watermark = float(
            high_watermark if high_watermark is not None
            else 2 * gateway.max_batch)
        self.low_watermark = float(
            low_watermark if low_watermark is not None
            else max(0.0, gateway.max_batch / 4.0))
        if self.low_watermark >= self.high_watermark:
            raise ValueError("low_watermark must be < high_watermark")
        self.cooldown = int(cooldown)
        self.events = []
        self._step = 0
        self._last_action = None

    def depth(self):
        """Backlog per healthy replica (the scaling signal)."""
        healthy = len(self.gateway.pool.healthy())
        return self.gateway.pending / max(1, healthy)

    def step(self):
        """Evaluate the watermarks once; returns the event dict or ``None``."""
        self._step += 1
        if (self._last_action is not None
                and self._step - self._last_action <= self.cooldown):
            return None
        n = len(self.gateway.pool.replicas)
        depth = self.depth()
        if depth >= self.high_watermark and n < self.max_replicas:
            self.gateway.add_replica()
            action = "up"
        elif depth <= self.low_watermark and n > self.min_replicas:
            self.gateway.remove_replica()
            action = "down"
        else:
            return None
        self._last_action = self._step
        event = {"step": self._step, "action": action,
                 "depth": round(depth, 3), "n_before": n,
                 "n_after": len(self.gateway.pool.replicas)}
        self.events.append(event)
        return event
