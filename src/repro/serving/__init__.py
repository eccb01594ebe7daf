"""Batched inference serving for trained Tsetlin models.

The serving counterpart of the pluggable training engine
(:mod:`repro.tsetlin.backend`): pack a model snapshot once, answer
requests with bit-packed kernels, coalesce single-sample traffic into
micro-batches behind one front-end (the ``Gateway``, whatever the fleet
size), version snapshots so training can continue behind a live
registry, and continuously cross-check served batches against the
cycle-accurate simulator of the generated accelerator.

Layer map::

    InferenceEngine       packed-literal batched inference on one frozen
                          model snapshot (flat / coalesced / conv)
    Registry              named, versioned snapshot store (publish ->
                          serve while training continues)
    DifferentialChecker   gateway observer replaying sampled served
                          batches through repro.simulator.design_sim,
                          asserting prediction + winner-class-sum
                          equality with the silicon
    ReplicaPool           fabric: N replicas (worker processes or inline)
                          over one warm packed snapshot, health checks
    Gateway               the front-end: size+deadline micro-batching,
                          bounded queue, backpressure, deterministic
                          routing with failover, per-batch observers,
                          rolling replica-by-replica engine swap, metrics
    Batcher               a one-replica inline Gateway built from an
                          engine (single-engine serving, streaming)
    AdmissionController   QoS front door: per-tenant token buckets +
                          lifetime quotas (refusals shed at submit)
    SLO / LatencyHistogram  deadline objectives + streaming p50/p95/p99
                          latency tracking, deadline-aware shedding
    Autoscaler            queue-depth driven fleet sizing over
                          Gateway.add_replica / remove_replica
                          (drained scale-down, zero drops)
    simulate_traffic      seeded open-loop Poisson/burst/hot-key traffic
                          simulator in virtual time -> overload report
"""

from .differential import DifferentialChecker, DifferentialMismatch
from .engine import ConvolutionalInferenceEngine, InferenceEngine, snapshot_engine
from .fabric import (
    Backpressure,
    Batcher,
    FabricStats,
    FabricTicket,
    Gateway,
    ReplicaError,
    ReplicaPool,
)
from .fabric_qos import (
    AdmissionController,
    Autoscaler,
    LatencyHistogram,
    SLO,
    TokenBucket,
)
from .registry import ModelNotFound, Registry
from .traffic import (
    SimClock,
    SimReplica,
    SimReplicaPool,
    format_traffic_report,
    simulate_traffic,
)

__all__ = [
    "DifferentialChecker",
    "DifferentialMismatch",
    "ConvolutionalInferenceEngine",
    "InferenceEngine",
    "snapshot_engine",
    "Backpressure",
    "Batcher",
    "FabricStats",
    "FabricTicket",
    "Gateway",
    "ReplicaError",
    "ReplicaPool",
    "AdmissionController",
    "Autoscaler",
    "LatencyHistogram",
    "SLO",
    "TokenBucket",
    "ModelNotFound",
    "Registry",
    "SimClock",
    "SimReplica",
    "SimReplicaPool",
    "format_traffic_report",
    "simulate_traffic",
]
