"""Unified observability: metrics registry + request tracing.

Telemetry used to be scattered — per-gateway ``FabricStats``, ad-hoc
replica ``stats()`` dicts — with nothing following a request across
layers.  This package is the common layer
every subsystem writes into:

:mod:`repro.obs.metrics`
    :class:`MetricsRegistry` of ``Counter``/``Gauge``/``Histogram``
    instruments with label sets, mergeable cross-process snapshots,
    and two deterministic exporters (canonical JSON, Prometheus text).
    The log-bucketed histogram core that used to live in
    ``repro.serving.fabric_qos.LatencyHistogram`` lives here now.

:mod:`repro.obs.trace`
    :class:`Tracer` producing request-scoped :class:`Span` s with an
    injectable monotonic clock; the serving fabric propagates the
    trace context through ``Gateway.submit`` -> replica dispatch ->
    engine call, across the worker-process boundary too.
    Finished spans export to a bounded :class:`SpanRing` and an
    optional :class:`JsonlSpanSink`.

The instrumented layers default to one process-local registry
(:func:`get_registry`); tests and the CLI can install their own via
:func:`set_registry` or per-component ``metrics=`` parameters.  This
package deliberately imports nothing from the rest of ``repro`` so any
layer may depend on it.
"""

from __future__ import annotations

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    set_registry,
)
from .trace import JsonlSpanSink, Span, SpanRing, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSpanSink",
    "MetricsRegistry",
    "Span",
    "SpanRing",
    "Tracer",
    "get_registry",
    "merge_snapshots",
    "set_registry",
]
