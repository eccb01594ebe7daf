"""Span recording and per-layer metrics for the traced benchmark run.

Spans come from two sources, share one :class:`repro.obs.Tracer` and one
monotonic clock, stay in memory while the run measures and are written
out as JSONL when it ends:

* the serving fabric's own ``gateway.request`` -> ``replica.dispatch``
  -> ``engine.predict`` spans, switched on through the public
  ``Gateway(tracer=...)`` argument (the worker process ships its engine
  span back with each result);
* wrappers that :class:`Instrumentation` places around public functions
  and methods of the other layers, for the traced run only.  Nothing in
  the program itself changes.

A span's self time is its duration minus the durations of its child
spans.  Wrapped calls run synchronously in one thread, so children never
overlap and the self times of all wrapper spans add up to the time the
wrappers cover.
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np

from repro.obs import Tracer

# (name, trace_id, span_id, parent_id, start_s, end_s, n_rows, value)
NAME, TRACE, SPAN, PARENT, START, END, ROWS, VALUE = range(8)


class SpanLog:
    """Tracer sink that keeps each finished span as a compact tuple."""

    def __init__(self):
        self.records = []

    def write(self, record):
        attrs = record.get("attrs") or {}
        self.records.append((
            record["name"], record["trace_id"], record["span_id"],
            record["parent_id"], record["start_s"], record["end_s"],
            attrs.get("n_rows"), attrs.get("value"),
        ))

    def dump(self, path):
        """Write every span as one JSON object per line."""
        keys = ("name", "trace_id", "span_id", "parent_id", "start_s",
                "end_s", "n_rows", "value")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def new_tracer(log):
    """A tracer that exports only into ``log`` (its own ring holds one)."""
    return Tracer(capacity=1, sink=log)


def _value(result, args, extract):
    try:
        return extract(result, *args)
    except (AttributeError, TypeError, KeyError, IndexError):
        return None


class Instrumentation:
    """Wraps public callables of the program in spans, reversibly.

    A callable that no longer exists (a later refactor renamed or
    removed it) raises ``AttributeError``, so the traced run fails
    rather than report its layer as taking no time.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._stack = []    # open wrapper spans, innermost last
        self._undo = []

    def wrap(self, owner, attr, name, value=None, skip_under=None):
        """Record a ``name`` span around every call of ``owner.attr``.

        ``value(result, *args)`` is stored on the span when given.  A
        call made directly inside a ``skip_under`` span is left
        unwrapped, so its time stays with that caller.
        """
        original = getattr(owner, attr)
        tracer, stack = self.tracer, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if skip_under is not None and parent is not None \
                    and parent.name == skip_under:
                return original(*args, **kwargs)
            span = tracer.start_span(name, parent=parent)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stack.pop()
                span.end(status="error")
                raise
            stack.pop()
            if value is not None:
                span.set_attrs(value=_value(result, args, value))
            span.end()
            return result

        self._undo.append((owner, attr, attr in vars(owner), original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put every wrapped callable back."""
        while self._undo:
            owner, attr, owned, original = self._undo.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def install(tracer):
    """Wrap the public calls of every layer the workloads reach."""
    import repro.flow.flow as flow
    import repro.flow.verify as verify
    from repro.model.model import TMModel
    from repro.serving import (Batcher, DifferentialChecker, Gateway,
                               Registry)
    from repro.simulator.core import CompiledNetlist
    from repro.simulator.design_sim import AcceleratorSimulator
    from repro.simulator.testbench import Testbench
    from repro.streaming import DriftDetector, Promoter
    from repro.tsetlin.machine import TsetlinMachine

    inst = Instrumentation(tracer)
    w = inst.wrap
    w(flow, "load_dataset", "data.load")
    w(TsetlinMachine, "fit", "tsetlin.fit", skip_under="streaming.partial_fit")
    w(TMModel, "evaluate", "tsetlin.evaluate")
    w(flow, "analyze_sparsity", "model.analyze",
      value=lambda r, *a: r.n_classes * r.n_clauses - r.empty_clauses)
    w(flow, "analyze_sharing", "model.analyze_sharing",
      value=lambda r, *a: r.full_clause_sharing_ratio)
    w(flow, "generate_accelerator", "accelerator.generate",
      value=lambda r, *a: len(r.netlist.nodes))
    w(flow, "implement_design", "synthesis.implement")
    w(verify, "emit_verilog", "rtl.emit")
    w(verify, "parse_verilog", "rtl.parse")
    w(verify, "netlists_equivalent", "simulator.equivalence")
    w(Testbench, "run", "simulator.testbench")
    w(CompiledNetlist, "__init__", "simulator.compile")
    w(AcceleratorSimulator, "run_batch", "simulator.run_batch",
      value=lambda r, *a: r.cycles_run)
    w(Gateway, "submit", "serving.fabric.submit")
    w(Gateway, "submit_many", "serving.fabric.submit")
    w(DifferentialChecker, "__call__", "serving.differential.check",
      value=lambda r, *a: r is not None)
    w(Batcher, "flush", "serving.batcher.flush")
    w(Registry, "publish", "serving.registry.publish")
    w(TsetlinMachine, "partial_fit", "streaming.partial_fit")
    w(DriftDetector, "update", "streaming.drift.update",
      value=lambda r, *a: bool(r))
    w(Promoter, "promote", "streaming.promote",
      value=lambda r, *a: bool(r["promoted"]))
    return inst


# Wrapper span -> the per-layer metric its self time per operation feeds.
_SELF_SECONDS = {
    "data.load": "data.load_s",
    "tsetlin.fit": "tsetlin.fit_s",
    "tsetlin.evaluate": "tsetlin.evaluate_s",
    "model.analyze": "model.analyze_s",
    "model.analyze_sharing": "model.analyze_s",
    "accelerator.generate": "accelerator.generate_s",
    "synthesis.implement": "synthesis.implement_s",
    "rtl.emit": "rtl.emit_s",
    "rtl.parse": "rtl.parse_s",
    "simulator.compile": "simulator.compile_s",
    "simulator.run_batch": "simulator.run_batch_s",
    "simulator.equivalence": "simulator.equivalence_s",
    "simulator.testbench": "simulator.testbench_s",
    "serving.fabric.submit": "serving.fabric.submit_s",
    "serving.registry.publish": "serving.registry.publish_s",
    "streaming.partial_fit": "streaming.partial_fit_s",
    "streaming.drift.update": "streaming.drift.update_s",
    "streaming.promote": "streaming.promote_s",
}
_FABRIC = ("gateway.request", "replica.dispatch", "engine.predict")


def _median_ms(durations):
    return float(np.median(durations)) * 1e3 if durations else 0.0


def _mean(values):
    return float(np.mean(values)) if values else 0.0


def layer_metrics(records, wall_s, n_ops):
    """Per-layer metrics from one traced measurement window.

    ``wall_s`` is the window's wall time and ``n_ops`` the workload
    operations completed in it.  ``*_s`` metrics are self seconds per
    operation; ``*_ms`` metrics are medians per event; ``*_share``
    metrics are busy time over wall time; counts are per operation
    unless named per event.  A layer the workload does not reach reads
    zero.
    """
    child_s = defaultdict(float)
    for rec in records:
        if rec[PARENT] is not None:
            child_s[rec[PARENT]] += rec[END] - rec[START]
    by_name = defaultdict(list)
    for rec in records:
        by_name[rec[NAME]].append(rec)

    out = {metric: 0.0 for metric in _SELF_SECONDS.values()}
    covered = 0.0
    for name, metric in _SELF_SECONDS.items():
        self_s = sum(r[END] - r[START] - child_s[r[SPAN]]
                     for r in by_name[name])
        out[metric] += self_s / n_ops
        covered += self_s
    for name in ("serving.differential.check", "serving.batcher.flush"):
        covered += sum(r[END] - r[START] - child_s[r[SPAN]]
                       for r in by_name[name])
    out["trace.span_coverage"] = covered / wall_s

    def values(name):
        return [r[VALUE] for r in by_name[name] if r[VALUE] is not None]

    out["model.active_clauses"] = _mean(values("model.analyze"))
    out["model.shared_clause_ratio"] = _mean(values("model.analyze_sharing"))
    out["accelerator.netlist_nodes"] = _mean(values("accelerator.generate"))
    out["simulator.cycles"] = sum(values("simulator.run_batch")) / n_ops
    out["streaming.detections"] = sum(values("streaming.drift.update")) / n_ops
    out["streaming.promotions"] = sum(values("streaming.promote")) / n_ops

    checks = by_name["serving.differential.check"]
    replayed = [r[END] - r[START] for r in checks if r[VALUE]]
    out["serving.differential.check_ms"] = _median_ms(replayed)
    out["serving.differential.busy_share"] = (
        sum(r[END] - r[START] for r in checks) / wall_s)
    out["serving.differential.checked_ratio"] = (
        len(replayed) / len(checks) if checks else 0.0)
    out["serving.batcher.flush_ms"] = _median_ms(
        [r[END] - r[START] for r in by_name["serving.batcher.flush"]])
    out.update(_fabric_metrics(by_name, wall_s))
    return out


def _fabric_metrics(by_name, wall_s):
    """Queue wait, transport and engine time from the gateway's spans.

    A dispatch span's parent is the first request of its batch only, so
    requests are matched to batches in submit order — exact for the
    single-replica FIFO queue both serving workloads run.
    """
    requests, dispatches, engines = (
        sorted(by_name[name], key=lambda r: r[START]) for name in _FABRIC)
    engine_s = {r[PARENT]: r[END] - r[START] for r in engines}
    waits = []
    pos = 0
    for batch in dispatches:
        n = batch[ROWS] or 0
        waits.extend(batch[START] - req[START]
                     for req in requests[pos:pos + n])
        pos += n
    transport = [d[END] - d[START] - engine_s[d[SPAN]]
                 for d in dispatches if d[SPAN] in engine_s]
    return {
        "serving.fabric.batch_size": _mean([d[ROWS] for d in dispatches
                                            if d[ROWS]]),
        "serving.fabric.queue_wait_ms": _median_ms(waits),
        "serving.fabric.transport_ms": _median_ms(transport),
        "serving.engine.predict_ms": _median_ms(list(engine_s.values())),
        "serving.engine.busy_share": sum(engine_s.values()) / wall_s,
    }
