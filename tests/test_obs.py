"""Observability-layer tests: registry, exporters, tracer, propagation.

The exposition-parse tests are the CI gate for the Prometheus text
format (well-formed lines, no duplicate series, cumulative buckets);
the fabric section is the acceptance check that one ``trace_id`` from
``Gateway.submit`` is observable on the gateway, owning-replica, and
engine-call spans across a real worker-process boundary.
"""

import io
import json
import re

import numpy as np
import pytest

from _fixtures import random_model
from repro.flow.cli import main
from repro.obs import (
    Histogram,
    JsonlSpanSink,
    MetricsRegistry,
    SpanRing,
    Tracer,
    get_registry,
    merge_snapshots,
)
from repro.serving import Gateway, InferenceEngine, ReplicaPool


def _engine(seed=0, version=1, **kwargs):
    return InferenceEngine.from_model(random_model(seed=seed, **kwargs),
                                      version=version)


def _traffic(engine, n, seed=1):
    rng = np.random.default_rng(seed)
    return (rng.random((n, engine.n_features)) < 0.5).astype(np.uint8)


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(7)
        g.dec(3)
        g.inc()
        assert g.value == 5

    def test_histogram_summary_and_exact_max(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency_seconds")
        for v in (0.001, 0.002, 0.004, 0.5):
            h.record(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["max"] == 0.5  # exact, not bucket-quantized
        assert s["p50"] <= s["p99"] <= s["max"]

    def test_same_name_same_labels_is_same_series(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", route="x", code="200")
        b = reg.counter("hits_total", code="200", route="x")
        a.inc()
        b.inc()
        assert a is b and a.value == 2
        other = reg.counter("hits_total", route="y", code="200")
        assert other.value == 0

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError):
            reg.gauge("thing")
        with pytest.raises(ValueError):
            reg.histogram("thing")


# ----------------------------------------------------------------------
# Merge semantics (histogram merge must be associative with exact max)
# ----------------------------------------------------------------------
class TestMergeSemantics:
    def _registry(self, seed, n):
        rng = np.random.default_rng(seed)
        reg = MetricsRegistry()
        h = reg.histogram("latency_seconds", tier="gold")
        for v in rng.uniform(1e-5, 2.0, size=n):
            h.record(float(v))
        reg.counter("requests_total", tier="gold").inc(n)
        reg.gauge("depth").set(float(seed))
        return reg

    def test_merge_associativity_and_exact_max(self):
        a = self._registry(1, 40).snapshot()
        b = self._registry(2, 17).snapshot()
        c = self._registry(3, 9).snapshot()
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert left == right
        family = left["metrics"]["latency_seconds"]["series"][0]
        per_part = [
            s["metrics"]["latency_seconds"]["series"][0] for s in (a, b, c)
        ]
        assert family["count"] == sum(p["count"] for p in per_part)
        assert family["max"] == max(p["max"] for p in per_part)  # exact

    def test_histogram_object_merge_matches_single_stream(self):
        values = [0.001, 0.01, 0.01, 0.3, 1.7]
        whole = Histogram()
        for v in values:
            whole.record(v)
        left, right = Histogram(), Histogram()
        for v in values[:2]:
            left.record(v)
        for v in values[2:]:
            right.record(v)
        left.merge(right)
        assert left.state() == whole.state()
        assert left.quantile(0.5) == whole.quantile(0.5)

    def test_counter_and_gauge_merge_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("hits_total").inc(2)
        b.counter("hits_total").inc(5)
        a.gauge("pending").set(3)
        b.gauge("pending").set(4)
        merged = MetricsRegistry()
        merged.merge_snapshot(a.snapshot()).merge_snapshot(b.snapshot())
        assert merged.counter("hits_total").value == 7
        assert merged.gauge("pending").value == 7

    def test_snapshot_round_trips_through_json(self):
        reg = self._registry(5, 12)
        snap = json.loads(reg.to_json())
        rebuilt = MetricsRegistry()
        rebuilt.merge_snapshot(snap)
        assert rebuilt.snapshot() == reg.snapshot()


# ----------------------------------------------------------------------
# Exporters (the Prometheus parse test is the CI exposition gate)
# ----------------------------------------------------------------------
_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"            # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""  # first label
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"  # more labels
    r" -?[0-9.eE+-]+(e[+-]?[0-9]+)?$"        # sample value
)


def _populated_registry():
    reg = MetricsRegistry()
    reg.counter("requests_total", help="served requests",
                tenant="a", klass="gold").inc(3)
    reg.counter("requests_total", tenant="b", klass="-").inc(1)
    reg.gauge("queue_depth", replica="0").set(2)
    reg.gauge("queue_depth", replica="1").set(0)
    h = reg.histogram("latency_seconds", help="e2e latency")
    for v in (0.0005, 0.004, 0.004, 0.12, 3.5):
        h.record(v)
    return reg


class TestExporters:
    def test_json_snapshot_deterministic_across_insertion_order(self):
        a = MetricsRegistry()
        a.counter("z_total").inc()
        a.counter("a_total", route="r").inc(2)
        b = MetricsRegistry()
        b.counter("a_total", route="r").inc(2)
        b.counter("z_total").inc()
        assert a.to_json() == b.to_json()

    def test_prometheus_lines_well_formed(self):
        text = _populated_registry().to_prometheus()
        assert text.endswith("\n")
        for line in text.strip().split("\n"):
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ",
                                line), line
            else:
                assert _PROM_LINE.match(line), line

    def test_prometheus_no_duplicate_series(self):
        text = _populated_registry().to_prometheus()
        seen = set()
        for line in text.strip().split("\n"):
            if line.startswith("#"):
                continue
            key = line.rsplit(" ", 1)[0]  # name + label set
            assert key not in seen, f"duplicate series {key}"
            seen.add(key)

    def test_prometheus_histogram_buckets_cumulative(self):
        text = _populated_registry().to_prometheus()
        buckets = []
        for line in text.strip().split("\n"):
            if line.startswith("latency_seconds_bucket"):
                buckets.append(float(line.rsplit(" ", 1)[1]))
        assert buckets == sorted(buckets)  # cumulative counts
        count = next(
            float(line.rsplit(" ", 1)[1])
            for line in text.strip().split("\n")
            if line.startswith("latency_seconds_count")
        )
        assert buckets[-1] == count  # +Inf bucket equals _count

    def test_merged_cross_process_snapshot_renders(self):
        a = _populated_registry().snapshot()
        b = _populated_registry().snapshot()
        merged = MetricsRegistry().merge_snapshot(merge_snapshots(a, b))
        text = merged.to_prometheus()
        assert 'requests_total{klass="gold",tenant="a"} 6' in text


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.5
        return self.now


class TestTracer:
    def test_parent_child_share_trace_id(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.start_span("gateway.request", tenant="a")
        child = tracer.start_span("replica.dispatch", parent=root.context())
        child.end()
        root.end()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        finished = tracer.trace(root.trace_id)
        assert [s["name"] for s in finished] == \
            ["replica.dispatch", "gateway.request"]
        assert all(s["duration_s"] > 0 for s in finished)

    def test_deterministic_ids_and_virtual_durations(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.start_span("work")
        span.end()
        record = tracer.finished()[0]
        assert record["trace_id"] == "t1"
        assert record["span_id"] == "s1"
        assert record["duration_s"] == 0.5  # exactly one fake tick

    def test_context_manager_marks_errors(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.start_span("work"):
                raise RuntimeError("boom")
        record = tracer.finished()[0]
        assert record["status"] == "error"
        assert "boom" in record["attrs"]["error"]

    def test_ring_is_bounded(self):
        tracer = Tracer(clock=FakeClock(), capacity=4)
        for i in range(10):
            tracer.start_span(f"s{i}").end()
        names = [r["name"] for r in tracer.finished()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_ring_direct(self):
        ring = SpanRing(capacity=2)
        for i in range(5):
            ring.append({"i": i})
        assert [r["i"] for r in ring.records()] == [3, 4]
        assert len(ring) == 2

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JsonlSpanSink(path) as sink:
            tracer = Tracer(clock=FakeClock(), sink=sink)
            tracer.start_span("a").end()
            tracer.start_span("b").end()
        lines = path.read_text().strip().split("\n")
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_ingest_foreign_span(self):
        tracer = Tracer(clock=FakeClock())
        tracer.ingest({"name": "engine.predict", "trace_id": "t9",
                       "span_id": "w1.1", "status": "ok"})
        assert tracer.finished()[0]["span_id"] == "w1.1"


# ----------------------------------------------------------------------
# Trace propagation through the serving fabric
# ----------------------------------------------------------------------
def _span_chain(tracer, trace_id):
    """Finished spans of one trace, root first."""
    spans = tracer.trace(trace_id)
    order = {"gateway.request": 0, "replica.dispatch": 1, "engine.predict": 2}
    return sorted(spans, key=lambda s: order[s["name"]])


class TestFabricTracing:
    def test_inline_fabric_single_trace_id(self):
        engine = _engine()
        tracer = Tracer()
        with ReplicaPool(engine, n_replicas=2, mode="inline") as pool:
            gateway = Gateway(pool, max_batch=4, tracer=tracer,
                              metrics=MetricsRegistry())
            tickets = gateway.submit_many(_traffic(engine, 4))
            gateway.flush()
        trace_ids = {t.span.trace_id for t in tickets}
        assert len(trace_ids) == 4  # one trace per request
        chain = _span_chain(tracer, tickets[0].span.trace_id)
        assert [s["name"] for s in chain] == \
            ["gateway.request", "replica.dispatch", "engine.predict"]
        assert chain[2]["attrs"]["transport"] == "inline"

    def test_process_fabric_trace_crosses_worker_boundary(self):
        engine = _engine()
        tracer = Tracer()
        X = _traffic(engine, 8)
        with ReplicaPool(engine, n_replicas=2, mode="process",
                         max_batch=8) as pool:
            gateway = Gateway(pool, max_batch=8, tracer=tracer,
                              metrics=MetricsRegistry())
            tickets = gateway.submit_many(X, keys=[0] * len(X))
            gateway.flush()
            assert [t.prediction for t in tickets] == \
                engine.predict(X).tolist()
        # The acceptance contract: the trace_id minted at submit shows
        # up on all three layers, including the worker-side engine span.
        chain = _span_chain(tracer, tickets[0].span.trace_id)
        assert [s["name"] for s in chain] == \
            ["gateway.request", "replica.dispatch", "engine.predict"]
        assert {s["trace_id"] for s in chain} == {tickets[0].span.trace_id}
        engine_span = chain[2]
        assert engine_span["attrs"]["transport"] == "shm"
        assert chain[1]["attrs"]["transport"] == "process"
        assert engine_span["attrs"]["n_rows"] == len(X)
        assert engine_span["parent_id"] == chain[1]["span_id"]
        assert chain[1]["parent_id"] == chain[0]["span_id"]
        assert engine_span["span_id"].startswith("w")  # worker-minted

    def test_killed_worker_closes_dispatch_span_with_error(self):
        engine = _engine()
        tracer = Tracer()
        X = _traffic(engine, 8)
        with ReplicaPool(engine, n_replicas=2, mode="process",
                         max_batch=64) as pool:
            gateway = Gateway(pool, max_batch=64, tracer=tracer,
                              metrics=MetricsRegistry())
            tickets = gateway.submit_many(X, keys=[0] * len(X))
            victim = pool.replicas[0]
            victim._proc.kill()
            victim._proc.join(timeout=5.0)
            gateway.flush()  # dispatch fails over to the survivor
            assert [t.prediction for t in tickets] == \
                engine.predict(X).tolist()
            assert not victim.healthy
        errored = [s for s in tracer.finished()
                   if s["name"] == "replica.dispatch"
                   and s["status"] == "error"]
        assert errored, "the failed dispatch must export an error span"
        # Every request still resolved: each trace also has an ok chain.
        ok = _span_chain(tracer, tickets[0].span.trace_id)
        assert ok[0]["status"] == "ok"

    def test_worker_metrics_merge_into_parent_registry(self):
        engine = _engine()
        reg = MetricsRegistry()
        X = _traffic(engine, 8)
        with ReplicaPool(engine, n_replicas=2, mode="process",
                         max_batch=8) as pool:
            gateway = Gateway(pool, max_batch=8, metrics=reg)
            gateway.submit_many(X)
            gateway.flush()
            merged = pool.collect_metrics(reg)
        assert merged == 2
        snap = reg.snapshot()["metrics"]
        samples = sum(s["value"]
                      for s in snap["engine_samples_total"]["series"])
        assert samples == len(X)


# ----------------------------------------------------------------------
# CLI: repro obs + the instrumented serve path
# ----------------------------------------------------------------------
class TestObsCli:
    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_obs_requires_an_action(self):
        code, text = self.run_cli(["obs"])
        assert code == 2
        assert "nothing to render" in text

    def test_obs_snapshot_merges_files(self, tmp_path):
        for name, n in (("a.json", 2), ("b.json", 5)):
            reg = MetricsRegistry()
            reg.counter("hits_total", shard=name[0]).inc(n)
            reg.counter("hits_total", shard="common").inc(1)
            (tmp_path / name).write_text(reg.to_json())
        code, text = self.run_cli([
            "obs", "--snapshot", str(tmp_path / "a.json"),
            str(tmp_path / "b.json"),
        ])
        assert code == 0
        merged = json.loads(text)
        series = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in merged["metrics"]["hits_total"]["series"]
        }
        assert series[(("shard", "common"),)] == 2
        assert series[(("shard", "a"),)] == 2
        assert series[(("shard", "b"),)] == 5

    def test_obs_prom_renders_parseable_exposition(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(_populated_registry().to_json())
        code, text = self.run_cli(["obs", "--prom", str(path)])
        assert code == 0
        for line in text.strip().split("\n"):
            if not line.startswith("#"):
                assert _PROM_LINE.match(line), line

    def test_obs_traces_summary(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        spans = [
            {"name": "gateway.request", "status": "ok", "duration_s": 0.01},
            {"name": "gateway.request", "status": "shed", "duration_s": 0.0},
            {"name": "engine.predict", "status": "ok", "duration_s": 0.002},
        ]
        path.write_text("\n".join(json.dumps(s) for s in spans) + "\n")
        code, text = self.run_cli(["obs", "--traces", str(path)])
        assert code == 0
        lines = text.strip().split("\n")
        assert len(lines) == 2
        gateway_line = next(ln for ln in lines if "gateway.request" in ln)
        assert " 2 spans" in gateway_line
        assert " 1 errors" in gateway_line

    def test_serve_fabric_tenants_metrics_and_traces(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        traces_path = tmp_path / "spans.jsonl"
        code, text = self.run_cli([
            "serve", "--dataset", "mnist", "--clauses", "4", "--epochs",
            "1", "--train", "80", "--test", "40", "--no-check",
            "--requests", "12", "--replicas", "2", "--replica-mode",
            "inline", "--max-batch", "4", "--tenants", "acme,globex",
            "--klass", "gold", "--metrics-json", str(metrics_path),
            "--trace-jsonl", str(traces_path),
        ])
        assert code == 0
        assert "metrics:" in text and "traces:" in text
        snap = json.loads(metrics_path.read_text())["metrics"]
        # The bulk submit path carried tenant + klass onto the series.
        series = {
            (s["labels"]["tenant"], s["labels"]["klass"]): s["value"]
            for s in snap["fabric_requests_total"]["series"]
        }
        assert series == {("acme", "gold"): 6, ("globex", "gold"): 6}
        assert "train_epoch_seconds" in snap  # training rode along
        spans = [json.loads(line)
                 for line in traces_path.read_text().strip().split("\n")]
        roots = [s for s in spans if s["name"] == "gateway.request"]
        assert len(roots) == 12
        assert {s["attrs"]["tenant"] for s in roots} == {"acme", "globex"}

    def test_serve_single_replica_honours_tenants_klass_and_traces(
            self, tmp_path):
        # One replica takes the same gateway path as a fleet, so the
        # QoS/observability flags are not dropped.
        metrics_path = tmp_path / "metrics.json"
        traces_path = tmp_path / "spans.jsonl"
        code, text = self.run_cli([
            "serve", "--dataset", "mnist", "--clauses", "4", "--epochs",
            "1", "--train", "80", "--test", "40", "--no-check",
            "--requests", "10", "--replicas", "1", "--replica-mode",
            "inline", "--max-batch", "4", "--tenants", "a,b",
            "--klass", "gold", "--metrics-json", str(metrics_path),
            "--trace-jsonl", str(traces_path),
        ])
        assert code == 0
        assert "ignored" not in text
        assert "1-replica gateway" in text
        snap = json.loads(metrics_path.read_text())["metrics"]
        series = {
            (s["labels"]["tenant"], s["labels"]["klass"]): s["value"]
            for s in snap["fabric_requests_total"]["series"]
        }
        assert series == {("a", "gold"): 5, ("b", "gold"): 5}
        spans = [json.loads(line)
                 for line in traces_path.read_text().strip().split("\n")]
        roots = [s for s in spans if s["name"] == "gateway.request"]
        assert len(roots) == 10
        assert {s["attrs"]["tenant"] for s in roots} == {"a", "b"}

    def test_registry_scoping_restores_previous(self, tmp_path):
        # _metrics_capture must restore the prior registry even after a
        # run that wrote a snapshot.
        before = get_registry()
        metrics_path = tmp_path / "m.json"
        code, _ = self.run_cli([
            "serve", "--dataset", "mnist", "--clauses", "4", "--epochs",
            "1", "--train", "80", "--test", "40", "--no-check",
            "--requests", "4", "--metrics-json", str(metrics_path),
        ])
        assert code == 0
        assert metrics_path.exists()
        assert get_registry() is before
