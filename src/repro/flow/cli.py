"""Command-line front-end — the GUI substitute (Fig. 6a).

The Tkinter GUI of the original tool walks users through design space
exploration and implementation with no coding; this CLI exposes the same
flow stages as subcommands:

.. code-block:: console

   matador run --dataset kws6 --clauses 40 --epochs 6 --outdir build/
   matador datasets
   matador table2
   matador emit --dataset mnist --clauses 20 --outdir rtl/
   matador serve --dataset kws6 --requests 512 --max-batch 64
   matador serve --dataset kws6 --replicas 4 --requests 2048
   matador stream --dataset kws6 --samples 2600 --drift-at 1200 \\
       --report stream.json
   matador sweep --dataset kws6 --clauses 8,16,24 --T 10,20 --jobs 4 \\
       --resume --report pareto.json
   matador automl --dataset kws6 --T 8,12,16 --s 3,4,5 --eta 3 \\
       --min-budget 1 --max-budget 9 --resume --deploy \\
       --report automl.json --metrics-json automl-metrics.json
   matador matrix --dataset all --clauses 8,16 --T 10 --epochs 2 \\
       --report matrix.json --markdown matrix.md
   matador obs --snapshot m1.json m2.json
   matador obs --prom metrics.json --traces spans.jsonl

``run`` executes train -> analyze -> generate -> implement -> verify and
optionally writes the deployment bundle; ``emit`` stops after RTL
generation.  ``serve`` trains (or imports) a model, publishes it to a
serving registry and drives micro-batched request traffic through the
packed inference engine with differential sim-vs-software checking —
``--replicas N`` fans the traffic across a sharded multi-replica fabric
(one worker process per replica) behind a routing gateway.
``stream`` runs a continual-learning session: replay a dataset as
request traffic (optionally with induced concept drift), serve it
micro-batched, detect drift from served predictions vs delayed labels,
train a challenger online and hot-promote it through the registry.
``sweep`` fans a design-space grid across a process pool with a
content-addressed result cache (``--resume`` recovers crashed or
repeated sweeps instantly) and emits Pareto-annotated JSON/CSV reports.
``automl`` replaces the exhaustive grid with a successive-halving
budget allocator: every candidate trains a few epochs, each rung keeps
the Pareto-best ``1/eta`` fraction with an ``eta``-multiplied budget,
rung records resume bit-identically from the same cache, and
``--deploy`` ships the winner to a live replica fleet through the
rolling promoter, emitting the full audit report.
``matrix`` runs one config grid across many registered datasets
(``--dataset all`` expands to the whole registry) and emits a
deterministic cross-dataset accuracy/latency/LUT Pareto report as JSON
and markdown; ``datasets`` introspects the typed registry the matrix
(and every ``--dataset`` flag) resolves names against.  JSON flow
configs (``--config flow.json``) reproduce runs exactly; the same CLI is
installed as both ``matador`` and ``repro`` (``python -m repro``).

Observability rides along everywhere: ``serve`` and ``automl`` accept
``--metrics-json PATH`` to scope the process metrics registry
(:mod:`repro.obs`) to the run and write its merged snapshot —
for a process-replica fabric that includes the worker-side engine
timings — and ``serve --trace-jsonl PATH`` records finished request
spans.  ``obs`` merges and renders those artifacts offline
(``--snapshot``/``--prom``/``--traces``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..baselines.topologies import TABLE_II
from ..data.loaders import DATASET_REGISTRY
from ..data.transforms import DRIFT_KINDS
from .flow import FlowConfig, MatadorFlow

__all__ = ["main", "build_parser"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matador",
        description="MATADOR: automated SoC Tsetlin Machine design generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the full design flow")
    _add_flow_args(run)
    run.add_argument("--outdir", default=None, help="write deployment bundle here")
    run.add_argument("--no-verify", action="store_true", help="skip auto-debug")
    run.add_argument("--json", action="store_true", help="print machine-readable result")

    emit = sub.add_parser("emit", help="generate RTL only")
    _add_flow_args(emit)
    emit.add_argument("--outdir", required=True, help="directory for RTL artifacts")

    serve = sub.add_parser(
        "serve", help="serve micro-batched inference with differential checking"
    )
    _add_flow_args(serve)
    serve.add_argument("--requests", type=int, default=256,
                       help="number of single-sample requests to drive")
    serve.add_argument("--replicas", type=int, default=1,
                       help="serve through a gateway over N engine "
                            "replicas")
    serve.add_argument("--replica-mode", default=None,
                       choices=("process", "inline"),
                       help="replica hosting (inline = in-process, "
                            "deterministic; default: inline for one "
                            "replica, one worker process each otherwise)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="micro-batch size trigger")
    serve.add_argument("--max-delay-us", type=float, default=2000.0,
                       help="micro-batch deadline in microseconds")
    serve.add_argument("--check-fraction", type=float, default=0.1,
                       help="fraction of served batches replayed through "
                            "the cycle-accurate simulator")
    serve.add_argument("--no-check", action="store_true",
                       help="skip accelerator generation and differential "
                            "checking")
    serve.add_argument("--max-queue", type=int, default=4096,
                       help="fabric bound on requests queued + in flight")
    serve.add_argument("--overflow", default="wait",
                       choices=("wait", "error", "shed"),
                       help="fabric policy past --max-queue: wait "
                            "(backpressure), error (raise), shed (resolve "
                            "the request as refused)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="latency SLO deadline; requests the fabric "
                            "provably cannot serve in time are shed")
    serve.add_argument("--admit-rate", type=float, default=None,
                       help="per-tenant admission rate limit (requests/s)")
    serve.add_argument("--admit-burst", type=float, default=None,
                       help="per-tenant admission burst tokens")
    serve.add_argument("--quota", type=int, default=None,
                       help="per-tenant lifetime request quota")
    serve.add_argument("--tenants", default=None,
                       help="comma-separated tenant names cycled across "
                            "requests (admission + per-tenant metrics)")
    serve.add_argument("--klass", default=None,
                       help="priority class label attached to every request")
    serve.add_argument("--metrics-json", default=None, dest="metrics_json",
                       help="write the run's merged metrics snapshot "
                            "(gateway + replica workers) to this path")
    serve.add_argument("--trace-jsonl", default=None, dest="trace_jsonl",
                       help="write finished request spans to this JSONL "
                            "path")
    serve.add_argument("--json", action="store_true",
                       help="print machine-readable serving stats")

    stream = sub.add_parser(
        "stream",
        help="continual-learning session: serve a stream, detect drift, "
             "promote online-trained challengers",
    )
    _add_stream_args(stream)

    sweep = sub.add_parser(
        "sweep",
        help="parallel design-space exploration with a resumable cache",
    )
    _add_sweep_args(sweep)

    automl = sub.add_parser(
        "automl",
        help="successive-halving search over the grid, optionally "
             "deploying the winner to a serving fleet",
    )
    _add_automl_args(automl)

    matrix = sub.add_parser(
        "matrix",
        help="scenario matrix: run a config grid across many datasets "
             "and emit one cross-dataset Pareto report",
    )
    _add_matrix_args(matrix)

    obs = sub.add_parser(
        "obs",
        help="merge and render observability artifacts (metric "
             "snapshots, span sinks)",
    )
    obs.add_argument("--snapshot", nargs="+", default=None, metavar="JSON",
                     help="merge these metric snapshot files and print "
                          "the canonical JSON snapshot")
    obs.add_argument("--prom", nargs="+", default=None, metavar="JSON",
                     help="merge these metric snapshot files and print "
                          "Prometheus text exposition")
    obs.add_argument("--traces", default=None, metavar="JSONL",
                     help="summarize a span JSONL sink: per-span-name "
                          "count, errors and latency")

    sub.add_parser("datasets", help="list available datasets")
    sub.add_parser("table2", help="print the Table II model configurations")
    return parser


def _add_flow_args(cmd):
    cmd.add_argument("--config", default=None, help="JSON flow config file")
    cmd.add_argument("--dataset", default="mnist", choices=sorted(DATASET_REGISTRY))
    cmd.add_argument("--clauses", type=int, default=40, help="clauses per class")
    cmd.add_argument("--T", type=int, default=20)
    cmd.add_argument("--s", type=float, default=5.0)
    cmd.add_argument("--epochs", type=int, default=6)
    cmd.add_argument("--train", type=int, default=500, dest="n_train")
    cmd.add_argument("--test", type=int, default=200, dest="n_test")
    cmd.add_argument("--bus-width", type=int, default=64)
    cmd.add_argument("--clock", type=float, default=None, help="MHz (default: max passing)")
    cmd.add_argument("--no-pipeline", action="store_true", help="disable pipelining")
    cmd.add_argument("--dont-touch", action="store_true", help="disable logic sharing")
    cmd.add_argument("--seed", type=int, default=42)
    cmd.add_argument("--backend", default="vectorized",
                     choices=("reference", "vectorized"),
                     help="training engine (results are bit-identical; "
                          "vectorized is much faster)")
    cmd.add_argument("--model-family", default="flat", dest="model_family",
                     choices=("flat", "coalesced", "convolutional"),
                     help="TM family to train (convolutional is "
                          "software/serving-only: hardware stages render n/a)")
    cmd.add_argument("--import-model", default=None, dest="model_path",
                     help="import a trained model instead of training")
    cmd.add_argument("--name", default="matador_accel")


def _add_stream_args(cmd):
    cmd.add_argument("--dataset", default="kws6",
                     choices=sorted(DATASET_REGISTRY))
    cmd.add_argument("--train", type=int, default=500, dest="n_train",
                     help="dataset training-split size the stream replays")
    cmd.add_argument("--test", type=int, default=100, dest="n_test")
    cmd.add_argument("--clauses", type=int, default=24, help="clauses per class")
    cmd.add_argument("--T", type=int, default=10)
    cmd.add_argument("--s", type=float, default=4.0)
    cmd.add_argument("--seed", type=int, default=42)
    cmd.add_argument("--backend", default="vectorized",
                     choices=("reference", "vectorized"))
    cmd.add_argument("--samples", type=int, default=2600,
                     help="total streamed samples (including warmup)")
    cmd.add_argument("--batch-size", type=int, default=32,
                     help="stream chunk size")
    cmd.add_argument("--warmup", type=int, default=400,
                     help="samples used to train + publish the initial champion")
    cmd.add_argument("--drift-at", type=int, default=None,
                     help="induce synthetic drift at this sample index")
    cmd.add_argument("--drift-kind", default="labels", choices=DRIFT_KINDS,
                     help="induced drift transform (repro.data.transforms "
                          "via drift_transform)")
    cmd.add_argument("--drift-width", type=int, default=0,
                     help="0 = abrupt shift; >0 = sliding-window ramp length")
    cmd.add_argument("--max-batch", type=int, default=32,
                     help="serving micro-batch size trigger")
    cmd.add_argument("--label-delay", type=int, default=1,
                     help="batches between serving and label arrival")
    cmd.add_argument("--adapt-window", type=int, default=400,
                     help="labelled samples a challenger trains on")
    cmd.add_argument("--eval-window", type=int, default=200,
                     help="labelled samples for the shadow evaluation")
    cmd.add_argument("--margin", type=float, default=0.0,
                     help="required challenger shadow-accuracy edge")
    cmd.add_argument("--detector-window", type=int, default=400,
                     help="drift-detector correctness window")
    cmd.add_argument("--report", default=None,
                     help="write the session report JSON here")
    cmd.add_argument("--json", action="store_true",
                     help="print the session report as JSON")


def _add_grid_args(cmd, cache_default, dataset_default="kws6"):
    """Shared grid flags: every axis takes a comma-separated value list."""
    cmd.add_argument("--spec", default=None,
                     help="JSON sweep spec ({'base':..., 'grid':...} or "
                          "{'points': [...]}); grid flags are ignored")
    cmd.add_argument("--dataset", default=dataset_default,
                     help="comma-separated dataset axis ('all' expands to "
                          "every registered dataset)")
    cmd.add_argument("--clauses", default="8,16",
                     help="comma-separated clauses-per-class axis")
    cmd.add_argument("--T", default="10", help="comma-separated T axis")
    cmd.add_argument("--s", default="5.0", help="comma-separated s axis")
    cmd.add_argument("--bus-width", default="64",
                     help="comma-separated AXI bus-width axis")
    cmd.add_argument("--model-family", default="flat", dest="model_family",
                     help="comma-separated family axis "
                          "(flat,coalesced,convolutional)")
    cmd.add_argument("--backend", default="vectorized",
                     help="comma-separated training-backend axis")
    cmd.add_argument("--clock", default=None,
                     help="comma-separated clock-target axis in MHz "
                          "(default: max passing per design)")
    cmd.add_argument("--epochs", type=int, default=4)
    cmd.add_argument("--train", type=int, default=300, dest="n_train")
    cmd.add_argument("--test", type=int, default=150, dest="n_test")
    cmd.add_argument("--seed", type=int, default=42)
    cmd.add_argument("--jobs", type=int, default=1,
                     help="process-pool width (1 = inline)")
    cmd.add_argument("--cache-dir", default=cache_default,
                     help="content-addressed result cache root")
    cmd.add_argument("--no-cache", action="store_true",
                     help="disable the result cache entirely")
    cmd.add_argument("--resume", action="store_true",
                     help="reuse cached records (re-runs and crashed runs "
                          "complete instantly)")
    cmd.add_argument("--report", default=None,
                     help="write the JSON report here")
    cmd.add_argument("--json", action="store_true",
                     help="print the JSON report to stdout")


def _add_sweep_args(cmd):
    _add_grid_args(cmd, cache_default=".matador_sweep")
    cmd.add_argument("--verify", action="store_true",
                     help="run auto-debug verification for every point")
    cmd.add_argument("--csv", default=None,
                     help="write the flat per-point CSV here")


def _add_matrix_args(cmd):
    _add_grid_args(cmd, cache_default=".matador_matrix", dataset_default="all")
    cmd.add_argument("--markdown", default=None,
                     help="write the markdown Pareto tables here")


def _add_automl_args(cmd):
    _add_grid_args(cmd, cache_default=".matador_automl")
    cmd.add_argument("--eta", type=int, default=3,
                     help="halving rate: each rung keeps the Pareto-best "
                          "ceil(n/eta) candidates with eta x the budget")
    cmd.add_argument("--min-budget", type=int, default=1,
                     help="first-rung epoch budget")
    cmd.add_argument("--max-budget", type=int, default=None,
                     help="final epoch budget (default: --epochs)")
    cmd.add_argument("--deploy", action="store_true",
                     help="ship the winner to a replica fleet via the "
                          "rolling promoter after the search")
    cmd.add_argument("--replicas", type=int, default=2,
                     help="deploy fleet width")
    cmd.add_argument("--replica-mode", default="inline",
                     choices=("process", "inline"),
                     help="deploy replica hosting (inline = in-process, "
                          "deterministic)")
    cmd.add_argument("--max-batch", type=int, default=32,
                     help="deploy micro-batch size trigger")
    cmd.add_argument("--deploy-requests", type=int, default=256,
                     help="post-promotion requests driven through the fleet")
    cmd.add_argument("--margin", type=float, default=0.0,
                     help="required challenger shadow-accuracy edge")
    cmd.add_argument("--metrics-json", default=None, dest="metrics_json",
                     help="write the run's metrics snapshot to this path")


def _config_from_args(args):
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            return FlowConfig.from_dict(json.load(f))
    return FlowConfig(
        dataset=args.dataset,
        n_train=args.n_train,
        n_test=args.n_test,
        clauses_per_class=args.clauses,
        T=args.T,
        s=args.s,
        epochs=args.epochs,
        train_seed=args.seed,
        backend=args.backend,
        model_family=args.model_family,
        bus_width=args.bus_width,
        pipeline_class_sum=not args.no_pipeline,
        pipeline_argmax=not args.no_pipeline,
        share_logic=not args.dont_touch,
        clock_mhz=args.clock,
        name=args.name,
        model_path=args.model_path,
    )


def _cmd_run(args, out):
    config = _config_from_args(args)
    flow = MatadorFlow(
        config,
        progress=lambda stage, sec: print(f"  [{stage}] {sec:.2f}s", file=out),
    )
    result = flow.run(verify=not args.no_verify)
    if args.outdir:
        if result.model is None:
            # Families without a hardware translation (convolutional)
            # have nothing to bundle.
            print(f"run: model family {config.model_family!r} has no "
                  "deployment bundle; --outdir ignored", file=out)
        else:
            files = flow.deploy(args.outdir)
            print(f"deployment bundle: {len(files)} files in {args.outdir}",
                  file=out)
    if args.json:
        print(json.dumps(result.table_row(), indent=1), file=out)
    else:
        print(result.summary(), file=out)
    if result.verification is not None and not result.verification.passed:
        return 1
    return 0


def _cmd_emit(args, out):
    config = _config_from_args(args)
    if config.model_family == "convolutional":
        print("emit: the convolutional family has no RTL translation yet",
              file=out)
        return 2
    flow = MatadorFlow(config)
    flow.load_data()
    flow.train()
    flow.generate()
    flow.implement()
    files = flow.deploy(args.outdir)
    for f in files:
        print(f, file=out)
    return 0


@contextmanager
def _metrics_capture(path, out):
    """Scope the process metrics registry to one CLI run.

    Without a ``path`` this is a no-op (instrumented layers keep writing
    into whatever registry is installed).  With one, a fresh registry is
    installed for the duration — so the snapshot written on exit covers
    exactly this run — and the previous registry is restored after.
    """
    if not path:
        yield None
        return
    from ..obs import MetricsRegistry, get_registry, set_registry

    previous = get_registry()
    registry = MetricsRegistry()
    set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
        snap_path = Path(path)
        snap_path.parent.mkdir(parents=True, exist_ok=True)
        snap_path.write_text(registry.to_json() + "\n", encoding="utf-8")
        print(f"metrics: {path}", file=out)


def _cmd_serve(args, out):
    from ..serving import (
        SLO,
        AdmissionController,
        DifferentialChecker,
        Gateway,
        Registry,
        ReplicaPool,
    )

    if args.requests < 1:
        print("serve: --requests must be >= 1", file=out)
        return 2
    if args.replicas < 1:
        print("serve: --replicas must be >= 1", file=out)
        return 2
    config = _config_from_args(args)
    flow = MatadorFlow(
        config,
        progress=lambda stage, sec: print(f"  [{stage}] {sec:.2f}s", file=out),
    )
    ds = flow.load_data()
    model = flow.train()

    registry = Registry()
    engine = registry.publish(config.name, model)
    checker = None
    if not args.no_check and flow.result.model is None:
        # No generated design to differentially check against.
        print(f"serve: model family {config.model_family!r} has no "
              "accelerator design; differential checking disabled", file=out)
        args.no_check = True
    if not args.no_check:
        design = flow.generate()
        # Record mismatches instead of raising so the session finishes,
        # reports, and exits 1 — the CLI's divergence contract.
        checker = DifferentialChecker(
            design, fraction=args.check_fraction, seed=config.train_seed,
            raise_on_mismatch=False,
        )
    # Drive request traffic: test-set samples, one request at a time.
    n = args.requests
    X = ds.X_test[np.arange(n) % len(ds.X_test)]
    y = ds.y_test[np.arange(n) % len(ds.y_test)]
    tenants = None
    if args.tenants:
        names = [name for name in args.tenants.split(",") if name]
        tenants = [names[i % len(names)] for i in range(n)]

    tracer = sink = None
    if args.trace_jsonl:
        from ..obs import JsonlSpanSink, Tracer

        trace_path = Path(args.trace_jsonl)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        sink = JsonlSpanSink(trace_path)
        tracer = Tracer(sink=sink)
    admission = None
    if args.admit_rate is not None or args.quota is not None:
        admission = AdmissionController(
            rate=args.admit_rate, burst=args.admit_burst, quota=args.quota)
    slo = None
    if args.deadline_ms is not None:
        slo = SLO(deadline_s=args.deadline_ms * 1e-3)
    mode = args.replica_mode or ("inline" if args.replicas == 1
                                 else "process")
    with ReplicaPool(engine, n_replicas=args.replicas, mode=mode,
                     max_batch=args.max_batch) as pool:
        gateway = Gateway(
            pool,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            overflow=args.overflow,
            max_delay=args.max_delay_us * 1e-6,
            admission=admission,
            slo=slo,
            observers=[checker] if checker is not None else (),
            tracer=tracer,
        )
        t0 = time.perf_counter()
        tickets = gateway.submit_many(X, tenants=tenants, klass=args.klass)
        gateway.flush()
        elapsed = time.perf_counter() - t0
        if args.metrics_json:
            # Fold the worker-side registries (engine batch timings)
            # into the run snapshot while the workers are still up.
            gateway.pool.collect_metrics()
        served_detail = gateway.report()
    if sink is not None:
        sink.close()
        print(f"traces: {args.trace_jsonl}", file=out)
    answered = [(t, lbl) for t, lbl in zip(tickets, y) if not t.shed]
    n_shed = len(tickets) - len(answered)
    correct = sum(t.result() == int(lbl) for t, lbl in answered)

    n_answered = n - n_shed
    stats = {
        "model": f"{engine.name}:v{engine.version}",
        "requests": n,
        "replicas": args.replicas,
        "elapsed_s": round(elapsed, 4),
        "requests_per_s": round(n / elapsed, 1) if elapsed > 0 else None,
        "shed": n_shed,
        "accuracy": round(correct / n_answered, 4) if n_answered else None,
        "serving": served_detail,
        "differential": checker.report() if checker is not None else None,
    }
    if args.json:
        print(json.dumps(stats, indent=1), file=out)
    else:
        shed_note = f", {n_shed} shed" if n_shed else ""
        print(
            f"served {n_answered} requests as {gateway.stats.n_batches} "
            f"batches via {args.replicas}-replica gateway in "
            f"{elapsed:.3f}s = {stats['requests_per_s']:.0f} "
            f"req/s{shed_note}, accuracy {stats['accuracy']:.4f}",
            file=out,
        )
        if checker is not None:
            print(checker.summary(), file=out)
    if checker is not None and not checker.clean:
        return 1
    return 0


def _cmd_stream(args, out):
    from ..data.loaders import load_dataset
    from ..streaming import (
        DriftDetector,
        DriftStream,
        ReplayStream,
        StreamSession,
        drift_transform,
    )
    from ..tsetlin import TsetlinMachine

    ds = load_dataset(args.dataset, n_train=args.n_train, n_test=args.n_test,
                      seed=0)
    stream = ReplayStream(ds, batch_size=args.batch_size,
                          n_samples=args.samples, seed=args.seed)
    if args.drift_at is not None:
        transform = drift_transform(args.drift_kind, ds, seed=args.seed)
        stream = DriftStream(stream, transform, drift_at=args.drift_at,
                             width=args.drift_width, seed=args.seed)

    def factory(seed):
        return TsetlinMachine(
            n_classes=ds.n_classes, n_features=ds.n_features,
            n_clauses=args.clauses, T=args.T, s=args.s, seed=seed,
            backend=args.backend,
        )

    session = StreamSession(
        stream, factory, warmup=args.warmup, name=args.dataset,
        detector=DriftDetector(window=args.detector_window),
        max_batch=args.max_batch, label_delay=args.label_delay,
        adapt_window=args.adapt_window, eval_window=args.eval_window,
        promote_margin=args.margin, seed=args.seed,
    )
    report = session.run()
    if args.json:
        print(json.dumps(report, indent=1), file=out)
    else:
        acc = report["accuracy"]
        print(
            f"streamed {report['requests']} requests "
            f"({report['unresolved']} unresolved), "
            f"{len(report['detections'])} drift detection(s), "
            f"{len(report['promotions'])} promotion(s), "
            f"live version v{report['live_version']}",
            file=out,
        )
        for key, value in acc.items():
            if value is not None:
                print(f"  accuracy[{key}] = {value:.4f}", file=out)
        if report["detection_delay"] is not None:
            print(f"  detection delay: {report['detection_delay']} samples",
                  file=out)
    if args.report:
        report_path = Path(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
        print(f"report: {args.report}", file=out)
    return 1 if report["unresolved"] else 0


def _split_axis(text, convert=str):
    return [convert(part) for part in str(text).split(",") if part != ""]


def _expand_datasets(values):
    """Expand the literal ``all`` to every registered dataset, deduped."""
    names = []
    for value in values:
        expanded = sorted(DATASET_REGISTRY) if value == "all" else [value]
        names.extend(name for name in expanded if name not in names)
    return names


def _spec_from_args(args):
    from ..sweep import SweepSpec

    if args.spec:
        return SweepSpec.from_file(args.spec)
    base = FlowConfig(
        n_train=args.n_train,
        n_test=args.n_test,
        epochs=args.epochs,
        train_seed=args.seed,
    )
    axes = {
        "dataset": _expand_datasets(_split_axis(args.dataset)),
        "clauses_per_class": _split_axis(args.clauses, int),
        "T": _split_axis(args.T, int),
        "s": _split_axis(args.s, float),
        "bus_width": _split_axis(args.bus_width, int),
        "model_family": _split_axis(args.model_family),
        "backend": _split_axis(args.backend),
    }
    if args.clock:
        axes["clock_mhz"] = _split_axis(args.clock, float)
    return SweepSpec.from_grid(base=base, **axes)


def _cmd_sweep(args, out):
    from ..sweep import run_sweep

    if args.jobs < 1:
        print("sweep: --jobs must be >= 1", file=out)
        return 2
    spec = _spec_from_args(args)
    cache_dir = None if args.no_cache else args.cache_dir
    result = run_sweep(
        spec,
        jobs=args.jobs,
        cache_dir=cache_dir,
        resume=args.resume,
        verify=args.verify,
    )

    if args.json:
        # Stdout is the machine-readable report alone; per-point errors
        # are inside it (points[].error).
        print(result.to_json(), file=out)
    else:
        print(result.table(), file=out)
        print(result.summary(), file=out)
        for point in result.errors:
            print(f"ERROR {point.key[:12]} {point.config.get('dataset')}: "
                  f"{point.error}", file=out)
    if args.report:
        report_path = Path(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(result.to_json(), encoding="utf-8")
        print(f"report: {args.report}", file=out)
    if args.csv:
        csv_path = Path(args.csv)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(result.to_csv(), encoding="utf-8")
        print(f"csv: {args.csv}", file=out)
    return 1 if result.errors else 0


def _cmd_matrix(args, out):
    from ..sweep import run_matrix

    if args.jobs < 1:
        print("matrix: --jobs must be >= 1", file=out)
        return 2
    spec = _spec_from_args(args)
    cache_dir = None if args.no_cache else args.cache_dir
    result = run_matrix(
        spec,
        jobs=args.jobs,
        cache_dir=cache_dir,
        resume=args.resume,
    )

    if args.json:
        print(result.to_json(), file=out)
    else:
        print(result.to_markdown(), file=out)
        print(result.summary(), file=out)
        for point in result.sweep.errors:
            print(f"ERROR {point.key[:12]} {point.config.get('dataset')}: "
                  f"{point.error}", file=out)
    if args.report:
        report_path = Path(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(result.to_json(), encoding="utf-8")
        print(f"report: {args.report}", file=out)
    if args.markdown:
        md_path = Path(args.markdown)
        md_path.parent.mkdir(parents=True, exist_ok=True)
        md_path.write_text(result.to_markdown(), encoding="utf-8")
        print(f"markdown: {args.markdown}", file=out)
    return 1 if result.sweep.errors else 0


def _cmd_automl(args, out):
    from ..sweep import deploy_winner, run_automl

    if args.jobs < 1:
        print("automl: --jobs must be >= 1", file=out)
        return 2
    if args.eta < 2:
        print("automl: --eta must be >= 2", file=out)
        return 2
    if args.min_budget < 1:
        print("automl: --min-budget must be >= 1", file=out)
        return 2
    max_budget = args.max_budget if args.max_budget is not None else args.epochs
    if max_budget < args.min_budget:
        print("automl: --max-budget must be >= --min-budget", file=out)
        return 2
    spec = _spec_from_args(args)

    def progress(rung, budget, ranked):
        best = ranked[0]["metrics"].get("accuracy") if ranked else None
        best_text = f"{best:.4f}" if best is not None else "n/a"
        print(f"  [rung {rung}] budget={budget} candidates={len(ranked)} "
              f"best accuracy={best_text}", file=out)

    result = run_automl(
        spec,
        eta=args.eta,
        min_budget=args.min_budget,
        max_budget=max_budget,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        resume=args.resume,
        progress=None if args.json else progress,
    )
    deploy_ok = True
    if args.deploy and result.winner is not None:
        result.deploy = deploy_winner(
            result,
            replicas=args.replicas,
            mode=args.replica_mode,
            max_batch=args.max_batch,
            requests=args.deploy_requests,
            margin=args.margin,
        )
        deploy_ok = result.deploy["promoted"] and result.deploy["shed"] == 0

    if args.json:
        print(result.to_json(), file=out)
    else:
        print(result.summary(), file=out)
        if result.deploy is not None:
            d = result.deploy
            print(f"deployed {d['model']} v{d['new_version']} to "
                  f"{d['fleet']} replicas (promoted={d['promoted']}, "
                  f"shed={d['shed']})", file=out)
    if args.report:
        report_path = Path(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(result.to_json(), encoding="utf-8")
        print(f"report: {args.report}", file=out)
    return 0 if (result.winner is not None and deploy_ok) else 1


def _load_snapshots(paths):
    snaps = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            snaps.append(json.load(f))
    return snaps


def _cmd_obs(args, out):
    from ..obs import MetricsRegistry, merge_snapshots

    if not (args.snapshot or args.prom or args.traces):
        print("obs: nothing to render (pass --snapshot, --prom and/or "
              "--traces)", file=out)
        return 2
    if args.snapshot:
        merged = merge_snapshots(*_load_snapshots(args.snapshot))
        print(json.dumps(merged, indent=2, sort_keys=True), file=out)
    if args.prom:
        registry = MetricsRegistry()
        registry.merge_snapshot(merge_snapshots(*_load_snapshots(args.prom)))
        print(registry.to_prometheus(), file=out, end="")
    if args.traces:
        by_name = {}
        with open(args.traces, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                span = json.loads(line)
                entry = by_name.setdefault(
                    span.get("name", "?"),
                    {"count": 0, "errors": 0, "total_s": 0.0, "max_s": 0.0},
                )
                entry["count"] += 1
                if span.get("status") not in ("ok", None):
                    entry["errors"] += 1
                duration = float(span.get("duration_s") or 0.0)
                entry["total_s"] += duration
                entry["max_s"] = max(entry["max_s"], duration)
        for name in sorted(by_name):
            entry = by_name[name]
            mean_ms = 1e3 * entry["total_s"] / entry["count"]
            print(f"{name:24s} {entry['count']:6d} spans  "
                  f"{entry['errors']:4d} errors  "
                  f"mean {mean_ms:8.3f} ms  "
                  f"max {1e3 * entry['max_s']:8.3f} ms", file=out)
    return 0


def _cmd_datasets(out):
    for name in sorted(DATASET_REGISTRY):
        spec = DATASET_REGISTRY[name]
        shape = "x".join(str(d) for d in spec.input_shape)
        print(
            f"{name:14s} {spec.family:8s} {shape:>8s} = {spec.n_features:4d} "
            f"bits  {spec.n_classes:2d} classes  "
            f"{spec.n_train}/{spec.n_test}  {spec.booleanization}",
            file=out,
        )
    return 0


def _cmd_table2(out):
    for dataset, entry in TABLE_II.items():
        finn = entry["finn"]
        mat = entry["matador"]
        print(
            f"{dataset:8s} FINN {'-'.join(map(str, finn.layer_sizes)):>22s} "
            f"w{finn.weight_bits}a{finn.act_bits} | MATADOR "
            f"{mat.clauses_per_class} clauses/class",
            file=out,
        )
    return 0


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "emit":
        return _cmd_emit(args, out)
    if args.command == "serve":
        with _metrics_capture(args.metrics_json, out):
            return _cmd_serve(args, out)
    if args.command == "stream":
        return _cmd_stream(args, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    if args.command == "automl":
        with _metrics_capture(args.metrics_json, out):
            return _cmd_automl(args, out)
    if args.command == "matrix":
        return _cmd_matrix(args, out)
    if args.command == "obs":
        return _cmd_obs(args, out)
    if args.command == "datasets":
        return _cmd_datasets(out)
    if args.command == "table2":
        return _cmd_table2(out)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
