"""Run one workload in this process and print its result.

Started by ``run.py`` as a child in its own session, so that a hung
workload can be killed together with its replica workers::

    python3 perfbench/harness.py WORKLOAD SEED SECONDS TRACE TRACE_JSONL

The last line of standard output is ``RESULT`` followed by a JSON
object: whether every output was correct, the operations attempted and
failed, the metrics, and the workload's own named figures.

Set-up time, and the times of the workloads that run all their work in
this thread, are scaled by the host's speed while they ran
(``workloads.SpeedProbe``); the unscaled figures are printed beside the
result.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys

import tracing
from workloads import WORKLOADS, SpeedProbe

IMPORTS = "import numpy, repro.flow.flow, repro.serving, repro.streaming"
SETUP_REPS = 3


def fresh_imports():
    """The program's imports, in a new interpreter.

    SIGALRM is held off meanwhile, so that the speed probe does not
    compete with the child for a CPU; a sample that fell due runs after.
    """
    held = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
    try:
        subprocess.run([sys.executable, "-c", IMPORTS], check=True)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def own_segments():
    """This process's shared-memory rings (the fabric names them by pid)."""
    prefix = f"tmfab-{os.getpid()}-"
    return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]


def timed_setup(workload):
    """Set up ``SETUP_REPS`` times; keep the last state, close the rest.

    One set-up is the imports in a fresh interpreter plus
    ``workload.setup()``.  Returns the state and the median set-up time,
    scaled and unscaled.
    """
    def setup():
        fresh_imports()
        return workload.setup()

    raw, scaled = [], []
    with SpeedProbe() as probe:
        for rep in range(SETUP_REPS):
            state, seconds, scale = probe.timed(setup)
            raw.append(seconds)
            scaled.append(seconds * scale)
            if rep < SETUP_REPS - 1:
                workload.close(state)
    return state, statistics.median(scaled), statistics.median(raw)


def end_to_end(workload, m, setup_s):
    """The end-to-end metrics of one untraced window."""
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_kib / 1024.0,
        "throughput_per_s": m.throughput(),
        "latency_p50_ms": m.latency_ms(50),
        "slo_attainment": m.attainment(workload.slo_s),
    }


def traced(workload, state, seconds, trace_path):
    """An untraced then a traced window; per-layer metrics of the second."""
    base = workload.measure(state, seconds)
    log = tracing.SpanLog()
    tracer = tracing.new_tracer(log)
    instrumentation = tracing.install(tracer)
    try:
        m = workload.measure(state, seconds, tracer)
    finally:
        instrumentation.uninstall()
    metrics = tracing.layer_metrics(log.records, m.elapsed_s, m.attempted)
    metrics["trace.overhead_ratio"] = (m.latency_ms(50)
                                       / base.latency_ms(50))
    metrics["loadgen.lag_p99_ms"] = m.lag_p99_ms
    log.dump(trace_path)
    return [base, m], metrics


def main(argv):
    name, seed, seconds, trace, trace_path = argv
    workload = WORKLOADS[name](int(seed))
    seconds = float(seconds)
    state, setup_s, setup_raw_s = timed_setup(workload)
    try:
        if trace == "1":
            windows, metrics = traced(workload, state, seconds, trace_path)
        else:
            windows = [workload.measure(state, seconds)]
    finally:
        workload.close(state)
    if trace != "1":
        metrics = end_to_end(workload, windows[0], setup_s)
    # Every worker process and shared-memory ring must be gone by now.
    leaks = len(multiprocessing.active_children()) + len(own_segments())
    attempted = sum(m.attempted for m in windows)
    failed = sum(m.failed for m in windows) + leaks
    last = windows[-1]
    details = {k: [v, unit] for k, (v, unit) in last.details.items()}
    details.update(error_rate=[failed / attempted, "fraction"],
                   leaks=[leaks, "count"],
                   unscaled_setup_s=[setup_raw_s, "s"],
                   unscaled_latency_p50_ms=[last.latency_ms(50, False), "ms"],
                   unscaled_throughput_per_s=[last.throughput(False), "1/s"])
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics, "details": details}
    print("RESULT " + json.dumps(result, default=float), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
