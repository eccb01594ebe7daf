"""The repository benchmark: run one workload, or all, and check it.

Run from the repository root::

    python3 perfbench/run.py --workload flow-mnist --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric of BENCHMARK.json; with ``--trace 1``
it holds every per-layer metric instead, and the spans are written as
JSONL under ``perfbench/out/``.  The lines before it name each
workload's own figures with their units.  ``--workload all`` runs every
workload in turn and exits non-zero if any output was wrong.

Each workload runs in a child interpreter in a session of its own, with
BLAS/OpenMP pools pinned to one thread, under a time limit.  A child
that overruns is killed with every process it started; processes or
shared-memory rings a finished child leaves behind count as failed
operations.  A child that overruns, crashes or cannot start (for
instance, the program's sources are missing) makes this script exit
non-zero with no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Leaves room under the 180 s a run may take for set-up and teardown.
TIME_LIMIT_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    paths = (str(ROOT / "src"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def group_members(pgid):
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def reap_group(pgid, grace_s=5.0):
    """Wait for the group to empty; kill survivors.  Returns their count."""
    deadline = time.monotonic() + grace_s
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = group_members(pgid)
    if survivors:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return len(survivors)


def remove_rings(pid):
    """Unlink the fabric's shared-memory rings left by process ``pid``.

    A killed workload takes its resource tracker with it, so nothing
    else would unlink them.  Returns how many there were.
    """
    prefix = f"tmfab-{pid}-"
    names = [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
    for name in names:
        os.unlink(os.path.join("/dev/shm", name))
    return len(names)


def run_workload(name, seed, seconds, trace):
    """Run one workload in a child; returns its result dict, or None."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    trace_path = out / f"trace-{name}-seed{seed}.jsonl"
    cmd = [sys.executable, str(HERE / "harness.py"), name, str(seed),
           str(seconds), str(trace), str(trace_path)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        print(f"{name}: killed after {TIME_LIMIT_S:.0f} s", file=sys.stderr)
    leaked = reap_group(proc.pid) + remove_rings(proc.pid)
    lines = stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("RESULT "):
        result = json.loads(lines.pop()[len("RESULT "):])
    for line in lines:
        print(line)
    if result is None or proc.returncode != 0:
        return None
    result["failed"] += leaked
    result["correct"] = result["correct"] and not leaked
    return result


def report(name, result, trace):
    """Print the workload's figures; return its contract result line."""
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        value = result["metrics"].get(spec["name"])
        if value is None:
            raise SystemExit(f"{name}: metric {spec['name']} not measured")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    figures = sorted(result["details"].items()) + [
        (key, (m["value"], m["unit"])) for key, m in metrics.items()]
    for key, (value, unit) in figures:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name}  {key} = {shown} {unit}")
    print(f"{name}  correct={result['correct']} attempted="
          f"{result['attempted']} failed={result['failed']}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None):
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    selected = names if args.workload == "all" else [args.workload]
    lines = []
    for name in selected:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            # A timeout or crash is a failed run; no result is printed.
            print(f"{name}: the workload did not complete", file=sys.stderr)
            return 1
        lines.append(report(name, result, args.trace))
    if args.workload == "all":
        return 0 if all(line["correct"] for line in lines) else 1
    print(json.dumps(lines[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
