#!/usr/bin/env python3
"""Cold-process benchmark of levelalg.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Every pass of a workload is a fresh child process (`child.py`) that imports
levelalg from `src/`, builds its inputs from the seed, runs the workload's
fixed task list and checks every output.  The parent runs one child at a
time for about S seconds of whole passes, then prints one JSON object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, pass_s,
tasks_per_s, peak_rss_mb).  With --trace 1 untraced and traced passes
alternate; the metrics are the per-layer ones, medians over the traced
passes, plus the tracing overhead.  The full record of the run goes to
perfbench/out/.  Exit code 1, and no result line, if a child fails or
levelalg is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Setup-only process starts at the head of every untraced run, so that
# setup_s is a median over several starts even when passes are long.
SETUP_PROBES = 5
# An untraced run makes at least this many passes, so pass_s is a median
# of three even when one pass takes a third of the run.
MIN_PASSES = 3
CHILD_TIMEOUT = 150


class BenchError(Exception):
    pass


def spawn(workload, seed, setup_only=False, trace_file=None):
    """Run one child to its end; return its record and its wall time."""
    argv = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
    if setup_only:
        argv.append("--setup-only")
    if trace_file:
        argv += ["--trace-file", trace_file]
    # The CLI reads its default prime from APOLARITY_PRIME; the tasks must
    # all use the benchmark's prime, whatever the caller's environment.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("APOLARITY_PRIME", None)
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child timed out after %d s" % CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.monotonic() - t0
    if proc.returncode != 0 or not out.strip():
        raise BenchError("child exited with code %d" % proc.returncode)
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = record["t_ready"] - t0
    record["wall_s"] = wall
    return record


def run_passes(workload, seed, seconds, traced=False):
    """Whole passes until `seconds` have gone by; traced runs alternate an
    untraced and a traced pass, and make at least one of each."""
    start = time.monotonic()
    probes = [] if traced else [spawn(workload, seed, setup_only=True)
                                for _ in range(SETUP_PROBES)]
    plain, tracedp = [], []
    least = 1 if traced else MIN_PASSES
    while len(plain) < least or time.monotonic() - start < seconds:
        plain.append(spawn(workload, seed))
        if traced:
            path = os.path.join(OUT, "trace-%s-seed%d-%d.json"
                                % (workload, seed, len(tracedp)))
            tracedp.append(spawn(workload, seed, trace_file=path))
    return probes, plain, tracedp


def end_to_end(probes, passes):
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(p["setup_s"] for p in probes + passes),
                    "unit": "s"},
        "pass_s": {"value": statistics.median(p["wall_s"] for p in passes),
                   "unit": "s"},
        "tasks_per_s": {"value": statistics.median((p["tasks"] - p["failed"]) / p["task_s"]
                                                   for p in passes),
                        "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
    }


def per_layer(plain, traced):
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name, *_ in spans.METRICS if not name.startswith("trace.")}
    traced_s = statistics.median(p["wall_s"] for p in traced)
    values["trace.pass_s"] = traced_s
    values["trace.overhead_s"] = traced_s - statistics.median(p["wall_s"] for p in plain)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, *_ in spans.METRICS}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "levelalg", "__init__.py")):
        print("error: no levelalg package under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    try:
        probes, plain, traced = run_passes(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    passes = plain + traced
    for p in passes:
        for problem in p["problems"]:
            print("wrong output: %s" % problem, file=sys.stderr)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(probes, plain)
    result = {"correct": all(p["n_problems"] == 0 for p in passes),
              "attempted": sum(p["tasks"] for p in passes),
              "failed": sum(p["failed"] for p in passes),
              "metrics": metrics}
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(dict(result, probes=probes, passes=plain, traced_passes=traced),
                  fh, indent=1)
    for name, m in metrics.items():
        print("%-46s %14.6g %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
