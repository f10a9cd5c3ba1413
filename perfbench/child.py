"""One pass of a workload, in a fresh process.

The child imports levelalg from the checkout's `src/`, builds the
workload's inputs from the benchmark seed, runs the fixed task list, checks
every output, and prints one JSON line for the parent.  With `--setup-only`
it stops once the inputs are built.  With `--trace-file` it wraps
levelalg's public functions before building the inputs, and writes the
spans to that file at exit.

Times are CLOCK_MONOTONIC readings (`time.monotonic`), which the parent can
compare with its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MAX_PROBLEMS = 20


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import levelalg
    import levelalg.cli
    if os.path.dirname(os.path.abspath(levelalg.__file__)) != os.path.join(SRC, "levelalg"):
        print("levelalg was imported from %s, not from %s"
              % (levelalg.__file__, SRC), file=sys.stderr)
        return 1
    import workloads
    tracer = None
    if args.trace_file:
        import spans
        tracer = spans.Tracer()
        tracer.install(levelalg)
    tasks, final_check = workloads.WORKLOADS[args.workload](levelalg, args.seed)
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    outputs = []
    failed = 0
    task_s = 0.0
    for task in tasks:
        call = task.call
        if tracer is not None:
            call = tracer.wrap("task", call, detail=lambda a, k, o, t=task: t.label)
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception:  # one failed task is counted, the pass goes on
            print("task %s failed:" % task.label, file=sys.stderr)
            traceback.print_exc()
            out = None
            failed += 1
        task_s += time.perf_counter() - t0
        outputs.append(out)
    t_tasks = time.monotonic()

    problems = []
    for task, out in zip(tasks, outputs):
        if out is not None:
            problems += task.check(out)
    if final_check is not None:
        problems += final_check(outputs)
    record = {"t_ready": t_ready, "t_tasks": t_tasks, "tasks": len(tasks),
              "failed": failed, "task_s": task_s,
              "problems": problems[:MAX_PROBLEMS], "n_problems": len(problems)}
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.output_bytes"] = sum(out[1] for task, out in zip(tasks, outputs)
                                         if task.cli and out is not None)
        record["layers"] = layers
        tracer.dump(args.trace_file)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
