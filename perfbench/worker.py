"""One pass of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload W --seed S
        [--pass-index K] [--trace 0|1] [--spans PATH] [--setup-only]

After importing ryserlab and generating the pass's inputs it prints
`ready <scale> <sampling seconds>`: the parent times set-up up to that line,
leaves out the sampling and multiplies by the scale, which comes from kernel
samples taken at either end.  It then runs and checks every task and prints
one JSON line: per task [name, seconds, reference seconds, error], peak RSS,
the peak thread count seen and, when traced, per-layer calls and self seconds.
Reference seconds are scaled to a fixed machine speed (speed.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
import traceback
import types


def thread_count() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import speed
    from workloads import KERNEL, WORKLOADS
    kernel = KERNEL[args.workload]
    first = speed.sample(kernel)

    from ryserlab import constructions, constructive, core, exact, goodpart, signatures

    import checker
    from tracing import Tracer

    lib = types.SimpleNamespace(core=core, exact=exact, signatures=signatures,
                                goodpart=goodpart, constructive=constructive,
                                constructions=constructions)
    tasks = WORKLOADS[args.workload](lib, args.seed, args.pass_index)
    last = speed.sample(kernel)
    # the parent scales set-up by this factor and leaves out the samples
    scale = speed.KERNELS[kernel][1] / ((first[2] + last[2]) / 2)
    sampling_s = (first[1] - first[0]) + (last[1] - last[0])
    print(f"ready {scale} {sampling_s}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    probe = speed.Probe(kernel)
    probe.start()
    peak_threads = thread_count()
    spans = []
    for task in tasks:
        timed = task.prepare()
        sid = tracer.open("task." + task.name) if tracer else None
        t0 = time.perf_counter()
        try:
            answer, err = timed(), None
        except Exception as exc:  # a failed task is counted, not fatal
            answer, err = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        t1 = time.perf_counter()
        if tracer:
            tracer.close(sid)
        del timed
        if err is None:
            try:
                task.check(answer)
            except checker.Wrong as exc:
                err = f"wrong: {exc}"
            except Exception as exc:  # a malformed answer is a wrong answer
                err = f"wrong: {type(exc).__name__}: {exc}"
                traceback.print_exc()
        del answer
        if err is not None:
            print(f"task {task.name} failed: {err}", file=sys.stderr)
        peak_threads = max(peak_threads, thread_count())
        spans.append((task.name, t0, t1, err))
    probe.stop()
    done = [[name, *probe.span(t0, t1), err] for name, t0, t1, err in spans]

    out = {"tasks": done,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "peak_threads": peak_threads}
    if tracer:
        out["layers"] = tracer.summary()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
