"""ryserlab benchmark: end-to-end and per-layer timings of user-level workloads.

    python3 perfbench/run.py --workload {tables,exact,covers}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; ryserlab is imported from ./src.
Every pass runs in a fresh interpreter (perfbench/worker.py), so lazy state
and the scipy import are paid as on a real run.  See perfbench/README.md.

--trace 0 runs whole passes until their task spans add up to --seconds
reference seconds (at least one pass) and reports the end-to-end metrics.
--trace 1 runs pass 0 untraced and then traced, and reports the per-layer
metrics.  Times are reference seconds (speed.py).  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it is the
provenance record, which is also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import LAYERS  # noqa: E402
from workloads import COVER_KINDS, KERNEL, SEEDED, TASK_NAMES, WORKLOADS  # noqa: E402

SETUP_PROBES = 3          # set-up-only interpreters per --trace 0 run
WORKER_TIMEOUT_S = 170
OUT_DIR = ".bench_out"


# columns of a worker's task rows
NAME, SECONDS, REFERENCE, ERROR = range(4)


class WorkerFailed(Exception):
    pass


def spawn(args, pass_index=0, trace=0, setup_only=False, spans=None):
    """Run one pass in a fresh worker.

    Returns (set-up reference seconds, the worker's JSON result).  Set-up is
    scaled by the speed the worker measured at its start and end.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--pass-index", str(pass_index), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    ready = first.split()
    if ready[:1] != ["ready"] or proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode} ({args.workload}, "
                           f"trace {trace})")
    scale, sampling_s = float(ready[1]), float(ready[2])
    result = None if setup_only else json.loads(rest.strip().splitlines()[-1])
    return (setup - sampling_s) * scale, result


def wall(result, column=REFERENCE) -> float:
    return sum(t[column] for t in result["tasks"])


def failures(results) -> tuple[int, int]:
    tasks = [t for r in results for t in r["tasks"]]
    return len(tasks), sum(1 for t in tasks if t[ERROR] is not None)


def percentile(values, q) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, -(-len(s) * q // 100) - 1))]


def end_to_end(args):
    setups = [spawn(args, setup_only=True)[0] for _ in range(SETUP_PROBES)]
    results = []
    # --seconds counts reference seconds of task spans, so that a slow spell
    # of the host does not change how many passes a run makes
    while not results or sum(wall(r) for r in results) < args.seconds:
        setup, result = spawn(args, len(results))
        setups.append(setup)
        results.append(result)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.mean(wall(r) for r in results), "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in results) / 1024, "MB"),
    }
    extra = {"passes": len(results), "setup_samples": len(setups),
             "measured_wall_s": statistics.mean(wall(r, SECONDS) for r in results)}
    return results, metrics, extra


def per_layer(args):
    _, plain = spawn(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    _, traced = spawn(args, trace=1, spans=spans)
    layers = traced["layers"]
    # layer spans are in measured seconds; scale them like the traced pass
    scale = wall(traced) / wall(traced, SECONDS)
    metrics = {}
    for name in LAYERS:
        calls, self_s = layers.get(name, (0, 0.0))
        metrics[name + ".calls"] = (calls, "count")
        metrics[name + ".self_s"] = (self_s * scale, "s")
    covers = [t for t in plain["tasks"] if t[NAME] in COVER_KINDS]
    verify_calls = layers.get("core.verify", (0, 0.0))[0]
    metrics["constructive.verify_per_cover"] = (
        verify_calls / len(covers) if covers else 0.0, "ratio")
    metrics["trace.overhead_s"] = (wall(traced) - wall(plain), "s")
    for task in TASK_NAMES:
        metrics[f"task.{task}_s"] = (
            sum(t[REFERENCE] for t in plain["tasks"] if t[NAME] == task), "s")
    for kind in COVER_KINDS:
        times = [t[REFERENCE] for t in covers if t[NAME] == kind]
        metrics[f"task.{kind}_p50_ms"] = (
            statistics.median(times) * 1e3 if times else 0.0, "ms")
    times = [t[REFERENCE] for t in covers]
    metrics["task.cover_p50_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
    metrics["task.cover_p99_ms"] = (percentile(times, 99) * 1e3 if times else 0.0, "ms")
    extra = {"spans_file": spans, "covers": len(covers),
             "measured_wall_s": wall(plain, SECONDS),
             "measured_traced_wall_s": wall(traced, SECONDS)}
    return [plain, traced], metrics, extra


def source_digest(root="src") -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".txt")):
                path = os.path.join(dirpath, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args, results, extra):
    from importlib.metadata import version
    return {
        "workload": args.workload,
        "seed": args.seed if args.workload in SEEDED else None,
        "seed_note": ("drives colourings and relabellings" if args.workload in SEEDED
                      else "fixed inputs; the seed is ignored"),
        "trace": args.trace,
        "seconds": args.seconds,
        "speed_kernel": KERNEL[args.workload],
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "peak_threads": max(r["peak_threads"] for r in results),
        **extra,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "ryserlab", "__init__.py")):
        print("run from the root of a ryserlab checkout (src/ryserlab not found)",
              file=sys.stderr)
        return 2
    try:
        results, metrics, extra = (per_layer if args.trace else end_to_end)(args)
    except WorkerFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    attempted, failed = failures(results)
    record = provenance(args, results, extra)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"provenance": record, "metrics": metrics,
                   "tasks": [r["tasks"] for r in results]}, fh)
    print(json.dumps({"provenance": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
