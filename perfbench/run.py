"""Benchmark of the obsched package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  With ``--trace 0`` the run measures the
workload for about S seconds and reports the end-to-end metrics; with
``--trace 1`` it runs a fixed traced sample and reports the per-layer
metrics (see perfbench/README.md).  Information lines come first; the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""
import os
import signal
import sys

# one BLAS thread per process, before numpy is first imported: the
# parallelism lives in the worker processes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def git_commit() -> str:
    """HEAD of the checkout read from ``.git`` without running git, or
    "unknown" when the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker, which starting a spawned
    worker launches and which would otherwise outlive this process, and
    wait for it to exit."""
    import multiprocessing.resource_tracker as rt

    tracker = rt._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()
    elif tracker._fd is not None:  # a Python without ResourceTracker._stop
        os.close(tracker._fd)
        tracker._fd = None
        if tracker._pid is not None:
            os.waitpid(tracker._pid, 0)
            tracker._pid = None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    import argparse

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="reduced sizes, for selftest.py")
    args = p.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "obsched", "__init__.py")):
        print(f"error: no obsched package under {SRC}", file=sys.stderr)
        return 2
    import json
    import platform

    import numpy as np

    import obsched

    if os.path.dirname(os.path.abspath(obsched.__file__)) != os.path.join(SRC, "obsched"):
        print(f"error: obsched was imported from {obsched.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import config
    import tracing
    import workloads

    if args.workload not in config.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {config.WORKLOADS}", file=sys.stderr)
        return 2
    sizes = config.Sizes.small() if args.small else config.Sizes()
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }
    print("env " + json.dumps(env), flush=True)

    if args.trace:
        spans_path = os.path.join(
            ROOT, ".perfbench", f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        )
        res = tracing.run(args.workload, args.seed, sizes, spans_path)
        units = tracing.LAYER_UNITS
        print(f"spans {res['spans']} written to {os.path.relpath(spans_path, ROOT)}; "
              f"nesting errors {res['nesting_errors']}")
        if res["nesting_errors"]:
            res["failures"].append(f"{res['nesting_errors']} spans do not nest")
    else:
        res = workloads.run(args.workload, args.seed, args.seconds, sizes)
        units = workloads.E2E_UNITS
        for key, value in res["info"].items():
            print(f"info {key} {json.dumps(value)}")
    for msg in res["failures"][:20]:
        print("failed " + msg)
    finite = all(np.isfinite(res["metrics"][name]) for name in units)
    metrics = {
        name: {"value": v if np.isfinite(v) else None, "unit": unit}
        for name, unit in units.items()
        for v in [float(res["metrics"][name])]
    }
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    failed = len(res["failures"])
    print(json.dumps({
        "correct": failed == 0 and finite,
        "attempted": int(res["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)
