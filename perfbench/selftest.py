"""Self-test of the benchmark harness at reduced size.

    python3 perfbench/selftest.py

Runs every workload with ``--small`` untraced and traced and checks that
every metric BENCHMARK.json names is reported with its unit, that no
operation failed, that the spans nest and that their self times plus the
untraced remainder add up to the traced wall time, that no process of a
run outlives it, that autograd does no work on night-plan, and that the
benchmark fails without a result in a directory holding only
BENCHMARK.json and the benchmark's files.
Exits non-zero on the first failed check.
"""
import gzip
import json
import os
import shutil
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def run(cwd: str, workload: str, trace: int) -> tuple[subprocess.CompletedProcess, list[int]]:
    """Run the benchmark in a session of its own; returns its result and
    the processes of that session still running the moment it has exited.
    The output goes to files, not pipes, and the wait blocks instead of
    polling, so that nothing delays the check."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--small"]
    logs = os.path.join(ROOT, ".perfbench")
    os.makedirs(logs, exist_ok=True)
    with open(os.path.join(logs, "selftest.out"), "w+") as out, \
            open(os.path.join(logs, "selftest.err"), "w+") as err:
        p = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, text=True,
                             start_new_session=True)
        timer = threading.Timer(300, p.kill)
        timer.start()
        p.wait()
        left = running_in_group(p.pid)
        timer.cancel()
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(cmd, p.returncode, out.read(), err.read()), left


def running_in_group(pgid: int) -> list[int]:
    """Processes of process group ``pgid`` that are not zombies (Linux)."""
    left = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, _ppid, group = fh.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue
        if int(group) == pgid and state != "Z":
            left.append(int(entry))
    return left


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def main() -> int:
    import tracing

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            tag = f"{name} trace={trace}"
            p, left = run(ROOT, name, trace)
            check(p.returncode == 0, f"{tag}: exit code {p.returncode} {p.stderr[-500:]}")
            check(not left, f"{tag}: no process left running {left}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want[trace], f"{tag}: every metric with its unit")
            check(res["failed"] == 0 and res["correct"] and res["attempted"] >= 1,
                  f"{tag}: {res['attempted']} attempted, {res['failed']} failed")
            if trace:
                path = os.path.join(ROOT, ".perfbench", f"spans-{name}-seed7.jsonl.gz")
                with gzip.open(path, "rt") as fh:
                    spans = [json.loads(line) for line in fh]
                check(len(spans) > 0 and tracing.nesting_errors(spans) == 0, f"{tag}: spans nest")
                m = {k: v["value"] for k, v in res["metrics"].items()}
                total = sum(tracing.self_times(spans)) + m["trace.untraced_s"]
                check(abs(total - m["trace.wall_s"]) < 1e-6,
                      f"{tag}: span self times + untraced remainder = wall time")
                reported = sum(v for k, v in m.items() if k in tracing.SELF_TIMES)
                check(abs(reported + m["trace.untraced_s"] - m["trace.wall_s"]) < 1e-6,
                      f"{tag}: reported self times + untraced remainder = wall time")
                if name == "night-plan":
                    check(all(v == 0 for k, v in m.items() if k.startswith("autograd.")),
                          f"{tag}: autograd reads zero")

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for d in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, d), os.path.join(bare, d),
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                           "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    last = p.stdout.strip().splitlines()[-1:] or [""]
    check(p.returncode != 0 and not last[0].startswith("{"), "fails without a result when src/ is absent")
    shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
