"""The end-to-end measurement of each workload, with tracing off.

Every workload generates its scenarios from ``--seed``, sends each
through ``generate_scenario`` -> ``scenario_to_json`` and then, per
scheduler, ``scenario_from_json`` -> ``run_online``, on ``WORKERS``
spawned processes.  train-intra also runs ``policy.train`` on its own
2-worker pool; its optimizer step is the workload's ``step_s``.

The package is called only through its public functions, and through
module attributes (``sc.generate_scenario``, ``cli.run_online``) so that
the traced run can wrap them where they are bound.
"""
from __future__ import annotations

import hashlib
import io
import math
import os
import multiprocessing as mp
from multiprocessing.connection import wait
import re
import resource
import statistics
import time
from contextlib import nullcontext

import numpy as np

import config
from obsched import cli
from obsched import scenario as sc
from obsched.policy import train
from obsched.schedule import average_slowdown, dump_schedule, validate

#: end-to-end metrics and their units, in the order BENCHMARK.json lists them
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "generate_s.p50": "s",
    "simulate_s.p50": "s",
    "simulate_s.p90": "s",
    "avg_slowdown": "ratio",
    "completion_rate": "ratio",
    "step_s": "s",
}


def _no_span(name):
    return nullcontext()


def scenario_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def run_scenario(d: config.Dispatch, net, seed: int, i: int, span=_no_span) -> dict:
    """Generate scenario ``i`` and run every scheduler of ``d`` on it;
    reference scenarios come from ``REFERENCE_SEED`` and keep their
    schedule dumps for hashing.

    Each generation and each scheduler call is one operation.  A failure
    is an exception, a JSON round-trip that is not byte-identical, a
    schedule with violations, or a schedule that loses or duplicates
    tasks.
    """
    rec = {"i": i, "attempted": 1, "failed": [], "calls": []}
    try:
        t0 = time.perf_counter()
        base = config.REFERENCE_SEED if i < d.reference else seed
        scen = sc.generate_scenario(d.gen, scenario_seed(base, i))
        text = sc.scenario_to_json(scen)
        rec["gen_s"] = time.perf_counter() - t0
        with span("bench.check"):
            if sc.scenario_to_json(sc.scenario_from_json(text)) != text:
                rec["failed"].append(f"scenario {i}: JSON round-trip is not byte-identical")
    except Exception as exc:  # counted as a failed operation; the run goes on
        rec["failed"].append(f"scenario {i}: {type(exc).__name__}: {exc}")
        return rec
    all_ids = {t.id for t in scen.tasks}
    for name in d.schedulers:
        rec["attempted"] += 1
        try:
            t0 = time.perf_counter()
            dag, drops = cli.run_online(
                sc.scenario_from_json(text),
                name,
                config.QUEUE_CAP,
                replan_steps=config.REPLAN_STEPS,
                net=net,
            )
            sim_s = time.perf_counter() - t0
            with span("bench.check"):
                problems = validate(dag)
                ids = dag.task_ids
                if problems:
                    raise AssertionError(f"{len(problems)} violations, first: {problems[0].detail}")
                if len(ids) + len(drops) != len(all_ids) or set(ids) | set(drops) != all_ids:
                    raise AssertionError("scheduled and dropped tasks do not partition the scenario")
                buf = io.StringIO()
                if i < d.reference:
                    dump_schedule(dag, buf)
            rec["calls"].append(
                {
                    "scheduler": name,
                    "sim_s": sim_s,
                    "scheduled": len(ids),
                    "tasks": len(all_ids),
                    "avg": average_slowdown(dag) if len(ids) else None,
                    "dump": buf.getvalue(),
                }
            )
        except Exception as exc:  # counted as a failed operation; the run goes on
            rec["failed"].append(f"scenario {i} {name}: {type(exc).__name__}: {exc}")
    return rec


def min_scenarios(d: config.Dispatch, sizes: config.Sizes) -> int:
    """Scenarios every run completes: the reference ones, and enough for
    ``sizes.min_calls`` calls."""
    return max(d.reference, math.ceil(sizes.min_calls / len(d.schedulers)))


# --- machine speed -------------------------------------------------------------

_PROBE_FIELDS = np.random.default_rng(0).random((15, 1440))


def speed_probe() -> float:
    """Seconds taken by a fixed piece of harness work that runs no package
    code: threshold crossings over 15x1440 arrays, as the ephemeris does,
    and dict updates in the interpreter.  Its time tracks the contention
    of the shared host that slows the workloads."""
    t0 = time.perf_counter()
    crossings = 0
    for k in range(config.PROBE_ROUNDS):
        up = np.sin(_PROBE_FIELDS * k) > 0.1
        crossings += int(np.count_nonzero(up[:, 1:] & ~up[:, :-1]))
    table: dict = {}
    for j in range(config.PROBE_ROUNDS * 400):
        table[j % 97] = table.get(j % 97, 0) + j
    return time.perf_counter() - t0


# --- worker processes ----------------------------------------------------------

def _worker(conn, workload: str, sizes: config.Sizes, parent: int) -> None:
    d = config.dispatch(workload, sizes)
    net = d.make_net()
    conn.send("ready")
    while os.getppid() == parent:  # exit with an orphaned parent
        if not conn.poll(1.0):
            continue
        job = conn.recv()
        if job is None:
            break
        seed, i = job
        probe_s = speed_probe()
        rec = run_scenario(d, net, seed, i)
        rec["probe_s"] = probe_s
        conn.send(rec)
    conn.close()


class Pool:
    """``WORKERS`` spawned processes that import the package and build the
    workload's net, then run scenarios handed out one at a time."""

    def __init__(self, workload: str, sizes: config.Sizes):
        ctx = mp.get_context("spawn")
        self.procs = []
        self.next_i = 0
        t0 = time.perf_counter()
        try:
            for _ in range(config.WORKERS):
                parent, child = ctx.Pipe()
                p = ctx.Process(target=_worker, args=(child, workload, sizes, os.getpid()))
                p.start()
                child.close()
                self.procs.append((p, parent))
            for _, conn in self.procs:
                if conn.recv() != "ready":
                    raise RuntimeError("worker failed to start")
        except BaseException:
            self.close()
            raise
        self.ready_s = time.perf_counter() - t0

    def run(self, seed: int, budget_s: float, min_count: int = 0) -> list[dict]:
        """Run the next scenarios until ``min_count`` are done and another
        would end after ``budget_s``."""
        t0 = time.perf_counter()
        busy: dict = {}
        recs: list[dict] = []
        first = self.next_i

        def more(now: float) -> bool:
            if self.next_i - first < min_count:
                return True
            mean = (now - t0) / len(recs) * config.WORKERS if recs else 0.0
            return now - t0 + mean < budget_s

        for _, conn in self.procs:
            if more(t0):
                conn.send((seed, self.next_i))
                busy[conn] = self.next_i
                self.next_i += 1
        while busy:
            for conn in wait(list(busy)):
                recs.append(conn.recv())
                del busy[conn]
                if more(time.perf_counter()):
                    conn.send((seed, self.next_i))
                    busy[conn] = self.next_i
                    self.next_i += 1
        return recs

    def close(self) -> None:
        for p, conn in self.procs:
            try:
                conn.send(None)
            except OSError:
                pass
        for p, conn in self.procs:
            p.join(timeout=10)
            if p.is_alive():
                p.terminate()
                p.join()
            conn.close()
        self.procs = []


def measure_setup(workload: str, sizes: config.Sizes) -> tuple[list[float], Pool]:
    """Cold-start the worker pool ``SETUP_REPEATS`` times; returns every
    set-up time and the last pool, left running for the measurement."""
    times = []
    for r in range(config.SETUP_REPEATS):
        pool = Pool(workload, sizes)
        times.append(pool.ready_s)
        if r + 1 < config.SETUP_REPEATS:
            pool.close()
    return times, pool


# --- training ------------------------------------------------------------------

class _Stop(Exception):
    """Raised from train()'s log callback to end a run early."""


_LOSS = re.compile(r"loss=(\S+)")


def timed_train(seed: int, *, batch: int, workers: int, val_instances: int,
                steps: int = 10**6, between=None) -> tuple[list[float], list[str]]:
    """Run ``policy.train`` on the intra recipe with one evaluation per step.

    train() calls its log callback after every step's evaluation.  The
    callback records the time, checks the loss, and calls
    ``between(step, step_times)``, which may do other work or return True
    to stop.  A step's time runs from the end of the previous callback to
    the start of the next, so the work done in between is excluded; the
    first step's time includes net init and pool start.  Returns the step
    times and failure messages.
    """
    t_prev = time.perf_counter()
    times: list[float] = []
    failures: list[str] = []

    def log(msg: str) -> None:
        nonlocal t_prev
        times.append(time.perf_counter() - t_prev)
        m = _LOSS.search(msg)
        if m is None or not math.isfinite(float(m.group(1))):
            failures.append(f"step {len(times)}: non-finite training loss ({msg})")
        if len(times) >= steps or (between is not None and between(len(times), times)):
            raise _Stop
        t_prev = time.perf_counter()

    try:
        train(
            config.INTRA_GEN,
            config.train_config(batch, steps),
            config.INTRA_SEARCH,
            config.INTRA_POLICY,
            seed=seed,
            workers=workers,
            val_every=1,
            val_instances=val_instances,
            log=log,
        )
    except _Stop:
        pass
    except Exception as exc:  # counted as a failed step
        failures.append(f"train: {type(exc).__name__}: {exc}")
    return times, failures


def val_pass(seed: int, sizes: config.Sizes) -> tuple[float, list[str]]:
    """train()'s validation pass over ``val_instances`` held-out instances,
    run after a single-instance optimizer step on 1 worker; returns the
    time of both."""
    times, failures = timed_train(
        seed, batch=1, workers=1, val_instances=sizes.val_instances, steps=1
    )
    return (times[0] if times else float("nan")), failures


# --- aggregation ---------------------------------------------------------------

def percentile(xs: list[float], q: float) -> float:
    return float(np.percentile(xs, q)) if xs else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def summarize(recs: list[dict], prefix: int) -> dict:
    """Dispatch figures; quality covers the scenarios ``i < prefix``."""
    recs = sorted(recs, key=lambda r: r["i"])
    calls = [c for r in recs for c in r["calls"]]
    pre = [c for r in recs if r["i"] < prefix for c in r["calls"]]
    steps = [r["gen_s"] + sum(c["sim_s"] for c in r["calls"]) for r in recs if "gen_s" in r]
    avgs = [c["avg"] for c in pre if c["avg"] is not None]
    hashes = {}
    for c in calls:
        h = hashes.setdefault(c["scheduler"], hashlib.sha256())
        h.update(c["dump"].encode())
    return {
        "generate_s.p50": statistics.median(r["gen_s"] for r in recs if "gen_s" in r),
        "simulate_s.p50": percentile([c["sim_s"] for c in calls], 50),
        "simulate_s.p90": percentile([c["sim_s"] for c in calls], 90),
        "avg_slowdown": statistics.fmean(avgs) if avgs else float("nan"),
        "completion_rate": sum(c["scheduled"] for c in pre) / max(1, sum(c["tasks"] for c in pre)),
        "step_samples": steps,
        "calls": len(calls),
        "scenarios": len(recs),
        "attempted": sum(r["attempted"] for r in recs),
        "failures": [f for r in recs for f in r["failed"]],
        "sha256": {k: h.hexdigest() for k, h in hashes.items()},
    }


def run(workload: str, seed: int, seconds: float, sizes: config.Sizes) -> dict:
    """One untraced run: returns metrics, counts and information."""
    d = config.dispatch(workload, sizes)
    prefix = min_scenarios(d, sizes)
    setup, pool = measure_setup(workload, sizes)
    t0 = time.perf_counter()
    recs: list[dict] = []
    info: dict = {}
    attempted, failures = 0, []
    try:
        if workload != "train-intra":
            recs = pool.run(seed, seconds, prefix)
        else:
            # training steps interleaved with dispatch and validation work
            # in train()'s log callback, so all three meet the same machine
            vals: list[float] = []

            def between(step: int, times: list[float]) -> bool:
                nonlocal attempted
                recs.extend(pool.run(seed, config.INTRA_DISPATCH_S))
                if step % config.VAL_EVERY_STEPS == 1:
                    t, f = val_pass(seed, sizes)
                    vals.append(t)
                    attempted += 1
                    failures.extend(f)
                per_step = (time.perf_counter() - t0) / step
                return step >= config.MIN_TRAIN_STEPS and time.perf_counter() - t0 + per_step > seconds

            steps, f = timed_train(
                seed, batch=sizes.train_batch, workers=config.WORKERS, val_instances=0,
                between=between,
            )
            attempted += max(len(steps), 1)
            failures += f
            recs.extend(pool.run(seed, 0.0, prefix - pool.next_i))
            step_s = statistics.median(steps[1:]) if len(steps) > 1 else float("nan")
            val_s = statistics.median(vals) if vals else float("nan")
            info.update(
                train_steps=len(steps),
                step_times_s=steps,
                val_pass_s=val_s,
                checkpoint_h=(2000 * step_s + 20 * val_s) / 3600,
            )
    finally:
        pool.close()
    out = summarize(recs, d.reference)
    # Contention on the shared host slows the workers by up to a third
    # for seconds to minutes at a time.  The probe run before each
    # scenario measures it, and the times measured in the same workers
    # are scaled to the probe's reference speed.  train-intra's step_s is
    # measured in train()'s own pool, where no probe runs, and stays as
    # measured.
    probes = [r["probe_s"] for r in recs]
    speed = config.PROBE_REF_S / statistics.median(probes)
    unscaled = {name: out[name] for name in ("generate_s.p50", "simulate_s.p50", "simulate_s.p90")}
    if workload != "train-intra":
        unscaled["step_s"] = statistics.median(out["step_samples"])
    info.update(
        scenarios=out["scenarios"], calls=out["calls"], sha256=out["sha256"],
        setup_samples_s=setup, measured_s=time.perf_counter() - t0,
        probes=len(probes), probe_s_p50=statistics.median(probes), speed=speed,
        unscaled_s=unscaled,
    )
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "avg_slowdown": out["avg_slowdown"],
        "completion_rate": out["completion_rate"],
        **{name: v * speed for name, v in unscaled.items()},
    }
    if workload == "train-intra":
        metrics["step_s"] = step_s
    metrics = {name: metrics[name] for name in E2E_UNITS}
    return {
        "metrics": metrics,
        "attempted": attempted + out["attempted"],
        "failures": failures + out["failures"],
        "info": info,
    }
