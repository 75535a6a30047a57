"""The traced run: per-layer spans around the package's functions.

Each function is wrapped where its importing module binds it (for
example both ``obsched.policy.rewrite_search`` and
``obsched.cli.rewrite_search``), so nothing in ``src`` changes.  Spans
are kept in memory, in one process, and written out at the end.  A
span's self time is its duration minus the time its child spans cover;
the self times of all spans plus the untraced remainder add up to the
traced wall time.

Each workload runs the same inputs untraced, traced, and untraced again,
so ``trace.overhead_frac`` compares identical work.
"""
from __future__ import annotations

import gzip
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

import config
import workloads
from obsched import autograd, cli, ephemeris, heuristics, policy, rewriter, schedule
from obsched import scenario as sc

#: per-layer metrics and their units, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "ephemeris.masks.calls": "count",
    "ephemeris.masks.self_s": "s",
    "ephemeris.masks.target_steps_per_s": "1/s",
    "scenario.generate.calls": "count",
    "scenario.generate.self_s": "s",
    "scenario.json.encode_s": "s",
    "scenario.json.parse_s": "s",
    "schedule.context.calls": "count",
    "schedule.context.self_s": "s",
    "schedule.build.calls": "count",
    "schedule.build.self_s": "s",
    "schedule.efs.calls": "count",
    "schedule.efs.self_s": "s",
    "heuristics.dispatch.fcfs.self_s": "s",
    "heuristics.dispatch.stf-quality.self_s": "s",
    "heuristics.dispatch.edd-priority.self_s": "s",
    "heuristics.offline.self_s": "s",
    "heuristics.fcfs_list.calls": "count",
    "heuristics.fcfs_list.self_s": "s",
    "rewriter.step.calls": "count",
    "rewriter.step.self_s": "s",
    "rewriter.step.us.p50": "us",
    "rewriter.step.us.p99": "us",
    "rewriter.step.applied_frac": "ratio",
    "rewriter.step.noop_frac": "ratio",
    "rewriter.step.rejected_frac": "ratio",
    "rewriter.search.self_s": "s",
    "rewriter.replan.calls": "count",
    "rewriter.replan.ms.p50": "ms",
    "rewriter.replan.ms.p99": "ms",
    "rewriter.replan.steps_mean": "count",
    "policy.encode.calls": "count",
    "policy.encode.nodes": "count",
    "policy.encode.self_s": "s",
    "policy.heads.self_s": "s",
    "policy.losses.self_s": "s",
    "policy.adam.self_s": "s",
    "policy.scaling_eff": "ratio",
    "autograd.backward.calls": "count",
    "autograd.backward.self_s": "s",
    "autograd.tape_nodes": "count",
    "cli.run_online.self_s": "s",
    "bench.check.self_s": "s",
    "trace.tape_walk_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_frac": "ratio",
}

#: the metrics that are span self times; with trace.untraced_s they sum to
#: trace.wall_s
SELF_TIMES = [
    name for name, unit in LAYER_UNITS.items()
    if unit == "s" and name not in ("trace.wall_s", "trace.untraced_s")
]


class Tracer:
    """Spans as ``[name, start, end, parent index, note]`` in start order."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn, name, note=None):
        """``fn`` recording one span per call; ``name`` may be a function
        of the call's arguments, ``note(args, kwargs, result)`` adds data."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name(args) if callable(name) else name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def traced_backward(self, fn):
        """``autograd.backward`` preceded by a count of the loss graph's
        nodes, walked in its own span outside the backward span."""
        def backward(loss):
            with self.span("trace.tape_walk") as rec:
                seen = {id(loss)}
                todo = [loss]
                while todo:
                    for p in todo.pop().parents:
                        if id(p) not in seen:
                            seen.add(id(p))
                            todo.append(p)
            rec[4] = len(seen)
            with self.span("autograd.backward") as rec:
                fn(loss)
            rec[4] = len(seen)

        backward.__wrapped__ = fn
        return backward


def _dispatch_name(args) -> str:
    task_rule, site_rule = args[1], args[2]
    return "heuristics.dispatch." + task_rule.value + (f"-{site_rule.value}" if site_rule else "")


def _search_note(caller):
    return lambda args, kwargs, out: (caller, bool(kwargs.get("greedy")), len(out[1]))


def _masks_note(args, kwargs, out):
    return out[0].size  # targets x grid steps


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function at each place it is bound; returns what
    ``uninstall`` needs to restore the originals."""
    plan = [
        (ephemeris, "visibility_masks_multi", "ephemeris.masks", _masks_note),
        (schedule, "visibility_masks_multi", "ephemeris.masks", _masks_note),
        (sc, "generate_scenario", "scenario.generate", None),
        (policy, "generate_scenario", "scenario.generate", None),
        (sc, "scenario_to_json", "scenario.json.encode", None),
        (sc, "scenario_from_json", "scenario.json.parse", None),
        (schedule.SchedulingContext, "__init__", "schedule.context", None),
        (schedule, "build_dag", "schedule.build", None),
        (cli, "run_online", "cli.run_online", None),
        (cli, "schedule_online_heuristic", _dispatch_name, None),
        (cli, "schedule_offline_stf", "heuristics.offline", None),
        (cli, "schedule_fcfs_list", "heuristics.fcfs_list", None),
        (policy, "schedule_fcfs_list", "heuristics.fcfs_list", None),
        (rewriter, "rewrite_step", "rewriter.step", lambda a, k, out: out[1]),
        (cli, "rewrite_search", "rewriter.search", _search_note("cli")),
        (policy, "rewrite_search", "rewriter.search", _search_note("policy")),
        (policy.PolicyNet, "encode", "policy.encode", lambda a, k, out: a[1].n_nodes),
        (policy.PolicyNet, "region_scores", "policy.heads", None),
        (policy.PolicyNet, "rule_scores", "policy.heads", None),
        (policy, "losses", "policy.losses", None),
        (policy.Adam, "step", "policy.adam", None),
    ]
    for mod in (schedule, heuristics, rewriter, cli):
        plan.append((mod, "build_from_arrays", "schedule.build", None))
        plan.append((mod, "earliest_feasible_start", "schedule.efs", None))
    saved = []
    for owner, attr, name, note in plan:
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, tracer.wrap(orig, name, note))
    saved.append((autograd, "backward", autograd.backward))
    autograd.backward = tracer.traced_backward(autograd.backward)
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, orig in reversed(saved):
        setattr(owner, attr, orig)


def nesting_errors(spans: list[list]) -> int:
    """Spans not inside their parent's interval, or overlapping a sibling."""
    bad = 0
    last_end: dict[int, float] = {}
    for name, s, e, p, _ in spans:
        if e < s:
            bad += 1
        if p >= 0:
            ps, pe = spans[p][1], spans[p][2]
            if s < ps or e > pe:
                bad += 1
        if s < last_end.get(p, -np.inf):
            bad += 1
        last_end[p] = e
    return bad


def self_times(spans: list[list]) -> list[float]:
    own = [e - s for _, s, e, _, _ in spans]
    for _, s, e, p, _ in spans:
        if p >= 0:
            own[p] -= e - s
    return own


def layer_metrics(spans: list[list], wall: float, untraced_wall: float, scaling_eff: float) -> dict:
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    dur: dict[str, list[float]] = defaultdict(list)
    notes: dict[str, list] = defaultdict(list)
    for (name, s, e, _, note), t in zip(spans, own):
        self_s[name] += t
        calls[name] += 1
        dur[name].append(e - s)
        if note is not None:
            notes[name].append(note)
    replan = [
        (e - s, n[2])
        for (name, s, e, _, n) in spans
        if name == "rewriter.search" and n is not None and n[0] == "cli" and n[1]
    ]
    status = Counter(notes["rewriter.step"])
    n_steps = max(1, calls["rewriter.step"])
    pct = workloads.percentile
    m = {
        "ephemeris.masks.calls": calls["ephemeris.masks"],
        "ephemeris.masks.self_s": self_s["ephemeris.masks"],
        "ephemeris.masks.target_steps_per_s": (
            sum(notes["ephemeris.masks"]) / self_s["ephemeris.masks"] if self_s["ephemeris.masks"] else 0.0
        ),
        "scenario.generate.calls": calls["scenario.generate"],
        "scenario.generate.self_s": self_s["scenario.generate"],
        "scenario.json.encode_s": self_s["scenario.json.encode"],
        "scenario.json.parse_s": self_s["scenario.json.parse"],
        "schedule.context.calls": calls["schedule.context"],
        "schedule.context.self_s": self_s["schedule.context"],
        "schedule.build.calls": calls["schedule.build"],
        "schedule.build.self_s": self_s["schedule.build"],
        "schedule.efs.calls": calls["schedule.efs"],
        "schedule.efs.self_s": self_s["schedule.efs"],
        "heuristics.dispatch.fcfs.self_s": self_s["heuristics.dispatch.fcfs"],
        "heuristics.dispatch.stf-quality.self_s": self_s["heuristics.dispatch.stf-quality"],
        "heuristics.dispatch.edd-priority.self_s": self_s["heuristics.dispatch.edd-priority"],
        "heuristics.offline.self_s": self_s["heuristics.offline"],
        "heuristics.fcfs_list.calls": calls["heuristics.fcfs_list"],
        "heuristics.fcfs_list.self_s": self_s["heuristics.fcfs_list"],
        "rewriter.step.calls": calls["rewriter.step"],
        "rewriter.step.self_s": self_s["rewriter.step"],
        "rewriter.step.us.p50": pct(dur["rewriter.step"], 50) * 1e6,
        "rewriter.step.us.p99": pct(dur["rewriter.step"], 99) * 1e6,
        "rewriter.step.applied_frac": status["applied"] / n_steps,
        "rewriter.step.noop_frac": status["noop"] / n_steps,
        "rewriter.step.rejected_frac": status["rejected"] / n_steps,
        "rewriter.search.self_s": self_s["rewriter.search"],
        "rewriter.replan.calls": len(replan),
        "rewriter.replan.ms.p50": pct([r[0] for r in replan], 50) * 1e3,
        "rewriter.replan.ms.p99": pct([r[0] for r in replan], 99) * 1e3,
        "rewriter.replan.steps_mean": float(np.mean([r[1] for r in replan])) if replan else 0.0,
        "policy.encode.calls": calls["policy.encode"],
        "policy.encode.nodes": sum(notes["policy.encode"]),
        "policy.encode.self_s": self_s["policy.encode"],
        "policy.heads.self_s": self_s["policy.heads"],
        "policy.losses.self_s": self_s["policy.losses"],
        "policy.adam.self_s": self_s["policy.adam"],
        "policy.scaling_eff": scaling_eff,
        "autograd.backward.calls": calls["autograd.backward"],
        "autograd.backward.self_s": self_s["autograd.backward"],
        "autograd.tape_nodes": float(np.mean(notes["autograd.backward"])) if notes["autograd.backward"] else 0.0,
        "cli.run_online.self_s": self_s["cli.run_online"],
        "bench.check.self_s": self_s["bench.check"],
        "trace.tape_walk_s": self_s["trace.tape_walk"],
        "trace.wall_s": wall,
        "trace.untraced_s": wall - sum(own),
        "trace.overhead_frac": wall / untraced_wall - 1.0,
    }
    return m


def write_spans(spans: list[list], path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for name, s, e, p, note in spans:
            fh.write(json.dumps([name, s, e, p, note]) + "\n")


def _train_pass(seed: int, sizes: config.Sizes, workers: int, val: bool) -> tuple[float, float, list[str]]:
    """One optimizer step and, on request, one validation pass; returns
    the whole wall time, the step's time and failure messages."""
    t0 = time.perf_counter()
    steps, fails = workloads.timed_train(
        seed, batch=sizes.train_batch, workers=workers, val_instances=0, steps=1
    )
    if val:
        fails += workloads.val_pass(seed, sizes)[1]
    return time.perf_counter() - t0, (steps[0] if steps else float("nan")), fails


def run(workload: str, seed: int, sizes: config.Sizes, spans_path: str) -> dict:
    """One traced run.  train-intra runs one optimizer step and one
    validation pass on 1 worker (so every span is in this process); the
    others run a fixed number of scenarios in this process."""
    tracer = Tracer()
    failures: list[str] = []
    scaling_eff = 0.0
    if workload == "train-intra":
        _, step_2w, f2 = _train_pass(seed, sizes, config.WORKERS, val=False)
        before, step_1w, f1 = _train_pass(seed, sizes, 1, val=True)
        saved = install(tracer)
        try:
            wall, _, f = _train_pass(seed, sizes, 1, val=True)
        finally:
            uninstall(saved)
        after, _, f3 = _train_pass(seed, sizes, 1, val=True)
        untraced = (before + after) / 2
        failures += f2 + f1 + f + f3
        attempted = 7
        scaling_eff = step_1w / (config.WORKERS * step_2w)
    else:
        d = config.dispatch(workload, sizes)
        net = d.make_net()
        n = dict(sizes.traced)[workload]
        workloads.run_scenario(d, net, seed, n)  # warm-up, not counted
        recs = []

        def untraced_pass() -> float:
            t0 = time.perf_counter()
            recs.extend(workloads.run_scenario(d, net, seed, i) for i in range(n))
            return time.perf_counter() - t0

        before = untraced_pass()
        saved = install(tracer)
        try:
            t0 = time.perf_counter()
            recs += [workloads.run_scenario(d, net, seed, i, tracer.span) for i in range(n)]
            wall = time.perf_counter() - t0
        finally:
            uninstall(saved)
        untraced = (before + untraced_pass()) / 2
        attempted = sum(r["attempted"] for r in recs)
        failures += [f for r in recs for f in r["failed"]]
    write_spans(tracer.spans, spans_path)
    return {
        "metrics": layer_metrics(tracer.spans, wall, untraced, scaling_eff),
        "attempted": attempted,
        "failures": failures,
        "nesting_errors": nesting_errors(tracer.spans),
        "spans": len(tracer.spans),
    }
