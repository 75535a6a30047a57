"""Baseline schedulers: online rule-ranked dispatch with a bounded waiting
queue, offline shortest-exposure placement, and an exhaustive oracle for
tiny instances.

The online model: a task enters the waiting queue at its required start
step.  At every step the dispatcher starts, in rule order, every queued
task that can begin right now; when the queue exceeds its capacity the
rule-minimal task is forced out and committed to its earliest feasible
(site, start).  Tasks with no statically feasible start left (visibility
or deadline) are dropped and reported.

Every scheduler here takes the scenario as one `SchedulingContext`,
which carries its tables and visibility constraints, and commits
through `schedule.Placement`, the oracle included; this module only adds
the dispatch rules, the site-choice keys, the queue loop and the
oracle's search.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .scenario import ObservationTask, Target
from .schedule import (
    Placement,
    ScheduleDag,
    SchedulingContext,
    build_from_arrays,
    earliest_feasible_start,  # unused here; perfbench/tracing.py wraps this binding
)

__all__ = [
    "TaskRule",
    "SiteRule",
    "rank_key",
    "schedule_fcfs_list",
    "schedule_online_heuristic",
    "schedule_offline_stf",
    "brute_force_optimal",
    "DISTRIBUTED_PAIRS",
]


class TaskRule(str, Enum):
    FCFS = "fcfs"  # earliest required start first
    STF = "stf"    # shortest exposure first
    EDD = "edd"    # earliest deadline first
    SPT = "spt"    # shortest target monitoring duration first
    RIP = "rip"    # highest resource intensity first


class SiteRule(str, Enum):
    BEST_QUALITY = "quality"    # lowest airmass at the candidate start
    BEST_PRIORITY = "priority"  # highest equipment-priority factor


#: The ten distributed baselines as (short name, task rule, site rule).
DISTRIBUTED_PAIRS = [
    ("sqtf", TaskRule.STF, SiteRule.BEST_QUALITY),
    ("sptf", TaskRule.STF, SiteRule.BEST_PRIORITY),
    ("fqtf", TaskRule.FCFS, SiteRule.BEST_QUALITY),
    ("fptf", TaskRule.FCFS, SiteRule.BEST_PRIORITY),
    ("pqtf", TaskRule.SPT, SiteRule.BEST_QUALITY),
    ("pptf", TaskRule.SPT, SiteRule.BEST_PRIORITY),
    ("dqtf", TaskRule.EDD, SiteRule.BEST_QUALITY),
    ("dptf", TaskRule.EDD, SiteRule.BEST_PRIORITY),
    ("rqtf", TaskRule.RIP, SiteRule.BEST_QUALITY),
    ("rptf", TaskRule.RIP, SiteRule.BEST_PRIORITY),
]

#: the exhaustive oracle's instance size limit
BRUTE_FORCE_MAX_TASKS = 6


def rank_key(rule: TaskRule, task: ObservationTask, target: Target) -> tuple:
    """Sort key of a task under a dispatch rule; lower ranks first.

    Ties always break by (required start, task id).
    """
    if rule == TaskRule.FCFS:
        primary = task.arrival
    elif rule == TaskRule.STF:
        primary = task.exposure
    elif rule == TaskRule.EDD:
        primary = task.deadline
    elif rule == TaskRule.SPT:
        primary = target.duration
    elif rule == TaskRule.RIP:
        primary = -(sum(task.rho) * target.n_exposures)
    else:
        raise ValueError(f"unknown task rule: {rule!r}")
    return (primary, task.arrival, task.id)


def _site_key(ctx: SchedulingContext, row: int, site_rule: SiteRule | None):
    """``Placement.place`` key over feasible (site, start) candidates per
    the site rule, ties toward the earlier start, then the lower site
    index; None (the placement default) without a rule."""
    if site_rule == SiteRule.BEST_QUALITY:
        tr = int(ctx.target_row[row])
        return lambda sb: (ctx.air[tr, sb[0], sb[1]], sb[1], sb[0])
    if site_rule == SiteRule.BEST_PRIORITY:
        return lambda sb: (-ctx.scenario.sites[sb[0]].equipment_priority, sb[1], sb[0])
    return None


def schedule_online_heuristic(
    ctx: SchedulingContext,
    task_rule: TaskRule,
    site_rule: SiteRule | None = None,
    queue_cap: int = 10,
) -> tuple[ScheduleDag, list[int]]:
    """Simulate the arrival stream under a dispatch rule.

    Returns the schedule and the ids of dropped tasks.  Deterministic for
    a given scenario and rule pair.
    """
    if queue_cap < 1:
        raise ValueError("queue_cap must be >= 1")
    scenario = ctx.scenario
    st = Placement(ctx)

    def key(row: int) -> tuple:
        return rank_key(task_rule, scenario.tasks[row], scenario.targets[int(ctx.target_row[row])])

    last_start: dict[int, int] = {}

    def static_last_start(row: int) -> int:
        """Latest start with visibility + deadline satisfied somewhere,
        ignoring occupancy; -1 when the task is never observable."""
        if row not in last_start:
            windows = (ctx.static_starts(row, s, 0) for s in range(ctx.n_sites))
            last_start[row] = max(
                (lo + int(np.flatnonzero(ok)[-1]) for lo, ok in windows if ok.any()), default=-1
            )
        return last_start[row]

    by_arrival: dict[int, list[int]] = {}
    for r in range(ctx.n_tasks):
        by_arrival.setdefault(int(ctx.arrival[r]), []).append(r)

    # a task waits while its previous sibling is still queued: siblings
    # arrive strictly later, so every other previous sibling is decided
    queue: list[int] = []
    for t in range(ctx.horizon):
        for r in sorted(by_arrival.get(t, ()), key=lambda r: int(ctx.task_id[r])):
            queue.append(r)

        # overflow: the rule forces tasks out until the queue fits again
        while len(queue) > queue_cap:
            ready = [r for r in queue if int(ctx.prev_sibling[r]) not in queue]
            victim = min(ready, key=key)
            st.place(victim, t, _site_key(ctx, victim, site_rule))
            queue.remove(victim)

        # start every task that can begin right now, best-ranked first
        while True:
            startable: list[tuple[int, list[int]]] = []
            for r in queue:
                if int(ctx.prev_sibling[r]) in queue or st.release(r) > t:
                    continue
                sites_now = [s for s in range(ctx.n_sites) if st.fits(r, s, t)]
                if sites_now:
                    startable.append((r, sites_now))
            if not startable:
                break
            r, sites_now = min(startable, key=lambda rs: key(rs[0]))
            # every candidate starts at t: without a rule the lowest site wins
            st.commit(r, *min([(s, t) for s in sites_now], key=_site_key(ctx, r, site_rule)))
            queue.remove(r)

        # drop what can no longer meet visibility + deadline anywhere
        for r in list(queue):
            if t > static_last_start(r):
                st.drop(r)
                queue.remove(r)

    for r in queue:  # end of horizon: nothing left can run
        st.drop(r)

    return st.to_dag(), st.drops


def _list_schedule(ctx: SchedulingContext, key) -> tuple[ScheduleDag, list[int]]:
    """Each task in ``key`` order goes to its earliest feasible (site, start)
    from its release, or is dropped.  A ``Scenario``'s siblings arrive
    strictly later along their sequence with one exposure, so under
    (arrival, id) and (exposure, arrival, id) alike a task sorts after its
    previous sibling, already placed or dropped."""
    st = Placement(ctx)
    for r in sorted(range(ctx.n_tasks), key=key):
        st.place(r)
    return st.to_dag(), st.drops


def schedule_fcfs_list(ctx: SchedulingContext) -> tuple[ScheduleDag, list[int]]:
    """Arrival-order list scheduling of the whole task sequence: each task
    in (required start, id) order goes to its earliest feasible (site,
    start).  This is the cheap constructive initializer the rewriting
    search starts from; tasks with no feasible slot are dropped."""
    return _list_schedule(ctx, lambda r: (int(ctx.arrival[r]), int(ctx.task_id[r])))


def schedule_offline_stf(ctx: SchedulingContext) -> tuple[ScheduleDag, list[int]]:
    """Offline baseline: the whole task sequence is known at t=0; tasks are
    placed in ascending exposure order, each at its earliest feasible slot
    (still respecting required start times)."""
    return _list_schedule(ctx, lambda r: (int(ctx.exposure[r]), int(ctx.arrival[r]), int(ctx.task_id[r])))


def brute_force_optimal(ctx: SchedulingContext) -> ScheduleDag:
    """Exhaustive minimum-total-slowdown schedule for tiny instances of at
    most ``BRUTE_FORCE_MAX_TASKS`` tasks.

    Enumerates left-shifted schedules only: every task starts at its
    release point (arrival / sibling release / visibility-window opening)
    or exactly when another task completes.  Any feasible schedule can be
    left-shifted into this form without increasing its cost, so the search
    is exact.  Each schedule is visited once, in nondecreasing start order.

    Raises ValueError("no feasible schedule") when the instance cannot be
    fully scheduled.
    """
    n = ctx.n_tasks
    if n > BRUTE_FORCE_MAX_TASKS:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_TASKS} tasks, got {n}")
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return build_from_arrays(ctx, empty, empty, empty)

    st = Placement(ctx)
    best_cost = np.inf
    best: list[tuple[int, int, int]] | None = None

    def candidates(row: int, floor_start: int, floor_id: int) -> list[tuple[int, int]]:
        tid = int(ctx.task_id[row])
        lo = st.release(row, floor_start if tid > floor_id else floor_start + 1)
        out: set[tuple[int, int]] = set()
        tr = int(ctx.target_row[row])
        for s in range(ctx.n_sites):
            b0 = st.fit(row, s, lo)
            if b0 is not None:
                out.add((s, b0))
            for r2, (s2, b2) in st.committed.items():
                if s2 != s:
                    continue
                c2 = b2 + int(ctx.exposure[r2])
                if c2 >= lo and st.fits(row, s, c2):
                    out.add((s, c2))
            rl = ctx.run_left[tr, s]  # window openings: visible steps after hidden ones
            w = lo + np.flatnonzero(rl[lo:] > 0)
            for b in w[(w == 0) | (rl[w - 1] == 0)].tolist():
                if st.fits(row, s, b):
                    out.add((s, b))
        return sorted(out, key=lambda sb: (sb[1], sb[0]))

    def lower_bound(rest: list[int]) -> float:
        lb = 0.0
        for row in rest:
            lo = st.release(row)
            e = int(ctx.exposure[row])
            b = None
            for s in range(ctx.n_sites):
                cand = st.fit(row, s, lo)
                if cand is not None:
                    b = cand if b is None else min(b, cand)
            if b is None:
                return np.inf  # some task cannot be scheduled on this branch
            lb += (b + e - int(ctx.arrival[row])) / e
        return lb

    def dfs(cost: float, floor_start: int, floor_id: int) -> None:
        nonlocal best_cost, best
        rest = [r for r in range(n) if r not in st.committed]
        if not rest:
            if cost < best_cost - 1e-12:
                best_cost = cost
                best = [(r, s, b) for r, (s, b) in st.committed.items()]
            return
        if cost + lower_bound(rest) >= best_cost - 1e-12:
            return
        for row in rest:
            prev = int(ctx.prev_sibling[row])
            if prev >= 0 and prev not in st.committed:
                continue  # siblings go in sequence order
            for s, b in candidates(row, floor_start, floor_id):
                e = int(ctx.exposure[row])
                st.commit(row, s, b)
                dfs(cost + (b + e - int(ctx.arrival[row])) / e, b, int(ctx.task_id[row]))
                st.uncommit(row)

    dfs(0.0, 0, -1)
    if best is None:
        raise ValueError("no feasible schedule")
    return build_from_arrays(ctx, *np.array(best, dtype=np.int64).T)
