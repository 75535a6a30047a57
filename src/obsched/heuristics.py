"""Baseline schedulers: online rule-ranked dispatch with a bounded waiting
queue, offline shortest-exposure placement, and an exhaustive oracle for
tiny instances.

The online model: a task enters the waiting queue at its required start
step.  At every step the dispatcher starts, in rule order, every queued
task that can begin right now; when the queue exceeds its capacity the
rule-minimal task is forced out and committed to its earliest feasible
(site, start).  Tasks with no statically feasible start left (visibility
or deadline) are dropped and reported.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .ephemeris import VisibilityConstraints
from .scenario import CADENCE, ObservationTask, Scenario, Target
from .schedule import (
    ScheduleDag,
    SchedulingContext,
    build_from_arrays,
    earliest_feasible_start,
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


def _target_exposure_count(target: Target) -> int:
    e = target.exposure_minutes
    if target.duration < e:
        return 0
    if target.mode.kind == CADENCE:
        return (target.duration - e) // (e + target.mode.gap_minutes) + 1
    return target.duration // e


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
        primary = -(sum(task.rho) * _target_exposure_count(target))
    else:
        raise ValueError(f"unknown task rule: {rule!r}")
    return (primary, task.arrival, task.id)


class _PlacementState:
    """Mutable occupancy bookkeeping shared by the scheduler loops and the
    learned online loop: the one place-or-drop and commit path, and the
    dag those commits make."""

    def __init__(self, ctx: SchedulingContext):
        self.ctx = ctx
        self.profile = np.zeros((ctx.n_sites, ctx.n_filters, ctx.horizon), dtype=np.uint8)
        self.committed: dict[int, tuple[int, int]] = {}  # row -> (site, start)
        self.dropped: set[int] = set()
        self.drops: list[int] = []  # dropped task ids, in drop order
        self._static_bound: dict[int, int] = {}

    def release(self, row: int) -> int | None:
        """Earliest start allowed by arrival + sibling cadence; None while
        the previous sibling is still undecided, which only the online
        dispatch queue meets."""
        prev = int(self.ctx.prev_sibling[row])
        if prev < 0 or prev in self.dropped:
            return self.ctx.release(row, None)
        if prev in self.committed:
            return self.ctx.release(row, self.committed[prev][1])
        return None

    def commit(self, row: int, site: int, start: int) -> None:
        e = int(self.ctx.exposure[row])
        self.profile[site][self.ctx.rho_idx[row], start : start + e] = 1
        self.committed[row] = (site, start)

    def drop(self, row: int) -> None:
        self.dropped.add(row)
        self.drops.append(int(self.ctx.task_id[row]))

    def place(self, row: int, lo: int, site_rule: SiteRule | None = None) -> None:
        """Commit the task at the site rule's pick among each site's
        earliest feasible start >= lo, or drop it when no site has room."""
        cands = []
        for s in range(self.ctx.n_sites):
            b = earliest_feasible_start(self.ctx, self.profile, row, s, lo)
            if b is not None:
                cands.append((s, b))
        if cands:
            self.commit(row, *_choose_site(self.ctx, row, cands, site_rule))
        else:
            self.drop(row)

    def fits_now(self, row: int, site: int, t: int) -> bool:
        ctx = self.ctx
        if ctx.fits_statically(row, site, t) is not None:
            return False
        e = int(ctx.exposure[row])
        return not self.profile[site][ctx.rho_idx[row], t : t + e].any()

    def static_last_start(self, row: int) -> int:
        """Latest start with visibility + deadline satisfied somewhere,
        ignoring occupancy; -1 when the task is never observable."""
        if row not in self._static_bound:
            windows = (self.ctx.static_starts(row, s, 0) for s in range(self.ctx.n_sites))
            self._static_bound[row] = max(
                (lo + int(np.flatnonzero(ok)[-1]) for lo, ok in windows if ok.any()), default=-1
            )
        return self._static_bound[row]

    def to_dag(self) -> ScheduleDag:
        """The committed placements as a validated dag."""
        rows = np.array(sorted(self.committed), dtype=np.int64)
        site = np.array([self.committed[r][0] for r in rows], dtype=np.int64)
        start = np.array([self.committed[r][1] for r in rows], dtype=np.int64)
        return build_from_arrays(self.ctx, rows, site, start)


def _choose_site(
    ctx: SchedulingContext,
    row: int,
    cands: list[tuple[int, int]],
    site_rule: SiteRule | None,
) -> tuple[int, int]:
    """Pick among feasible (site, start) candidates per the site rule;
    ties break toward the earlier start, then the lower site index."""
    if site_rule == SiteRule.BEST_QUALITY:
        tr = int(ctx.target_row[row])
        return min(cands, key=lambda sb: (ctx.air[tr, sb[0], sb[1]], sb[1], sb[0]))
    if site_rule == SiteRule.BEST_PRIORITY:
        return min(
            cands,
            key=lambda sb: (-ctx.scenario.sites[sb[0]].equipment_priority, sb[1], sb[0]),
        )
    return min(cands, key=lambda sb: (sb[1], sb[0]))


def schedule_online_heuristic(
    scenario: Scenario,
    task_rule: TaskRule,
    site_rule: SiteRule | None = None,
    queue_cap: int = 10,
    constraints: VisibilityConstraints | None = None,
    *,
    ctx: SchedulingContext | None = None,
) -> tuple[ScheduleDag, list[int]]:
    """Simulate the arrival stream under a dispatch rule.

    Returns the schedule and the ids of dropped tasks.  Deterministic for
    a given scenario and rule pair.
    """
    if queue_cap < 1:
        raise ValueError("queue_cap must be >= 1")
    ctx = ctx or SchedulingContext.for_scenario(scenario, constraints)
    st = _PlacementState(ctx)

    def key(row: int) -> tuple:
        return rank_key(task_rule, scenario.tasks[row], scenario.targets[int(ctx.target_row[row])])

    by_arrival: dict[int, list[int]] = {}
    for r in range(ctx.n_tasks):
        by_arrival.setdefault(int(ctx.arrival[r]), []).append(r)

    queue: list[int] = []
    for t in range(ctx.horizon):
        for r in sorted(by_arrival.get(t, ()), key=lambda r: int(ctx.task_id[r])):
            queue.append(r)

        # overflow: the rule forces tasks out until the queue fits again
        while len(queue) > queue_cap:
            ready = [r for r in queue if st.release(r) is not None]
            victim = min(ready, key=key)
            st.place(victim, max(st.release(victim), t), site_rule)
            queue.remove(victim)

        # start every task that can begin right now, best-ranked first
        while True:
            startable: list[tuple[int, list[int]]] = []
            for r in queue:
                lo = st.release(r)
                if lo is None or lo > t:
                    continue
                sites_now = [s for s in range(ctx.n_sites) if st.fits_now(r, s, t)]
                if sites_now:
                    startable.append((r, sites_now))
            if not startable:
                break
            r, sites_now = min(startable, key=lambda rs: key(rs[0]))
            s, b = _choose_site(ctx, r, [(s, t) for s in sites_now], site_rule)
            st.commit(r, s, b)
            queue.remove(r)

        # drop what can no longer meet visibility + deadline anywhere
        for r in list(queue):
            if t > st.static_last_start(r):
                st.drop(r)
                queue.remove(r)

    for r in queue:  # end of horizon: nothing left can run
        st.drop(r)

    return st.to_dag(), st.drops


def _list_schedule(ctx: SchedulingContext, key) -> tuple[ScheduleDag, list[int]]:
    """Each task in ``key`` order goes to its earliest feasible (site, start)
    from its release, or is dropped.  ``release`` is never None here: a
    ``Scenario``'s siblings arrive strictly later along their sequence with
    one exposure, so under (arrival, id) and (exposure, arrival, id) alike
    a task sorts after its previous sibling, already placed or dropped."""
    st = _PlacementState(ctx)
    for r in sorted(range(ctx.n_tasks), key=key):
        st.place(r, st.release(r))
    return st.to_dag(), st.drops


def schedule_fcfs_list(
    scenario: Scenario,
    constraints: VisibilityConstraints | None = None,
    *,
    ctx: SchedulingContext | None = None,
) -> tuple[ScheduleDag, list[int]]:
    """Arrival-order list scheduling of the whole task sequence: each task
    in (required start, id) order goes to its earliest feasible (site,
    start).  This is the cheap constructive initializer the rewriting
    search starts from; tasks with no feasible slot are dropped."""
    ctx = ctx or SchedulingContext.for_scenario(scenario, constraints)
    return _list_schedule(ctx, lambda r: (int(ctx.arrival[r]), int(ctx.task_id[r])))


def schedule_offline_stf(
    scenario: Scenario,
    constraints: VisibilityConstraints | None = None,
    *,
    ctx: SchedulingContext | None = None,
) -> tuple[ScheduleDag, list[int]]:
    """Offline baseline: the whole task sequence is known at t=0; tasks are
    placed in ascending exposure order, each at its earliest feasible slot
    (still respecting required start times)."""
    ctx = ctx or SchedulingContext.for_scenario(scenario, constraints)
    return _list_schedule(ctx, lambda r: (int(ctx.exposure[r]), int(ctx.arrival[r]), int(ctx.task_id[r])))


def brute_force_optimal(
    scenario: Scenario,
    constraints: VisibilityConstraints | None = None,
    *,
    ctx: SchedulingContext | None = None,
    max_tasks: int = 6,
) -> ScheduleDag:
    """Exhaustive minimum-total-slowdown schedule for tiny instances.

    Enumerates left-shifted schedules only: every task starts at its
    release point (arrival / sibling release / visibility-window opening)
    or exactly when another task completes.  Any feasible schedule can be
    left-shifted into this form without increasing its cost, so the search
    is exact.  Each schedule is visited once, in nondecreasing start order.

    Raises ValueError("no feasible schedule") when the instance cannot be
    fully scheduled.
    """
    ctx = ctx or SchedulingContext.for_scenario(scenario, constraints)
    n = ctx.n_tasks
    if n > max_tasks:
        raise ValueError(f"brute force limited to {max_tasks} tasks, got {n}")
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return build_from_arrays(ctx, empty, empty, empty)

    best_cost = np.inf
    best: list[tuple[int, int, int]] | None = None

    profile = np.zeros((ctx.n_sites, ctx.n_filters, ctx.horizon), dtype=np.uint8)
    placed: dict[int, tuple[int, int]] = {}

    def release_of(row: int) -> int | None:
        prev = int(ctx.prev_sibling[row])
        rel = int(ctx.arrival[row])
        if prev < 0:
            return rel
        if prev not in placed:
            return None
        _, b = placed[prev]
        return max(rel, b + int(ctx.exposure[prev]) + int(ctx.sibling_gap[row]))

    def static_ok(row: int, s: int, b: int) -> bool:
        if ctx.fits_statically(row, s, b) is not None:
            return False
        e = int(ctx.exposure[row])
        return not profile[s][ctx.rho_idx[row], b : b + e].any()

    def candidates(row: int, floor_start: int, floor_id: int) -> list[tuple[int, int]]:
        rel = release_of(row)
        if rel is None:
            return []
        tid = int(ctx.task_id[row])
        lo = max(rel, floor_start if tid > floor_id else floor_start + 1)
        out: set[tuple[int, int]] = set()
        tr = int(ctx.target_row[row])
        for s in range(ctx.n_sites):
            b0 = earliest_feasible_start(ctx, profile, row, s, lo)
            if b0 is not None:
                out.add((s, b0))
            for r2, (s2, b2) in placed.items():
                if s2 != s:
                    continue
                c2 = b2 + int(ctx.exposure[r2])
                if c2 >= lo and static_ok(row, s, c2):
                    out.add((s, c2))
            run_start = ctx.run_start[tr, s]
            for w in np.unique(run_start[run_start >= lo]).tolist():
                if static_ok(row, s, int(w)):
                    out.add((s, int(w)))
        return sorted(out, key=lambda sb: (sb[1], sb[0]))

    def lower_bound(rest: list[int]) -> float:
        lb = 0.0
        for row in rest:
            rel = release_of(row)
            lo = int(ctx.arrival[row]) if rel is None else rel
            e = int(ctx.exposure[row])
            b = None
            for s in range(ctx.n_sites):
                cand = earliest_feasible_start(ctx, profile, row, s, lo)
                if cand is not None:
                    b = cand if b is None else min(b, cand)
            if b is None:
                return np.inf  # some task cannot be scheduled on this branch
            lb += (b + e - int(ctx.arrival[row])) / e
        return lb

    def dfs(cost: float, floor_start: int, floor_id: int) -> None:
        nonlocal best_cost, best
        rest = [r for r in range(n) if r not in placed]
        if not rest:
            if cost < best_cost - 1e-12:
                best_cost = cost
                best = [(r, s, b) for r, (s, b) in placed.items()]
            return
        if cost + lower_bound(rest) >= best_cost - 1e-12:
            return
        for row in rest:
            prev = int(ctx.prev_sibling[row])
            if prev >= 0 and prev not in placed:
                continue  # siblings go in sequence order
            for s, b in candidates(row, floor_start, floor_id):
                e = int(ctx.exposure[row])
                placed[row] = (s, b)
                profile[s][ctx.rho_idx[row], b : b + e] = 1
                dfs(cost + (b + e - int(ctx.arrival[row])) / e, b, int(ctx.task_id[row]))
                profile[s][ctx.rho_idx[row], b : b + e] = 0
                del placed[row]

    dfs(0.0, 0, -1)
    if best is None:
        raise ValueError("no feasible schedule")
    rows = np.array([r for r, _, _ in best], dtype=np.int64)
    site = np.array([s for _, s, _ in best], dtype=np.int64)
    start = np.array([b for _, _, b in best], dtype=np.int64)
    return build_from_arrays(ctx, rows, site, start)
