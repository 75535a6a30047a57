"""Schedule representation: assignments of tasks to (site, start-step),
the dependency DAG over them, feasibility validation, slowdown cost, and
task embedding vectors.

A schedule is stored as a value object (`ScheduleDag`): cheap to clone,
never mutated after construction.  `Placement` is the one mutable
placement model: every scheduler, the exhaustive oracle, the learned
online loop and the rewriter take releases and fits from it, commit and
uncommit rows on it and freeze the result with `to_dag`.  Outside it
only `validate` (the independent reference) and `build_from_arrays`
(the whole-dag array form) write an occupancy profile.  Visibility is
one table, ``SchedulingContext.run_left``.  Edge semantics: a task hangs
off its site's root node when it starts at its release (arrival, sibling
cadence) or on the first step of its visible run; it also hangs off every
same-site task whose completion equals its start, and off the root alone
when it has neither.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ephemeris import VisibilityConstraints, visibility_masks_multi
from .scenario import Scenario

__all__ = [
    "Assignment",
    "InfeasibleAssignmentError",
    "Violation",
    "SchedulingContext",
    "Placement",
    "ScheduleDag",
    "build_dag",
    "validate",
    "total_slowdown",
    "average_slowdown",
    "embedding_length",
    "embedding_matrix",
    "earliest_feasible_start",
    "dump_schedule",
]

DEFAULT_E_MAX = 20

class InfeasibleAssignmentError(ValueError):
    """An assignment violates a scheduling constraint."""

    def __init__(self, task_id: int, site_index: int, step: int, constraint: str):
        self.task_id = task_id
        self.site_index = site_index
        self.step = step
        self.constraint = constraint
        super().__init__(
            f"infeasible assignment: {constraint} "
            f"(task {task_id}, site {site_index}, step {step})"
        )


@dataclass(frozen=True)
class Violation:
    kind: str
    task_id: int | None
    message: str


@dataclass(frozen=True)
class Assignment:
    task_id: int
    site_index: int
    start_step: int


class SchedulingContext:
    """Precomputed per-scenario tables: task arrays and visibility physics.

    The one way a scenario reaches the schedulers and ``build_dag``:
    built once per (scenario, constraints), with the default
    ``VisibilityConstraints`` when none are given, and shared by every
    dag over that scenario; read-only after construction.  It owns the
    static half of the placement model: the visibility + deadline window
    lookup (``static_starts``, ``fits_statically``) over ``run_left``, the
    number of consecutive observable steps from each (target, site, step),
    0 where the target is not observable.  The sibling-cadence release
    depends on what is committed, so it lives on ``Placement``.
    """

    def __init__(self, scenario: Scenario, constraints: VisibilityConstraints | None = None):
        constraints = constraints or VisibilityConstraints()
        self.scenario = scenario
        self.constraints = constraints
        self.horizon = scenario.grid.horizon_steps
        self.n_sites = len(scenario.sites)
        self.n_filters = scenario.num_filters
        n = len(scenario.tasks)
        self.n_tasks = n

        self.task_id = np.array([t.id for t in scenario.tasks], dtype=np.int64)
        self.row_of = {int(tid): r for r, tid in enumerate(self.task_id)}
        self.arrival = np.array([t.arrival for t in scenario.tasks], dtype=np.int64)
        self.exposure = np.array([t.exposure for t in scenario.tasks], dtype=np.int64)
        self.deadline = np.array([t.deadline for t in scenario.tasks], dtype=np.int64)
        self.limit = np.minimum(self.deadline, self.horizon)  # latest completion
        self.rho = np.array([t.rho for t in scenario.tasks], dtype=bool).reshape(
            n, self.n_filters
        )
        self.rho_idx = [np.flatnonzero(self.rho[r]) for r in range(n)]

        tgt_row = {t.id: i for i, t in enumerate(scenario.targets)}
        self.target_row = np.array(
            [tgt_row[t.target_id] for t in scenario.tasks], dtype=np.int64
        )
        # previous sibling (same target, seq_index - 1) and the minimum idle
        # gap required after it completes (0 for exposure-count mode)
        self.prev_sibling = np.full(n, -1, dtype=np.int64)
        self.sibling_gap = np.zeros(n, dtype=np.int64)
        by_target: dict[tuple[int, int], int] = {}
        for r, t in enumerate(scenario.tasks):
            by_target[(t.target_id, t.seq_index)] = r
        for r, t in enumerate(scenario.tasks):
            prev = by_target.get((t.target_id, t.seq_index - 1))
            if prev is not None:
                self.prev_sibling[r] = prev
                self.sibling_gap[r] = scenario.targets[tgt_row[t.target_id]].mode.sibling_gap

        # visibility per (target, site, step): airmass and run_left
        nt, ns, h = len(scenario.targets), self.n_sites, self.horizon
        self.air = np.full((nt, ns, h), np.inf)
        # run lengths lie in [0, horizon]: int32 halves the table
        self.run_left = np.zeros((nt, ns, h), dtype=np.int32)
        if nt:
            ra = np.array([t.coord.ra for t in scenario.targets])
            dec = np.array([t.coord.dec for t in scenario.targets])
            idx = np.arange(h, dtype=np.int32)
            for si, site in enumerate(scenario.sites):
                m, am = visibility_masks_multi(ra, dec, site.coord, scenario.grid, constraints)
                self.air[:, si] = am
                # first unobservable step at or after each step, minus the step
                inv = np.where(m, np.int32(h), idx[None, :])
                self.run_left[:, si] = np.minimum.accumulate(inv[:, ::-1], axis=1)[:, ::-1] - idx

    # -- static feasibility of one task at (site, start), other tasks aside --

    def static_starts(self, row: int, site: int, lo: int) -> tuple[int, np.ndarray]:
        """Starts of one task on one site that visibility and the deadline
        allow, occupancy aside.

        Returns ``(first, ok)`` with ``first = max(lo, arrival)``: a start
        at ``first + k`` keeps the whole exposure inside one visible run
        (``run_left >= exposure``) and completes by ``limit`` iff
        ``k < ok.size and ok[k]``.  ``ok`` is empty when no start of
        ``[first, limit - exposure]`` fits.
        """
        e = int(self.exposure[row])
        lo = max(int(lo), int(self.arrival[row]))
        hi = int(self.limit[row]) - e
        if hi >= lo:
            ok = self.run_left[int(self.target_row[row]), site, lo : hi + 1] >= e
            if ok.any():  # cheap exit for the many sites that never see the target
                return lo, ok
        return lo, np.zeros(0, dtype=bool)

    def fits_statically(self, row: int, site: int, start: int) -> str | None:
        """Name of the violated static constraint, or None if ok."""
        e = int(self.exposure[row])
        if start < self.arrival[row]:
            return "arrival"
        if start + e > self.limit[row]:
            return "deadline"
        if self.run_left[int(self.target_row[row]), site, start] < e:
            return "visibility"
        return None


def earliest_feasible_start(
    ctx: SchedulingContext,
    profile: np.ndarray,
    row: int,
    site: int,
    lo: int,
) -> int | None:
    """Earliest start >= lo where the task fits: inside one visibility
    window, completing by min(deadline, horizon), with all its filters
    free on the site for the whole exposure.  Sibling-cadence bounds must
    be folded into ``lo`` by the caller.  Returns None when nothing fits.
    """
    lo, ok = ctx.static_starts(row, site, lo)
    if ok.size == 0:
        return None
    e, n = int(ctx.exposure[row]), ok.size
    occ = profile[site][ctx.rho_idx[row], lo : lo + n + e - 1]  # every step a start may use
    occ_any = occ.max(axis=0) if occ.shape[0] > 1 else occ[0]
    csum = np.concatenate(([0], np.cumsum(occ_any, dtype=np.int64)))
    ok &= csum[e:] == csum[:n]  # no busy step in [start, start + e)
    pos = np.flatnonzero(ok)
    if pos.size == 0:
        return None
    return int(lo + pos[0])


class ScheduleDag:
    """Immutable schedule over a subset of a scenario's tasks.

    Node ids: 0..n_sites-1 are the per-site root nodes, n_sites+i is the
    i-th scheduled task in ascending task-id order.  ``parents[node]``
    lists the dependency parents of each task node (empty for roots).
    """

    __slots__ = (
        "ctx",
        "rows",
        "site",
        "start",
        "eta",
        "parents",
        "profile",
        "task_ids",
        "node_of_task",
    )

    def __init__(self, ctx, rows, site, start, eta, parents, profile):
        self.ctx = ctx
        self.rows = rows
        self.site = site
        self.start = start
        self.eta = eta
        self.parents = parents
        self.profile = profile
        self.task_ids: tuple[int, ...] = tuple(ctx.task_id[rows].tolist())
        self.node_of_task = {tid: ctx.n_sites + i for i, tid in enumerate(self.task_ids)}

    # -- structure ----------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return self.ctx.n_sites

    @property
    def n_nodes(self) -> int:
        return self.ctx.n_sites + len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScheduleDag)
            and self.ctx.scenario is other.ctx.scenario
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.site, other.site)
            and np.array_equal(self.start, other.start)
        )


def build_from_arrays(ctx: SchedulingContext, rows, site, start) -> ScheduleDag:
    """Core constructor from (rows, site, start) arrays, behind
    ``Placement.to_dag`` and ``build_dag``: validates every constraint and
    derives edges.

    Raises InfeasibleAssignmentError on the first violation found: the
    lowest task id that breaks a constraint, checked per task in the order
    site range ("dependency"), ``fits_statically``, resource against the
    lower-id tasks, cadence.
    """
    order = np.argsort(ctx.task_id[rows], kind="stable")
    rows = np.asarray(rows, dtype=np.int64)[order]
    site = np.asarray(site, dtype=np.int64)[order]
    start = np.asarray(start, dtype=np.int64)[order]
    n = len(rows)

    if len(set(rows.tolist())) != n:
        raise ValueError("duplicate task in assignments")

    ns, nf, h = ctx.n_sites, ctx.n_filters, ctx.horizon
    e = ctx.exposure[rows]
    arrival = ctx.arrival[rows]
    tr = ctx.target_row[rows]

    # static checks (fits_statically, vectorised): visibility is read only
    # where the site, arrival and deadline checks pass
    ok = (site >= 0) & (site < ns) & (start >= arrival) & (start + e <= ctx.limit[rows])
    i = np.flatnonzero(ok)
    ok[i] = ctx.run_left[tr[i], site[i], start[i]] >= e[i]

    # occupancy cells of the statically feasible tasks as flat
    # (site, filter, step) keys, in (task, filter, step) order
    k = np.arange(int(e.max(initial=0)))
    live = ok[:, None, None] & ctx.rho[rows][:, :, None] & (k < e[:, None])[:, None, :]
    ci, cf, ck = np.nonzero(live)
    keys = (site[ci] * nf + cf) * h + start[ci] + ck
    profile = np.zeros(ns * nf * h, dtype=np.uint8)
    profile[keys] = 1

    # arrival + sibling cadence (Placement.release at now=0, per row); a
    # previous sibling outside the dag does not constrain
    pos = np.full(ctx.n_tasks, -1, dtype=np.int64)
    pos[rows] = np.arange(n)
    prev = ctx.prev_sibling[rows]
    j = np.flatnonzero(prev >= 0)
    j = j[pos[prev[j]] >= 0]
    release = arrival.copy()
    release[j] = np.maximum(
        arrival[j], start[pos[prev[j]]] + ctx.exposure[prev[j]] + ctx.sibling_gap[rows[j]]
    )

    if not ok.all() or np.count_nonzero(profile) != keys.size or (start < release).any():
        _raise_first_violation(ctx, rows, site, start, ok, release, ci, ck, keys)

    eta = (start + e - arrival) / e
    # the root edge: the release, or its visible run's first step (start - 1 = -1 at 0)
    root = (start == release) | (start == 0) | (ctx.run_left[tr, site, start - 1] == 0)

    # dependency edges: completions per site -> starts
    site_l, start_l = site.tolist(), start.tolist()
    comp_map: dict[tuple[int, int], list[int]] = {}
    for node, key in enumerate(zip(site_l, (start + e).tolist()), ns):
        comp_map.setdefault(key, []).append(node)
    parents: list[tuple[int, ...]] = [()] * ns
    for node, (s, b, at_root) in enumerate(zip(site_l, start_l, root.tolist()), ns):
        # the root comes first and the completions ascend, so p is sorted
        p = [s] if at_root else []
        p.extend(q for q in comp_map.get((s, b), ()) if q != node)
        # no predecessor completes at B (e.g. a rewrite vacated the slot
        # before it): the task still hangs off its site root
        parents.append(tuple(p) if p else (s,))

    return ScheduleDag(ctx, rows, site, start, eta, tuple(parents), profile.reshape(ns, nf, h))


def _raise_first_violation(ctx, rows, site, start, ok, release, ci, ck, keys) -> None:
    """Raise what a per-task pass in task-id order would raise first; the
    arguments are ``build_from_arrays``'s, where some check failed."""
    clash = np.ones(keys.size, dtype=bool)  # a cell a lower-id task holds
    clash[np.unique(keys, return_index=True)[1]] = False
    resource = np.zeros(len(rows), dtype=bool)
    resource[ci[clash]] = True
    i = int(np.argmax(~ok | resource | (start < release)))
    r, s, b = int(rows[i]), int(site[i]), int(start[i])
    tid = int(ctx.task_id[r])
    if not 0 <= s < ctx.n_sites:
        raise InfeasibleAssignmentError(tid, s, b, "dependency")
    bad = ctx.fits_statically(r, s, b)
    if bad is not None:
        raise InfeasibleAssignmentError(tid, s, b, bad)
    if resource[i]:
        raise InfeasibleAssignmentError(tid, s, b + int(ck[clash & (ci == i)].min()), "resource")
    raise InfeasibleAssignmentError(tid, s, b, "cadence")


class Placement:
    """Mutable occupancy of one schedule under construction: the one
    commit path for the schedulers, the exhaustive oracle, the learned
    online loop and the rewriter, and the one home of the sibling-cadence
    release (``release``) and of the point and earliest fits (``fits``,
    ``fit``).

    ``committed`` maps row -> (site, start), ``profile`` holds the
    occupancy those commits make, and ``drops`` the dropped task ids in
    drop order.  ``to_dag`` freezes the commits into a validated dag.
    """

    def __init__(self, ctx: SchedulingContext):
        self.ctx = ctx
        self.profile = np.zeros((ctx.n_sites, ctx.n_filters, ctx.horizon), dtype=np.uint8)
        self.committed: dict[int, tuple[int, int]] = {}
        self.drops: list[int] = []

    def load(self, dag: ScheduleDag) -> "Placement":
        """Take over a dag's placements and a copy of its occupancy, in
        place (``committed`` stays the same dict; drops are kept)."""
        self.committed.clear()
        self.committed.update(zip(dag.rows.tolist(), zip(dag.site.tolist(), dag.start.tolist())))
        self.profile = dag.profile.copy()
        return self

    def release(self, row: int, now: int = 0) -> int:
        """Earliest start allowed by the clock ``now``, arrival and sibling
        cadence; a previous sibling that is not committed does not
        constrain it."""
        ctx = self.ctx
        rel = max(int(now), int(ctx.arrival[row]))
        prev = int(ctx.prev_sibling[row])
        if prev in self.committed:
            rel = max(rel, self.committed[prev][1] + int(ctx.exposure[prev]) + int(ctx.sibling_gap[row]))
        return rel

    def fit(self, row: int, site: int, lo: int) -> int | None:
        """Earliest start >= lo where the task fits on the site now."""
        return earliest_feasible_start(self.ctx, self.profile, row, site, lo)

    def fits(self, row: int, site: int, start: int) -> bool:
        """Whether the task fits statically at (site, start) with all its
        filters free for the whole exposure; release aside."""
        if self.ctx.fits_statically(row, site, start) is not None:
            return False
        e = int(self.ctx.exposure[row])
        return not self.profile[site][self.ctx.rho_idx[row], start : start + e].any()

    def commit(self, row: int, site: int, start: int) -> None:
        e = int(self.ctx.exposure[row])
        self.profile[site][self.ctx.rho_idx[row], start : start + e] = 1
        self.committed[row] = (site, start)

    def uncommit(self, row: int) -> tuple[int, int]:
        """Take a committed task out again; returns its (site, start)."""
        site, start = self.committed.pop(row)
        e = int(self.ctx.exposure[row])
        self.profile[site][self.ctx.rho_idx[row], start : start + e] = 0
        return site, start

    def drop(self, row: int) -> None:
        self.drops.append(int(self.ctx.task_id[row]))

    def place(self, row: int, now: int = 0, key=None) -> None:
        """Commit the task at the ``key``-minimal (site, start) among each
        site's earliest feasible start from ``release(row, now)``, or drop
        it when no site has room.  The default key takes the earliest
        start, then the lower site index."""
        lo = self.release(row, now)
        cands = [(s, b) for s in range(self.ctx.n_sites) if (b := self.fit(row, s, lo)) is not None]
        if cands:
            self.commit(row, *min(cands, key=key or (lambda sb: (sb[1], sb[0]))))
        else:
            self.drop(row)

    def to_dag(self) -> ScheduleDag:
        """The committed placements as a validated dag."""
        rows = np.array(sorted(self.committed), dtype=np.int64)
        site = np.array([self.committed[r][0] for r in rows], dtype=np.int64)
        start = np.array([self.committed[r][1] for r in rows], dtype=np.int64)
        return build_from_arrays(self.ctx, rows, site, start)


def build_dag(ctx: SchedulingContext, assignments: Iterable[Assignment]) -> ScheduleDag:
    """Construct and fully validate a schedule DAG from assignments."""
    assignments = list(assignments)
    rows = np.empty(len(assignments), dtype=np.int64)
    site = np.empty(len(assignments), dtype=np.int64)
    start = np.empty(len(assignments), dtype=np.int64)
    for i, a in enumerate(assignments):
        if a.task_id not in ctx.row_of:
            raise ValueError(f"assignment references unknown task {a.task_id}")
        rows[i] = ctx.row_of[a.task_id]
        site[i] = a.site_index
        start[i] = a.start_step
    return build_from_arrays(ctx, rows, site, start)


def validate(dag: ScheduleDag) -> list[Violation]:
    """Re-derive every invariant from scratch; empty list iff feasible.

    Checks static constraints, capacity, cadence, slowdown cache, edge
    rules, the at-least-one-parent rule, and acyclicity of the stored
    edges (hand-built dags can carry arbitrary edge lists).
    """
    ctx = dag.ctx
    out: list[Violation] = []
    n = len(dag.rows)
    start_by_row = {int(r): int(b) for r, b in zip(dag.rows, dag.start)}

    profile = np.zeros((ctx.n_sites, ctx.n_filters, ctx.horizon), dtype=np.int16)
    release = [0] * n  # arrival + sibling cadence, derived independently
    for i in range(n):
        r, s, b = int(dag.rows[i]), int(dag.site[i]), int(dag.start[i])
        tid = int(ctx.task_id[r])
        release[i] = int(ctx.arrival[r])
        prev = int(ctx.prev_sibling[r])
        if prev >= 0 and prev in start_by_row:
            gap = int(ctx.exposure[prev]) + int(ctx.sibling_gap[r])
            release[i] = max(release[i], start_by_row[prev] + gap)
        bad = ctx.fits_statically(r, s, b)
        if bad is not None:
            out.append(Violation(bad, tid, f"task {tid} fails {bad} at site {s} step {b}"))
            continue
        profile[s][ctx.rho_idx[r], b : b + int(ctx.exposure[r])] += 1
        if b < release[i]:
            out.append(Violation("cadence", tid, f"task {tid} starts before sibling release"))
        e = int(ctx.exposure[r])
        eta = (b + e - int(ctx.arrival[r])) / e
        if abs(eta - float(dag.eta[i])) > 1e-12:
            out.append(Violation("dependency", tid, f"task {tid} cached slowdown mismatch"))

    if (profile > 1).any():
        ss, ff, tt = np.nonzero(profile > 1)
        out.append(
            Violation(
                "resource",
                None,
                f"capacity exceeded at site {ss[0]} filter {ff[0]} step {tt[0]}",
            )
        )

    # expected edges and the >=1 parent rule
    comp_map: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        c = int(dag.start[i]) + int(ctx.exposure[int(dag.rows[i])])
        comp_map.setdefault((int(dag.site[i]), c), []).append(ctx.n_sites + i)
    for i in range(n):
        r, s, b = int(dag.rows[i]), int(dag.site[i]), int(dag.start[i])
        tid = int(ctx.task_id[r])
        want: list[int] = []
        tr = int(ctx.target_row[r])
        if b < ctx.horizon and ctx.run_left[tr, s, b] > 0 and b >= release[i]:
            if b == release[i] or b == 0 or ctx.run_left[tr, s, b - 1] == 0:
                want.append(s)
        want.extend(q for q in comp_map.get((s, b), ()) if q != ctx.n_sites + i)
        if not want:
            want.append(s)  # root fallback, same rule as the constructor
        have = tuple(dag.parents[ctx.n_sites + i]) if ctx.n_sites + i < len(dag.parents) else ()
        if sorted(set(want)) != sorted(set(have)):
            out.append(Violation("dependency", tid, f"task {tid} edge set mismatch"))
        if not have:
            out.append(Violation("dependency", tid, f"task {tid} has no incoming edge"))

    # cycle check on the stored edges
    state = [0] * dag.n_nodes  # 0 unvisited, 1 on stack, 2 done
    def walk(v: int) -> bool:
        stack = [(v, iter(dag.parents[v] if v < len(dag.parents) else ()))]
        state[v] = 1
        while stack:
            node, it = stack[-1]
            adv = next(it, None)
            if adv is None:
                state[node] = 2
                stack.pop()
                continue
            if state[adv] == 1:
                return True
            if state[adv] == 0:
                state[adv] = 1
                stack.append((adv, iter(dag.parents[adv] if adv < len(dag.parents) else ())))
        return False

    for v in range(dag.n_nodes):
        if state[v] == 0 and walk(v):
            out.append(Violation("cycle", None, "dependency edges contain a cycle"))
            break

    return out


def total_slowdown(dag: ScheduleDag) -> float:
    """Sum of per-task slowdowns (B + E - A) / E over scheduled tasks."""
    return float(dag.eta.sum())


def average_slowdown(dag: ScheduleDag, *, tasks: str = "scheduled") -> float:
    """Mean task slowdown; every term is >= 1 on a feasible dag.

    ``tasks="all"`` demands that the dag covers the whole scenario and
    raises (listing the missing ids) when it does not.
    """
    if tasks == "all":
        missing = sorted(set(int(t) for t in dag.ctx.task_id) - set(dag.task_ids))
        if missing:
            raise ValueError(f"unassigned tasks: {missing}")
    if len(dag.rows) == 0:
        raise ValueError("average slowdown of an empty schedule is undefined")
    return float(dag.eta.mean())


def embedding_length(n_filters: int, e_max: int, n_sites: int = 1, distributed: bool = False) -> int:
    if distributed:
        return n_sites * n_filters * (e_max + 1) + 1
    return n_filters * (e_max + 1) + 1


def embedding_matrix(
    dag: ScheduleDag, distributed: bool = False, *, e_max: int = DEFAULT_E_MAX
) -> np.ndarray:
    """Embeddings for every node: root rows all-zero, one row per task.

    Task row layout: the filter demand (placed in its site's block in
    distributed mode), then one resource-utilization snapshot per
    execution step, zero padding up to ``e_max`` snapshots, and the task's
    current slowdown as the final entry.
    """
    ctx = dag.ctx
    rows, n, d = dag.rows, len(dag.rows), ctx.n_filters
    e = ctx.exposure[rows]
    over = np.flatnonzero(e > e_max)
    if over.size:
        raise ValueError(f"task exposure {int(e[over[0]])} exceeds e_max {e_max}")
    k = np.arange(e_max)
    live = k < e[:, None]
    steps = np.where(live, dag.start[:, None] + k, 0)  # (n, e_max); padding reads step 0
    if distributed:
        width = ctx.n_sites * d
        head = np.zeros((n, width))
        head[np.arange(n)[:, None], dag.site[:, None] * d + np.arange(d)] = ctx.rho[rows]
        snaps = dag.profile[:, :, steps].transpose(2, 3, 0, 1)  # (n, e_max, sites, filters)
    else:
        width = d
        head = ctx.rho[rows]
        snaps = dag.profile[dag.site[:, None], :, steps]  # (n, e_max, filters)
    out = np.zeros((dag.n_nodes, embedding_length(d, e_max, ctx.n_sites, distributed)))
    tasks = out[ctx.n_sites :]
    tasks[:, :width] = head
    tasks[:, width:-1] = (snaps.reshape(n, e_max, width) * live[:, :, None]).reshape(n, e_max * width)
    tasks[:, -1] = dag.eta
    return out


def dump_schedule(dag: ScheduleDag, fh) -> None:
    """One JSON line per assignment: {task_id, site, start, slowdown}."""
    for i, r in enumerate(dag.rows):
        fh.write(
            json.dumps(
                {
                    "task_id": int(dag.ctx.task_id[r]),
                    "site": int(dag.site[i]),
                    "start": int(dag.start[i]),
                    "slowdown": float(dag.eta[i]),
                }
            )
            + "\n"
        )
