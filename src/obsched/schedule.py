"""Schedule representation: assignments of tasks to (site, start-step),
the dependency DAG over them, feasibility validation, slowdown cost, and
task embedding vectors.

A schedule is stored as a value object (`ScheduleDag`): cheap to clone,
never mutated after construction.  `Placement` is the one mutable
placement model: every scheduler, the exhaustive oracle, the learned
online loop and the rewriter take releases and fits from it, commit and
uncommit rows on it and freeze the result with `to_dag`.  It keeps its
occupancy as one Python-int bitmask per (site, filter), bit ``b`` set
while step ``b`` is busy, so a fit is a few big-int operations; only
`validate` (the independent reference) and `build_from_arrays` (the
whole-dag array form) write a numpy occupancy profile.  No visibility
table is stored: the static window lookup, ``SchedulingContext.windows``,
is one index per context built from the target predicate on the cells
a task can start in, and every fit, static check, dispatcher drop test
and rewriter first start reads it.  ``SchedulingContext.airmass``
computes one cell on demand for the quality site rule.  Edge semantics:
a task hangs off its site's root node when it starts at its release
(arrival, sibling cadence) or on the first step of its visible run; it
also hangs off every same-site task whose completion equals its start,
and off the root alone when it has neither.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import Iterable

import numpy as np

from .ephemeris import (
    UNOBSERVABLE,
    VisibilityConstraints,
    _target_airmass,
    _target_mask,
    site_skies,
    visibility_masks_multi,  # unused here: a binding perfbench/tracing.py wraps
)
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
    """Precomputed per-scenario tables: task arrays and the static window index.

    The one way a scenario reaches the schedulers and ``build_dag``:
    built once per (scenario, constraints), with the default
    ``VisibilityConstraints`` when none are given, and shared by every
    dag over that scenario; read-only after construction.  It owns the
    static half of the placement model and holds no visibility table:
    the target predicate is evaluated only on the dark steps of each
    target's span, [earliest arrival, latest limit) over its tasks, and
    the visible runs there make one index.  ``windows(row, site)`` lists
    the intervals of starts that visibility, arrival and deadline allow,
    ``last_start[row]`` is the latest of them over every site (-1 when
    there is none), and ``fits_statically`` is the point check over them.
    ``airmass`` and ``visible`` evaluate one cell on demand.  A task
    starts no earlier than its previous sibling's start plus its
    ``cadence_gap``: that sibling's exposure plus its target's
    ``mode.sibling_gap``, 0 for a first sibling (``Placement.release``
    adds it to what is committed).  ``arriving[t]`` lists the rows
    arriving at step ``t`` in task-id order.

    The task columns are read in one pass over the tasks and kept twice.
    The int64 arrays ``task_id``, ``arrival``, ``exposure``, ``deadline``,
    ``limit``, ``target_row``, ``prev_sibling``, ``cadence_gap`` and
    ``last_start``, and the (task, filter) bool array ``rho``, serve the
    whole-array passes (``build_from_arrays``, the window index,
    ``embedding_matrix``).  Each column but ``deadline`` and ``rho`` is
    also a list of Python ints, ``<column>_list``, for the per-task reads
    of the schedulers, ``Placement`` and the rewriter: indexing a list is
    about ten times cheaper than making an int of a numpy scalar.
    ``rho_filters[row]`` lists each task's filter indices as a tuple of
    Python ints, one shared tuple per distinct pattern, and
    ``rho_bits[row]`` is the Python-int bitmask with bit ``f`` set iff
    the task needs filter ``f``.
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

        # the task columns, read in one pass over the tasks
        tgt_row = {t.id: i for i, t in enumerate(scenario.targets)}
        cols = [
            (t.id, t.arrival, t.exposure, t.deadline, tgt_row[t.target_id], (t.target_id, t.seq_index), t.rho)
            for t in scenario.tasks
        ]
        ids, arrival, exposure, deadline, target_row, seq, rho = (
            map(list, zip(*cols)) if n else ([] for _ in range(7))
        )
        # previous sibling (same target, seq_index - 1) and the cadence gap
        row_at = {key: r for r, key in enumerate(seq)}
        prev_sibling = [row_at.get((tid, k - 1), -1) for tid, k in seq]
        gap = [t.mode.sibling_gap for t in scenario.targets]
        cadence_gap = [exposure[p] + gap[tr] if p >= 0 else 0 for p, tr in zip(prev_sibling, target_row)]
        limit = [min(d, self.horizon) for d in deadline]  # latest completion
        self.task_id_list, self.arrival_list, self.exposure_list = ids, arrival, exposure
        self.limit_list, self.target_row_list = limit, target_row
        self.prev_sibling_list, self.cadence_gap_list = prev_sibling, cadence_gap
        self.task_id, self.arrival, self.exposure, self.deadline, self.limit, self.target_row = (
            np.array(c, dtype=np.int64) for c in (ids, arrival, exposure, deadline, limit, target_row)
        )
        self.prev_sibling = np.array(prev_sibling, dtype=np.int64)
        self.cadence_gap = np.array(cadence_gap, dtype=np.int64)
        self.row_of = {tid: r for r, tid in enumerate(ids)}
        self.arriving = [[] for _ in range(self.horizon)]
        for r in sorted(range(n), key=ids.__getitem__):
            self.arriving[arrival[r]].append(r)
        self.rho = np.array(rho, dtype=bool).reshape(n, self.n_filters)
        # each task's filter indices: one tuple per distinct pattern
        shared = {p: tuple(f for f, on in enumerate(p) if on) for p in set(rho)}
        self.rho_filters = [shared[p] for p in rho]
        self.rho_bits = [sum(1 << f for f in fs) for fs in self.rho_filters]

        # each target's span as (target, step) cells, and the visible runs
        # of each site inside it as (target, first step, length)
        nt = len(scenario.targets)
        self._ra = np.array([t.coord.ra for t in scenario.targets], dtype=np.float64)
        self._dec = np.array([t.coord.dec for t in scenario.targets], dtype=np.float64)
        lo, hi = np.full(nt, self.horizon, dtype=np.int64), np.zeros(nt, dtype=np.int64)
        np.minimum.at(lo, self.target_row, self.arrival)
        np.maximum.at(hi, self.target_row, self.limit)
        width = np.maximum(hi - lo, 0)
        tgt = np.repeat(np.arange(nt), width)
        step = np.arange(tgt.size) + np.repeat(lo - (np.cumsum(width) - width), width)
        runs = []
        for si, sky in enumerate(self._skies if tgt.size else ()):
            cell = np.flatnonzero(sky.dark[step])
            cell = cell[self._span_mask(si, tgt[cell], step[cell])]
            t, b = tgt[cell], step[cell]
            first = np.flatnonzero(np.diff(t, prepend=-1) | (np.diff(b, prepend=-2) - 1))
            runs.append((t[first], b[first], np.diff(first, append=t.size)))
        self._index_windows(runs)

    def _span_mask(self, site: int, tgt: np.ndarray, step: np.ndarray) -> np.ndarray:
        """The target predicate of one site on the cells (tgt[i], step[i]), sun aside."""
        sky = self._skies[site]
        return _target_mask(self._ra[tgt], self._dec[tgt], sky.lat, sky.lst[step][:, None], self.constraints)[:, 0]

    def _index_windows(self, runs) -> None:
        """The static window index: per (row, site), the ascending
        inclusive intervals ``(first, last)`` of starts that keep the whole
        exposure inside one visible run, no earlier than the arrival and
        completing by ``limit``; and per row the latest such start over
        every site, -1 when there is none.  ``runs`` holds each site's
        visible runs as (target, first step, length) arrays, sorted by
        target and then first step.  A run cut by its target's span gives
        the whole run's windows: each task's [arrival, limit) lies inside."""
        n, ns = self.n_tasks, self.n_sites
        keys, firsts, lasts = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
        for si, (tgt, first, length) in enumerate(runs):
            # join every task to its target's runs, in (row, first) order:
            # a row's k-th run is k after its target's first run
            count = np.bincount(tgt, minlength=len(self.scenario.targets))
            per_row = count[self.target_row]
            row = np.repeat(np.arange(n), per_row)
            k = np.arange(row.size) - np.repeat(np.cumsum(per_row) - per_row, per_row)
            run = (np.cumsum(count) - count)[self.target_row[row]] + k
            lo = np.maximum(first[run], self.arrival[row])
            hi = np.minimum(first[run] + length[run], self.limit[row]) - self.exposure[row]
            keep = lo <= hi
            keys.append(row[keep] * ns + si)
            firsts.append(lo[keep])
            lasts.append(hi[keep])
        key = np.concatenate(keys)
        order = np.argsort(key, kind="stable")
        key, first, last = key[order], np.concatenate(firsts)[order], np.concatenate(lasts)[order]
        self._window = list(zip(first.tolist(), last.tolist()))
        self._window_at = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=n * ns)))).tolist()
        self.last_start = np.full(n, -1, dtype=np.int64)
        np.maximum.at(self.last_start, key // ns, last)
        self.last_start_list = self.last_start.tolist()
        # the windows as ascending keys (row * ns + site) * (horizon + 1) +
        # first, behind a sentinel, for ``build_from_arrays``'s lookup
        self._window_key = np.concatenate(([-1], key * (self.horizon + 1) + first))
        self._window_len = np.concatenate(([-1], last - first))

    # -- static feasibility of one task at (site, start), other tasks aside --

    def windows(self, row: int, site: int) -> list[tuple[int, int]]:
        """The ascending inclusive intervals ``(first, last)`` of starts of
        one task on one site that visibility and the deadline allow,
        occupancy aside: a start at ``b`` keeps the whole exposure inside
        one visible run, no earlier than the arrival, and completes by
        ``limit`` iff some interval holds ``b``.  A site outside
        ``[0, n_sites)`` raises ValueError."""
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} is not in [0, {self.n_sites})")
        k = row * self.n_sites + site
        return self._window[self._window_at[k] : self._window_at[k + 1]]

    @cached_property
    def _skies(self):
        return site_skies([s.coord for s in self.scenario.sites], self.scenario.grid, self.constraints)

    def airmass(self, row: int, site: int, step: int) -> float:
        """Airmass of the task's target from one site at one step, as
        ``visibility_masks_multi`` gives it (UNOBSERVABLE at or below the
        altitude cutoff and wherever the sun is up), from this cell alone."""
        sky, tr = self._skies[site], self.target_row[row : row + 1]
        above, am = _target_airmass(self._ra[tr], self._dec[tr], sky.lat, sky.lst[step : step + 1], self.constraints)
        return float(am[0]) if sky.dark[step] and above[0, 0] else UNOBSERVABLE

    def visible(self, row: int, site: int, step: int) -> bool:
        """Whether the task's target is observable from the site at the
        step, from this cell alone; False for a site or step off the grid."""
        on = 0 <= site < self.n_sites and 0 <= step < self.horizon and self._skies[site].dark[step]
        return bool(on and self._span_mask(site, self.target_row[row : row + 1], np.array([step]))[0])

    def fits_statically(self, row: int, site: int, start: int) -> str | None:
        """Name of the violated static constraint ("dependency" for a site out of range), or None if ok."""
        if not 0 <= site < self.n_sites:
            return "dependency"
        if start < self.arrival_list[row]:
            return "arrival"
        if start + self.exposure_list[row] > self.limit_list[row]:
            return "deadline"
        for first, last in self.windows(row, site):
            if first <= start <= last:
                return None
        return "visibility"


def earliest_feasible_start(
    ctx: SchedulingContext,
    busy: list[list[int]],
    row: int,
    site: int,
    lo: int,
) -> int | None:
    """Earliest start >= lo where the task fits: inside one visibility
    window, completing by min(deadline, horizon), with all its filters
    free on the site for the whole exposure.  ``busy[site][f]`` is the
    occupancy bitmask of filter ``f`` (``Placement.busy``).  Sibling-cadence
    bounds must be folded into ``lo`` by the caller.  Returns None when
    nothing fits.
    """
    e = ctx.exposure_list[row]
    windows = ctx.windows(row, site)  # raises for a site out of range, before busy[site] is read
    masks = busy[site]
    occ = 0
    for f in ctx.rho_filters[row]:
        occ |= masks[f]
    for first, last in windows:
        if last < lo:
            continue
        first = max(first, lo)
        seg = (occ >> first) & ((1 << (last - first + e)) - 1)  # every step a start may use
        if not seg:
            return first
        # bit b of ``free``: steps [first + b, first + b + span) are all free
        free, span = ~seg, 1
        while span < e:
            k = min(span, e - span)
            free &= free >> k
            span += k
        free &= (1 << (last - first + 1)) - 1
        if free:
            return first + (free & -free).bit_length() - 1
    return None


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
    ``fits_statically`` (site range first, as "dependency"), resource
    against the lower-id tasks, cadence.
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

    # static checks (fits_statically, vectorised): the site, arrival and
    # deadline, then ``off``, each start's offset in the window before it
    ok = (site >= 0) & (site < ns) & (start >= arrival) & (start + e <= ctx.limit[rows])
    q = (rows * ns + site) * (h + 1) + start
    j = ctx._window_key.searchsorted(q, side="right") - 1
    off = q - ctx._window_key.take(j)
    ok &= off <= ctx._window_len.take(j)

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
    release[j] = np.maximum(arrival[j], start[pos[prev[j]]] + ctx.cadence_gap[rows[j]])

    if not ok.all() or np.count_nonzero(profile) != keys.size or (start < release).any():
        _raise_first_violation(ctx, rows, site, start, ok, release, ci, ck, keys)

    eta = (start + e - arrival) / e
    # the root edge: the release, or its window's first start (its visible
    # run's first step, or else its arrival, and then its release)
    root = (start == release) | (off == 0)

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
    release (``release``) and of the fit (``fit``, the earliest start from
    a step; a task fits at ``b`` iff its fit from ``b`` is ``b``).

    ``committed`` maps row -> (site, start), and ``drops`` holds the
    dropped task ids in drop order.  ``busy[site][f]`` is the occupancy
    the commits make on filter ``f`` of the site, as a Python-int bitmask:
    bit ``b`` is set while step ``b`` is busy.  A commit ORs the task's
    exposure bits into each of its filters and an uncommit clears them.
    ``to_dag`` freezes the commits into a validated dag.
    """

    def __init__(self, ctx: SchedulingContext):
        self.ctx = ctx
        self.busy = [[0] * ctx.n_filters for _ in range(ctx.n_sites)]
        self.committed: dict[int, tuple[int, int]] = {}
        self.drops: list[int] = []

    def load(self, dag: ScheduleDag) -> "Placement":
        """Take over a dag's placements and rebuild the occupancy from
        them; drops are kept."""
        self.busy = [[0] * self.ctx.n_filters for _ in range(self.ctx.n_sites)]
        self.committed = {}
        for row, site, start in zip(dag.rows.tolist(), dag.site.tolist(), dag.start.tolist()):
            self.commit(row, site, start)
        return self

    def release(self, row: int, now: int = 0) -> int:
        """Earliest start allowed by the clock ``now``, arrival and sibling
        cadence; a previous sibling that is not committed does not
        constrain it."""
        ctx = self.ctx
        rel = max(int(now), ctx.arrival_list[row])
        prev = ctx.prev_sibling_list[row]
        if prev in self.committed:
            rel = max(rel, self.committed[prev][1] + ctx.cadence_gap_list[row])
        return rel

    def fit(self, row: int, site: int, lo: int) -> int | None:
        """Earliest start >= lo where the task fits on the site now."""
        return earliest_feasible_start(self.ctx, self.busy, row, site, lo)

    def commit(self, row: int, site: int, start: int) -> None:
        bits = ((1 << self.ctx.exposure_list[row]) - 1) << start
        masks = self.busy[site]
        for f in self.ctx.rho_filters[row]:
            masks[f] |= bits
        self.committed[row] = (site, start)

    def uncommit(self, row: int) -> tuple[int, int]:
        """Take a committed task out again and free its cells; returns its
        (site, start)."""
        site, start = self.committed.pop(row)
        bits = ((1 << self.ctx.exposure_list[row]) - 1) << start
        masks = self.busy[site]
        for f in self.ctx.rho_filters[row]:
            masks[f] &= ~bits
        return site, start

    def drop(self, row: int) -> None:
        self.drops.append(self.ctx.task_id_list[row])

    def place(self, row: int, now: int = 0, key=None) -> None:
        """Commit the task at the ``key``-minimal (site, start) among each
        site's earliest feasible start from ``release(row, now)``, or drop
        it when no site has room.  The default key takes the earliest
        start, then the lower site index."""
        lo = self.release(row, now)
        cands = [(s, b) for s in range(self.ctx.n_sites) if (b := self.fit(row, s, lo)) is not None]
        if not cands:
            self.drop(row)
        elif len(cands) == 1:  # min over one candidate returns it, whatever the key
            self.commit(row, *cands[0])
        else:
            self.commit(row, *min(cands, key=key or (lambda sb: (sb[1], sb[0]))))

    def to_dag(self) -> ScheduleDag:
        """The committed placements as a validated dag."""
        placed = [(r, s, b) for r, (s, b) in sorted(self.committed.items())]
        return build_from_arrays(self.ctx, *np.array(placed, dtype=np.int64).reshape(-1, 3).T)


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
    static = [None] * n  # each task's violated static constraint, or None
    for i in range(n):
        r, s, b = int(dag.rows[i]), int(dag.site[i]), int(dag.start[i])
        tid = int(ctx.task_id[r])
        release[i] = int(ctx.arrival[r])
        prev = int(ctx.prev_sibling[r])
        if prev >= 0 and prev in start_by_row:
            gap = int(ctx.exposure[prev]) + ctx.scenario.targets[int(ctx.target_row[r])].mode.sibling_gap
            release[i] = max(release[i], start_by_row[prev] + gap)
        bad = static[i] = ctx.fits_statically(r, s, b)
        if bad is not None:
            out.append(Violation(bad, tid, f"task {tid} fails {bad} at site {s} step {b}"))
            continue
        profile[s][ctx.rho[r], b : b + int(ctx.exposure[r])] += 1
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
        if static[i] is None:  # in a window: at the release or the window's first start
            at_root = b == release[i] or (b > release[i] and any(w == b for w, _ in ctx.windows(r, s)))
        else:  # per step: visible, at the release or on a visible run's first step
            seen = b >= release[i] and ctx.visible(r, s, b)
            at_root = seen and (b in (release[i], 0) or not ctx.visible(r, s, b - 1))
        want = [s] if at_root else []
        want.extend(q for q in comp_map.get((s, b), ()) if q != ctx.n_sites + i)
        if not want:
            want.append(s)  # root fallback, same rule as the constructor
        have = tuple(dag.parents[ctx.n_sites + i]) if ctx.n_sites + i < len(dag.parents) else ()
        if sorted(set(want)) != sorted(set(have)):
            out.append(Violation("dependency", tid, f"task {tid} edge set mismatch"))
        if not have:
            out.append(Violation("dependency", tid, f"task {tid} has no incoming edge"))

    # cycle check on the stored edges
    try:
        TopologicalSorter(dict(enumerate(dag.parents[: dag.n_nodes]))).prepare()
    except CycleError:
        out.append(Violation("cycle", None, "dependency edges contain a cycle"))
    return out


def total_slowdown(dag: ScheduleDag) -> float:
    """Sum of per-task slowdowns (B + E - A) / E over scheduled tasks."""
    return float(dag.eta.sum())


def average_slowdown(dag: ScheduleDag) -> float:
    """Mean task slowdown; every term is >= 1 on a feasible dag."""
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
