"""Local-rewriting engine: move one task under a new parent (another task
or a site root), greedily repair everything it displaces, and search by
applying such rewrites repeatedly while tracking the best state seen.

A rewrite is atomic: if any displaced task cannot be feasibly re-placed,
the whole step is rejected and the schedule is returned unchanged, so
every state the search visits is feasible.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .schedule import (
    Placement,
    ScheduleDag,
    build_from_arrays,  # unused here; perfbench/tracing.py wraps this binding
    earliest_feasible_start,  # unused here; perfbench/tracing.py wraps this binding
    total_slowdown,
)

__all__ = [
    "RewriteAction",
    "SearchConfig",
    "pc_at",
    "TrajectoryStep",
    "RandomPolicy",
    "candidate_regions",
    "candidate_parents",
    "rewrite_step",
    "rewrite_search",
    "dump_trajectory",
]

APPLIED = "applied"
NOOP = "noop"
REJECTED = "rejected"


@dataclass(frozen=True)
class RewriteAction:
    """Re-parent ``region`` under a task (``parent_task``) or, when
    ``parent_task`` is None, under the root of site ``parent_site``."""

    region: int
    parent_task: int | None = None
    parent_site: int = 0

    def __post_init__(self):
        if self.parent_task == self.region:
            raise ValueError("a task cannot become its own parent")


#: the exploitation probability schedule: with probability p_c the
#: best-scored region is taken, otherwise the region is re-sampled from the
#: region policy; p_c decays by PC_DECAY every PC_DECAY_EVERY trainer steps
#: down to PC_FLOOR
PC_INITIAL = 0.5
PC_DECAY = 0.8
PC_DECAY_EVERY = 1000
PC_FLOOR = 0.01


def pc_at(trainer_step: int) -> float:
    return max(PC_FLOOR, PC_INITIAL * PC_DECAY ** (trainer_step // PC_DECAY_EVERY))


@dataclass(frozen=True)
class SearchConfig:
    """Search-loop knobs.

    ``region_candidates``/``rule_candidates`` are the scoring budgets
    (15 each for one site, 30 each for a distributed array).
    """

    num_steps: int = 100
    region_candidates: int = 15
    rule_candidates: int = 15

    def __post_init__(self):
        if self.region_candidates < 1 or self.rule_candidates < 1:
            raise ValueError("candidate budgets must be >= 1")

    @classmethod
    def for_mode(cls, distributed: bool, **kw) -> "SearchConfig":
        n = 30 if distributed else 15
        kw.setdefault("region_candidates", n)
        kw.setdefault("rule_candidates", n)
        return cls(**kw)


@dataclass
class TrajectoryStep:
    """One search step, in plain values: the state, candidates, action, outcome."""

    step: int
    dag: ScheduleDag
    action: RewriteAction
    reward: float
    cost_before: float
    cost_after: float
    status: str
    region_candidates: list[int]
    rule_candidates: list[tuple]


def candidate_regions(dag: ScheduleDag, frozen: frozenset[int] = frozenset()) -> list[int]:
    """All movable task nodes (never roots), in ascending task-id order."""
    return [tid for tid in dag.task_ids if tid not in frozen]


def candidate_parents(dag: ScheduleDag, region: int) -> list[tuple]:
    """The full rule set for a region: every site root plus every other
    task, encoded as ("root", site) / ("task", id)."""
    out: list[tuple] = [("root", s) for s in range(dag.n_sites)]
    out.extend(("task", tid) for tid in dag.task_ids if tid != region)
    return out


def rewrite_step(
    dag: ScheduleDag,
    action: RewriteAction,
    frozen: frozenset[int] = frozenset(),
    now: int = 0,
) -> tuple[ScheduleDag, str]:
    """Apply one rewrite; returns (new_dag, status).

    status is "applied", "noop" (the guard fired: the parent completes
    before the region's arrival, or the region already starts at the
    parent's completion / its own arrival), or "rejected" (a displaced or
    cadence-chained task could not be feasibly re-placed, or a frozen task
    would have to move; the input dag is returned unchanged).  No task
    outside ``frozen`` is placed to start before step ``now``.
    """
    ctx = dag.ctx
    if action.region in frozen or action.region not in dag.node_of_task:
        return dag, REJECTED
    task_id, arrival, exposure = ctx.task_id_list, ctx.arrival_list, ctx.exposure_list
    i = dag.node_of_task[action.region] - ctx.n_sites
    row = ctx.row_of[action.region]
    old_site, old_start = int(dag.site[i]), int(dag.start[i])

    if action.parent_task is not None:
        if action.parent_task not in dag.node_of_task:
            return dag, REJECTED
        ip = dag.node_of_task[action.parent_task] - ctx.n_sites
        c_parent = int(dag.start[ip]) + exposure[ctx.row_of[action.parent_task]]
        dest_site = int(dag.site[ip])
        if c_parent < arrival[row] or c_parent == old_start:
            return dag, NOOP
        want = c_parent
    else:
        dest_site = int(action.parent_site)
        if not 0 <= dest_site < ctx.n_sites:
            return dag, REJECTED
        if arrival[row] == old_start:
            return dag, NOOP
        want = arrival[row]

    st = Placement(ctx).load(dag)

    def release(r: int) -> int:
        # frozen tasks may have started before the clock
        return st.release(r, 0 if task_id[r] in frozen else now)

    def refit(r: int, site: int) -> bool:
        b = st.fit(r, site, release(r))
        if b is not None:
            st.commit(r, site, b)
        return b is not None

    def by_start(r: int) -> tuple[int, int]:
        return st.committed[r][1], task_id[r]

    # earliest statically feasible start at the destination; occupancy is
    # ignored here, conflicts are resolved by displacement
    lo = max(want, release(row))
    new_start = next((max(first, lo) for first, last in ctx.windows(row, dest_site) if last >= lo), None)
    if new_start is None:
        return dag, REJECTED
    if new_start == old_start and dest_site == old_site:
        return dag, NOOP

    e = exposure[row]
    # displaced set: tasks on the destination site that overlap the moved
    # interval AND share at least one required filter (others can legally
    # overlap and stay put), in repair order (old start, task id)
    rho_r = ctx.rho_bits[row]
    displaced = [
        r
        for r, (s, b) in st.committed.items()
        if r != row and s == dest_site and b < new_start + e and b + exposure[r] > new_start
        and ctx.rho_bits[r] & rho_r
    ]
    displaced.sort(key=by_start)
    if any(task_id[r] in frozen for r in displaced):
        return dag, REJECTED

    st.uncommit(row)
    for r in displaced:
        st.uncommit(r)
    st.commit(row, dest_site, new_start)

    # greedy repair in topological order; a failed placement rejects all
    for r in displaced:
        if not refit(r, dest_site):
            return dag, REJECTED

    # cadence chains: siblings of moved tasks may now start too early
    for _ in range(len(dag.rows) + 2):
        bad = sorted((r for r, (_, b) in st.committed.items() if b < release(r)), key=by_start)
        if not bad:
            break
        for r in bad:
            if task_id[r] in frozen or not refit(r, st.uncommit(r)[0]):
                return dag, REJECTED
    else:
        return dag, REJECTED

    return st.to_dag(), APPLIED


class RandomPolicy:
    """Uniform region and rule choices; the search baseline."""

    def pick_region(self, dag, candidates, rng, greedy=False, pc=None):
        return candidates[int(rng.integers(len(candidates)))]

    def pick_rule(self, dag, region, candidates, rng, greedy=False):
        return candidates[int(rng.integers(len(candidates)))]


def _subsample(items: list, budget: int, rng: np.random.Generator) -> list:
    if len(items) <= budget:
        return list(items)
    idx = rng.choice(len(items), size=budget, replace=False)
    return [items[j] for j in sorted(idx.tolist())]


def rewrite_search(
    dag0: ScheduleDag,
    policy,
    config: SearchConfig,
    rng: np.random.Generator,
    *,
    pc: float = PC_INITIAL,
    greedy: bool = False,
    frozen: frozenset[int] = frozenset(),
    now: int = 0,
) -> tuple[ScheduleDag, list[TrajectoryStep]]:
    """Run the rewriting loop for ``config.num_steps`` steps.

    Every step scores a sampled region candidate set, picks a region
    (argmax with probability p_c, otherwise sampled from the region
    policy; always argmax under ``greedy``), then picks a parent via the
    rule policy and applies the rewrite.  Rewards are the total-slowdown
    deltas.  Returns the minimum-cost state visited and the trajectory.
    Under ``greedy`` the loop stops early once the chosen action no longer
    changes the state (converged).  ``frozen`` tasks never move, and no
    other task moves to start before ``now``.
    """
    cur = dag0
    best = dag0
    best_cost = total_slowdown(dag0)
    traj: list[TrajectoryStep] = []
    for step in range(config.num_steps):
        regions = candidate_regions(cur, frozen)
        if not regions:
            break
        region_cands = _subsample(regions, config.region_candidates, rng)
        region = policy.pick_region(cur, region_cands, rng, greedy, pc)

        parents = candidate_parents(cur, region)  # the site roots come first
        roots, tasks = parents[: cur.n_sites], parents[cur.n_sites :]
        budget = max(config.rule_candidates - len(roots), 0)
        rule_cands = roots + _subsample(tasks, budget, rng)
        parent = policy.pick_rule(cur, region, rule_cands, rng, greedy)

        if parent[0] == "root":
            action = RewriteAction(region=region, parent_task=None, parent_site=parent[1])
        else:
            action = RewriteAction(region=region, parent_task=parent[1])
        cost_before = total_slowdown(cur)
        new_dag, status = rewrite_step(cur, action, frozen, now)
        cost_after = total_slowdown(new_dag)
        traj.append(
            TrajectoryStep(
                step=step,
                dag=cur,
                action=action,
                reward=cost_before - cost_after,
                cost_before=cost_before,
                cost_after=cost_after,
                status=status,
                region_candidates=region_cands,
                rule_candidates=rule_cands,
            )
        )
        cur = new_dag
        if cost_after < best_cost - 1e-12:
            best, best_cost = cur, cost_after
        if greedy and status != APPLIED:
            break  # the argmax action is a fixpoint: converged
    return best, traj


def dump_trajectory(traj: list[TrajectoryStep], fh) -> None:
    """One JSON line per step: {step, region, rule, cost_before,
    cost_after, rejected}."""
    for t in traj:
        rule = {"root": t.action.parent_site} if t.action.parent_task is None else t.action.parent_task
        fh.write(
            json.dumps(
                {
                    "step": t.step,
                    "region": t.action.region,
                    "rule": rule,
                    "cost_before": t.cost_before,
                    "cost_after": t.cost_after,
                    "rejected": t.status != APPLIED,
                }
            )
            + "\n"
        )
