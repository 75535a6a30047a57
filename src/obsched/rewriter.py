"""Local-rewriting engine: move one task under a new parent (another task
or a site root), greedily repair everything it displaces, and search by
applying such rewrites repeatedly while tracking the best state seen.

A rewrite is atomic: if any displaced task cannot be feasibly re-placed,
the whole step is rejected and the schedule is returned unchanged, so
every state the search visits is feasible.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .schedule import (
    ScheduleDag,
    build_from_arrays,
    earliest_feasible_start,
    total_slowdown,
)

__all__ = [
    "RewriteAction",
    "SearchConfig",
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


@dataclass(frozen=True)
class SearchConfig:
    """Search-loop knobs.

    ``region_candidates``/``rule_candidates`` are the scoring budgets
    (15 each for one site, 30 each for a distributed array).  ``pc_*``
    defines the exploitation probability schedule: with probability p_c
    the best-scored region is taken, otherwise the region is re-sampled
    from the region policy; p_c decays by ``pc_decay`` every
    ``pc_decay_every`` trainer steps down to ``pc_floor``.
    """

    num_steps: int = 100
    region_candidates: int = 15
    rule_candidates: int = 15
    pc_initial: float = 0.5
    pc_decay: float = 0.8
    pc_decay_every: int = 1000
    pc_floor: float = 0.01

    def __post_init__(self):
        if self.region_candidates < 1 or self.rule_candidates < 1:
            raise ValueError("candidate budgets must be >= 1")
        if not 0.0 < self.pc_floor <= 1.0 or not 0.0 <= self.pc_initial <= 1.0:
            raise ValueError("p_c bounds out of range")

    @classmethod
    def for_mode(cls, distributed: bool, **kw) -> "SearchConfig":
        n = 30 if distributed else 15
        kw.setdefault("region_candidates", n)
        kw.setdefault("rule_candidates", n)
        return cls(**kw)

    def pc_at(self, trainer_step: int) -> float:
        return max(self.pc_floor, self.pc_initial * self.pc_decay ** (trainer_step // self.pc_decay_every))


@dataclass
class TrajectoryStep:
    """One search step: the state acted on, the action, and its outcome."""

    step: int
    dag: ScheduleDag
    action: RewriteAction
    reward: float
    cost_before: float
    cost_after: float
    status: str
    region_candidates: list[int]
    rule_candidates: list[tuple]
    region_info: object = None
    rule_info: object = None


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
    i = dag.node_of_task[action.region] - ctx.n_sites
    row = int(dag.rows[i])
    old_site, old_start = int(dag.site[i]), int(dag.start[i])

    if action.parent_task is not None:
        if action.parent_task not in dag.node_of_task:
            return dag, REJECTED
        ip = dag.node_of_task[action.parent_task] - ctx.n_sites
        prow = int(dag.rows[ip])
        c_parent = int(dag.start[ip]) + int(ctx.exposure[prow])
        dest_site = int(dag.site[ip])
        if c_parent < int(ctx.arrival[row]) or c_parent == old_start:
            return dag, NOOP
        want = c_parent
    else:
        dest_site = int(action.parent_site)
        if not 0 <= dest_site < ctx.n_sites:
            return dag, REJECTED
        if int(ctx.arrival[row]) == old_start:
            return dag, NOOP
        want = int(ctx.arrival[row])

    sites = dag.site.copy()
    starts = dag.start.copy()
    pos_of_row = {int(r): k for k, r in enumerate(dag.rows)}

    def release(k: int) -> int:
        r = int(dag.rows[k])
        kp = pos_of_row.get(int(ctx.prev_sibling[r]))
        rel = ctx.release(r, None if kp is None else int(starts[kp]))
        return now if now > rel and int(ctx.task_id[r]) not in frozen else rel

    # earliest statically feasible start at the destination; occupancy is
    # ignored here, conflicts are resolved by displacement
    lo, ok = ctx.static_starts(row, dest_site, max(want, release(i)))
    if not ok.any():
        return dag, REJECTED
    new_start = lo + int(ok.argmax())
    if new_start == old_start and dest_site == old_site:
        return dag, NOOP

    e = int(ctx.exposure[row])
    # displaced set: tasks on the destination site that overlap the moved
    # interval AND share at least one required filter (others can legally
    # overlap and stay put)
    rho_r = ctx.rho[row]
    displaced = [
        k
        for k in range(len(dag.rows))
        if k != i
        and int(sites[k]) == dest_site
        and int(starts[k]) < new_start + e
        and int(starts[k]) + int(ctx.exposure[int(dag.rows[k])]) > new_start
        and bool(np.any(rho_r & ctx.rho[int(dag.rows[k])]))
    ]
    if any(int(ctx.task_id[int(dag.rows[k])]) in frozen for k in displaced):
        return dag, REJECTED

    profile = dag.profile.copy()

    def clear(k: int) -> None:
        r = int(dag.rows[k])
        profile[int(sites[k])][ctx.rho_idx[r], int(starts[k]) : int(starts[k]) + int(ctx.exposure[r])] = 0

    def put(k: int) -> None:
        r = int(dag.rows[k])
        profile[int(sites[k])][ctx.rho_idx[r], int(starts[k]) : int(starts[k]) + int(ctx.exposure[r])] = 1

    clear(i)
    for k in displaced:
        clear(k)
    sites[i] = dest_site
    starts[i] = new_start
    put(i)

    # greedy repair in topological order; a failed placement rejects all
    displaced.sort(key=lambda k: (int(dag.start[k]), int(ctx.task_id[int(dag.rows[k])])))
    for k in displaced:
        b = earliest_feasible_start(ctx, profile, int(dag.rows[k]), int(sites[k]), release(k))
        if b is None:
            return dag, REJECTED
        starts[k] = b
        put(k)

    # cadence chains: siblings of moved tasks may now start too early
    for _ in range(len(dag.rows) + 2):
        bad = [
            k
            for k in range(len(dag.rows))
            if int(starts[k]) < release(k)
        ]
        if not bad:
            break
        bad.sort(key=lambda k: (int(starts[k]), int(ctx.task_id[int(dag.rows[k])])))
        for k in bad:
            if int(ctx.task_id[int(dag.rows[k])]) in frozen:
                return dag, REJECTED
            clear(k)
            b = earliest_feasible_start(ctx, profile, int(dag.rows[k]), int(sites[k]), release(k))
            if b is None:
                return dag, REJECTED
            starts[k] = b
            put(k)
    else:
        return dag, REJECTED

    try:
        new_dag = build_from_arrays(ctx, dag.rows.copy(), sites, starts)
    except ValueError:
        return dag, REJECTED
    return new_dag, APPLIED


class RandomPolicy:
    """Uniform region and rule choices; the search baseline."""

    def pick_region(self, dag, candidates, rng, greedy=False, pc=None):
        return candidates[int(rng.integers(len(candidates)))], None

    def pick_rule(self, dag, region, candidates, rng, greedy=False):
        return candidates[int(rng.integers(len(candidates)))], None


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
    pc: float | None = None,
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
    if pc is None:
        pc = config.pc_initial
    cur = dag0
    best = dag0
    best_cost = total_slowdown(dag0)
    traj: list[TrajectoryStep] = []
    for step in range(config.num_steps):
        regions = candidate_regions(cur, frozen)
        if not regions:
            break
        region_cands = _subsample(regions, config.region_candidates, rng)
        region, region_info = policy.pick_region(cur, region_cands, rng, greedy, pc)

        parents = candidate_parents(cur, region)
        roots = [p for p in parents if p[0] == "root"]
        tasks = [p for p in parents if p[0] == "task"]
        budget = max(config.rule_candidates - len(roots), 0)
        rule_cands = roots + _subsample(tasks, budget, rng)
        parent, rule_info = policy.pick_rule(cur, region, rule_cands, rng, greedy)

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
                region_info=region_info,
                rule_info=rule_info,
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
