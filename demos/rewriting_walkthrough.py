#!/usr/bin/env python3
"""One local rewrite, then a whole search, step by step.

Builds a deliberately bad FCFS schedule, applies a single hand-chosen
re-parenting to show the displacement repair, then lets random search
run 100 steps and prints the running best cost.
"""
import numpy as np

from obsched.heuristics import TaskRule, brute_force_optimal, schedule_online_heuristic
from obsched.rewriter import (
    RandomPolicy,
    RewriteAction,
    SearchConfig,
    rewrite_search,
    rewrite_step,
)
from obsched.scenario import GenConfig, generate_scenario
from obsched.schedule import SchedulingContext, total_slowdown

cfg = GenConfig(
    horizon_steps=60, arrival_prob=0.2, exposure_long_frac=0.3, mode_exposure_count_frac=1.0
)
scenario = generate_scenario(cfg, seed=21)
ctx = SchedulingContext(scenario)
dag, drops = schedule_online_heuristic(ctx, TaskRule.FCFS, None)
print(f"FCFS initial schedule: {len(dag.rows)} tasks, total slowdown {total_slowdown(dag):.2f}")
for i, tid in enumerate(dag.task_ids):
    r = dag.rows[i]
    print(
        f"  task {tid}: arrival {int(ctx.arrival[r]):2d}  start {int(dag.start[i]):2d}  "
        f"exposure {int(ctx.exposure[r]):2d}  slowdown {dag.eta[i]:.2f}"
    )

# one manual rewrite: take the slowest task and hang it off the root so it
# starts at its arrival; whatever occupied that interval gets re-placed
worst = dag.task_ids[int(np.argmax(dag.eta))]
out, status = rewrite_step(dag, RewriteAction(region=worst, parent_task=None, parent_site=0))
print(
    f"\nre-parent task {worst} under the root -> {status}, "
    f"total {total_slowdown(dag):.2f} -> {total_slowdown(out):.2f}"
)

# the full search loop with uniform-random region/rule choices
best, traj = rewrite_search(
    dag, RandomPolicy(), SearchConfig(num_steps=100), np.random.default_rng(0)
)
running = total_slowdown(dag)
marks = []
for step in traj:
    if step.cost_after < running - 1e-9:
        running = step.cost_after
        marks.append(f"  step {step.step:3d}: {step.status:8s} best -> {running:.2f}")
print(f"\nrandom rewriting, 100 steps ({sum(1 for t in traj if t.status=='applied')} applied):")
print("\n".join(marks) or "  no improvement found")

if ctx.n_tasks <= 6:  # the oracle schedules every task of the scenario
    opt = brute_force_optimal(ctx)
    print(f"\nexhaustive optimum for comparison: {total_slowdown(opt):.2f}")
