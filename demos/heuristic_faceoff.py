#!/usr/bin/env python3
"""The five online dispatch rules on one seeded instance.

Generates a quarter-scale instance (60 one-minute steps, steady arrivals,
cadence monitoring), runs every rule through the bounded-queue simulator,
and prints what each one scheduled and at what average slowdown.
"""
from obsched.heuristics import TaskRule, schedule_offline_stf, schedule_online_heuristic
from obsched.scenario import GenConfig, generate_scenario
from obsched.schedule import SchedulingContext, average_slowdown

cfg = GenConfig(horizon_steps=60, arrival_prob=0.25, mode_exposure_count_frac=0.0)
scenario = generate_scenario(cfg, seed=7)
ctx = SchedulingContext(scenario)
print(
    f"instance: {len(scenario.targets)} targets -> {len(scenario.tasks)} exposure tasks, "
    f"1 site, 3 filters, W=10\n"
)

print(f"{'rule':>12} {'scheduled':>9} {'dropped':>8} {'avg slowdown':>13}")
for rule in TaskRule:
    dag, drops = schedule_online_heuristic(ctx, rule, None, queue_cap=10)
    avg = average_slowdown(dag) if len(dag.rows) else float("nan")
    print(f"{rule.value:>12} {len(dag.rows):>9} {len(drops):>8} {avg:>13.3f}")

off, off_drops = schedule_offline_stf(ctx)
print(
    f"{'offline-stf':>12} {len(off.rows):>9} {len(off_drops):>8} "
    f"{average_slowdown(off):>13.3f}   (whole sequence known at t=0)"
)

print(
    "\nShort-first rules win because long exposures block all of a filter's"
    "\ncapacity; FCFS pays for head-of-line blocking exactly as in classic"
    "\njob-shop slowdown results."
)
