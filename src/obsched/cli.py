"""Command-line entry point: scenario generation, online simulation,
policy training, benchmarking, and artifact inspection.

Subcommands: generate | simulate | train | bench | inspect.  All
randomness flows from --seed; identical seeds and configs produce
byte-identical CSV and scenario outputs.  ROARS_THREADS caps the
benchmark/training worker pools.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .ephemeris import VisibilityConstraints, visibility_masks_multi
from .heuristics import (
    DISTRIBUTED_PAIRS,
    SiteRule,
    TaskRule,
    brute_force_optimal,
    schedule_fcfs_list,
    schedule_offline_stf,
    schedule_online_heuristic,
)
from .policy import (
    CheckpointError,
    PolicyConfig,
    PolicyNet,
    TrainConfig,
    check_exposures,
    default_workers,
    load_checkpoint,
    read_checkpoint_header,
    train as train_policy,
    worker_map,
)
from .rewriter import SearchConfig, dump_trajectory, rewrite_search
from .scenario import (
    GenConfig,
    Scenario,
    ScenarioError,
    config_from_obj,
    generate_scenario,
    load_scenario,
    load_sites,
    read_field,
    read_json_file,
    reject_unknown,
    save_scenario,
)
from .schedule import (
    Placement,
    ScheduleDag,
    SchedulingContext,
    average_slowdown,
    build_from_arrays,  # unused here; perfbench/tracing.py wraps this binding
    dump_schedule,
    earliest_feasible_start,  # unused here; perfbench/tracing.py wraps this binding
)

__all__ = ["main", "run_online", "run_benchmark", "BenchRow"]

HEURISTIC_NAMES = {r.value: (TaskRule(r), None) for r in TaskRule}
HEURISTIC_NAMES.update({name: (tr, sr) for name, tr, sr in DISTRIBUTED_PAIRS})


@dataclass
class BenchRow:
    scheduler: str
    variant: str
    instances: int
    mean_avg_slowdown: float
    drop_count: int
    wall_time_s: float
    seed: int


def _parse_scheduler(name: str) -> dict:
    name = name.lower()
    if name in HEURISTIC_NAMES:
        tr, sr = HEURISTIC_NAMES[name]
        return {"kind": "heuristic", "task_rule": tr, "site_rule": sr}
    if ":" in name:
        task, site = name.split(":", 1)
        for kind, rule, value in (("task", TaskRule, task), ("site", SiteRule, site)):
            if value not in {r.value for r in rule}:
                choices = ", ".join(r.value for r in rule)
                raise ValueError(f"unknown scheduler {name!r}: {kind} rule must be one of {choices}")
        return {"kind": "heuristic", "task_rule": TaskRule(task), "site_rule": SiteRule(site)}
    if name in ("offline-stf", "oracle", "roars", "roars-refine"):
        return {"kind": name}
    raise ValueError(f"unknown scheduler {name!r}")


def run_online(
    scenario: Scenario,
    scheduler: str,
    queue_cap: int = 10,
    *,
    constraints: VisibilityConstraints | None = None,
    checkpoint=None,
    net: PolicyNet | None = None,
    replan_steps: int = 30,
    seed: int = 0,
    trace=None,
    audit: list | None = None,
) -> tuple[ScheduleDag, list[int]]:
    """Run one scenario under a scheduler spec; returns (dag, dropped ids).

    Heuristic specs delegate to the dispatch simulator.  The learned mode
    keeps a tentative schedule for not-yet-started tasks and re-plans by
    greedy rewriting on every arrival and completion; tasks whose start
    step has passed are frozen (no preemption), and on queue overflow the
    earliest-arrived waiting task's assignment is committed for good.
    One ``Placement`` holds the schedule: its committed tasks are the
    frozen ones plus the pending ones, which a re-plan may still move.
    """
    for name, value in (("queue_cap", queue_cap), ("replan_steps", replan_steps)):
        if value < 1:
            raise ValueError(f"{name}: must be an integer >= 1, got {value!r}")
    spec = _parse_scheduler(scheduler)
    ctx = SchedulingContext(scenario, constraints)
    if spec["kind"] == "heuristic":
        # rules stay positional: perfbench/tracing.py names the span from args[1:3]
        return schedule_online_heuristic(ctx, spec["task_rule"], spec["site_rule"], queue_cap)
    if spec["kind"] == "offline-stf":
        return schedule_offline_stf(ctx)
    if spec["kind"] == "oracle":
        return brute_force_optimal(ctx), []

    if net is None:
        if checkpoint is None:
            raise ValueError("the learned scheduler needs a checkpoint")
        net, _ = load_checkpoint(checkpoint)
    if net.config.n_filters != ctx.n_filters or net.config.n_sites != ctx.n_sites:
        raise ValueError(
            "checkpoint/scenario dimension mismatch: "
            f"model is {net.config.n_sites} sites x {net.config.n_filters} filters, "
            f"scenario is {ctx.n_sites} x {ctx.n_filters}"
        )
    search_cfg = SearchConfig.for_mode(ctx.n_sites > 1)
    rng = np.random.default_rng(seed)

    if spec["kind"] == "roars-refine":
        # the evaluation protocol: refine a complete arrival-order schedule
        dag0, drops = schedule_fcfs_list(ctx)
        if len(dag0.rows) == 0:
            return dag0, drops
        best, traj = rewrite_search(dag0, net, search_cfg, rng)
        if trace is not None:
            dump_trajectory(traj, trace)
        return best, drops

    # online loop: tentative schedule + greedy re-planning at events; a task
    # is placed or dropped on arrival, after its previous sibling
    st = Placement(ctx)
    pending: dict[int, None] = {}  # placed, not frozen, in placement order
    frozen_done: set[int] = set()  # completion steps of frozen tasks
    replan_cfg = replace(search_cfg, num_steps=replan_steps)
    task_id, arrival = ctx.task_id_list, ctx.arrival_list

    def freeze(r: int, t: int) -> None:
        del pending[r]
        s, b = st.committed[r]
        frozen_done.add(b + ctx.exposure_list[r])
        if audit is not None:
            audit.append(("freeze", t, task_id[r], s, b))

    dag = None  # the last re-plan's dag while ``st`` still holds exactly it

    for t in range(ctx.horizon):
        # completions of frozen tasks are re-plan triggers too
        events = t in frozen_done
        for r in ctx.arriving[t]:
            st.place(r, t)
            dag = None
            if r in st.committed:
                pending[r] = None
            events = True

        # queue bound: arrived, not started, not yet irrevocable
        waiting = [r for r in pending if st.committed[r][1] > t]
        while len(waiting) > queue_cap:
            victim = min(waiting, key=lambda r: (arrival[r], task_id[r]))
            freeze(victim, t)  # committed for good: "immediate execution"
            waiting.remove(victim)
        if audit is not None:
            audit.append(("waiting", t, len(waiting)))

        if events and pending:
            if dag is None:
                dag = st.to_dag()
            best, _ = rewrite_search(
                dag, net, replan_cfg, rng, greedy=True, now=t,
                frozen=frozenset(task_id[r] for r in st.committed if r not in pending),
            )
            if best is not dag:  # else ``st`` already holds it
                dag = best
                st.load(dag)

        for r in [r for r in pending if st.committed[r][1] == t]:
            freeze(r, t)  # starts now: no preemption from here on

    return (st.to_dag() if dag is None else dag), st.drops


# --- benchmark ---------------------------------------------------------------

def _constraints_from_obj(obj: dict | None) -> VisibilityConstraints:
    return config_from_obj(VisibilityConstraints, {} if obj is None else obj, "constraints")


def gen_config_from_obj(obj: dict) -> GenConfig:
    return config_from_obj(GenConfig, obj)


def _bench_one(payload: dict):
    """Worker: one (variant, scheduler, instance) cell.  Returns (average
    slowdown, drops, wall seconds, "") or, when the cell fails, (None, 0,
    0.0, the error)."""
    try:
        scenario = generate_scenario(payload["gen_cfg"], payload["seed"])
        t0 = time.perf_counter()
        dag, drops = run_online(
            scenario,
            payload["scheduler"],
            payload["queue_cap"],
            constraints=payload["constraints"],
            checkpoint=payload["checkpoint"],
            replan_steps=payload["replan_steps"],
            seed=payload["seed"],
        )
        wall = time.perf_counter() - t0
        avg = average_slowdown(dag) if len(dag.rows) else float("nan")
    except Exception as exc:  # recorded per row, the run continues
        return (None, 0, 0.0, f"{type(exc).__name__}: {exc}")
    return (avg, len(drops), wall, "")


#: text XML 1.0 can hold, escaped or not: the variant names slowdown.svg takes
_XML_TEXT = re.compile(r"[\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]*")

_BENCH_FIELDS = {
    "gen", "constraints", "seeds", "queue_cap", "schedulers", "variants",
    "checkpoint", "replan_steps",
}


def _check_bench_checkpoint(checkpoint: str | None, scheduler: str, gen_cfgs: dict) -> None:
    """Reject, before any cell runs, a checkpoint the learned ``scheduler``
    cannot use: none given, a file whose header does not read, a net
    whose sites or filters differ from a variant's scenarios, or one
    whose ``e_max`` a variant's exposures can exceed."""
    if checkpoint is None:
        raise ScenarioError(f"checkpoint: scheduler {scheduler!r} needs one")
    try:
        with open(checkpoint, "rb") as fh:
            _, net_cfg = read_checkpoint_header(fh)
    except OSError as exc:
        raise ScenarioError(f"checkpoint: cannot open {checkpoint!r}: {exc.strerror}") from exc
    except CheckpointError as exc:
        raise ScenarioError(f"checkpoint: {checkpoint!r}: {exc}") from exc
    for vname, cfg in gen_cfgs.items():
        if (net_cfg.n_sites, net_cfg.n_filters) != (cfg.num_sites, cfg.num_filters):
            raise ScenarioError(
                f"checkpoint: {checkpoint!r} holds a {net_cfg.n_sites}-site, {net_cfg.n_filters}-filter "
                f"net, but variant {vname!r} has {cfg.num_sites} sites and {cfg.num_filters} filters"
            )
        check_exposures(cfg, net_cfg.e_max, f"variant {vname!r}: ")


def run_benchmark(config: dict, out_dir, *, workers: int | None = None, log=None) -> list[BenchRow]:
    """Run every scheduler on every instance of every variant.

    Writes report.csv (deterministic), timings.csv (wall times, not under
    the determinism contract), and slowdown.svg.  Per-cell failures are
    recorded and do not stop the run.
    """
    read_field(config, None, "bench config", dict)
    reject_unknown(config, _BENCH_FIELDS, "bench config")
    seeds_cfg = read_field(config, "seeds", "", dict, default={})
    reject_unknown(seeds_cfg, ("base", "count"), "seeds")
    constraints = _constraints_from_obj(config.get("constraints"))
    seed_base = read_field(seeds_cfg, "base", "seeds", int, 0, default=0)
    count = read_field(seeds_cfg, "count", "seeds", int, 1, default=10)
    queue_cap = read_field(config, "queue_cap", "", int, 1, default=10)
    replan_steps = read_field(config, "replan_steps", "", int, 1, default=30)
    schedulers = read_field(config, "schedulers", "", list, default=["fcfs", "stf"])
    for j in range(len(schedulers)):
        name = read_field(schedulers, j, "schedulers", str)
        try:
            _parse_scheduler(name)
        except ValueError:
            raise ScenarioError(f"schedulers[{j}]: must be a scheduler name, got {name!r}") from None
        if name in schedulers[:j]:
            raise ScenarioError(f"schedulers[{j}]: {name!r} listed twice")
    gen = read_field(config, "gen", "", dict, default={})
    variants = read_field(config, "variants", "", dict, default={}) or {"default": {}}
    for vname in variants:
        if not _XML_TEXT.fullmatch(vname):
            raise ScenarioError(f"variants: name {vname!r} holds a character XML 1.0 forbids")
    gen_cfgs = {
        vname: gen_config_from_obj({**gen, **read_field(variants, vname, "variants", dict)})
        for vname in variants
    }
    checkpoint = read_field(config, "checkpoint", "", str, default=None)
    learned = [name for name in schedulers if _parse_scheduler(name)["kind"] in ("roars", "roars-refine")]
    if learned:
        _check_bench_checkpoint(checkpoint, learned[0], gen_cfgs)
    workers = read_field(default_workers() if workers is None else workers, None, "workers", int, 1)
    os.makedirs(out_dir, exist_ok=True)

    keys = [(vname, sched) for vname in gen_cfgs for sched in schedulers]
    cells = [
        {
            "scheduler": sched,
            "gen_cfg": gen_cfgs[vname],
            "constraints": constraints,
            "queue_cap": queue_cap,
            "seed": seed_base + k,
            "checkpoint": checkpoint,
            "replan_steps": replan_steps,
        }
        for vname, sched in keys
        for k in range(count)
    ]
    with worker_map(workers if len(cells) > 1 else 1) as run:
        results = list(run(_bench_one, cells))

    rows: list[BenchRow] = []
    for i, (vname, sched) in enumerate(keys):
        res = results[i * count : (i + 1) * count]
        ran = [r for r in res if r[0] is not None]
        good = [r for r in ran if np.isfinite(r[0])]  # a cell that scheduled nothing has no average
        failures = [r for r in res if r[0] is None]
        if log and failures:
            log(f"{vname}/{sched}: {len(failures)} failed instances ({failures[0][3]})")
        rows.append(
            BenchRow(
                scheduler=sched,
                variant=vname,
                instances=len(good),
                mean_avg_slowdown=float(np.mean([r[0] for r in good])) if good else float("nan"),
                drop_count=int(sum(r[1] for r in ran)),
                wall_time_s=float(sum(r[2] for r in ran)),
                seed=seed_base,
            )
        )

    with open(os.path.join(out_dir, "report.csv"), "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["variant", "scheduler", "instances", "mean_avg_slowdown", "drop_count", "seed"])
        for r in rows:
            out.writerow(
                [r.variant, r.scheduler, r.instances, f"{r.mean_avg_slowdown:.6f}", r.drop_count, r.seed]
            )
    with open(os.path.join(out_dir, "timings.csv"), "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["variant", "scheduler", "wall_time_s"])
        for r in rows:
            out.writerow([r.variant, r.scheduler, f"{r.wall_time_s:.3f}"])
    svg = grouped_bar_svg(
        groups=list(gen_cfgs),
        series=schedulers,
        values={(r.variant, r.scheduler): r.mean_avg_slowdown for r in rows},
        title="mean average slowdown by scheduler",
    )
    with open(os.path.join(out_dir, "slowdown.svg"), "w") as fh:
        fh.write(svg)
    return rows


# --- SVG ---------------------------------------------------------------------

_PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
]


def _escape(text: str) -> str:
    """XML character data for ``text``, as ``xml.sax.saxutils.escape``
    gives it without importing urllib and some forty other modules."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def grouped_bar_svg(groups, series, values, title="") -> str:
    """Self-contained grouped-bar chart; the plotted numbers are embedded
    as CSV in a <desc> block so the figure carries its own data table.
    Names are written as XML-escaped text, and must hold only characters
    XML 1.0 allows (``run_benchmark`` checks its variant names)."""
    w_bar, gap, group_gap = 18, 2, 24
    left, top, height = 60, 30, 220
    n_g, n_s = len(groups), len(series)
    chart_w = n_g * (n_s * (w_bar + gap) + group_gap)
    width = left + chart_w + 160
    finite = [v for v in values.values() if v is not None and np.isfinite(v)]
    vmax = max(finite) if finite else 1.0
    vmax = vmax * 1.15 or 1.0
    table = io.StringIO()
    out = csv.writer(table, lineterminator="\n")
    out.writerow(["variant", "scheduler", "mean_avg_slowdown"])
    for g in groups:
        for s in series:
            v = values.get((g, s))
            out.writerow([g, s, "" if v is None or not np.isfinite(v) else f"{v:.6f}"])
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{top + height + 70}">',
        f"<desc>\n{_escape(table.getvalue())}</desc>",
        f'<text x="{left}" y="18" font-family="sans-serif" font-size="13">{_escape(title)}</text>',
    ]
    # y axis with 5 ticks
    for k in range(6):
        v = vmax * k / 5
        y = top + height - height * k / 5
        lines.append(
            f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left + chart_w}" y2="{y:.1f}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{v:.1f}</text>'
        )
    x = left + group_gap // 2
    for g in groups:
        for j, s in enumerate(series):
            v = values.get((g, s))
            if v is not None and np.isfinite(v):
                h = height * v / vmax
                lines.append(
                    f'<rect x="{x}" y="{top + height - h:.1f}" width="{w_bar}" '
                    f'height="{h:.1f}" fill="{_PALETTE[j % len(_PALETTE)]}"/>'
                )
            x += w_bar + gap
        lines.append(
            f'<text x="{x - (n_s * (w_bar + gap)) // 2}" y="{top + height + 14}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="10">{_escape(g)}</text>'
        )
        x += group_gap
    for j, s in enumerate(series):
        y = top + 14 * j
        lines.append(
            f'<rect x="{left + chart_w + 16}" y="{y}" width="10" height="10" '
            f'fill="{_PALETTE[j % len(_PALETTE)]}"/>'
        )
        lines.append(
            f'<text x="{left + chart_w + 30}" y="{y + 9}" font-family="sans-serif" '
            f'font-size="10">{_escape(s)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# --- subcommands -------------------------------------------------------------

def _cmd_generate(args) -> int:
    gen_cfg = gen_config_from_obj(read_json_file(args.config) if args.config else {})
    sites = load_sites(args.sites) if args.sites else None
    scenario = generate_scenario(gen_cfg, args.seed, sites=sites)
    save_scenario(scenario, args.out)
    print(
        f"wrote {args.out}: {len(scenario.targets)} targets, "
        f"{len(scenario.tasks)} tasks, {len(scenario.sites)} sites"
    )
    return 0


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    trace_fh = open(args.trace, "w") if args.trace else None
    try:
        dag, drops = run_online(
            scenario,
            args.scheduler,
            args.queue_cap,
            checkpoint=args.checkpoint,
            replan_steps=args.replan_steps,
            seed=args.seed,
            trace=trace_fh,
        )
    finally:
        if trace_fh:
            trace_fh.close()
    avg = average_slowdown(dag) if len(dag.rows) else float("nan")
    if args.out:
        with open(args.out, "w") as fh:
            dump_schedule(dag, fh)
    print(
        f"{args.scheduler}: scheduled={len(dag.rows)} dropped={len(drops)} "
        f"avg_slowdown={avg:.4f}"
    )
    return 0


def _cmd_train(args) -> int:
    gen_cfg = gen_config_from_obj(read_json_file(args.scenario_config) if args.scenario_config else {})
    train_cfg = TrainConfig(
        batch=args.batch, episode_len=args.episode_len, steps=args.steps
    )
    search_cfg = SearchConfig.for_mode(gen_cfg.num_sites > 1)
    policy_cfg = PolicyConfig(
        hidden=args.hidden,
        n_filters=gen_cfg.num_filters,
        n_sites=gen_cfg.num_sites,
        distributed=gen_cfg.num_sites > 1,
    )
    net, curve = train_policy(
        gen_cfg,
        train_cfg,
        search_cfg,
        policy_cfg,
        seed=args.seed,
        checkpoint_path=args.out,
        curve_path=args.curve,
        workers=args.workers,
        val_every=args.val_every,
        log=print,
    )
    print(f"wrote {args.out} ({len(curve)} validation points)")
    return 0


def _cmd_bench(args) -> int:
    config = read_json_file(args.config)
    seeds = config.get("seeds") if isinstance(config, dict) else False
    if args.seed is not None and isinstance(seeds, (dict, type(None))):  # else run_benchmark names the field
        config = {**config, "seeds": {**(seeds or {}), "base": args.seed}}
    rows = run_benchmark(config, args.out, workers=args.workers, log=print)
    for r in rows:
        print(
            f"{r.variant:>12} {r.scheduler:>12}: mean avg slowdown = "
            f"{r.mean_avg_slowdown:.4f} over {r.instances} instances "
            f"({r.drop_count} drops)"
        )
    print(f"wrote {args.out}/report.csv, timings.csv, slowdown.svg")
    return 0


def _cmd_inspect(args) -> int:
    if args.scenario:
        s = load_scenario(args.scenario)
        ra_dec = np.array([(t.coord.ra, t.coord.dec) for t in s.targets]).reshape(-1, 2).T
        vis_frac = [visibility_masks_multi(*ra_dec, x.coord, s.grid)[0].mean() if s.targets else 0.0 for x in s.sites]
        print(f"scenario: {len(s.targets)} targets, {len(s.tasks)} tasks, seed {s.rng_seed}")
        print(
            f"grid: {s.grid.horizon_steps} x {s.grid.step_minutes} min from "
            f"{s.grid.epoch_utc.isoformat()}"
        )
        for i, site in enumerate(s.sites):
            print(
                f"  site {i} {site.name}: lat {site.coord.lat:+.2f} lon {site.coord.lon:+.2f} "
                f"priority {site.equipment_priority:.3f} "
                f"visible-fraction {vis_frac[i]:.2f}"
            )
    if args.checkpoint:
        with open(args.checkpoint, "rb") as fh:
            header, _ = read_checkpoint_header(fh)
        print("checkpoint:", json.dumps(header, indent=1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="obsched",
        description="telescope-array follow-up observation scheduling",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a scenario file")
    g.add_argument("--config", help="generation-config JSON")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--sites", help="site-list JSON overriding the bundled sites")
    g.set_defaults(fn=_cmd_generate)

    s = sub.add_parser("simulate", help="run one scheduler on a scenario")
    s.add_argument("--scenario", required=True)
    s.add_argument("--scheduler", required=True)
    s.add_argument("--queue-cap", type=int, default=10)
    s.add_argument("--checkpoint")
    s.add_argument("--replan-steps", type=int, default=30)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="schedule dump (JSON lines)")
    s.add_argument("--trace", help="rewriting trajectory dump (JSON lines)")
    s.set_defaults(fn=_cmd_simulate)

    t = sub.add_parser("train", help="train the rewriting policy")
    t.add_argument("--scenario-config", help="generation-config JSON")
    t.add_argument("--out", required=True, help="checkpoint path")
    t.add_argument("--curve", help="learning-curve CSV path")
    t.add_argument("--steps", type=int, default=2000)
    t.add_argument("--batch", type=int, default=128)
    t.add_argument("--episode-len", type=int, default=25)
    t.add_argument("--hidden", type=int, default=64)
    t.add_argument("--val-every", type=int, default=200)
    t.add_argument("--workers", type=int)
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(fn=_cmd_train)

    b = sub.add_parser("bench", help="benchmark schedulers on seeded instances")
    b.add_argument("--config", required=True)
    b.add_argument("--out", required=True, help="output directory")
    b.add_argument("--seed", type=int, help="override the seed base")
    b.add_argument("--workers", type=int)
    b.set_defaults(fn=_cmd_bench)

    i = sub.add_parser("inspect", help="describe a scenario or checkpoint")
    i.add_argument("--scenario")
    i.add_argument("--checkpoint")
    i.set_defaults(fn=_cmd_inspect)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"seed: must be an integer >= 0, got {args.seed}")
        return args.fn(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
