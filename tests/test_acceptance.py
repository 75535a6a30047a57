"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).

Criteria 3 and 9 evaluate a desk-scale trained policy; the training runs
once and is cached under tests/_cache (see acceptance_config.py).
"""
import json
import time

import numpy as np
import pytest

import acceptance_config as acc
from conftest import U, toy_scenario
from obsched import autograd as ag
from obsched.cli import main
from obsched.ephemeris import (
    GeoCoord,
    SkyCoord,
    TimeGrid,
    VisibilityConstraints,
    _kasten_young,
    visibility_masks_multi,
    visibility_windows,
)
from obsched.heuristics import (
    DISTRIBUTED_PAIRS,
    TaskRule,
    brute_force_optimal,
    schedule_fcfs_list,
    schedule_offline_stf,
    schedule_online_heuristic,
)
from obsched.policy import (
    PolicyConfig,
    PolicyNet,
    TrainConfig,
    discounted_returns,
    losses,
    _instance_seed,
    _training_instance,
)
from obsched.rewriter import (
    RandomPolicy,
    RewriteAction,
    SearchConfig,
    candidate_parents,
    candidate_regions,
    rewrite_search,
    rewrite_step,
)
from obsched.scenario import GenConfig, generate_scenario
from obsched.schedule import (
    Assignment,
    SchedulingContext,
    average_slowdown,
    build_dag,
    total_slowdown,
    validate,
)
from test_policy import stub_actor_critic


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def _small_instance(seed: int):
    """<=5 tasks, 1 site, 3 filters, 60-step horizon, loose deadlines: every
    ordering is feasible, so no scheduler ever drops."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    specs = []
    for _ in range(n):
        rho = tuple(rng.random(3) < 0.45)
        specs.append(
            (int(rng.integers(0, 21)), int(rng.integers(1, 7)), rho if any(rho) else U)
        )
    return toy_scenario(specs, horizon=60)


def test_acceptance_1_oracle_equivalence():
    t0 = time.time()
    dominated = 0
    comparisons = 0
    total_best = 0.0
    total_opt = 0.0
    for seed in range(200):
        s = _small_instance(seed)
        ctx = SchedulingContext(s)
        opt = brute_force_optimal(ctx)
        opt_cost = total_slowdown(opt)
        for rule in TaskRule:
            dag, drops = schedule_online_heuristic(ctx, rule, None)
            assert not drops, "small instances must never drop"
            comparisons += 1
            if opt_cost <= total_slowdown(dag) + 1e-9:
                dominated += 1
        init, drops = schedule_fcfs_list(ctx)
        assert not drops
        best = init
        for restart in range(10):
            cand, _ = rewrite_search(
                init,
                RandomPolicy(),
                SearchConfig(num_steps=100),
                np.random.default_rng(1000 * seed + restart),
            )
            if total_slowdown(cand) < total_slowdown(best):
                best = cand
        total_best += total_slowdown(best)
        total_opt += opt_cost
    elapsed = time.time() - t0
    ratio = total_best / total_opt
    ok = dominated == comparisons and ratio <= 1.10 and elapsed < 300
    _report(
        1,
        ok,
        f"oracle dominated {dominated}/{comparisons} heuristic runs; random "
        f"rewriting at {ratio:.3f}x oracle mean total (<=1.10); {elapsed:.0f}s",
    )
    assert dominated == comparisons
    assert ratio <= 1.10
    assert elapsed < 300


def test_acceptance_2_heuristic_ordering():
    cfg = GenConfig(horizon_steps=60, num_sites=1, mode_exposure_count_frac=0.0)
    sums = {r: [] for r in TaskRule}
    for seed in range(200):
        s = generate_scenario(cfg, seed)
        if not s.tasks:
            continue
        ctx = SchedulingContext(s)
        for r in TaskRule:
            dag, _ = schedule_online_heuristic(ctx, r, None, 10)
            if len(dag.rows):
                sums[r].append(average_slowdown(dag))
    m = {r: float(np.mean(sums[r])) for r in TaskRule}
    good = max(m[TaskRule.STF], m[TaskRule.SPT])
    bad = min(m[TaskRule.EDD], m[TaskRule.RIP], m[TaskRule.FCFS])
    ok = good < bad
    _report(
        2,
        ok,
        "mean avg-slowdown "
        + " ".join(f"{r.value}={m[r]:.3f}" for r in TaskRule)
        + f"; max(stf,spt)={good:.3f} < min(edd,rip,fcfs)={bad:.3f}",
    )
    assert ok


@pytest.mark.slow
def test_acceptance_3_trained_policy_beats_best_heuristic():
    net = acc.train_or_load(distributed=False, log=print)
    gen, _, search_cfg, _ = acc.recipe(distributed=False)
    heur = {r: [] for r in TaskRule}
    roars = []
    for k in range(100):
        dag0 = _training_instance(gen, _instance_seed(acc.SEED, 555, k))
        if dag0 is None:
            continue
        ctx = dag0.ctx
        for r in TaskRule:
            d, _ = schedule_online_heuristic(ctx, r, None, 10)
            if len(d.rows):
                heur[r].append(average_slowdown(d))
        rng = np.random.default_rng(np.random.SeedSequence([acc.SEED, 556, k]))
        best, _ = rewrite_search(dag0, net, search_cfg, rng)
        roars.append(average_slowdown(best))
    m = {r.value: float(np.mean(v)) for r, v in heur.items()}
    best_h = min(m.values())
    mean_roars = float(np.mean(roars))
    ok = mean_roars <= 0.90 * best_h
    _report(
        3,
        ok,
        f"trained policy {mean_roars:.3f} vs best heuristic "
        f"{min(m, key=m.get)}={best_h:.3f} (target <= {0.9 * best_h:.3f}) "
        f"over {len(roars)} instances",
    )
    assert ok


def test_acceptance_4_offline_dominance():
    cfg = GenConfig(horizon_steps=60, num_sites=1, mode_exposure_count_frac=0.0)
    wins = comparable = 0
    for seed in range(100):
        s = generate_scenario(cfg, seed)
        if not s.tasks:
            continue
        ctx = SchedulingContext(s)
        off, _ = schedule_offline_stf(ctx)
        on, _ = schedule_online_heuristic(ctx, TaskRule.FCFS, None, 10)
        if not len(off.rows) or not len(on.rows):
            continue
        comparable += 1
        if average_slowdown(off) <= average_slowdown(on) + 1e-9:
            wins += 1
    frac = wins / comparable
    ok = frac >= 0.90
    _report(4, ok, f"offline STF at or below online FCFS on {wins}/{comparable} = {frac:.2%}")
    assert ok


def test_acceptance_5_feasibility_invariants():
    t0 = time.time()
    cfg = GenConfig(horizon_steps=60, num_sites=1, mode_exposure_count_frac=0.5, arrival_prob=0.25)
    rng = np.random.default_rng(0)
    dags = []
    for seed in range(60):
        s = generate_scenario(cfg, seed)
        if not s.tasks:
            continue
        ctx = SchedulingContext(s)
        dag, _ = schedule_fcfs_list(ctx)
        if len(dag.rows) >= 3:
            dags.append(dag)
    steps_total = 100_000
    per_dag = steps_total // len(dags)
    violations = 0
    monotone = True
    applied = 0
    for dag in dags:
        cur = dag
        best = total_slowdown(cur)
        running_best = best
        for _ in range(per_dag):
            regions = candidate_regions(cur)
            region = regions[int(rng.integers(len(regions)))]
            parents = candidate_parents(cur, region)
            kind, ref = parents[int(rng.integers(len(parents)))]
            act = RewriteAction(region, None if kind == "root" else ref, ref if kind == "root" else 0)
            new, status = rewrite_step(cur, act)
            if status == "applied":
                applied += 1
                if validate(new):
                    violations += 1
            cur = new
            running_best = min(running_best, total_slowdown(cur))
            if running_best > best + 1e-9:
                monotone = False
            best = running_best
    elapsed = time.time() - t0
    ok = violations == 0 and monotone and elapsed < 120
    _report(
        5,
        ok,
        f"{per_dag * len(dags)} rewrites ({applied} applied) across {len(dags)} dags: "
        f"{violations} violations, best-cost monotone={monotone}, {elapsed:.0f}s",
    )
    assert violations == 0
    assert monotone
    assert elapsed < 120


def test_acceptance_6_gradient_correctness():
    t0 = time.time()
    cfg = PolicyConfig(hidden=8, n_filters=3, n_sites=1)
    tc = TrainConfig(episode_len=6)
    worst = 0.0
    checked = 0
    rng_master = np.random.default_rng(0)
    for trial in range(20):
        # a feasible dag with 4-8 nodes (3-7 tasks + 1 root)
        n = int(rng_master.integers(3, 8))
        specs = []
        for _ in range(n):
            rho = tuple(rng_master.random(3) < 0.5)
            specs.append(
                (int(rng_master.integers(0, 15)), int(rng_master.integers(1, 6)), rho if any(rho) else U)
            )
        s = toy_scenario(specs, horizon=60)
        dag0, drops = schedule_fcfs_list(SchedulingContext(s))
        assert not drops
        net = PolicyNet(cfg, seed=trial)
        _, traj = rewrite_search(
            dag0, net, SearchConfig(num_steps=6), np.random.default_rng(trial), pc=0.5
        )
        g_ret = discounted_returns(np.array([t.reward for t in traj]), tc.gamma)
        q0 = np.array([net.region_scores(t.dag, [t.action.region])[0] for t in traj])
        delta0 = g_ret - q0
        net.zero_grad()
        _, _, L = losses(net, traj, tc, delta=delta0)
        ag.backward(L)
        flat = net.flat()
        grad = net.grad_flat()

        def f(v):
            n2 = PolicyNet(cfg, init=False)
            n2.set_flat(v)
            _, _, l2 = losses(n2, traj, tc, delta=delta0)
            return float(l2.value)

        probe_rng = np.random.default_rng(100 + trial)
        for i in probe_rng.choice(flat.size, 24, replace=False):
            e = np.zeros_like(flat)
            e[i] = 1e-5
            num = (f(flat + e) - f(flat - e)) / 2e-5
            rel = abs(num - grad[i]) / max(1.0, abs(num), abs(grad[i]))
            worst = max(worst, rel)
            checked += 1
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60
    _report(
        6,
        ok,
        f"{checked} parameter probes over 20 dags: worst relative error "
        f"{worst:.2e} (<1e-4), {elapsed:.0f}s",
    )
    assert worst < 1e-4
    assert elapsed < 60


def test_acceptance_7_schedule_arithmetic_spot_checks():
    s1 = toy_scenario([(10, 5, U)])
    on_time = build_dag(SchedulingContext(s1), [Assignment(0, 0, 10)])
    delayed = build_dag(SchedulingContext(s1), [Assignment(0, 0, 20)])
    eta1 = average_slowdown(on_time)
    eta3 = average_slowdown(delayed)

    lw, _, _ = stub_actor_critic([1.0, 1.0], q=[0.0, 0.0], logps=[0.0, 0.0], config=TrainConfig(gamma=0.9))
    ok = eta1 == 1.0 and eta3 == 3.0 and abs(lw - 2.305) < 1e-12
    _report(
        7,
        ok,
        f"eta(B=A)={eta1}, eta(A=10,E=5,B=20)={eta3}, two-step critic loss={lw}",
    )
    assert eta1 == 1.0
    assert eta3 == 3.0
    assert lw == pytest.approx(2.305, abs=1e-12)


def test_acceptance_8_ephemeris_properties():
    am90 = float(_kasten_young(90.0))
    ok_zenith = abs(am90 - 1.0) <= 1e-3

    alts = np.linspace(5.5, 90.0, 2000)
    xs = _kasten_young(alts)
    ok_monotone = bool(np.all(np.diff(xs) < 0))

    ok_masks = True
    from test_ephemeris import _per_step_predicate

    rng = np.random.default_rng(7)
    for _ in range(8):
        target = SkyCoord(rng.uniform(0, 360), rng.uniform(-70, 70))
        site = GeoCoord(rng.uniform(-50, 50), rng.uniform(-179, 180))
        from datetime import datetime, timedelta, timezone

        grid = TimeGrid(
            datetime(2025, 1, 1, tzinfo=timezone.utc) + timedelta(hours=float(rng.uniform(0, 8760))),
            1,
            240,
        )
        cons = VisibilityConstraints()
        (mask,), (am,) = visibility_masks_multi(target.ra, target.dec, site, grid, cons)
        if not np.array_equal(mask, _per_step_predicate(target, site, grid, cons)):
            ok_masks = False
        rebuilt = np.zeros(grid.horizon_steps, dtype=bool)
        for w in visibility_windows(target, site, grid, cons):
            rebuilt[w.start_step : w.end_step] = True
        if not np.array_equal(rebuilt, mask):
            ok_masks = False
    ok = ok_zenith and ok_monotone and ok_masks
    _report(
        8,
        ok,
        f"airmass(90)={am90:.5f} (+-1e-3), strictly monotone={ok_monotone}, "
        f"window masks match the per-step predicate on all grids={ok_masks}",
    )
    assert ok


@pytest.mark.slow
def test_acceptance_9_distributed_policy_beats_all_pairs():
    net = acc.train_or_load(distributed=True, log=print)
    gen, _, search_cfg, _ = acc.recipe(distributed=True)
    pair_means = {name: [] for name, _, _ in DISTRIBUTED_PAIRS}
    roars = []
    for k in range(100):
        dag0 = _training_instance(gen, _instance_seed(acc.SEED, 555, k))
        if dag0 is None:
            continue
        ctx = dag0.ctx
        for name, tr, sr in DISTRIBUTED_PAIRS:
            d, _ = schedule_online_heuristic(ctx, tr, sr, 10)
            if len(d.rows):
                pair_means[name].append(average_slowdown(d))
        rng = np.random.default_rng(np.random.SeedSequence([acc.SEED, 556, k]))
        best, _ = rewrite_search(dag0, net, search_cfg, rng)
        roars.append(average_slowdown(best))
    m = {name: float(np.mean(v)) for name, v in pair_means.items()}
    mean_roars = float(np.mean(roars))
    best_name = min(m, key=m.get)
    ok = all(mean_roars < v for v in m.values())
    _report(
        9,
        ok,
        f"trained policy {mean_roars:.3f} vs best pair {best_name}={m[best_name]:.3f}; "
        "beats all ten: " + ("yes" if ok else "no"),
    )
    assert ok


def test_acceptance_10_subcommand_determinism(tmp_path):
    gen_obj = {"horizon_steps": 60, "arrival_prob": 0.25, "mode_exposure_count_frac": 0.0}
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(gen_obj))

    # generate
    for name in ("a", "b"):
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / f"{name}.json"), "--seed", "5"]) == 0
    same_gen = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    # simulate (schedule dump)
    for name in ("da", "db"):
        assert main(
            ["simulate", "--scenario", str(tmp_path / "a.json"), "--scheduler", "stf",
             "--out", str(tmp_path / f"{name}.jsonl"), "--seed", "3"]
        ) == 0
    same_sim = (tmp_path / "da.jsonl").read_bytes() == (tmp_path / "db.jsonl").read_bytes()

    # bench (report CSV)
    bench_obj = {"gen": gen_obj, "seeds": {"base": 0, "count": 2}, "schedulers": ["fcfs", "stf"]}
    bcfg = tmp_path / "bench.json"
    bcfg.write_text(json.dumps(bench_obj))
    for name in ("ra", "rb"):
        assert main(["bench", "--config", str(bcfg), "--out", str(tmp_path / name), "--workers", "1"]) == 0
    same_bench = (tmp_path / "ra" / "report.csv").read_bytes() == (tmp_path / "rb" / "report.csv").read_bytes()

    # train (curve CSV + checkpoint), single worker
    outs = []
    for name in ("ta", "tb"):
        assert main(
            ["train", "--scenario-config", str(cfg), "--out", str(tmp_path / f"{name}.ckpt"),
             "--curve", str(tmp_path / f"{name}.csv"), "--steps", "2", "--batch", "2",
             "--episode-len", "4", "--hidden", "8", "--val-every", "1", "--workers", "1",
             "--seed", "9"]
        ) == 0
        outs.append((tmp_path / f"{name}.csv").read_bytes())
    same_train = outs[0] == outs[1] and (
        (tmp_path / "ta.ckpt").read_bytes() == (tmp_path / "tb.ckpt").read_bytes()
    )

    ok = same_gen and same_sim and same_bench and same_train
    _report(
        10,
        ok,
        f"byte-identical outputs: generate={same_gen} simulate={same_sim} "
        f"bench={same_bench} train={same_train}",
    )
    assert ok
