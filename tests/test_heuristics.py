"""Dispatch rules, the online queue simulator, offline baseline, and the
exhaustive oracle."""
import hashlib
import io

import numpy as np
import pytest

from conftest import G, U, UGI, fits_at, run_left, toy_scenario, transit_context, visible_steps
from obsched.heuristics import (
    SiteRule,
    TaskRule,
    _site_key,
    brute_force_optimal,
    rank_key,
    schedule_fcfs_list,
    schedule_offline_stf,
    schedule_online_heuristic,
)
from obsched.scenario import GenConfig, generate_scenario
from obsched.schedule import (
    Placement,
    SchedulingContext,
    average_slowdown,
    dump_schedule,
    total_slowdown,
    validate,
)


class TestRankKey:
    def test_stf_prefers_short_exposure(self):
        s = toy_scenario([(0, 3, U), (0, 7, G)])
        targets = {t.id: t for t in s.targets}
        keys = [rank_key(TaskRule.STF, t, targets[t.target_id]) for t in s.tasks]
        assert keys[0] < keys[1]

    def test_rip_resource_intensity(self):
        # 3 filters x 6 exposures = 18 beats 1 filter x 10 = 10
        s = toy_scenario(
            [(0, 10, UGI, 60, "a"), (0, 6, U, 60, "b")],
        )
        a, b = s.targets
        # target a: duration 60 / exposure 10 -> 6 exposures, 3 filters
        ka = rank_key(TaskRule.RIP, s.tasks[0], a)
        kb = rank_key(TaskRule.RIP, s.tasks[1], b)
        assert ka[0] == -18 and kb[0] == -10
        assert ka < kb

    def test_fcfs_tie_broken_by_id(self):
        s = toy_scenario([(0, 5, U), (0, 5, G)])
        k0 = rank_key(TaskRule.FCFS, s.tasks[0], s.targets[0])
        k1 = rank_key(TaskRule.FCFS, s.tasks[1], s.targets[1])
        assert k0 < k1

    def test_edd_and_spt(self):
        s = toy_scenario([(0, 5, U, 30), (0, 5, G, 50)])
        assert rank_key(TaskRule.EDD, s.tasks[0], s.targets[0]) < rank_key(
            TaskRule.EDD, s.tasks[1], s.targets[1]
        )
        assert rank_key(TaskRule.SPT, s.tasks[0], s.targets[0]) < rank_key(
            TaskRule.SPT, s.tasks[1], s.targets[1]
        )


class TestOnline:
    def test_single_task_starts_on_time(self):
        s = toy_scenario([(7, 5, U)])
        dag, drops = schedule_online_heuristic(SchedulingContext(s), TaskRule.FCFS)
        assert drops == []
        assert average_slowdown(dag) == pytest.approx(1.0)

    def test_capacity_one_serializes(self):
        s = toy_scenario([(0, 5, U), (0, 5, U)])
        dag, drops = schedule_online_heuristic(SchedulingContext(s), TaskRule.FCFS)
        assert drops == []
        starts = sorted(int(b) for b in dag.start)
        assert starts == [0, 5]
        assert total_slowdown(dag) == pytest.approx(1.0 + 2.0)

    def test_stf_prefers_short_under_contention(self):
        s = toy_scenario([(0, 9, U), (0, 3, U)])
        dag, _ = schedule_online_heuristic(SchedulingContext(s), TaskRule.STF)
        by_task = {t: int(dag.start[i]) for i, t in enumerate(dag.task_ids)}
        assert by_task[1] == 0 and by_task[0] == 3
        dag, _ = schedule_online_heuristic(SchedulingContext(s), TaskRule.FCFS)
        by_task = {t: int(dag.start[i]) for i, t in enumerate(dag.task_ids)}
        assert by_task[0] == 0 and by_task[1] == 9

    def test_one_start_pass_goes_in_rank_order(self):
        # at step 0 tasks 0 and 1 could each start on U, and task 2 on G.
        # Under STF task 1 ranks first, though it queues after task 0, and
        # its commit blocks task 0; the pass goes on past task 0 and still
        # starts task 2, which ranks last
        s = toy_scenario([(0, 9, U), (0, 3, U), (0, 12, G)])
        dag, drops = schedule_online_heuristic(SchedulingContext(s), TaskRule.STF)
        assert drops == []
        assert dict(zip(dag.task_ids, dag.start.tolist())) == {0: 3, 1: 0, 2: 0}

    def test_queue_overflow_forces_commitment(self):
        # 12 one-filter tasks arrive together; W=10 forces two immediate
        # commitments, and everything still serializes feasibly
        specs = [(0, 2, U, 60) for _ in range(12)]
        s = toy_scenario(specs)
        dag, drops = schedule_online_heuristic(SchedulingContext(s), TaskRule.FCFS, queue_cap=10)
        assert len(dag.rows) + len(drops) == 12
        assert validate(dag) == []

    def test_deterministic(self):
        cfg = GenConfig(horizon_steps=90, arrival_prob=0.25)
        s = generate_scenario(cfg, 5)
        ctx = SchedulingContext(s)
        d1, dr1 = schedule_online_heuristic(ctx, TaskRule.STF, None)
        d2, dr2 = schedule_online_heuristic(ctx, TaskRule.STF, None)
        assert d1 == d2 and dr1 == dr2

    def test_every_heuristic_output_validates(self):
        cfg = GenConfig(horizon_steps=90, arrival_prob=0.25, num_sites=2)
        for seed in (0, 1):
            s = generate_scenario(cfg, seed)
            ctx = SchedulingContext(s)
            for rule in TaskRule:
                for srule in (None, SiteRule.BEST_QUALITY, SiteRule.BEST_PRIORITY):
                    dag, _ = schedule_online_heuristic(ctx, rule, srule)
                    assert validate(dag) == []


def _independent_online_sim(s, ctx, rule, queue_cap=10):
    """Step-by-step re-simulation of the online dispatch semantics with
    naive data structures; the oracle for the simulator."""
    horizon, nsites, nf = ctx.horizon, ctx.n_sites, ctx.n_filters
    vis = visible_steps(s, ctx.constraints)
    busy = np.zeros((nsites, nf, horizon), dtype=bool)
    placed: dict[int, tuple[int, int]] = {}
    dropped: set[int] = set()
    queue: list[int] = []
    tasks = {t.id: t for t in s.tasks}
    targets = {t.id: t for t in s.targets}

    def key(tid):
        t = tasks[tid]
        return rank_key(rule, t, targets[t.target_id])

    def release(tid):
        t = tasks[tid]
        if t.seq_index == 0:
            return t.arrival
        prev = next(
            p for p in s.tasks if p.target_id == t.target_id and p.seq_index == t.seq_index - 1
        )
        if prev.id in dropped:
            return t.arrival
        if prev.id not in placed:
            return None
        gap = targets[t.target_id].mode.sibling_gap
        return max(t.arrival, placed[prev.id][1] + prev.exposure + gap)

    def ok_at(tid, site, b):
        t = tasks[tid]
        if b < t.arrival or b + t.exposure > min(t.deadline, horizon):
            return False
        tr = next(i for i, tt in enumerate(s.targets) if tt.id == t.target_id)
        if not vis[tr, site, b : b + t.exposure].all():
            return False
        for f in range(nf):
            if t.rho[f] and busy[site, f, b : b + t.exposure].any():
                return False
        return True

    def put(tid, site, b):
        t = tasks[tid]
        for f in range(nf):
            if t.rho[f]:
                busy[site, f, b : b + t.exposure] = True
        placed[tid] = (site, b)

    def latest_static(tid):
        t = tasks[tid]
        tr = next(i for i, tt in enumerate(s.targets) if tt.id == t.target_id)
        best = -1
        for site in range(nsites):
            for b in range(t.arrival, min(t.deadline, horizon) - t.exposure + 1):
                if vis[tr, site, b : b + t.exposure].all():
                    best = max(best, b)
        return best

    for t_now in range(horizon):
        for tid in sorted(t.id for t in s.tasks if t.arrival == t_now):
            queue.append(tid)
        while len(queue) > queue_cap:
            ready = [q for q in queue if release(q) is not None]
            victim = min(ready, key=key)
            rel = release(victim)
            found = None
            for b in range(max(rel, t_now), horizon):
                for site in range(nsites):
                    if ok_at(victim, site, b):
                        found = (site, b)
                        break
                if found:
                    break
            if found:
                put(victim, *found)
            else:
                dropped.add(victim)
            queue.remove(victim)
        while True:
            ready = [
                q
                for q in queue
                if release(q) is not None
                and release(q) <= t_now
                and any(ok_at(q, site, t_now) for site in range(nsites))
            ]
            if not ready:
                break
            tid = min(ready, key=key)
            site = next(site for site in range(nsites) if ok_at(tid, site, t_now))
            put(tid, site, t_now)
            queue.remove(tid)
        for tid in list(queue):
            if t_now > latest_static(tid):
                dropped.add(tid)
                queue.remove(tid)
    dropped.update(queue)
    return placed, dropped


def per_step_online_heuristic(ctx, task_rule, site_rule=None, queue_cap=10):
    """``schedule_online_heuristic`` with no wake steps: every queued task
    is tested on every site at every step by the point check (conftest's
    ``fits_at``), and a task's last static start is read straight from
    conftest's ``run_left``.  The reference its skips and its fits are
    checked against."""
    scenario = ctx.scenario
    st = Placement(ctx)
    left = run_left(ctx)

    def key(row):
        return rank_key(task_rule, scenario.tasks[row], scenario.targets[int(ctx.target_row[row])])

    last_start = {}

    def static_last_start(row):
        if row not in last_start:
            e, lo = int(ctx.exposure[row]), int(ctx.arrival[row])
            ok = left[int(ctx.target_row[row]), :, lo : max(lo, int(ctx.limit[row]) - e + 1)] >= e
            last_start[row] = lo + int(np.flatnonzero(ok.any(axis=0))[-1]) if ok.any() else -1
        return last_start[row]

    by_arrival = {}
    for r in range(ctx.n_tasks):
        by_arrival.setdefault(int(ctx.arrival[r]), []).append(r)

    queue = []
    for t in range(ctx.horizon):
        for r in sorted(by_arrival.get(t, ()), key=lambda r: int(ctx.task_id[r])):
            queue.append(r)
        while len(queue) > queue_cap:
            ready = [r for r in queue if int(ctx.prev_sibling[r]) not in queue]
            victim = min(ready, key=key)
            st.place(victim, t, _site_key(ctx, victim, site_rule))
            queue.remove(victim)
        while True:
            startable = []
            for r in queue:
                if int(ctx.prev_sibling[r]) in queue or st.release(r) > t:
                    continue
                sites_now = [s for s in range(ctx.n_sites) if fits_at(st, r, s, t)]
                if sites_now:
                    startable.append((r, sites_now))
            if not startable:
                break
            r, sites_now = min(startable, key=lambda rs: key(rs[0]))
            st.commit(r, *min([(s, t) for s in sites_now], key=_site_key(ctx, r, site_rule)))
            queue.remove(r)
        for r in list(queue):
            if t > static_last_start(r):
                st.drop(r)
                queue.remove(r)
    for r in queue:
        st.drop(r)
    return st.to_dag(), st.drops


def check_matches_per_step_loop(ctx):
    """The same dag (rows, sites, starts) and the same drops, in the same
    order, as the per-step reference under every rule pair at queue
    capacities 1 and 10."""
    for rule in TaskRule:
        for site_rule in (None, SiteRule.BEST_QUALITY, SiteRule.BEST_PRIORITY):
            for cap in (1, 10):
                dag, drops = schedule_online_heuristic(ctx, rule, site_rule, cap)
                want, want_drops = per_step_online_heuristic(ctx, rule, site_rule, cap)
                case = (rule.value, site_rule, cap)
                assert np.array_equal(dag.rows, want.rows), case
                assert np.array_equal(dag.site, want.site), case
                assert np.array_equal(dag.start, want.start), case
                assert drops == want_drops, case


@pytest.mark.parametrize("horizon, seed", [(240, 0), (240, 1), (240, 2), (1440, 0)])
def test_online_heuristic_matches_the_per_step_loop_on_five_sites(horizon, seed):
    cfg = GenConfig(horizon_steps=horizon, num_sites=5, arrival_prob=0.10)
    check_matches_per_step_loop(SchedulingContext(generate_scenario(cfg, seed)))


@pytest.mark.parametrize("rule", [TaskRule.FCFS, TaskRule.STF, TaskRule.EDD])
def test_online_simulator_matches_independent_oracle(rule):
    cfg = GenConfig(horizon_steps=90, arrival_prob=0.3, mode_exposure_count_frac=0.5)
    for seed in (3, 11):
        s = generate_scenario(cfg, seed)
        if len(s.tasks) < 10:
            continue
        ctx = SchedulingContext(s)
        dag, drops = schedule_online_heuristic(ctx, rule, None, 10)
        got = {t: (int(dag.site[i]), int(dag.start[i])) for i, t in enumerate(dag.task_ids)}
        want, want_drops = _independent_online_sim(s, ctx, rule)
        assert got == want
        assert set(drops) == want_drops


class TestOffline:
    def test_disjoint_tasks_all_on_time(self):
        s = toy_scenario([(0, 5, U), (10, 5, U), (20, 5, U)])
        dag, drops = schedule_offline_stf(SchedulingContext(s))
        assert drops == []
        assert average_slowdown(dag) == pytest.approx(1.0)

    def test_two_task_contention_matches_online_stf(self):
        s = toy_scenario([(0, 5, U), (0, 5, U)])
        off, _ = schedule_offline_stf(SchedulingContext(s))
        on, _ = schedule_online_heuristic(SchedulingContext(s), TaskRule.STF)
        assert off == on

    def test_offline_usually_beats_online_fcfs(self):
        cfg = GenConfig(horizon_steps=90, arrival_prob=0.25, mode_exposure_count_frac=0.0)
        wins = ties = comparable = 0
        for seed in range(40):
            s = generate_scenario(cfg, seed)
            if not s.tasks:
                continue
            ctx = SchedulingContext(s)
            off, _ = schedule_offline_stf(ctx)
            on, _ = schedule_online_heuristic(ctx, TaskRule.FCFS, None)
            if not len(off.rows) or not len(on.rows):
                continue
            comparable += 1
            if average_slowdown(off) < average_slowdown(on) - 1e-9:
                wins += 1
            elif abs(average_slowdown(off) - average_slowdown(on)) <= 1e-9:
                ties += 1
        assert comparable >= 30
        assert (wins + ties) / comparable >= 0.9


class TestBruteForce:
    def test_single_task(self):
        s = toy_scenario([(4, 6, U)])
        dag = brute_force_optimal(SchedulingContext(s))
        assert int(dag.start[0]) == 4

    def test_two_symmetric_contenders(self):
        s = toy_scenario([(0, 5, U), (0, 5, U)])
        dag = brute_force_optimal(SchedulingContext(s))
        assert total_slowdown(dag) == pytest.approx(3.0)  # 1 + 2

    def test_unique_optimum_at_a_later_window_opening(self):
        # site 1 lies 10 deg west, so its windows open 40 steps later.  Task
        # 0 (due by 36) fits on site 0 only from its opening at 6; task 1,
        # on the same filter, then fits on site 0 neither before it nor
        # after it, and waits for its window on site 1 to open at 42: not
        # its arrival, not its earliest fit (site 0, step 3) and no task's
        # completion
        ctx = transit_context([(0, 30, U, 36), (0, 10, U)], (25, 22), n_sites=2, west_deg=10.0)
        assert [int(np.argmax(visible_steps(ctx.scenario, ctx.constraints)[1, s])) for s in (0, 1)] == [3, 42]
        dag = brute_force_optimal(ctx)
        fh = io.StringIO()
        dump_schedule(dag, fh)
        assert fh.getvalue() == (
            '{"task_id": 0, "site": 0, "start": 6, "slowdown": 1.2}\n'
            '{"task_id": 1, "site": 1, "start": 42, "slowdown": 5.2}\n'
        )
        assert total_slowdown(dag) == pytest.approx(6.4)
        assert dag.parents[dag.node_of_task[1]] == (1,) and validate(dag) == []

    def test_infeasible_instance_raises(self):
        # two tasks, same filter, both must finish by step 5
        s = toy_scenario([(0, 5, U, 5), (0, 5, U, 5)])
        with pytest.raises(ValueError, match="no feasible schedule"):
            brute_force_optimal(SchedulingContext(s))

    def test_too_many_tasks_guarded(self):
        s = toy_scenario([(0, 2, U)] * 7)
        with pytest.raises(ValueError, match="limited"):
            brute_force_optimal(SchedulingContext(s))

    def test_oracle_dominates_heuristics_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(15):
            n = int(rng.integers(2, 6))
            specs = [
                (
                    int(rng.integers(0, 20)),
                    int(rng.integers(1, 7)),
                    tuple(rng.random(3) < 0.5) if rng.random() < 0.7 else U,
                )
                for _ in range(n)
            ]
            specs = [(a, e, rho if any(rho) else U) for a, e, rho in specs]
            s = toy_scenario(specs)
            ctx = SchedulingContext(s)
            opt = brute_force_optimal(ctx)
            assert validate(opt) == []
            assert len(opt.rows) == n
            for rule in TaskRule:
                dag, drops = schedule_online_heuristic(ctx, rule, None)
                if drops or len(dag.rows) < n:
                    continue
                assert total_slowdown(opt) <= total_slowdown(dag) + 1e-9

    def test_stf_equals_classic_sjf_and_minimizes_completion(self):
        """Single filter, all arrivals at 0, no deadlines: STF runs jobs in
        exposure order, the schedule that minimizes total completion time
        over all permutations (checked by enumeration)."""
        from itertools import permutations

        rng = np.random.default_rng(1)
        for trial in range(5):
            exps = [int(e) for e in rng.integers(1, 9, size=5)]
            s = toy_scenario([(0, e, U) for e in exps])
            dag, drops = schedule_online_heuristic(SchedulingContext(s), TaskRule.STF, None)
            assert not drops
            # STF ordering == sorted by (exposure, id)
            order = [t for _, t in sorted(zip(dag.start, dag.task_ids))]
            assert order == sorted(range(5), key=lambda i: (exps[i], i))
            total_completion = sum(
                int(b) + e for b, e in zip(dag.start, np.array(exps)[dag.rows])
            )
            best = min(
                sum(np.cumsum([exps[i] for i in perm]))
                for perm in permutations(range(5))
            )
            assert total_completion == best


class TestBruteForcePin:
    """The exhaustive oracle over a fixed sweep of generated scenarios of
    one to six tasks on one to three sites, cadence siblings included: the
    hash covers each instance's schedule dump or its error text.  It was
    recorded before the oracle committed through the shared placement
    state, so any change to its candidates, bound or commits shows here."""

    SEEDS = 300
    EXPECTED = (149, 28, "2153c6847d6f761ec5854c91c17aaec64f2f53bfe2c24655d3534d15b3f54852")

    @staticmethod
    def gen(n_sites: int) -> GenConfig:
        return GenConfig(
            horizon_steps=40, arrival_prob=0.08, duration_long_frac=0.3,
            duration_short_range=(6, 20), duration_long_range=(21, 40),
            exposure_long_range=(4, 8), exposure_short_range=(1, 3),
            cadence_gap_range=(1, 6), num_fields=12, num_sites=n_sites,
        )

    def test_oracle_sweep_sha256(self):
        digest = hashlib.sha256()
        cases = infeasible = 0
        for seed in range(self.SEEDS):
            s = generate_scenario(self.gen(1 + seed % 3), seed)
            if not 1 <= len(s.tasks) <= 6:
                continue
            cases += 1
            fh = io.StringIO()
            try:
                dump_schedule(brute_force_optimal(SchedulingContext(s)), fh)
            except ValueError as exc:
                infeasible += 1
                fh.write(f"error: {exc}\n")
            digest.update(f"{seed}\n{fh.getvalue()}".encode())
        assert (cases, infeasible, digest.hexdigest()) == self.EXPECTED


class TestRegressionPin:
    """Fixed schedules on one generated five-site scenario.

    The hashes were recorded before the placement code was consolidated
    into SchedulingContext and the placement state; any change to placement,
    release, window or commit logic that moves a single start shows here.
    """

    GEN = GenConfig(horizon_steps=60, arrival_prob=0.25, mode_exposure_count_frac=0.0, num_sites=5)
    SEED = 3
    EXPECTED = {
        "fcfs": "474455a8af01a121c3b9f82c2917938d4ce7c3629832109973d1a3b870e7d09b",
        "stf:quality": "20237e9dc7d2ea714d5b2f62cfbad00dffd071e32e584dc1b31e811b639d4577",
        "offline-stf": "bb4192b39d0ae5212985bc926dee23029a6ed9bce4ff25b0507d483d60b1a0e6",
        "fcfs-list": "67607b08825f981ba7d4ee332b94c3177b981c1a609dec406c5b84e0a38fe40b",
        "roars": "67607b08825f981ba7d4ee332b94c3177b981c1a609dec406c5b84e0a38fe40b",
    }
    #: the learned loop's freeze/queue audit trail on the same scenario
    ROARS_AUDIT = "bbcd91d23ec52440af99076709513749131a8fd26886cec1553366221e39aa97"

    @staticmethod
    def _sha(dag) -> str:
        fh = io.StringIO()
        dump_schedule(dag, fh)
        return hashlib.sha256(fh.getvalue().encode()).hexdigest()

    @pytest.mark.parametrize("name", ["fcfs", "stf:quality", "offline-stf", "fcfs-list", "roars"])
    def test_schedule_dump_sha256(self, name):
        from obsched.cli import run_online
        from obsched.policy import PolicyConfig, PolicyNet

        s = generate_scenario(self.GEN, self.SEED)
        audit: list = []
        if name == "fcfs-list":
            dag, _ = schedule_fcfs_list(SchedulingContext(s))
        elif name == "roars":
            net = PolicyNet(PolicyConfig(hidden=8, n_filters=3, n_sites=5), seed=0)
            dag, _ = run_online(s, "roars", net=net, audit=audit)
            assert hashlib.sha256(repr(audit).encode()).hexdigest() == self.ROARS_AUDIT
        else:
            dag, _ = run_online(s, name)
        assert validate(dag) == []
        assert self._sha(dag) == self.EXPECTED[name]


def test_online_replan_reuses_the_last_replan_dag(monkeypatch):
    """On TestRegressionPin's scenario, a re-plan with no placement since
    the previous one starts from that re-plan's dag object, and the loop
    freezes a new dag only after a placement."""
    from obsched import cli
    from obsched.policy import PolicyConfig, PolicyNet
    from obsched.schedule import Placement

    log: list[tuple] = []
    place, to_dag, search = Placement.place, Placement.to_dag, cli.rewrite_search

    def logged_place(self, *args, **kwargs):
        log.append(("place",))
        return place(self, *args, **kwargs)

    def logged_to_dag(self):
        dag = to_dag(self)
        log.append(("build", dag))
        return dag

    def logged_search(dag0, *args, **kwargs):
        log.append(("replan", dag0))
        best, traj = search(dag0, *args, **kwargs)
        log.append(("best", best))
        return best, traj

    monkeypatch.setattr(Placement, "place", logged_place)
    monkeypatch.setattr(Placement, "to_dag", logged_to_dag)
    monkeypatch.setattr(cli, "rewrite_search", logged_search)
    s = generate_scenario(TestRegressionPin.GEN, TestRegressionPin.SEED)
    net = PolicyNet(PolicyConfig(hidden=8, n_filters=3, n_sites=5), seed=0)
    dag, _ = cli.run_online(s, "roars", net=net)
    log.append(("end", dag))

    last = None  # the previous re-plan's result
    placed, built = True, []  # since that re-plan, outside rewrite_search
    reused = rebuilt = 0
    depth = 0
    for entry in log:
        if entry[0] == "place":
            placed = True
        elif entry[0] == "build" and depth == 0:
            built.append(entry[1])
        elif entry[0] in ("replan", "end"):
            if placed:
                assert len(built) == 1 and entry[1] is built[0]
                rebuilt += 1
            else:
                assert built == [] and entry[1] is last
                reused += 1
            depth += entry[0] == "replan"
            placed, built = False, []
        elif entry[0] == "best":
            last = entry[1]
            depth -= 1
    assert reused > 0 and rebuilt > 0
    assert TestRegressionPin._sha(dag) == TestRegressionPin.EXPECTED["roars"]
