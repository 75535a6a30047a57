"""Single rewrite-step semantics, repair, and the search loop."""
import hashlib
import io

import numpy as np
import pytest

import obsched.cli as cli
from conftest import G, I, U, UG, toy_scenario
from obsched.heuristics import brute_force_optimal, schedule_fcfs_list
from obsched.policy import PolicyConfig, PolicyNet
from obsched.rewriter import (
    RandomPolicy,
    RewriteAction,
    SearchConfig,
    candidate_parents,
    candidate_regions,
    dump_trajectory,
    rewrite_search,
    rewrite_step,
)
from obsched.scenario import GenConfig, generate_scenario
from obsched.schedule import (
    Assignment,
    SchedulingContext,
    build_dag,
    dump_schedule,
    total_slowdown,
    validate,
)


def build(scenario, triples):
    return build_dag(SchedulingContext(scenario), [Assignment(t, s, b) for t, s, b in triples])


class TestCandidates:
    def test_empty_schedule(self):
        s = toy_scenario([(0, 5, U)])
        dag = build(s, [])
        assert candidate_regions(dag) == []

    def test_all_tasks_never_roots(self):
        s = toy_scenario([(0, 5, U), (0, 5, G), (0, 5, I)], n_sites=2)
        dag = build(s, [(0, 0, 0), (1, 1, 0), (2, 0, 0)])
        assert candidate_regions(dag) == [0, 1, 2]
        parents = candidate_parents(dag, 1)
        assert ("root", 0) in parents and ("root", 1) in parents
        assert ("task", 1) not in parents
        assert ("task", 0) in parents and ("task", 2) in parents

    def test_frozen_tasks_excluded(self):
        s = toy_scenario([(0, 5, U), (0, 5, G)])
        dag = build(s, [(0, 0, 0), (1, 0, 0)])
        assert candidate_regions(dag, frozenset({0})) == [1]


class TestRewriteStepGuards:
    def test_parent_completing_before_arrival_is_noop(self):
        s = toy_scenario([(0, 2, U), (30, 5, G)])
        dag = build(s, [(0, 0, 0), (1, 0, 30)])
        # C_parent = 2 < A_region = 30
        out, status = rewrite_step(dag, RewriteAction(region=1, parent_task=0))
        assert status == "noop" and out is dag

    def test_parent_completion_equal_to_start_is_noop(self):
        s = toy_scenario([(0, 5, U), (0, 5, U)])
        dag = build(s, [(0, 0, 0), (1, 0, 5)])
        out, status = rewrite_step(dag, RewriteAction(region=1, parent_task=0))
        assert status == "noop" and out is dag

    def test_root_parent_at_arrival_is_noop(self):
        s = toy_scenario([(0, 5, U)])
        dag = build(s, [(0, 0, 0)])
        out, status = rewrite_step(dag, RewriteAction(region=0, parent_task=None, parent_site=0))
        assert status == "noop" and out is dag

    def test_self_parent_forbidden(self):
        with pytest.raises(ValueError):
            RewriteAction(region=1, parent_task=1)


class TestRewriteStepApplied:
    def test_left_shift_to_root(self):
        # task 1 sits at 10 with the slot [5,10) idle; moving it under the
        # root snaps it to its arrival
        s = toy_scenario([(0, 5, U), (5, 5, U)])
        dag = build(s, [(0, 0, 0), (1, 0, 10)])
        out, status = rewrite_step(dag, RewriteAction(region=1, parent_task=None, parent_site=0))
        assert status == "applied"
        assert int(out.start[out.node_of_task[1] - out.n_sites]) == 5
        assert validate(out) == []
        assert total_slowdown(dag) - total_slowdown(out) == pytest.approx(1.0)

    def test_reparent_under_task(self):
        s = toy_scenario([(0, 5, U), (5, 5, U)])
        dag = build(s, [(0, 0, 0), (1, 0, 10)])
        out, status = rewrite_step(dag, RewriteAction(region=1, parent_task=0))
        assert status == "applied"
        n1 = out.node_of_task[1]
        assert int(out.start[n1 - out.n_sites]) == 5  # C_parent
        assert out.node_of_task[0] in out.parents[n1]

    def test_three_task_displacement_hand_simulated(self):
        """Move task 2 (A=3) to its arrival; tasks 0 and 1 overlap the new
        interval [3,8) and are greedily re-placed at 8 and 13."""
        s = toy_scenario([(0, 5, U), (0, 5, U), (3, 5, U)])
        dag = build(s, [(0, 0, 0), (1, 0, 5), (2, 0, 10)])
        out, status = rewrite_step(dag, RewriteAction(region=2, parent_task=None, parent_site=0))
        assert status == "applied"
        starts = {t: int(out.start[out.node_of_task[t] - out.n_sites]) for t in (0, 1, 2)}
        assert starts == {2: 3, 0: 8, 1: 13}
        assert validate(out) == []
        # eta: (8-3)/5, (13-0)/5, (18-0)/5
        assert total_slowdown(out) == pytest.approx(1.0 + 2.6 + 3.6)

    def test_untouched_tasks_keep_their_times(self):
        s = toy_scenario([(0, 5, U), (5, 5, U), (0, 4, G)])
        dag = build(s, [(0, 0, 0), (1, 0, 10), (2, 0, 0)])
        out, status = rewrite_step(dag, RewriteAction(region=1, parent_task=0))
        assert status == "applied"
        n2 = out.node_of_task[2] - out.n_sites
        assert int(out.start[n2]) == 0  # different filter, not displaced... stays

    def test_rejected_when_displaced_task_cannot_fit(self):
        # two tight-deadline tasks: re-placing the displaced one would miss
        # its deadline, so the whole rewrite is a no-op with a flag
        s = toy_scenario([(0, 5, U, 10), (5, 5, U, 10)])
        dag = build(s, [(0, 0, 0), (1, 0, 5)])
        out, status = rewrite_step(dag, RewriteAction(region=1, parent_task=None, parent_site=0))
        # moving task1 to its arrival (5) equals its current start: noop guard;
        # move task0 under task1 instead: B0' = 10 > deadline-5: rejected
        out, status = rewrite_step(dag, RewriteAction(region=0, parent_task=1))
        assert status == "rejected" and out is dag

    def test_frozen_region_rejected(self):
        s = toy_scenario([(0, 5, U), (5, 5, U)])
        dag = build(s, [(0, 0, 0), (1, 0, 10)])
        out, status = rewrite_step(
            dag, RewriteAction(region=1, parent_task=None, parent_site=0), frozen=frozenset({1})
        )
        assert status == "rejected" and out is dag

    def test_distributed_reparent_moves_site(self):
        s = toy_scenario([(0, 5, U), (0, 5, U)], n_sites=2)
        dag = build(s, [(0, 0, 0), (1, 0, 5)])
        out, status = rewrite_step(dag, RewriteAction(region=1, parent_task=None, parent_site=1))
        assert status == "applied"
        i1 = out.node_of_task[1] - out.n_sites
        assert int(out.site[i1]) == 1 and int(out.start[i1]) == 0
        assert validate(out) == []

    def test_cadence_chain_repair(self):
        # siblings with a 5-step gap; shifting the first one later pushes the
        # second past its release, and the repair must move it too
        s = toy_scenario(
            [(0, 5, U, None, "t"), (10, 5, U, None, "t"), (0, 5, G)],
            cadence_gaps={"t": 5},
        )
        dag = build(s, [(0, 0, 0), (1, 0, 10), (2, 0, 0)])
        # move task 0 under task 2's completion (B0' = 5): release of task 1
        # becomes 5 + 5 + 5 = 15 > 10, so task 1 must shift to 15
        out, status = rewrite_step(dag, RewriteAction(region=0, parent_task=2))
        assert status == "applied"
        starts = {t: int(out.start[out.node_of_task[t] - out.n_sites]) for t in (0, 1)}
        assert starts == {0: 5, 1: 15}
        assert validate(out) == []

    def test_determinism(self):
        s = toy_scenario([(0, 5, U), (0, 5, U), (3, 5, U)])
        dag = build(s, [(0, 0, 0), (1, 0, 5), (2, 0, 10)])
        a1, st1 = rewrite_step(dag, RewriteAction(region=2, parent_task=None, parent_site=0))
        a2, st2 = rewrite_step(dag, RewriteAction(region=2, parent_task=None, parent_site=0))
        assert st1 == st2 and a1 == a2


class TestNowFloor:
    """``now`` floors every task outside ``frozen``: an online re-plan at
    step ``now`` never starts a task in the past."""

    def _start(self, dag, tid):
        return int(dag.start[dag.node_of_task[tid] - dag.n_sites])

    def test_root_move_stops_at_now(self):
        s = toy_scenario([(0, 5, U)])
        dag = build(s, [(0, 0, 20)])
        action = RewriteAction(region=0, parent_task=None, parent_site=0)
        assert self._start(rewrite_step(dag, action)[0], 0) == 0
        out, status = rewrite_step(dag, action, now=10)
        assert status == "applied" and self._start(out, 0) == 10

    def test_displaced_task_is_repaired_at_or_after_now(self):
        s = toy_scenario([(0, 5, U), (11, 5, U)])
        dag = build(s, [(0, 0, 12), (1, 0, 30)])
        action = RewriteAction(region=1, parent_task=None, parent_site=0)
        past, _ = rewrite_step(dag, action)
        assert self._start(past, 0) == 0  # the repair the floor rules out
        out, status = rewrite_step(dag, action, now=12)
        assert status == "applied"
        assert (self._start(out, 1), self._start(out, 0)) == (12, 17)
        assert validate(out) == []

    def test_frozen_task_before_now_stays_put(self):
        s = toy_scenario([(0, 5, U), (0, 5, G), (2, 5, G, None, 1)], cadence_gaps={1: 3})
        dag = build(s, [(0, 0, 0), (1, 0, 1), (2, 0, 20)])
        out, status = rewrite_step(
            dag, RewriteAction(region=2, parent_task=None, parent_site=0), frozenset({0, 1}), now=10
        )
        assert status == "applied"
        assert [self._start(out, t) for t in (0, 1, 2)] == [0, 1, 10]

    def test_online_replan_states(self, monkeypatch):
        """The re-plan inputs of a learned online run: no root move from any
        of them starts an unfrozen task before the re-plan step."""
        gen = GenConfig(horizon_steps=240, arrival_prob=0.10, mode_exposure_count_frac=0.0, num_sites=5)
        net = PolicyNet(PolicyConfig(hidden=64, n_filters=3, n_sites=5, distributed=True), seed=0)
        audit, states = [], []
        search = cli.rewrite_search

        def spy(dag, *args, **kw):
            states.append((dag, kw["frozen"], audit[-1][1]))  # this step's "waiting" entry
            return search(dag, *args, **kw)

        monkeypatch.setattr(cli, "rewrite_search", spy)
        cli.run_online(generate_scenario(gen, 1), "roars", 10, net=net, replan_steps=30, audit=audit)
        applied = 0
        for dag, frozen, t in states[:40]:
            for tid in candidate_regions(dag, frozen):
                assert self._start(dag, tid) >= t
                for site in range(dag.n_sites):
                    out, status = rewrite_step(dag, RewriteAction(tid, None, site), frozen, now=t)
                    if status == "applied":
                        applied += 1
                        assert min(self._start(out, u) for u in candidate_regions(out, frozen)) >= t
        assert applied > 0


class TestRewritePin:
    """Seeded chains of uniform random rewrites, pinned by hash.

    Each chain starts from the FCFS-list schedule of a generated scenario
    and applies ``STEPS`` random (region, parent) actions in turn: the
    first third with no floor, the second with ``now`` at a quarter of the
    horizon and every task that starts before it frozen, the last with
    ``now`` at half the horizon and every fifth task id frozen as well.
    The hash covers each step's status and the schedule dump after it, so
    any change to the move, the repair or the cadence fix-up shows here.
    """

    STEPS = 400
    CASES = [
        ("intra-1site", GenConfig(horizon_steps=240, arrival_prob=0.10, mode_exposure_count_frac=0.0, num_sites=1), 1),
        ("dist-5site", GenConfig(horizon_steps=60, arrival_prob=0.25, mode_exposure_count_frac=0.0, num_sites=5), 2),
        ("mixed-2site", GenConfig(horizon_steps=120, arrival_prob=0.15, num_sites=2), 2),
    ]
    EXPECTED = {
        "intra-1site": "1f951efe51a5ed5ae12376e9ff5a0e95b7afd23be4e8c83af7342e451572f79f",
        "dist-5site": "619dee6397f1dc6fd8cdd9288a77cec8e1e52750c7d4f9ac606b70095c299a19",
        "mixed-2site": "59352ed086cc528bb3b7fb3d906c435e192764a123d94c013fa8e34fdf9b4dfa",
    }

    def _chain(self, gen, seed):
        dag, _ = schedule_fcfs_list(SchedulingContext(generate_scenario(gen, seed)))
        rng = np.random.default_rng(seed)
        policy = RandomPolicy()
        digest = hashlib.sha256()
        applied = 0
        for step in range(self.STEPS):
            phase = step * 3 // self.STEPS
            now = phase * gen.horizon_steps // 4
            frozen = frozenset(
                tid
                for tid, b in zip(dag.task_ids, dag.start.tolist())
                if b < now or (phase == 2 and tid % 5 == 0)
            )
            region = policy.pick_region(dag, candidate_regions(dag, frozen), rng)
            parent = policy.pick_rule(dag, region, candidate_parents(dag, region), rng)
            if parent[0] == "root":
                action = RewriteAction(region, None, parent[1])
            else:
                action = RewriteAction(region, parent[1])
            out, status = rewrite_step(dag, action, frozen, now)
            if status == "applied":
                applied += 1
                assert validate(out) == []
            else:
                assert out is dag
            fh = io.StringIO()
            dump_schedule(out, fh)
            digest.update(f"{status}\n{fh.getvalue()}".encode())
            dag = out
        return digest.hexdigest(), applied

    def test_chain_sha256(self):
        total_applied = 0
        for name, gen, seed in self.CASES:
            sha, applied = self._chain(gen, seed)
            assert sha == self.EXPECTED[name], name
            total_applied += applied
        assert total_applied >= 50

class TestSearch:
    def test_zero_steps_returns_input(self):
        s = toy_scenario([(0, 5, U), (5, 5, U)])
        dag = build(s, [(0, 0, 0), (1, 0, 10)])
        best, traj = rewrite_search(dag, RandomPolicy(), SearchConfig(num_steps=0), np.random.default_rng(0))
        assert best is dag and traj == []

    def test_best_never_worse_than_initial(self):
        s = toy_scenario([(0, 5, U), (0, 5, U), (3, 5, U), (1, 3, G)])
        dag = build(s, [(0, 0, 0), (1, 0, 5), (2, 0, 10), (3, 0, 1)])
        for seed in range(5):
            best, traj = rewrite_search(
                dag, RandomPolicy(), SearchConfig(num_steps=60), np.random.default_rng(seed)
            )
            assert total_slowdown(best) <= total_slowdown(dag) + 1e-12

    def test_best_tracking_is_running_minimum(self):
        s = toy_scenario([(0, 5, U), (0, 5, U), (3, 5, U)])
        dag = build(s, [(0, 0, 0), (1, 0, 5), (2, 0, 10)])
        best, traj = rewrite_search(
            dag, RandomPolicy(), SearchConfig(num_steps=80), np.random.default_rng(7)
        )
        running = total_slowdown(dag)
        for step in traj:
            running = min(running, step.cost_after)
        assert total_slowdown(best) == pytest.approx(running)

    def test_every_visited_state_is_feasible(self):
        s = toy_scenario(
            [(0, 5, U), (0, 5, U), (3, 5, UG), (1, 3, G), (2, 4, I)],
        )
        dag = build(s, [(0, 0, 0), (1, 0, 5), (2, 0, 10), (3, 0, 1), (4, 0, 2)])
        _, traj = rewrite_search(
            dag, RandomPolicy(), SearchConfig(num_steps=120), np.random.default_rng(3)
        )
        seen = {id(dag)}
        for step in traj:
            if id(step.dag) not in seen:
                assert validate(step.dag) == []
                seen.add(id(step.dag))

    def test_search_determinism(self):
        s = toy_scenario([(0, 5, U), (0, 5, U), (3, 5, U)])
        dag = build(s, [(0, 0, 0), (1, 0, 5), (2, 0, 10)])
        b1, t1 = rewrite_search(dag, RandomPolicy(), SearchConfig(num_steps=50), np.random.default_rng(5))
        b2, t2 = rewrite_search(dag, RandomPolicy(), SearchConfig(num_steps=50), np.random.default_rng(5))
        assert b1 == b2
        assert [s.action for s in t1] == [s.action for s in t2]

    def test_random_search_approaches_oracle_on_small_instances(self):
        rng = np.random.default_rng(42)
        total_best, total_opt = 0.0, 0.0
        for trial in range(20):
            n = int(rng.integers(3, 6))
            specs = []
            for _ in range(n):
                rho = tuple(rng.random(3) < 0.4)
                specs.append(
                    (int(rng.integers(0, 20)), int(rng.integers(1, 7)), rho if any(rho) else U)
                )
            s = toy_scenario(specs)
            opt = brute_force_optimal(SchedulingContext(s))
            from obsched.heuristics import TaskRule, schedule_online_heuristic

            init, drops = schedule_online_heuristic(SchedulingContext(s), TaskRule.FCFS, None)
            assert not drops
            best = init
            for restart in range(10):
                cand, _ = rewrite_search(
                    init, RandomPolicy(), SearchConfig(num_steps=100),
                    np.random.default_rng(1000 * trial + restart),
                )
                if total_slowdown(cand) < total_slowdown(best):
                    best = cand
            total_best += total_slowdown(best)
            total_opt += total_slowdown(opt)
        assert total_best <= 1.10 * total_opt

    def test_trajectory_dump_format(self, tmp_path):
        import json

        s = toy_scenario([(0, 5, U), (0, 5, U)])
        dag = build(s, [(0, 0, 0), (1, 0, 5)])
        _, traj = rewrite_search(dag, RandomPolicy(), SearchConfig(num_steps=10), np.random.default_rng(0))
        path = tmp_path / "traj.jsonl"
        with open(path, "w") as fh:
            dump_trajectory(traj, fh)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 10
        assert set(lines[0]) == {"step", "region", "rule", "cost_before", "cost_after", "rejected"}

    def test_pc_schedule(self):
        cfg = SearchConfig()
        assert cfg.pc_at(0) == pytest.approx(0.5)
        assert cfg.pc_at(3000) == pytest.approx(0.5 * 0.8**3)
        assert cfg.pc_at(10 ** 7) == pytest.approx(0.01)
