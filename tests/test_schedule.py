"""DAG construction, edge rules, validation, slowdown arithmetic, and
task embeddings."""
from dataclasses import replace

import numpy as np
import pytest

from conftest import EPOCH, G, I, U, UG, toy_scenario, visible_steps
from obsched.ephemeris import SkyCoord, VisibilityConstraints, local_sidereal_time
from obsched.scenario import GenConfig, generate_scenario
from obsched.schedule import (
    Assignment,
    InfeasibleAssignmentError,
    ScheduleDag,
    SchedulingContext,
    average_slowdown,
    build_dag,
    embedding_length,
    embedding_matrix,
    total_slowdown,
    validate,
)


def build(scenario, triples):
    return build_dag(SchedulingContext(scenario), [Assignment(t, s, b) for t, s, b in triples])


def extract_assignments(dag):
    return [
        Assignment(int(dag.ctx.task_id[r]), int(s), int(b))
        for r, s, b in zip(dag.rows, dag.site, dag.start)
    ]


def immediate_cost(dag_before, dag_after):
    """The reward of one rewrite: total slowdown before minus after, over
    the same task set."""
    if sorted(dag_before.task_ids) != sorted(dag_after.task_ids):
        raise ValueError("immediate cost requires identical task sets")
    return total_slowdown(dag_before) - total_slowdown(dag_after)


def _run_lengths(vis: np.ndarray) -> np.ndarray:
    """Per step, how many consecutive steps from it on are visible,
    counted one step at a time from the end of the horizon."""
    out = np.zeros(vis.shape[:-1] + (vis.shape[-1] + 1,), dtype=np.int64)
    for t in range(vis.shape[-1] - 1, -1, -1):
        out[..., t] = np.where(vis[..., t], out[..., t + 1] + 1, 0)
    return out[..., :-1]


def _transit_context(task_specs, transits, n_sites=1) -> SchedulingContext:
    """``toy_scenario`` with target ``k`` moved to transit site 0 at step
    ``transits[k]``, seen above 85 deg only: an equatorial target seen from
    the equator stands at 90 - |hour angle| deg, so it is visible for the
    ~40 steps around its transit."""
    s = toy_scenario(task_specs, n_sites=n_sites)
    targets = tuple(
        replace(t, coord=SkyCoord(local_sidereal_time(EPOCH, b, s.sites[0].coord), 0.0))
        for t, b in zip(s.targets, transits)
    )
    return SchedulingContext(replace(s, targets=targets), VisibilityConstraints(min_altitude_deg=85.0))


class TestRunLeft:
    """``SchedulingContext.run_left`` against a step-by-step count over the
    ephemeris' own visibility masks."""

    def check(self, ctx):
        want = _run_lengths(visible_steps(ctx.scenario, ctx.constraints))
        assert ctx.run_left.dtype == np.int32
        assert ctx.run_left.shape == want.shape
        assert np.array_equal(ctx.run_left, want)
        return want

    @pytest.mark.parametrize(
        "num_sites, horizon, seed", [(1, 240, 0), (1, 240, 1), (5, 240, 2), (5, 1440, 3)]
    )
    def test_generated_scenarios(self, num_sites, horizon, seed):
        s = generate_scenario(GenConfig(horizon_steps=horizon, num_sites=num_sites), seed)
        assert self.check(SchedulingContext(s)).any()

    def test_windows_touching_both_ends_of_the_horizon(self):
        # transits before, on the first, inside, on the last and after the
        # 60-step horizon
        ctx = _transit_context([(0, 5, U, None, k) for k in range(5)], (-25, 0, 30, 59, 85), 2)
        want = self.check(ctx)
        assert want[:, :, 0].any() and want[:, :, -1].any()  # runs reach both ends
        assert (want[:, :, 1:] > want[:, :, :-1]).any()  # and some open inside
        assert not want[0].any() and not want[4].any()


class TestBuildAndEdges:
    def test_three_on_time_tasks_form_a_star(self, three_task_scenario):
        dag = build(three_task_scenario, [(0, 0, 5), (1, 0, 5), (2, 0, 5)])
        # every node hangs off the single root; total slowdown 3 * 1
        assert all(dag.parents[n] == (0,) for n in range(1, 4))
        assert total_slowdown(dag) == pytest.approx(3.0)
        assert average_slowdown(dag) == pytest.approx(1.0)

    def test_completion_edge_without_root_edge(self):
        s = toy_scenario([(0, 10, U), (0, 5, U)])
        # task 1 waits for task 0's filter: starts exactly at C_0 = 10
        dag = build(s, [(0, 0, 0), (1, 0, 10)])
        n0, n1 = dag.node_of_task[0], dag.node_of_task[1]
        assert dag.parents[n0] == (0,)
        assert dag.parents[n1] == (n0,)  # no root edge: B != A

    def test_both_edges_when_start_equals_arrival_and_completion(self):
        s = toy_scenario([(0, 10, U), (10, 5, G)])
        dag = build(s, [(0, 0, 0), (1, 0, 10)])
        n0, n1 = dag.node_of_task[0], dag.node_of_task[1]
        assert set(dag.parents[n1]) == {0, n0}

    def test_root_edge_where_a_later_window_opens(self):
        # task 1 arrives at 0 but its target is first visible at 11, when
        # task 0 (visible from 1) completes: it hangs off both
        ctx = _transit_context([(1, 10, U), (0, 5, G)], (20, 30))
        assert ctx.run_left[0, 0, 1] >= 10 and ctx.run_left[1, 0, 10] == 0 < ctx.run_left[1, 0, 11]
        dag = build_dag(ctx, [Assignment(0, 0, 1), Assignment(1, 0, 11)])
        assert dag.parents[dag.node_of_task[1]] == (0, dag.node_of_task[0])
        assert validate(dag) == []

    def test_resource_conflict_rejected(self):
        s = toy_scenario([(0, 10, U), (0, 5, U)])
        with pytest.raises(InfeasibleAssignmentError, match="resource"):
            build(s, [(0, 0, 0), (1, 0, 5)])

    def test_different_filters_overlap_freely(self):
        s = toy_scenario([(0, 10, U), (0, 10, G), (0, 10, I)])
        dag = build(s, [(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        assert total_slowdown(dag) == pytest.approx(3.0)

    def test_multiband_task_occupies_all_its_filters(self):
        s = toy_scenario([(0, 10, UG), (0, 10, G)])
        with pytest.raises(InfeasibleAssignmentError, match="resource"):
            build(s, [(0, 0, 0), (1, 0, 5)])

    def test_arrival_violation(self):
        s = toy_scenario([(10, 5, U)])
        with pytest.raises(InfeasibleAssignmentError, match="arrival"):
            build(s, [(0, 0, 9)])

    def test_deadline_violation(self):
        s = toy_scenario([(0, 10, U, 30)])
        with pytest.raises(InfeasibleAssignmentError, match="deadline"):
            build(s, [(0, 0, 21)])

    def test_cadence_sibling_violation(self):
        s = toy_scenario(
            [(0, 5, U, None, "t"), (15, 5, U, None, "t")], cadence_gaps={"t": 10}
        )
        dag = build(s, [(0, 0, 0), (1, 0, 15)])  # release = 5 + 10 = 15: ok
        assert total_slowdown(dag) == pytest.approx(2.0)
        with pytest.raises(InfeasibleAssignmentError, match="cadence"):
            build(s, [(0, 0, 5), (1, 0, 15)])  # sibling release moved to 20

    def test_duplicate_assignment_rejected(self):
        s = toy_scenario([(0, 5, U)])
        with pytest.raises(ValueError):
            build(s, [(0, 0, 0), (0, 0, 10)])

    def test_lower_id_deadline_beats_higher_id_resource(self):
        s = toy_scenario([(0, 10, U, 30), (0, 10, G), (0, 10, G)])
        with pytest.raises(InfeasibleAssignmentError) as err:
            build(s, [(2, 0, 0), (1, 0, 5), (0, 0, 25)])
        assert str(err.value) == "infeasible assignment: deadline (task 0, site 0, step 25)"

    def test_resource_names_the_first_busy_step(self):
        # task 2 spans [3, 13) on u and g: g is busy from 8, u from 5
        s = toy_scenario([(0, 4, G), (0, 3, U), (0, 10, UG)])
        with pytest.raises(InfeasibleAssignmentError) as err:
            build(s, [(0, 0, 8), (1, 0, 5), (2, 0, 3)])
        assert str(err.value) == "infeasible assignment: resource (task 2, site 0, step 5)"

    def test_resource_is_checked_before_cadence(self):
        s = toy_scenario(
            [(0, 5, U), (0, 5, U, None, "t"), (10, 5, U, None, "t")], cadence_gaps={"t": 10}
        )
        with pytest.raises(InfeasibleAssignmentError) as err:
            build(s, [(0, 0, 10), (1, 0, 0), (2, 0, 12)])  # task 2: release 15, u busy at 12
        assert str(err.value) == "infeasible assignment: resource (task 2, site 0, step 12)"

    @pytest.mark.parametrize("bad_site", [-1, 2])
    def test_site_out_of_range_is_a_dependency_error(self, bad_site):
        s = toy_scenario([(0, 10, U), (0, 10, U)], n_sites=2)
        with pytest.raises(InfeasibleAssignmentError) as err:
            build(s, [(0, 1, 0), (1, bad_site, 0)])
        assert str(err.value) == f"infeasible assignment: dependency (task 1, site {bad_site}, step 0)"

    def test_build_extract_round_trip(self):
        s = toy_scenario([(0, 10, U), (0, 5, G), (7, 5, I), (0, 5, U)])
        dag = build(s, [(0, 0, 0), (1, 0, 0), (2, 0, 7), (3, 0, 10)])
        again = build_dag(dag.ctx, extract_assignments(dag))
        assert again == dag


class TestValidate:
    def test_constructor_output_is_clean(self, three_task_scenario):
        dag = build(three_task_scenario, [(0, 0, 5), (1, 0, 6), (2, 0, 7)])
        assert validate(dag) == []

    def test_injected_arrival_violation(self, three_task_scenario):
        dag = build(three_task_scenario, [(0, 0, 5), (1, 0, 5), (2, 0, 5)])
        hacked = ScheduleDag(
            dag.ctx, dag.rows, dag.site, dag.start.copy(), dag.eta, dag.parents, dag.profile
        )
        hacked.start[0] = 3  # before the arrival at 5
        kinds = {v.kind for v in validate(hacked)}
        assert "arrival" in kinds

    def test_injected_cycle(self, three_task_scenario):
        dag = build(three_task_scenario, [(0, 0, 5), (1, 0, 5), (2, 0, 5)])
        parents = list(dag.parents)
        parents[2] = (3,)
        parents[3] = (2,)  # 2 <-> 3
        hacked = ScheduleDag(
            dag.ctx, dag.rows, dag.site, dag.start, dag.eta, tuple(parents), dag.profile
        )
        kinds = {v.kind for v in validate(hacked)}
        assert "cycle" in kinds

    def test_injected_capacity_violation(self):
        s = toy_scenario([(0, 10, U), (0, 10, U)])
        dag = build(s, [(0, 0, 0), (1, 0, 10)])
        hacked = ScheduleDag(
            dag.ctx, dag.rows, dag.site, dag.start.copy(), dag.eta, dag.parents, dag.profile
        )
        hacked.start[1] = 5
        kinds = {v.kind for v in validate(hacked)}
        assert "resource" in kinds

    def test_edge_rule_rederivation(self, three_task_scenario):
        dag = build(three_task_scenario, [(0, 0, 5), (1, 0, 5), (2, 0, 5)])
        parents = list(dag.parents)
        parents[1] = (0, 2)  # fabricated extra edge
        hacked = ScheduleDag(
            dag.ctx, dag.rows, dag.site, dag.start, dag.eta, tuple(parents), dag.profile
        )
        kinds = {v.kind for v in validate(hacked)}
        assert "dependency" in kinds


class TestSlowdown:
    def test_on_time_task_has_unit_slowdown(self):
        s = toy_scenario([(10, 5, U)])
        dag = build(s, [(0, 0, 10)])
        assert average_slowdown(dag) == pytest.approx(1.0)

    def test_delayed_task_arithmetic(self):
        # A=10, E=5, B=20: eta = (25 - 10) / 5 = 3
        s = toy_scenario([(10, 5, U)])
        dag = build(s, [(0, 0, 20)])
        assert average_slowdown(dag) == pytest.approx(3.0)

    def test_slowdown_homogeneous_in_exposure_scale(self):
        # doubling E with A and the delay-to-exposure ratio fixed keeps eta
        s1 = toy_scenario([(10, 5, U)])
        s2 = toy_scenario([(20, 10, U)])
        d1 = build(s1, [(0, 0, 15)])
        d2 = build(s2, [(0, 0, 30)])
        assert average_slowdown(d1) == pytest.approx(average_slowdown(d2))

    def test_relabeling_invariance(self):
        s = toy_scenario([(0, 5, U), (0, 7, G)])
        dag = build(s, [(0, 0, 0), (1, 0, 0)])
        s2 = toy_scenario([(0, 7, G), (0, 5, U)])
        dag2 = build(s2, [(0, 0, 0), (1, 0, 0)])
        assert total_slowdown(dag) == pytest.approx(total_slowdown(dag2))

    def test_unassigned_tasks_error_lists_them(self):
        s = toy_scenario([(0, 5, U), (0, 5, G), (0, 5, I)])
        dag = build(s, [(0, 0, 0)])
        with pytest.raises(ValueError, match=r"\[1, 2\]"):
            average_slowdown(dag, tasks="all")

    def test_immediate_cost_zero_for_identical(self, three_task_scenario):
        dag = build(three_task_scenario, [(0, 0, 5), (1, 0, 5), (2, 0, 5)])
        assert immediate_cost(dag, dag) == 0.0

    def test_immediate_cost_of_left_shift(self):
        # one task moved from B=A+5 to B=A with E=5: improvement +1
        s = toy_scenario([(5, 5, U)])
        before = build(s, [(0, 0, 10)])
        after = build(s, [(0, 0, 5)])
        assert immediate_cost(before, after) == pytest.approx(1.0)

    def test_immediate_cost_rejects_mismatched_sets(self):
        s = toy_scenario([(0, 5, U), (0, 5, G)])
        d1 = build(s, [(0, 0, 0)])
        d2 = build(s, [(0, 0, 0), (1, 0, 0)])
        with pytest.raises(ValueError):
            immediate_cost(d1, d2)


class TestEmbedding:
    def test_intra_site_length(self):
        assert embedding_length(3, 20) == 64

    def test_distributed_length(self):
        assert embedding_length(3, 20, n_sites=5, distributed=True) == 316

    def test_solo_task_utilization_is_own_demand(self):
        s = toy_scenario([(0, 4, UG)])
        dag = build(s, [(0, 0, 0)])
        v = embedding_matrix(dag, e_max=20)[dag.node_of_task[0]]
        d = 3
        assert v.shape == (64,)
        assert np.array_equal(v[:d], [1, 1, 0])
        for step in range(4):
            assert np.array_equal(v[d + step * d : d + (step + 1) * d], [1, 1, 0])
        assert np.all(v[d + 4 * d : -1] == 0)  # padding block is exactly zero
        assert v[-1] == pytest.approx(1.0)  # current slowdown

    def test_busy_site_shows_in_utilization(self):
        s = toy_scenario([(0, 4, U), (0, 4, G)])
        dag = build(s, [(0, 0, 0), (1, 0, 0)])
        v = embedding_matrix(dag, e_max=20)[dag.node_of_task[0]]
        for step in range(4):
            assert np.array_equal(v[3 + step * 3 : 6 + step * 3], [1, 1, 0])

    def test_distributed_layout_site_major(self):
        s = toy_scenario([(0, 4, U), (0, 4, G)], n_sites=2)
        dag = build(s, [(0, 0, 0), (1, 1, 0)])
        v = embedding_matrix(dag, distributed=True, e_max=20)[dag.node_of_task[1]]
        assert v.shape == (2 * 3 * 21 + 1,)
        width = 6
        assert np.array_equal(v[:width], [0, 0, 0, 0, 1, 0])  # demand in site-1 block
        for step in range(4):
            snap = v[width + step * width : width + (step + 1) * width]
            assert np.array_equal(snap, [1, 0, 0, 0, 1, 0])  # both sites' profiles

    def test_embedding_matrix_roots_are_zero(self, three_task_scenario):
        dag = build(three_task_scenario, [(0, 0, 5), (1, 0, 5), (2, 0, 5)])
        m = embedding_matrix(dag)
        assert np.all(m[0] == 0.0)
        assert m.shape == (4, 64)

    def test_exposure_beyond_e_max_rejected(self):
        s = toy_scenario([(0, 25, U)])
        dag = build(s, [(0, 0, 0)])
        with pytest.raises(ValueError, match="e_max"):
            embedding_matrix(dag, e_max=20)

    @pytest.mark.parametrize("n_sites", [1, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_matrix_matches_a_per_task_reference(self, n_sites, seed):
        from obsched.heuristics import schedule_fcfs_list
        from obsched.scenario import GenConfig, generate_scenario

        cfg = GenConfig(horizon_steps=90, arrival_prob=0.3, num_sites=n_sites)
        dag, _ = schedule_fcfs_list(SchedulingContext(generate_scenario(cfg, seed)))
        assert len(dag.rows) > 5
        for distributed in (False, True):
            assert embedding_matrix(dag, distributed).tobytes() == _embedding_by_task(dag, distributed).tobytes()

    def test_matrix_row_of_a_task_ending_at_the_horizon(self):
        s = toy_scenario([(0, 5, U), (50, 10, UG), (52, 8, G)], n_sites=5, horizon=60)
        dag = build(s, [(0, 2, 0), (1, 0, 50), (2, 2, 52)])
        assert int(dag.start[1]) + 10 == 60 and int(dag.start[2]) + 8 == 60
        for distributed in (False, True):
            m = embedding_matrix(dag, distributed, e_max=12)
            assert m.tobytes() == _embedding_by_task(dag, distributed, 12).tobytes()


def _embedding_by_task(dag, distributed, e_max=20):
    """Reference for ``embedding_matrix``: one task row at a time."""
    ctx = dag.ctx
    d = ctx.n_filters
    width = ctx.n_sites * d if distributed else d
    out = np.zeros((dag.n_nodes, width * (e_max + 1) + 1))
    for i, r in enumerate(dag.rows):
        s, b, e = int(dag.site[i]), int(dag.start[i]), int(ctx.exposure[r])
        vec = out[ctx.n_sites + i]
        if distributed:
            vec[s * d : (s + 1) * d] = ctx.rho[r]
            snaps = dag.profile[:, :, b : b + e].transpose(2, 0, 1).reshape(e, width)
        else:
            vec[:d] = ctx.rho[r]
            snaps = dag.profile[s, :, b : b + e].T
        vec[width : width + e * width] = snaps.ravel()
        vec[-1] = dag.eta[i]
    return out


def test_edge_time_consistency_property():
    """On scheduler-built dags every task starts at its effective release
    (root edge) or exactly at a same-site parent's completion."""
    from obsched.heuristics import TaskRule, schedule_online_heuristic
    from obsched.scenario import GenConfig, generate_scenario

    cfg = GenConfig(horizon_steps=90, arrival_prob=0.25, mode_exposure_count_frac=0.5)
    for seed in range(4):
        s = generate_scenario(cfg, seed)
        ctx = SchedulingContext(s)
        dag, _ = schedule_online_heuristic(ctx, TaskRule.STF, None)
        comp = {}
        for i, r in enumerate(dag.rows):
            comp.setdefault(
                (int(dag.site[i]), int(dag.start[i]) + int(ctx.exposure[r])), []
            ).append(i)
        for i, r in enumerate(dag.rows):
            b, site = int(dag.start[i]), int(dag.site[i])
            parents = dag.parents[ctx.n_sites + i]
            assert parents, "every task node needs an incoming edge"
            if site in parents and len(parents) == 1:
                continue  # root edge: starts at its effective release
            assert (site, b) in comp  # otherwise it chains off a completion
