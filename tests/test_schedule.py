"""DAG construction, edge rules, validation, slowdown arithmetic, and
task embeddings."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import G, I, U, UG, fits_at, run_left, run_lengths, toy_scenario, transit_context, visible_steps
from obsched.ephemeris import UNOBSERVABLE, _target_airmass, _target_mask, site_skies, visibility_masks_multi
from obsched.heuristics import SiteRule, TaskRule, schedule_online_heuristic
from obsched.scenario import GenConfig, generate_scenario
from obsched.schedule import (
    Assignment,
    Placement,
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


class TestRunLeft:
    """The window index a context builds from its span cells against a
    scan of ``run_left``, a step-by-step count over the ephemeris' own
    visibility masks of the whole horizon."""

    def check(self, ctx):
        want = run_left(ctx)
        check_window_index(ctx, want)
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
        ctx = transit_context([(0, 5, U, None, k) for k in range(5)], (-25, 0, 30, 59, 85), 2)
        want = self.check(ctx)
        assert want[:, :, 0].any() and want[:, :, -1].any()  # runs reach both ends
        assert (want[:, :, 1:] > want[:, :, :-1]).any()  # and some open inside
        assert not want[0].any() and not want[4].any()

    def test_dark_steps_only_match_the_all_steps_predicate(self):
        # the masks evaluate the target predicate on dark steps only; the
        # reference evaluates it on every step of the five default sites
        s = generate_scenario(GenConfig(horizon_steps=1440, num_sites=5), 4)
        ctx = SchedulingContext(s)
        cons = ctx.constraints
        ra = np.array([t.coord.ra for t in s.targets])
        dec = np.array([t.coord.dec for t in s.targets])
        skies = site_skies([site.coord for site in s.sites], s.grid, cons)
        want = np.zeros((len(s.targets), ctx.n_sites, ctx.horizon), dtype=bool)
        for si, (site, sky) in enumerate(zip(s.sites, skies)):
            assert 0 < sky.dark.sum() < s.grid.horizon_steps
            ref = _target_mask(ra, dec, sky.lat, sky.lst, cons)
            above, vals = _target_airmass(ra, dec, sky.lat, sky.lst, cons)
            ref_am = np.full(ref.shape, UNOBSERVABLE)
            ref_am[above] = vals
            mask, am = visibility_masks_multi(ra, dec, site.coord, s.grid, cons)
            assert np.array_equal(mask, ref & sky.dark)
            assert np.array_equal(am[:, sky.dark], ref_am[:, sky.dark])
            assert (am[:, ~sky.dark] == UNOBSERVABLE).all()
            want[:, si] = ref & sky.dark
        assert want.any()
        check_window_index(ctx, run_lengths(want))
        assert check_airmass_on_demand(ctx).size


def check_airmass_on_demand(ctx, cells=None):
    """``ctx.airmass`` against ``visibility_masks_multi``'s airmass, bit
    for bit: on ``cells``, (row, site, step) index arrays, or else on every
    visible (site, step) of every task's target.  Returns the values."""
    s = ctx.scenario
    ra = np.array([t.coord.ra for t in s.targets])
    dec = np.array([t.coord.dec for t in s.targets])
    am = np.stack(
        [visibility_masks_multi(ra, dec, site.coord, s.grid, ctx.constraints)[1] for site in s.sites], axis=1
    )
    if cells is None:
        rows = np.unique(ctx.target_row, return_index=True)[1]  # one task per target
        vis = visible_steps(s, ctx.constraints)[ctx.target_row[rows]]
        i, si, b = np.nonzero(vis)
        cells = (rows[i], si, b)
    r, si, b = (np.asarray(c) for c in cells)
    got = np.array([ctx.airmass(*cell) for cell in zip(r.tolist(), si.tolist(), b.tolist())])
    assert np.array_equal(got.view(np.uint64), am[ctx.target_row[r], si, b].view(np.uint64))
    return got


class TestAirmassOnDemand:
    """``SchedulingContext.airmass``, evaluated one cell at a time, is the
    airmass the visibility masks compute for whole rows of targets."""

    @pytest.fixture(scope="class")
    def night(self):
        return SchedulingContext(generate_scenario(GenConfig(horizon_steps=1440, num_sites=5), 0))

    @pytest.mark.parametrize("num_sites", [1, 5])
    def test_every_visible_cell(self, num_sites):
        s = generate_scenario(GenConfig(horizon_steps=240, num_sites=num_sites), 0)
        assert check_airmass_on_demand(SchedulingContext(s)).size

    def test_a_sample_of_a_night(self, night):
        rng = np.random.default_rng(0)
        cells = tuple(rng.integers(0, n, 2000) for n in (night.n_tasks, night.n_sites, night.horizon))
        got = check_airmass_on_demand(night, cells)
        # the sample holds visible cells and unobservable ones, sun-up among them
        assert UNOBSERVABLE in got and got.min() <= night.constraints.max_airmass

    def test_the_context_holds_no_visibility_table(self, night):
        # a quality-rule run builds whatever its site key reads
        schedule_online_heuristic(night, TaskRule.STF, SiteRule.BEST_QUALITY)
        shape = (len(night.scenario.targets), night.n_sites, night.horizon)
        tables = [k for k, v in vars(night).items() if isinstance(v, np.ndarray) and v.shape == shape]
        assert tables == [] and not hasattr(night, "run_left")


def scanned_windows(ctx, left, row, site):
    """The maximal runs of the starts the run lengths ``left`` allow one
    task on one site, found by scanning every start from its arrival to
    its limit."""
    e, a = int(ctx.exposure[row]), int(ctx.arrival[row])
    ok = left[int(ctx.target_row[row]), site, a : max(a, int(ctx.limit[row]) - e + 1)] >= e
    out = []
    for b in (np.flatnonzero(ok) + a).tolist():
        if out and out[-1][1] == b - 1:
            out[-1] = (out[-1][0], b)
        else:
            out.append((b, b))
    return out


def check_window_index(ctx, left=None):
    """``SchedulingContext.windows`` and ``last_start`` against a scan of
    the run lengths ``left`` (by default conftest's ``run_left``) for
    every (row, site)."""
    left = run_left(ctx) if left is None else left
    assert ctx.last_start.shape == (ctx.n_tasks,)
    for r in range(ctx.n_tasks):
        scans = [scanned_windows(ctx, left, r, s) for s in range(ctx.n_sites)]
        assert [ctx.windows(r, s) for s in range(ctx.n_sites)] == scans, r
        assert ctx.last_start[r] == max((w[-1][1] for w in scans if w), default=-1), r


#: the task columns a context keeps as Python lists beside their arrays,
#: for the per-task scalar reads of the schedulers
LIST_COLUMNS = ("task_id", "arrival", "exposure", "limit", "target_row", "prev_sibling", "sibling_gap", "last_start")


def check_list_columns(ctx):
    """Every list column holds its array's values as Python ints, and the
    context keeps no other list column."""
    assert {name[: -len("_list")] for name in vars(ctx) if name.endswith("_list")} == set(LIST_COLUMNS)
    for name in LIST_COLUMNS:
        values = getattr(ctx, f"{name}_list")
        assert type(values) is list and values == getattr(ctx, name).tolist(), name
        assert all(type(v) is int for v in values), name


@pytest.mark.parametrize("n_sites", [1, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_list_columns_match_their_arrays(n_sites, seed):
    cfg = GenConfig(horizon_steps=240, num_sites=n_sites, arrival_prob=0.2, mode_exposure_count_frac=0.5)
    ctx = SchedulingContext(generate_scenario(cfg, seed))
    assert ctx.n_tasks and ctx.prev_sibling.max() >= 0 and ctx.sibling_gap.max() > 0
    check_list_columns(ctx)


def test_a_deadline_past_the_horizon_limits_at_the_horizon():
    # generated deadlines never pass the horizon, so only here do the
    # ``deadline`` and ``limit`` columns differ
    ctx = SchedulingContext(toy_scenario([(0, 10, U, 90)], horizon=60))
    check_list_columns(ctx)
    assert ctx.limit_list == [60] and ctx.last_start_list == [50]
    assert [ctx.fits_statically(0, 0, b) for b in (50, 51)] == [None, "deadline"]


class TestWindowIndex:
    """The static window index on hand-made visibility: target ``k`` is
    seen from site ``s`` over exactly the half-open step ranges
    ``runs[k][s]``."""

    def context(self, monkeypatch, task_specs, runs, n_sites=1, idle_targets=0):
        """The context of ``toy_scenario(task_specs, n_sites)``, plus
        ``idle_targets`` targets with no task after the tasks' targets;
        ``self.cells`` records the (site, targets, steps) of every cell
        evaluation the context makes."""
        s = toy_scenario(task_specs, n_sites=n_sites)
        idle = tuple(replace(s.targets[0], id=len(s.targets) + k) for k in range(idle_targets))
        s = replace(s, targets=s.targets + idle)
        vis = np.zeros((len(s.targets), n_sites, s.grid.horizon_steps), dtype=bool)
        for k, per_site in enumerate(runs):
            for si, ranges in enumerate(per_site):
                for a, b in ranges:
                    vis[k, si, a:b] = True
        self.cells = []

        def span_mask(ctx, site, tgt, step):
            self.cells.append((site, tgt.copy(), step.copy()))
            return vis[tgt, site, step]

        monkeypatch.setattr(SchedulingContext, "_span_mask", span_mask)
        ctx = SchedulingContext(s)
        check_window_index(ctx, run_lengths(vis))
        return ctx

    def test_a_run_the_arrival_cuts(self, monkeypatch):
        ctx = self.context(monkeypatch, [(20, 5, U)], [[[(10, 40)]]])
        assert ctx.windows(0, 0) == [(20, 35)] and ctx.last_start[0] == 35

    def test_a_run_the_limit_cuts(self, monkeypatch):
        ctx = self.context(monkeypatch, [(0, 5, U, 30)], [[[(10, 40)]]])
        assert ctx.windows(0, 0) == [(10, 25)] and ctx.last_start[0] == 25

    def test_two_runs_on_one_site(self, monkeypatch):
        ctx = self.context(monkeypatch, [(0, 4, U)], [[[(5, 15), (30, 50)]]])
        assert ctx.windows(0, 0) == [(5, 11), (30, 46)] and ctx.last_start[0] == 46
        st = Placement(ctx)
        assert [st.fit(0, 0, lo) for lo in (0, 11, 12, 46, 47)] == [5, 11, 30, 46, None]
        st.commit(0, 0, 10)  # the task's own filter, busy over [10, 14)
        assert [st.fit(0, 0, lo) for lo in (0, 6, 7)] == [5, 6, 30]

    def test_a_run_exactly_one_exposure_long(self, monkeypatch):
        # the second run is one step short of the exposure
        ctx = self.context(monkeypatch, [(0, 5, U)], [[[(20, 25), (30, 34)]]])
        assert ctx.windows(0, 0) == [(20, 20)] and ctx.last_start[0] == 20

    def test_a_site_that_never_sees_the_target(self, monkeypatch):
        ctx = self.context(monkeypatch, [(0, 5, U), (0, 5, G)], [[[(10, 40)], []], [[], []]], 2)
        assert ctx.windows(0, 1) == [] and Placement(ctx).fit(0, 1, 0) is None
        assert ctx.windows(1, 0) == ctx.windows(1, 1) == [] and ctx.last_start[1] == -1

    def test_a_run_that_opens_before_the_earliest_arrival(self, monkeypatch):
        # the target's span opens at its earliest arrival, 20: the run seen
        # from 10 is cut there, and gives each task the whole run's windows
        ctx = self.context(monkeypatch, [(20, 5, G, None, "t"), (25, 5, U, None, "t")], [[[(10, 40)]]])
        assert ctx.windows(0, 0) == [(20, 35)] and ctx.windows(1, 0) == [(25, 35)]
        assert min(int(step.min()) for _, _, step in self.cells) == 20

    def test_a_run_that_outlasts_the_latest_limit(self, monkeypatch):
        # the span closes at the latest limit, 35: the run seen until 50 is
        # cut there
        ctx = self.context(monkeypatch, [(0, 5, U, 30, "t"), (1, 5, G, 35, "t")], [[[(10, 50)]]])
        assert ctx.windows(0, 0) == [(10, 25)] and ctx.windows(1, 0) == [(10, 30)]
        assert max(int(step.max()) for _, _, step in self.cells) == 34

    def test_a_target_with_no_task(self, monkeypatch):
        # target 1 is seen all night, but no task asks for it
        ctx = self.context(monkeypatch, [(0, 5, U)], [[[(10, 40)]], [[(0, 60)]]], idle_targets=1)
        assert len(ctx.scenario.targets) == 2 and ctx.windows(0, 0) == [(10, 35)]
        assert self.cells and all((tgt == 0).all() for _, tgt, _ in self.cells)

    def test_two_tasks_of_one_target_far_apart(self, monkeypatch):
        # one span covers both tasks and the steps between them; each task
        # gets only the runs inside its own [arrival, limit)
        runs = [[[(5, 15), (25, 35), (50, 58)]]]
        ctx = self.context(monkeypatch, [(0, 3, U, 12, "t"), (45, 3, U, 60, "t")], runs)
        assert ctx.windows(0, 0) == [(5, 9)] and ctx.windows(1, 0) == [(50, 55)]
        assert ctx.last_start.tolist() == [9, 55]

    def test_a_scenario_with_no_targets(self):
        ctx = SchedulingContext(toy_scenario([]))
        check_window_index(ctx)
        assert ctx.n_tasks == 0 and ctx.last_start.size == 0

    @pytest.mark.parametrize("num_sites, horizon, seed", [(1, 240, 0), (5, 240, 1), (5, 1440, 2)])
    def test_generated_scenarios(self, num_sites, horizon, seed):
        s = generate_scenario(GenConfig(horizon_steps=horizon, num_sites=num_sites), seed)
        ctx = SchedulingContext(s)
        check_window_index(ctx)
        assert (ctx.last_start >= 0).any()


def test_tasks_with_one_filter_pattern_share_one_read_only_index():
    ctx = SchedulingContext(toy_scenario([(0, 5, UG), (3, 5, U), (9, 5, UG), (12, 5, G)]))
    assert ctx.rho_idx[0] is ctx.rho_idx[2]
    assert ctx.rho_idx[0].tolist() == [0, 1] and ctx.rho_idx[1].tolist() == [0]
    assert ctx.rho_idx[3].tolist() == [1] and ctx.rho_idx[1] is not ctx.rho_idx[3]
    with pytest.raises(ValueError, match="read-only"):
        ctx.rho_idx[0][0] = 2


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
        ctx = transit_context([(1, 10, U), (0, 5, G)], (20, 30))
        left = run_left(ctx)
        assert left[0, 0, 1] >= 10 and left[1, 0, 10] == 0 < left[1, 0, 11]
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

    @pytest.mark.parametrize("bad_site", [-2, -1, 2])
    def test_a_site_out_of_range_fails_statically_as_a_dependency(self, bad_site):
        # both sites see the target: a negative site must not read the other
        ctx = SchedulingContext(toy_scenario([(0, 10, U)], n_sites=2))
        assert ctx.fits_statically(0, bad_site, 0) == "dependency"
        assert not fits_at(Placement(ctx), 0, bad_site, 0)
        dag = build_dag(ctx, [Assignment(0, 0, 0)])
        hacked = ScheduleDag(ctx, dag.rows, np.array([bad_site]), dag.start, dag.eta, dag.parents, dag.profile)
        first = validate(hacked)[0]
        assert (first.kind, first.message) == ("dependency", f"task 0 fails dependency at site {bad_site} step 0")

    @pytest.mark.parametrize("bad_site", [-1, 2])
    def test_a_site_out_of_range_has_no_windows_and_no_fit(self, bad_site):
        # both sites see both targets, so a flat index off the row would
        # find another row's windows
        ctx = SchedulingContext(toy_scenario([(0, 10, U), (0, 10, G)], n_sites=2))
        message = rf"^site {bad_site} is not in \[0, 2\)$"
        for row in (0, 1):
            with pytest.raises(ValueError, match=message):
                ctx.windows(row, bad_site)
            with pytest.raises(ValueError, match=message):
                Placement(ctx).fit(row, bad_site, 0)

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
