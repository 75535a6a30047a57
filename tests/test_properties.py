"""Property tests over small generated scenarios: schedule invariants that
must hold on every instance, not just on hand-picked ones.

Examples are derandomized, so every run checks the same instances.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import G, U, UG, fits_at, transit_context, visible_steps
from test_heuristics import check_matches_per_step_loop
from test_schedule import check_airmass_on_demand, check_list_columns, check_window_index
from obsched.cli import run_online
from obsched.heuristics import schedule_fcfs_list
from obsched.policy import PolicyConfig, PolicyNet
from obsched.rewriter import APPLIED, RewriteAction, candidate_parents, rewrite_step
from obsched.scenario import GenConfig, generate_scenario, scenario_from_json, scenario_to_json
from obsched.schedule import (
    InfeasibleAssignmentError,
    Placement,
    ScheduleDag,
    SchedulingContext,
    build_from_arrays,
    validate,
)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

SCHEDULERS = ["fcfs", "stf:quality", "edd:priority", "rip", "offline-stf", "roars", "roars-refine"]


@st.composite
def scenarios(draw):
    cfg = GenConfig(
        horizon_steps=draw(st.sampled_from([30, 60])),
        arrival_mode=draw(st.sampled_from(["steady", "dynamic"])),
        arrival_prob=draw(st.floats(0.05, 0.4)),
        mode_exposure_count_frac=draw(st.sampled_from([0.0, 0.5, 1.0])),
        resource_mix=draw(st.sampled_from(["uniform", "nonuniform"])),
        num_sites=draw(st.sampled_from([1, 2, 5])),
    )
    return generate_scenario(cfg, draw(st.integers(0, 2**32 - 1)))


def _net(scenario) -> PolicyNet:
    n_sites = len(scenario.sites)
    return PolicyNet(PolicyConfig(hidden=4, n_filters=3, n_sites=n_sites, distributed=n_sites > 1))


def _check_partition(ctx):
    scenario = ctx.scenario
    ids = {t.id for t in scenario.tasks}
    net = _net(scenario)
    results = {"fcfs-list": schedule_fcfs_list(ctx)}
    for name in SCHEDULERS:
        results[name] = run_online(scenario, name, net=net, replan_steps=5, constraints=ctx.constraints)
    for name, (dag, drops) in results.items():
        assert validate(dag) == [], name
        scheduled = set(dag.task_ids)
        assert len(drops) == len(set(drops)), name
        assert not scheduled & set(drops) and scheduled | set(drops) == ids, name


@SETTINGS
@given(scenarios())
def test_every_scheduler_yields_a_valid_partition(scenario):
    _check_partition(SchedulingContext(scenario))


def _placement(dag, tid) -> tuple[int, int]:
    i = dag.node_of_task[tid] - dag.n_sites
    return int(dag.site[i]), int(dag.start[i])


def _check_rewrites(ctx, data):
    """Every action from a chain of states: an applied rewrite gives a
    valid dag over the same tasks with the frozen tasks in place; any
    other outcome returns the input dag itself."""
    dag, _ = schedule_fcfs_list(ctx)
    if len(dag.rows) < 2:
        return
    frozen = frozenset(data.draw(st.sets(st.sampled_from(dag.task_ids), max_size=2)))
    for _ in range(3):
        applied = []
        for region in dag.task_ids:
            for kind, ref in candidate_parents(dag, region):
                if kind == "root":
                    action = RewriteAction(region, parent_task=None, parent_site=ref)
                else:
                    action = RewriteAction(region, parent_task=ref)
                new, status = rewrite_step(dag, action, frozen)
                if status != APPLIED:
                    assert new is dag
                    continue
                assert validate(new) == []
                assert sorted(new.task_ids) == sorted(dag.task_ids)
                for tid in frozen:
                    assert _placement(new, tid) == _placement(dag, tid)
                applied.append(new)
        if not applied:
            break
        dag = applied[data.draw(st.integers(0, len(applied) - 1))]


@SETTINGS
@given(scenarios(), st.data())
def test_applied_rewrites_stay_feasible(scenario, data):
    _check_rewrites(SchedulingContext(scenario), data)


@SETTINGS
@given(scenarios())
def test_json_round_trip_is_byte_identical(scenario):
    text = scenario_to_json(scenario)
    again = scenario_from_json(text)
    assert scenario_to_json(again) == text
    assert again == scenario


def _build_by_loop(ctx, rows, site, start) -> ScheduleDag:
    """Reference for ``build_from_arrays``: one pass per task in task-id
    order, raising at the first violation it meets.  Visibility comes from
    the ephemeris, not from the context's table."""
    vis = visible_steps(ctx.scenario, ctx.constraints)
    order = np.argsort(ctx.task_id[rows], kind="stable")
    rows = np.asarray(rows, dtype=np.int64)[order]
    site = np.asarray(site, dtype=np.int64)[order]
    start = np.asarray(start, dtype=np.int64)[order]
    n = len(rows)

    if len(set(rows.tolist())) != n:
        raise ValueError("duplicate task in assignments")

    profile = np.zeros((ctx.n_sites, ctx.n_filters, ctx.horizon), dtype=np.uint8)
    start_by_row = {int(r): int(b) for r, b in zip(rows, start)}
    release = [0] * n

    for i in range(n):
        r, s, b = int(rows[i]), int(site[i]), int(start[i])
        tid = int(ctx.task_id[r])
        if not 0 <= s < ctx.n_sites:
            raise InfeasibleAssignmentError(tid, s, b, "dependency")
        e = int(ctx.exposure[r])
        if b < ctx.arrival[r]:
            raise InfeasibleAssignmentError(tid, s, b, "arrival")
        if b + e > min(ctx.deadline[r], ctx.horizon):
            raise InfeasibleAssignmentError(tid, s, b, "deadline")
        if not vis[ctx.target_row[r], s, b : b + e].all():
            raise InfeasibleAssignmentError(tid, s, b, "visibility")
        block = profile[s][ctx.rho_idx[r], b : b + e]
        if block.any():
            step = b + int(np.argmax(block.max(axis=0) > 0))
            raise InfeasibleAssignmentError(tid, s, step, "resource")
        profile[s][ctx.rho_idx[r], b : b + e] = 1
        release[i] = int(ctx.arrival[r])
        prev = int(ctx.prev_sibling[r])
        if prev in start_by_row:
            gap = int(ctx.exposure[prev]) + int(ctx.sibling_gap[r])
            release[i] = max(release[i], start_by_row[prev] + gap)
        if b < release[i]:
            raise InfeasibleAssignmentError(tid, s, b, "cadence")

    comp_map: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        c = int(start[i]) + int(ctx.exposure[int(rows[i])])
        comp_map.setdefault((int(site[i]), c), []).append(ctx.n_sites + i)

    parents: list[tuple[int, ...]] = [() for _ in range(ctx.n_sites)]
    eta = np.empty(n, dtype=np.float64)
    for i in range(n):
        r, s, b = int(rows[i]), int(site[i]), int(start[i])
        e = int(ctx.exposure[r])
        eta[i] = (b + e - ctx.arrival[r]) / e
        opening = b  # first step of the visible run b lies in
        while opening > 0 and vis[ctx.target_row[r], s, opening - 1]:
            opening -= 1
        p: list[int] = []
        if b == max(release[i], opening):
            p.append(s)
        p.extend(q for q in comp_map.get((s, b), ()) if q != ctx.n_sites + i)
        if not p:
            p.append(s)
        parents.append(tuple(sorted(p)))

    return ScheduleDag(ctx, rows, site, start, eta, tuple(parents), profile)


def _outcome(build, ctx, rows, site, start):
    """Every field of the built dag, byte for byte, or the error raised."""
    try:
        dag = build(ctx, rows, site, start)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return (
        dag.rows.tobytes(), dag.site.tobytes(), dag.start.tobytes(), dag.eta.tobytes(),
        dag.parents, dag.profile.dtype, dag.profile.shape, dag.profile.tobytes(),
    )


@st.composite
def transit_contexts(draw):
    """Contexts of toy scenarios whose targets are seen only for ~40 steps
    around their transits (see ``transit_context``), so that most windows
    open after their tasks arrive."""
    specs = draw(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 10), st.sampled_from([U, G, UG])),
            min_size=2,
            max_size=8,
        )
    )
    transits = draw(st.lists(st.integers(0, 80), min_size=len(specs), max_size=len(specs)))
    n_sites = draw(st.sampled_from([1, 2]))
    return transit_context(specs, transits, n_sites, west_deg=5.0 if n_sites == 2 else None)


def _check_build_against_loop(ctx, data):
    """Scheduler-built placements, some nudged in site and start (which
    breaks site range, arrival, deadline, visibility, occupancy and
    cadence in turn), in shuffled input order: the same dag or the same
    exception message as the reference loop.  The last round moves a task
    onto a later opening of its target's window and another task to
    complete there, so the opening's root edge meets a completion edge."""
    dag, _ = schedule_fcfs_list(ctx)
    n = len(dag.rows)
    vis = visible_steps(ctx.scenario, ctx.constraints)
    for k in range(7):
        site, start = dag.site.copy(), dag.start.copy()
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)) if n else []:
            site[i] += data.draw(st.integers(-1, 1))
            start[i] += data.draw(st.integers(-6, 6))
        if k == 6 and n >= 2:  # the last round: onto a later window opening
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            seen = vis[ctx.target_row[dag.rows[i]], site[i]] if 0 <= site[i] < ctx.n_sites else []
            first = int(ctx.arrival[dag.rows[i]]) + 1
            opens = [b for b in range(first, len(seen)) if seen[b] and not seen[b - 1]]
            if opens:
                start[i], site[j] = opens[0], site[i]
                start[j] = opens[0] - ctx.exposure[dag.rows[j]]
        perm = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
        args = (ctx, dag.rows[perm], site[perm], start[perm])
        assert _outcome(build_from_arrays, *args) == _outcome(_build_by_loop, *args)


@SETTINGS
@given(scenarios(), st.data())
def test_build_from_arrays_matches_the_per_task_loop(scenario, data):
    _check_build_against_loop(SchedulingContext(scenario), data)


@SETTINGS
@given(transit_contexts(), st.data())
def test_build_from_arrays_matches_the_per_task_loop_where_windows_open(ctx, data):
    _check_build_against_loop(ctx, data)


def _check_point_fit(ctx, data):
    """On an FCFS-list placement with a few tasks taken out again, a task
    fits at (site, start) exactly when its earliest fit from that start is
    that start, for every site and every start of the grid."""
    dag, _ = schedule_fcfs_list(ctx)
    pl = Placement(ctx).load(dag)
    rows = data.draw(st.lists(st.integers(0, ctx.n_tasks - 1), min_size=1, max_size=3)) if ctx.n_tasks else []
    for r in rows:
        if r in pl.committed:
            pl.uncommit(r)
        for s in range(ctx.n_sites):
            for b in range(ctx.horizon + 1):
                assert fits_at(pl, r, s, b) == (pl.fit(r, s, b) == b), (r, s, b)


@SETTINGS
@given(scenarios(), st.data())
def test_point_fit_agrees_with_the_earliest_fit(scenario, data):
    _check_point_fit(SchedulingContext(scenario), data)


@SETTINGS
@given(scenarios())
def test_window_index_equals_a_scan_of_run_left(scenario):
    check_window_index(SchedulingContext(scenario))


# the four properties above again, on contexts whose windows open after
# their tasks arrive (see ``transit_contexts``)

@SETTINGS
@given(transit_contexts())
def test_every_scheduler_yields_a_valid_partition_where_windows_open(ctx):
    _check_partition(ctx)


@SETTINGS
@given(transit_contexts(), st.data())
def test_applied_rewrites_stay_feasible_where_windows_open(ctx, data):
    _check_rewrites(ctx, data)


@SETTINGS
@given(transit_contexts(), st.data())
def test_point_fit_agrees_with_the_earliest_fit_where_windows_open(ctx, data):
    _check_point_fit(ctx, data)


@SETTINGS
@given(transit_contexts())
def test_window_index_equals_a_scan_of_run_left_where_windows_open(ctx):
    check_window_index(ctx)


@SETTINGS
@given(transit_contexts())
def test_online_heuristic_matches_the_per_step_loop_where_windows_open(ctx):
    check_matches_per_step_loop(ctx)


@SETTINGS
@given(transit_contexts())
def test_airmass_on_demand_matches_the_masks_where_windows_open(ctx):
    check_airmass_on_demand(ctx)


@SETTINGS
@given(transit_contexts())
def test_list_columns_match_their_arrays_where_windows_open(ctx):
    check_list_columns(ctx)
