"""Property tests over small generated scenarios: schedule invariants that
must hold on every instance, not just on hand-picked ones.

Examples are derandomized, so every run checks the same instances.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import visible_steps
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


@SETTINGS
@given(scenarios())
def test_every_scheduler_yields_a_valid_partition(scenario):
    ids = {t.id for t in scenario.tasks}
    net = _net(scenario)
    results = {"fcfs-list": schedule_fcfs_list(SchedulingContext(scenario))}
    for name in SCHEDULERS:
        results[name] = run_online(scenario, name, net=net, replan_steps=5)
    for name, (dag, drops) in results.items():
        assert validate(dag) == [], name
        scheduled = set(dag.task_ids)
        assert len(drops) == len(set(drops)), name
        assert not scheduled & set(drops) and scheduled | set(drops) == ids, name


def _placement(dag, tid) -> tuple[int, int]:
    i = dag.node_of_task[tid] - dag.n_sites
    return int(dag.site[i]), int(dag.start[i])


@SETTINGS
@given(scenarios(), st.data())
def test_applied_rewrites_stay_feasible(scenario, data):
    """Every action from a chain of states: an applied rewrite gives a
    valid dag over the same tasks with the frozen tasks in place; any
    other outcome returns the input dag itself."""
    dag, _ = schedule_fcfs_list(SchedulingContext(scenario))
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


@SETTINGS
@given(scenarios(), st.data())
def test_build_from_arrays_matches_the_per_task_loop(scenario, data):
    """Scheduler-built placements, some nudged in site and start (which
    breaks site range, arrival, deadline, visibility, occupancy and
    cadence in turn), in shuffled input order: the same dag or the same
    exception message as the reference loop."""
    ctx = SchedulingContext(scenario)
    dag, _ = schedule_fcfs_list(ctx)
    n = len(dag.rows)
    for _ in range(6):
        site, start = dag.site.copy(), dag.start.copy()
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)) if n else []:
            site[i] += data.draw(st.integers(-1, 1))
            start[i] += data.draw(st.integers(-6, 6))
        perm = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
        args = (ctx, dag.rows[perm], site[perm], start[perm])
        assert _outcome(build_from_arrays, *args) == _outcome(_build_by_loop, *args)


@SETTINGS
@given(scenarios(), st.data())
def test_point_fit_agrees_with_the_earliest_fit(scenario, data):
    """On an FCFS-list placement with a few tasks taken out again, a task
    fits at (site, start) exactly when its earliest fit from that start is
    that start, for every site and every start of the grid."""
    ctx = SchedulingContext(scenario)
    dag, _ = schedule_fcfs_list(ctx)
    pl = Placement(ctx).load(dag)
    rows = data.draw(st.lists(st.integers(0, ctx.n_tasks - 1), max_size=3)) if ctx.n_tasks else []
    for r in rows:
        if r in pl.committed:
            pl.uncommit(r)
        for s in range(ctx.n_sites):
            for b in range(ctx.horizon + 1):
                assert pl.fits(r, s, b) == (pl.fit(r, s, b) == b), (r, s, b)
