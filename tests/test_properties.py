"""Property tests over small generated scenarios: schedule invariants that
must hold on every instance, not just on hand-picked ones.

Examples are derandomized, so every run checks the same instances.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from obsched.cli import run_online
from obsched.heuristics import schedule_fcfs_list
from obsched.policy import PolicyConfig, PolicyNet
from obsched.rewriter import APPLIED, RewriteAction, candidate_parents, rewrite_step
from obsched.scenario import GenConfig, generate_scenario, scenario_from_json, scenario_to_json
from obsched.schedule import validate

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
    results = {"fcfs-list": schedule_fcfs_list(scenario)}
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
    dag, _ = schedule_fcfs_list(scenario)
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
