"""perfbench's traced run wraps package functions where each module binds
them (perfbench/tracing.py).  A rename or move in the package must not
break ``--trace 1`` silently: every binding must exist, and uninstalling
must put back exactly what was there."""
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

import acceptance_config as acc
from obsched import autograd, cli, ephemeris, heuristics, policy, rewriter, schedule
from obsched import scenario as sc

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
OWNERS = [
    autograd, cli, ephemeris, heuristics, policy, rewriter, schedule, sc,
    schedule.SchedulingContext, policy.PolicyNet, policy.Adam,
]


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return tracing


def _bindings():
    return {(id(owner), name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_install_finds_every_binding_and_uninstall_restores_them(tracing):
    before = _bindings()
    try:
        saved = tracing.install(tracing.Tracer())
        installed = [(owner, attr, orig, getattr(owner, attr)) for owner, attr, orig in saved]
        tracing.uninstall(saved)
        after = _bindings()
    finally:
        for owner in OWNERS:  # put back whatever a failed install left behind
            for name, value in list(vars(owner).items()):
                if before.get((id(owner), name), value) is not value:
                    setattr(owner, name, before[(id(owner), name)])
    assert len(installed) > 20
    for owner, attr, orig, traced in installed:
        assert traced is not orig and traced.__wrapped__ is orig, (owner, attr)
    assert after == before


def test_placement_builds_through_the_module_binding(monkeypatch):
    """perfbench counts ``schedule.build`` by wrapping
    ``schedule.build_from_arrays``; ``Placement.to_dag`` must look it up
    there on every call, or the count silently stops."""
    from conftest import U, toy_scenario

    calls = []
    build = schedule.build_from_arrays
    monkeypatch.setattr(
        schedule, "build_from_arrays", lambda *args: calls.append(args) or build(*args)
    )
    st = schedule.Placement(schedule.SchedulingContext(toy_scenario([(0, 5, U)])))
    st.place(0, 0)
    dag = st.to_dag()
    assert len(calls) == 1 and dag.task_ids == (0,)


def test_traced_backward_walks_the_whole_tape(tracing):
    """The traced run counts the loss graph's nodes by walking
    ``loss.parents`` before the real backward: on a ``losses`` output the
    walk must reach both tape nodes and all 15 parameters, and the
    gradient must be a plain ``backward``'s."""
    gen, train_cfg, search_cfg, policy_cfg = acc.recipe(distributed=False)
    net = policy.PolicyNet(replace(policy_cfg, hidden=8), seed=1)
    dag0 = policy._training_instance(gen, policy._instance_seed(0, 0, 0))
    _, traj = rewriter.rewrite_search(
        dag0, net, replace(search_cfg, num_steps=6), np.random.default_rng(0), pc=0.5
    )
    tracer = tracing.Tracer()
    grads = []
    for backward in (autograd.backward, tracer.traced_backward(autograd.backward)):
        net.zero_grad()
        backward(policy.losses(net, traj, train_cfg)[2])
        grads.append(net.grad_flat())
    notes = {name: note for name, _, _, _, note in tracer.spans}
    # the loss node, the tree-LSTM node and the 15 parameter leaves
    assert len(net.params) == 15
    assert notes == {"trace.tape_walk": 17, "autograd.backward": 17}
    assert all(p.grad is not None and np.any(p.grad != 0.0) for p in net.params.values())
    assert np.array_equal(grads[1], grads[0])
