"""Finite-difference checks of the tape's two nodes, and tape mechanics.

Each trajectory's loss records two nodes.  ``tree_lstm`` is checked here
directly.  The policy's head-and-loss node is checked through its numpy
parts (``_mlp`` with ``_mlp_vjp``, and ``_scatter_rows``) and through
``policy.losses`` on hand-built trajectories.  The tree-LSTM checks
reduce its table to a scalar through a test-local op.
"""
from dataclasses import replace

import numpy as np
import pytest

import acceptance_config as acc
from obsched import autograd as ag
from obsched.policy import (
    ALPHA,
    PolicyNet,
    TrainConfig,
    _instance_seed,
    _mlp,
    _mlp_vjp,
    _scatter_rows,
    _training_instance,
    discounted_returns,
    log_softmax,
    losses,
)
from obsched.rewriter import RewriteAction, TrajectoryStep


def dot(x, w):
    """Test-local op: the sum of ``x`` times a constant array of its shape."""
    w = np.asarray(w, dtype=np.float64)
    return ag.Tensor(float(np.sum(x.value * w)), (x,), lambda g: (float(g) * w,))


def fd_check(make_loss, params, rng, n_probe=6, h=1e-6, tol=1e-6):
    """Central finite differences against the analytic gradients."""
    for p in params:
        p.zero_grad()
    loss = make_loss()
    ag.backward(loss)
    worst = 0.0
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        flat = p.value.ravel()
        for i in rng.choice(flat.size, min(n_probe, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + h
            up = float(make_loss().value)
            flat[i] = keep - h
            dn = float(make_loss().value)
            flat[i] = keep
            num = (up - dn) / (2 * h)
            a = float(g.ravel()[i])
            worst = max(worst, abs(num - a) / max(1.0, abs(num), abs(a)))
    assert worst < tol, worst


# rows of a tree-LSTM table: two roots; a parent (row 2) shared by two
# children (rows 3 and 4), which are the two parents of a diamond's foot
# (row 5); and a child summing a root and a later row
TREE = [(), (), (0,), (2,), (2,), (3, 4), (1, 5)]


def _tree_params(rng, h, d):
    wx = ag.Tensor.param(rng.uniform(-0.5, 0.5, (4 * h, d)))
    wh = ag.Tensor.param(rng.uniform(-0.5, 0.5, (4 * h, h)))
    b = ag.Tensor.param(rng.uniform(-0.5, 0.5, 4 * h))
    return wx, wh, b


def test_tree_lstm_gradients():
    rng = np.random.default_rng(3)
    h, d = 5, 7
    wx, wh, b = _tree_params(rng, h, d)
    x = rng.uniform(-1, 1, (len(TREE), d))
    w = rng.uniform(-1, 1, (len(TREE), 2 * h))
    fd_check(lambda: dot(ag.tree_lstm(x, TREE, wx, wh, b), w), [wx, wh, b], rng, n_probe=40)


def test_tree_lstm_rows_against_a_per_row_reference():
    # each row from its parents' summed states, in the row order given
    rng = np.random.default_rng(11)
    h, d = 4, 6
    wx, wh, b = _tree_params(rng, h, d)
    x = rng.uniform(-1, 1, (len(TREE), d))
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    want = np.zeros((len(TREE), 2 * h))
    for r, ps in enumerate(TREE):
        hc_in = sum((want[p] for p in ps), np.zeros(2 * h))
        z = wx.value @ x[r] + wh.value @ hc_in[:h] + b.value
        c = sig(z[h : 2 * h]) * hc_in[h:] + sig(z[:h]) * np.tanh(z[3 * h :])
        want[r] = np.concatenate([sig(z[2 * h : 3 * h]) * np.tanh(c), c])
    got = ag.tree_lstm(x, TREE, wx, wh, b).value
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    # the kernel fills rows from ``lo`` on, reading the earlier ones
    grown = got.copy()
    grown[4:] = np.nan
    ag.lstm_rows(x[4:], TREE[4:], wx.value, wh.value, b.value, grown, 4)
    assert np.array_equal(grown, got)


def test_linear_relu_stack():
    # a head's three layers run forward by ``_mlp`` and backward by
    # ``_mlp_vjp``, against central differences of every input and weight
    rng = np.random.default_rng(0)
    h, n = 4, 6
    shapes = {"w1": (h, 2 * h), "b1": (h,), "w2": (h, h), "b2": (h,), "w3": (1, h), "b3": (1,)}
    p = {"rule_" + k: rng.uniform(-1, 1, shape) for k, shape in shapes.items()}
    x = rng.uniform(-1, 1, (n, 2 * h))
    w = rng.uniform(-1, 1, n)

    def loss():
        return _mlp(p, "rule", x @ p["rule_w1"].T + p["rule_b1"])[0] @ w

    _, hidden = _mlp(p, "rule", x @ p["rule_w1"].T + p["rule_b1"])
    assert 0 < np.mean(hidden[0] > 0) < 1 and 0 < np.mean(hidden[2] > 0) < 1  # both relus clip some units
    gx, grads = _mlp_vjp(p, "rule", x, hidden, w)
    for value, g in zip([x] + [p["rule_" + k] for k in shapes], (gx,) + grads):
        assert g.shape == value.shape
        flat = value.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + 1e-6
            up = loss()
            flat[i] = keep - 1e-6
            dn = loss()
            flat[i] = keep
            num = (up - dn) / 2e-6
            assert abs(num - g.ravel()[i]) < 1e-7 * max(1.0, abs(num)), i


def _hand_built(distributed: bool, hidden: int = 8, seed: int = 3):
    """A net and a hand-built five-step trajectory on the FCFS dag of an
    acceptance recipe's first training instance.  Its first task is the
    region of steps 0, 1 and 3 and a candidate parent in steps 2 and 4
    (chosen in step 2); step 1 ties its first two candidates; step 3 has a
    single rule candidate."""
    gen, _, _, policy_cfg = acc.recipe(distributed)
    dag = _training_instance(gen, _instance_seed(0, 0, 0))
    assert len(dag.task_ids) >= 3
    t0, t1, t2 = dag.task_ids[:3]
    last = ("root", dag.n_sites - 1)
    plan = [  # region, rule candidates, the chosen candidate's index
        (t0, [("root", 0), ("task", t1), ("task", t2), last], 1),
        (t0, [("task", t2), ("task", t2), ("root", 0)], 2),
        (t1, [("task", t0), ("root", 0), ("task", t2)], 0),
        (t0, [("task", t2)], 0),
        (t2, [("task", t0), ("task", t1), last], 2),
    ]
    rewards = np.random.default_rng(seed).uniform(-1, 1, len(plan))
    traj = []
    for k, ((region, cands, pick), reward) in enumerate(zip(plan, rewards)):
        kind, ref = cands[pick]
        action = RewriteAction(region, ref if kind == "task" else None, ref if kind == "root" else 0)
        traj.append(TrajectoryStep(k, dag, action, reward, 0.0, 0.0, "noop", list(dag.task_ids), cands))
    return PolicyNet(replace(policy_cfg, hidden=hidden), seed=seed), traj


def _fd_check_losses(net, traj, rng, params=None, n_probe=4, h=1e-6, tol=1e-6):
    """Central finite differences of ``losses``, with the advantage frozen,
    against its tape gradient: at ``n_probe`` random entries and the
    steepest entry of each parameter named in ``params`` (all if None)."""
    tc = TrainConfig()
    delta = rng.uniform(-1, 1, len(traj))
    net.zero_grad()
    ag.backward(losses(net, traj, tc, delta=delta)[2])
    worst = 0.0
    for name in params or net.params:
        p = net.params[name]
        flat, g = p.value.ravel(), p.grad.ravel()
        probes = set(rng.choice(flat.size, min(n_probe, flat.size), replace=False))
        for i in sorted(probes | {int(np.argmax(np.abs(g)))}):
            keep = flat[i]
            flat[i] = keep + h
            up = float(losses(net, traj, tc, delta=delta)[2].value)
            flat[i] = keep - h
            dn = float(losses(net, traj, tc, delta=delta)[2].value)
            flat[i] = keep
            num = (up - dn) / (2 * h)
            worst = max(worst, abs(num - g[i]) / max(1.0, abs(num), abs(g[i])))
    assert worst < tol, worst


def _chosen(t):
    """The index of a step's chosen rule among its candidates."""
    a = t.action
    return t.rule_candidates.index(("root", a.parent_site) if a.parent_task is None else ("task", a.parent_task))


def test_single_linear_layer_closed_form():
    # each head's output bias: the region head's gets 2 ALPHA mean(q - G),
    # with q the chosen regions' scores as acting computes them; the rule
    # head's none, since adding one value to every logit leaves each
    # log-softmax as it is
    net, traj = _hand_built(distributed=False)
    net.zero_grad()
    ag.backward(losses(net, traj, TrainConfig())[2])
    q = np.array([net.region_scores(t.dag, [t.action.region])[0] for t in traj])
    g = discounted_returns(np.array([t.reward for t in traj]), TrainConfig().gamma)
    assert net.params["reg_b3"].grad[0] == pytest.approx(2.0 * ALPHA * np.mean(q - g), rel=1e-12)
    assert abs(net.params["rule_b3"].grad[0]) < 1e-14


def test_gather_rows_repeated_row():
    # one node is the region of three steps and a candidate parent in two
    # more: its state row's gradient accumulates from every gather of it
    net, traj = _hand_built(distributed=False)
    _fd_check_losses(net, traj, np.random.default_rng(6))


def test_gather_rows_pairs_share_first_row():
    # every (region, parent) pair of a step starts with the region's row;
    # on the five-site recipe, whose site roots are candidates too
    net, traj = _hand_built(distributed=True)
    _fd_check_losses(net, traj, np.random.default_rng(7))


def test_gather_rows_leading_columns():
    # the heads read the h half of each state row they gather: the state
    # table's gradient is zero in every c half and in every row not read
    for distributed in (False, True):
        net, traj = _hand_built(distributed)
        loss = losses(net, traj, TrainConfig())[2]
        ag.backward(loss)
        table, h, dag = loss.parents[0], net.config.hidden, traj[0].dag
        rows = net.encode(dag)  # a fresh memo numbers the rows as the loss did
        read = {rows[dag.node_of_task[t]] for t in dag.task_ids[:3]} | {rows[0], rows[dag.n_sites - 1]}
        assert np.all(table.grad[:, h:] == 0.0)
        assert set(np.flatnonzero(np.any(table.grad[:, :h] != 0.0, axis=1))) == read


def test_gather_rows_values_and_accumulation():
    # the head node's row scatter: pairs of rows, one row repeated, into
    # the leading three columns of four
    got = _scatter_rows(np.array([[2, 0], [2, 2]]), np.full((2, 6), 1.0 / 12), (3, 4))
    assert np.allclose(got * 12, [[1, 1, 1, 0], [0, 0, 0, 0], [3, 3, 3, 0]], rtol=0, atol=1e-15)
    # bit for bit np.add.at's sums, for single rows and for pairs
    rng = np.random.default_rng(12)
    for idx in (rng.integers(0, 9, 40), rng.integers(0, 9, (40, 2))):
        g = rng.normal(size=(40, idx.size // 40 * 5))
        want = np.zeros((9, 10))
        np.add.at(want, (idx, slice(0, 5)), g.reshape(idx.shape + (5,)))
        assert np.array_equal(_scatter_rows(idx, g, (9, 10)), want)


def test_segment_log_softmax_values():
    # each step's log-probability of its chosen rule, read off L_rule with a
    # one-hot advantage, is acting's log-softmax of the rule scores; the
    # single-candidate step's is exactly 0
    net, traj = _hand_built(distributed=False)
    for k, t in enumerate(traj):
        l_rule = losses(net, traj, TrainConfig(), delta=-np.eye(len(traj))[k])[1]
        want = log_softmax(net.rule_scores(t.dag, t.action.region, t.rule_candidates))[_chosen(t)]
        assert abs(l_rule - want) < 1e-12, k
        assert (l_rule == 0.0) == (len(t.rule_candidates) == 1), k


def test_segment_log_softmax_gradients():
    # the rule head alone, through segments of 4, 3 (two candidates tied),
    # 3, 1 and 3 candidates; the region loss does not reach its weights
    net, traj = _hand_built(distributed=False, hidden=16, seed=9)
    rule = [name for name in net.params if name.startswith("rule_")]
    _fd_check_losses(net, traj, np.random.default_rng(9), params=rule, n_probe=8)

def test_backward_rejects_nonscalar_and_nonfinite():
    v = ag.Tensor.param(np.ones(3))
    with pytest.raises(ValueError):
        ag.backward(v)
    bad = ag.Tensor.param(np.array(np.inf))
    with pytest.raises(FloatingPointError):
        ag.backward(bad)


def test_constant_loss_has_zero_gradient():
    w = ag.Tensor.param(np.ones(4))
    loss = dot(w, np.zeros(4))
    ag.backward(loss)
    assert np.all(w.grad == 0.0)


def test_grad_accumulates_across_backwards():
    w = ag.Tensor.param(np.array([1.0, 2.0]))
    for _ in range(3):
        ag.backward(dot(w, np.array([1.0, 1.0])))
    assert np.allclose(w.grad, [3.0, 3.0])
