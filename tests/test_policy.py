"""Schedule encoder, policy heads, actor-critic losses, checkpoints, and
trainer mechanics."""
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import acceptance_config as acc
from conftest import G, I, U, toy_scenario
from obsched import autograd as ag
from obsched.policy import (
    ALPHA,
    CheckpointError,
    PolicyConfig,
    PolicyNet,
    TrainConfig,
    _actor_critic,
    _instance_seed,
    _mlp,
    _node_rows,
    _training_instance,
    discounted_returns,
    learning_rate_at,
    load_checkpoint,
    log_softmax,
    losses,
    region_distribution,
    save_checkpoint,
)
from obsched.rewriter import SearchConfig, pc_at, rewrite_search
from obsched.schedule import Assignment, SchedulingContext, build_dag

CFG = PolicyConfig(hidden=8, n_filters=3, n_sites=1)


def _one_shot(net, memo):
    """The state table of an ``encode`` memo's rows, as one ``tree_lstm``
    forward."""
    p = net.params
    return ag.tree_lstm(*_node_rows(memo, net.config.d_in), p["enc_wx"], p["enc_wh"], p["enc_b"]).value


def _states(net, dag):
    """Each node's [h; c] state, from a fresh memo's one-shot table."""
    memo = {}
    rows = net.encode(dag, memo)
    return _one_shot(net, memo)[rows]


def build(scenario, triples):
    return build_dag(SchedulingContext(scenario), [Assignment(t, s, b) for t, s, b in triples])


def _scalar_lstm(wx, wh, b, x, h_in, c_in):
    """Loop-and-math.exp reimplementation of one LSTM step (the oracle)."""
    hsz = len(h_in)
    z = [
        sum(wx[r][k] * x[k] for k in range(len(x)))
        + sum(wh[r][k] * h_in[k] for k in range(hsz))
        + b[r]
        for r in range(4 * hsz)
    ]
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i = [sig(z[r]) for r in range(hsz)]
    f = [sig(z[hsz + r]) for r in range(hsz)]
    o = [sig(z[2 * hsz + r]) for r in range(hsz)]
    g = [math.tanh(z[3 * hsz + r]) for r in range(hsz)]
    c = [f[r] * c_in[r] + i[r] * g[r] for r in range(hsz)]
    h = [o[r] * math.tanh(c[r]) for r in range(hsz)]
    return h, c


class TestEncoder:
    def test_root_state_depends_only_on_biases(self):
        s = toy_scenario([(0, 5, U)])
        dag = build(s, [(0, 0, 0)])
        cfg = PolicyConfig(hidden=2, n_filters=3, n_sites=1)
        net = PolicyNet(cfg, seed=1)
        states = _states(net, dag)
        wx = net.params["enc_wx"].value
        wh = net.params["enc_wh"].value
        b = net.params["enc_b"].value
        h, c = _scalar_lstm(wx, wh, b, [0.0] * cfg.d_in, [0.0, 0.0], [0.0, 0.0])
        assert np.allclose(states[0], np.array(h + c))

    def test_diamond_parent_sum_against_scalar_oracle(self):
        # two tasks finish together at step 5; the third starts there and has
        # both as parents, so its input state is the elementwise sum
        s = toy_scenario([(0, 5, U), (0, 5, G), (0, 4, I)])
        dag = build(s, [(0, 0, 0), (1, 0, 0), (2, 0, 5)])
        n2 = dag.node_of_task[2]
        assert set(dag.parents[n2]) == {dag.node_of_task[0], dag.node_of_task[1]}

        cfg = PolicyConfig(hidden=2, n_filters=3, n_sites=1)
        net = PolicyNet(cfg, seed=3)
        states = _states(net, dag)
        from obsched.schedule import embedding_matrix

        emb = embedding_matrix(dag, e_max=cfg.e_max)
        wx = net.params["enc_wx"].value
        wh = net.params["enc_wh"].value
        b = net.params["enc_b"].value

        def node_state(x, parents):
            h_in = [sum(p[0][r] for p in parents) for r in range(2)] if parents else [0.0, 0.0]
            c_in = [sum(p[1][r] for p in parents) for r in range(2)] if parents else [0.0, 0.0]
            return _scalar_lstm(wx, wh, b, list(x), h_in, c_in)

        root = node_state(emb[0], [])
        h0c0 = node_state(emb[dag.node_of_task[0]], [root])
        h1c1 = node_state(emb[dag.node_of_task[1]], [root])
        h2c2 = node_state(emb[n2], [h0c0, h1c1])
        assert np.allclose(states[n2], np.array(h2c2[0] + h2c2[1]), atol=1e-12)

    def test_parent_order_invariance(self):
        s = toy_scenario([(0, 5, U), (0, 5, G), (0, 4, I)])
        dag = build(s, [(0, 0, 0), (1, 0, 0), (2, 0, 5)])
        net = PolicyNet(CFG, seed=0)
        a = _states(net, dag)
        hacked_parents = tuple(
            tuple(reversed(p)) for p in dag.parents
        )
        from obsched.schedule import ScheduleDag

        dag2 = ScheduleDag(dag.ctx, dag.rows, dag.site, dag.start, dag.eta, hacked_parents, dag.profile)
        assert np.allclose(a, _states(net, dag2))

    def test_cycle_raises(self):
        s = toy_scenario([(0, 5, U), (0, 5, G)])
        dag = build(s, [(0, 0, 0), (1, 0, 0)])
        from obsched.schedule import ScheduleDag

        parents = list(dag.parents)
        parents[1] = (2,)
        parents[2] = (1,)
        dag2 = ScheduleDag(dag.ctx, dag.rows, dag.site, dag.start, dag.eta, tuple(parents), dag.profile)
        net = PolicyNet(CFG, seed=0)
        with pytest.raises(ValueError):
            net.encode(dag2)

    def test_parameters_initialized_in_range(self):
        net = PolicyNet(CFG, seed=9)
        for p in net.params.values():
            assert np.all(np.abs(p.value) <= 0.1)


class TestDistributions:
    def test_softmax_of_equal_scores_is_uniform(self):
        p = region_distribution(np.zeros(7))
        assert np.allclose(p, 1 / 7)

    def test_single_candidate(self):
        assert region_distribution(np.array([3.3])) == pytest.approx([1.0])

    def test_two_score_case(self):
        p = region_distribution(np.array([1.0, 2.0]))
        assert p[0] == pytest.approx(0.2689, abs=1e-4)
        assert p[1] == pytest.approx(0.7311, abs=1e-4)

    def test_shift_invariance(self):
        q = np.array([0.3, -1.0, 2.2, 0.0])
        assert np.allclose(region_distribution(q), region_distribution(q + 123.4))

    def test_rule_distribution_uniform_for_identical_candidates(self):
        s = toy_scenario([(0, 5, U), (5, 5, U)])
        dag = build(s, [(0, 0, 0), (1, 0, 5)])
        net = PolicyNet(CFG, seed=0)
        logits = net.rule_scores(dag, 1, [("root", 0), ("root", 0), ("root", 0)])
        p = np.exp(logits - np.max(logits))
        p /= p.sum()
        assert np.allclose(p, 1 / 3)

    def test_pick_rule_single_candidate_is_certain(self):
        s = toy_scenario([(0, 5, U), (5, 5, U)])
        dag = build(s, [(0, 0, 0), (1, 0, 5)])
        net = PolicyNet(CFG, seed=0)
        choice = net.pick_rule(dag, 1, [("root", 0)], np.random.default_rng(0))
        assert choice == ("root", 0)
        assert np.exp(log_softmax(net.rule_scores(dag, 1, [choice]))[0]) == pytest.approx(1.0)


def _fcfs_dag(gen_cfg, seed):
    from obsched.heuristics import schedule_fcfs_list
    from obsched.scenario import generate_scenario

    dag, _ = schedule_fcfs_list(SchedulingContext(generate_scenario(gen_cfg, seed)))
    assert len(dag.rows) >= 3
    return dag


def _numpy_mlp_top(p, pre, prefix):
    """Layers 2 and 3 of a head, from its first layer's pre-activation."""
    x = np.where(pre > 0.0, pre, 0.0)
    x = x @ p[prefix + "_w2"].T + p[prefix + "_b2"]
    x = np.where(x > 0.0, x, 0.0)
    return (x @ p[prefix + "_w3"].T + p[prefix + "_b3"])[:, 0]


def _numpy_heads(net, dag, regions, region, rule_cands):
    """The heads as plain numpy in their once-per-dag form: the region head
    over every node's first H state entries, then indexed; the rule head's
    first layer split into its region half (plus its bias) and its parent
    half, each applied to every node, then one region row added to the
    candidates' rows and passed through the last two linears and relus."""
    h = net.config.hidden
    x = _states(net, dag)[:, :h]
    p = {k: v.value for k, v in net.params.items()}
    q_all = _numpy_mlp_top(p, x @ p["reg_w1"].T + p["reg_b1"], "reg")
    a = x @ p["rule_w1"][:, :h].T + p["rule_b1"]
    b = x @ p["rule_w1"][:, h:].T
    nodes = [ref if kind == "root" else dag.node_of_task[ref] for kind, ref in rule_cands]
    q = q_all[[dag.node_of_task[t] for t in regions]]
    return q, _numpy_mlp_top(p, a[dag.node_of_task[region]] + b[nodes], "rule")


def _concatenated_heads(net, dag, regions, region, rule_cands):
    """The heads in the loss's form: each candidate's first H state
    entries, concatenated after the region's for the rule head, through
    the full first linear layer."""
    h = net.config.hidden
    states = _states(net, dag)
    p = {k: v.value for k, v in net.params.items()}

    def mlp(rows, prefix):
        return _numpy_mlp_top(p, rows @ p[prefix + "_w1"].T + p[prefix + "_b1"], prefix)

    q = mlp(np.stack([states[dag.node_of_task[t]][:h] for t in regions]), "reg")
    region_h = states[dag.node_of_task[region]][:h]
    nodes = [ref if kind == "root" else dag.node_of_task[ref] for kind, ref in rule_cands]
    u = mlp(np.stack([np.concatenate([region_h, states[n][:h]]) for n in nodes]), "rule")
    return q, u


HEAD_CASES = pytest.mark.parametrize(
    "gen_kw, seed",
    [
        (dict(horizon_steps=240, arrival_prob=0.10, mode_exposure_count_frac=0.0), 3),
        (dict(horizon_steps=60, arrival_prob=0.25, mode_exposure_count_frac=0.0, num_sites=5), 4),
    ],
    ids=["intra", "five-site"],
)


def _head_case(gen_kw, seed):
    """(net, dag, candidate regions, [(region, rule candidates)]) for a
    hidden-64 net on an FCFS dag: the first three and last two regions."""
    from obsched.rewriter import candidate_parents, candidate_regions
    from obsched.scenario import GenConfig

    gen = GenConfig(**gen_kw)
    dag = _fcfs_dag(gen, seed)
    cfg = PolicyConfig(hidden=64, n_filters=3, n_sites=gen.num_sites, distributed=gen.num_sites > 1)
    regions = candidate_regions(dag)
    rules = [(r, candidate_parents(dag, r) + [("root", 0)]) for r in regions[:3] + regions[-2:]]
    return PolicyNet(cfg, seed=2), dag, regions, rules


class TestHeads:
    @HEAD_CASES
    def test_scores_bitwise_equal_numpy_composition(self, gen_kw, seed):
        net, dag, regions, rules = _head_case(gen_kw, seed)
        for region, rule_cands in rules:
            q, u = _numpy_heads(net, dag, regions, region, rule_cands)
            assert np.array_equal(net.region_scores(dag, regions), q)
            assert np.array_equal(net.rule_scores(dag, region, rule_cands), u)

    @HEAD_CASES
    def test_scores_match_the_concatenated_first_layer(self, gen_kw, seed):
        # splitting the first layer is exact algebra: only rounding moves
        net, dag, regions, rules = _head_case(gen_kw, seed)
        for region, rule_cands in rules:
            q, u = _concatenated_heads(net, dag, regions, region, rule_cands)
            np.testing.assert_allclose(net.region_scores(dag, regions), q, rtol=1e-12, atol=0)
            np.testing.assert_allclose(net.rule_scores(dag, region, rule_cands), u, rtol=1e-12, atol=0)

    def test_tape_has_no_per_candidate_nodes(self):
        # exactly two non-leaf nodes per trajectory, whatever its steps, dags
        # and candidates: the tree-LSTM node and the head-and-loss node
        census = {"tree_lstm": 1, "losses": 1}
        shapes = set()
        for distributed in (False, True):
            gen, train_cfg, search_cfg, policy_cfg = acc.recipe(distributed)
            net = PolicyNet(replace(policy_cfg, hidden=16), seed=5)
            rollout_cfg = replace(search_cfg, num_steps=train_cfg.episode_len)
            for k in range(4):
                dag0 = _training_instance(gen, _instance_seed(0, 0, k))
                rng = np.random.default_rng(np.random.SeedSequence([0, 0, k, 777]))
                _, traj = rewrite_search(dag0, net, rollout_cfg, rng, pc=pc_at(0))
                ops, table = _op_census(losses(net, traj, train_cfg)[2])
                assert ops == census, ops
                # the one node holds each distinct node of the trajectory's dags once
                dags = {id(t.dag): t.dag for t in traj}.values()
                memo: dict = {}
                for dag in dags:
                    net.encode(dag, memo)
                assert len(table.value) == len(memo) <= sum(d.n_nodes for d in dags)
                shapes.add((len(dags), len(memo), sum(len(t.rule_candidates) for t in traj)))
        # trajectories of differing distinct dags, rows and candidates alike
        assert all(len({shape[i] for shape in shapes}) > 1 for i in range(3))


def _op_census(loss):
    """Op name -> node count over the tape behind ``loss``, and its tree-LSTM node."""
    ops: dict[str, int] = {}
    table = None
    seen, stack = {id(loss)}, [loss]
    while stack:
        node = stack.pop()
        if node.vjp is not None:
            op = node.vjp.__qualname__.split(".")[0]
            ops[op] = ops.get(op, 0) + 1
            table = node if op == "tree_lstm" else table
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return ops, table


def _shared_nodes(net, traj):
    """(distinct memo keys, total nodes) over a trajectory's distinct dags,
    which must be at least two."""
    dags = list({id(s.dag): s.dag for s in traj}.values())
    assert len(dags) >= 2
    memo = {}
    for dag in dags:
        net.encode(dag, memo)
    return len(memo), sum(d.n_nodes for d in dags)


def stub_actor_critic(rewards, q, logps, config):
    """(L_region, L_rule, combined) of ``_actor_critic`` on constant
    chosen-region scores and chosen-rule log-probabilities, one per step."""
    qs = np.asarray(q, dtype=float)
    lps = np.asarray(logps, dtype=float)
    return _actor_critic(qs, lps, np.asarray(rewards, dtype=float), config)[:3]


class TestLosses:
    def test_perfect_critic_gives_zero_loss(self):
        lw, lu, total = stub_actor_critic([2.0], q=[2.0], logps=[0.0], config=TrainConfig())
        assert lw == pytest.approx(0.0)
        assert lu == pytest.approx(0.0)
        assert total == pytest.approx(0.0)

    def test_two_step_hand_computed_case(self):
        # rewards (1,1), gamma 0.9, Q=(0,0): G=(1.9,1.0), L_w=(1.9^2+1)/2
        lw, lu, total = stub_actor_critic(
            [1.0, 1.0], q=[0.0, 0.0], logps=[0.0, 0.0], config=TrainConfig(gamma=0.9)
        )
        assert lw == pytest.approx(2.305)
        assert total == pytest.approx(lu + 10.0 * 2.305)

    def test_zero_rewards_zero_critic(self):
        lw, lu, total = stub_actor_critic([0.0] * 3, q=[0.0] * 3, logps=[0.0] * 3, config=TrainConfig())
        assert lw == 0.0
        assert lu == 0.0

    def test_gamma_zero_reduces_returns_to_rewards(self):
        r = np.array([3.0, -1.0, 2.0])
        assert np.allclose(discounted_returns(r, 0.0), r)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            losses(PolicyNet(CFG), [], TrainConfig())

    def test_advantage_is_detached_from_rule_loss(self):
        # the chosen-region scores get the region loss's gradient alone: the
        # advantage that weights the rule loss passes none back to them
        q = np.array([0.7, -0.3])
        lps = log_softmax(np.array([0.1, -0.2]))
        rewards = np.array([1.0, 0.5])
        _, _, _, dq, dlogp = _actor_critic(q, lps, rewards, TrainConfig())
        g = discounted_returns(rewards, TrainConfig().gamma)
        np.testing.assert_allclose(dq, ALPHA * (q - g), rtol=1e-15, atol=0)  # 2 (q - g) / 2 steps
        np.testing.assert_allclose(dlogp, q - g, rtol=1e-15, atol=0)

    def test_actor_critic_matches_finite_differences(self):
        # with the advantage frozen, as a finite-difference oracle needs it
        rng = np.random.default_rng(5)
        args = [rng.uniform(-1, 1, 5), rng.uniform(-2, 0, 5)]  # q, logps
        rewards, delta = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)
        grads = _actor_critic(*args, rewards, TrainConfig(), delta)[3:]
        for x, g in zip(args, grads):
            for i in range(x.size):
                keep = x[i]
                x[i] = keep + 1e-6
                up = _actor_critic(*args, rewards, TrainConfig(), delta)[2]
                x[i] = keep - 1e-6
                dn = _actor_critic(*args, rewards, TrainConfig(), delta)[2]
                x[i] = keep
                num = (up - dn) / 2e-6
                assert abs(num - g[i]) < 1e-6 * max(1.0, abs(num), abs(g[i])), i


class TestTapeFreeActing:
    def _trajectory(self, net):
        from obsched.scenario import GenConfig

        dag0 = _fcfs_dag(GenConfig(horizon_steps=60, arrival_prob=0.25, mode_exposure_count_frac=0.0), 12)
        _, traj = rewrite_search(dag0, net, SearchConfig(num_steps=8), np.random.default_rng(0), pc=0.5)
        return traj

    def test_search_leaves_no_tensor_in_its_steps(self):
        traj = self._trajectory(PolicyNet(CFG, seed=0))

        def tensors(v):
            if isinstance(v, (list, tuple)):
                return sum(tensors(x) for x in v)
            return int(isinstance(v, ag.Tensor))

        assert traj and all(tensors(list(vars(t).values())) == 0 for t in traj)

    def test_scores_record_no_tape(self):
        net = PolicyNet(CFG, seed=0)
        t = self._trajectory(net)[0]
        for scores in (
            net.region_scores(t.dag, t.region_candidates),
            net.rule_scores(t.dag, t.action.region, t.rule_candidates),
        ):
            assert type(scores) is np.ndarray

    def test_acting_then_loss_matches_a_fresh_net(self):
        # acting leaves a tapeless encoding cached; the loss must not use it
        net = PolicyNet(CFG, seed=0)
        traj = self._trajectory(net)
        net.pick_rule(traj[0].dag, traj[0].action.region, traj[0].rule_candidates, np.random.default_rng(1))
        fresh = PolicyNet(CFG, seed=0)
        for n in (net, fresh):
            n.zero_grad()
            ag.backward(losses(n, traj, TrainConfig())[2])
        for name in ("enc_wx", "enc_wh", "enc_b"):
            assert np.any(fresh.params[name].grad != 0.0), name
            assert np.array_equal(net.params[name].grad, fresh.params[name].grad), name
        assert np.array_equal(net.grad_flat(), fresh.grad_flat())


class TestNodeStateMemo:
    """Acting reuses node states across the dags of one scheduling
    context; each reused state must be the one a fresh encode computes."""

    @staticmethod
    def _checked(net):
        """Wrap the net's acting encoder so that every state matrix it hands
        the heads is compared, bit for bit, with a one-shot ``tree_lstm``
        forward over a fresh memo of the dag; returns a (dag, node count)
        pair per dag checked."""
        seen = []
        acting = net._encoding

        def checked(dag):
            out = acting(dag)
            if not seen or seen[-1][0] is not dag:
                assert np.array_equal(out, _states(net, dag))
                seen.append((dag, dag.n_nodes))
            return out

        net._encoding = checked
        return seen

    def _intra_dags(self):
        from obsched.scenario import GenConfig

        gen = GenConfig(horizon_steps=60, arrival_prob=0.25, mode_exposure_count_frac=0.0)
        return _fcfs_dag(gen, 12), _fcfs_dag(gen, 3)

    def test_online_roars_encodings_match_fresh_encodes(self):
        from obsched.cli import run_online
        from obsched.scenario import GenConfig, generate_scenario

        gen = GenConfig(horizon_steps=240, arrival_prob=0.10, mode_exposure_count_frac=0.0, num_sites=5)
        net = PolicyNet(PolicyConfig(hidden=16, n_filters=3, n_sites=5, distributed=True), seed=0)
        seen = self._checked(net)
        dag, _ = run_online(generate_scenario(gen, 1), "roars", net=net, replan_steps=10)
        assert len(dag.rows) >= 5 and len(seen) >= 20
        # most nodes were reused, so the check above covered the memo
        assert len(net._memo[1]) < sum(n for _, n in seen) / 4
        self._assert_table_is_one_shot(net)

    @staticmethod
    def _assert_table_is_one_shot(net):
        """Acting's state table, grown dag by dag, equals one ``tree_lstm``
        forward over its memo's rows, bit for bit."""
        _, memo, table = net._memo
        assert np.array_equal(table[: len(memo)], _one_shot(net, memo))

    def test_training_rollout_encodings_match_fresh_encodes(self):
        gen, train_cfg, search_cfg, policy_cfg = acc.recipe(distributed=False)
        net = PolicyNet(replace(policy_cfg, hidden=16), seed=5)
        seen = self._checked(net)
        memo_sizes = 0
        for k in range(8):
            dag0 = _training_instance(gen, _instance_seed(0, 0, k))
            rng = np.random.default_rng(np.random.SeedSequence([0, 0, k, 777]))
            rollout_cfg = replace(search_cfg, num_steps=train_cfg.episode_len)
            rewrite_search(dag0, net, rollout_cfg, rng, pc=pc_at(0))
            memo_sizes += len(net._memo[1])
            self._assert_table_is_one_shot(net)
        assert len(seen) >= 10
        assert memo_sizes < sum(n for _, n in seen)

    def test_set_flat_drops_the_memo(self):
        dag, _ = self._intra_dags()
        regions = dag.task_ids
        net, other = PolicyNet(CFG, seed=0), PolicyNet(CFG, seed=1)
        net.region_scores(dag, regions)
        assert net._memo is not None and net._memo[1]
        net.set_flat(other.flat())
        assert net._memo is None
        assert np.array_equal(net.region_scores(dag, regions), other.region_scores(dag, regions))

    def test_a_new_context_starts_an_empty_memo(self):
        dag_a, dag_b = self._intra_dags()
        net, fresh = PolicyNet(CFG, seed=0), PolicyNet(CFG, seed=0)
        net.region_scores(dag_a, dag_a.task_ids[:1])
        for n in (net, fresh):
            n.region_scores(dag_b, dag_b.task_ids[:1])
        assert net._memo[0] is dag_b.ctx
        assert len(net._memo[1]) == len(fresh._memo[1]) > 0

    def test_loss_through_shared_nodes_matches_finite_differences(self):
        # three distinct dags share most of their nodes, so most encoder
        # cells feed the loss through several dags' rows
        from obsched.scenario import GenConfig

        dag0 = _fcfs_dag(GenConfig(horizon_steps=60, arrival_prob=0.25, mode_exposure_count_frac=0.0), 13)
        net = PolicyNet(CFG, seed=0)
        tc = TrainConfig(episode_len=8)
        _, traj = rewrite_search(dag0, net, SearchConfig(num_steps=8), np.random.default_rng(0), pc=0.5)
        keys, n_nodes = _shared_nodes(net, traj)
        assert keys < n_nodes / 2
        delta = discounted_returns(np.array([t.reward for t in traj]), tc.gamma) - np.array(
            [net.region_scores(t.dag, [t.action.region])[0] for t in traj]
        )
        net.zero_grad()
        ag.backward(losses(net, traj, tc, delta=delta)[2])
        flat, grad = net.flat(), net.grad_flat()

        def f(v):
            n2 = PolicyNet(CFG, init=False)
            n2.set_flat(v)
            return float(losses(n2, traj, tc, delta=delta)[2].value)

        # the encoder's weights come first in the flat vector; its 30
        # steepest entries each take a share of the gradient from every dag
        n_enc = sum(net.params[k].value.size for k in ("enc_wx", "enc_wh", "enc_b"))
        steepest = np.argsort(-np.abs(grad[:n_enc]), kind="stable")[:30]
        for i in np.concatenate([steepest, np.random.default_rng(6).choice(flat.size, 10, replace=False)]):
            e = np.zeros_like(flat)
            e[i] = 1e-5
            num = (f(flat + e) - f(flat - e)) / 2e-5
            assert abs(num - grad[i]) < 1e-6 * max(1.0, abs(num), abs(grad[i])), i


class TestPerDagScores:
    """Acting computes the head tables once per dag it acts on; each step
    only indexes them and runs the rule head's last two layers."""

    def test_heads_run_once_per_distinct_dag(self, monkeypatch):
        gen, train_cfg, search_cfg, policy_cfg = acc.recipe(distributed=False)
        net = PolicyNet(replace(policy_cfg, hidden=16), seed=5)
        passes, encoded = [], []
        encoding = net._encoding

        def counted_top(p, prefix, pre):
            passes.append((prefix, len(pre)))
            return _mlp(p, prefix, pre)

        def counted_encoding(dag):
            encoded.append(dag)
            return encoding(dag)

        monkeypatch.setattr("obsched.policy._mlp", counted_top)
        net._encoding = counted_encoding
        dag0 = _training_instance(gen, _instance_seed(0, 0, 1))
        rng = np.random.default_rng(np.random.SeedSequence([0, 0, 1, 777]))
        rollout_cfg = replace(search_cfg, num_steps=train_cfg.episode_len)
        _, traj = rewrite_search(dag0, net, rollout_cfg, rng, pc=pc_at(0))
        dags = list({id(t.dag): t.dag for t in traj}.values())
        assert len(traj) == 25 and 2 <= len(dags) < len(traj) / 2
        assert encoded == dags
        # the region head over every node, once per dag
        assert [n for k, n in passes if k == "reg"] == [d.n_nodes for d in dags]
        # the rule head's last two layers, once per step on its candidates
        assert [n for k, n in passes if k == "rule"] == [len(t.rule_candidates) for t in traj]

    def test_set_flat_drops_the_tables(self):
        from obsched.rewriter import candidate_parents
        from obsched.scenario import GenConfig

        dag = _fcfs_dag(GenConfig(horizon_steps=60, arrival_prob=0.25, mode_exposure_count_frac=0.0), 12)
        regions = dag.task_ids
        rule_cands = candidate_parents(dag, regions[-1])
        net, other = PolicyNet(CFG, seed=0), PolicyNet(CFG, seed=1)

        def scores(n):
            return n.region_scores(dag, regions), n.rule_scores(dag, regions[-1], rule_cands)

        before = scores(net)
        net.set_flat(other.flat())
        after, fresh = scores(net), scores(other)
        for b, a, f in zip(before, after, fresh):
            assert not np.array_equal(b, a)
            assert np.array_equal(a, f)


class TestGradientPipeline:
    def test_full_pipeline_matches_finite_differences(self):
        from obsched.heuristics import TaskRule, schedule_online_heuristic
        from obsched.scenario import GenConfig, generate_scenario

        gen = GenConfig(horizon_steps=60, arrival_prob=0.25, mode_exposure_count_frac=0.0)
        s = generate_scenario(gen, 12)
        ctx = SchedulingContext(s)
        dag0, _ = schedule_online_heuristic(ctx, TaskRule.FCFS, None)
        assert len(dag0.rows) >= 2

        net = PolicyNet(CFG, seed=0)
        tc = TrainConfig(episode_len=8)
        _, traj = rewrite_search(
            dag0, net, SearchConfig(num_steps=8), np.random.default_rng(0), pc=0.5
        )
        g_ret = discounted_returns(np.array([t.reward for t in traj]), tc.gamma)
        q0 = np.array([net.region_scores(t.dag, [t.action.region])[0] for t in traj])
        delta0 = g_ret - q0

        net.zero_grad()
        _, _, total = losses(net, traj, tc, delta=delta0)
        ag.backward(total)
        flat = net.flat()
        grad = net.grad_flat()

        def f(v):
            n2 = PolicyNet(CFG, init=False)
            n2.set_flat(v)
            _, _, l2 = losses(n2, traj, tc, delta=delta0)
            return float(l2.value)

        rng = np.random.default_rng(5)
        for i in rng.choice(flat.size, 50, replace=False):
            e = np.zeros_like(flat)
            e[i] = 1e-5
            num = (f(flat + e) - f(flat - e)) / 2e-5
            a = grad[i]
            assert abs(num - a) < 1e-4 * max(1.0, abs(num), abs(a))


class TestRolloutPin:
    """The actions of seeded training rollouts, drawn as a trainer worker
    draws them: 8 instances of each acceptance recipe at hidden 16,
    hashed as (region, rule, status) per step."""

    EXPECTED = {
        "intra": "3c0cbf8fc7f890db71101d2952003d289140588d8ecead6c0f3e92abedf58866",
        "dist": "1177761fd221f9045a21b9e2842006ed4c9a4beac32064026e1b6cd339125bad",
    }

    @pytest.mark.parametrize("name", ["intra", "dist"])
    def test_rollout_sha256(self, name):
        gen, train_cfg, search_cfg, policy_cfg = acc.recipe(distributed=name == "dist")
        net = PolicyNet(replace(policy_cfg, hidden=16), seed=5)
        rollout_cfg = replace(search_cfg, num_steps=train_cfg.episode_len)
        digest = hashlib.sha256()
        steps = 0
        for k in range(8):
            dag0 = _training_instance(gen, _instance_seed(0, 0, k))
            rng = np.random.default_rng(np.random.SeedSequence([0, 0, k, 777]))
            _, traj = rewrite_search(dag0, net, rollout_cfg, rng, pc=pc_at(0))
            for t in traj:
                a = t.action
                rule = f"root{a.parent_site}" if a.parent_task is None else a.parent_task
                digest.update(f"{k} {a.region} {rule} {t.status}\n".encode())
            steps += len(traj)
        assert steps == 8 * train_cfg.episode_len
        assert digest.hexdigest() == self.EXPECTED[name]


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        net = PolicyNet(CFG, seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path, train_step=17)
        loaded, step = load_checkpoint(path)
        assert step == 17
        assert loaded.config == CFG
        assert np.array_equal(loaded.flat(), net.flat())

    @pytest.mark.parametrize("extra", [3, -3])
    def test_wrong_size_vector_changes_no_weight(self, extra):
        net = PolicyNet(CFG, seed=4)
        before = net.flat()
        with pytest.raises(CheckpointError, match="size mismatch"):
            net.set_flat(np.ones(before.size + extra))
        assert np.array_equal(net.flat(), before)

    def test_truncated_file_rejected(self, tmp_path):
        net = PolicyNet(CFG, seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        net = PolicyNet(CFG, seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path)
        with pytest.raises(CheckpointError, match="mismatch"):
            load_checkpoint(path, config=PolicyConfig(hidden=16, n_filters=3, n_sites=1))

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"\x00\x01\x02 not json\n\x00" * 10)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("e_max", None),
            ("hidden", "8"),
            ("hidden", 8.0),
            ("hidden", True),
            ("n_sites", 0),
            ("d_in", None),
            ("train_step", "x"),
            ("train_step", -1),
            ("train_step", None),
            ("distributed", 1),
            ("distributed", None),
        ],
    )
    def test_bad_header_field_is_named(self, tmp_path, field, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(PolicyNet(CFG, seed=4), path)
        header_line, blob = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        if value is None:
            del header[field]
        else:
            header[field] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(CheckpointError, match=f"^bad checkpoint header: ({field}: must be |missing field '{field}'$)"):
            load_checkpoint(path)

    def test_non_object_header_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"[1, 2]\n")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)


class TestTrainerMechanics:
    def test_learning_rate_schedule(self):
        assert learning_rate_at(0) == pytest.approx(1e-4)
        assert learning_rate_at(2500) == pytest.approx(1e-4 * 0.9**2)
        assert learning_rate_at(999) == pytest.approx(1e-4)

    def test_single_worker_training_is_reproducible(self):
        from obsched.scenario import GenConfig
        from obsched.policy import train

        gen = GenConfig(horizon_steps=60, arrival_prob=0.25, mode_exposure_count_frac=0.0)
        tc = TrainConfig(batch=2, episode_len=5, steps=2)
        sc = SearchConfig(num_steps=10)
        n1, _ = train(gen, tc, sc, CFG, seed=11, workers=1, val_every=100, val_instances=1)
        n2, _ = train(gen, tc, sc, CFG, seed=11, workers=1, val_every=100, val_instances=1)
        assert np.array_equal(n1.flat(), n2.flat())

    def test_two_worker_training_is_reproducible(self):
        from obsched.scenario import GenConfig
        from obsched.policy import train

        gen = GenConfig(horizon_steps=60, arrival_prob=0.25, mode_exposure_count_frac=0.0)
        tc = TrainConfig(batch=4, episode_len=5, steps=2)
        sc = SearchConfig(num_steps=10)
        n1, _ = train(gen, tc, sc, CFG, seed=11, workers=2, val_every=100, val_instances=1)
        n2, _ = train(gen, tc, sc, CFG, seed=11, workers=2, val_every=100, val_instances=1)
        assert np.array_equal(n1.flat(), n2.flat())

    def test_no_validation_returns_and_checkpoints_the_latest_weights(self, tmp_path):
        # with no finite validation value the final parameters stand in for
        # the best; a run whose one evaluation is finite keeps the same ones
        from obsched.scenario import GenConfig
        from obsched.policy import train

        gen = GenConfig(horizon_steps=60, arrival_prob=0.25, mode_exposure_count_frac=0.0)
        tc = TrainConfig(batch=2, episode_len=5, steps=2)
        sc = SearchConfig(num_steps=10)
        latest, _ = train(gen, tc, sc, CFG, seed=11, workers=1, val_every=100, val_instances=1)
        path = tmp_path / "m.ckpt"
        net, curve = train(
            gen, tc, sc, CFG, seed=11, workers=1, val_every=100, val_instances=0, checkpoint_path=path
        )
        assert [r["step"] for r in curve] == [2] and math.isnan(curve[0]["val_slowdown"])
        assert not np.array_equal(net.flat(), PolicyNet(CFG, seed=11).flat())
        assert np.array_equal(net.flat(), latest.flat())
        saved, step = load_checkpoint(path)
        assert step == 2 and np.array_equal(saved.flat(), latest.flat())

    def test_checkpoint_is_the_best_validation_weights_written_once_per_evaluation(
        self, tmp_path, monkeypatch
    ):
        from obsched import policy
        from obsched.scenario import GenConfig

        saved_steps = []

        def counted_save(net, path, train_step=0):
            saved_steps.append(train_step)
            save_checkpoint(net, path, train_step)

        monkeypatch.setattr(policy, "save_checkpoint", counted_save)
        gen = GenConfig(horizon_steps=60, arrival_prob=0.25, mode_exposure_count_frac=0.0)
        tc = TrainConfig(batch=2, episode_len=5, steps=3)
        path, curve_path = tmp_path / "m.ckpt", tmp_path / "curve.csv"
        net, curve = policy.train(
            gen, tc, SearchConfig(num_steps=10), CFG, seed=11, workers=1, val_every=1,
            val_instances=2, checkpoint_path=path, curve_path=curve_path,
        )
        saved, step = load_checkpoint(path)
        assert np.array_equal(saved.flat(), net.flat())
        rows = [line.split(",") for line in curve_path.read_text().splitlines()[1:]]
        vals = [float(r[4]) for r in rows]
        assert len(rows) == 3 and all(np.isfinite(vals))
        assert step == int(rows[vals.index(min(vals))][0])
        assert len(saved_steps) == len(curve) == 3 and saved_steps[-1] == step

    def test_negative_validation_count_is_named(self):
        from obsched.scenario import GenConfig, ScenarioError
        from obsched.policy import train

        with pytest.raises(ScenarioError, match=r"^val_instances: must be an integer >= 0, got -3$"):
            train(
                GenConfig(horizon_steps=60, arrival_prob=0.25, mode_exposure_count_frac=0.0),
                TrainConfig(batch=2, episode_len=5, steps=1),
                SearchConfig(num_steps=10),
                CFG,
                workers=1,
                val_instances=-3,
            )
