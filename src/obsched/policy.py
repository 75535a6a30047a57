"""Learned rewriting policy: a child-sum tree-LSTM over the schedule DAG,
a region-scoring head whose softmax is the region-picking policy, a rule
head scoring (region, candidate-parent) pairs, the actor-critic loss,
and the training loop.

The critic is the region score itself, regressed on the full discounted
return; the rule head is trained by advantage-weighted log-likelihood.
``encode`` only keys a dag's nodes to rows of a table of distinct node
states; one LSTM kernel, ``autograd.lstm_rows``, fills that table for
acting and learning alike, and one numpy function, ``_mlp``, runs the
heads' last two layers for both.  Acting is plain numpy: it grows one
table per scheduling context, and scores each dag once, when it first
encodes it: the region head runs over every node, and the rule head's
first layer is split into its region and parent halves, each applied to
every node, so a step only indexes the region scores and runs the rule
head's last two layers on its candidates.  The one loss, ``losses``,
replays each trajectory in one batched pass and records two nodes on the
package's reverse-mode tape (see autograd): one ``tree_lstm`` node over
the trajectory's distinct nodes, and one head-and-loss node whose
hand-written vjp runs both heads backward through ``_mlp_vjp``.  The
tape's ``Tensor`` and ``backward`` remain for perfbench's bindings, which
wrap ``autograd.backward`` and walk ``loss.parents``.
"""
from __future__ import annotations

import json
import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from itertools import islice

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .heuristics import schedule_fcfs_list
from .rewriter import SearchConfig, TrajectoryStep, pc_at, rewrite_search
from .scenario import GenConfig, generate_scenario, read_field
from .schedule import (
    DEFAULT_E_MAX,
    ScheduleDag,
    SchedulingContext,
    average_slowdown,
    embedding_length,
    embedding_matrix,
    total_slowdown,
)

__all__ = [
    "PolicyConfig",
    "TrainConfig",
    "PolicyNet",
    "CheckpointError",
    "losses",
    "discounted_returns",
    "learning_rate_at",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_header",
]

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class PolicyConfig:
    """Network dimensions; ``d_in`` is fixed by the embedding layout."""

    hidden: int = 64
    n_filters: int = 3
    n_sites: int = 1
    e_max: int = DEFAULT_E_MAX
    distributed: bool = False

    def __post_init__(self):
        for name in ("hidden", "n_filters", "n_sites", "e_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be an integer >= 1, got {getattr(self, name)!r}")

    @property
    def d_in(self) -> int:
        return embedding_length(self.n_filters, self.e_max, self.n_sites, self.distributed)


#: the published region-loss weight, learning-rate schedule and Adam settings
ALPHA = 10.0
LR = 1e-4
LR_DECAY = 0.9
LR_DECAY_EVERY = 1000
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Trainer hyperparameters.

    The discount and batch size are the published settings;
    ``episode_len`` is the rollout length used while training (evaluation
    rollouts use the search config's step budget).
    """

    gamma: float = 0.9
    batch: int = 128
    episode_len: int = 25
    steps: int = 2000

    def __post_init__(self):
        for name in ("gamma", "batch", "episode_len", "steps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def learning_rate_at(step: int) -> float:
    return LR * LR_DECAY ** (step // LR_DECAY_EVERY)


_PARAM_SPECS = [
    ("enc_wx", lambda h, d: (4 * h, d)),
    ("enc_wh", lambda h, d: (4 * h, h)),
    ("enc_b", lambda h, d: (4 * h,)),
    ("reg_w1", lambda h, d: (h, h)),
    ("reg_b1", lambda h, d: (h,)),
    ("reg_w2", lambda h, d: (h, h)),
    ("reg_b2", lambda h, d: (h,)),
    ("reg_w3", lambda h, d: (1, h)),
    ("reg_b3", lambda h, d: (1,)),
    ("rule_w1", lambda h, d: (h, 2 * h)),
    ("rule_b1", lambda h, d: (h,)),
    ("rule_w2", lambda h, d: (h, h)),
    ("rule_b2", lambda h, d: (h,)),
    ("rule_w3", lambda h, d: (1, h)),
    ("rule_b3", lambda h, d: (1,)),
]


class PolicyNet:
    """Parameters plus the forward passes; implements the search-policy
    protocol (pick_region / pick_rule) used by rewrite_search."""

    def __init__(self, config: PolicyConfig, seed: int = 0, init: bool = True):
        self.config = config
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed)
        for name, shape_fn in _PARAM_SPECS:
            shape = shape_fn(config.hidden, config.d_in)
            value = rng.uniform(-0.1, 0.1, size=shape) if init else np.zeros(shape)
            self.params[name] = Tensor.param(value)
        self._cache: tuple[ScheduleDag, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._memo: tuple[SchedulingContext, dict, np.ndarray] | None = None

    # -- parameter plumbing --------------------------------------------------

    def flat(self) -> np.ndarray:
        return np.concatenate([self.params[n].value.ravel() for n, _ in _PARAM_SPECS])

    def set_flat(self, vec: np.ndarray) -> None:
        """Overwrite every parameter from one flat vector; a vector of the
        wrong size raises CheckpointError and changes nothing."""
        want = sum(p.value.size for p in self.params.values())
        if vec.size != want:
            raise CheckpointError(f"parameter vector size mismatch: {vec.size} != {want}")
        k = 0
        for name, _ in _PARAM_SPECS:
            p = self.params[name]
            n = p.value.size
            p.value = vec[k : k + n].reshape(p.value.shape).astype(np.float64)
            k += n
        self._cache = self._memo = None

    def grad_flat(self) -> np.ndarray:
        out = []
        for name, _ in _PARAM_SPECS:
            p = self.params[name]
            out.append((p.grad if p.grad is not None else np.zeros_like(p.value)).ravel())
        return np.concatenate(out)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    # -- forward passes --------------------------------------------------

    def encode(self, dag: ScheduleDag, memo: dict | None = None) -> list[int]:
        """Each node's row in a table of tree-LSTM states, visiting the
        nodes in topological order.

        ``memo`` (a fresh one if None) maps each row's key, the node's
        embedding row (as bytes) and its parents' rows, to the row, in
        row order.  A state is a pure function of the two and the
        parameters, so a node seen before, in this dag or another, keeps
        its row and is computed once.  ``_node_rows`` turns the keys into
        the rows' inputs to ``autograd.lstm_rows`` and ``tree_lstm``.
        """
        memo = {} if memo is None else memo
        emb = embedding_matrix(dag, self.config.distributed, e_max=self.config.e_max)
        # roots, then tasks by (start, task id): task nodes are in task-id order
        order = list(range(dag.n_sites)) + (dag.n_sites + np.argsort(dag.start, kind="stable")).tolist()
        rows: list = [None] * dag.n_nodes
        for node in order:
            parents = tuple(rows[p] for p in (dag.parents[node] if node < len(dag.parents) else ()))
            if None in parents:
                raise ValueError("dag is not topologically ordered (cycle?)")
            rows[node] = memo.setdefault((emb[node].tobytes(), parents), len(memo))
        return rows

    def _encoding(self, dag: ScheduleDag) -> np.ndarray:
        """The (n_nodes, 2H) node states of ``dag``, off the tape, from a
        state table kept per scheduling context: only the rows new to its
        memo are computed."""
        if self._memo is None or self._memo[0] is not dag.ctx:
            self._memo = (dag.ctx, {}, np.empty((0, 2 * self.config.hidden)))
        ctx, memo, hc = self._memo
        lo = len(memo)
        rows = self.encode(dag, memo)
        if len(memo) > len(hc):  # at least double the table, keeping its rows
            hc = np.resize(hc, (2 * len(memo), hc.shape[1]))
            self._memo = (ctx, memo, hc)
        p = self.params
        x, parents = _node_rows(islice(memo, lo, None), self.config.d_in)
        ag.lstm_rows(x, parents, p["enc_wx"].value, p["enc_wh"].value, p["enc_b"].value, hc, lo)
        return hc[rows]

    def _weights(self) -> dict[str, np.ndarray]:
        return {k: t.value for k, t in self.params.items()}

    def _tables(self, dag: ScheduleDag) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-node head tables of the dag acted on, computed once per dag:
        every node's region score, and every node's ``h`` through the
        region half (plus ``rule_b1``) and the parent half of ``rule_w1``."""
        if self._cache is None or self._cache[0] is not dag:
            h, p = self.config.hidden, self._weights()
            x = self._encoding(dag)[:, :h]
            q, _ = _mlp(p, "reg", x @ p["reg_w1"].T + p["reg_b1"])
            a = x @ p["rule_w1"][:, :h].T + p["rule_b1"]
            self._cache = (dag, q, a, x @ p["rule_w1"][:, h:].T)
        return self._cache[1:]

    def region_scores(self, dag: ScheduleDag, candidates: list[int]) -> np.ndarray:
        """Q(s, w) for each candidate region, indexed from the dag's
        all-node region scores."""
        q, _, _ = self._tables(dag)
        return q[[dag.node_of_task[tid] for tid in candidates]]

    def rule_scores(self, dag: ScheduleDag, region: int, candidates: list[tuple]) -> np.ndarray:
        """Rule-head logits for (region, candidate-parent) pairs: the
        region's and the candidates' first-layer halves from the dag's
        tables, summed, then the head's last two layers."""
        _, a, b = self._tables(dag)
        return _mlp(self._weights(), "rule", a[dag.node_of_task[region]] + b[_nodes(dag, candidates)])[0]

    # -- search-policy protocol -------------------------------------------

    def pick_region(self, dag, candidates, rng, greedy=False, pc=None):
        q = self.region_scores(dag, candidates)
        if greedy or (pc is not None and rng.random() < pc):
            return candidates[int(np.argmax(q))]
        return candidates[int(rng.choice(len(q), p=region_distribution(q)))]

    def pick_rule(self, dag, region, candidates, rng, greedy=False):
        lp = log_softmax(self.rule_scores(dag, region, candidates))
        if greedy:
            return candidates[int(np.argmax(lp))]
        return candidates[int(rng.choice(lp.size, p=np.exp(lp)))]


def _nodes(dag: ScheduleDag, candidates: list[tuple]) -> list[int]:
    """The dag nodes of ("root", site) / ("task", id) rule candidates."""
    return [ref if kind == "root" else dag.node_of_task[ref] for kind, ref in candidates]


def _node_rows(keys, d_in: int) -> tuple[np.ndarray, list[tuple]]:
    """The embedding rows and parent rows of ``encode`` memo keys, as
    ``autograd.lstm_rows`` takes them."""
    keys = list(keys)
    x = np.frombuffer(b"".join(k[0] for k in keys)).reshape(len(keys), d_in)
    return x, [k[1] for k in keys]


def region_distribution(scores: np.ndarray) -> np.ndarray:
    """Softmax of region scores, max-subtracted for stability."""
    z = np.exp(np.asarray(scores, dtype=np.float64) - np.max(scores))
    return z / z.sum()


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities of the rule policy, max-subtracted for stability."""
    z = logits - np.max(logits)
    return z - np.log(np.sum(np.exp(z)))


def discounted_returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    out = np.empty(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def _mlp(p: dict[str, np.ndarray], prefix: str, pre: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Layers 2 and 3 of a head, from its first layer's pre-activation
    ``pre``: the (n,) outputs, and the hidden values ``_mlp_vjp`` needs."""
    x1 = np.where(pre > 0.0, pre, 0.0)
    z2 = x1 @ p[prefix + "_w2"].T + p[prefix + "_b2"]
    x2 = np.where(z2 > 0.0, z2, 0.0)
    return (x2 @ p[prefix + "_w3"].T + p[prefix + "_b3"])[:, 0], (pre, x1, z2, x2)


def _mlp_vjp(p: dict[str, np.ndarray], prefix: str, x: np.ndarray, hidden: tuple, g: np.ndarray):
    """A head run backward from the gradient ``g`` of its (n,) outputs,
    where ``x`` is its first layer's input and ``hidden`` what ``_mlp``
    returned: the gradient of ``x``, and of the head's six parameters in
    declared order."""
    pre, x1, z2, x2 = hidden
    g3 = g[:, None]
    g2 = (g3 @ p[prefix + "_w3"]) * (z2 > 0.0)
    g1 = (g2 @ p[prefix + "_w2"]) * (pre > 0.0)
    return g1 @ p[prefix + "_w1"], (
        g1.T @ x, g1.sum(axis=0), g2.T @ x1, g2.sum(axis=0), g3.T @ x2, g3.sum(axis=0)
    )


def _scatter_rows(idx: np.ndarray, g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The gradient of gathering the leading columns of rows ``idx`` of a
    ``shape`` matrix, from the gathered rows' gradient ``g``: each row of
    ``g`` (or, for an (n, k) ``idx``, each of its k slices) added, in
    order, into the leading columns of its row; the rest is zero."""
    cols = g.size // idx.size
    keys = idx[..., None] * shape[1] + np.arange(cols)
    return np.bincount(keys.ravel(), weights=g.ravel(), minlength=shape[0] * shape[1]).reshape(shape)


def _actor_critic(
    qs: np.ndarray,
    logps: np.ndarray,
    rewards: np.ndarray,
    config: TrainConfig,
    delta: np.ndarray | None = None,
) -> tuple[float, float, float, np.ndarray, np.ndarray]:
    """(L_region, L_rule, combined, dq, dlogp) from the chosen-region
    scores and the chosen-parent log-probabilities of one trajectory: the
    two losses, combined = L_rule + ALPHA * L_region, and the gradients of
    combined with respect to ``qs`` and ``logps``.

    L_region regresses each step's chosen-region score on the discounted
    return from that step; L_rule is the advantage-weighted negative
    log-likelihood of the chosen parents, with the advantage treated as a
    constant (no gradient through the critic).
    """
    g = discounted_returns(rewards, config.gamma)
    err = qs - g
    l_region = float((err * err).mean())
    if delta is None:
        delta = g - qs  # critic baseline, detached
    l_rule = float(logps @ -delta)
    return l_region, l_rule, l_rule + l_region * ALPHA, 2.0 * (ALPHA / err.size) * err, -delta


def losses(
    net: PolicyNet,
    trajectory: list[TrajectoryStep],
    config: TrainConfig,
    *,
    delta: np.ndarray | None = None,
) -> tuple[float, float, Tensor]:
    """(L_region, L_rule, combined) of a recorded trajectory under the
    net's current parameters, with its states, candidates and actions held
    fixed; combined = L_rule + ALPHA * L_region is a tape node.

    Two nodes make the tape: one ``tree_lstm`` node computes each
    distinct node of the trajectory's dags once, and one head-and-loss
    node gathers every step's region row and (region, parent) pair rows
    from its table, runs each head once over all of them, takes each
    step's rule log-softmax and the actor-critic terms.  Its vjp runs both
    heads backward through ``_mlp_vjp`` and scatters their row gradients
    into the table's.  The advantage is a stop-gradient in the rule loss;
    pass ``delta`` to freeze it entirely (as a finite-difference oracle
    must, since the function being differentiated treats it as a
    constant).
    """
    if not trajectory:
        raise ValueError("empty trajectory")
    memo: dict = {}
    rows_of: dict[int, list[int]] = {}
    regions, pairs, bounds, picks = [], [], [0], []
    for s in trajectory:
        if id(s.dag) not in rows_of:
            rows_of[id(s.dag)] = net.encode(s.dag, memo)
        rows, a = rows_of[id(s.dag)], s.action
        regions.append(rows[s.dag.node_of_task[a.region]])
        rule = ("root", a.parent_site) if a.parent_task is None else ("task", a.parent_task)
        picks.append(len(pairs) + s.rule_candidates.index(rule))
        pairs.extend((regions[-1], rows[n]) for n in _nodes(s.dag, s.rule_candidates))
        bounds.append(len(pairs))
    h, p, w = net.config.hidden, net.params, net._weights()
    table = ag.tree_lstm(*_node_rows(memo, net.config.d_in), p["enc_wx"], p["enc_wh"], p["enc_b"])
    regions, pairs = np.array(regions, dtype=np.intp), np.array(pairs, dtype=np.intp)
    x_reg = table.value[regions, :h]
    x_rule = table.value[pairs, :h].reshape(len(pairs), -1)
    qs, reg_hidden = _mlp(w, "reg", x_reg @ w["reg_w1"].T + w["reg_b1"])
    logits, rule_hidden = _mlp(w, "rule", x_rule @ w["rule_w1"].T + w["rule_b1"])
    # each step's rule log-softmax over its segment of the pair rows
    lens = np.diff(bounds)
    z = logits - np.repeat(np.maximum.reduceat(logits, bounds[:-1]), lens)
    e = np.exp(z)
    total = np.add.reduceat(e, bounds[:-1])
    sm = e / np.repeat(total, lens)
    logps = z[picks] - np.log(total)
    rewards = np.array([s.reward for s in trajectory])
    l_region, l_rule, combined, dq, dlogp = _actor_critic(qs, logps, rewards, config, delta)

    def vjp(grad):
        scale = float(grad)
        gx_reg, g_reg = _mlp_vjp(w, "reg", x_reg, reg_hidden, scale * dq)
        glp = scale * dlogp
        g_logits = -np.repeat(glp, lens) * sm
        g_logits[picks] += glp
        gx_rule, g_rule = _mlp_vjp(w, "rule", x_rule, rule_hidden, g_logits)
        # two scatters, summed after: one scatter over both would add each
        # row's terms in another order, and so change the gradient's bits
        shape = table.value.shape
        g_table = _scatter_rows(regions, gx_reg, shape) + _scatter_rows(pairs, gx_rule, shape)
        return (g_table, *g_reg, *g_rule)

    heads = tuple(p[name] for name, _ in _PARAM_SPECS[3:])
    return l_region, l_rule, Tensor(combined, (table, *heads), vjp)


class Adam:
    """Standard Adam on a flat parameter vector."""

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grad * grad
        mhat = self.m / (1.0 - ADAM_BETA1**self.t)
        vhat = self.v / (1.0 - ADAM_BETA2**self.t)
        return params - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


# --- checkpoints -------------------------------------------------------------

def save_checkpoint(net: PolicyNet, path, train_step: int = 0) -> None:
    """JSON header line, then raw little-endian float64 tensor data in
    declared order."""
    cfg = net.config
    header = {
        "version": CHECKPOINT_VERSION,
        "hidden": cfg.hidden,
        "d_in": cfg.d_in,
        "n_filters": cfg.n_filters,
        "n_sites": cfg.n_sites,
        "e_max": cfg.e_max,
        "distributed": cfg.distributed,
        "train_step": train_step,
        "tensors": [[name, list(net.params[name].value.shape)] for name, _ in _PARAM_SPECS],
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode())
        for name, _ in _PARAM_SPECS:
            fh.write(net.params[name].value.astype("<f8").tobytes())


def read_checkpoint_header(fh) -> tuple[dict, PolicyConfig]:
    """Read and check the JSON header line of a checkpoint opened in
    binary mode; returns the header and the net's config."""
    try:
        header = json.loads(fh.readline().decode())
        if not isinstance(header, dict):
            raise ValueError("not a JSON object")
        if read_field(header, "version", "", int) != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header['version']}")
        read_field(header, "d_in", "", int, 1)
        read_field(header, "train_step", "", int, 0)
        cfg = PolicyConfig(
            **{f.name: read_field(header, f.name, "", type(f.default)) for f in fields(PolicyConfig)}
        )
        if cfg.d_in != header["d_in"]:
            raise ValueError("d_in disagrees with the other dimensions")
    except ValueError as exc:  # also UnicodeDecodeError, JSONDecodeError and ScenarioError
        raise CheckpointError(f"bad checkpoint header: {exc}") from exc
    return header, cfg


def load_checkpoint(path, config: PolicyConfig | None = None) -> tuple[PolicyNet, int]:
    """Rebuild a net from a checkpoint; if ``config`` is given its
    dimensions must match or a CheckpointError is raised."""
    with open(path, "rb") as fh:
        header, file_cfg = read_checkpoint_header(fh)
        if config is not None and config != file_cfg:
            raise CheckpointError(
                f"checkpoint shape mismatch: file has {file_cfg}, caller wants {config}"
            )
        net = PolicyNet(file_cfg, init=False)
        blob = fh.read()
    want = sum(net.params[n].value.size for n, _ in _PARAM_SPECS) * 8
    if len(blob) != want:
        raise CheckpointError(f"truncated checkpoint: {len(blob)} bytes, expected {want}")
    flat = np.frombuffer(blob, dtype="<f8")
    net.set_flat(flat.copy())
    return net, header["train_step"]


# --- training ----------------------------------------------------------------

def default_workers() -> int:
    """Worker processes by default: ROARS_THREADS, or the CPU count if unset or 0."""
    raw = os.environ.get("ROARS_THREADS", "0")
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"ROARS_THREADS: must be a non-negative integer, got {raw!r}")
    return int(raw) or (os.cpu_count() or 1)


@contextmanager
def worker_map(workers: int):
    """``map`` for one worker, else a process pool's ``map`` over
    ``workers`` processes, forked where the platform allows and spawned
    otherwise; the pool shuts down when the block exits, as it does when
    the block raises."""
    if workers == 1:
        yield map
        return
    try:
        ctx = mp.get_context("fork")  # works from scripts and REPLs alike
    except ValueError:
        ctx = mp.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        yield pool.map


def _instance_seed(base: int, *branch: int) -> int:
    return int(np.random.SeedSequence([base, *branch]).generate_state(1, np.uint64)[0])


def _training_instance(gen_cfg: GenConfig, seed_int: int):
    """Scenario + FCFS initial schedule; resamples (deterministically)
    until the initial schedule has at least two tasks to rewrite."""
    for retry in range(30):
        s = generate_scenario(gen_cfg, _instance_seed(seed_int, retry))
        ctx = SchedulingContext(s)
        if ctx.n_tasks < 2:
            continue
        dag, _ = schedule_fcfs_list(ctx)
        if len(dag.rows) >= 2:
            return dag
    return None


def _rollout_chunk(payload: dict):
    """Worker: roll out and differentiate a slice of the batch; returns
    (summed flat gradient, [per-instance stats])."""
    net = PolicyNet(payload["policy_cfg"], init=False)
    net.set_flat(payload["flat"])
    train_cfg: TrainConfig = payload["train_cfg"]
    search_cfg: SearchConfig = payload["search_cfg"]
    gen_cfg: GenConfig = payload["gen_cfg"]
    rollout_cfg = replace(search_cfg, num_steps=train_cfg.episode_len)
    stats = []
    for k in payload["indices"]:
        dag0 = _training_instance(gen_cfg, _instance_seed(payload["seed"], payload["step"], k))
        if dag0 is None:
            stats.append(None)
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence([payload["seed"], payload["step"], k, 777])
        )
        best, traj = rewrite_search(
            dag0, net, rollout_cfg, rng, pc=payload["pc"], greedy=False
        )
        l_region, l_rule, combined = losses(net, traj, train_cfg)
        if not np.isfinite(combined.value):
            raise FloatingPointError(f"non-finite loss at step {payload['step']}")
        ag.backward(combined)
        stats.append(
            (
                float(combined.value),
                l_region,
                l_rule,
                total_slowdown(best),
                total_slowdown(dag0),
            )
        )
    return net.grad_flat(), stats


def _validation_slowdown(
    net: PolicyNet,
    gen_cfg: GenConfig,
    search_cfg: SearchConfig,
    seed: int,
    n_instances: int,
) -> float:
    """Mean average-slowdown of policy-guided rewriting from FCFS starts
    on a fixed held-out instance set: the regular search (argmax region
    with probability p_c, otherwise sampled from the region softmax; rules
    sampled from the rule policy) with a fixed seed per instance.
    """
    vals = []
    for k in range(n_instances):
        dag0 = _training_instance(gen_cfg, _instance_seed(seed, 555, k))
        if dag0 is None:
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed, 556, k]))
        best, _ = rewrite_search(dag0, net, search_cfg, rng)
        vals.append(average_slowdown(best))
    return float(np.mean(vals)) if vals else float("nan")


def train(
    gen_cfg: GenConfig,
    train_cfg: TrainConfig,
    search_cfg: SearchConfig,
    policy_cfg: PolicyConfig | None = None,
    *,
    seed: int = 0,
    checkpoint_path=None,
    curve_path=None,
    workers: int | None = None,
    val_every: int = 200,
    val_instances: int = 20,
    log=None,
) -> tuple[PolicyNet, list[dict]]:
    """Actor-critic training over freshly generated instances.

    Per optimizer step: draw a batch of scenarios, build FCFS initial
    schedules, roll out the sampling policy, accumulate the combined loss
    gradient over the batch, and take one Adam step at the decayed
    learning rate.  Periodically evaluates the policy-guided search,
    sampling with a fixed seed, on held-out instances and snapshots the
    best parameters.

    Returns the best-validation network and the learning-curve rows.
    Until a validation value is finite (as with ``val_instances=0``), the
    latest evaluated parameters stand in for the best.
    """
    read_field(val_every, None, "val_every", int, 1)
    read_field(val_instances, None, "val_instances", int, 0)
    workers = read_field(default_workers() if workers is None else workers, None, "workers", int, 1)
    workers = min(workers, train_cfg.batch)
    if policy_cfg is None:
        policy_cfg = PolicyConfig(
            n_filters=gen_cfg.num_filters,
            n_sites=gen_cfg.num_sites,
            distributed=gen_cfg.num_sites > 1,
        )
    net = PolicyNet(policy_cfg, seed=seed)
    flat = net.flat()
    adam = Adam(flat.size)

    curve: list[dict] = []
    best_val = np.inf
    best_flat = flat.copy()
    best_step = 0

    def run_batch(step: int, run) -> tuple[np.ndarray, list]:
        pc = pc_at(step)
        idx = list(range(train_cfg.batch))
        payloads = [
            {
                "policy_cfg": policy_cfg,
                "flat": flat,
                "train_cfg": train_cfg,
                "search_cfg": search_cfg,
                "gen_cfg": gen_cfg,
                "seed": seed,
                "step": step,
                "pc": pc,
                "indices": idx[i::workers],
            }
            for i in range(workers)
        ]
        grad = np.zeros_like(flat)
        stats = []
        for g, st in run(_rollout_chunk, payloads):
            grad += g
            stats.extend(s for s in st if s is not None)
        return grad, stats

    def evaluate(step: int, stats) -> None:
        nonlocal best_val, best_flat, best_step
        net.set_flat(flat)
        val = _validation_slowdown(net, gen_cfg, search_cfg, seed, val_instances)
        if val < best_val or best_val == np.inf:  # no finite value yet: keep the latest
            best_flat = flat.copy()
            best_step = step
            if np.isfinite(val):
                best_val = val
        row = {
            "step": step,
            "train_loss": float(np.mean([s[0] for s in stats])) if stats else float("nan"),
            "L_w": float(np.mean([s[1] for s in stats])) if stats else float("nan"),
            "L_u": float(np.mean([s[2] for s in stats])) if stats else float("nan"),
            "val_slowdown": val,
        }
        curve.append(row)
        if log:
            log(
                f"step {step}: loss={row['train_loss']:.3f} "
                f"L_w={row['L_w']:.3f} L_u={row['L_u']:.3f} val={val:.3f}"
            )
        if curve_path:
            _write_curve(curve, curve_path)
        if checkpoint_path:
            net.set_flat(best_flat)
            save_checkpoint(net, checkpoint_path, train_step=best_step)
            net.set_flat(flat)

    # single-threaded BLAS in the workers (the matrices are small and the
    # parallelism lives at the trajectory level).  This reaches spawn-context
    # workers only, which load numpy afresh; forked workers inherit this
    # process's BLAS as loaded, so callers export the three variables
    # before starting Python
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    with worker_map(workers) as run:
        for step in range(train_cfg.steps):
            grad, stats = run_batch(step, run)
            if not np.all(np.isfinite(grad)):
                raise FloatingPointError(f"non-finite gradient at step {step}")
            flat = adam.step(flat, grad, learning_rate_at(step))
            # the last step always evaluates, and so writes the checkpoint
            if (step + 1) % val_every == 0 or step + 1 == train_cfg.steps:
                evaluate(step + 1, stats)

    net.set_flat(best_flat)
    return net, curve


def _write_curve(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("step,train_loss,L_w,L_u,val_slowdown\n")
        for r in rows:
            fh.write(
                f"{r['step']},{r['train_loss']:.6f},{r['L_w']:.6f},"
                f"{r['L_u']:.6f},{r['val_slowdown']:.6f}\n"
            )
