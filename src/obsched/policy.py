"""Learned rewriting policy: a child-sum tree-LSTM over the schedule DAG,
a region-scoring head whose softmax is the region-picking policy, a rule
head scoring (region, candidate-parent) pairs, the actor-critic losses,
and the training loop.

The critic is the region score itself, regressed on the full discounted
return; the rule head is trained by advantage-weighted log-likelihood.
Everything runs on the package's own reverse-mode tape (see autograd).
"""
from __future__ import annotations

import json
import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .ephemeris import VisibilityConstraints
from .heuristics import schedule_fcfs_list
from .rewriter import SearchConfig, TrajectoryStep, rewrite_search
from .scenario import GenConfig, generate_scenario
from .schedule import (
    DEFAULT_E_MAX,
    ScheduleDag,
    SchedulingContext,
    average_slowdown,
    embedding_length,
    embedding_matrix,
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

    @property
    def d_in(self) -> int:
        return embedding_length(self.n_filters, self.e_max, self.n_sites, self.distributed)


@dataclass(frozen=True)
class TrainConfig:
    """Trainer hyperparameters.

    The loss weight, discount, learning-rate schedule, and batch size are
    the published settings; ``episode_len`` is the rollout length used
    while training (evaluation rollouts use the search config's step
    budget).
    """

    alpha: float = 10.0
    gamma: float = 0.9
    lr: float = 1e-4
    lr_decay: float = 0.9
    lr_decay_every: int = 1000
    batch: int = 128
    episode_len: int = 25
    steps: int = 2000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        for name in ("alpha", "gamma", "lr", "lr_decay", "batch", "episode_len", "steps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def learning_rate_at(cfg: TrainConfig, step: int) -> float:
    return cfg.lr * cfg.lr_decay ** (step // cfg.lr_decay_every)


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
        self._cache: tuple[ScheduleDag, list[Tensor]] | None = None

    # -- parameter plumbing --------------------------------------------------

    def flat(self) -> np.ndarray:
        return np.concatenate([self.params[n].value.ravel() for n, _ in _PARAM_SPECS])

    def set_flat(self, vec: np.ndarray) -> None:
        k = 0
        for name, _ in _PARAM_SPECS:
            p = self.params[name]
            n = p.value.size
            p.value = vec[k : k + n].reshape(p.value.shape).astype(np.float64)
            k += n
        if k != vec.size:
            raise CheckpointError(f"parameter vector size mismatch: {vec.size} != {k}")
        self._cache = None

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

    def encode(self, dag: ScheduleDag) -> list[Tensor]:
        """[h; c] state per node, processed in topological order; parents'
        states are summed elementwise (child-sum), roots start from zeros."""
        h = self.config.hidden
        emb = embedding_matrix(dag, self.config.distributed, e_max=self.config.e_max)
        order = list(range(dag.n_sites)) + [
            dag.node_of_task[tid]
            for tid in sorted(
                dag.task_ids,
                key=lambda t: (int(dag.start[dag.node_of_task[t] - dag.n_sites]), t),
            )
        ]
        states: list[Tensor | None] = [None] * dag.n_nodes
        zero = Tensor.const(np.zeros(2 * h))
        wx, wh, b = self.params["enc_wx"], self.params["enc_wh"], self.params["enc_b"]
        for node in order:
            parents = dag.parents[node] if node < len(dag.parents) else ()
            if not parents:
                state = zero
            elif len(parents) == 1:
                state = states[parents[0]]
            else:
                state = ag.add_n([states[p] for p in parents])
            if state is None:
                raise ValueError("dag is not topologically ordered (cycle?)")
            states[node] = ag.lstm_cell(emb[node], state, wx, wh, b)
        return states

    def _encoding(self, dag: ScheduleDag) -> list[Tensor]:
        if self._cache is not None and self._cache[0] is dag:
            return self._cache[1]
        states = self.encode(dag)
        self._cache = (dag, states)
        return states

    def _mlp(self, rows: Tensor, prefix: str) -> Tensor:
        x = ag.relu(ag.linear(rows, self.params[prefix + "_w1"], self.params[prefix + "_b1"]))
        x = ag.relu(ag.linear(x, self.params[prefix + "_w2"], self.params[prefix + "_b2"]))
        return ag.squeeze_col(ag.linear(x, self.params[prefix + "_w3"], self.params[prefix + "_b3"]))

    def region_scores(self, dag: ScheduleDag, candidates: list[int]) -> Tensor:
        """Q(s, w) for each candidate region, as one (n,) tensor."""
        states = self._encoding(dag)
        h = self.config.hidden
        rows = ag.stack_rows(
            [ag.slice1d(states[dag.node_of_task[tid]], 0, h) for tid in candidates]
        )
        return self._mlp(rows, "reg")

    def rule_scores(self, dag: ScheduleDag, region: int, candidates: list[tuple]) -> Tensor:
        """Rule-head logits for (region, candidate-parent) pairs."""
        states = self._encoding(dag)
        h = self.config.hidden
        region_h = ag.slice1d(states[dag.node_of_task[region]], 0, h)
        rows = []
        for kind, ref in candidates:
            node = ref if kind == "root" else dag.node_of_task[ref]
            rows.append(ag.concat1d(region_h, ag.slice1d(states[node], 0, h)))
        return self._mlp(ag.stack_rows(rows), "rule")

    # -- search-policy protocol -------------------------------------------

    def pick_region(self, dag, candidates, rng, greedy=False, pc=None):
        qt = self.region_scores(dag, candidates)
        q = qt.value
        if greedy or (pc is not None and rng.random() < pc):
            idx = int(np.argmax(q))
        else:
            idx = int(rng.choice(len(q), p=region_distribution(q)))
        return candidates[idx], {"q_all": qt, "index": idx}

    def pick_rule(self, dag, region, candidates, rng, greedy=False):
        logits = self.rule_scores(dag, region, candidates)
        lp = ag.log_softmax(logits)
        if greedy:
            idx = int(np.argmax(lp.value))
        else:
            idx = int(rng.choice(lp.value.size, p=np.exp(lp.value)))
        return candidates[idx], {"logp_all": lp, "index": idx}


def region_distribution(scores: np.ndarray) -> np.ndarray:
    """Softmax of region scores, max-subtracted for stability."""
    z = np.exp(np.asarray(scores, dtype=np.float64) - np.max(scores))
    return z / z.sum()


def discounted_returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    out = np.empty(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def _actor_critic(
    qs: Tensor,
    logps: Tensor,
    rewards: np.ndarray,
    config: TrainConfig,
    delta: np.ndarray | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """(L_region, L_rule, combined) from the chosen-region scores and the
    chosen-parent log-probabilities of one trajectory.

    L_region regresses each step's chosen-region score on the discounted
    return from that step; L_rule is the advantage-weighted negative
    log-likelihood of the chosen parents, with the advantage treated as a
    constant (no gradient through the critic).
    """
    g = discounted_returns(rewards, config.gamma)
    l_region = ag.mean1d(ag.square(ag.sub_const(qs, g)))
    if delta is None:
        delta = g - qs.value  # critic baseline, detached
    l_rule = ag.weighted_sum(logps, -delta)
    combined = ag.add(l_rule, ag.scale(l_region, config.alpha))
    return l_region, l_rule, combined


def losses(trajectory: list[TrajectoryStep], config: TrainConfig) -> tuple[Tensor, Tensor, Tensor]:
    """(L_region, L_rule, combined) for one recorded trajectory, from the
    scores the policy recorded while acting."""
    if not trajectory:
        raise ValueError("empty trajectory")
    for step in trajectory:
        if step.region_info is None or step.rule_info is None:
            raise ValueError("trajectory was not recorded with a scoring policy")
    qs = ag.stack0(
        [ag.gather1(s.region_info["q_all"], s.region_info["index"]) for s in trajectory]
    )
    logps = ag.stack0(
        [ag.gather1(s.rule_info["logp_all"], s.rule_info["index"]) for s in trajectory]
    )
    return _actor_critic(qs, logps, np.array([s.reward for s in trajectory]), config)


def replay_losses(
    net: PolicyNet,
    trajectory: list[TrajectoryStep],
    config: TrainConfig,
    *,
    delta: np.ndarray | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Recompute the losses of a recorded trajectory under the net's
    current parameters, holding states, candidate sets, and chosen actions
    fixed.

    The advantage is a stop-gradient in the rule loss; pass ``delta`` to
    freeze it entirely (as a finite-difference oracle must, since the
    function being differentiated treats it as a constant).
    """
    if not trajectory:
        raise ValueError("empty trajectory")
    q_list, lp_list = [], []
    for s in trajectory:
        qt = net.region_scores(s.dag, s.region_candidates)
        q_list.append(ag.gather1(qt, s.region_info["index"]))
        region = s.action.region
        lp = ag.log_softmax(net.rule_scores(s.dag, region, s.rule_candidates))
        lp_list.append(ag.gather1(lp, s.rule_info["index"]))
    rewards = np.array([s.reward for s in trajectory])
    return _actor_critic(ag.stack0(q_list), ag.stack0(lp_list), rewards, config, delta)


class Adam:
    """Standard Adam on a flat parameter vector."""

    def __init__(self, size: int, cfg: TrainConfig):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self.cfg = cfg

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        b1, b2, eps = self.cfg.adam_beta1, self.cfg.adam_beta2, self.cfg.adam_eps
        self.t += 1
        self.m = b1 * self.m + (1.0 - b1) * grad
        self.v = b2 * self.v + (1.0 - b2) * grad * grad
        mhat = self.m / (1.0 - b1**self.t)
        vhat = self.v / (1.0 - b2**self.t)
        return params - lr * mhat / (np.sqrt(vhat) + eps)


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


def load_checkpoint(path, config: PolicyConfig | None = None) -> tuple[PolicyNet, int]:
    """Rebuild a net from a checkpoint; if ``config`` is given its
    dimensions must match or a CheckpointError is raised."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"bad checkpoint header: {exc}") from exc
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {header.get('version')}")
        file_cfg = PolicyConfig(
            hidden=header["hidden"],
            n_filters=header["n_filters"],
            n_sites=header["n_sites"],
            e_max=header["e_max"],
            distributed=header["distributed"],
        )
        if file_cfg.d_in != header["d_in"]:
            raise CheckpointError("checkpoint header is inconsistent")
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
    return net, int(header.get("train_step", 0))


# --- training ----------------------------------------------------------------

def _instance_seed(base: int, *branch: int) -> int:
    return int(np.random.SeedSequence([base, *branch]).generate_state(1, np.uint64)[0])


def _training_instance(gen_cfg: GenConfig, seed_int: int, constraints: VisibilityConstraints):
    """Scenario + FCFS initial schedule; resamples (deterministically)
    until the initial schedule has at least two tasks to rewrite."""
    for retry in range(30):
        s = generate_scenario(gen_cfg, _instance_seed(seed_int, retry))
        ctx = SchedulingContext.for_scenario(s, constraints)
        if ctx.n_tasks < 2:
            continue
        dag, _ = schedule_fcfs_list(s, ctx=ctx)
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
    constraints: VisibilityConstraints = payload["constraints"]
    rollout_cfg = replace(search_cfg, num_steps=train_cfg.episode_len)
    net.zero_grad()
    stats = []
    for k in payload["indices"]:
        dag0 = _training_instance(gen_cfg, _instance_seed(payload["seed"], payload["step"], k), constraints)
        if dag0 is None:
            stats.append(None)
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence([payload["seed"], payload["step"], k, 777])
        )
        best, traj = rewrite_search(
            dag0, net, rollout_cfg, rng, pc=payload["pc"], greedy=False
        )
        l_region, l_rule, combined = losses(traj, train_cfg)
        if not np.isfinite(combined.value):
            raise FloatingPointError(f"non-finite loss at step {payload['step']}")
        ag.backward(combined)
        stats.append(
            (
                float(combined.value),
                float(l_region.value),
                float(l_rule.value),
                float(best.total_slowdown()),
                float(dag0.total_slowdown()),
            )
        )
    return net.grad_flat(), stats


def _validation_slowdown(
    net: PolicyNet,
    gen_cfg: GenConfig,
    search_cfg: SearchConfig,
    constraints: VisibilityConstraints,
    seed: int,
    n_instances: int,
) -> float:
    """Mean average-slowdown of policy-guided rewriting from FCFS starts
    on a fixed held-out instance set: the regular search (argmax region
    with probability p_c, otherwise sampled from the region softmax; rules
    sampled from the rule policy) with a fixed seed per instance.
    """
    vals = []
    with ag.no_grad():
        for k in range(n_instances):
            dag0 = _training_instance(gen_cfg, _instance_seed(seed, 555, k), constraints)
            if dag0 is None:
                continue
            rng = np.random.default_rng(np.random.SeedSequence([seed, 556, k]))
            best, _ = rewrite_search(dag0, net, search_cfg, rng, pc=search_cfg.pc_initial)
            vals.append(average_slowdown(best))
    return float(np.mean(vals)) if vals else float("nan")


def train(
    gen_cfg: GenConfig,
    train_cfg: TrainConfig,
    search_cfg: SearchConfig,
    policy_cfg: PolicyConfig | None = None,
    *,
    seed: int = 0,
    constraints: VisibilityConstraints | None = None,
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
    """
    constraints = constraints or VisibilityConstraints()
    if policy_cfg is None:
        policy_cfg = PolicyConfig(
            n_filters=gen_cfg.num_filters,
            n_sites=gen_cfg.num_sites,
            distributed=gen_cfg.num_sites > 1,
        )
    net = PolicyNet(policy_cfg, seed=seed)
    flat = net.flat()
    adam = Adam(flat.size, train_cfg)
    if workers is None:
        workers = int(os.environ.get("ROARS_THREADS", "0")) or (os.cpu_count() or 1)
    workers = max(1, min(workers, train_cfg.batch))

    curve: list[dict] = []
    best_val = np.inf
    best_flat = flat.copy()
    best_step = 0

    def run_batch(step: int, pool) -> tuple[np.ndarray, list]:
        pc = search_cfg.pc_at(step)
        idx = list(range(train_cfg.batch))
        chunks = [idx[i::workers] for i in range(workers)]
        payloads = [
            {
                "policy_cfg": policy_cfg,
                "flat": flat,
                "train_cfg": train_cfg,
                "search_cfg": search_cfg,
                "gen_cfg": gen_cfg,
                "constraints": constraints,
                "seed": seed,
                "step": step,
                "pc": pc,
                "indices": chunk,
            }
            for chunk in chunks
            if chunk
        ]
        if pool is None:
            results = [_rollout_chunk(p) for p in payloads]
        else:
            results = list(pool.map(_rollout_chunk, payloads))
        grad = np.zeros_like(flat)
        stats = []
        for g, st in results:
            grad += g
            stats.extend(s for s in st if s is not None)
        return grad, stats

    def evaluate(step: int, stats) -> None:
        nonlocal best_val, best_flat, best_step
        net.set_flat(flat)
        val = _validation_slowdown(
            net, gen_cfg, search_cfg, constraints, seed, val_instances
        )
        if np.isfinite(val) and val < best_val:
            best_val = val
            best_flat = flat.copy()
            best_step = step
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

    # single-threaded BLAS in the workers: the matrices are small and the
    # parallelism lives at the trajectory level
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    pool = None
    if workers > 1:
        try:
            ctx = mp.get_context("fork")  # works from scripts and REPLs alike
        except ValueError:
            ctx = mp.get_context("spawn")
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
    try:
        for step in range(train_cfg.steps):
            grad, stats = run_batch(step, pool)
            if not np.all(np.isfinite(grad)):
                raise FloatingPointError(f"non-finite gradient at step {step}")
            flat = adam.step(flat, grad, learning_rate_at(train_cfg, step))
            if (step + 1) % val_every == 0 or step + 1 == train_cfg.steps:
                evaluate(step + 1, stats)
    finally:
        if pool is not None:
            pool.shutdown()

    net.set_flat(best_flat)
    if checkpoint_path:
        save_checkpoint(net, checkpoint_path, train_step=best_step)
    return net, curve


def _write_curve(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("step,train_loss,L_w,L_u,val_slowdown\n")
        for r in rows:
            fh.write(
                f"{r['step']},{r['train_loss']:.6f},{r['L_w']:.6f},"
                f"{r['L_u']:.6f},{r['val_slowdown']:.6f}\n"
            )
