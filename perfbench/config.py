"""Fixed inputs of the three benchmark workloads.

The train-intra values restate the desk-scale intra acceptance recipe
here instead of importing it from the test suite, and the learned
schedulers use fixed-seed weights instead of cached checkpoints, so that
benchmark numbers do not move when the tests' recipe or cache changes.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from obsched.policy import PolicyConfig, PolicyNet, TrainConfig
from obsched.rewriter import SearchConfig
from obsched.scenario import GenConfig

WORKLOADS = ("train-intra", "night-plan", "online-roars")

#: worker processes per workload (the benchmark machine has 2 cores)
WORKERS = 2
#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 9
#: size of the machine-speed probe run before each scenario, and its
#: reference time: timings are scaled by PROBE_REF_S / median probe time
PROBE_ROUNDS = 25
PROBE_REF_S = 0.02
#: calls always run: p90 needs at least 100
MIN_CALLS = 100
#: the first scenarios of every run come from REFERENCE_SEED, not from
#: --seed.  The quality figures and the schedule hashes cover exactly
#: these, so they compare exactly across seeds and commits; a night's
#: average slowdown varies too much (1.6 to 43) for a seeded sample of
#: 25 nights to give a steady mean.
REFERENCE_SEED = 0
REFERENCE_SCENARIOS = {"train-intra": 50, "night-plan": 8, "online-roars": 40}
#: seed of the fixed PolicyNet weights of the learned schedulers
NET_SEED = 0
QUEUE_CAP = 10
REPLAN_STEPS = 30

# -- train-intra: the intra acceptance recipe --------------------------------

INTRA_GEN = GenConfig(
    horizon_steps=240,
    arrival_prob=0.10,
    mode_exposure_count_frac=0.0,
    num_sites=1,
)
INTRA_POLICY = PolicyConfig(hidden=64, n_filters=3, n_sites=1, distributed=False)
INTRA_SEARCH = SearchConfig.for_mode(False)
TRAIN_BATCH = 128
EPISODE_LEN = 25
VAL_INSTANCES = 20
#: optimizer steps always measured (the first is excluded from step_s)
MIN_TRAIN_STEPS = 3
#: after each optimizer step: seconds of dispatch work, and every this
#: many steps one validation pass
INTRA_DISPATCH_S = 0.5
VAL_EVERY_STEPS = 4

# -- night-plan: full nights on the five-site array ---------------------------

NIGHT_GEN = GenConfig(horizon_steps=1440, num_sites=5, arrival_prob=0.10)
NIGHT_SCHEDULERS = ("fcfs", "stf:quality", "edd:priority", "offline-stf")

# -- online-roars: learned online re-planning ---------------------------------

ROARS_GEN = GenConfig(
    horizon_steps=240,
    arrival_prob=0.10,
    mode_exposure_count_frac=0.0,
    num_sites=5,
)
ROARS_POLICY = PolicyConfig(hidden=64, n_filters=3, n_sites=5, distributed=True)

#: scenarios the traced run runs untraced, traced, and untraced again
TRACED_SCENARIOS = {"night-plan": 3, "online-roars": 20}


@dataclass(frozen=True)
class Dispatch:
    """What one workload generates and which schedulers it runs."""

    gen: GenConfig
    schedulers: tuple[str, ...]
    policy: PolicyConfig | None
    reference: int

    def make_net(self) -> PolicyNet | None:
        return None if self.policy is None else PolicyNet(self.policy, seed=NET_SEED)


@dataclass(frozen=True)
class Sizes:
    """Run sizes; ``small()`` shrinks them for the harness self-test."""

    night_horizon: int = 1440
    roars_horizon: int = 240
    train_batch: int = TRAIN_BATCH
    val_instances: int = VAL_INSTANCES
    min_calls: int = MIN_CALLS
    reference: tuple[tuple[str, int], ...] = tuple(REFERENCE_SCENARIOS.items())
    traced: tuple[tuple[str, int], ...] = tuple(TRACED_SCENARIOS.items())

    @staticmethod
    def small() -> "Sizes":
        return Sizes(
            night_horizon=240,
            roars_horizon=60,
            train_batch=4,
            val_instances=2,
            min_calls=4,
            reference=tuple((w, 2) for w in WORKLOADS),
            traced=(("night-plan", 1), ("online-roars", 2)),
        )


def dispatch(workload: str, sizes: Sizes) -> Dispatch:
    """The generated scenarios and schedulers of one workload; train-intra
    refines its own training distribution with the learned policy."""
    ref = dict(sizes.reference)[workload]
    if workload == "train-intra":
        return Dispatch(INTRA_GEN, ("roars-refine",), INTRA_POLICY, ref)
    if workload == "night-plan":
        return Dispatch(
            replace(NIGHT_GEN, horizon_steps=sizes.night_horizon), NIGHT_SCHEDULERS, None, ref
        )
    if workload == "online-roars":
        return Dispatch(
            replace(ROARS_GEN, horizon_steps=sizes.roars_horizon), ("roars",), ROARS_POLICY, ref
        )
    raise ValueError(f"unknown workload {workload!r}")


def train_config(batch: int, steps: int) -> TrainConfig:
    return TrainConfig(batch=batch, episode_len=EPISODE_LEN, steps=steps)
