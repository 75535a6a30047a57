"""The desk-scale training recipes the acceptance suite uses.

Criteria 3 and 9 need a trained policy; training takes hours, so the
checkpoints are cached under tests/_cache and reused when their recipe
matches.  Deleting the cache retrains from scratch with identical
settings.
"""
from __future__ import annotations

import os

from obsched.policy import (
    PolicyConfig,
    TrainConfig,
    load_checkpoint,
    train,
)
from obsched.rewriter import SearchConfig
from obsched.scenario import GenConfig

CACHE_DIR = os.path.join(os.path.dirname(__file__), "_cache")

#: 4-hour grid, steady 10% arrivals, cadence monitoring, the standard
#: duration/exposure/resource mixes; FCFS-list initial schedules carry
#: ~20 tasks.
INTRA_GEN = GenConfig(
    horizon_steps=240,
    arrival_prob=0.10,
    mode_exposure_count_frac=0.0,
    num_sites=1,
)

#: quarter-scale horizon with the full five-site array (criterion 9).
DIST_GEN = GenConfig(
    horizon_steps=60,
    arrival_prob=0.25,
    mode_exposure_count_frac=0.0,
    num_sites=5,
)

TRAIN_CFG = TrainConfig(batch=128, episode_len=25, steps=2000)
SEED = 0
VAL_EVERY = 100
VAL_INSTANCES = 20


def recipe(distributed: bool):
    gen = DIST_GEN if distributed else INTRA_GEN
    search = SearchConfig.for_mode(distributed)
    policy = PolicyConfig(
        hidden=64,
        n_filters=gen.num_filters,
        n_sites=gen.num_sites,
        distributed=distributed,
    )
    return gen, TRAIN_CFG, search, policy


def checkpoint_path(distributed: bool) -> str:
    name = "policy_dist.ckpt" if distributed else "policy_intra.ckpt"
    return os.path.join(CACHE_DIR, name)


def train_or_load(distributed: bool, log=None):
    """Return the trained policy for one of the two acceptance recipes,
    training (and caching) it when no matching checkpoint exists."""
    gen, train_cfg, search_cfg, policy_cfg = recipe(distributed)
    path = checkpoint_path(distributed)
    if os.path.exists(path):
        try:
            net, _ = load_checkpoint(path, config=policy_cfg)
            return net
        except Exception:
            pass  # stale or mismatched cache: retrain
    os.makedirs(CACHE_DIR, exist_ok=True)
    net, _ = train(
        gen,
        train_cfg,
        search_cfg,
        policy_cfg,
        seed=SEED,
        checkpoint_path=path,
        curve_path=path.replace(".ckpt", "_curve.csv"),
        val_every=VAL_EVERY,
        val_instances=VAL_INSTANCES,
        log=log,
    )
    return net
