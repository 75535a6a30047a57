#!/usr/bin/env python3
"""A miniature end-to-end training run (a couple of minutes on a laptop).

Trains the tree-LSTM rewriting policy on tiny instances with a small batch
and prints the learning curve; the full-scale recipe is the same with
batch 128 and 2000 optimizer steps (see README).
"""
import time

from obsched.policy import PolicyConfig, TrainConfig, train
from obsched.rewriter import SearchConfig
from obsched.scenario import GenConfig

gen = GenConfig(horizon_steps=60, arrival_prob=0.2, mode_exposure_count_frac=0.0)
train_cfg = TrainConfig(batch=16, episode_len=15, steps=60)
search_cfg = SearchConfig.for_mode(distributed=False)
policy_cfg = PolicyConfig(hidden=32, n_filters=gen.num_filters, n_sites=gen.num_sites)

print("training: batch 16, 60 optimizer steps, 15 rewriting steps per rollout")
t0 = time.time()
net, curve = train(
    gen,
    train_cfg,
    search_cfg,
    policy_cfg,
    seed=0,
    workers=2,
    val_every=15,
    val_instances=8,
    log=print,
)
print(f"\ndone in {time.time()-t0:.0f}s; validation slowdown per evaluation point:")
for row in curve:
    print(f"  step {row['step']:3d}: val {row['val_slowdown']:.3f}")
print(
    "\nThe critic (L_w) falls first as region scores align with realized"
    "\nreturns; the validation slowdown (sampled with a fixed seed) follows."
)
