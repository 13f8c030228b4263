"""
Meta-learning a stroke classifier that adapts from a few examples
=================================================================

Tabla strokes vary between instruments and players, so a transcriber
should adapt to each new recording from a handful of labeled strokes.
We meta-train a small classifier head (on top of a frozen feature map)
so that a few gradient steps on a new task's support set already yield a
good classifier, then compare against adapting from a random start.
"""

import dataclasses

import numpy as np

from taalkit import (
    MamlConfig,
    SurrogateModel,
    SyntheticTaskConfig,
    meta_test_adapt,
    meta_train,
    paired_few_shot_eval,
    synth_task_source,
    take_tasks,
)

# Each synthetic task draws per-task stroke prototypes, then noisy,
# amplitude-decayed examples around them: same structure, new "drum".
task_cfg = SyntheticTaskConfig(
    n_features=12,
    stroke_classes=4,
    bank_size=8,
    support_size=24,
    query_size=12,
    noise_scale=0.05,
    jitter_scale=0.05,
    decay_rate=0.5,
    include_no_stroke=False,
    seed=3,
)
print(f"tasks: {task_cfg.support_size}-shot support, {task_cfg.query_size}-frame query")

model = SurrogateModel.create(
    n_features=12, hidden=16, n_classes=4, rng=np.random.default_rng(0)
)

# Outer loop: second-order updates through N=2 unrolled inner steps.
cfg = MamlConfig(alpha=0.2, beta=0.05, inner_steps=2, epochs=200, adapt_iters=12, seed=3)
result = meta_train(model, synth_task_source(task_cfg), cfg)
first = np.mean([loss for _, loss in result.curve[:10]])
last = np.mean([loss for _, loss in result.curve[-10:]])
print(f"meta-training query loss: first 10 epochs {first:.3f} -> last 10 epochs {last:.3f}")
print()

# Adapt to one unseen task and watch the support/query losses fall.
eval_source = synth_task_source(dataclasses.replace(task_cfg, seed=999))
unseen = take_tasks(eval_source, 21)
adapted = meta_test_adapt(model, unseen[0], cfg)
print("adaptation trace on one unseen task (every 4th step):")
for step, support_loss, query_loss in adapted.trace[::4]:
    print(f"  step {step:2d}  support loss {support_loss:.3f}  query loss {query_loss:.3f}")
print(f"query accuracy after adaptation: {adapted.query_accuracy:.2f}")
print()

# Paired comparison on the remaining 20 tasks: same frozen features, same
# support sets, same step budget -- only the starting head differs.
comparison = paired_few_shot_eval(model, unseen[1:], cfg, baseline_seed=7)
print(f"meta-trained start wins on {comparison.wins}/{comparison.n_tasks} tasks "
      f"(win rate {comparison.win_rate:.2f})")
print(f"mean query loss: meta {comparison.mean_meta_loss:.3f} "
      f"vs random {comparison.mean_random_loss:.3f}")
