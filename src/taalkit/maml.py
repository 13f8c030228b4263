"""Two-level optimization of the surrogate head: inner-loop adaptation on a
task's support set, outer-loop update of the shared initialization from the
post-adaptation query losses.

The outer gradient is exact by default: inner SGD steps are built with the
autodiff graph attached, so differentiating the query loss with respect to
the initial head flows back through every step, second-order terms included.
``order=1`` detaches the inner gradients instead, which reduces the outer
update to the gradient at the adapted point (the usual cheap approximation).

The frozen feature map never appears among the differentiated tensors, so
meta-training cannot touch it by construction.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .autodiff import Tensor, grad
from .surrogate import (
    SurrogateModel,
    class_weights_from_labels,
    head_logits,
    head_n_classes,
    init_head,
    sgd_step,
    stack_heads,
    tile_head,
    unstack_head,
    wce_from_targets,
    wce_loss,
    wce_targets,
    with_new_head_output,
)
from .tasks import FewShotTask, check_counts, take_tasks

@dataclass(frozen=True)
class MamlConfig:
    """Hyperparameters for both optimization levels.

    ``inner_steps`` is the per-adaptation step count N; ``epochs`` the number
    of outer updates E; ``adapt_iters`` how many times (E1) the N-step inner
    loop repeats at test time.
    """

    alpha: float = 0.001
    beta: float = 0.001
    inner_steps: int = 3
    epochs: int = 2000
    adapt_iters: int = 10
    tasks_per_batch: int = 4
    order: int = 2
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            # At most the largest float, so that an integer too large for one
            # is rejected here rather than overflow in `sgd_step`.
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value <= sys.float_info.max:
                raise ValueError(f"learning rates must be non-negative finite numbers, got {name}={value!r}")
        check_counts(self, ("seed", "inner_steps", "epochs", "adapt_iters", "tasks_per_batch", "order"))
        if self.tasks_per_batch < 1:
            raise ValueError("tasks_per_batch must be positive")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 (first-order) or 2 (exact)")


CONFIG_FIELDS = tuple(f.name for f in fields(MamlConfig))


class DivergenceError(RuntimeError):
    """Adaptation went non-finite; ``step`` is the 1-based inner step at
    which it was detected."""

    def __init__(self, step: int):
        super().__init__(f"adaptation diverged at inner step {step}")
        self.step = step


def inner_adapt(
    support_h: np.ndarray,
    support_y: np.ndarray,
    head: Sequence[Tensor],
    weights: np.ndarray,
    alpha: float,
    steps: int,
    second_order: bool,
) -> list[list[Tensor]]:
    """N gradient steps on the support loss, starting from ``head``.

    Returns the parameter path ``[head, params after step 1, ..., params
    after step N]``.  With ``second_order`` the path remains a
    differentiable function of ``head``; otherwise each step's gradient is
    detached and only the identity paths survive.  A batched head (leading
    task axis) takes (B, T, hidden) features, (B, T) labels and (B, C)
    weights; the step differentiates the sum of the per-task losses, so each
    task gets exactly its own gradient.  Step k raises ``DivergenceError(k)``
    when any task's parameters, support logits, loss or gradients are not
    finite at its start; every task steps in lockstep, so that is the
    earliest step at which any task went non-finite.  Parameters that step
    k-1's update made non-finite are thus reported as step k, except after
    the last step: non-finite final parameters raise
    ``DivergenceError(steps)``, the step whose update made them so.
    """
    # Labels and weights are checked, and the loss targets built, once: the
    # support logits keep the labels' shape plus the class axis.
    targets = wce_targets((*np.shape(support_y), head[-1].shape[-1]), support_y, weights)
    path = [list(head)]
    for step in range(1, steps + 1):
        params = path[-1]
        _check_finite(params, step)
        logits = head_logits(support_h, params)
        _check_finite([logits], step)
        loss = wce_from_targets(logits, targets)
        _check_finite([loss], step)
        grads = grad(loss, params, grad_output=Tensor(np.ones(loss.shape)), create_graph=second_order)
        _check_finite(grads, step)
        path.append(sgd_step(params, grads, alpha))
    if steps:
        _check_finite(path[-1], steps)
    return path


def _check_finite(tensors: Sequence[Tensor], step: int) -> None:
    if not all(np.isfinite(t.data).all() for t in tensors):
        raise DivergenceError(step)


def query_objective(
    model: SurrogateModel,
    head: Sequence[Tensor],
    tasks: Sequence[FewShotTask],
    cfg: MamlConfig,
) -> Tensor:
    """Mean post-adaptation query loss over a task batch, as a graph node.

    Every task must have the head's class count and the first task's
    support and query sizes (``ValueError`` naming the task otherwise).
    The batch adapts in one graph along a leading task axis, each task from
    its own copy of ``head``.  Query logits that are not finite raise
    ``DivergenceError(inner_steps)``.
    """
    n_classes = head_n_classes(head)
    sizes = (len(tasks[0].support_y), len(tasks[0].query_y))
    for task in tasks:
        if task.n_classes != n_classes:
            raise ValueError(
                f"task {task.task_id} has {task.n_classes} classes but the head has {n_classes}"
            )
        if (len(task.support_y), len(task.query_y)) != sizes:
            raise ValueError(f"task {task.task_id} has support and query sizes other than the batch's {sizes}")
    sh = np.stack([model.feature_map.apply(t.support_x) for t in tasks])
    qh = np.stack([model.feature_map.apply(t.query_x) for t in tasks])
    w = np.stack([class_weights_from_labels(t.support_y, n_classes) for t in tasks])
    sy = np.stack([t.support_y for t in tasks])
    qy = np.stack([t.query_y for t in tasks])
    path = inner_adapt(
        sh, sy, tile_head(head, len(tasks)), w, cfg.alpha, cfg.inner_steps, cfg.order == 2
    )
    qlogits = head_logits(qh, path[-1])
    _check_finite([qlogits], cfg.inner_steps)
    return wce_loss(qlogits, qy, w).sum() * (1.0 / len(tasks))


def meta_gradients(
    model: SurrogateModel,
    head: Sequence[Tensor],
    tasks: Sequence[FewShotTask],
    cfg: MamlConfig,
) -> tuple[list[Tensor], float]:
    objective = query_objective(model, head, tasks, cfg)
    return grad(objective, head), objective.item()


def meta_update(
    model: SurrogateModel,
    head: Sequence[Tensor],
    tasks: Sequence[FewShotTask],
    cfg: MamlConfig,
) -> tuple[list[Tensor], float]:
    """One outer step; returns fresh leaf parameters and the batch loss."""
    grads, loss = meta_gradients(model, head, tasks, cfg)
    return [Tensor(p.data, requires_grad=True) for p in sgd_step(head, grads, cfg.beta)], loss


@dataclass
class MetaTrainResult:
    curve: list[tuple[int, float]]


def meta_train(
    model: SurrogateModel,
    task_source: Iterator[FewShotTask],
    cfg: MamlConfig,
) -> MetaTrainResult:
    """Run ``cfg.epochs`` outer updates, consuming tasks from the stream.

    The model's head is replaced with the trained one; the result's curve
    holds ``(epoch, mean_query_loss)`` per outer step, loss measured before
    that step's update.
    """
    head = model.head
    curve = []
    for epoch in range(cfg.epochs):
        tasks = take_tasks(task_source, cfg.tasks_per_batch)
        head, qloss = meta_update(model, head, tasks, cfg)
        curve.append((epoch, qloss))
    model.head = head
    return MetaTrainResult(curve=curve)


@dataclass
class AdaptResult:
    """Outcome of test-time adaptation on one task."""

    head: list[Tensor]
    trace: list[tuple[int, float, float]]
    query_loss: float
    query_accuracy: float
    redimensioned: bool


def meta_test_adapt(
    model: SurrogateModel,
    task: FewShotTask,
    cfg: MamlConfig,
    head: Sequence[Sequence[Tensor]] | None = None,
    redim_seed: int | np.random.SeedSequence | None = None,
    trace: bool = True,
) -> AdaptResult | list[AdaptResult]:
    """Adapt a copy of the head to one unseen task and score its query set.

    Runs ``adapt_iters`` repetitions of the ``inner_steps``-step loop as one
    first-order ``inner_adapt`` run (there is no outer objective at test
    time), so a ``DivergenceError`` carries the running step number.  When
    the task's class count differs from the head's, the output layer is
    redrawn from ``redim_seed`` and the first layer carries over.  The trace
    row at step k holds support and query loss after k steps; every head on
    the path is scored in one stacked forward pass.  Non-finite support or
    query logits in that pass are a divergence as in ``query_objective``:
    ``DivergenceError(max(1, k))`` for the earliest such step k.  Without
    ``trace`` only the final heads are scored, so the trace is the one row
    of the last step, and only non-finite final logits are a divergence.

    ``head`` None adapts the model's head and returns one ``AdaptResult``; a
    list of heads adapts them side by side in one stacked graph and returns
    one ``AdaptResult`` per head, in order.  Heads that need redrawing draw
    in turn from one generator.
    """
    bases = [model.head] if head is None else list(head)
    rng = np.random.default_rng(cfg.seed if redim_seed is None else redim_seed)
    starts = [
        base if task.n_classes == head_n_classes(base) else with_new_head_output(base, rng, task.n_classes)
        for base in bases
    ]

    n = len(bases)
    sh = model.feature_map.apply(task.support_x)
    qh = model.feature_map.apply(task.query_x)
    w = class_weights_from_labels(task.support_y, task.n_classes)
    path = inner_adapt(
        sh, np.tile(task.support_y, (n, 1)), stack_heads(starts), np.tile(w, (n, 1)),
        cfg.alpha, cfg.adapt_iters * cfg.inner_steps, False,
    )

    # Row k * n + i of the stacked pass is head i after first + k steps.
    first = 0 if trace else len(path) - 1
    scored = [Tensor(np.concatenate([p.data for p in layer])) for layer in zip(*path[first:])]
    s_logits, q_logits = head_logits(sh, scored).data, head_logits(qh, scored).data
    finite = np.isfinite(s_logits).all(axis=(1, 2)) & np.isfinite(q_logits).all(axis=(1, 2))
    if not finite.all():
        raise DivergenceError(max(1, first + int(np.argmin(finite)) // n))
    sw = np.tile(w, (len(finite), 1))
    sup = wce_loss(s_logits, np.tile(task.support_y, (len(finite), 1)), sw).data.reshape(-1, n)
    q = wce_loss(q_logits, np.tile(task.query_y, (len(finite), 1)), sw).data.reshape(-1, n)
    predicted = np.argmax(q_logits[-n:], axis=-1)
    results = [
        AdaptResult(
            head=unstack_head(path[-1], i),
            trace=[(first + k, float(sup[k, i]), float(q[k, i])) for k in range(len(sup))],
            query_loss=float(q[-1, i]),
            query_accuracy=float(np.mean(predicted[i] == task.query_y)),
            redimensioned=start is not base,
        )
        for i, (base, start) in enumerate(zip(bases, starts))
    ]
    return results[0] if head is None else results


@dataclass
class PairedOutcome:
    task_id: int
    meta_loss: float
    random_loss: float
    meta_accuracy: float
    random_accuracy: float

    @property
    def win(self) -> bool:
        return self.meta_loss < self.random_loss


@dataclass
class PairedComparison:
    outcomes: list[PairedOutcome]

    @property
    def n_tasks(self) -> int:
        return len(self.outcomes)

    @property
    def wins(self) -> int:
        return sum(o.win for o in self.outcomes)

    @property
    def win_rate(self) -> float:
        return self.wins / self.n_tasks if self.outcomes else 0.0

    @property
    def mean_meta_loss(self) -> float:
        return float(np.mean([o.meta_loss for o in self.outcomes])) if self.outcomes else 0.0

    @property
    def mean_random_loss(self) -> float:
        return float(np.mean([o.random_loss for o in self.outcomes])) if self.outcomes else 0.0


def paired_few_shot_eval(
    model: SurrogateModel,
    tasks: Sequence[FewShotTask],
    cfg: MamlConfig,
    baseline_seed: int = 0,
) -> PairedComparison:
    """Adapt the trained head and a fresh random head on identical tasks.

    Both arms share the frozen feature map, the support data, and the exact
    adaptation procedure; only the initialization of the head differs, so
    the paired comparison isolates what meta-training bought.  The two arms
    of a task adapt together in one stacked ``meta_test_adapt`` call, which
    scores only the adapted heads: an outcome needs no trace.
    """
    outcomes = []
    for task in tasks:
        rng = np.random.default_rng(_pair_seed(baseline_seed, task.task_id, 1))
        random_head = init_head(rng, model.hidden, task.n_classes)
        meta, rand = meta_test_adapt(
            model,
            task,
            cfg,
            head=[model.head, random_head],
            redim_seed=_pair_seed(baseline_seed, task.task_id, 0),
            trace=False,
        )
        outcomes.append(
            PairedOutcome(
                task_id=task.task_id,
                meta_loss=meta.query_loss,
                random_loss=rand.query_loss,
                meta_accuracy=meta.query_accuracy,
                random_accuracy=rand.query_accuracy,
            )
        )
    return PairedComparison(outcomes)


def _pair_seed(base: int, task_id: int, arm: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([base, task_id, arm])
