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

from dataclasses import dataclass, field
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
    wce_loss,
    with_new_head_output,
)
from .tasks import FewShotTask, take_tasks

CONFIG_FIELDS = (
    "alpha",
    "beta",
    "inner_steps",
    "epochs",
    "adapt_iters",
    "tasks_per_batch",
    "order",
    "seed",
)


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
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("learning rates must be non-negative")
        if self.inner_steps < 0 or self.epochs < 0 or self.adapt_iters < 0:
            raise ValueError("step counts must be non-negative")
        if self.tasks_per_batch < 1:
            raise ValueError("tasks_per_batch must be positive")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 (first-order) or 2 (exact)")


class DivergenceError(RuntimeError):
    """Adaptation produced a non-finite loss; ``step`` is the 1-based inner
    step at which it was detected."""

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
) -> tuple[list[Tensor], list[float] | list[list[float]]]:
    """N gradient steps on the support loss, starting from ``head``.

    With ``second_order`` the returned parameters remain differentiable
    functions of ``head``; otherwise each step's gradient is detached and
    only the identity paths survive.  A batched head (leading task axis)
    takes (B, T, hidden) features, (B, T) labels and (B, C) weights; the
    step differentiates the sum of the per-task losses, so each task gets
    exactly its own gradient, and each entry of the returned losses is the
    list of per-task losses instead of one float.  Every task steps in
    lockstep, so a ``DivergenceError`` carries the earliest step at which
    any task went non-finite.
    """
    params = list(head)
    losses = []
    for step in range(1, steps + 1):
        if not all(np.isfinite(p.data).all() for p in params):
            raise DivergenceError(step)
        loss = wce_loss(head_logits(support_h, params), support_y, weights)
        if not np.isfinite(loss.data).all():
            raise DivergenceError(step)
        ones = Tensor(np.ones(loss.shape))
        grads = grad(loss, params, grad_output=ones, create_graph=second_order)
        params = sgd_step(params, grads, alpha)
        losses.append(loss.data.tolist())
    return params, losses


def query_objective(
    model: SurrogateModel,
    head: Sequence[Tensor],
    tasks: Sequence[FewShotTask],
    cfg: MamlConfig,
) -> Tensor:
    """Mean post-adaptation query loss over a task batch, as a graph node.

    Tasks of equal shape (class count, support and query size) adapt
    together in one graph along a leading task axis, each from its own
    copy of ``head``; groups form in order of first appearance and keep
    their tasks in task order.
    """
    groups: dict[tuple[int, int, int], list[FewShotTask]] = {}
    for task in tasks:
        key = (task.n_classes, len(task.support_y), len(task.query_y))
        groups.setdefault(key, []).append(task)
    total = None
    for group in groups.values():
        sh = np.stack([model.feature_map.apply(t.support_x) for t in group])
        qh = np.stack([model.feature_map.apply(t.query_x) for t in group])
        w = np.stack([class_weights_from_labels(t.support_y, t.n_classes) for t in group])
        sy = np.stack([t.support_y for t in group])
        qy = np.stack([t.query_y for t in group])
        adapted, _ = inner_adapt(
            sh, sy, tile_head(head, len(group)), w, cfg.alpha, cfg.inner_steps, cfg.order == 2
        )
        qloss = wce_loss(head_logits(qh, adapted), qy, w).sum()
        total = qloss if total is None else total + qloss
    return total * (1.0 / len(tasks))


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
    new_head = [
        Tensor(p.data - cfg.beta * g.data, requires_grad=True) for p, g in zip(head, grads)
    ]
    return new_head, loss


@dataclass
class MetaTrainResult:
    head: list[Tensor]
    curve: list[tuple[int, float]] = field(default_factory=list)


def meta_train(
    model: SurrogateModel,
    task_source: Iterator[FewShotTask],
    cfg: MamlConfig,
) -> MetaTrainResult:
    """Run ``cfg.epochs`` outer updates, consuming tasks from the stream.

    The model's head is replaced with the trained one; the returned curve
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
    return MetaTrainResult(head=head, curve=curve)


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
    head: Sequence[Tensor] | Sequence[Sequence[Tensor]] | None = None,
    redim_seed: int | np.random.SeedSequence | None = None,
) -> AdaptResult | list[AdaptResult]:
    """Adapt a copy of the head to one unseen task and score its query set.

    Runs ``adapt_iters`` repetitions of the ``inner_steps``-step loop, plain
    first-order descent (there is no outer objective at test time), one
    ``inner_adapt`` step at a time so each step can be traced; a
    ``DivergenceError`` carries the running step number.  When
    the task's class count differs from the head's, the output layer is
    redrawn from ``redim_seed`` and the first layer carries over.  The trace
    row at step k holds support and query loss after k steps.

    ``head`` may also be a list of heads: they adapt side by side in one
    stacked graph, and the result is one ``AdaptResult`` per head, in order.
    Heads that need redrawing draw in turn from one generator.
    """
    single = head is None or isinstance(head[0], Tensor)
    bases = [model.head if head is None else head] if single else list(head)
    rng = None
    starts = []
    for base in bases:
        if task.n_classes != head_n_classes(base):
            if rng is None:
                rng = np.random.default_rng(cfg.seed if redim_seed is None else redim_seed)
            base = with_new_head_output(base, rng, task.n_classes)
        starts.append(base)
    params = stack_heads(starts)

    n = len(bases)
    sh = model.feature_map.apply(task.support_x)
    qh = model.feature_map.apply(task.query_x)
    w = np.tile(class_weights_from_labels(task.support_y, task.n_classes), (n, 1))
    sy = np.tile(task.support_y, (n, 1))
    qy = np.tile(task.query_y, (n, 1))

    def losses(p: Sequence[Tensor]) -> tuple[np.ndarray, np.ndarray]:
        """Per-head support and query loss, NaN where logits are not finite."""
        s_logits, q_logits = head_logits(sh, p).data, head_logits(qh, p).data
        ok = np.isfinite(s_logits).all(axis=(1, 2)) & np.isfinite(q_logits).all(axis=(1, 2))
        sup, q = np.full(n, np.nan), np.full(n, np.nan)
        if ok.any():
            sup[ok] = wce_loss(s_logits[ok], sy[ok], w[ok]).data
            q[ok] = wce_loss(q_logits[ok], qy[ok], w[ok]).data
        return sup, q

    rows = [(0, *losses(params))]
    for step in range(1, cfg.adapt_iters * cfg.inner_steps + 1):
        try:
            params, _ = inner_adapt(sh, sy, params, w, cfg.alpha, 1, False)
        except DivergenceError:
            raise DivergenceError(step) from None
        rows.append((step, *losses(params)))

    predicted = np.argmax(head_logits(qh, params).data, axis=-1)
    results = [
        AdaptResult(
            head=unstack_head(params, i),
            trace=[(k, float(sup[i]), float(q[i])) for k, sup, q in rows],
            query_loss=float(rows[-1][2][i]),
            query_accuracy=float(np.mean(predicted[i] == task.query_y)),
            redimensioned=start is not base,
        )
        for i, (base, start) in enumerate(zip(bases, starts))
    ]
    return results[0] if single else results


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
    of a task adapt together in one stacked ``meta_test_adapt`` call.
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
