"""Surrogate stroke classifier: a frozen random feature map with a small
trainable head.

The network is split in two on purpose.  The first affine layer is drawn
once from a seeded generator and never trained; it plays the role of a
fixed front end whose output statistics stay put across tasks.  Everything
task-specific lives in the head (two affine layers with a tanh between
them), which is the only part the meta-learner adapts.  Heads are plain
lists of graph tensors so the inner loop can replace them functionally
without mutating anything.

Class imbalance is handled in the loss, not the sampler: each class gets
weight total / (n_classes * count), so rare strokes pull as hard as common
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tensor, ensure_tensor

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class FrozenFeatureMap:
    """Seeded affine layer with tanh, excluded from all gradients."""

    weight: np.ndarray
    bias: np.ndarray

    @classmethod
    def create(cls, rng: np.random.Generator, n_features: int, hidden: int) -> "FrozenFeatureMap":
        scale = 1.0 / np.sqrt(n_features)
        return cls(
            weight=rng.normal(0.0, scale, size=(n_features, hidden)),
            bias=rng.normal(0.0, scale, size=(hidden,)),
        )

    @property
    def n_features(self) -> int:
        return self.weight.shape[0]

    @property
    def hidden(self) -> int:
        return self.weight.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(f"expected (T, {self.n_features}) input, got {x.shape}")
        return np.tanh(x @ self.weight + self.bias)


def _layer(rng: np.random.Generator, n_in: int, n_out: int) -> list[Tensor]:
    """Fresh affine layer [W ~ N(0, 1/n_in), b = 0]."""
    return [
        Tensor(rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out)), requires_grad=True),
        Tensor(np.zeros(n_out), requires_grad=True),
    ]


def init_head(rng: np.random.Generator, hidden: int, n_classes: int) -> list[Tensor]:
    """Fresh trainable head parameters [W1, b1, W2, b2]."""
    return _layer(rng, hidden, hidden) + _layer(rng, hidden, n_classes)


def head_logits(features, params: Sequence[Tensor]) -> Tensor:
    """Head forward pass on (T, hidden) features (array or tensor).

    A batched head (see `stack_heads`) maps (B, T, hidden) features, or
    (T, hidden) features shared by every head, to (B, T, n_classes).
    """
    h = ensure_tensor(features)
    w1, b1, w2, b2 = params
    z = (h @ w1 + b1).tanh()
    return z @ w2 + b2


def head_n_classes(params: Sequence[Tensor]) -> int:
    return params[2].shape[-1]


def stack_heads(heads: Sequence[Sequence[Tensor]]) -> list[Tensor]:
    """Leaf batch of equally shaped heads along a leading task axis.

    Weights become (B, n_in, n_out) and biases (B, 1, n_out), so that every
    head layer broadcasts against (B, T, n_in) activations.
    """
    return [
        Tensor(np.stack([np.atleast_2d(h[i].data) for h in heads]), requires_grad=True)
        for i in range(len(heads[0]))
    ]


def tile_head(params: Sequence[Tensor], n: int) -> list[Tensor]:
    """``n`` copies of one head in the `stack_heads` layout, as graph nodes:
    each copy adapts on its own, and gradients flow back to ``params``."""
    return [p.broadcast_to((n,) + (1,) * (2 - p.ndim) + p.shape) for p in params]


def unstack_head(params: Sequence[Tensor], i: int) -> list[Tensor]:
    """Head ``i`` of a `stack_heads` batch as fresh leaves; the biases (odd
    positions of [W1, b1, W2, b2]) are 1-D again."""
    return [
        Tensor((p.data[i, 0] if k % 2 else p.data[i]).copy(), requires_grad=True)
        for k, p in enumerate(params)
    ]


def with_new_head_output(
    params: Sequence[Tensor], rng: np.random.Generator, n_classes: int
) -> list[Tensor]:
    """Keep the first head layer, redraw the output layer for a new class count."""
    kept = [Tensor(p.data.copy(), requires_grad=True) for p in params[:2]]
    return kept + _layer(rng, params[0].shape[1], n_classes)


def class_weights(counts: np.ndarray) -> np.ndarray:
    """Inverse-frequency weights from per-class frame counts.

    w_c = total / (n_classes * count_c) for counted classes; classes with a
    zero count inherit the largest computed weight so an unseen stroke is
    never silently dropped from the loss.  The vector is then normalized to
    mean 1, which keeps the loss scale, and with it the effective learning
    rates, independent of how skewed the class profile is; the weight
    ratios (e.g. 1:9 for a 9:1 profile) are unchanged by it.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty 1-D vector")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    present = counts > 0
    if not present.any():
        raise ValueError("all class counts are zero")
    weights = np.empty(counts.size)
    weights[present] = counts.sum() / (counts.size * counts[present])
    weights[~present] = weights[present].max()
    return weights / weights.mean()


def class_weights_from_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """`class_weights` over the label histogram of an integer label vector."""
    labels = np.asarray(labels, dtype=np.int64)
    return class_weights(np.bincount(labels, minlength=n_classes))


def wce_targets(shape: tuple[int, ...], labels: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check labels and weights against a logits shape, as `wce_loss` does,
    and build what its loss needs of them: the one-hot label matrix and
    each frame's class weight."""
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if len(shape) not in (2, 3):
        raise ValueError(f"logits must be (T, C) or (B, T, C), got {shape}")
    *lead, t, c = shape
    if t == 0:
        raise ValueError("wce_loss needs at least one frame")
    if labels.shape != (*lead, t):
        raise ValueError(f"labels shape {labels.shape} does not match logits {shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must lie in [0, {c}), got range [{labels.min()}, {labels.max()}]")
    if weights.shape != (*lead, c):
        raise ValueError(f"weights shape {weights.shape} does not match logits {shape}")
    if not np.isfinite(weights).all():
        raise ValueError("non-finite values in class weights")
    return np.eye(c)[labels], np.take_along_axis(weights, labels, axis=-1)


def wce_loss(logits, labels: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted cross-entropy from raw scores, averaged over frames.

    The per-frame term is w_{y_t} * (-log p_t[y_t]) with log-probabilities
    taken through a stabilized log-softmax and floored at log(1e-12); the
    result is the mean of those terms over the T frames.  (T, C) logits with
    (T,) labels and (C,) weights give a scalar; a batch of (B, T, C) logits
    with (B, T) labels and (B, C) weights gives the (B,) per-task losses.
    Logits must be finite.  It is `wce_targets`, then `wce_from_targets`.
    """
    logits = ensure_tensor(logits)
    targets = wce_targets(logits.shape, labels, weights)
    if not np.isfinite(logits.data).all():
        raise ValueError("non-finite values in logits")
    return wce_from_targets(logits, targets)


def wce_from_targets(logits: Tensor, targets: tuple[np.ndarray, np.ndarray]) -> Tensor:
    """`wce_loss` of logits shaped as the targets' one-hot matrix, as one
    graph node; the logits are not checked for finiteness.

    The backward rule, d/dz = -w_{y_t} / T * (onehot - softmax(z)) per
    frame, zero where the floor holds, is written in Tensor operations, so
    it can be differentiated again; when ``grad`` records no graph it runs
    the same operations on arrays.  The softmax subtracts a detached row
    maximum c, which is exact at every order: exp(z - c) / sum(exp(z - c))
    does not depend on c.
    """
    onehot, frame_weights = targets
    if logits.shape != onehot.shape:
        raise ValueError(f"logits {logits.shape} do not match loss targets {onehot.shape}")
    t = onehot.shape[-2]
    z = logits.data
    shift = z.max(axis=-1, keepdims=True)
    logp = z - (np.log(np.exp(z - shift).sum(axis=-1, keepdims=True)) + shift)
    floor = float(np.log(PROB_FLOOR))
    picked = (np.maximum(logp, floor) * onehot).sum(axis=-1)
    value = (picked * frame_weights).sum(axis=-1) * (-1.0 / t)
    coef = (frame_weights * (picked > floor) * (-1.0 / t))[..., None]

    def vjp(g: Tensor | np.ndarray) -> tuple[Tensor | np.ndarray]:
        if isinstance(g, Tensor):
            e = (logits - shift).exp()
            r = e.sum(axis=-1, keepdims=True).recip()
            y = Tensor(onehot)
        else:  # no graph is recorded: the same operations on arrays
            e = np.exp(z - shift)
            r = 1.0 / e.sum(axis=-1, keepdims=True)
            y = onehot
        return ((y - e * r) * coef * g.reshape(g.shape + (1, 1)),)

    return Tensor(value, _parents=(logits,), _vjp=vjp)


def sgd_step(params: Sequence[Tensor], grads: Sequence[Tensor], lr: float) -> list[Tensor]:
    """One functional gradient step; stays differentiable if the grads are."""
    return [p - float(lr) * g for p, g in zip(params, grads)]


@dataclass
class SurrogateModel:
    """Feature map plus current head."""

    feature_map: FrozenFeatureMap
    head: list[Tensor]

    @classmethod
    def create(
        cls,
        n_features: int,
        hidden: int,
        n_classes: int,
        rng: np.random.Generator,
    ) -> "SurrogateModel":
        fmap = FrozenFeatureMap.create(rng, n_features, hidden)
        return cls(feature_map=fmap, head=init_head(rng, hidden, n_classes))

    @property
    def hidden(self) -> int:
        return self.feature_map.hidden
