"""Synthetic few-shot task distribution for the meta-learner.

Each task is a tiny frame-classification problem shaped like transcription
data.  A global bank of stroke prototypes is drawn once per stream seed; a
task picks a subset of them, jitters each one (its own playing conditions),
and emits frames along a decaying amplitude envelope: a frame at envelope
value a sits at a * prototype + (1 - a) * no_stroke_prototype plus noise.
Frames whose envelope has fallen below 3% of the peak are labeled with the
extra No-stroke class, mirroring how quiet release tails are annotated.

The bank is what makes meta-learning meaningful here: tasks differ in
jitter, imbalance, and sampling noise, but the underlying strokes recur,
so a good initialization transfers while a random one starts from nothing.
Every task of a stream has the config's ``stroke_classes`` classes ``c``
and uses the first ``c`` bank members in order, the analog of recordings
that share a stroke vocabulary.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .postproc import NO_STROKE_AMPLITUDE_FRACTION

# Most float64 values a task's frames or a model's weights may ask for.
MAX_ARRAY_VALUES = 10**7


def check_counts(config, names: tuple[str, ...]) -> None:
    """Reject a named field of ``config`` that is not a non-negative int; bools and floats are not."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class FewShotTask:
    """One adaptation episode: disjoint support and query frame sets."""

    support_x: np.ndarray
    support_y: np.ndarray
    query_x: np.ndarray
    query_y: np.ndarray
    n_classes: int
    task_id: int = 0

    def __post_init__(self):
        sx, sy = self.support_x, self.support_y
        qx, qy = self.query_x, self.query_y
        if sx.ndim != 2 or qx.ndim != 2 or sx.shape[1] != qx.shape[1]:
            raise ValueError("support and query features must be 2-D with equal width")
        if sy.shape != (sx.shape[0],) or qy.shape != (qx.shape[0],):
            raise ValueError("label shapes do not match feature rows")
        labels = np.concatenate([sy, qy])
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError(f"labels outside [0, {self.n_classes})")


@dataclass(frozen=True)
class SyntheticTaskConfig:
    """Knobs of the task distribution; one config defines one stream."""

    n_features: int = 20
    stroke_classes: int = 6
    bank_size: int = 12
    jitter_scale: float = 0.15
    noise_scale: float = 0.1
    decay_rate: float = 4.0
    include_no_stroke: bool = True
    support_size: int = 32
    query_size: int = 8
    seed: int = 0

    def __post_init__(self):
        check_counts(self, ("n_features", "stroke_classes", "bank_size", "support_size", "query_size", "seed"))
        if min(self.n_features, self.support_size, self.query_size) < 1:
            raise ValueError("n_features, support_size and query_size must be positive")
        if not 1 <= self.stroke_classes <= self.bank_size:
            raise ValueError(f"stroke_classes {self.stroke_classes} must fit in bank of {self.bank_size}")
        if (self.support_size + self.query_size) * self.n_features > MAX_ARRAY_VALUES:
            raise ValueError(f"(support + query) x n_features frames exceed {MAX_ARRAY_VALUES} values")
        if self.noise_scale < 0 or self.jitter_scale < 0:
            raise ValueError("scales must be non-negative")
        if self.decay_rate <= 0:
            raise ValueError("decay_rate must be positive")

    def task_classes(self, stroke_classes: int) -> int:
        """Total label count for a task with the given stroke-class count."""
        return stroke_classes + 1 if self.include_no_stroke else stroke_classes


def synth_task_source(cfg: SyntheticTaskConfig) -> Iterator[FewShotTask]:
    """Infinite deterministic stream of tasks for one config."""
    rng = np.random.default_rng(cfg.seed)
    bank = rng.normal(0.0, 1.0, size=(cfg.bank_size, cfg.n_features))
    no_stroke_proto = rng.normal(0.0, 0.2, size=cfg.n_features)
    c = cfg.stroke_classes

    task_id = 0
    while True:
        protos = bank[:c] + cfg.jitter_scale * rng.normal(size=(c, cfg.n_features))
        n = cfg.support_size + cfg.query_size
        # Without p, choice draws other numbers; the explicit p keeps every seeded stream.
        cls = rng.choice(c, size=n, p=np.full(c, 1.0 / c))
        amp = np.exp(-cfg.decay_rate * rng.random(n))
        x = (
            amp[:, None] * protos[cls]
            + (1.0 - amp)[:, None] * no_stroke_proto
            + cfg.noise_scale * rng.normal(size=(n, cfg.n_features))
        )
        if cfg.include_no_stroke:
            labels = np.where(amp >= NO_STROKE_AMPLITUDE_FRACTION, cls, c).astype(np.int64)
        else:
            labels = cls.astype(np.int64)

        s = cfg.support_size
        yield FewShotTask(
            support_x=x[:s],
            support_y=labels[:s],
            query_x=x[s:],
            query_y=labels[s:],
            n_classes=cfg.task_classes(c),
            task_id=task_id,
        )
        task_id += 1


def take_tasks(source: Iterator[FewShotTask], n: int) -> list[FewShotTask]:
    return [next(source) for _ in range(n)]
