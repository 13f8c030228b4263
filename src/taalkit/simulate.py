"""Synthetic tabla performances: clean theka renderings plus controlled
corruption, for exercising the identification pipeline end to end.

A performance is the theka repeated for a number of cycles at constant
tempo, optionally rotated so the excerpt starts mid-cycle (a recording can
be cut anywhere) and optionally rendered in a gharana variant.  Corruption
models an imperfect transcriber: per-stroke deletion, per-stroke
substitution, and per-gap insertion, all driven by one seeded generator.

Every random decision is pre-drawn for all positions before any of it is
applied.  That makes corruption a common-random-numbers family: raising a
probability only flips more of the same pre-drawn coins, so the set of
deleted strokes at p=0.1 is a subset of the set at p=0.2 under one seed.
Noise sweeps then vary smoothly instead of re-rolling the world per point.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from .talas import StrokeSequence, builtin_talas, get_tala

DEFAULT_TEMPO_BPM = 240.0
# Longest rendering a spec may ask for, in strokes (cycles x matras).
MAX_PERFORMANCE_STROKES = 10**6


@cache
def default_insertion_vocabulary() -> tuple[str, ...]:
    """Union of all builtin theka strokes, in first-seen order."""
    return tuple(dict.fromkeys(n for tala in builtin_talas() for n in tala.theka_names))


@dataclass(frozen=True)
class PerformanceSpec:
    """What to render: which tala, how long, from where, in which style."""

    tala: str
    cycles: int
    tempo_bpm: float = DEFAULT_TEMPO_BPM
    start_offset: int = 0
    gharana_variant: bool = False

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("cycles must be a positive integer")
        if not 0 < self.tempo_bpm < float("inf"):
            raise ValueError("tempo must be positive and finite")
        # A Python float overflows to inf quietly where a numpy scalar would warn.
        object.__setattr__(self, "tempo_bpm", float(self.tempo_bpm))
        m = get_tala(self.tala).matra_count
        if self.cycles * m > MAX_PERFORMANCE_STROKES:
            raise ValueError(
                f"{self.cycles} cycles of {m} strokes exceed {MAX_PERFORMANCE_STROKES} strokes"
            )
        # corrupt() sums two onsets to place an insertion, so twice the last must be finite.
        if not self.cycles <= sys.float_info.max / (2 * m * (60.0 / self.tempo_bpm)):
            raise ValueError("onset times overflow: too many cycles at this tempo")
        if not 0 <= self.start_offset < m:
            raise ValueError(f"start_offset must lie in [0, {m})")


@dataclass(frozen=True)
class NoiseSpec:
    """Per-stroke corruption probabilities and the seed that draws them."""

    p_sub: float = 0.0
    p_del: float = 0.0
    p_ins: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("p_sub", "p_del", "p_ins"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.p_sub + self.p_del > 1.0:
            raise ValueError("p_sub + p_del must not exceed 1")


def generate_performance(spec: PerformanceSpec) -> StrokeSequence:
    """Render a spec into strokes with onset i at i * 60 / tempo seconds."""
    tala = get_tala(spec.tala)
    theka = list(tala.theka_names)
    rotated = theka[spec.start_offset :] + theka[: spec.start_offset]
    names = rotated * spec.cycles
    if spec.gharana_variant:
        names = [tala.variant_stroke(n) for n in names]
    beat = 60.0 / spec.tempo_bpm
    onsets = [i * beat for i in range(len(names))]
    return StrokeSequence(names, onsets)


def corrupt(seq: StrokeSequence, noise: NoiseSpec) -> StrokeSequence:
    """Apply deletion, substitution, and insertion noise to a sequence.

    Per original stroke: deleted with p_del; a survivor is substituted with
    p_sub by a uniformly random different stroke from
    ``default_insertion_vocabulary()``.  After each original position, with
    p_ins a random stroke from it is inserted at the midpoint of the
    surrounding original onsets (or one beat after the end).  Surviving
    strokes keep their onset and order.  At zero noise no pre-drawn coin can
    fire, so the input itself is returned.
    """
    n = len(seq)
    if n == 0 or noise.p_sub == noise.p_del == noise.p_ins == 0:
        return seq
    rng = np.random.default_rng(noise.seed)
    vocab = default_insertion_vocabulary()
    v = len(vocab)

    u_del = rng.random(n)
    u_sub = rng.random(n)
    sub_pick = rng.integers(0, v - 1, size=n)
    u_ins = rng.random(n)
    ins_pick = rng.integers(0, v, size=n)

    names = list(seq.names)
    times = list(seq.onset_times) if seq.onset_times is not None else [float(i) for i in range(n)]
    step = times[-1] - times[-2] if n >= 2 else 1.0

    out_names: list[str] = []
    out_times: list[float] = []
    for i in range(n):
        if u_del[i] >= noise.p_del:
            name = names[i]
            if u_sub[i] < noise.p_sub:
                pick = int(sub_pick[i])
                if name in vocab and pick >= vocab.index(name):
                    pick += 1
                name = vocab[pick]
            out_names.append(name)
            out_times.append(times[i])
        if u_ins[i] < noise.p_ins:
            nxt = times[i + 1] if i + 1 < n else times[i] + step
            out_names.append(vocab[int(ins_pick[i])])
            out_times.append((times[i] + nxt) / 2.0)

    return StrokeSequence(out_names, None if seq.onset_times is None else out_times)
