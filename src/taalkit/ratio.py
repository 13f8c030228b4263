"""Stroke-ratio scoring: cosine similarity against reference stroke ratios.

Each tala's theka has a fixed stroke-count ratio (e.g. 3 Dha : 3 Dhin :
1 Tin : 1 Na for Tintal).  Counting strokes in a transcription and taking
the cosine against each reference vector identifies the tala from counts
alone, ignoring order; it is orders of magnitude cheaper than alignment.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from .alignment import RankedResult, TalaScore, rank
from .talas import StrokeLabel, StrokeSequence, TalaDefinition, builtin_talas, stroke_histogram, stroke_names


def cosine_similarity(R, T) -> float:
    """Cosine of the angle between a reference ratio and a test count vector.

    Scale-invariant by construction.  An all-zero test vector scores 0 by
    convention (nothing in the vocabulary was observed); an all-zero
    reference is rejected.
    """
    R = np.asarray(R, dtype=np.float64)
    T = np.asarray(T, dtype=np.float64)
    if R.shape != T.shape:
        raise ValueError(f"dimension mismatch: {R.shape} vs {T.shape}")
    nr = np.linalg.norm(R)
    if nr == 0.0:
        raise ValueError("reference ratio vector is all-zero")
    nt = np.linalg.norm(T)
    if nt == 0.0:
        return 0.0
    return float(np.dot(R, T) / (nr * nt))


def identify_tala_ratio(
    seq: StrokeSequence | Sequence[str | StrokeLabel],
    talas: Sequence[TalaDefinition] | None = None,
    *,
    gharana_equiv: bool = True,
) -> RankedResult:
    """Rank candidate talas by cosine similarity of stroke ratios.

    For each tala the sequence is histogrammed over that tala's vocabulary
    (after mapping gharana stroke variants to their canonical names) and
    scored by cosine against the reference ratio.  The ranking key is
    ``cosine * coverage`` where coverage is the in-vocabulary fraction of
    strokes; this damping keeps a tala with a tiny vocabulary from winning
    on a handful of accidental matches.  The raw cosine is reported
    alongside.

    The input is counted once; each tala then numbers only its distinct
    tokens, by ``TalaDefinition.token_ids`` as the NW matcher does, so the
    per-tala work does not grow with the number of strokes.
    """
    talas = builtin_talas() if talas is None else list(talas)
    if not talas:
        raise ValueError("at least one tala required")
    names = stroke_names(seq)
    if not names:
        raise ValueError("empty sequence")
    tally = Counter(names)
    scores = []
    for t in talas:
        counts, oov = stroke_histogram(tally, t, gharana_equiv)
        coverage = (len(names) - oov) / len(names)
        cos = cosine_similarity(np.asarray(t.reference_ratio), counts)
        scores.append(TalaScore(tala=t.name, score=cos, normalized=cos * coverage, coverage=coverage))
    flags = ("low_confidence",) if max(s.normalized for s in scores) == 0.0 else ()
    return rank("ratio", talas, scores, flags)
