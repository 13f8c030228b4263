"""Stroke-ratio scoring: cosine similarity against reference stroke ratios.

Each tala's theka has a fixed stroke-count ratio (e.g. 3 Dha : 3 Dhin :
1 Tin : 1 Na for Tintal).  Counting strokes in a transcription and taking
the cosine against each reference vector identifies the tala from counts
alone, ignoring order; it is orders of magnitude cheaper than alignment.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .alignment import RankedResult, TalaScore, rank
from .talas import StrokeLabel, StrokeSequence, TalaDefinition, TokenTable, builtin_talas, stroke_histogram


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
    seq: TokenTable | StrokeSequence | Sequence[str | StrokeLabel],
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

    The input's token table is built and counted once; each tala then
    numbers only its distinct tokens, as the NW matcher does, so the
    per-tala work does not grow with the number of strokes.
    """
    talas = builtin_talas() if talas is None else list(talas)
    if not talas:
        raise ValueError("at least one tala required")
    table = TokenTable.of(seq)
    if not len(table):
        raise ValueError("empty sequence")
    scores = []
    for t in talas:
        counts, oov = stroke_histogram(table, t, gharana_equiv)
        coverage = (len(table) - oov) / len(table)
        cos = cosine_similarity(t.reference_vector, counts)
        scores.append(TalaScore(tala=t.name, score=cos, normalized=cos * coverage, coverage=coverage))
    flags = ("low_confidence",) if max(s.normalized for s in scores) == 0.0 else ()
    return rank("ratio", talas, scores, flags)
