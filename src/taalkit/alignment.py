"""Needleman-Wunsch matching for tala identification, plus an LCS baseline.

A transcribed stroke sequence is compared against a tala's theka by global
alignment with match +1, mismatch -1, gap -2.  Because a recording can
enter the cycle at any beat, every cyclic rotation of the theka is tried
and the best one kept.  An m-stroke frame slides over the transcription;
per-offset best scores are grouped into blocks of m offsets whose maxima
are averaged into the final matching score, which tolerates missing or
spurious strokes in individual frames.

Aligning one window costs m^3 DP cells, so every window is bounded
before any is aligned.  Against a rotation, an alignment with a matches,
s mismatches and g gap pairs has a + s + g = m and scores 2a - m - 3g.
Without gaps, a is at most D0, the best positional match count over the
rotations, and that gap-free alignment scores exactly LB = 2*D0 - m.
With gaps, a is at most H, the multiset overlap of the window with the
theka, so the score is at most UB = max(LB, 2H - m - 3).  A block's
largest LB is a score that block reaches; a window whose UB is no more
than that cannot change the block's maximum, so it keeps its LB, only the
other windows are aligned, and the block maxima stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .talas import StrokeLabel, StrokeSequence, TalaDefinition, TokenTable, builtin_talas, stroke_names

MATCH_SCORE = 1
MISMATCH_SCORE = -1
GAP_PENALTY = -2
# DP cells (pairs x m x w) per batch_nw_scores chunk; bounds its working set
# of three bytes a cell (the int16 gains and their boolean comparison).  The
# matcher passes one chunk of windows per call and keeps their best rotation.
DP_CHUNK_CELLS = 1 << 19


def nw_score(x_ref, y) -> int:
    """Optimal global-alignment score of two stroke sequences."""
    xs, ys = stroke_names(x_ref), stroke_names(y)
    if not xs or not ys:
        raise ValueError("empty sequence")
    ids: dict[str, int] = {}
    x_ids, y_ids = (np.array([[ids.setdefault(s, len(ids)) for s in seq]]) for seq in (xs, ys))
    return int(batch_nw_scores(x_ids, y_ids)[0, 0])


def batch_nw_scores(ref_ids: np.ndarray, win_ids: np.ndarray) -> np.ndarray:
    """Alignment scores for every (reference row, window row) pair.

    ``ref_ids`` is (R, m) and ``win_ids`` is (W, w); returns an (R, W)
    int64 matrix.  All pairs advance through the DP together, one row of
    ``m`` at a time, over chunks of about ``DP_CHUNK_CELLS`` cells, so the
    DP's working set does not grow with the number of windows.

    Row ``i`` is held as ``U[j] = S[i, j] - GAP*j - (MISMATCH - GAP)*i``.
    A diagonal step then adds 0 or MATCH - MISMATCH, a vertical step adds
    2*GAP - MISMATCH and a horizontal step adds nothing, so the left-gap
    dependency is a running maximum along ``j``.  ``U`` stays within
    ``[-3(m+1), 3(w+1)]``, which int16 holds for any realistic window.
    """
    R, m = ref_ids.shape
    W, w = win_ids.shape
    step = max(1, DP_CHUNK_CELLS // max(1, ref_ids.size * w))
    out = np.empty((R, W), dtype=np.int64)
    for start in range(0, W, step):
        out[:, start:start + step] = _nw_last_row(ref_ids, win_ids[start:start + step])
    out += GAP_PENALTY * w + (MISMATCH_SCORE - GAP_PENALTY) * m
    return out


def _nw_last_row(ref_ids: np.ndarray, win_ids: np.ndarray) -> np.ndarray:
    """Final ``U[m, w]`` of every pair in one chunk, laid out (R, W)."""
    R, m = ref_ids.shape
    W, w = win_ids.shape
    dtype = np.int16 if 3 * (m + w + 1) <= np.iinfo(np.int16).max else np.int64
    # gain[i, j] is the diagonal step into cell (i+1, j+1), for every pair.
    gain = np.multiply(
        ref_ids.T[:, None, :, None] == win_ids.T[None, :, None, :],
        MATCH_SCORE - MISMATCH_SCORE,
        dtype=dtype,
    )
    up = 2 * GAP_PENALTY - MISMATCH_SCORE
    U = np.zeros((w + 1, R, W), dtype=dtype)
    cols = list(U)
    for i in range(m):
        np.maximum(U[:-1] + gain[i], U[1:] + up, out=U[1:])
        U[0] = up * (i + 1)
        # One call per column beats np.maximum.accumulate(axis=0), whose
        # strided inner loop is many times slower on this layout.
        for left, cell in zip(cols, cols[1:]):
            np.maximum(left, cell, out=cell)
    return U[w]


@dataclass(frozen=True)
class MatchResult:
    """Sliding-frame matching outcome for one tala."""

    sigma_nw: float
    block_maxima: tuple[int, ...]
    short_input: bool = False


@dataclass(frozen=True)
class TalaScore:
    tala: str
    score: float
    normalized: float
    coverage: float | None = None

    def to_dict(self) -> dict:
        d = {"tala": self.tala, "score": self.score, "normalized": self.normalized}
        if self.coverage is not None:
            d["coverage"] = self.coverage
        return d


@dataclass(frozen=True)
class RankedResult:
    method: str
    ranking: tuple[TalaScore, ...]
    flags: tuple[str, ...] = ()

    @property
    def best(self) -> TalaScore:
        return self.ranking[0]


def rank(
    method: str,
    talas: Sequence[TalaDefinition],
    scores: Sequence[TalaScore],
    flags: Sequence[str],
) -> RankedResult:
    """Order each tala's score by descending normalized score; ties break by
    ascending matra count, then name."""
    order = sorted(zip(talas, scores), key=lambda e: (-e[1].normalized, e[0].matra_count, e[0].name))
    return RankedResult(method=method, ranking=tuple(s for _, s in order), flags=tuple(flags))


def sliding_match_score(
    transcribed: TokenTable | StrokeSequence | Sequence[str | StrokeLabel],
    tala: TalaDefinition,
    *,
    gharana_equiv: bool = True,
) -> MatchResult:
    """Score a transcription against one tala with the sliding-frame scheme.

    Windows of ``m`` consecutive strokes are taken at every start offset
    (hop 1); each is aligned against all ``m`` cyclic rotations of the
    theka and the best rotation kept.  Offsets are then grouped into
    ``ceil((n-m+1)/m)`` consecutive blocks of ``m`` and the block maxima
    are averaged.  Inputs shorter than one cycle fall back to the single
    available alignment and are flagged ``short_input``.

    Every window is bounded first (see the module docstring).  Only the
    offsets whose upper bound exceeds their block's largest lower bound
    stay open; each distinct window among them is aligned once, and every
    other offset keeps its lower bound.  Clean input usually opens none.
    """
    table = TokenTable.of(transcribed)
    if not len(table):
        raise ValueError("empty sequence")
    m = tala.matra_count

    rotations = tala.theka_rotations
    seq_ids = tala.token_ids(table, gharana_equiv)

    if len(seq_ids) < m:
        best = int(batch_nw_scores(rotations, seq_ids[None, :]).max())
        return MatchResult(sigma_nw=float(best), block_maxima=(best,), short_input=True)

    # Each offset's score starts as its lower bound; only open offsets are aligned.
    best, upper = _window_bounds(seq_ids, tala)
    starts = np.arange(0, len(best), m)
    open_at = np.flatnonzero(upper > np.repeat(np.maximum.reduceat(best, starts), m)[:len(upper)])
    if len(open_at):
        # A void view turns each window into one sortable key, which
        # np.unique handles far faster than its axis=0 mode.
        windows = np.lib.stride_tricks.sliding_window_view(seq_ids, m)[open_at]
        keys = windows.view(np.dtype((np.void, m * seq_ids.itemsize))).ravel()
        distinct, inverse = np.unique(keys, return_inverse=True)
        distinct = distinct.view(seq_ids.dtype).reshape(-1, m)
        step = max(1, DP_CHUNK_CELLS // (rotations.size * m))
        peaks = [batch_nw_scores(rotations, distinct[i:i + step]).max(axis=0)
                 for i in range(0, len(distinct), step)]
        best[open_at] = np.concatenate(peaks)[inverse]
    block_maxima = np.maximum.reduceat(best, starts)
    return MatchResult(sigma_nw=float(np.mean(block_maxima)), block_maxima=tuple(block_maxima.tolist()))


def _window_sums(flags: np.ndarray, m: int) -> np.ndarray:
    """Column sums of ``flags`` over every ``m`` consecutive rows, laid out
    (column, offset) in one contiguous block: a reduction over the columns
    then runs along axis 0, many times faster than along a short axis 1.

    The running sums wrap around in the smallest unsigned type that holds
    ``m``; their differences, at most ``m``, are still exact.
    """
    dtype = np.min_scalar_type(m)
    sums = np.zeros((len(flags) + 1, flags.shape[1]), dtype=dtype)
    np.cumsum(flags, axis=0, dtype=dtype, out=sums[1:])
    return np.ascontiguousarray((sums[m:] - sums[:-m]).T)


def _window_bounds(seq_ids: np.ndarray, tala: TalaDefinition) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the best score of the window at each offset.

    Row ``j`` of the tiled rotations is rotation ``j mod m``, so column ``t``
    summed over the window at offset ``i`` counts its positional matches
    with rotation ``(i + t) mod m``; the best column is ``D0``.  The multiset
    overlap ``H`` counts each theka stroke at most as often as the theka has it.
    """
    rotations, quota, m = tala.theka_rotations, tala.reference_ratio, tala.matra_count
    d0 = _window_sums(seq_ids[:, None] == np.resize(rotations, (len(seq_ids), m)), m).max(axis=0)
    counts = _window_sums(seq_ids[:, None] == np.arange(len(quota)), m)
    overlap = np.minimum(counts, np.array(quota, counts.dtype)[:, None]).sum(axis=0, dtype=np.int64)
    lower = 2 * d0.astype(np.int64) - m
    return lower, np.maximum(lower, 2 * overlap - m - 3)


def identify_tala_nw(
    transcribed: TokenTable | StrokeSequence | Sequence[str | StrokeLabel],
    talas: Sequence[TalaDefinition] | None = None,
    *,
    gharana_equiv: bool = True,
) -> RankedResult:
    """Rank candidate talas by normalized sliding match score.

    Scores are divided by each tala's matra count so cycles of different
    lengths are commensurable.  Ties break by ascending matra count, then
    name.  A negative best score means the input matched nothing and the
    result carries a ``low_confidence`` flag.  The input's token table is
    built once and scored against every tala.
    """
    talas = builtin_talas() if talas is None else list(talas)
    if not talas:
        raise ValueError("at least one tala required")
    table = TokenTable.of(transcribed)
    scores = []
    short = False
    for t in talas:
        r = sliding_match_score(table, t, gharana_equiv=gharana_equiv)
        short = short or r.short_input
        scores.append(TalaScore(tala=t.name, score=r.sigma_nw, normalized=r.sigma_nw / t.matra_count))
    flags = []
    if max(s.normalized for s in scores) < 0:
        flags.append("low_confidence")
    if short:
        flags.append("short_input")
    return rank("nw", talas, scores, flags)


def lcs_baseline_score(x, y) -> int:
    """Longest-common-subsequence length; the order-only baseline."""
    xs, ys = stroke_names(x), stroke_names(y)
    if not xs or not ys:
        return 0
    prev = [0] * (len(ys) + 1)
    for a in xs:
        cur = [0]
        for j, b in enumerate(ys, start=1):
            cur.append(prev[j - 1] + 1 if a == b else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]
