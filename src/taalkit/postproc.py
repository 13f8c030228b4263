"""Frame-label post-processing, onset extraction, and collar-based onset F1.

This is the bridge from a frame classifier to a stroke sequence: isolated
frame flips are smoothed away, label changes become onset events, and the
quiet release tail of each stroke is relabeled to the reserved "No-stroke"
class once the amplitude envelope drops below 3% of the segment peak.

Evaluation follows the usual onset-detection protocol: an estimated onset
counts as correct when it lies within a +/-50 ms collar of an unmatched
reference onset of the same class, with the pairing chosen by a maximum
one-to-one matching so no event is used twice.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Collection, Sequence, TextIO

import numpy as np

from .talas import NO_STROKE, StrokeLabel, check_stroke_tokens

DEFAULT_COLLAR_SECONDS = 0.050
NO_STROKE_AMPLITUDE_FRACTION = 0.03
COLLAR_SLACK_SECONDS = 1e-9


def within_collar(ref_time: float, est_time: float, collar: float) -> bool:
    """Inclusive collar test with a nanosecond slack.

    The slack absorbs float representation dust (1.05 - 1.0 lands a shade
    above 0.05) so that a difference of exactly one collar always matches;
    it is six orders of magnitude below any annotation resolution.
    """
    return abs(ref_time - est_time) <= collar + COLLAR_SLACK_SECONDS


@dataclass(frozen=True, init=False, eq=False)
class FrameLabelSequence:
    """Per-frame class labels at a fixed hop, as indices into a vocabulary.

    The labels are a 1-D integer array or a sequence of ints; any other
    input raises ``ValueError``.  They are held as one read-only int64
    array, ``label_array``, and ``labels`` reads them as a tuple of ints.
    A vocabulary entry's id must be its position, since labels index the
    vocabulary.  Two sequences are equal only when they are one object.
    """

    label_array: np.ndarray
    hop_seconds: float
    vocabulary: tuple[StrokeLabel, ...]

    def __init__(
        self,
        labels: Sequence[int] | np.ndarray,
        hop_seconds: float,
        vocabulary: tuple[StrokeLabel, ...],
    ):
        arr = np.asarray(labels)
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise ValueError(f"frame labels must be a 1-D sequence of integers, got {arr.dtype} of shape {arr.shape}")
        if not arr.size:
            raise ValueError("frame label sequence is empty")
        if not 0 < hop_seconds < math.inf:
            raise ValueError("hop_seconds must be positive and finite")
        if any(s.id != i for i, s in enumerate(vocabulary)):
            raise ValueError("vocabulary ids must equal their positions")
        n = len(vocabulary)
        if arr.min() < 0 or arr.max() >= n:
            bad = sorted({v for v in arr.tolist() if not 0 <= v < n})
            raise ValueError(f"labels {bad} outside vocabulary of size {n}")
        arr = arr.astype(np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "label_array", arr)
        object.__setattr__(self, "hop_seconds", hop_seconds)
        object.__setattr__(self, "vocabulary", vocabulary)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(self.label_array.tolist())

    def __len__(self) -> int:
        return len(self.label_array)

    def no_stroke_id(self) -> int | None:
        for s in self.vocabulary:
            if s.name == NO_STROKE:
                return s.id
        return None

    def replace_labels(self, labels: Sequence[int] | np.ndarray) -> "FrameLabelSequence":
        return FrameLabelSequence(labels, self.hop_seconds, self.vocabulary)


@dataclass(frozen=True)
class OnsetAnnotation:
    """Timed, labeled onset events, sorted by time."""

    events: tuple[tuple[float, str], ...]

    def __post_init__(self):
        events = tuple((float(t), str(lab)) for t, lab in self.events)
        object.__setattr__(self, "events", events)
        times = [t for t, _ in events]
        # ``<=`` also rejects NaN, which would break the sorted walk in onset_f1.
        if not all(a <= b for a, b in zip(times, times[1:])):
            raise ValueError("onset times must be non-decreasing")
        _check_onset_labels({lab for _, lab in events})

    def __len__(self) -> int:
        return len(self.events)


def _check_onset_labels(labels: Collection[str]) -> None:
    """Reject No-stroke and any label that is not one stroke token."""
    if NO_STROKE in labels:
        raise ValueError(f"{NO_STROKE} cannot appear as an onset event")
    check_stroke_tokens(labels)


def _run_starts(labels: np.ndarray) -> np.ndarray:
    """Index of the first frame of each maximal run of one label."""
    return np.concatenate(([0], np.flatnonzero(labels[1:] != labels[:-1]) + 1))


def smooth_labels(frames: FrameLabelSequence) -> FrameLabelSequence:
    """Repair isolated single-frame label flips.

    Defined as one sequential left-to-right pass: an interior frame whose
    neighbors agree with each other but not with it takes the neighbors'
    label.  Repairs propagate within the pass ([A,B,A,B,A] collapses to all
    A), and the pass is idempotent.  First and last frames are never changed.

    Computed in closed form: for input labels ``l`` let ``cond[i]`` mean
    ``l[i-1] == l[i+1] != l[i]``.  The pass repairs frame i exactly when
    ``cond[i]`` holds and frame i-1 was not repaired (a repaired frame i-1
    already equals frame i).  That is every other frame of each run of
    ``cond``, counted from the run's start, and it takes the value ``l[i-1]``.
    """
    ids = frames.label_array
    cond = np.zeros(len(ids), dtype=bool)
    cond[1:-1] = (ids[:-2] == ids[2:]) & (ids[1:-1] != ids[:-2])
    i = np.arange(len(ids))
    run_start = np.maximum.accumulate(np.where(cond & ~np.roll(cond, 1), i, 0))
    repair = cond & ((i - run_start) % 2 == 0)
    return frames.replace_labels(np.where(repair, np.roll(ids, 1), ids))


def onsets_from_frames(frames: FrameLabelSequence) -> OnsetAnnotation:
    """Emit an onset event wherever the frame label changes class.

    Frame ``i`` starts an event at ``i * hop_seconds`` when its label
    differs from frame ``i-1`` (frame 0 counts when it is not No-stroke).
    Transitions into No-stroke are stroke releases, not onsets, and emit
    nothing.
    """
    ids = frames.label_array
    starts = _run_starts(ids)
    ns = frames.no_stroke_id()
    if ns is not None:
        starts = starts[ids[starts] != ns]
    times = (starts * frames.hop_seconds).tolist()
    names = [frames.vocabulary[lab].name for lab in ids[starts].tolist()]
    return OnsetAnnotation(tuple(zip(times, names)))


def label_no_stroke(frames: FrameLabelSequence, envelope: Sequence[float]) -> FrameLabelSequence:
    """Relabel each stroke's quiet tail to No-stroke using a 3% threshold.

    Within each inter-onset segment (a maximal run of one label), once the
    amplitude envelope first falls below 3% of the segment's peak, that
    frame and everything after it in the segment become No-stroke.  An
    all-zero segment is silence and relabels entirely.
    """
    env = np.asarray(envelope, dtype=np.float64)
    if env.ndim != 1 or len(env) != len(frames):
        raise ValueError(f"envelope length {env.shape} does not match frame count {len(frames)}")
    if not ((env >= 0) & np.isfinite(env)).all():
        raise ValueError("envelope amplitudes must be non-negative and finite")
    ns = frames.no_stroke_id()
    if ns is None:
        raise ValueError(f"vocabulary has no {NO_STROKE!r} label to assign")

    ids = frames.label_array
    n = len(ids)
    starts = _run_starts(ids)
    lengths = np.diff(starts, append=n)
    peak = np.maximum.reduceat(env, starts)
    # Each run's first frame below its threshold (n where there is none);
    # a silent run is cut at its start.  No-stroke runs may be cut too,
    # which leaves them unchanged.
    i = np.arange(n)
    quiet = env < np.repeat(NO_STROKE_AMPLITUDE_FRACTION * peak, lengths)
    cut = np.where(peak == 0.0, starts, np.minimum.reduceat(np.where(quiet, i, n), starts))
    return frames.replace_labels(np.where(i >= np.repeat(cut, lengths), ns, ids))


def _max_matching(ref_times: Sequence[float], est_times: Sequence[float], collar: float) -> int:
    """Size of a maximum one-to-one matching between two sorted onset lists.

    Each event's collar neighbourhood is an interval of the other list whose
    ends move monotonically with time, so a greedy two-pointer walk that
    pairs the earliest unmatched events is optimal.
    """
    i = j = matched = 0
    while i < len(ref_times) and j < len(est_times):
        if within_collar(ref_times[i], est_times[j], collar):
            matched += 1
            i += 1
            j += 1
        elif ref_times[i] < est_times[j]:
            i += 1
        else:
            j += 1
    return matched


@dataclass(frozen=True)
class ClassScore:
    precision: float
    recall: float
    f1: float
    n_ref: int
    n_est: int
    n_match: int


@dataclass(frozen=True)
class OnsetEvaluation:
    per_class: dict[str, ClassScore]
    precision: float
    recall: float
    f1: float
    weighted_f1: float


def _prf(n_match: int, n_est: int, n_ref: int) -> tuple[float, float, float]:
    p = n_match / n_est if n_est else 0.0
    r = n_match / n_ref if n_ref else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def _times_by_class(annotation: OnsetAnnotation) -> dict[str, list[float]]:
    """Event times per class in event order, classes in order of first
    appearance, from one pass over the events."""
    times: dict[str, list[float]] = {}
    for t, lab in annotation.events:
        times.setdefault(lab, []).append(t)
    return times


def onset_f1(
    reference: OnsetAnnotation,
    estimate: OnsetAnnotation,
    collar_seconds: float = DEFAULT_COLLAR_SECONDS,
) -> OnsetEvaluation:
    """Per-class and averaged precision/recall/F1 with a time collar.

    Events match when their class agrees and their times differ by at most
    ``collar_seconds`` (inclusive), under a maximum one-to-one matching.  The
    headline averages are unweighted means over classes present in the
    reference; ``weighted_f1`` weights those classes by reference support.
    """
    if not 0 < collar_seconds < math.inf:
        raise ValueError("collar must be positive and finite")
    ref_times, est_times = _times_by_class(reference), _times_by_class(estimate)
    classes = list(ref_times) + [c for c in est_times if c not in ref_times]
    per_class: dict[str, ClassScore] = {}
    for c in classes:
        rt, et = ref_times.get(c, []), est_times.get(c, [])
        n = _max_matching(rt, et, collar_seconds)
        p, r, f = _prf(n, len(et), len(rt))
        per_class[c] = ClassScore(p, r, f, len(rt), len(et), n)

    in_ref = [per_class[c] for c in classes if per_class[c].n_ref > 0]
    if in_ref:
        precision = float(np.mean([s.precision for s in in_ref]))
        recall = float(np.mean([s.recall for s in in_ref]))
        f1 = float(np.mean([s.f1 for s in in_ref]))
        support = np.array([s.n_ref for s in in_ref], dtype=np.float64)
        weighted = float(np.dot([s.f1 for s in in_ref], support) / support.sum())
    else:
        precision = recall = f1 = weighted = 0.0
    return OnsetEvaluation(per_class, precision, recall, f1, weighted)


# --- CSV interchange -------------------------------------------------------

ONSET_CSV_HEADER = "time_sec,label"


def write_onsets_csv(annotation: OnsetAnnotation, dest: str | TextIO) -> None:
    """Write onset events as ``time_sec,label`` rows (6-digit seconds)."""
    with open(dest, "w", encoding="utf-8") if isinstance(dest, str) else nullcontext(dest) as fh:
        fh.write(ONSET_CSV_HEADER + "\n")
        for t, lab in annotation.events:
            fh.write(f"{t:.6f},{lab}\n")


def read_onsets_csv(src: str | TextIO) -> OnsetAnnotation:
    """Read ``time_sec,label`` rows; blank lines are skipped.  A path is
    read as UTF-8, after a byte-order mark if there is one.

    A malformed row (no comma, a time that is not a finite number, or a
    label that is No-stroke or not one stroke token) raises ``ValueError``
    naming its 1-based line number.
    """
    with open(src, "r", encoding="utf-8-sig") if isinstance(src, str) else nullcontext(src) as fh:
        header = fh.readline().strip()
        if header != ONSET_CSV_HEADER:
            raise ValueError(f"expected header {ONSET_CSV_HEADER!r}, got {header!r}")
        events = []
        checked: set[str] = set()
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            t, comma, lab = line.partition(",")
            if not comma:
                raise ValueError(f"line {lineno}: expected time_sec,label, got {line!r}")
            try:
                time = float(t)
            except ValueError:
                raise ValueError(f"line {lineno}: time {t!r} is not a number") from None
            if not math.isfinite(time):
                raise ValueError(f"line {lineno}: time {t!r} is not finite")
            if lab not in checked:
                try:
                    _check_onset_labels((lab,))
                except ValueError as e:
                    raise ValueError(f"line {lineno}: {e}") from None
                checked.add(lab)
            events.append((time, lab))
    return OnsetAnnotation(tuple(events))
