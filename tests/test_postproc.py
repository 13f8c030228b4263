"""Tests for transcription post-processing and onset evaluation."""

import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taalkit.postproc import (
    COLLAR_SLACK_SECONDS,
    DEFAULT_COLLAR_SECONDS,
    NO_STROKE_AMPLITUDE_FRACTION,
    ONSET_CSV_HEADER,
    FrameLabelSequence,
    OnsetAnnotation,
    _max_matching,
    label_no_stroke,
    onset_f1,
    onsets_from_frames,
    read_onsets_csv,
    smooth_labels,
    within_collar,
    write_onsets_csv,
)
from taalkit.alignment import identify_tala_nw
from taalkit.ratio import identify_tala_ratio
from taalkit.talas import NO_STROKE, StrokeLabel, builtin_talas, make_vocabulary

HOP = 0.010
VOCAB_AB = make_vocabulary(["A", "B"], include_no_stroke=True)
NS = 2  # id of No-stroke in VOCAB_AB


def frames(labels, hop=HOP, vocab=VOCAB_AB):
    return FrameLabelSequence(tuple(labels), hop, vocab)


# --- Reference loops ---------------------------------------------------------
# The original per-element Python passes, kept as oracles for the array code.


def reference_labels(labels, vocabulary):
    """Constructor conversion and vocabulary check, one element at a time."""
    out = tuple(int(v) for v in labels)
    if not out:
        raise ValueError("frame label sequence is empty")
    n = len(vocabulary)
    bad = [v for v in out if not 0 <= v < n]
    if bad:
        raise ValueError(f"labels {sorted(set(bad))} outside vocabulary of size {n}")
    return out


def reference_smooth(labels):
    labels = list(labels)
    for i in range(1, len(labels) - 1):
        if labels[i - 1] == labels[i + 1] and labels[i] != labels[i - 1]:
            labels[i] = labels[i - 1]
    return tuple(labels)


def reference_onsets(labels, hop, vocabulary):
    ns = next((s.id for s in vocabulary if s.name == NO_STROKE), None)
    events = []
    prev = None
    for i, lab in enumerate(labels):
        if lab != prev and lab != ns:
            events.append((i * hop, vocabulary[lab].name))
        prev = lab
    return tuple(events)


def reference_no_stroke(labels, env, ns):
    labels = list(labels)
    n = len(labels)
    start = 0
    while start < n:
        end = start
        while end < n and labels[end] == labels[start]:
            end += 1
        if labels[start] != ns:
            peak = max(env[start:end])
            if peak == 0.0:
                labels[start:end] = [ns] * (end - start)
            else:
                thresh = NO_STROKE_AMPLITUDE_FRACTION * peak
                for i in range(start, end):
                    if env[i] < thresh:
                        labels[i:end] = [ns] * (end - i)
                        break
        start = end
    return tuple(labels)


def outcome(fn, *args):
    """A call's value, or its exception type and message."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        return type(e), str(e)


# 1-4 stroke labels, with or without a No-stroke label after them.
vocabularies = st.builds(
    make_vocabulary,
    st.integers(1, 4).map(lambda k: ["A", "B", "C", "D"][:k]),
    st.booleans(),
)


@st.composite
def frame_sequences(draw):
    vocab = draw(vocabularies)
    labels = draw(st.lists(st.integers(0, len(vocab) - 1), min_size=1, max_size=40))
    return FrameLabelSequence(labels, draw(st.sampled_from([0.01, 0.023, 0.5])), vocab)


class TestArrayPassesEqualReferenceLoops:
    @given(frame_sequences())
    @settings(max_examples=400, deadline=None)
    def test_smoothing(self, f):
        assert smooth_labels(f).labels == reference_smooth(f.labels)

    @given(frame_sequences())
    @settings(max_examples=400, deadline=None)
    def test_onsets(self, f):
        assert onsets_from_frames(f).events == reference_onsets(f.labels, f.hop_seconds, f.vocabulary)

    @given(frame_sequences(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_no_stroke(self, f, data):
        # Zero amplitudes make silent runs; 0.03 and 0.06 sit exactly on the
        # 3 % cut of a run peaking at 1.0 or 2.0.
        amp = st.one_of(st.sampled_from([0.0, 1e-3, 0.03, 0.06, 1.0, 2.0]),
                        st.floats(0.0, 10.0, allow_nan=False))
        env = data.draw(st.lists(amp, min_size=len(f), max_size=len(f)))
        ns = f.no_stroke_id()
        if ns is None:
            with pytest.raises(ValueError, match="No-stroke"):
                label_no_stroke(f, env)
        else:
            assert label_no_stroke(f, env).labels == reference_no_stroke(f.labels, env, ns)

    @given(st.lists(st.integers(-3, 8), max_size=12), vocabularies, st.sampled_from([list, tuple]))
    @settings(max_examples=400, deadline=None)
    def test_constructor_validation(self, labels, vocab, form):
        expected = outcome(reference_labels, labels, vocab)
        got = outcome(lambda: FrameLabelSequence(form(labels), HOP, vocab).labels)
        assert got == expected
        if not isinstance(expected[0], type):  # accepted
            assert all(type(v) is int for v in got)

    @given(st.lists(st.integers(-3, 8), max_size=12), vocabularies,
           st.sampled_from([np.int8, np.int16, np.int32, np.int64,
                            np.uint8, np.uint16, np.uint32, np.uint64]))
    @settings(max_examples=300, deadline=None)
    def test_constructor_validation_integer_arrays(self, labels, vocab, dtype):
        # Negatives wrap in the unsigned dtypes and are rejected as too large.
        arr = np.array(labels, dtype=np.int64).astype(dtype)
        got = outcome(lambda: FrameLabelSequence(arr, HOP, vocab).labels)
        assert got == outcome(reference_labels, arr.tolist(), vocab)

    @given(st.one_of(
        st.lists(st.floats(-3.5, 8.5, allow_nan=False), min_size=1, max_size=12),
        st.lists(st.floats(0, 2, allow_nan=False), min_size=1, max_size=12).map(np.array),
        st.lists(st.booleans(), min_size=1, max_size=12),
        st.lists(st.booleans(), min_size=1, max_size=12).map(np.array),
        st.lists(st.integers(0, 2).map(str), min_size=1, max_size=12),
        st.lists(st.integers(0, 2), min_size=1, max_size=12).map(lambda v: np.array(v, dtype=object)),
        st.integers(0, 2).map(np.array),
        st.lists(st.integers(0, 2), min_size=1, max_size=6).map(lambda v: np.array([v, v])),
    ))
    @settings(max_examples=300, deadline=None)
    def test_other_label_forms_rejected(self, labels):
        # Integral floats, and labels inside the vocabulary, are rejected too.
        with pytest.raises(ValueError, match="frame labels must be a 1-D sequence of integers"):
            FrameLabelSequence(labels, HOP, VOCAB_AB)


class TestWithinCollar:
    def test_default_constants(self):
        assert DEFAULT_COLLAR_SECONDS == 0.050
        assert NO_STROKE_AMPLITUDE_FRACTION == 0.03

    def test_inclusive_boundary(self):
        assert within_collar(1.0, 1.049, 0.05)
        assert within_collar(1.0, 1.050, 0.05)
        assert not within_collar(1.0, 1.051, 0.05)

    def test_representation_dust_tolerated(self):
        # 0.15 - 0.10 = 0.05000000000000002 in binary floating point; the
        # slack keeps the nominal 50 ms boundary inclusive.
        assert within_collar(0.10, 0.15, 0.05)
        assert COLLAR_SLACK_SECONDS <= 1e-9


class TestFrameLabelSequence:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            frames([])

    def test_nonpositive_hop_rejected(self):
        with pytest.raises(ValueError):
            frames([0], hop=0.0)

    @pytest.mark.parametrize("hop", [math.nan, math.inf])
    def test_non_finite_hop_rejected(self, hop):
        with pytest.raises(ValueError, match="hop_seconds must be positive"):
            frames([0], hop=hop)

    def test_vocabulary_ids_must_be_positions(self):
        # Labels index the vocabulary by position, so an id elsewhere would
        # make onset names and no_stroke_id disagree.
        vocab = (StrokeLabel(1, "Dha"), StrokeLabel(0, NO_STROKE))
        with pytest.raises(ValueError, match="vocabulary ids must equal their positions"):
            FrameLabelSequence([0, 1], HOP, vocab)

    def test_labels_outside_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            frames([0, 3])

    def test_outside_vocabulary_message_lists_sorted_distinct_labels(self):
        msg = "labels [-1, 3, 9] outside vocabulary of size 3"
        for labels in ([9, 0, 3, -1, 3], np.array([9, 0, 3, -1, 3])):
            with pytest.raises(ValueError) as exc:
                frames(labels)
            assert str(exc.value) == msg
        with pytest.raises(ValueError, match=r"labels \[18446744073709551615\]"):
            frames(np.array([0, 2**64 - 1], dtype=np.uint64))

    def test_labels_is_a_tuple_of_ints(self):
        f = frames(np.array([0, 1, NS], dtype=np.int8))
        assert f.labels == (0, 1, NS)
        assert all(type(v) is int for v in f.labels)
        with pytest.raises(ValueError, match="frame labels must be a 1-D sequence of integers"):
            frames([True, 1.9, "0"])

    def test_label_array_is_read_only_and_owned(self):
        src = np.array([0, 1, 0])
        f = FrameLabelSequence(src, HOP, VOCAB_AB)
        assert f.label_array.dtype == np.int64
        with pytest.raises(ValueError):
            f.label_array[0] = 1
        src[0] = 1  # the caller's array stays writable and is not shared
        assert f.labels == (0, 1, 0)

    def test_immutable_with_identity_equality(self):
        f = frames([0, 1])
        with pytest.raises(AttributeError):
            f.hop_seconds = 1.0
        assert f == f
        assert f != frames([0, 1])

    def test_no_stroke_id_lookup(self):
        assert frames([0]).no_stroke_id() == NS
        plain = FrameLabelSequence((0,), HOP, make_vocabulary(["A"]))
        assert plain.no_stroke_id() is None


class TestSmoothing:
    def test_isolated_flip_removed(self):
        assert smooth_labels(frames([0, 0, 1, 0, 0])).labels == (0, 0, 0, 0, 0)

    def test_pairs_preserved(self):
        assert smooth_labels(frames([0, 1, 1, 0])).labels == (0, 1, 1, 0)

    def test_alternation_collapses_sequentially(self):
        assert smooth_labels(frames([0, 1, 0, 1, 0])).labels == (0, 0, 0, 0, 0)

    def test_first_and_last_frames_never_change(self):
        assert smooth_labels(frames([1, 0, 0])).labels == (1, 0, 0)
        assert smooth_labels(frames([0, 0, 1])).labels == (0, 0, 1)
        assert smooth_labels(frames([1])).labels == (1,)
        assert smooth_labels(frames([1, 0])).labels == (1, 0)

    def test_hop_and_vocabulary_preserved(self):
        out = smooth_labels(frames([0, 1, 0], hop=0.02))
        assert out.hop_seconds == 0.02
        assert out.vocabulary == VOCAB_AB

    def test_idempotent_exhaustive_two_classes(self):
        for n in range(1, 13):
            for combo in itertools.product((0, 1), repeat=n):
                once = smooth_labels(frames(combo))
                twice = smooth_labels(once)
                assert once.labels == twice.labels == reference_smooth(combo), combo

    def test_idempotent_exhaustive_three_classes(self):
        for n in range(1, 9):
            for combo in itertools.product((0, 1, NS), repeat=n):
                once = smooth_labels(frames(combo))
                assert smooth_labels(once).labels == once.labels == reference_smooth(combo), combo

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_idempotent_property(self, labels):
        vocab = make_vocabulary(["A", "B", "C", "D"], include_no_stroke=True)
        once = smooth_labels(FrameLabelSequence(tuple(labels), HOP, vocab))
        assert smooth_labels(once).labels == once.labels


class TestOnsets:
    def test_leading_no_stroke_skipped(self):
        out = onsets_from_frames(frames([NS, NS, 0, 0, 1]))
        assert out.events == ((0.02, "A"), (0.04, "B"))

    def test_all_no_stroke_gives_empty(self):
        assert onsets_from_frames(frames([NS, NS, NS])).events == ()

    def test_constant_run_single_event(self):
        assert onsets_from_frames(frames([0, 0, 0])).events == ((0.0, "A"),)

    def test_return_to_same_class_is_new_event(self):
        out = onsets_from_frames(frames([0, NS, 0]))
        assert out.events == ((0.0, "A"), (0.02, "A"))

    def test_hop_scales_times(self):
        out = onsets_from_frames(frames([NS, 0], hop=0.5))
        assert out.events == ((0.5, "A"),)

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_smoothed_events_not_closer_than_two_hops(self, labels):
        f = smooth_labels(frames(labels))
        out = onsets_from_frames(f)
        by_class: dict[str, list[float]] = {}
        for t, lab in out.events:
            by_class.setdefault(lab, []).append(t)
        for times in by_class.values():
            for a, b in zip(times, times[1:]):
                assert b - a >= 2 * f.hop_seconds - 1e-12


class TestLabelNoStroke:
    def test_constant_envelope_unchanged(self):
        f = frames([0] * 10)
        out = label_no_stroke(f, [1.0] * 10)
        assert out.labels == f.labels

    def test_exponential_decay_threshold(self):
        # envelope exp(-t/tau) crosses 3% of its peak after t > tau*ln(1/0.03)
        # ~ 3.5066*tau; frames beyond that become No-stroke.
        tau = 0.1
        hop = 0.01
        n = 60
        t = np.arange(n) * hop
        env = np.exp(-t / tau)
        out = label_no_stroke(frames([0] * n, hop=hop), env)
        cut = tau * np.log(1.0 / NO_STROKE_AMPLITUDE_FRACTION)
        expected = tuple(NS if ti > cut else 0 for ti in t)
        assert out.labels == expected

    def test_zero_envelope_run_fully_relabeled(self):
        out = label_no_stroke(frames([0, 0, 1, 1]), [0.0, 0.0, 1.0, 1.0])
        assert out.labels == (NS, NS, 1, 1)

    def test_threshold_is_per_run_peak(self):
        # Second run has a much smaller peak; the 3% threshold is relative to
        # each run's own maximum, so its quiet tail is still relabeled.
        env = [1.0, 1.0, 0.1, 0.1 * 0.01]
        out = label_no_stroke(frames([0, 0, 1, 1]), env)
        assert out.labels == (0, 0, 1, NS)

    def test_existing_no_stroke_untouched(self):
        f = frames([NS, 0, 0, NS])
        out = label_no_stroke(f, [5.0, 5.0, 5.0, 5.0])
        assert out.labels == (NS, 0, 0, NS)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            label_no_stroke(frames([0, 0]), [1.0])

    def test_negative_envelope_rejected(self):
        with pytest.raises(ValueError):
            label_no_stroke(frames([0, 0]), [1.0, -0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_envelope_rejected(self, bad):
        with pytest.raises(ValueError, match="envelope amplitudes must be non-negative"):
            label_no_stroke(frames([0, 0]), [1.0, bad])

    def test_requires_no_stroke_in_vocabulary(self):
        f = FrameLabelSequence((0, 0), HOP, make_vocabulary(["A"]))
        with pytest.raises(ValueError):
            label_no_stroke(f, [1.0, 1.0])


class TestOnsetAnnotation:
    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            OnsetAnnotation(((0.2, "A"), (0.1, "B")))
        # NaN compares false both ways, so it cannot sit in a sorted list.
        with pytest.raises(ValueError):
            OnsetAnnotation(((0.1, "A"), (float("nan"), "A"), (0.2, "A")))

    def test_no_stroke_event_rejected(self):
        with pytest.raises(ValueError):
            OnsetAnnotation(((0.1, NO_STROKE),))

    @pytest.mark.parametrize(
        "label", ["Dha\nNa", "Dha ", " Dha", "Dha\tNa", ""],
        ids=["newline", "trailing-space", "leading-space", "tab", "empty"],
    )
    def test_label_that_is_not_one_token_rejected(self, label):
        # Written to CSV, such a label reads back changed or not at all.
        with pytest.raises(ValueError, match="stroke name must be a non-empty token"):
            OnsetAnnotation(((0.0, "Dha"), (0.5, label)))


class TestOnsetF1:
    def test_within_collar_match(self):
        ref = OnsetAnnotation(((1.000, "Dha"),))
        est = OnsetAnnotation(((1.049, "Dha"),))
        assert onset_f1(ref, est).f1 == pytest.approx(1.0)

    def test_outside_collar_no_match(self):
        ref = OnsetAnnotation(((1.000, "Dha"),))
        est = OnsetAnnotation(((1.051, "Dha"),))
        assert onset_f1(ref, est).f1 == pytest.approx(0.0)

    def test_exactly_at_collar_matches(self):
        ref = OnsetAnnotation(((1.00, "Dha"),))
        est = OnsetAnnotation(((1.05, "Dha"),))
        assert onset_f1(ref, est).f1 == pytest.approx(1.0)

    def test_one_to_one_matching(self):
        # One estimate cannot satisfy two reference events.
        ref = OnsetAnnotation(((0.00, "A"), (0.06, "A")))
        est = OnsetAnnotation(((0.05, "A"),))
        ev = onset_f1(ref, est)
        assert ev.precision == pytest.approx(1.0)
        assert ev.recall == pytest.approx(0.5)
        assert ev.f1 == pytest.approx(2 / 3)

    def test_class_must_agree(self):
        ref = OnsetAnnotation(((0.0, "A"),))
        est = OnsetAnnotation(((0.0, "B"),))
        ev = onset_f1(ref, est)
        assert ev.f1 == 0.0
        assert ev.per_class["A"].n_match == 0

    def test_matching_needs_augmenting_paths(self):
        # ref 0.00 can only take est 0.04, while ref 0.04 can take either
        # estimate.  A greedy pass that hands est 0.04 to ref 0.04 strands
        # ref 0.00; maximum matching still pairs both.
        ref = OnsetAnnotation(((0.00, "A"), (0.04, "A")))
        est = OnsetAnnotation(((0.04, "A"), (0.09, "A")))
        ev = onset_f1(ref, est)
        assert ev.per_class["A"].n_match == 2
        assert ev.f1 == pytest.approx(1.0)

    def test_identity_scores_perfectly(self):
        ev_events = tuple((0.1 * i, "ABC"[i % 3]) for i in range(9))
        ann = OnsetAnnotation(ev_events)
        assert onset_f1(ann, ann).f1 == pytest.approx(1.0)
        assert onset_f1(ann, ann).weighted_f1 == pytest.approx(1.0)

    def test_unweighted_vs_weighted(self):
        # Class A: 3 ref events all matched; class B: 1 ref event missed.
        ref = OnsetAnnotation(((0.0, "A"), (1.0, "A"), (2.0, "A"), (3.0, "B")))
        est = OnsetAnnotation(((0.0, "A"), (1.0, "A"), (2.0, "A")))
        ev = onset_f1(ref, est)
        assert ev.f1 == pytest.approx(0.5)  # mean of [1.0, 0.0]
        assert ev.weighted_f1 == pytest.approx(0.75)  # (3*1 + 1*0) / 4

    def test_estimate_only_class_excluded_from_average(self):
        ref = OnsetAnnotation(((0.0, "A"),))
        est = OnsetAnnotation(((0.0, "A"), (5.0, "B")))
        ev = onset_f1(ref, est)
        assert "B" in ev.per_class
        assert ev.per_class["B"].n_ref == 0
        assert ev.f1 == pytest.approx(1.0)  # averaged over A only

    def test_empty_reference_scores_zero(self):
        ev = onset_f1(OnsetAnnotation(()), OnsetAnnotation(((0.0, "A"),)))
        assert ev.f1 == 0.0

    def test_nonpositive_collar_rejected(self):
        ann = OnsetAnnotation(((0.0, "A"),))
        with pytest.raises(ValueError):
            onset_f1(ann, ann, collar_seconds=0.0)

    @pytest.mark.parametrize("collar", [math.nan, math.inf])
    def test_non_finite_collar_rejected(self, collar):
        ann = OnsetAnnotation(((0.0, "A"),))
        with pytest.raises(ValueError, match="collar must be positive"):
            onset_f1(ann, ann, collar_seconds=collar)


def reference_max_matching(ref_times, est_times, collar):
    """Maximum bipartite matching by Kuhn's augmenting paths (the original
    onset matcher), as the oracle for the two-pointer walk."""
    adj = [[j for j, te in enumerate(est_times) if within_collar(tr, te, collar)] for tr in ref_times]
    match_est = [-1] * len(est_times)

    def try_augment(i, visited):
        for j in adj[i]:
            if not visited[j]:
                visited[j] = True
                if match_est[j] == -1 or try_augment(match_est[j], visited):
                    match_est[j] = i
                    return True
        return False

    return sum(try_augment(i, [False] * len(est_times)) for i in range(len(ref_times)))


class TestMaxMatching:
    def test_long_chain_needs_no_recursion(self):
        # Each estimate lies within the collar of two references, so every
        # augmenting path runs back through the whole chain; the recursive
        # matcher hit the recursion limit here.
        ref = OnsetAnnotation(tuple((0.04 * i, "A") for i in range(1500)))
        est = OnsetAnnotation(tuple((0.04 * i + 0.02, "A") for i in range(1500)))
        assert onset_f1(ref, est).per_class["A"].n_match == 1500

    @settings(max_examples=400, deadline=None)
    @given(
        ref=st.lists(st.integers(0, 30), max_size=12),
        est=st.lists(st.integers(0, 30), max_size=12),
        step=st.sampled_from([0.01, 0.025, 0.05]),
    )
    def test_equals_kuhn(self, ref, est, step):
        # Integer grids give ties (repeated ticks) and gaps of exactly one
        # collar (5, 2 or 1 ticks); empty lists are drawn too.
        rt = [k * step for k in sorted(ref)]
        et = [k * step for k in sorted(est)]
        expected = reference_max_matching(rt, et, DEFAULT_COLLAR_SECONDS)
        assert _max_matching(rt, et, DEFAULT_COLLAR_SECONDS) == expected


class TestCsvInterchange:
    def test_golden_string(self):
        buf = io.StringIO()
        write_onsets_csv(OnsetAnnotation(((0.02, "Dha"),)), buf)
        assert buf.getvalue() == "time_sec,label\n0.020000,Dha\n"

    def test_round_trip_stream(self):
        ann = OnsetAnnotation(((0.0, "Dha"), (0.25, "Tin"), (1.0 / 3.0, "Na")))
        buf = io.StringIO()
        write_onsets_csv(ann, buf)
        buf.seek(0)
        back = read_onsets_csv(buf)
        # Times are written to 6 decimals, so 1/3 comes back rounded.
        assert [lab for _, lab in back.events] == [lab for _, lab in ann.events]
        assert [t for t, _ in back.events] == pytest.approx([t for t, _ in ann.events], abs=1e-6)

    def test_round_trip_file(self, tmp_path):
        ann = OnsetAnnotation(((0.0, "Dha"), (0.25, "Tin")))
        path = tmp_path / "onsets.csv"
        write_onsets_csv(ann, str(path))
        back = read_onsets_csv(str(path))
        assert back.events == ((0.0, "Dha"), (0.25, "Tin"))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = f"{ONSET_CSV_HEADER}\n0.0,Dha\n0.25,Tin\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_onsets_csv(str(marked)).events == read_onsets_csv(str(plain)).events == ((0.0, "Dha"), (0.25, "Tin"))

    def test_callers_stream_stays_open(self):
        buf = io.StringIO(f"{ONSET_CSV_HEADER}\n0.5,Dha\n")
        assert read_onsets_csv(buf).events == ((0.5, "Dha"),)
        assert not buf.closed

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_onsets_csv(io.StringIO("sec,label\n0.0,Dha\n"))

    @pytest.mark.parametrize(
        "row, reason",
        [("0.5 Dha", "expected time_sec,label"), ("0.5", "expected time_sec,label"),
         ("inf,Dha", "not finite"), ("-inf,Dha", "not finite"), ("nan,Dha", "not finite"),
         ("1e400,Dha", "not finite"), ("half,Dha", "not a number"),
         ("0.5,Dha Na", "non-empty token"), ("0.5,", "non-empty token"),
         ("0.5,No-stroke", "cannot appear as an onset event")],
    )
    def test_malformed_row_names_its_line(self, row, reason):
        text = f"{ONSET_CSV_HEADER}\n0.1,Na\n\n{row}\n"
        with pytest.raises(ValueError) as exc:
            read_onsets_csv(io.StringIO(text))
        msg = str(exc.value)
        assert msg.startswith("line 4: ") and reason in msg
        assert "\n" not in msg

    @given(st.one_of(
        st.text(),
        st.lists(
            st.one_of(
                st.text(),
                st.builds("{},{}".format, st.floats() | st.integers(-5, 5), st.text()),
            ),
            max_size=6,
        ).map(lambda rows: "\n".join([ONSET_CSV_HEADER, *rows])),
    ))
    @settings(max_examples=400, deadline=None)
    def test_fuzz_parses_and_round_trips_or_raises_value_error(self, text):
        try:
            ann = read_onsets_csv(io.StringIO(text))
        except ValueError:
            return
        assert all(math.isfinite(t) for t, _ in ann.events)
        once = io.StringIO()
        write_onsets_csv(ann, once)
        back = read_onsets_csv(io.StringIO(once.getvalue()))
        assert [lab for _, lab in back.events] == [lab for _, lab in ann.events]
        assert all(
            abs(a - b) <= 5e-7 * max(1.0, abs(a)) for (a, _), (b, _) in zip(ann.events, back.events)
        )
        again = io.StringIO()
        write_onsets_csv(back, again)
        assert again.getvalue() == once.getvalue()


# --- Frames to tala ------------------------------------------------------------

CHAIN_STROKES = sorted({n for t in builtin_talas() for n in t.theka_names})
CHAIN_VOCAB = make_vocabulary(CHAIN_STROKES, include_no_stroke=True)
FRAMES_PER_STROKE = 25  # 240 bpm at a 10 ms hop
CHAIN_CYCLES = 4


def render_frames(tala, flip_share, rng):
    """Frame labels and envelope of ``CHAIN_CYCLES`` cycles of ``tala``.

    Each stroke holds its label for one beat under an envelope that decays
    at a random rate; then ``flip_share`` of the frames take a random stroke.
    """
    strokes = list(tala.theka_names) * CHAIN_CYCLES
    ids = np.repeat([CHAIN_STROKES.index(n) for n in strokes], FRAMES_PER_STROKE)
    k = np.arange(FRAMES_PER_STROKE)
    decay = rng.uniform(6.0, 40.0, len(strokes))
    envelope = np.concatenate([np.exp(-d * HOP * k) for d in decay])
    flipped = rng.random(len(ids)) < flip_share
    ids[flipped] = rng.integers(0, len(CHAIN_STROKES), int(flipped.sum()))
    return strokes, frames(ids, vocab=CHAIN_VOCAB), envelope


def transcribe(tala, flip_share):
    rng = np.random.default_rng([7, tala.matra_count])
    strokes, f, envelope = render_frames(tala, flip_share, rng)
    return strokes, onsets_from_frames(label_no_stroke(smooth_labels(f), envelope))


class TestFramesToTala:
    """Smoothing, the 3% rule and onset extraction feed both identifiers."""

    @pytest.mark.parametrize("flip_share", [0.0, 0.02])
    @pytest.mark.parametrize("tala", builtin_talas(), ids=lambda t: t.name)
    def test_true_tala_ranks_first(self, tala, flip_share):
        _, onsets = transcribe(tala, flip_share)
        assert identify_tala_nw(onsets).best.tala == tala.name
        assert identify_tala_ratio(onsets).best.tala == tala.name

    def test_onsets_per_stroke(self):
        # A run of one label is one segment, so a repeated stroke (Dhin Dhin)
        # yields one onset: on clean frames there is one onset per run of
        # equal strokes, 133 for 180 strokes.  Surviving flips add onsets.
        counts = {}
        for flip_share in (0.0, 0.02):
            onsets = strokes = 0
            for tala in builtin_talas():
                names, annotation = transcribe(tala, flip_share)
                if flip_share == 0.0:
                    runs = 1 + sum(a != b for a, b in zip(names, names[1:]))
                    assert len(annotation) == runs
                onsets, strokes = onsets + len(annotation), strokes + len(names)
            counts[flip_share] = (onsets, strokes)
        assert counts == {0.0: (133, 180), 0.02: (144, 180)}
