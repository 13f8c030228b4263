"""Tests for global alignment scoring and NW-based tala identification."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taalkit.alignment import (
    GAP_PENALTY,
    MATCH_SCORE,
    MISMATCH_SCORE,
    MatchResult,
    _window_bounds,
    batch_nw_scores,
    identify_tala_nw,
    lcs_baseline_score,
    nw_score,
    sliding_match_score,
)
from taalkit.simulate import (
    NoiseSpec,
    PerformanceSpec,
    corrupt,
    default_insertion_vocabulary,
    generate_performance,
)
from taalkit.talas import TalaDefinition, builtin_talas, get_tala

TINTAL = get_tala("Tintal")


def brute_nw(x, y):
    """Enumerate every global alignment explicitly (no dynamic programming)."""
    best = [GAP_PENALTY * (len(x) + len(y))]

    def rec(i, j, acc):
        if i == len(x) and j == len(y):
            best[0] = max(best[0], acc)
            return
        if i < len(x) and j < len(y):
            rec(i + 1, j + 1, acc + (MATCH_SCORE if x[i] == y[j] else MISMATCH_SCORE))
        if i < len(x):
            rec(i + 1, j, acc + GAP_PENALTY)
        if j < len(y):
            rec(i, j + 1, acc + GAP_PENALTY)

    rec(0, 0, 0)
    return best[0]


def reference_nw_matrix(x_ref, y):
    """Full (m+1)x(w+1) global-alignment score matrix, one cell at a time.

    ``S[i][j]`` is the best score aligning the first ``i`` strokes of
    ``x_ref`` with the first ``j`` strokes of ``y``.
    """
    m, w = len(x_ref), len(y)
    S = np.zeros((m + 1, w + 1), dtype=np.int64)
    S[:, 0] = GAP_PENALTY * np.arange(m + 1)
    S[0, :] = GAP_PENALTY * np.arange(w + 1)
    for i in range(1, m + 1):
        for j in range(1, w + 1):
            sub = MATCH_SCORE if x_ref[i - 1] == y[j - 1] else MISMATCH_SCORE
            S[i, j] = max(
                S[i - 1, j - 1] + sub,
                S[i - 1, j] + GAP_PENALTY,
                S[i, j - 1] + GAP_PENALTY,
            )
    return S


def nw_align(x_ref, y):
    """Score plus one optimal alignment recovered by backtracking.

    Gaps appear as ``None``.  The sum of per-column scores along the
    returned path equals the final cell of `reference_nw_matrix` by construction.
    """
    xs, ys = list(x_ref), list(y)
    S = reference_nw_matrix(xs, ys)
    i, j = len(xs), len(ys)
    path = []
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            sub = MATCH_SCORE if xs[i - 1] == ys[j - 1] else MISMATCH_SCORE
            if S[i, j] == S[i - 1, j - 1] + sub:
                path.append((xs[i - 1], ys[j - 1]))
                i, j = i - 1, j - 1
                continue
        if i > 0 and S[i, j] == S[i - 1, j] + GAP_PENALTY:
            path.append((xs[i - 1], None))
            i -= 1
        else:
            path.append((None, ys[j - 1]))
            j -= 1
    path.reverse()
    return int(S[-1, -1]), path


def reference_batch_nw_scores(ref_ids, win_ids):
    """The original batched DP: a full int64 match tensor over every pair."""
    R, m = ref_ids.shape
    W, w = win_ids.shape
    match = np.where(
        ref_ids[:, None, :, None] == win_ids[None, :, None, :],
        MATCH_SCORE,
        MISMATCH_SCORE,
    ).astype(np.int64).reshape(R * W, m, w)
    offs = GAP_PENALTY * np.arange(w + 1, dtype=np.int64)
    prev = np.broadcast_to(offs, (R * W, w + 1)).copy()
    for i in range(1, m + 1):
        cand = np.maximum(prev[:, :-1] + match[:, i - 1, :], prev[:, 1:] + GAP_PENALTY)
        shifted = np.empty_like(prev)
        shifted[:, 0] = GAP_PENALTY * i
        shifted[:, 1:] = cand - offs[1:]
        np.maximum.accumulate(shifted, axis=1, out=shifted)
        prev = shifted + offs
    return prev[:, -1].reshape(R, W)


def _reference_symbol_ids(names, table):
    out = np.empty(len(names), dtype=np.int64)
    for k, n in enumerate(names):
        if n not in table:
            table[n] = len(table)
        out[k] = table[n]
    return out


def reference_sliding_match_score(names, tala, gharana_equiv=True):
    """The original sliding-frame matcher: every window, every call rebuilt.

    Returns ``(sigma_nw, block_maxima, short_input)``.
    """
    if gharana_equiv:
        names = tuple(tala.canonical_stroke(n) for n in names)
    m = tala.matra_count
    table = {}
    theka_ids = _reference_symbol_ids(tala.theka_names, table)
    seq_ids = _reference_symbol_ids(names, table)
    rotations = np.stack([np.roll(theka_ids, -r) for r in range(m)])
    if len(names) < m:
        best = int(reference_batch_nw_scores(rotations, seq_ids[None, :]).max())
        return float(best), (best,), True
    windows = np.lib.stride_tricks.sliding_window_view(seq_ids, m)
    best_per_offset = reference_batch_nw_scores(rotations, windows).max(axis=0)
    k = math.ceil(len(best_per_offset) / m)
    block_maxima = tuple(int(best_per_offset[b * m:(b + 1) * m].max()) for b in range(k))
    return float(np.mean(block_maxima)), block_maxima, False


def _symbol_ids(names, tala, gharana_equiv):
    """Theka rotations and input ids, theka strokes numbered first."""
    ids = {s.name: s.id for s in tala.stroke_vocabulary}
    canon = [tala.canonical_stroke(n) if gharana_equiv else n for n in names]
    return tala.theka_rotations, np.array([ids.setdefault(n, len(ids)) for n in canon])


def reference_window_bounds(seq_ids, tala):
    """The window bounds by axis-1 reductions over (offset, column) window
    sums counted in int64, so no running sum wraps."""
    m, quota = tala.matra_count, np.array(tala.reference_ratio)
    tiled = tala.theka_rotations[np.arange(len(seq_ids)) % m]
    positional = np.lib.stride_tricks.sliding_window_view(seq_ids[:, None] == tiled, m, axis=0).sum(axis=2)
    counts = np.lib.stride_tricks.sliding_window_view(seq_ids[:, None] == np.arange(len(quota)), m, axis=0).sum(axis=2)
    lower = 2 * positional.max(axis=1) - m
    return lower, np.maximum(lower, 2 * np.minimum(counts, quota).sum(axis=1) - m - 3)


def unpruned_sliding_match_score(names, tala, gharana_equiv=True):
    """The matcher before window pruning: every distinct window is aligned."""
    rotations, seq_ids = _symbol_ids(names, tala, gharana_equiv)
    m = tala.matra_count
    if len(names) < m:
        best = int(batch_nw_scores(rotations, seq_ids[None, :]).max())
        return MatchResult(sigma_nw=float(best), block_maxima=(best,), short_input=True)
    distinct, inverse = np.unique(
        np.lib.stride_tricks.sliding_window_view(seq_ids, m), axis=0, return_inverse=True
    )
    best_per_offset = batch_nw_scores(rotations, distinct).max(axis=0)[inverse.ravel()]
    block_maxima = np.maximum.reduceat(best_per_offset, np.arange(0, len(best_per_offset), m))
    return MatchResult(sigma_nw=float(np.mean(block_maxima)), block_maxima=tuple(block_maxima.tolist()))


# Shares the built-in Tintal's name but not its theka or its variant map, so
# a per-tala cache keyed by name would hand it the wrong rotation table.
IMPOSTOR_TINTAL = TalaDefinition(
    name="Tintal",
    vibhag_lengths=(4, 4),
    theka_names=("Dha", "Ge", "Na", "Tin", "Tin", "Na", "Ge", "Dha"),
    gharana_equivalents={"Ta": "Tin", "Ka": "Ge"},
)
ORACLE_TALAS = (*builtin_talas(), IMPOSTOR_TINTAL)
# Every built-in stroke, the gharana variants, and strokes no tala knows.
TOKEN_POOL = (*default_insertion_vocabulary(), "Ta", "Ka", "Ge", "Zzz", "Qq")


@st.composite
def noisy_renderings(draw, min_cycles=1, max_cycles=4):
    """A corrupted built-in performance, possibly shorter than one cycle."""
    tala = draw(st.sampled_from(builtin_talas()))
    spec = PerformanceSpec(
        tala=tala.name,
        cycles=draw(st.integers(min_cycles, max_cycles)),
        start_offset=draw(st.integers(0, tala.matra_count - 1)),
        gharana_variant=draw(st.booleans()),
    )
    noise = NoiseSpec(
        p_sub=draw(st.sampled_from([0.0, 0.1, 0.3])),
        p_del=draw(st.sampled_from([0.0, 0.1, 0.3])),
        p_ins=draw(st.sampled_from([0.0, 0.05, 0.2])),
        seed=draw(st.integers(0, 2**32)),
    )
    names = list(corrupt(generate_performance(spec), noise).names)
    # Corruption draws only built-in strokes; a transcriber also emits
    # gharana variants and strokes no tala knows.
    swaps = st.tuples(st.integers(0, max(0, len(names) - 1)), st.sampled_from(TOKEN_POOL))
    for i, token in draw(st.lists(swaps, max_size=len(names) // 4)):
        names[i] = token
    return tuple(names[: draw(st.integers(1, max(1, len(names))))]) or ("Zzz",)


stroke_inputs = st.one_of(
    noisy_renderings(),
    st.lists(st.sampled_from(TOKEN_POOL), min_size=1, max_size=40).map(tuple),
    st.lists(st.sampled_from(("Ta", "Na", "Zzz", "Dha")), min_size=1, max_size=40).map(tuple),
)
# Many blocks per input, as on long files, where noise leaves offsets open.
long_stroke_inputs = st.one_of(
    noisy_renderings(min_cycles=6, max_cycles=20),
    st.lists(st.sampled_from(TOKEN_POOL), min_size=80, max_size=300).map(tuple),
    st.lists(st.sampled_from(("Ta", "Na", "Zzz", "Dha")), min_size=80, max_size=300).map(tuple),
)


def brute_lcs(x, y):
    """Longest common subsequence by exhaustive subsequence enumeration."""
    short, long_ = (x, y) if len(x) <= len(y) else (y, x)
    best = 0
    for mask in range(1 << len(short)):
        sub = [short[i] for i in range(len(short)) if mask >> i & 1]
        it = iter(long_)
        if all(tok in it for tok in sub):
            best = max(best, len(sub))
    return best


class TestNwScore:
    def test_theka_self_score(self):
        theka = list(TINTAL.theka_names)
        assert nw_score(theka, theka) == 16

    def test_one_substitution(self):
        assert nw_score(
            ["Dha", "Dhin", "Dhin", "Dha"], ["Dha", "Dhin", "Tin", "Dha"]
        ) == 2

    def test_total_mismatch(self):
        assert nw_score(["Dha"] * 4, ["Tin"] * 4) == -4

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty sequence"):
            nw_score([], ["Dha"])
        with pytest.raises(ValueError, match="empty sequence"):
            nw_score(["Dha"], [])

    def test_matches_brute_force_small_exhaustive(self):
        # Every pair of strings over a 2-symbol alphabet with lengths 1..4,
        # scored against explicit enumeration of all alignments.
        alphabet = ["a", "b"]
        for la in range(1, 5):
            for lb in range(1, 5):
                for x in itertools.product(alphabet, repeat=la):
                    for y in itertools.product(alphabet, repeat=lb):
                        assert nw_score(list(x), list(y)) == brute_nw(x, y)

    @given(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=6),
        st.lists(st.sampled_from("abc"), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_bounds(self, x, y):
        s = nw_score(x, y)
        assert s == nw_score(y, x)
        assert s <= min(len(x), len(y)) * MATCH_SCORE + abs(len(x) - len(y)) * GAP_PENALTY
        assert s >= GAP_PENALTY * (len(x) + len(y))

    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_self_alignment_is_length(self, x):
        assert nw_score(x, x) == len(x)

    @given(
        st.lists(st.sampled_from(["Dha", "Dhin", "Tin", "Na"]), min_size=1, max_size=20),
        st.lists(st.sampled_from(["Dha", "Dhin", "Tin", "Na"]), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_reference(self, x, y):
        assert nw_score(x, y) == reference_nw_matrix(x, y)[-1, -1]

    def test_long_pair_matches_scalar_reference(self):
        # 3 x 20,000 leaves int16, so the DP runs on the int64 path.
        rng = np.random.default_rng(5)
        syms = ["Dha", "Dhin", "Tin", "Na"]
        x = ["Dha", "Tin", "Na"]
        y = [syms[k] for k in rng.integers(0, 4, 20_000)]
        assert nw_score(x, y) == reference_nw_matrix(x, y)[-1, -1]


class TestNwAlign:
    def test_path_score_consistent(self):
        rng = np.random.default_rng(0)
        syms = ["Dha", "Dhin", "Tin", "Na"]
        for _ in range(50):
            x = [syms[i] for i in rng.integers(0, 4, rng.integers(1, 9))]
            y = [syms[i] for i in rng.integers(0, 4, rng.integers(1, 9))]
            score, path = nw_align(x, y)
            assert score == nw_score(x, y)
            total = 0
            for a, b in path:
                if a is None or b is None:
                    total += GAP_PENALTY
                elif a == b:
                    total += MATCH_SCORE
                else:
                    total += MISMATCH_SCORE
            assert total == score
            # The path must spell out both sequences in order.
            assert [a for a, _ in path if a is not None] == list(x)
            assert [b for _, b in path if b is not None] == list(y)


class TestBatchScores:
    def test_matches_scalar_nw(self):
        rng = np.random.default_rng(1)
        refs = rng.integers(0, 3, size=(4, 7))
        wins = rng.integers(0, 3, size=(5, 9))
        out = batch_nw_scores(refs, wins)
        assert out.shape == (4, 5)
        syms = "abc"
        for i in range(4):
            for j in range(5):
                x = [syms[k] for k in refs[i]]
                y = [syms[k] for k in wins[j]]
                assert out[i, j] == reference_nw_matrix(x, y)[-1, -1]

    def test_disjoint_alphabets_never_match(self):
        refs = np.zeros((1, 3), dtype=np.int64)
        wins = np.ones((1, 3), dtype=np.int64)
        assert batch_nw_scores(refs, wins)[0, 0] == -3

    def test_long_window_does_not_wrap(self):
        # 3 mismatches and 19997 gaps: far outside int16.
        out = batch_nw_scores(np.zeros((1, 3), int), np.ones((1, 20000), int))
        assert out.dtype == np.int64
        assert out.tolist() == [[-39997]]

    @given(
        st.integers(1, 9),
        st.integers(1, 9),
        st.integers(0, 40),
        st.integers(1, 4),
        st.integers(0, 2**32),
    )
    @settings(max_examples=100)
    def test_matches_reference_dp(self, m, w, n_windows, n_symbols, seed):
        rng = np.random.default_rng(seed)
        refs = rng.integers(0, n_symbols, size=(m, m))
        wins = rng.integers(0, n_symbols, size=(n_windows, w))
        out = batch_nw_scores(refs, wins)
        assert out.dtype == np.int64
        assert np.array_equal(out, reference_batch_nw_scores(refs, wins))


class TestLcs:
    def test_identity(self):
        theka = list(TINTAL.theka_names)
        assert lcs_baseline_score(theka, theka) == 16

    def test_example(self):
        assert lcs_baseline_score(["Dha", "Dhin", "Tin"], ["Dha", "Tin", "Na"]) == 2

    def test_empty_is_zero(self):
        assert lcs_baseline_score([], ["Dha"]) == 0
        assert lcs_baseline_score([], []) == 0

    def test_matches_brute_force(self):
        alphabet = ["a", "b"]
        for la in range(0, 5):
            for lb in range(0, 5):
                for x in itertools.product(alphabet, repeat=la):
                    for y in itertools.product(alphabet, repeat=lb):
                        assert lcs_baseline_score(list(x), list(y)) == brute_lcs(x, y)


class TestSlidingMatch:
    def test_two_tintal_cycles(self):
        names = TINTAL.theka_names * 2
        r = sliding_match_score(names, TINTAL)
        assert r.sigma_nw == 16.0
        assert r.block_maxima == (16, 16)
        assert not r.short_input

    def test_two_jhaptal_cycles(self):
        jhaptal = get_tala("Jhaptal")
        r = sliding_match_score(jhaptal.theka_names * 2, jhaptal)
        assert r.sigma_nw == 10.0

    def test_sigma_is_mean_of_window_maxima(self):
        perf = generate_performance(PerformanceSpec(tala="Ektal", cycles=3, start_offset=4))
        r = sliding_match_score(perf.names, get_tala("Ektal"))
        assert r.sigma_nw == pytest.approx(float(np.mean(r.block_maxima)))

    def test_cross_tala_scores_lower(self):
        rupak_perf = generate_performance(PerformanceSpec(tala="Rupak", cycles=3))
        own = sliding_match_score(rupak_perf.names, get_tala("Rupak"))
        other = sliding_match_score(rupak_perf.names, TINTAL)
        assert own.sigma_nw / 7 > other.sigma_nw / 16

    def test_short_input_flagged(self):
        r = sliding_match_score(["Dha", "Dhin", "Dhin"], TINTAL)
        assert r.short_input
        assert len(r.block_maxima) == 1

    def test_gharana_equivalence_toggle(self):
        variant = generate_performance(
            PerformanceSpec(tala="Tintal", cycles=2, gharana_variant=True)
        )
        with_equiv = sliding_match_score(variant.names, TINTAL, gharana_equiv=True)
        without = sliding_match_score(variant.names, TINTAL, gharana_equiv=False)
        assert with_equiv.sigma_nw == 16.0
        assert without.sigma_nw < 16.0


class TestSlidingMatchOracle:
    """The fast matcher against the original one, moved here as an oracle."""

    @given(stroke_inputs, st.sampled_from(ORACLE_TALAS), st.booleans())
    @settings(max_examples=300)
    def test_equals_reference_matcher(self, names, tala, gharana_equiv):
        r = sliding_match_score(names, tala, gharana_equiv=gharana_equiv)
        sigma, maxima, short = reference_sliding_match_score(names, tala, gharana_equiv)
        assert r.sigma_nw == sigma
        assert r.block_maxima == maxima
        assert r.short_input == short

    def test_same_name_different_theka(self):
        names = IMPOSTOR_TINTAL.theka_names * 3
        for tala in (TINTAL, IMPOSTOR_TINTAL, TINTAL):
            r = sliding_match_score(names, tala)
            assert (r.sigma_nw, r.block_maxima, r.short_input) == reference_sliding_match_score(names, tala)
        assert sliding_match_score(names, IMPOSTOR_TINTAL).sigma_nw == 8.0


class TestWindowPruning:
    """Bounded windows against the matcher that aligns every window."""

    @given(stroke_inputs | long_stroke_inputs, st.sampled_from(ORACLE_TALAS), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_unpruned_matcher(self, names, tala, gharana_equiv):
        assert sliding_match_score(names, tala, gharana_equiv=gharana_equiv) == unpruned_sliding_match_score(
            names, tala, gharana_equiv
        )

    @given(stroke_inputs | long_stroke_inputs, st.sampled_from(ORACLE_TALAS), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bounds_hold_for_every_window(self, names, tala, gharana_equiv):
        m = tala.matra_count
        if len(names) < m:
            names = names * m
        rotations, seq_ids = _symbol_ids(names, tala, gharana_equiv)
        windows = np.lib.stride_tricks.sliding_window_view(seq_ids, m)
        score = reference_batch_nw_scores(rotations, windows).max(axis=0)
        lower, upper = _window_bounds(seq_ids, tala)
        assert np.all(lower <= score) and np.all(score <= upper)
        # The lower bound is the best gap-free alignment, which is reachable.
        positional = (windows[:, None, :] == rotations[None, :, :]).sum(axis=2).max(axis=1)
        assert np.array_equal(lower, 2 * positional - m)

    @pytest.mark.parametrize("tala", ORACLE_TALAS, ids=lambda t: f"{t.name}-{t.matra_count}")
    def test_bounds_equal_the_axis_1_reference(self, tala):
        m = tala.matra_count
        rng = np.random.default_rng(m)
        pool = tala.theka_names + ("Ta", "Zzz")
        # Every length from one to five cycles, then 600 strokes, where the
        # uint8 running sums wrap; the theka repeated keeps each column busy.
        inputs = [tuple(rng.choice(pool, n)) for n in range(m, 5 * m + 1)]
        inputs += [tuple(rng.choice(pool, 600)), (tala.theka_names * 600)[:600]]
        for names in inputs:
            seq_ids = tala.token_ids(names)
            got, want = _window_bounds(seq_ids, tala), reference_window_bounds(seq_ids, tala)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == np.int64
                assert np.array_equal(a, b)

    def test_clean_input_runs_no_dp(self, monkeypatch):
        import taalkit.alignment as alignment

        calls = []
        original = alignment.batch_nw_scores
        monkeypatch.setattr(alignment, "batch_nw_scores", lambda *a: calls.append(a) or original(*a))
        clean = generate_performance(PerformanceSpec(tala="Tintal", cycles=15)).names
        assert len(clean) == 240
        for names in (clean, clean[:35]):
            sliding_match_score(names, TINTAL)
        assert calls == []

    def test_aligns_distinct_windows_at_open_offsets(self, monkeypatch):
        import taalkit.alignment as alignment

        aligned = []
        original = alignment.batch_nw_scores
        monkeypatch.setattr(
            alignment, "batch_nw_scores", lambda *a: aligned.append(a[1].copy()) or original(*a)
        )
        names = _noisy_tintal(240)
        sliding_match_score(names, TINTAL)
        m = TINTAL.matra_count
        # The matcher gives every stroke outside the theka one shared id.
        ids = {s.name: s.id for s in TINTAL.stroke_vocabulary}
        seq_ids = np.array([ids.get(TINTAL.canonical_stroke(n), len(ids)) for n in names])
        assert len(ids) in seq_ids
        assert TINTAL.token_ids(names).tolist() == seq_ids.tolist()
        lower, upper = _window_bounds(seq_ids, TINTAL)
        known = [lower[b:b + m].max() for b in range(0, len(lower), m)]
        open_at = [i for i in range(len(lower)) if upper[i] > known[i // m]]
        windows = np.lib.stride_tricks.sliding_window_view(seq_ids, m)
        expected = {tuple(w) for w in windows[open_at].tolist()}
        assert 0 < len(open_at) < len(lower)
        assert len(aligned) == 1
        got = [tuple(w) for w in aligned[0].tolist()]
        assert len(got) == len(set(got)) and set(got) == expected


def _noisy_tintal(n):
    perf = generate_performance(PerformanceSpec(tala="Tintal", cycles=-(-2 * n // 16)))
    names = corrupt(perf, NoiseSpec(p_sub=0.1, p_del=0.1, p_ins=0.05, seed=11)).names[:n]
    assert len(names) == n
    return names


def _identify_peak_bytes(names):
    tracemalloc.start()
    try:
        identify_tala_nw(names)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNwScaling:
    def test_peak_memory_bounded_on_long_noisy_input(self):
        # Noisy windows are nearly all distinct, so nothing is saved by
        # deduplication; only chunking keeps the DP's working set fixed.
        small = _identify_peak_bytes(_noisy_tintal(2_000))
        large = _identify_peak_bytes(_noisy_tintal(20_000))
        assert large < 32 * 2**20
        assert large < 2 * small

    def test_canonicalises_each_distinct_token_once(self, monkeypatch):
        calls = Counter()
        original = TalaDefinition.canonical_stroke

        def counting(self, name):
            calls[self.name, name] += 1
            return original(self, name)

        monkeypatch.setattr(TalaDefinition, "canonical_stroke", counting)
        identify_tala_nw(["Dha", "Ta", "Zzz"] * 50)
        assert calls == Counter({(t.name, n): 1 for t in builtin_talas() for n in ("Dha", "Ta", "Zzz")})


class TestIdentifyNw:
    def test_clean_cycles_identified(self):
        for name in ("Tintal", "Ektal", "Jhaptal", "Rupak"):
            perf = generate_performance(PerformanceSpec(tala=name, cycles=3))
            result = identify_tala_nw(perf.names)
            assert result.method == "nw"
            assert result.best.tala == name
            assert result.best.normalized == 1.0
            assert result.flags == ()

    def test_ranking_is_sorted_and_complete(self):
        perf = generate_performance(PerformanceSpec(tala="Jhaptal", cycles=2))
        result = identify_tala_nw(perf.names)
        assert len(result.ranking) == 4
        normals = [s.normalized for s in result.ranking]
        assert normals == sorted(normals, reverse=True)

    def test_unknown_strokes_flag_low_confidence(self):
        result = identify_tala_nw(["Zzz"] * 20)
        assert all(s.normalized < 0 for s in result.ranking)
        assert "low_confidence" in result.flags

    def test_short_input_flag(self):
        result = identify_tala_nw(["Dha", "Dhin"])
        assert "short_input" in result.flags

    def test_ties_break_by_matra_count_then_name(self):
        # All-unknown input scores -1.0 normalized for every tala, so the
        # ranking must fall back to ascending matra count.
        result = identify_tala_nw(["Zzz"] * 32)
        assert [s.tala for s in result.ranking] == ["Rupak", "Jhaptal", "Ektal", "Tintal"]

    def test_offset_invariance_spot(self):
        for offset in (1, 5, 9):
            perf = generate_performance(
                PerformanceSpec(tala="Jhaptal", cycles=2, start_offset=offset)
            )
            assert identify_tala_nw(perf.names).best.tala == "Jhaptal"

    def test_score_dict_shape(self):
        result = identify_tala_nw(TINTAL.theka_names * 2)
        d = result.best.to_dict()
        assert d == {"tala": "Tintal", "score": 16.0, "normalized": 1.0}

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty sequence"):
            identify_tala_nw([])
