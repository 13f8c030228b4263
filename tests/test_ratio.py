"""Tests for stroke-ratio (cosine) tala identification."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taalkit.alignment import identify_tala_nw
from taalkit.ratio import cosine_similarity, identify_tala_ratio
from taalkit.simulate import PerformanceSpec, default_insertion_vocabulary, generate_performance
from taalkit.talas import StrokeSequence, TalaDefinition, builtin_talas, get_tala, stroke_histogram

TOKEN_POOL = (*default_insertion_vocabulary(), "Ta", "Zzz", "Qq")


def reference_ratio_ranking(names, gharana_equiv, talas=None):
    """The original ranking: every stroke canonicalised and counted one by one."""
    entries = []
    for t in builtin_talas() if talas is None else talas:
        mapped = [t.canonical_stroke(n) for n in names] if gharana_equiv else list(names)
        index = {s.name: i for i, s in enumerate(t.stroke_vocabulary)}
        counts = np.zeros(len(index), dtype=np.int64)
        oov = 0
        for n in mapped:
            if n in index:
                counts[index[n]] += 1
            else:
                oov += 1
        coverage = (len(mapped) - oov) / len(mapped)
        cos = cosine_similarity(np.asarray(t.reference_ratio), counts)
        entries.append((t, (t.name, cos, cos * coverage, coverage)))
    entries.sort(key=lambda e: (-e[1][2], e[0].matra_count, e[0].name))
    return [e for _, e in entries]


class TestCosine:
    def test_proportional_vectors_score_one(self):
        assert cosine_similarity([6, 6, 2, 2], [3, 3, 1, 1]) == pytest.approx(1.0)
        assert cosine_similarity([6, 6, 2, 2], [6, 6, 2, 2]) == pytest.approx(1.0)

    def test_orthogonal_vectors_score_zero(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_all_zero_test_vector_is_zero(self):
        assert cosine_similarity([6, 6, 2, 2], [0, 0, 0, 0]) == 0.0

    def test_all_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity([0, 0], [1, 2])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity([1, 2, 3], [1, 2])

    @given(
        st.lists(st.integers(0, 50), min_size=2, max_size=8).filter(lambda v: any(v)),
        st.lists(st.integers(0, 50), min_size=2, max_size=8),
        st.integers(1, 9),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance_and_range(self, r, t, k):
        t = t[: len(r)] + [0] * max(0, len(r) - len(t))
        base = cosine_similarity(r, t)
        assert 0.0 <= base <= 1.0 + 1e-12
        scaled = cosine_similarity(r, [k * v for v in t])
        assert scaled == pytest.approx(base, abs=1e-12)


class TestIdentifyRatio:
    def test_clean_cycles_identified(self):
        for name in ("Tintal", "Ektal", "Jhaptal", "Rupak"):
            perf = generate_performance(PerformanceSpec(tala=name, cycles=2))
            result = identify_tala_ratio(perf.names)
            assert result.method == "ratio"
            assert result.best.tala == name
            assert result.best.score == pytest.approx(1.0)
            assert result.best.coverage == pytest.approx(1.0)
            assert result.best.normalized == pytest.approx(1.0)

    def test_jhaptal_two_cycle_histogram(self):
        jhaptal = get_tala("Jhaptal")
        perf = generate_performance(PerformanceSpec(tala="Jhaptal", cycles=2))
        counts, oov = stroke_histogram(perf.names, jhaptal)
        assert counts.tolist() == [10, 8, 2]
        assert oov == 0
        assert cosine_similarity(jhaptal.reference_ratio, counts) == pytest.approx(1.0)

    def test_reported_score_is_raw_cosine(self):
        # A Rupak performance scored against Jhaptal has partial coverage;
        # the ranking key is cosine * coverage but ``score`` stays the raw
        # cosine.
        perf = generate_performance(PerformanceSpec(tala="Rupak", cycles=2))
        result = identify_tala_ratio(perf.names)
        by_name = {s.tala: s for s in result.ranking}
        jh = by_name["Jhaptal"]
        assert jh.coverage == pytest.approx(10 / 14)
        counts, _ = stroke_histogram(
            [get_tala("Jhaptal").canonical_stroke(n) for n in perf.names],
            get_tala("Jhaptal"),
        )
        expected_cos = cosine_similarity(get_tala("Jhaptal").reference_ratio, counts)
        assert jh.score == pytest.approx(expected_cos)
        assert jh.normalized == pytest.approx(expected_cos * jh.coverage)

    def test_order_invariance(self):
        perf = generate_performance(PerformanceSpec(tala="Ektal", cycles=2))
        shuffled = list(perf.names)
        np.random.default_rng(3).shuffle(shuffled)
        a = identify_tala_ratio(perf.names)
        b = identify_tala_ratio(shuffled)
        assert [(s.tala, s.score, s.normalized) for s in a.ranking] == [
            (s.tala, s.score, s.normalized) for s in b.ranking
        ]

    def test_repetition_invariance(self):
        # Concatenating extra cycles scales every count vector uniformly and
        # must not change any score.
        names = get_tala("Tintal").theka_names
        a = identify_tala_ratio(names * 2)
        b = identify_tala_ratio(names * 6)
        for sa, sb in zip(a.ranking, b.ranking):
            assert sa.tala == sb.tala
            assert sa.score == pytest.approx(sb.score)
            assert sa.normalized == pytest.approx(sb.normalized)

    @given(st.lists(st.sampled_from(TOKEN_POOL), min_size=1, max_size=80), st.booleans())
    @settings(max_examples=200)
    def test_equals_per_stroke_ranking(self, names, gharana_equiv):
        result = identify_tala_ratio(names, gharana_equiv=gharana_equiv)
        got = [(s.tala, s.score, s.normalized, s.coverage) for s in result.ranking]
        assert got == reference_ratio_ranking(names, gharana_equiv)

    @given(
        st.lists(st.sampled_from(default_insertion_vocabulary()), min_size=1, max_size=16),
        st.lists(st.sampled_from(TOKEN_POOL), min_size=1, max_size=60),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_custom_theka_catalogue(self, theka, names, gharana_equiv):
        # Everything a tala holds besides its theka follows from the theka.
        tala = TalaDefinition(
            name="Custom",
            vibhag_lengths=(len(theka),),
            theka_names=tuple(theka),
            gharana_equivalents={"Zzz": theka[0]},
        )
        counts, oov = stroke_histogram(tala.theka_names, tala)
        assert oov == 0
        assert tuple(counts.tolist()) == tala.reference_ratio
        ids = {s.name: s.id for s in tala.stroke_vocabulary}
        assert tala.theka_rotations[0].tolist() == [ids[n] for n in tala.theka_names]
        assert tuple(np.bincount(tala.theka_rotations[0]).tolist()) == tala.reference_ratio
        result = identify_tala_ratio(names, [tala], gharana_equiv=gharana_equiv)
        got = [(s.tala, s.score, s.normalized, s.coverage) for s in result.ranking]
        assert got == reference_ratio_ranking(names, gharana_equiv, [tala])

    def test_canonicalises_each_distinct_token_once(self, monkeypatch):
        calls = Counter()
        original = TalaDefinition.canonical_stroke

        def counting(self, name):
            calls[self.name, name] += 1
            return original(self, name)

        monkeypatch.setattr(TalaDefinition, "canonical_stroke", counting)
        identify_tala_ratio(["Dha", "Ta", "Zzz"] * 50)
        assert calls == Counter({(t.name, n): 1 for t in builtin_talas() for n in ("Dha", "Ta", "Zzz")})

    def test_unknown_strokes_flag_low_confidence(self):
        result = identify_tala_ratio(["Zzz", "Qqq"] * 5)
        assert all(s.normalized == 0.0 for s in result.ranking)
        assert all(s.coverage == 0.0 for s in result.ranking)
        assert "low_confidence" in result.flags

    def test_dropping_one_class_degrades_gracefully(self):
        # Removing every occurrence of one stroke class still produces a
        # full ranking with finite scores (no exception paths).
        for name in ("Tintal", "Ektal", "Jhaptal", "Rupak"):
            tala = get_tala(name)
            for drop in {s.name for s in tala.stroke_vocabulary}:
                names = [n for n in tala.theka_names * 2 if n != drop]
                result = identify_tala_ratio(names)
                assert len(result.ranking) == 4
                assert all(np.isfinite(s.normalized) for s in result.ranking)
                assert all(0.0 <= s.normalized <= 1.0 + 1e-12 for s in result.ranking)

    def test_gharana_equivalence_toggle(self):
        variant = generate_performance(
            PerformanceSpec(tala="Tintal", cycles=2, gharana_variant=True)
        )
        with_equiv = identify_tala_ratio(variant.names, gharana_equiv=True)
        without = identify_tala_ratio(variant.names, gharana_equiv=False)
        best_with = {s.tala: s for s in with_equiv.ranking}["Tintal"]
        best_without = {s.tala: s for s in without.ranking}["Tintal"]
        assert best_with.coverage == pytest.approx(1.0)
        assert best_with.normalized == pytest.approx(1.0)
        assert best_without.coverage < 1.0

    def test_to_dict_includes_coverage(self):
        result = identify_tala_ratio(get_tala("Rupak").theka_names * 2)
        d = result.best.to_dict()
        assert d["tala"] == "Rupak"
        assert d["coverage"] == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty sequence"):
            identify_tala_ratio([])


@pytest.mark.parametrize("identify", [identify_tala_nw, identify_tala_ratio], ids=["nw", "ratio"])
def test_identifiers_accept_names_labels_and_sequences(identify):
    rupak = get_tala("Rupak")
    names = list(rupak.theka_names) * 3
    vocab = {s.name: s for s in rupak.stroke_vocabulary}
    labels = [vocab[n] for n in names]
    results = [identify(x) for x in (names, labels, StrokeSequence(names))]
    assert results[0].best.tala == "Rupak"
    assert results[0].best.normalized == pytest.approx(1.0)
    assert "low_confidence" not in results[0].flags
    assert results[1] == results[0]
    assert results[2] == results[0]
