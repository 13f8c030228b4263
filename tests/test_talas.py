"""Tests for the tala catalogue and stroke-sequence primitives."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taalkit.talas import (
    NO_STROKE,
    StrokeLabel,
    StrokeSequence,
    TalaDefinition,
    builtin_talas,
    get_tala,
    make_vocabulary,
    stroke_histogram,
    stroke_names,
)

EXPECTED = {
    "Tintal": dict(m=16, vibhags=(4, 4, 4, 4), ratio=(6, 6, 2, 2)),
    "Ektal": dict(m=12, vibhags=(2, 2, 2, 2, 2, 2), ratio=(3, 1, 2, 1, 1, 2, 2)),
    "Jhaptal": dict(m=10, vibhags=(2, 3, 2, 3), ratio=(5, 4, 1)),
    "Rupak": dict(m=7, vibhags=(3, 2, 2), ratio=(2, 3, 2)),
}


class TestCatalogue:
    def test_four_talas_present(self):
        names = {t.name for t in builtin_talas()}
        assert names == set(EXPECTED)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_structure(self, name):
        tala = get_tala(name)
        exp = EXPECTED[name]
        assert tala.matra_count == exp["m"]
        assert tala.vibhag_lengths == exp["vibhags"]
        assert sum(tala.vibhag_lengths) == tala.matra_count
        assert len(tala.theka_names) == tala.matra_count
        assert tala.reference_ratio == exp["ratio"]
        assert len(tala.reference_ratio) == len(tala.stroke_vocabulary)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_ratio_is_theka_histogram(self, name):
        # The reference ratio must be exactly the per-class counts of one
        # theka cycle, in vocabulary order.
        tala = get_tala(name)
        counts, oov = stroke_histogram(tala.theka_names, tala.stroke_vocabulary)
        assert oov == 0
        assert counts.tolist() == list(tala.reference_ratio)

    def test_tintal_theka(self):
        assert get_tala("Tintal").theka_names == (
            "Dha", "Dhin", "Dhin", "Dha",
            "Dha", "Dhin", "Dhin", "Dha",
            "Dha", "Tin", "Tin", "Na",
            "Na", "Dhin", "Dhin", "Dha",
        )

    def test_tintal_ratio_proportional_to_3311(self):
        ratio = np.asarray(get_tala("Tintal").reference_ratio, dtype=float)
        assert np.allclose(ratio / ratio.min(), [3.0, 3.0, 1.0, 1.0])

    def test_rupak_theka(self):
        assert get_tala("Rupak").theka_names == (
            "Tin", "Tin", "Na", "Dhi", "Na", "Dhi", "Na",
        )

    def test_jhaptal_vocabulary(self):
        vocab = get_tala("Jhaptal").stroke_vocabulary
        assert tuple(s.name for s in vocab) == ("Dhi", "Na", "Ti")

    def test_lookup_by_display_name(self):
        assert get_tala("Tīntāl").name == "Tintal"
        assert get_tala("Jhaptāl").name == "Jhaptal"
        assert get_tala("Rūpak").name == "Rupak"

    def test_unknown_tala_raises(self):
        with pytest.raises(KeyError):
            get_tala("Dhamar")

    def test_catalogue_is_immutable_tuples(self):
        tala = get_tala("Ektal")
        assert isinstance(tala.theka_names, tuple)
        assert isinstance(tala.stroke_vocabulary, tuple)
        assert isinstance(tala.reference_ratio, tuple)


class TestGharana:
    def test_tintal_ta_maps_to_na(self):
        tintal = get_tala("Tintal")
        assert tintal.canonical_stroke("Ta") == "Na"
        assert tintal.variant_stroke("Na") == "Ta"
        assert tintal.canonical_stroke("Dha") == "Dha"

    def test_ektal_ta_is_a_real_stroke(self):
        # Ektal's own vocabulary contains Ta, so no equivalence applies there.
        ektal = get_tala("Ektal")
        assert ektal.canonical_stroke("Ta") == "Ta"
        assert ektal.variant_stroke("Ta") == "Ta"

    def test_unknown_strokes_pass_through(self):
        assert get_tala("Tintal").canonical_stroke("Zzz") == "Zzz"


class TestVocabulary:
    def test_make_vocabulary_ids_sequential(self):
        vocab = make_vocabulary(["Dha", "Dhin"])
        assert [(l.id, l.name) for l in vocab] == [(0, "Dha"), (1, "Dhin")]

    def test_include_no_stroke_appended_last(self):
        vocab = make_vocabulary(["Dha"], include_no_stroke=True)
        assert vocab[-1].name == NO_STROKE
        assert vocab[-1].id == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            make_vocabulary(["Dha", "Dha"])

    def test_label_validation(self):
        with pytest.raises(ValueError):
            StrokeLabel(id=-1, name="Dha")
        with pytest.raises(ValueError):
            StrokeLabel(id=0, name="Dha Dhin")
        with pytest.raises(ValueError):
            StrokeLabel(id=0, name="")


def reference_from_names(names):
    """The original per-stroke loop: one StrokeLabel built for every stroke."""
    ids = {}
    strokes = []
    for n in names:
        if n not in ids:
            ids[n] = len(ids)
        strokes.append(StrokeLabel(ids[n], n))
    return StrokeSequence(tuple(strokes))


class TestStrokeSequence:
    def test_from_names_assigns_first_appearance_ids(self):
        seq = StrokeSequence.from_names(["Na", "Dha", "Na"])
        assert seq.names == ("Na", "Dha", "Na")
        assert [s.id for s in seq.strokes] == [0, 1, 0]

    @given(st.lists(st.sampled_from(["Na", "Dha", "Tin", "Ta", "Ge", "Dha Dhin", ""]), max_size=30))
    def test_from_names_equals_per_stroke_loop(self, names):
        try:
            expected = reference_from_names(names)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                StrokeSequence.from_names(names)
            assert str(got.value) == str(e)
        else:
            assert StrokeSequence.from_names(names) == expected

    def test_onsets_must_match_length(self):
        with pytest.raises(ValueError):
            StrokeSequence.from_names(["Na", "Dha"], onset_times=[0.0])

    def test_onsets_strictly_increasing(self):
        with pytest.raises(ValueError):
            StrokeSequence.from_names(["Na", "Dha"], onset_times=[0.5, 0.5])
        with pytest.raises(ValueError):
            StrokeSequence.from_names(["Na", "Dha"], onset_times=[-0.1, 0.5])

    def test_len_and_iteration(self):
        seq = StrokeSequence.from_names(["Na", "Dha", "Tin"])
        assert len(seq) == 3


class TestHistogram:
    def test_one_tintal_cycle_against_own_vocabulary(self):
        tintal = get_tala("Tintal")
        counts, oov = stroke_histogram(tintal.theka_names, tintal.stroke_vocabulary)
        assert counts.tolist() == [6, 6, 2, 2]
        assert oov == 0

    def test_two_jhaptal_cycles(self):
        jhaptal = get_tala("Jhaptal")
        counts, oov = stroke_histogram(jhaptal.theka_names * 2, jhaptal.stroke_vocabulary)
        assert counts.tolist() == [10, 8, 2]
        assert oov == 0

    def test_tintal_cycle_against_jhaptal_vocabulary(self):
        # Only the two Na strokes land in Jhaptal's vocabulary; Tintal's Tin
        # is a distinct stroke class from Jhaptal's Ti, so it counts as
        # out-of-vocabulary along with Dha and Dhin.
        counts, oov = stroke_histogram(
            get_tala("Tintal").theka_names, get_tala("Jhaptal").stroke_vocabulary
        )
        assert counts.tolist() == [0, 2, 0]
        assert oov == 14

    def test_empty_input(self):
        counts, oov = stroke_histogram([], get_tala("Rupak").stroke_vocabulary)
        assert counts.tolist() == [0, 0, 0]
        assert oov == 0

    def test_counts_dtype_and_purity(self):
        tintal = get_tala("Tintal")
        a, _ = stroke_histogram(tintal.theka_names, tintal.stroke_vocabulary)
        assert a.dtype == np.int64
        a[0] = 999  # mutating the returned array must not affect later calls
        b, _ = stroke_histogram(tintal.theka_names, tintal.stroke_vocabulary)
        assert b.tolist() == [6, 6, 2, 2]


    @given(
        st.lists(st.sampled_from(("Dha", "Dhin", "Tin", "Na", "Ta", "Dhi", "Zzz"))),
        st.sampled_from(sorted(EXPECTED)),
    )
    def test_counter_input_equals_sequence_input(self, names, tala):
        vocab = get_tala(tala).stroke_vocabulary
        a, oov_a = stroke_histogram(Counter(names), vocab)
        b, oov_b = stroke_histogram(names, vocab)
        assert a.tolist() == b.tolist()
        assert oov_a == oov_b

    def test_label_input_counts_names(self):
        tintal = get_tala("Tintal")
        counts, oov = stroke_histogram(list(tintal.theka), tintal.stroke_vocabulary)
        assert counts.tolist() == [6, 6, 2, 2]
        assert oov == 0


class TestStrokeNames:
    def test_name_tuple_returned_as_is(self):
        names = ("Dha", "Na")
        assert stroke_names(names) is names

    def test_names_labels_and_sequence_agree(self):
        seq = StrokeSequence.from_names(["Dha", "Na", "Dha"])
        want = ("Dha", "Na", "Dha")
        assert stroke_names(["Dha", "Na", "Dha"]) == want
        assert stroke_names(list(seq.strokes)) == want
        assert stroke_names(seq) == want
        assert stroke_names(iter(want)) == want

    def test_mixed_names_and_labels(self):
        assert stroke_names(["Dha", StrokeLabel(0, "Na")]) == ("Dha", "Na")

    def test_empty(self):
        assert stroke_names([]) == ()


class TestDefinitionValidation:
    def _base_kwargs(self, theka=("A", "B", "A", "B"), vocab=("A", "B"),
                     vibhags=(2, 2), ratio=(2, 2)):
        labels = make_vocabulary(vocab)
        by_name = {l.name: l for l in labels}
        return dict(
            name="Toy",
            matra_count=len(theka),
            vibhag_lengths=vibhags,
            theka=tuple(by_name[t] for t in theka),
            stroke_vocabulary=labels,
            reference_ratio=ratio,
        )

    def test_valid_definition_accepted(self):
        tala = TalaDefinition(**self._base_kwargs())
        assert tala.display_name == "Toy"  # defaults to name
        assert tala.theka_names == ("A", "B", "A", "B")

    def test_vibhag_sum_mismatch(self):
        with pytest.raises(ValueError):
            TalaDefinition(**self._base_kwargs(vibhags=(1, 2)))

    def test_theka_length_mismatch(self):
        kw = self._base_kwargs()
        kw["theka"] = kw["theka"][:3]
        with pytest.raises(ValueError):
            TalaDefinition(**kw)

    def test_theka_outside_vocabulary(self):
        kw = self._base_kwargs()
        kw["theka"] = kw["theka"][:3] + (StrokeLabel(id=9, name="C"),)
        with pytest.raises(ValueError):
            TalaDefinition(**kw)

    def test_ratio_must_match_theka_histogram(self):
        with pytest.raises(ValueError):
            TalaDefinition(**self._base_kwargs(ratio=(3, 1)))

    def test_duplicate_vocabulary_names_rejected(self):
        kw = self._base_kwargs()
        kw["stroke_vocabulary"] = (StrokeLabel(0, "A"), StrokeLabel(1, "A"))
        with pytest.raises(ValueError):
            TalaDefinition(**kw)

    def test_no_stroke_reserved(self):
        with pytest.raises(ValueError):
            TalaDefinition(
                **self._base_kwargs(
                    theka=("A", NO_STROKE, "A", NO_STROKE),
                    vocab=("A", NO_STROKE),
                )
            )
