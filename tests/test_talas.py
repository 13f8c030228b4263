"""Tests for the tala catalogue and stroke-sequence primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taalkit.postproc import OnsetAnnotation
from taalkit.talas import (
    NO_STROKE,
    StrokeLabel,
    StrokeSequence,
    TalaDefinition,
    TokenTable,
    builtin_talas,
    get_tala,
    make_vocabulary,
    stroke_histogram,
    stroke_names,
)

# Each ratio maps the theka's strokes, in first-appearance order, to their
# counts in one cycle.
EXPECTED = {
    "Tintal": dict(m=16, vibhags=(4, 4, 4, 4), ratio=dict(Dha=6, Dhin=6, Tin=2, Na=2)),
    "Ektal": dict(
        m=12,
        vibhags=(2, 2, 2, 2, 2, 2),
        ratio=dict(Dhin=3, Dhage=2, Tirkita=2, Tun=1, Na=2, Kat=1, Ta=1),
    ),
    "Jhaptal": dict(m=10, vibhags=(2, 3, 2, 3), ratio=dict(Dhi=5, Na=4, Ti=1)),
    "Rupak": dict(m=7, vibhags=(3, 2, 2), ratio=dict(Tin=2, Na=3, Dhi=2)),
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
        assert tuple(s.name for s in tala.stroke_vocabulary) == tuple(exp["ratio"])
        assert tala.reference_ratio == tuple(exp["ratio"].values())

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_ratio_is_theka_histogram(self, name):
        # The reference ratio must be exactly the per-class counts of one
        # theka cycle, in vocabulary order.
        tala = get_tala(name)
        counts, oov = stroke_histogram(tala.theka_names, tala)
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

    def test_reference_vector_is_a_read_only_float_copy_built_once(self):
        for tala in builtin_talas():
            vector = tala.reference_vector
            assert vector.dtype == np.float64 and not vector.flags.writeable
            assert vector.tolist() == list(tala.reference_ratio)
            assert tala.reference_vector is vector

    def test_token_ids(self):
        # Tintal numbers Dha Dhin Tin Na 0-3; Ta maps to Na, and every other
        # token shares the next id.
        tintal = get_tala("Tintal")
        ids = tintal.token_ids(("Dha", "Ta", "Zzz", "Tin", "Ta", "Qqq"))
        assert ids.dtype == np.uint8
        assert ids.tolist() == [0, 3, 4, 2, 3, 4]
        assert tintal.token_ids(("Dha", "Ta", "Na"), gharana_equiv=False).tolist() == [0, 4, 3]
        assert tintal.token_ids(()).tolist() == []
        entered_at_3 = tintal.theka_names[3:] + tintal.theka_names[:3]
        assert tintal.theka_rotations[3].tolist() == tintal.token_ids(entered_at_3).tolist()


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


class TestStrokeSequence:
    def test_holds_names(self):
        seq = StrokeSequence(["Na", "Dha", "Na"])
        assert seq.names == ("Na", "Dha", "Na")
        assert seq.onset_times is None

    @pytest.mark.parametrize("bad", ["Dha Dhin", ""])
    def test_invalid_name_rejected(self, bad):
        with pytest.raises(ValueError, match="stroke name must be a non-empty token"):
            StrokeSequence(["Na", bad, "Dha"])

    @given(st.lists(st.sampled_from(["Na", "Dha", "Tin", "Ta", "Ge", "Dha Dhin", ""]), max_size=30))
    def test_first_invalid_name_is_reported(self, names):
        # The error names the first invalid token, as labelling each name in
        # order would.
        bad = [n for n in names if not n or " " in n]
        if not bad:
            assert StrokeSequence(names).names == tuple(names)
            return
        with pytest.raises(ValueError) as got:
            StrokeSequence(names)
        assert str(got.value) == f"stroke name must be a non-empty token, got {bad[0]!r}"

    def test_onsets_must_match_length(self):
        with pytest.raises(ValueError):
            StrokeSequence(["Na", "Dha"], onset_times=[0.0])

    def test_onsets_strictly_increasing(self):
        with pytest.raises(ValueError):
            StrokeSequence(["Na", "Dha"], onset_times=[0.5, 0.5])
        with pytest.raises(ValueError):
            StrokeSequence(["Na", "Dha"], onset_times=[-0.1, 0.5])

    def test_len_and_iteration(self):
        seq = StrokeSequence(["Na", "Dha", "Tin"])
        assert len(seq) == 3


class TestHistogram:
    def test_one_tintal_cycle_against_own_vocabulary(self):
        tintal = get_tala("Tintal")
        counts, oov = stroke_histogram(tintal.theka_names, tintal)
        assert counts.tolist() == [6, 6, 2, 2]
        assert oov == 0

    def test_two_jhaptal_cycles(self):
        jhaptal = get_tala("Jhaptal")
        counts, oov = stroke_histogram(jhaptal.theka_names * 2, jhaptal)
        assert counts.tolist() == [10, 8, 2]
        assert oov == 0

    def test_tintal_cycle_against_jhaptal_vocabulary(self):
        # Only the two Na strokes land in Jhaptal's vocabulary; Tintal's Tin
        # is a distinct stroke class from Jhaptal's Ti, so it counts as
        # out-of-vocabulary along with Dha and Dhin.
        counts, oov = stroke_histogram(
            get_tala("Tintal").theka_names, get_tala("Jhaptal")
        )
        assert counts.tolist() == [0, 2, 0]
        assert oov == 14

    def test_empty_input(self):
        counts, oov = stroke_histogram([], get_tala("Rupak"))
        assert counts.tolist() == [0, 0, 0]
        assert oov == 0

    def test_counts_dtype_and_purity(self):
        tintal = get_tala("Tintal")
        a, _ = stroke_histogram(tintal.theka_names, tintal)
        assert a.dtype == np.int64
        a[0] = 999  # mutating the returned array must not affect later calls
        b, _ = stroke_histogram(tintal.theka_names, tintal)
        assert b.tolist() == [6, 6, 2, 2]


    @given(
        st.lists(st.sampled_from(("Dha", "Dhin", "Tin", "Na", "Ta", "Dhi", "Zzz"))),
        st.sampled_from(sorted(EXPECTED)),
    )
    def test_table_input_equals_sequence_input(self, names, tala):
        a, oov_a = stroke_histogram(TokenTable.of(names), get_tala(tala))
        b, oov_b = stroke_histogram(names, get_tala(tala))
        assert a.tolist() == b.tolist()
        assert oov_a == oov_b

    def test_label_input_counts_names(self):
        tintal = get_tala("Tintal")
        vocab = {s.name: s for s in tintal.stroke_vocabulary}
        labels = [vocab[n] for n in tintal.theka_names]
        counts, oov = stroke_histogram(labels, tintal)
        assert counts.tolist() == [6, 6, 2, 2]
        assert oov == 0


class TestStrokeNames:
    def test_name_tuple_returned_as_is(self):
        names = ("Dha", "Na")
        assert stroke_names(names) is names

    def test_names_labels_and_sequence_agree(self):
        seq = StrokeSequence(["Dha", "Na", "Dha"])
        want = ("Dha", "Na", "Dha")
        vocab = {s.name: s for s in get_tala("Tintal").stroke_vocabulary}
        assert stroke_names(["Dha", "Na", "Dha"]) == want
        assert stroke_names([vocab[n] for n in want]) == want
        assert stroke_names(seq) == want
        assert stroke_names(iter(want)) == want

    def test_onset_annotation_labels_in_event_order(self):
        onsets = OnsetAnnotation(((0.0, "Dha"), (0.25, "Na"), (0.25, "Tin"), (0.5, "Dha")))
        assert stroke_names(onsets) == ("Dha", "Na", "Tin", "Dha")

    def test_mixed_names_and_labels(self):
        assert stroke_names(["Dha", StrokeLabel(0, "Na")]) == ("Dha", "Na")

    def test_empty(self):
        assert stroke_names([]) == ()


class TestDefinitionValidation:
    def _base_kwargs(self, theka=("A", "B", "A", "B"), vibhags=(2, 2)):
        return dict(name="Toy", vibhag_lengths=vibhags, theka_names=theka)

    def test_valid_definition_accepted(self):
        tala = TalaDefinition(**self._base_kwargs())
        assert tala.display_name == "Toy"  # defaults to name
        assert tala.theka_names == ("A", "B", "A", "B")
        assert tala.matra_count == 4
        assert [(s.id, s.name) for s in tala.stroke_vocabulary] == [(0, "A"), (1, "B")]
        assert tala.reference_ratio == (2, 2)

    def test_empty_theka_rejected(self):
        with pytest.raises(ValueError, match="theka must not be empty"):
            TalaDefinition(**self._base_kwargs(theka=(), vibhags=()))

    def test_vibhag_sum_mismatch(self):
        with pytest.raises(ValueError):
            TalaDefinition(**self._base_kwargs(vibhags=(1, 2)))

    @pytest.mark.parametrize("vibhags", [(-1, 5), (0, 4)])
    def test_vibhag_below_one_rejected(self, vibhags):
        # Each sums to the matra count, so only the per-vibhag check catches it.
        with pytest.raises(ValueError, match="must each be at least 1"):
            TalaDefinition(**self._base_kwargs(vibhags=vibhags))

    @pytest.mark.parametrize(
        "equivalents",
        [{"Na": "Ta"}, {"Ge": "Dha"}],
        ids=["variant-is-a-theka-stroke", "canonical-outside-theka"],
    )
    def test_malformed_gharana_map_rejected(self, equivalents):
        # Mapping the theka's own Na to Ta would score a clean theka as noise.
        with pytest.raises(ValueError, match="must lead from outside the theka into it"):
            TalaDefinition("X", (4,), ("Na", "Ta", "Na", "Tin"), gharana_equivalents=equivalents)

    @pytest.mark.parametrize("bad", ["A B", ""])
    def test_invalid_theka_token_rejected(self, bad):
        with pytest.raises(ValueError, match="stroke name must be a non-empty token"):
            TalaDefinition(**self._base_kwargs(theka=("A", bad, "A", "B")))

    def test_no_stroke_reserved(self):
        with pytest.raises(ValueError):
            TalaDefinition(**self._base_kwargs(theka=("A", NO_STROKE, "A", NO_STROKE)))
