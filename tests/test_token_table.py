"""Tests for the token table that both identifiers read, and for its
equivalence with the per-stroke references of each identifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taalkit.alignment import RankedResult, TalaScore, identify_tala_nw
from taalkit.postproc import OnsetAnnotation
from taalkit.ratio import identify_tala_ratio
from taalkit.talas import StrokeLabel, StrokeSequence, TokenTable
from test_alignment import ORACLE_TALAS, reference_sliding_match_score, stroke_inputs
from test_ratio import reference_ratio_ranking


class TestTokenTable:
    def test_distinct_tokens_in_first_seen_order(self):
        table = TokenTable.of(["Na", "Dha", "Na", "Zzz", "Dha"])
        assert table.tokens == ("Na", "Dha", "Zzz")
        assert table.codes.tolist() == [0, 1, 0, 2, 1]
        assert table.counts.tolist() == [2, 2, 1]
        assert len(table) == 5
        assert [table.tokens[c] for c in table.codes] == ["Na", "Dha", "Na", "Zzz", "Dha"]

    def test_codes_and_counts_are_read_only(self):
        table = TokenTable.of(["Dha", "Na"])
        for array in (table.codes, table.counts):
            with pytest.raises(ValueError):
                array[0] = 1
        assert table.counts is table.counts

    @pytest.mark.parametrize("distinct, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_codes_take_the_smallest_unsigned_dtype(self, distinct, dtype):
        names = [f"S{i}" for i in range(distinct)] * 2
        table = TokenTable.of(names)
        assert table.codes.dtype == dtype
        assert [table.tokens[c] for c in table.codes] == names

    def test_empty_input(self):
        table = TokenTable.of([])
        assert table.tokens == ()
        assert table.codes.dtype == np.uint8 and len(table) == 0
        assert table.counts.tolist() == []

    def test_a_table_passes_through(self):
        table = TokenTable.of(("Dha", "Na"))
        assert TokenTable.of(table) is table

    def test_labels_share_the_code_of_their_name(self):
        table = TokenTable.of([StrokeLabel(0, "Dha"), "Na", "Dha", StrokeLabel(7, "Dha"), StrokeLabel(1, "Na")])
        assert table.tokens == ("Dha", "Na")
        assert table.codes.tolist() == [0, 1, 0, 0, 1]

    def test_every_accepted_form(self):
        names = ("Dha", "Na", "Dha")
        forms = (names, list(names), StrokeSequence(names), iter(names),
                 OnsetAnnotation(((0.0, "Dha"), (0.1, "Na"), (0.2, "Dha"))))
        for form in forms:
            table = TokenTable.of(form)
            assert (table.tokens, table.codes.tolist()) == (("Dha", "Na"), [0, 1, 0])


def reference_nw_result(names, talas, gharana_equiv):
    """The NW ranking from the original per-window matcher."""
    entries, short = [], False
    for t in talas:
        sigma, _, s = reference_sliding_match_score(names, t, gharana_equiv)
        short = short or s
        entries.append((t, TalaScore(tala=t.name, score=sigma, normalized=sigma / t.matra_count)))
    entries.sort(key=lambda e: (-e[1].normalized, e[0].matra_count, e[0].name))
    flags = (("low_confidence",) if entries[0][1].normalized < 0 else ()) + (("short_input",) if short else ())
    return RankedResult("nw", tuple(s for _, s in entries), flags)


def reference_ratio_result(names, talas, gharana_equiv):
    """The ratio ranking from the per-stroke counting reference."""
    ranking = tuple(TalaScore(*entry) for entry in reference_ratio_ranking(names, gharana_equiv, talas))
    return RankedResult("ratio", ranking, ("low_confidence",) if ranking[0].normalized == 0.0 else ())


def input_forms(names):
    """A token table, its names, ``StrokeLabel``s and a ``StrokeSequence``
    of ``names``."""
    table = TokenTable.of(names)
    labels = {n: StrokeLabel(i, n) for i, n in enumerate(table.tokens)}
    return table, names, [labels[n] for n in names], StrokeSequence(names)


@given(stroke_inputs, st.booleans())
@settings(max_examples=120, deadline=None)
def test_every_input_form_equals_the_references(names, gharana_equiv):
    # Every built-in tala and a custom "Tintal" with another theka, on inputs
    # that include ones heavy in out-of-vocabulary tokens and in Ta/Na.
    talas = list(ORACLE_TALAS)
    expected = {
        identify_tala_nw: reference_nw_result(names, talas, gharana_equiv),
        identify_tala_ratio: reference_ratio_result(names, talas, gharana_equiv),
    }
    for form in input_forms(names):
        for identify, result in expected.items():
            assert identify(form, talas, gharana_equiv=gharana_equiv) == result
