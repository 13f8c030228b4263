"""Tests for stroke-sequence text interchange."""

import io

from taalkit.seqio import (
    TOKENS_PER_LINE,
    known_stroke_names,
    out_of_vocabulary,
    read_stroke_tokens,
    write_stroke_tokens,
)


class TestNormalization:
    def test_aliases(self):
        assert read_stroke_tokens(io.StringIO("DhaGe Tirakita")) == ["Dhage", "Tirkita"]

    def test_unknown_tokens_pass_through(self):
        assert read_stroke_tokens(io.StringIO("Dha Zzz")) == ["Dha", "Zzz"]


class TestRead:
    def test_whitespace_and_newlines(self):
        src = io.StringIO("Dha Dhin\n  Tin\tNa  \n")
        assert read_stroke_tokens(src) == ["Dha", "Dhin", "Tin", "Na"]

    def test_comments_and_blank_lines_skipped(self):
        src = io.StringIO("# a comment\n\nDha Dhin\n# another\nNa\n")
        assert read_stroke_tokens(src) == ["Dha", "Dhin", "Na"]

    def test_aliases_normalized_on_read(self):
        src = io.StringIO("Dhin DhaGe Tirakita\n")
        assert read_stroke_tokens(src) == ["Dhin", "Dhage", "Tirkita"]

    def test_read_from_path(self, tmp_path):
        p = tmp_path / "strokes.txt"
        p.write_text("Dha Dhin\nTin\n", encoding="utf-8")
        assert read_stroke_tokens(str(p)) == ["Dha", "Dhin", "Tin"]


class TestWrite:
    def test_eight_tokens_per_line(self):
        buf = io.StringIO()
        write_stroke_tokens([f"T{i}" for i in range(10)], buf)
        lines = buf.getvalue().splitlines()
        assert TOKENS_PER_LINE == 8
        assert lines[0] == "T0 T1 T2 T3 T4 T5 T6 T7"
        assert lines[1] == "T8 T9"
        assert buf.getvalue().endswith("\n")

    def test_round_trip(self, tmp_path):
        tokens = ["Dha", "Dhin", "Tin", "Na"] * 5
        p = str(tmp_path / "out.txt")
        write_stroke_tokens(tokens, p)
        assert read_stroke_tokens(p) == tokens

    def test_empty_write(self):
        buf = io.StringIO()
        write_stroke_tokens([], buf)
        assert buf.getvalue() == ""


class TestVocabulary:
    def test_known_names_include_variants(self):
        known = known_stroke_names()
        assert {"Dha", "Dhin", "Tin", "Na", "Dhi", "Ti", "Dhage", "Tirkita"} <= known
        assert "Ta" in known  # Ektal stroke and Tintal gharana variant

    def test_out_of_vocabulary_first_seen_distinct(self):
        tokens = ["Dha", "Zzz", "Qqq", "Zzz", "Na"]
        assert out_of_vocabulary(tokens) == ["Zzz", "Qqq"]

    def test_all_known_gives_empty(self):
        assert out_of_vocabulary(["Dha", "Tun", "Kat"]) == []
