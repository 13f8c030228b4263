"""Tests for stroke-sequence text interchange."""

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taalkit.seqio import known_stroke_names, out_of_vocabulary, read_stroke_tokens
from taalkit.talas import TOKEN_ALIASES


def reference_read_stroke_tokens(src):
    """The per-line, per-token reader that read_stroke_tokens replaced."""
    own = isinstance(src, str)
    fh = open(src, "r", encoding="utf-8") if own else src
    try:
        return [
            TOKEN_ALIASES.get(t, t)
            for words in map(str.split, fh)
            if words and not words[0].startswith("#")
            for t in words
        ]
    finally:
        if own:
            fh.close()


# Words, aliases and comment markers, and every separator that file
# iteration, str.split or str.splitlines treat differently.
TEXT_PIECES = (
    "Dha", "Na", "Zzz", "DhaGe", "Tirakita", "xDhaGe", "#", "# c", "#Dha", "Na#",
    " ", "\t", "\n", "\r\n", "\r", "\x1c", "\x85", "\u2028", "\x0b",
)
# Each opens a fresh source over ``text``, which is also stored at ``path``.
SOURCES = {
    "path": lambda text, path: str(path),
    "StringIO": lambda text, path: io.StringIO(text),
    "StringIO universal": lambda text, path: io.StringIO(text, newline=None),
    "StringIO untranslated": lambda text, path: io.StringIO(text, newline=""),
}


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

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("A B # C\n", ["A", "B", "#", "C"]),
            # str.splitlines would break at \x1c; iterating the file does not.
            ("A\x1c# B\n", ["A", "#", "B"]),
        ],
    )
    def test_hash_after_the_first_token_is_a_token(self, text, tokens):
        assert read_stroke_tokens(io.StringIO(text)) == tokens

    @given(st.lists(st.sampled_from(TEXT_PIECES), max_size=40))
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_equals_reference_reader(self, tmp_path, pieces):
        text = "".join(pieces)
        path = tmp_path / "strokes.txt"
        path.write_text(text, encoding="utf-8", newline="")
        for name, source in SOURCES.items():
            want = reference_read_stroke_tokens(source(text, path))
            assert read_stroke_tokens(source(text, path)) == want, name

    def test_read_from_path(self, tmp_path):
        p = tmp_path / "strokes.txt"
        p.write_text("Dha Dhin\nTin\n", encoding="utf-8")
        assert read_stroke_tokens(str(p)) == ["Dha", "Dhin", "Tin"]

    def test_reads_a_written_string(self, tmp_path):
        tokens = ["Dha", "Dhin", "Tin", "Na"] * 5
        p = tmp_path / "out.txt"
        p.write_text(" ".join(tokens) + "\n", encoding="utf-8")
        assert read_stroke_tokens(str(p)) == tokens

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "Dha Dhin\n# comment\nTin DhaGe\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_stroke_tokens(str(marked)) == read_stroke_tokens(str(plain)) == ["Dha", "Dhin", "Tin", "Dhage"]

    def test_callers_stream_stays_open(self):
        buf = io.StringIO("Dha Dhin\n")
        assert read_stroke_tokens(buf) == ["Dha", "Dhin"]
        assert not buf.closed


class TestVocabulary:
    def test_known_names_include_variants(self):
        known = known_stroke_names()
        assert {"Dha", "Dhin", "Tin", "Na", "Dhi", "Ti", "Dhage", "Tirkita"} <= known
        assert "Ta" in known  # Ektal stroke and Tintal gharana variant

    def test_out_of_vocabulary_first_seen_distinct(self):
        tokens = ["Dha", "Zzz", "Qqq", "Zzz", "Na"]
        assert out_of_vocabulary(tokens) == ["Zzz", "Qqq"]

    @given(st.lists(st.sampled_from(("Dha", "Na", "Ta", "Zzz", "Qqq", "x", "DhaGe"))))
    def test_out_of_vocabulary_equals_per_token_loop(self, tokens):
        known = known_stroke_names()
        seen = {}
        for t in tokens:
            if t not in known:
                seen.setdefault(t)
        assert out_of_vocabulary(tokens) == list(seen)

    def test_all_known_gives_empty(self):
        assert out_of_vocabulary(["Dha", "Tun", "Kat"]) == []
