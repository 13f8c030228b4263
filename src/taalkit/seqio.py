"""Text interchange for stroke sequences.

The on-disk format is as plain as it gets: stroke tokens separated by
whitespace or newlines, with lines starting with ``#`` ignored as comments.
Reading normalizes known spelling variants to their canonical token so that
downstream vocabularies stay small; anything else passes through untouched
and is the caller's problem to flag as out-of-vocabulary.
"""

from __future__ import annotations

from typing import Iterable, TextIO

from .talas import TOKEN_ALIASES, builtin_talas

TOKENS_PER_LINE = 8


def read_stroke_tokens(src: str | TextIO) -> list[str]:
    """Read and normalize tokens; full-line ``#`` comments are skipped."""
    own = isinstance(src, str)
    fh: TextIO = open(src, "r", encoding="utf-8") if own else src
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


def write_stroke_tokens(tokens: Iterable[str], dest: str | TextIO) -> None:
    """Write tokens, a fixed number per line, ending with a newline."""
    own = isinstance(dest, str)
    fh: TextIO = open(dest, "w", encoding="utf-8") if own else dest
    try:
        row: list[str] = []
        for t in tokens:
            row.append(t)
            if len(row) == TOKENS_PER_LINE:
                fh.write(" ".join(row) + "\n")
                row = []
        if row:
            fh.write(" ".join(row) + "\n")
    finally:
        if own:
            fh.close()


def known_stroke_names() -> frozenset[str]:
    """Every stroke name any builtin tala can resolve, variants included."""
    names: set[str] = set()
    for tala in builtin_talas():
        names.update(s.name for s in tala.stroke_vocabulary)
        names.update(tala.gharana_equivalents)
    return frozenset(names)


def out_of_vocabulary(tokens: Iterable[str]) -> list[str]:
    """Distinct tokens no builtin tala knows, in first-seen order."""
    known = known_stroke_names()
    seen: dict[str, None] = {}
    for t in tokens:
        if t not in known:
            seen.setdefault(t)
    return list(seen)
