"""Text interchange for stroke sequences.

The on-disk format is as plain as it gets: stroke tokens separated by
whitespace or newlines, with a line whose first token starts with ``#``
ignored as a comment.
Reading normalizes known spelling variants to their canonical token so that
downstream vocabularies stay small; anything else passes through untouched
and is the caller's problem to flag as out-of-vocabulary.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import cache
from typing import Iterable, TextIO

from .talas import TOKEN_ALIASES, builtin_talas


def read_stroke_tokens(src: str | TextIO) -> list[str]:
    """Read and normalize tokens; a line whose first token starts with
    ``#`` is a comment and is skipped.

    A path is read as UTF-8, after a byte-order mark if there is one.
    Lines are the stream's own, as iterating it yields them.  The text is
    split once; the comment filter runs only when a ``#`` occurs and the
    alias mapping only when an alias does.
    """
    with open(src, "r", encoding="utf-8-sig") if isinstance(src, str) else nullcontext(src) as fh:
        lines = fh.readlines()
    text = "".join(lines)
    if "#" in text:
        # Every line but the last ends in a line break, so joining them
        # keeps tokens apart.
        text = "".join(line for line in lines if not line.lstrip().startswith("#"))
    tokens = text.split()
    if any(alias in text for alias in TOKEN_ALIASES):
        tokens = list(map(TOKEN_ALIASES.get, tokens, tokens))
    return tokens


@cache
def known_stroke_names() -> frozenset[str]:
    """Every stroke name any builtin tala can resolve, variants included."""
    return frozenset(n for tala in builtin_talas() for n in (*tala.theka_names, *tala.gharana_equivalents))


def out_of_vocabulary(tokens: Iterable[str]) -> list[str]:
    """Distinct tokens no builtin tala knows, in first-seen order."""
    known = known_stroke_names()
    return [t for t in dict.fromkeys(tokens) if t not in known]
