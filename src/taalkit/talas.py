"""Canonical tala definitions and the stroke-symbol domain model.

A tala is the rhythmic cycle of a Hindustani composition: a canonical
stroke pattern (the theka) that repeats every cycle, one stroke per beat
(matra), with the beats grouped into vibhags.  Identification works off two
fixed properties of the theka: the literal stroke order and the
stroke-count ratio.

Stroke names are stored as plain ASCII tokens ("Dha", "Tirkita") so file
formats stay stable; display names may carry diacritics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

NO_STROKE = "No-stroke"

# Alternate spellings seen in transcriptions, normalized at parse time.
TOKEN_ALIASES: Mapping[str, str] = {
    "DhaGe": "Dhage",
    "Tirakita": "Tirkita",
}


@dataclass(frozen=True)
class StrokeLabel:
    """A named tabla stroke (bol) with a stable id within its vocabulary."""

    id: int
    name: str

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"stroke id must be non-negative, got {self.id}")
        check_stroke_tokens((self.name,))


def check_stroke_tokens(names: Iterable[str]) -> None:
    """Reject, once per distinct name, any name that is empty or holds
    whitespace: a stroke file or onset CSV would not read it back."""
    for name in dict.fromkeys(names):
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"stroke name must be a non-empty token, got {name!r}")


def make_vocabulary(names: Sequence[str], include_no_stroke: bool = False) -> tuple[StrokeLabel, ...]:
    """Build an ordered stroke vocabulary from unique token names.

    With ``include_no_stroke`` the reserved "No-stroke" label is appended,
    as required for transcription vocabularies.
    """
    names = list(names)
    if include_no_stroke and NO_STROKE not in names:
        names.append(NO_STROKE)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate stroke names in vocabulary: {names}")
    return tuple(StrokeLabel(i, n) for i, n in enumerate(names))


@dataclass(frozen=True)
class StrokeSequence:
    """An ordered run of stroke names, optionally with onset times in seconds."""

    names: tuple[str, ...]
    onset_times: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        check_stroke_tokens(self.names)
        if self.onset_times is not None:
            times = tuple(float(t) for t in self.onset_times)
            object.__setattr__(self, "onset_times", times)
            if len(times) != len(self.names):
                raise ValueError("onset_times length must match stroke count")
            if any(t < 0 for t in times):
                raise ValueError("onset times must be non-negative")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("onset times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.names)


class _Coder(dict):
    """Each item's code, looked up in C; an item seen for the first time is
    coded by its stroke name, numbered in first-seen order."""

    def __init__(self):
        super().__init__()
        self.names: dict[str, int] = {}

    def __missing__(self, item):
        code = self[item] = self.names.setdefault(item if isinstance(item, str) else item.name, len(self.names))
        return code


class TokenTable:
    """One input's distinct stroke names in first-seen order, and each
    stroke's code into them: stroke ``i`` is ``tokens[codes[i]]``.

    ``codes`` is read-only, in the smallest unsigned dtype that holds every
    code.  Build it once per input with ``TokenTable.of``; the identifiers
    then number and count only the distinct tokens, for every tala.  A
    plain class, not a dataclass: it adds no code generation at import.
    """

    def __init__(self, tokens: tuple[str, ...], codes: np.ndarray):
        self.tokens = tokens
        self.codes = codes

    @classmethod
    def of(cls, seq: TokenTable | StrokeSequence | Sequence[str | StrokeLabel]) -> TokenTable:
        """The table of any input ``stroke_names`` accepts; a table is returned as is.

        A list or tuple is coded in one pass, and names are told from
        ``StrokeLabel``s once per distinct item.
        """
        if isinstance(seq, TokenTable):
            return seq
        items = seq if isinstance(seq, (list, tuple)) else stroke_names(seq)
        coder = _Coder()
        codes = np.fromiter(map(coder.__getitem__, items), np.intp, len(items))
        codes = codes.astype(np.min_scalar_type(max(len(coder.names) - 1, 0)))
        codes.setflags(write=False)
        return cls(tuple(coder.names), codes)

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def counts(self) -> np.ndarray:
        """Read-only count of each distinct token, in ``tokens`` order."""
        counts = np.bincount(self.codes, minlength=len(self.tokens))
        counts.setflags(write=False)
        return counts


@dataclass(frozen=True)
class TalaDefinition:
    """A named rhythmic cycle, defined by its theka.

    Everything else follows from the theka: ``matra_count`` is its length,
    ``stroke_vocabulary`` its distinct strokes numbered by first appearance,
    and ``reference_ratio`` each vocabulary stroke's count in one cycle.

    ``gharana_equivalents`` maps variant stroke names to the canonical name
    used in the stored theka (e.g. Ta -> Na in Tintal, where some gharanas
    substitute Ta at beats 12-13).  The substitution never changes stroke
    counts or structure, so the reference ratio is fixed.
    """

    name: str
    vibhag_lengths: tuple[int, ...]
    theka_names: tuple[str, ...]
    gharana_equivalents: Mapping[str, str] = field(default_factory=dict)
    display_name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "theka_names", tuple(self.theka_names))
        if not self.theka_names:
            raise ValueError(f"{self.name}: theka must not be empty")
        if any(n < 1 for n in self.vibhag_lengths):
            raise ValueError(f"{self.name}: vibhag lengths {self.vibhag_lengths} must each be at least 1")
        if sum(self.vibhag_lengths) != self.matra_count:
            raise ValueError(f"{self.name}: vibhag lengths {self.vibhag_lengths} do not sum to {self.matra_count}")
        if NO_STROKE in self.theka_names:
            raise ValueError(f"{self.name}: {NO_STROKE} is reserved and cannot appear in a tala vocabulary")
        check_stroke_tokens(self.theka_names)
        for variant, canonical in self.gharana_equivalents.items():
            if variant in self.theka_names or canonical not in self.theka_names:
                raise ValueError(f"{self.name}: gharana map {variant} -> {canonical} must lead from outside the theka into it")
        if not self.display_name:
            object.__setattr__(self, "display_name", self.name)

    @property
    def matra_count(self) -> int:
        return len(self.theka_names)

    @cached_property
    def stroke_vocabulary(self) -> tuple[StrokeLabel, ...]:
        """The theka's distinct strokes, numbered by first appearance."""
        return make_vocabulary(dict.fromkeys(self.theka_names))

    @cached_property
    def reference_ratio(self) -> tuple[int, ...]:
        """Each vocabulary stroke's count in one theka cycle."""
        return tuple(np.bincount(self.theka_rotations[0]).tolist())

    @cached_property
    def reference_vector(self) -> np.ndarray:
        """``reference_ratio`` as a read-only float64 vector, built once per tala."""
        vector = np.array(self.reference_ratio, dtype=np.float64)
        vector.setflags(write=False)
        return vector

    @cached_property
    def theka_rotations(self) -> np.ndarray:
        """Read-only (m, m) token ids of every cyclic rotation of the theka;
        row ``r`` enters it at beat ``r``.  Built once per tala."""
        ids = self.token_ids(self.theka_names, gharana_equiv=False)
        m = self.matra_count
        rotations = ids[(np.arange(m)[:, None] + np.arange(m)) % m]
        rotations.setflags(write=False)
        return rotations

    @cached_property
    def _stroke_ids(self) -> dict[str, int]:
        return {s.name: s.id for s in self.stroke_vocabulary}

    def distinct_ids(self, table: TokenTable, gharana_equiv: bool = True) -> np.ndarray:
        """The vocabulary id of each of ``table.tokens``, after the gharana map
        if ``gharana_equiv``; every other token gets ``len(stroke_vocabulary)``,
        in the smallest unsigned dtype that holds it."""
        vocab = self._stroke_ids
        names = map(self.canonical_stroke, table.tokens) if gharana_equiv else table.tokens
        return np.array([vocab.get(n, len(vocab)) for n in names], np.min_scalar_type(len(vocab)))

    def token_ids(self, tokens: TokenTable | Sequence[str], gharana_equiv: bool = True) -> np.ndarray:
        """Each token's id by ``distinct_ids``, gathered in input order, so
        each distinct token is canonicalised once."""
        table = TokenTable.of(tokens)
        return self.distinct_ids(table, gharana_equiv)[table.codes]

    def canonical_stroke(self, name: str) -> str:
        """Map a variant stroke name to this tala's canonical name."""
        return self.gharana_equivalents.get(name, name)

    def variant_stroke(self, name: str) -> str:
        """Map a canonical stroke name to its gharana variant, if one exists."""
        for variant, canonical in self.gharana_equivalents.items():
            if canonical == name:
                return variant
        return name


# The four cycles covered by the built-in knowledge base.  Compound bols
# (Dhage, Tirkita) are atomic tokens occupying a single matra; that is the
# only reading under which Ektal's ratio (3, 2, 2, 1, 2, 1, 1) over Dhin,
# Dhage, Tirkita, Tun, Na, Kat, Ta sums to 12.
_BUILTIN = (
    TalaDefinition(
        "Tintal",
        (4, 4, 4, 4),
        # |Dha Dhin Dhin Dha|Dha Dhin Dhin Dha|Dha Tin Tin Na|Na Dhin Dhin Dha|
        ("Dha", "Dhin", "Dhin", "Dha",
         "Dha", "Dhin", "Dhin", "Dha",
         "Dha", "Tin", "Tin", "Na",
         "Na", "Dhin", "Dhin", "Dha"),
        gharana_equivalents={"Ta": "Na"},
        display_name="Tīntāl",
    ),
    TalaDefinition(
        "Ektal",
        (2, 2, 2, 2, 2, 2),
        # |Dhin Dhin|Dhage Tirkita|Tun Na|Kat Ta|Dhage Tirkita|Dhin Na|
        ("Dhin", "Dhin", "Dhage", "Tirkita",
         "Tun", "Na", "Kat", "Ta",
         "Dhage", "Tirkita", "Dhin", "Na"),
        display_name="Ektāl",
    ),
    TalaDefinition(
        "Jhaptal",
        (2, 3, 2, 3),
        # |Dhi Na|Dhi Dhi Na|Ti Na|Dhi Dhi Na|
        ("Dhi", "Na", "Dhi", "Dhi", "Na", "Ti", "Na", "Dhi", "Dhi", "Na"),
        display_name="Jhaptāl",
    ),
    TalaDefinition(
        "Rupak",
        (3, 2, 2),
        # |Tin Tin Na|Dhi Na|Dhi Na|
        ("Tin", "Tin", "Na", "Dhi", "Na", "Dhi", "Na"),
        display_name="Rūpak",
    ),
)


def builtin_talas() -> list[TalaDefinition]:
    """Return the four built-in tala definitions (Tintal, Ektal, Jhaptal, Rupak)."""
    return list(_BUILTIN)


def get_tala(name: str) -> TalaDefinition:
    for t in _BUILTIN:
        if t.name == name or t.display_name == name:
            return t
    known = ", ".join(t.name for t in _BUILTIN)
    raise KeyError(f"unknown tala {name!r}; known: {known}")


def stroke_names(seq: StrokeSequence | Sequence[str | StrokeLabel]) -> tuple[str, ...]:
    """Stroke names of a sequence of names, of ``StrokeLabel``s, of a
    ``StrokeSequence``, or the labels of a ``postproc.OnsetAnnotation`` in
    event order, as one tuple."""
    if isinstance(seq, StrokeSequence):
        return seq.names
    # An OnsetAnnotation, told by its attribute: postproc imports this module.
    if hasattr(seq, "events"):
        return tuple(lab for _, lab in seq.events)
    seq = tuple(seq)
    # All-str input, the common case, is checked with one C-level pass.
    if set(map(type, seq)) <= {str}:
        return seq
    return tuple(s if isinstance(s, str) else s.name for s in seq)


def stroke_histogram(
    seq: TokenTable | StrokeSequence | Sequence[str | StrokeLabel],
    tala: TalaDefinition,
    gharana_equiv: bool = True,
) -> tuple[np.ndarray, int]:
    """Count the strokes of ``seq`` in each slot of ``tala``'s vocabulary,
    from its token table: each distinct token's count goes to its id by
    ``tala.distinct_ids``.  Returns ``(counts, oov)``: ``counts[i]`` strokes
    have vocabulary id ``i`` and ``oov`` strokes lie outside the vocabulary."""
    table = TokenTable.of(seq)
    v = len(tala.stroke_vocabulary)
    # The weighted bincount sums in float64, exact for counts below 2**53.
    counts = np.bincount(tala.distinct_ids(table, gharana_equiv), table.counts, v + 1).astype(np.int64)
    return counts[:v], int(counts[v])
