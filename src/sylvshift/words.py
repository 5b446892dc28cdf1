"""Words over the ordered alphabet {1 < 2 < ...}, evaluations, standardness.

A word is a plain tuple of positive ints. Text I/O uses compact digit runs
("13254") when every symbol is <= 9 and dot-delimited integers ("1.3.12.5")
otherwise; both forms are accepted on input. A leading dot forces the
dotted reading, which disambiguates one-symbol words like ".11".
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import ParseError, RankError

Word = tuple[int, ...]


def check_rank(w: Sequence[int], n: int) -> None:
    """Raise RankError unless every symbol of w lies in 1..n."""
    if n < 0:
        raise RankError(f"rank must be >= 0, got {n}")
    for a in w:
        if not 1 <= a <= n:
            raise RankError(f"symbol {a} outside alphabet 1..{n}")


def evaluation(w: Sequence[int], n: int) -> tuple[int, ...]:
    """Multiplicity vector: entry i-1 counts occurrences of symbol i in w."""
    check_rank(w, n)
    counts = [0] * n
    for a in w:
        counts[a - 1] += 1
    return tuple(counts)


def is_standard(w: Sequence[int]) -> bool:
    """True iff w is a permutation of 1..len(w). The empty word is standard."""
    return sorted(w) == list(range(1, len(w) + 1))


def parse_word(text: str) -> Word:
    """Parse compact-digit or dot-delimited word text. "" is the empty word."""
    text = text.strip()
    if not text:
        return ()
    if text.startswith("."):
        text = text[1:]
        dotted = True
    else:
        dotted = "." in text
    if dotted:
        parts = text.split(".")
        if any(not p.isdecimal() for p in parts):
            raise ParseError(f"bad dotted word {text!r}")
        w = tuple(map(parse_label, parts))
    else:
        if not text.isdecimal():
            raise ParseError(f"bad word {text!r}")
        w = tuple(int(c) for c in text)
    if any(a < 1 for a in w):
        raise ParseError(f"symbols must be >= 1 in {text!r}")
    return w


def parse_label(digits: str) -> int:
    """The int that a run of decimal digits spells. Raises ParseError, not
    Python's ValueError, when the run is longer than the interpreter
    converts (sys.get_int_max_str_digits(), 4300 by default)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"label of {len(digits)} digits is too long to read") from None


def word_str(w: Sequence[int]) -> str:
    """Render a word compactly when possible, dotted otherwise."""
    if all(a <= 9 for a in w):
        return "".join(str(a) for a in w)
    dotted = ".".join(str(a) for a in w)
    return dotted if len(w) > 1 else "." + dotted
