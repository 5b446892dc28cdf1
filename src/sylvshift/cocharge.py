"""Cocharge sequences of standard words and standard trees.

The sequence labels the symbols 1..n of a standard word: symbol 1 gets 0,
and symbol i+1 gets the label of i plus one exactly when i+1 occurs earlier
in the word than i (equivalently: scanning backwards from i, cyclically,
i+1 is found before crossing the word's start marker). Each term repeats or
increments its predecessor, so the i-th term lies in 0..i-1.

The sequence is constant on insertion-equivalence classes of standard
words, so a standard tree's sequence is that of any of its readings, its
key in particular. One cyclic shift moves every component by at most 1, so
the max componentwise gap between two standard trees lower-bounds their
distance in the cyclic shift graph.
"""

from __future__ import annotations

from .errors import NotStandardError
from .trees import Tree
from .words import Word, is_standard


def cochseq_word(u: Word) -> tuple[int, ...]:
    """Cocharge sequence of a non-empty standard word."""
    if not is_standard(u) or not u:
        raise NotStandardError(f"cocharge sequence needs a non-empty standard word, got {u}")
    pos = {a: i for i, a in enumerate(u)}
    seq = [0]
    for i in range(2, len(u) + 1):
        seq.append(seq[-1] + (1 if pos[i] < pos[i - 1] else 0))
    return tuple(seq)


def cochseq_gap(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Max componentwise gap of two cocharge sequences of equal length."""
    if len(a) != len(b):
        raise NotStandardError("lower bound needs standard trees of equal size")
    return max(abs(x - y) for x, y in zip(a, b))


def cocharge_lower_bound(s: Tree, t: Tree) -> int:
    """Max componentwise gap of the sequences of two standard trees, each
    given by `key_sizes` and read through its key; a lower bound on their
    cyclic shift distance."""
    return cochseq_gap(cochseq_word(s[0]), cochseq_word(t[0]))
