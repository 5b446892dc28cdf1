"""The binary search tree monoid of rank n.

Elements are identified with their insertion trees; two words represent the
same element exactly when their trees are equal. A class is the set of
linear extensions of its tree, so an element is identified by one fixed
reading, the canonical (postfix) one: a flat word that compares and hashes
without walking the tree. An independent oracle decides the same relation
by closing a word under the defining rewriting moves: adjacent symbols c, a
with a < c may swap whenever some later symbol b satisfies a <= b < c.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetExceededError, RankError
from .trees import Bst, canonical_reading, psylv, psylv_key
from .words import Word, check_rank, evaluation

DEFAULT_REWRITE_BUDGET = 1_000_000


@dataclass(frozen=True)
class SylvElement:
    """An element of the rank-n monoid, held as the canonical reading of its
    tree: SylvElement(n, w) checks the rank of any reading w and stores
    psylv_key(w) as key, which equality, hashing and repr use with rank.
    The tree is built from the key when first read."""

    rank: int
    key: Word

    def __post_init__(self):
        check_rank(self.key, self.rank)
        object.__setattr__(self, "key", psylv_key(self.key))

    @classmethod
    def of_key(cls, rank: int, key: Word) -> "SylvElement":
        """The element whose canonical reading is key. The rank is checked,
        but key is stored as given, so it must already be a canonical
        reading (psylv_key of some word)."""
        check_rank(key, rank)
        s = object.__new__(cls)
        object.__setattr__(s, "rank", rank)
        object.__setattr__(s, "key", key)
        return s

    @classmethod
    def of_tree(cls, rank: int, tree: Bst) -> "SylvElement":
        """The element of tree, kept as its tree; the key walk refuses a tree
        that is not right-strict (ValueError), as no word inserts to it."""
        s = cls.of_key(rank, canonical_reading(tree))
        s.__dict__["tree"] = tree
        return s

    @cached_property
    def tree(self) -> Bst:
        return psylv(self.key)

    def __mul__(self, other: "SylvElement") -> "SylvElement":
        return multiply(self, other)

    def __len__(self) -> int:
        return len(self.key)


def element_of(w: Word, n: int) -> SylvElement:
    return SylvElement(n, w)


def equivalent(u: Word, v: Word, n: int) -> bool:
    """True iff u and v insert to the same tree."""
    return element_of(u, n) == element_of(v, n)


def multiply(s: SylvElement, t: SylvElement) -> SylvElement:
    """Concatenate representatives and re-insert; independent of reading choice."""
    if s.rank != t.rank:
        raise RankError(f"rank mismatch: {s.rank} vs {t.rank}")
    return SylvElement(s.rank, s.key + t.key)


def evaluation_of(s: SylvElement) -> tuple[int, ...]:
    return evaluation(s.key, s.rank)


def single_rewrites(w: Word) -> set[Word]:
    """Words one defining-relation application away from w (either direction).

    A swap of positions i, i+1 is allowed iff the two symbols differ and some
    symbol strictly to the right of the pair lies in [min, max).
    """
    out: set[Word] = set()
    for i in range(len(w) - 1):
        s, t = w[i], w[i + 1]
        if s == t:
            continue
        a, c = (s, t) if s < t else (t, s)
        if any(a <= w[j] < c for j in range(i + 2, len(w))):
            out.add(w[:i] + (t, s) + w[i + 2 :])
    return out


def _closure(u: Word, budget: int):
    """Breadth-first closure of u under the defining relations, yielding each
    word when first reached; u comes first.

    A word is yielded before the budget counts it, so a caller that stops at
    some word stops where a full closure would still have been within budget.
    """
    seen = {u}
    queue = deque([u])
    yield u
    while queue:
        w = queue.popleft()
        for nxt in single_rewrites(w):
            if nxt not in seen:
                yield nxt
                seen.add(nxt)
                if len(seen) > budget:
                    raise BudgetExceededError(budget)
                queue.append(nxt)


def rewrite_class(u: Word, n: int, budget: int = DEFAULT_REWRITE_BUDGET) -> set[Word]:
    """Breadth-first closure of u under the defining relations."""
    check_rank(u, n)
    return set(_closure(u, budget))


def rewrite_equivalent(u: Word, v: Word, n: int, budget: int = DEFAULT_REWRITE_BUDGET) -> bool:
    """Decide equality of [u] and [v] purely by rewriting.

    The moves preserve length and evaluation, so mismatches there settle the
    question immediately and the search space is finite. The search stops as
    soon as it reaches v.
    """
    check_rank(u, n)
    check_rank(v, n)
    if len(u) != len(v) or evaluation(u, n) != evaluation(v, n):
        return False
    return any(w == v for w in _closure(u, budget))
