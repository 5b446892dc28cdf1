"""The binary search tree monoid of rank n.

Elements are identified with their insertion trees; two words represent the
same element exactly when their trees are equal. A class is the set of
linear extensions of its tree, so an element is identified by one fixed
reading, the canonical (postfix) one: a flat word that compares and hashes
without walking the tree. Its tree, when asked for, is the key with its
subtree sizes (`trees.Tree`, as `key_sizes` gives it). An independent
oracle decides the same relation by closing a word under the defining
rewriting moves: adjacent symbols c, a with a < c may swap whenever some
later symbol b satisfies a <= b < c.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque, namedtuple

from .errors import BudgetExceededError, RankError
from .trees import Tree, key_sizes, psylv_key
from .words import Word, check_rank, evaluation

DEFAULT_REWRITE_BUDGET = 1_000_000


class SylvElement(namedtuple("SylvElement", "rank key")):
    """An element of the rank-n monoid, held as the canonical reading of its
    tree: SylvElement(n, w) checks the rank of any reading w and stores
    psylv_key(w) as key. A named tuple (rank, key) and nothing else:
    equality, hashing, repr and pickling are the tuple's. _make((rank, key))
    checks nothing: it is for keys computed from checked letters of that rank.
    _replace checks, as SylvElement(rank, key) does."""

    __slots__ = ()
    _make = classmethod(tuple.__new__)  # namedtuple's would count fields by len()

    def __new__(cls, rank: int, key: Word) -> "SylvElement":
        check_rank(key, rank)
        return tuple.__new__(cls, (rank, psylv_key(key)))

    def _replace(self, **fields) -> "SylvElement":
        return SylvElement(**{**self._asdict(), **fields})

    @property
    def tree(self) -> Tree:
        """The element's tree as its key and subtree sizes (`key_sizes`),
        computed from the key on each read."""
        return key_sizes(self.key)

    def __mul__(self, other: "SylvElement") -> "SylvElement":
        if not isinstance(other, SylvElement):
            return NotImplemented
        return multiply(self, other)

    def __rmul__(self, other):
        return NotImplemented  # not the tuple's repetition

    def __add__(self, other):
        return NotImplemented  # not the tuple's concatenation

    def __radd__(self, other):  # NotImplemented would let a tuple on the left concatenate
        raise TypeError(f"unsupported operand type(s) for +: {type(other).__name__!r} and "
                        "'SylvElement'")

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
    return SylvElement._make((s.rank, psylv_key(s.key + t.key)))


def single_rewrites(w: Word) -> set[Word]:
    """Words one defining-relation application away from w (either direction).

    A swap of positions i, i+1 is allowed iff the two symbols differ and some
    symbol strictly to the right of the pair lies in [min, max). The pairs
    are taken right to left, with the distinct symbols right of the pair in
    a sorted list, so one bisection finds the least of them >= min.
    """
    out: set[Word] = set()
    right: list[int] = []
    for i in range(len(w) - 2, -1, -1):
        s, t = w[i], w[i + 1]
        if s != t:
            a, c = (s, t) if s < t else (t, s)
            j = bisect_left(right, a)
            if j < len(right) and right[j] < c:
                out.add(w[:i] + (t, s) + w[i + 2 :])
        j = bisect_left(right, t)
        if j == len(right) or right[j] != t:
            right.insert(j, t)
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
