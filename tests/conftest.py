"""Shared oracles: independent recomputations the library is checked against."""

import itertools
import sys
from math import factorial

import pytest

from sylvshift.trees import Bst, Node, node_count, psylv

# The 10-node tree used across the golden tests, spelled out by hand:
# root 4; left 2(left 1(left 1), right 4); right 5(left 5(left 5),
# right 6(right 7)).
EQ1_WORD = (5, 4, 5, 1, 7, 6, 1, 5, 2, 4)
EQ1_STR = "4(2(1(1(_,_),_),4(_,_)),5(5(5(_,_),_),6(_,7(_,_))))"


def insert(t: Bst, a: int) -> Node:
    """Add a as a new leaf in the unique position keeping the tree right-strict
    (equal symbols go left), path-copying the frozen nodes above it."""
    path = []
    cur = t
    while cur is not None:
        path.append(cur)
        cur = cur.left if a <= cur.label else cur.right
    new: Node = Node(a)
    for parent in reversed(path):
        if a <= parent.label:
            new = Node(parent.label, new, parent.right)
        else:
            new = Node(parent.label, parent.left, new)
    return new


def psylv_by_insertion(w) -> Bst:
    """Insertion straight from the definition: the symbols of w one by one,
    right to left, into an initially empty tree."""
    t: Bst = None
    for a in reversed(tuple(w)):
        t = insert(t, a)
    return t


def multiset_words(symbols) -> set[tuple[int, ...]]:
    """All distinct arrangements of a multiset of symbols."""
    return set(itertools.permutations(symbols))


def brute_readings(t: Bst) -> set[tuple[int, ...]]:
    """Readings computed straight from the definition: every arrangement of
    the labels whose insertion reproduces the tree."""
    from sylvshift.trees import labels

    return {w for w in multiset_words(labels(t)) if psylv(w) == t}


def hook_length_extensions(t: Bst) -> int:
    """Linear extensions of the children-before-parents forest order."""

    def sizes(node: Bst) -> list[int]:
        if node is None:
            return []
        return [node_count(node)] + sizes(node.left) + sizes(node.right)

    n = node_count(t)
    prod = 1
    for s in sizes(t):
        prod *= s
    return factorial(n) // prod


def standard_trees(n: int) -> list[Bst]:
    from sylvshift.verify import standard_trees as st

    return st(n)


def standard_trees_by_insertion(n: int) -> list[Bst]:
    """Standard trees straight from the definition: insert every permutation."""
    from sylvshift.trees import canonical_reading

    return sorted({psylv(p) for p in itertools.permutations(range(1, n + 1))},
                  key=canonical_reading)


def visited_tops_by_scan(target: Bst, h: int) -> list[tuple[int, int, str]]:
    """Topmost nodes among the first h in postfix order, by comparing every
    visited locator with every other: the node is topmost iff no other
    visited locator is a proper prefix of its own."""
    from sylvshift.trees import postfix

    visited = postfix(target)[:h]
    locs = [loc for _, loc in visited]
    return [(i + 1, lab, loc) for i, (lab, loc) in enumerate(visited)
            if not any(other != loc and loc.startswith(other) for other in locs)]


@pytest.fixture
def default_recursion_limit():
    # the library runs at Python's default limit; pin it there for the test
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


@pytest.fixture
def eq1_tree():
    return psylv(EQ1_WORD)
