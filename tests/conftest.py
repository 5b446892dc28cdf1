"""Shared oracles: independent recomputations the library is checked against."""

import itertools
import sys
from collections import deque
from math import factorial

import pytest

from sylvshift import pathsynth
from sylvshift.errors import InternalError
from sylvshift.graph import ComponentGraph, ShiftWitness, keys_with_evaluation, neighbor_keys
from sylvshift.monoid import SylvElement
from sylvshift.trees import (Bst, Locator, Node, canonical_reading, complete_subtree, labels,
                             node_count, postfix, psylv, readings)

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
    return {w for w in multiset_words(labels(t)) if psylv(w) == t}


def neighbors_by_readings(s: SylvElement) -> dict[SylvElement, ShiftWitness]:
    """Neighbors straight from the definition: every split xy of every
    reading of s, swapped and inserted."""
    out: dict[SylvElement, ShiftWitness] = {}
    for w in sorted(readings(s.tree)):
        for k in range(len(w) + 1):
            t = SylvElement.of_tree(s.rank, psylv(w[k:] + w[:k]))
            if t not in out:
                out[t] = ShiftWitness(w[:k], w[k:])
    return out


def adjacency_by_vertex(e: tuple[int, ...], n: int) -> list[list[int]]:
    """The adjacency lists of e's class, built with one neighbor_keys call
    per vertex and no use of the mirror symmetry; each list sorted, without
    its vertex."""
    keys = sorted(keys_with_evaluation(e))
    index = {key: i for i, key in enumerate(keys)}
    return [sorted(index[k] for k in neighbor_keys(SylvElement.of_key(n, key)) if k != key)
            for key in keys]


def mirror_tree(t: Bst, flip: dict[int, int]) -> Bst:
    """t with left and right swapped at every node and every label a
    replaced by flip[a], path-copied on an explicit stack."""
    done: dict[int, Bst] = {id(None): None}
    stack = [t]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
        elif id(node.left) in done and id(node.right) in done:
            done[id(node)] = Node(flip[node.label], done[id(node.right)], done[id(node.left)])
            stack.pop()
        else:
            stack += [node.left, node.right]
    return done[id(t)]


def bfs_distances(g: ComponentGraph, source: SylvElement) -> dict[SylvElement, int]:
    """Distances from source to every vertex it reaches, keyed by element:
    a plain breadth-first search over g's adjacency lists."""
    dist = {g.index[source]: 0}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return {g.vertices[i]: d for i, d in dist.items()}


def diameter_by_bfs(g: ComponentGraph) -> tuple[int, tuple[SylvElement, SylvElement]]:
    """Exact diameter by one full BFS per vertex, keeping the first pair
    (i, j), i < j, met at the largest distance."""
    best, pair = 0, (0, 0)
    for i, s in enumerate(g.vertices):
        d = bfs_distances(g, s)
        for j in range(i + 1, len(g.vertices)):
            if d[g.vertices[j]] > best:
                best, pair = d[g.vertices[j]], (i, j)
    return best, (g.vertices[pair[0]], g.vertices[pair[1]])


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
    """All standard trees on n nodes, sorted by canonical reading."""
    from sylvshift.verify import standard_keys

    return [psylv(key) for key in standard_keys(n)]


def standard_trees_by_insertion(n: int) -> list[Bst]:
    """Standard trees straight from the definition: insert every permutation."""
    return sorted({psylv(p) for p in itertools.permutations(range(1, n + 1))},
                  key=canonical_reading)


def visited_tops_by_scan(target: Bst, h: int) -> list[tuple[int, int, str]]:
    """Topmost nodes among the first h in postfix order, by comparing every
    visited locator with every other: the node is topmost iff no other
    visited locator is a proper prefix of its own."""
    visited = postfix(target)[:h]
    locs = [loc for _, loc in visited]
    return [(i + 1, lab, loc) for i, (lab, loc) in enumerate(visited)
            if not any(other != loc and loc.startswith(other) for other in locs)]


def remove_subtree(t: Bst, x: Locator) -> Bst:
    """t with the complete subtree at x pruned (empties the whole tree for x='')."""
    complete_subtree(t, x)  # validate
    path: list[Node] = []
    cur = t
    for step in x:
        path.append(cur)
        cur = cur.left if step == "L" else cur.right
    new: Bst = None
    for node, step in zip(reversed(path), reversed(x)):
        new = Node(node.label, new, node.right) if step == "L" else Node(node.label, node.left, new)
    return new


def _spine_len(pattern: Bst, side: str) -> int:
    k = 0
    cur = pattern
    while cur is not None:
        cur = cur.left if side == "L" else cur.right
        if cur is not None:
            k += 1
    return k


def induction_step_by_cases(t: Bst, target: Bst, nodes, h: int) -> tuple[ShiftWitness, str]:
    """One shift from step h to step h+1, assembled piece by piece as in the
    paper's proof of the upper bound: the four step shapes split into six
    sub-cases, and each piece is read only after the lemma that places it
    is checked (InternalError otherwise).

    Requires the step-h invariants on t; nodes is postfix(target). Returns
    the witness and the sub-case taken. The library's `induction_step`
    moves the same x, the complete subtree at the next node, to the front;
    this y may list the rest of t in another order, but reads the same tree.
    """
    u_next, loc_next = nodes[h]
    _, loc_h = nodes[h - 1]
    case = pathsynth.classify_step(target, nodes, h)

    bh = complete_subtree(target, loc_h)
    if not pathsynth._matches(t, bh):
        raise InternalError(f"step {h}: newest built subtree is not at the root")
    r_bh = canonical_reading(bh)
    lm = "L" * _spine_len(bh, "L")  # leftmost node of the root copy of bh
    rm = "R" * _spine_len(bh, "R")
    left_min = complete_subtree(t, lm).left  # subtree hanging off the copy's leftmost node
    right_max = complete_subtree(t, rm).right  # subtree hanging off its rightmost node
    u_loc = pathsynth._find_loc(t, u_next)
    if u_loc is None:
        raise InternalError(f"step {h}: symbol {u_next} missing from the tree")
    u_node = complete_subtree(t, u_loc)

    if case in ("case1", "case3"):
        r_root = rm + "R"
        if not u_loc.startswith(r_root):
            raise InternalError(
                f"step {h}: next node {u_next} is not in the right-maximal subtree")
        if u_next <= labels(bh)[-1]:
            raise InternalError(
                f"step {h}: next node {u_next} is not above the built subtree's labels")
        delta = canonical_reading(remove_subtree(right_max, u_loc[len(r_root):]))
        lam = canonical_reading(left_min)
        if case == "case1":
            x = canonical_reading(u_node.left) + canonical_reading(u_node.right) + (u_next,)
            tag = "case1"
        else:
            if u_node.left is not None:
                raise InternalError(f"step {h}: next node {u_next} should have no left subtree")
            x = canonical_reading(u_node.right) + (u_next,)
            tag = "case3"
        y = delta + lam + r_bh

    elif case == "case2":
        bg = complete_subtree(target, loc_next).left  # older built pattern, below u_next
        r_bg = canonical_reading(bg)
        if not (labels(bg)[-1] + 1 == u_next == labels(bh)[0] - 1):
            raise InternalError(
                f"step {h}: {u_next} is not the unique value between the two built subtrees")
        delta = canonical_reading(right_max)
        lslot = lm + "L"
        if u_loc == lslot:
            # next node sits on the left spine, directly between the two patterns
            g_root = u_loc + "L"
            if not pathsynth._matches(u_node.left, bg):
                raise InternalError(
                    f"step {h}: expected the older built subtree directly below {u_next}")
            lam = canonical_reading(complete_subtree(t, g_root + "L" * _spine_len(bg, "L")).left)
            x = lam + r_bg + (u_next,)
            y = delta + r_bh
            tag = "case2a"
        else:
            # patterns adjacent on the spine; next node hangs off the older one's right
            g_root = lslot
            if not pathsynth._matches(left_min, bg):
                raise InternalError(
                    f"step {h}: expected the older built subtree directly below the newest one")
            if u_loc != g_root + "R" * _spine_len(bg, "R") + "R":
                raise InternalError(
                    f"step {h}: {u_next} is not the right-maximal subtree of the older pattern")
            if u_node.left is not None or u_node.right is not None:
                raise InternalError(
                    f"step {h}: right-maximal subtree at {u_next} is not a single node")
            lam = canonical_reading(complete_subtree(t, g_root + "L" * _spine_len(bg, "L")).left)
            x = (u_next,)
            y = lam + r_bg + delta + r_bh
            tag = "case2b"

    else:  # case4
        lslot = lm + "L"
        if not u_loc.startswith(lslot):
            raise InternalError(
                f"step {h}: next node {u_next} is not in the left-minimal subtree")
        if u_next != labels(bh)[0] - 1:
            raise InternalError(
                f"step {h}: {u_next} is not the value just below the built subtree")
        rel = u_loc[len(lslot):]
        if u_node.right is not None:
            raise InternalError(f"step {h}: next node {u_next} should have no right subtree")
        delta = canonical_reading(right_max)
        if rel == "":
            x = canonical_reading(u_node.left) + (u_next,)
            y = delta + r_bh
            tag = "case4a"
        else:
            if set(rel) != {"R"}:
                raise InternalError(
                    f"step {h}: {u_next} is not the maximum of the left-minimal subtree")
            lam = canonical_reading(remove_subtree(left_min, rel))
            x = canonical_reading(u_node.left) + (u_next,)
            y = lam + delta + r_bh
            tag = "case4b"

    return ShiftWitness(x, y), tag


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
