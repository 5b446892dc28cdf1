"""Right-strict binary search trees: insertion, traversals, readings.

Trees are immutable. A node's label is >= every label in its left subtree
and < every label in its right subtree, so equal symbols accumulate on the
left. The empty tree is None.

Locators address nodes by the path from the root: a string over {"L", "R"},
"" being the root itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterable, Optional

from .errors import CapExceededError, LocatorError, ParseError
from .words import Word, word_str

MAX_READINGS = 100_000


@dataclass(frozen=True)
class Node:
    label: int
    left: Optional["Node"] = None
    right: Optional["Node"] = None


Bst = Optional[Node]
Locator = str


def insert(t: Bst, a: int) -> Node:
    """Add a as a new leaf in the unique position keeping the tree right-strict."""
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


def psylv(w: Iterable[int]) -> Bst:
    """Insert the symbols of w right-to-left into an initially empty tree."""
    t: Bst = None
    for a in reversed(tuple(w)):
        t = insert(t, a)
    return t


def node_count(t: Bst) -> int:
    return 0 if t is None else 1 + node_count(t.left) + node_count(t.right)


def is_bst(t: Bst) -> bool:
    """Structural check of the right-strict search-tree property."""

    def ok(node: Bst, lo: Optional[int], hi: Optional[int]) -> bool:
        # invariant window: lo < label <= hi
        if node is None:
            return True
        if lo is not None and node.label <= lo:
            return False
        if hi is not None and node.label > hi:
            return False
        return ok(node.left, lo, node.label) and ok(node.right, node.label, hi)

    return ok(t, None, None)


def infix(t: Bst) -> list[tuple[int, Locator]]:
    """Left subtree, root, right subtree; labels come out weakly increasing."""
    out: list[tuple[int, Locator]] = []
    stack: list[tuple[Bst, Locator, bool]] = [(t, "", False)]
    while stack:
        node, loc, visit = stack.pop()
        if node is None:
            continue
        if visit:
            out.append((node.label, loc))
        else:
            stack.append((node.right, loc + "R", False))
            stack.append((node, loc, True))
            stack.append((node.left, loc + "L", False))
    return out


def postfix(t: Bst) -> list[tuple[int, Locator]]:
    """Left subtree, right subtree, root; every node after its descendants."""
    out: list[tuple[int, Locator]] = []
    stack: list[tuple[Bst, Locator, bool]] = [(t, "", False)]
    while stack:
        node, loc, visit = stack.pop()
        if node is None:
            continue
        if visit:
            out.append((node.label, loc))
        else:
            stack.append((node, loc, True))
            stack.append((node.right, loc + "R", False))
            stack.append((node.left, loc + "L", False))
    return out


def labels(t: Bst) -> list[int]:
    """All labels in weakly increasing order."""
    return [a for a, _ in infix(t)]


def is_standard_tree(t: Bst) -> bool:
    """True iff the tree has exactly one node labelled by each of 1..size."""
    ls = labels(t)
    return ls == list(range(1, len(ls) + 1))


def canonical_reading(t: Bst) -> Word:
    """The postfix label sequence; inserting it reproduces t."""
    return tuple(a for a, _ in postfix(t))


def reading_count(t: Bst) -> int:
    """Number of readings, by the hook length formula for the
    children-before-parents forest order.

    Counting node orders is enough: equal labels are always
    ancestor-comparable in a right-strict tree (their lowest common
    ancestor would otherwise split them into <= and > sides), so distinct
    node orders always spell distinct words.
    """

    def subtree_sizes(node: Bst) -> list[int]:
        if node is None:
            return []
        return [node_count(node)] + subtree_sizes(node.left) + subtree_sizes(node.right)

    prod = 1
    for s in subtree_sizes(t):
        prod *= s
    return factorial(node_count(t)) // prod


def readings(t: Bst, cap: int = MAX_READINGS) -> set[Word]:
    """All words whose insertion yields t: the label sequences of the linear
    extensions of the children-before-parents order.

    Raises CapExceededError up front when the (exactly predictable) count
    exceeds cap, before enumerating anything.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if reading_count(t) > cap:
        raise CapExceededError("readings", cap)

    def merge(a: Word, b: Word) -> set[Word]:
        if not a:
            return {b}
        if not b:
            return {a}
        out = {(a[0],) + m for m in merge(a[1:], b)}
        out |= {(b[0],) + m for m in merge(a, b[1:])}
        return out

    def rec(node: Bst) -> set[Word]:
        if node is None:
            return {()}
        out: set[Word] = set()
        for la in rec(node.left):
            for ra in rec(node.right):
                for m in merge(la, ra):
                    out.add(m + (node.label,))
        return out

    return rec(t)


def complete_subtree(t: Bst, x: Locator) -> Bst:
    """The node at locator x together with everything below it."""
    cur = t
    for i, step in enumerate(x):
        if cur is None:
            raise LocatorError(f"locator {x!r} falls off the tree at step {i}")
        cur = cur.left if step == "L" else cur.right
    if cur is None and x:
        raise LocatorError(f"locator {x!r} addresses an empty slot")
    return cur


def remove_subtree(t: Bst, x: Locator) -> Bst:
    """t with the complete subtree at x pruned (empties the whole tree for x='')."""
    complete_subtree(t, x)  # validate
    if x == "":
        return None

    def rec(node: Node, path: Locator) -> Bst:
        step, rest = path[0], path[1:]
        if step == "L":
            child = None if not rest else rec(node.left, rest)
            return Node(node.label, child, node.right)
        child = None if not rest else rec(node.right, rest)
        return Node(node.label, node.left, child)

    return rec(t, x)


def tree_str(t: Bst) -> str:
    """Nested `label(left,right)` form with `_` for empty slots."""
    if t is None:
        return "_"
    return f"{t.label}({tree_str(t.left)},{tree_str(t.right)})"


def parse_tree(text: str) -> Bst:
    """Inverse of tree_str."""
    s = text.strip().replace(" ", "")
    pos = 0

    def err(msg: str) -> ParseError:
        return ParseError(f"bad tree text at index {pos}: {msg}")

    def node() -> Bst:
        nonlocal pos
        if pos < len(s) and s[pos] == "_":
            pos += 1
            return None
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if start == pos:
            raise err("expected label or '_'")
        label = int(s[start:pos])
        if label < 1:
            raise err("labels must be >= 1")
        if pos >= len(s) or s[pos] != "(":
            raise err("expected '('")
        pos += 1
        left = node()
        if pos >= len(s) or s[pos] != ",":
            raise err("expected ','")
        pos += 1
        right = node()
        if pos >= len(s) or s[pos] != ")":
            raise err("expected ')'")
        pos += 1
        return Node(label, left, right)

    t = node()
    if pos != len(s):
        raise err("trailing input")
    return t


def tree_dot(t: Bst) -> str:
    """Graphviz DOT for one tree; edges carry their child side."""
    lines = ["digraph bst {", "  node [shape=circle];"]
    if t is None:
        lines.append('  empty [label="(empty)" shape=plaintext];')
    for label, loc in infix(t):
        lines.append(f'  n{loc or "root"} [label="{label}"];')
    for _, loc in infix(t):
        if loc:
            parent = loc[:-1] or "root"
            side = loc[-1]
            lines.append(f'  n{parent} -> n{loc} [label="{side}"];')
    lines.append("}")
    return "\n".join(lines)


def tree_art(t: Bst) -> str:
    """Small sideways ASCII rendering (right subtree printed above the root)."""
    lines: list[str] = []

    def rec(node: Bst, depth: int) -> None:
        if node is None:
            return
        rec(node.right, depth + 1)
        lines.append("    " * depth + str(node.label))
        rec(node.left, depth + 1)

    if t is None:
        return "(empty)"
    rec(t, 0)
    return "\n".join(lines)


def reading_str(t: Bst) -> str:
    """Canonical reading rendered as word text (handy graph vertex label)."""
    return word_str(canonical_reading(t))
