"""Right-strict binary search trees: insertion, traversals, readings.

Trees are immutable. A node's label is >= every label in its left subtree
and < every label in its right subtree, so equal symbols accumulate on the
left. The empty tree is None.

Locators address nodes by the path from the root: a string over {"L", "R"},
"" being the root itself. They serve only to render trees, as the node ids
of `tree_dot` and the indentation of `tree_art`; elsewhere a node is
addressed by its label or by its position in the canonical reading.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from math import comb, factorial, inf

from .errors import CapExceededError, ParseError
from .words import Word

MAX_READINGS = 100_000
# Distinct words whose keys psylv_key keeps. The exhaustive suites ask for
# the same few thousand keys again and again; 256 serves most repeats, and
# a longer cache of long words costs more memory than it saves time.
KEY_CACHE_SIZE = 256


class Node:
    """One node of an immutable tree. == and hash compare whole trees by
    label and shape without recursion, so trees of any depth work at the
    default recursion limit."""

    __slots__ = ("label", "left", "right")

    def __init__(self, label: int, left: Bst = None, right: Bst = None):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Node, (self.label, self.left, self.right)

    def _preorder(self) -> tuple:
        """The labels in preorder with None for each empty slot, which
        spells the tree; walked on an explicit stack."""
        out: list = []
        stack: list[Bst] = [self]
        while stack:
            node = stack.pop()
            if node is None:
                out.append(None)
            else:
                out.append(node.label)
                stack += (node.right, node.left)
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(self._preorder())

    def __repr__(self) -> str:
        return f"<Node {tree_str(self)}>"


Bst = Node | None
Locator = str
Sizes = list[tuple[int, int]]  # (left, right) subtree sizes per node, in postfix order


def psylv(w: Iterable[int]) -> Bst:
    """Insert the symbols of w right-to-left into an initially empty tree.

    The result is the Cartesian tree of w (Vuillemin, "A unifying look at
    data structures", CACM 1980): a search tree on (label, position), as
    equal symbols go left of later ones, and a heap on position, as a later
    symbol is inserted earlier and sits nearer the root. One stable sort
    gives the in-order sequence; a stack holds the open right spine. Each
    position pops every entry with a smaller position, folding them into
    the right chain that becomes its left subtree; the sentinel position
    len(w) folds the whole tree. Every node is built once.
    """
    w = tuple(w)
    spine: list[tuple[int, Bst]] = []  # open right spine: (position, left subtree)
    for i in sorted(range(len(w)), key=w.__getitem__) + [len(w)]:
        left: Bst = None
        while spine and spine[-1][0] < i:
            p, sub = spine.pop()
            left = Node(w[p], sub, left)
        spine.append((i, left))
    return left


def psylv_key(w: Iterable[int]) -> Word:
    """canonical_reading(psylv(w)) without building a node: psylv's sort
    and stack, keeping each label as it is popped. A node is popped once
    its subtree is complete and before anything outside it, so the pops
    come in postfix order. The last KEY_CACHE_SIZE distinct words are kept
    with their keys; w may be any sequence of ints and is looked up as a
    tuple. Keys are tuples, so callers share a cached key safely."""
    return _insertion_key(tuple(w))


@lru_cache(maxsize=KEY_CACHE_SIZE)
def _insertion_key(w: Word) -> Word:
    out: list[int] = []
    spine: list[int] = []  # open right spine, positions increasing upwards
    for i in sorted(range(len(w)), key=w.__getitem__):
        while spine and spine[-1] < i:
            out.append(w[spine.pop()])
        spine.append(i)
    out += map(w.__getitem__, reversed(spine))  # the sentinel pops the rest
    return tuple(out)


psylv_key.cache_info = _insertion_key.cache_info


def is_bst(t: Bst) -> bool:
    """True iff t is right-strict, that is, some word inserts to it."""
    try:
        canonical_reading(t)
    except ValueError:
        return False
    return True


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


def canonical_reading(t: Bst) -> Word:
    """The postfix label sequence; inserting it reproduces t. Built as the
    root, right, left preorder, then reversed, checking on the way that
    each label lies in the window (lo, hi] its ancestors leave open; raises
    ValueError when t is not right-strict, as then no word reproduces it."""
    out: list[int] = []
    stack: list[tuple[Node, float, float]] = [] if t is None else [(t, -inf, inf)]
    while stack:
        node, lo, hi = stack.pop()
        label = node.label
        if not lo < label <= hi:
            raise ValueError(f"not a right-strict search tree: label {label} outside ({lo}, {hi}]")
        out.append(label)
        if node.left is not None:
            stack.append((node.left, lo, label))
        if node.right is not None:
            stack.append((node.right, label, hi))
    out.reverse()
    return tuple(out)


def key_sizes(w: Word) -> tuple[Word, Sizes]:
    """psylv_key(w) together with the sizes of every node's left and right
    subtrees in psylv(w), both in postfix order: psylv's sort and stack,
    keeping each label and sizing each subtree as it is folded instead of
    building it. The node at postfix position p with sizes (l, r) has its
    right child at p - 1 when r > 0 and its left child at p - r - 1 when
    l > 0; the root is at len(w) - 1."""
    key: list[int] = []
    sizes: Sizes = []
    spine: list[tuple[int, int]] = []  # open right spine: (position, left subtree size)
    for i in sorted(range(len(w)), key=w.__getitem__) + [len(w)]:
        size = 0
        while spine and spine[-1][0] < i:
            p, left = spine.pop()
            key.append(w[p])
            sizes.append((left, size))
            size += left + 1
        spine.append((i, size))
    return tuple(key), sizes


def reading_count(w: Word) -> int:
    """Number of readings of psylv(w), w being any one of them: each node
    interleaves the readings of its two subtrees in C(l + r, l) ways, l and
    r their sizes. The product over all nodes is the hook length formula
    for the children-before-parents order.

    Counting node orders is enough: equal labels are always
    ancestor-comparable in a right-strict tree (their lowest common
    ancestor would otherwise split them into <= and > sides), so distinct
    node orders always spell distinct words.
    """
    count = 1
    for l, r in key_sizes(w)[1]:
        count *= comb(l + r, l)
    return count


def check_reading_cap(w: Word, cap: int) -> None:
    """Raise CapExceededError when psylv(w) has more than cap readings. No
    tree on n nodes has more than n! >= 2^(n - 1) readings, so nothing is
    counted when n! <= cap, and long words skip computing n!."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if (len(w) > cap.bit_length() or factorial(len(w)) > cap) and reading_count(w) > cap:
        raise CapExceededError("readings", cap)


def readings(t: Bst, cap: int = MAX_READINGS) -> set[Word]:
    """All words whose insertion yields t: the label sequences of the linear
    extensions of the children-before-parents order.

    Raises CapExceededError up front when the (exactly predictable) count
    exceeds cap, before enumerating anything.
    """
    check_reading_cap(canonical_reading(t), cap)
    # Readings are written right to left: a node may be written once its
    # parent is, so a state is (suffix so far, nodes whose parent is in it).
    found: set[Word] = set()
    stack: list[tuple[Word, tuple[Node, ...]]] = [((), () if t is None else (t,))]
    while stack:
        suffix, frontier = stack.pop()
        if not frontier:
            found.add(suffix)
        for i, node in enumerate(frontier):
            rest = frontier[:i] + frontier[i + 1 :]
            if node.left is not None:
                rest += (node.left,)
            if node.right is not None:
                rest += (node.right,)
            stack.append(((node.label,) + suffix, rest))
    return found


def tree_str(t: Bst) -> str:
    """Nested `label(left,right)` form with `_` for empty slots."""
    out: list[str] = []
    stack: list[Bst | str] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, Node):
            out.append(f"{item.label}(")
            stack += [")", item.right, ",", item.left]
        else:
            out.append("_" if item is None else item)
    return "".join(out)


def parse_tree(text: str) -> Bst:
    """Inverse of tree_str; text that is not a right-strict tree is refused."""
    s = text.strip().replace(" ", "")
    pos = 0

    def err(msg: str) -> ParseError:
        return ParseError(f"bad tree text at index {pos}: {msg}")

    def expect(ch: str) -> None:
        nonlocal pos
        if pos >= len(s) or s[pos] != ch:
            raise err(f"expected {ch!r}")
        pos += 1

    # nodes whose ')' is still to come: [label], then [label, left] once ',' is read
    open_nodes: list[list] = []
    while True:
        if pos < len(s) and s[pos] == "_":
            pos += 1
            sub: Bst = None
        else:
            start = pos
            while pos < len(s) and s[pos].isdigit():
                pos += 1
            if start == pos:
                raise err("expected label or '_'")
            label = int(s[start:pos])
            if label < 1:
                raise err("labels must be >= 1")
            expect("(")
            open_nodes.append([label])
            continue
        # sub is complete: a right child closes its parent, which is complete in turn
        while open_nodes and len(open_nodes[-1]) == 2:
            label, left = open_nodes.pop()
            expect(")")
            sub = Node(label, left, sub)
        if not open_nodes:
            break
        open_nodes[-1].append(sub)
        expect(",")
    if pos != len(s):
        raise err("trailing input")
    if not is_bst(sub):
        raise ParseError(f"tree text {text!r} is not a right-strict search tree")
    return sub


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
    if t is None:
        return "(empty)"
    return "\n".join("    " * len(loc) + str(label) for label, loc in reversed(infix(t)))
