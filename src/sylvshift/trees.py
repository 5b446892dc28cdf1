"""Right-strict binary search trees: insertion, readings, text and drawings.

psylv(w) below is the tree that inserting the symbols of w right to left
into an empty tree gives. A node's label is >= every label in its left
subtree and < every label in its right subtree, so equal symbols
accumulate on the left. psylv(w) is the Cartesian tree of w (Vuillemin,
"A unifying look at data structures", CACM 1980): a search tree on
(label, position), and a heap on position, as a later symbol is inserted
earlier and sits nearer the root.

The library holds a tree in one form, `Tree`: its key, the canonical
(postfix) reading, and the sizes of every node's subtrees, which one pass
of insertion's sort and stack gives (`key_sizes`); a node is addressed by
its position in the key. Inserting the key gives the tree back, and the
functions here take any reading w of the tree.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from math import comb

from .errors import CapExceededError, ParseError
from .words import Word, parse_label

MAX_READINGS = 100_000
# Characters that tree_art may write for one tree. Art grows with the
# square of the tree's depth, as a line is indented four spaces per level:
# a 2000-node chain draws 8 MB of art, a 1e5-node one would need 2e10
# characters. DOT text is linear in the tree and needs no cap.
MAX_RENDER_CHARS = 20_000_000
# Distinct words whose keys psylv_key keeps. A path certificate's verify()
# re-inserts its steps' words, which shift_path's own verify() inserted
# just before: a second verify() of the same certificate (as the paths
# benchmark makes) finds every word here, while shift_path's one verify()
# hits little. A longer cache of long words costs more memory than it saves.
KEY_CACHE_SIZE = 256

Sizes = list[tuple[int, int]]  # (left, right) subtree sizes per node, in postfix order
Tree = tuple[Word, Sizes]  # a tree as its key and its sizes, which key_sizes gives


def psylv_key(w: Iterable[int]) -> Word:
    """The key of psylv(w), its canonical (postfix) reading: the sort and
    stack of key_sizes, keeping only each label as it is popped. The last
    KEY_CACHE_SIZE distinct words are kept with their keys; w may be any
    sequence of ints and is looked up as a tuple. Keys are tuples, so
    callers share a cached key safely."""
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


def key_sizes(w: Word) -> Tree:
    """psylv_key(w) together with the sizes of every node's left and right
    subtrees in psylv(w), both in postfix order. One stable sort gives the
    in-order sequence of w's positions; a stack holds the open right
    spine. Each position pops every entry with a smaller position, folding
    them into the right chain that becomes its left subtree; the sentinel
    position len(w) folds the whole tree. A node is popped once its subtree
    is complete and before anything outside it, so the pops come in
    postfix order. The node at postfix position p with sizes (l, r) has its
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


def check_reading_cap(sizes: Sizes, cap: float) -> int:
    """Number of readings of the tree of these `key_sizes` sizes; raises
    CapExceededError at the first factor that takes it past cap.

    Each node interleaves the readings of its two subtrees in C(l + r, l)
    ways, l and r their sizes. The product over all nodes is the hook
    length formula for the children-before-parents order. Counting node
    orders is enough: equal labels are always ancestor-comparable in a
    right-strict tree (their lowest common ancestor would otherwise split
    them into <= and > sides), so distinct node orders always spell
    distinct words.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    count = 1
    for l, r in sizes:
        count *= comb(l + r, l)
        if count > cap:
            raise CapExceededError("readings", cap)
    return count


def readings(w: Word, cap: int = MAX_READINGS) -> set[Word]:
    """All words whose insertion yields psylv(w), w being any one of them:
    the label sequences of the linear extensions of the
    children-before-parents order.

    Raises CapExceededError up front when the (exactly predictable) count
    exceeds cap, before enumerating anything.
    """
    key, sizes = key_sizes(w)
    check_reading_cap(sizes, cap)
    children = [((p - r - 1,) if l else ()) + ((p - 1,) if r else ())
                for p, (l, r) in enumerate(sizes)]
    # Readings are written right to left: a node may be written once its
    # parent is, so a state is (suffix so far, positions whose parent is in it).
    found: set[Word] = set()
    stack: list[tuple[Word, tuple[int, ...]]] = [((), (len(key) - 1,) if key else ())]
    while stack:
        suffix, frontier = stack.pop()
        while len(frontier) == 1:  # a forced step: one node can be written
            p = frontier[0]
            suffix = (key[p],) + suffix
            frontier = children[p]
        if not frontier:
            found.add(suffix)
        for i, p in enumerate(frontier):
            stack.append(((key[p],) + suffix, frontier[:i] + frontier[i + 1 :] + children[p]))
    return found


def tree_str(w: Word) -> str:
    """Nested `label(left,right)` form of psylv(w), with `_` for empty slots,
    written in preorder over the postfix positions of key_sizes(w) on an
    explicit stack that also holds the text still owed after each subtree."""
    key, sizes = key_sizes(w)
    out: list[str] = []
    stack: list[int | str] = [len(key) - 1 if key else "_"]
    while stack:
        p = stack.pop()
        if isinstance(p, str):
            out.append(p)
        else:
            l, r = sizes[p]
            out.append(f"{key[p]}(")
            stack += (")", p - 1 if r else "_", ",", p - r - 1 if l else "_")
    return "".join(out)


def parse_tree(text: str) -> Word:
    """Inverse of tree_str: the key (canonical reading) of the tree the text
    spells. A node's ')' follows its subtrees, so the labels in the order
    their nodes close are the key. Text is refused unless it is what
    tree_str gives for that key (spaces aside): a tree that is not
    right-strict, like anything that is not tree text, has no such key."""
    import re

    s = text.strip().replace(" ", "")
    key: list[int] = []
    opened: list[int] = []  # labels of the nodes whose ')' is still to come
    for label, _ in re.findall(r"([0-9]+)\(|(\))", s):
        if label:
            opened.append(parse_label(label))
        elif opened:
            key.append(opened.pop())
    if 0 in key or tree_str(key) != s:
        raise ParseError(f"{text!r} is not the text of a right-strict search tree")
    return tuple(key)


def tree_dot(w: Word) -> str:
    """Graphviz DOT for psylv(w): the node at key position p is `n<p>`, its
    lines come in key order, and each edge carries its child side. The text
    is linear in the tree, so a chain of any depth is drawn."""
    key, sizes = key_sizes(w)
    lines = ["digraph bst {", "  node [shape=circle];"]
    if not key:
        lines.append('  empty [label="(empty)" shape=plaintext];')
    lines += (f'  n{p} [label="{a}"];' for p, a in enumerate(key))
    for p, (l, r) in enumerate(sizes):
        if l:
            lines.append(f'  n{p} -> n{p - r - 1} [label="L"];')
        if r:
            lines.append(f'  n{p} -> n{p - 1} [label="R"];')
    lines.append("}")
    return "\n".join(lines)


def tree_art(w: Word) -> str:
    """Small sideways ASCII rendering of psylv(w) (right subtree printed
    above the root), one line per node, indented four spaces per level.
    Raises CapExceededError, before drawing any line, when the text would
    be longer than MAX_RENDER_CHARS."""
    if not w:
        return "(empty)"
    key, sizes = key_sizes(w)
    depth = [0] * len(key)
    for p in reversed(range(len(key))):  # a node's parent sits after it
        l, r = sizes[p]
        if r:
            depth[p - 1] = depth[p] + 1
        if l:
            depth[p - r - 1] = depth[p] + 1
    if sum(4 * d + len(str(a)) + 1 for a, d in zip(key, depth)) - 1 > MAX_RENDER_CHARS:
        raise CapExceededError("rendered characters", MAX_RENDER_CHARS)
    order = sorted(range(len(key)), key=key.__getitem__)  # in order, by (label, position)
    return "\n".join("    " * depth[p] + str(key[p]) for p in reversed(order))
