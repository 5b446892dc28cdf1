"""Shared oracles: independent recomputations the library is checked against.

The library holds a tree as its key and subtree sizes (`trees.Tree`); the
oracles here hold it as a tree of `Node`s and walk it node by node.

Not every helper is independent of the library. Independent oracles
recompute from the definition and call no library function for the
answer: `psylv_by_insertion` (leaf by leaf insertion), `node_readings`
(linear extensions of the node order), `bfs_by_index` (BFS one arc at a
time), `single_rewrites_by_definition` (the defining relations) and
`neighbors_by_readings` (every split of every reading, swapped). Others
only rebuild nodes from the library's own output: `psylv` and
`tree_from_key_sizes` from `key_sizes`, `standard_trees` from
`keys_with_evaluation`. A test that compares a library result with one of
those checks a conversion, not the result."""

import itertools
import sys
from collections import deque
from math import factorial, inf

import pytest

from sylvshift.errors import InternalError, ParseError
from sylvshift.graph import ComponentGraph, ShiftWitness, keys_with_evaluation, neighbor_keys
from sylvshift.monoid import SylvElement
from sylvshift.trees import Sizes, key_sizes

# The 10-node tree used across the golden tests, spelled out by hand:
# root 4; left 2(left 1(left 1), right 4); right 5(left 5(left 5),
# right 6(right 7)).
EQ1_WORD = (5, 4, 5, 1, 7, 6, 1, 5, 2, 4)
EQ1_STR = "4(2(1(1(_,_),_),4(_,_)),5(5(5(_,_),_),6(_,7(_,_))))"

# The oracles address a node by its path from the root: a string over
# {"L", "R"}, "" being the root itself.
Locator = str


class Node:
    """One node of a tree of nodes, the empty tree being None: the second
    spelling of a tree that the oracles here walk node by node, where the
    library holds a key and its subtree sizes. Trees share subtrees, so
    none is changed once built. == and hash compare whole trees by label
    and shape on an explicit stack, so trees of any depth work at the
    default recursion limit."""

    __slots__ = ("label", "left", "right")

    def __init__(self, label: int, left: "Bst" = None, right: "Bst" = None):
        self.label, self.left, self.right = label, left, right

    def _preorder(self) -> tuple:
        """The labels in preorder with None for each empty slot, which
        spells the tree."""
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
        return f"<Node {node_tree_str(self)}>"


Bst = Node | None


def psylv(w) -> Bst:
    """The tree of nodes that the library's insertion gives for w: built
    from the positions of its key and subtree sizes."""
    return tree_from_key_sizes(*key_sizes(tuple(w)))


def canonical_reading(t: Bst) -> tuple[int, ...]:
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


def insert(t: Bst, a: int) -> Node:
    """Add a as a new leaf in the unique position keeping the tree right-strict
    (equal symbols go left), path-copying the nodes above it."""
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


def labels(t: Bst) -> list[int]:
    """All labels in weakly increasing order."""
    out: list[int] = []
    stack: list[Node] = []
    cur = t
    while stack or cur is not None:
        while cur is not None:
            stack.append(cur)
            cur = cur.left
        cur = stack.pop()
        out.append(cur.label)
        cur = cur.right
    return out


def postfix(t: Bst) -> list[tuple[int, Locator]]:
    """Left subtree, right subtree, root, each node with its locator: every
    node after its descendants. Built as the root, right, left preorder,
    then reversed."""
    out: list[tuple[int, Locator]] = []
    stack: list[tuple[Bst, Locator]] = [(t, "")]
    while stack:
        node, loc = stack.pop()
        if node is not None:
            out.append((node.label, loc))
            stack += ((node.left, loc + "L"), (node.right, loc + "R"))
    out.reverse()
    return out


def complete_subtree(t: Bst, x: Locator) -> Bst:
    """The node at locator x together with everything below it; ValueError
    when x leaves the tree."""
    cur = t
    for i, step in enumerate(x):
        if cur is None:
            raise ValueError(f"locator {x!r} falls off the tree at step {i}")
        cur = cur.left if step == "L" else cur.right
    if cur is None and x:
        raise ValueError(f"locator {x!r} addresses an empty slot")
    return cur


def psylv_by_insertion(w) -> Bst:
    """Insertion straight from the definition: the symbols of w one by one,
    right to left, into an initially empty tree."""
    t: Bst = None
    for a in reversed(tuple(w)):
        t = insert(t, a)
    return t


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


def node_readings(t: Bst) -> set[tuple[int, ...]]:
    """All words whose insertion yields t, walked over its nodes: the label
    sequences of the linear extensions of the children-before-parents order."""
    # Readings are written right to left: a node may be written once its
    # parent is, so a state is (suffix so far, nodes whose parent is in it).
    found: set[tuple[int, ...]] = set()
    stack: list[tuple[tuple[int, ...], tuple[Node, ...]]] = [((), () if t is None else (t,))]
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


def node_tree_str(t: Bst) -> str:
    """Nested `label(left,right)` form with `_` for empty slots, walked over
    the nodes of any tree, right-strict or not."""
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


def node_parse_tree(text: str) -> Bst:
    """The tree of nodes that text spells; text that is not a right-strict
    tree is refused."""
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


def node_tree_dot(t: Bst) -> str:
    """Graphviz DOT for a tree of nodes: the node at position p of its
    postfix walk is `n<p>`; edges carry their child side."""
    nodes = postfix(t)
    position = {loc: p for p, (_, loc) in enumerate(nodes)}
    lines = ["digraph bst {", "  node [shape=circle];"]
    if t is None:
        lines.append('  empty [label="(empty)" shape=plaintext];')
    for p, (label, _) in enumerate(nodes):
        lines.append(f'  n{p} [label="{label}"];')
    for p, (_, loc) in enumerate(nodes):
        for side in "LR":
            if loc + side in position:
                lines.append(f'  n{p} -> n{position[loc + side]} [label="{side}"];')
    lines.append("}")
    return "\n".join(lines)


def node_tree_art(t: Bst) -> str:
    """Sideways ASCII rendering of a tree of nodes (right subtree above the root)."""
    if t is None:
        return "(empty)"
    return "\n".join("    " * len(loc) + str(label) for label, loc in reversed(infix(t)))


def multiset_words(symbols) -> set[tuple[int, ...]]:
    """All distinct arrangements of a multiset of symbols."""
    return set(itertools.permutations(symbols))


def single_rewrites_by_definition(w: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Words one defining-relation application away from w, by the
    definition: positions i, i+1 swap iff their symbols differ and some
    symbol strictly to the right of the pair lies in [min, max)."""
    out = set()
    for i in range(len(w) - 1):
        s, t = w[i], w[i + 1]
        if s == t:
            continue
        a, c = (s, t) if s < t else (t, s)
        if any(a <= w[j] < c for j in range(i + 2, len(w))):
            out.add(w[:i] + (t, s) + w[i + 2 :])
    return out


def neighbors_by_readings(s: SylvElement) -> dict[SylvElement, ShiftWitness]:
    """Neighbors straight from the definition: every split xy of every
    reading of s, swapped and inserted."""
    out: dict[SylvElement, ShiftWitness] = {}
    for w in sorted(node_readings(psylv(s.key))):
        for k in range(len(w) + 1):
            t = SylvElement(s.rank, w[k:] + w[:k])
            if t not in out:
                out[t] = ShiftWitness(w[:k], w[k:])
    return out


def validates_checking_ranks(wit: ShiftWitness, source: SylvElement, target: SylvElement) -> bool:
    """ShiftWitness.validates straight from the definition, ranks first:
    source and target have one rank, every symbol of xy lies in its
    alphabet, xy inserts to source's tree and yx to target's."""
    xy = wit.x + wit.y
    if source.rank != target.rank or not all(1 <= a <= source.rank for a in xy):
        return False
    return (psylv_by_insertion(xy) == psylv(source.key)
            and psylv_by_insertion(wit.y + wit.x) == psylv(target.key))


def adjacency_by_vertex(e: tuple[int, ...]) -> list[list[int]]:
    """The adjacency lists of e's class, built with one neighbor_keys call
    per vertex and no use of the mirror symmetry; each list sorted, without
    its vertex."""
    keys = sorted(keys_with_evaluation(e))
    index = {key: i for i, key in enumerate(keys)}
    return [sorted(index[k] for k in neighbor_keys(key) if k != key)
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


def bfs_by_index(adj: list[list[int]], source: int) -> dict[int, int]:
    """Distances from vertex source to every vertex it reaches in the
    adjacency lists adj: a plain breadth-first search, one arc at a time."""
    dist = {source: 0}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bfs_distances(g: ComponentGraph, source: SylvElement) -> dict[SylvElement, int]:
    """Distances from source to every vertex it reaches, keyed by element:
    `bfs_by_index` over g's adjacency lists."""
    return {g.vertices[i]: d for i, d in bfs_by_index(g.adj, g.index[source.key]).items()}


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
        return [len(labels(node))] + sizes(node.left) + sizes(node.right)

    n = len(labels(t))
    prod = 1
    for s in sizes(t):
        prod *= s
    return factorial(n) // prod


def standard_trees(n: int) -> list[Bst]:
    """All standard trees on n nodes, sorted by canonical reading."""
    return [psylv(key) for key in keys_with_evaluation((1,) * n)]


def standard_trees_by_insertion(n: int) -> list[Bst]:
    """Standard trees straight from the definition: insert every permutation."""
    return sorted({psylv(p) for p in itertools.permutations(range(1, n + 1))},
                  key=canonical_reading)


def visited_tops_by_scan(target: Bst, h: int) -> list[int]:
    """Postfix positions of the topmost nodes among the first h in postfix
    order, by comparing every visited locator with every other: the node is
    topmost iff no other visited locator is a proper prefix of its own."""
    locs = [loc for _, loc in postfix(target)[:h]]
    return [i for i, loc in enumerate(locs)
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


def matches(node: Bst, pattern: Bst) -> bool:
    """Pattern occurs at node: labels and parent-child shape agree on the
    pattern's span; the host may carry extra nodes below the pattern's frontier."""
    if pattern is None:
        return True
    pairs = [(node, pattern)]
    while pairs:
        node, pattern = pairs.pop()
        if node is None or node.label != pattern.label:
            return False
        if pattern.left is not None:
            pairs.append((node.left, pattern.left))
        if pattern.right is not None:
            pairs.append((node.right, pattern.right))
    return True


def step_invariants_by_tree(t: Bst, patterns: list[Bst]) -> bool:
    """The two chain invariants on a tree of nodes: patterns are the
    target's complete subtrees at the topmost visited nodes, newest first;
    they appear in that order along t's path of left child nodes, the
    newest at t's root."""
    if not matches(t, patterns[0]):
        return False
    idx = 0
    cur = t
    while cur is not None:
        if idx < len(patterns) and cur.label == patterns[idx].label:
            if not matches(cur, patterns[idx]):
                return False
            idx += 1
        cur = cur.left
    return idx == len(patterns)


def tree_from_key_sizes(key, sizes: Sizes) -> Bst:
    """The tree a key and its subtree sizes address: the node at postfix
    position p with sizes (l, r) has its right child at p - 1 and its left
    child at p - r - 1. Nodes are built in postfix order, children first."""
    built: list[Node] = []
    for p, (label, (l, r)) in enumerate(zip(key, sizes)):
        right = built[p - 1] if r else None
        left = built[p - r - 1] if l else None
        built.append(Node(label, left, right))
    return built[-1] if built else None


def classify_step(target: Bst, nodes: list[tuple[int, Locator]], h: int) -> str:
    """Which of the four step shapes relates the h-th and (h+1)-th postfix
    nodes, from their locators; nodes is postfix(target)."""
    n = len(nodes)
    if not 1 <= h < n:
        raise ValueError(f"step {h} outside 1..{n - 1}")
    _, loc_h = nodes[h - 1]
    _, loc_next = nodes[h]
    parent_next = complete_subtree(target, loc_next)
    conds = {
        # previous node is a left child; next node lies in its parent's right subtree
        "case1": bool(loc_h) and loc_h[-1] == "L" and loc_next.startswith(loc_h[:-1] + "R"),
        # previous node is the right child of the next one, which has a left subtree
        "case2": loc_h == loc_next + "R" and parent_next.left is not None,
        # previous node is the left child of the next one
        "case3": loc_h == loc_next + "L",
        # previous node is the right child of the next one, which has no left subtree
        "case4": loc_h == loc_next + "R" and parent_next.left is None,
    }
    hits = [name for name, hit in conds.items() if hit]
    if len(hits) != 1:
        raise InternalError(f"postfix step {h} fits {hits or 'no'} cases, expected exactly one")
    return hits[0]


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
    case = classify_step(target, nodes, h)

    bh = complete_subtree(target, loc_h)
    if not matches(t, bh):
        raise InternalError(f"step {h}: newest built subtree is not at the root")
    r_bh = canonical_reading(bh)
    lm = "L" * _spine_len(bh, "L")  # leftmost node of the root copy of bh
    rm = "R" * _spine_len(bh, "R")
    left_min = complete_subtree(t, lm).left  # subtree hanging off the copy's leftmost node
    right_max = complete_subtree(t, rm).right  # subtree hanging off its rightmost node
    u_loc = dict(postfix(t)).get(u_next)  # t is standard: its labels are distinct
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
            if not matches(u_node.left, bg):
                raise InternalError(
                    f"step {h}: expected the older built subtree directly below {u_next}")
            lam = canonical_reading(complete_subtree(t, g_root + "L" * _spine_len(bg, "L")).left)
            x = lam + r_bg + (u_next,)
            y = delta + r_bh
            tag = "case2a"
        else:
            # patterns adjacent on the spine; next node hangs off the older one's right
            g_root = lslot
            if not matches(left_min, bg):
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
