"""Cyclic shift graphs restricted to one evaluation class.

Two elements are adjacent when one factors as x*y and the other as y*x.
Over words: split a reading of s as xy and insert yx. The nodes that y
reads are closed upwards (the root and some of its descendants, or
nothing), and x is a linear extension of the forest left below them. The
relation is a congruence, so `neighbor_keys` takes each such y once and
each sylvester class of x once, not every reading at every split, and
reads the neighbor's key without building its tree. All neighbors share
s's evaluation, so each evaluation class spans a (conjecturally connected)
finite subgraph that can be searched exhaustively at desk scale.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from math import comb

from .errors import CapExceededError, DisconnectedError, InternalError, RankError
from .monoid import SylvElement
from .trees import MAX_READINGS, check_reading_cap, child_sizes, psylv_key, tree_str
from .words import Word, check_rank, word_str

MAX_VERTICES = 20_000


@dataclass(frozen=True)
class ShiftWitness:
    """Word pair certifying one edge: xy reads the source, yx the target."""

    x: Word
    y: Word

    def validates(self, source: SylvElement, target: SylvElement) -> bool:
        """True iff xy reads source and yx reads target; a symbol beyond
        their rank reads neither. Compares keys, so no tree is built."""
        xy = self.x + self.y
        try:
            check_rank(xy, source.rank)
            check_rank(xy, target.rank)
        except RankError:
            return False
        return psylv_key(xy) == source.key and psylv_key(self.y + self.x) == target.key


def _fold(state, parts, memo: dict) -> list[Word]:
    """The canonical readings of the trees of a state that splits into
    (label, left state, right state) parts; v(left, right) reads as the
    left reading, the right reading, then v.

    memo maps every state folded so far to its readings; the caller seeds
    it with the empty state's [()]. An explicit stack stands in for
    recursion, so states nest to any depth.
    """
    pending: dict = {}
    stack = [state]
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        if top not in pending:
            pending[top] = ps = parts(top)
            todo = [sub for _, left, right in ps for sub in (left, right) if sub not in memo]
            if todo:
                stack.extend(todo)
                continue
        stack.pop()
        memo[top] = [kl + kr + (v,) for v, left, right in pending.pop(top)
                     for kl in memo[left] for kr in memo[right]]
    return memo[state]


def neighbor_keys(s: SylvElement, cap: int = MAX_READINGS) -> dict[Word, ShiftWitness]:
    """The key of every element one cyclic shift away from s (s itself
    included), with one witness each.

    A split xy of a reading of s puts an up-closed set U of nodes in y and
    the forest F of complete subtrees below U in x. The relation is a
    congruence, so the neighbor psylv(yx) depends only on U and the class
    of x among the linear extensions of F. A class's last letter is the
    label v of some root r of F; the rest of F splits into its labels <= v
    and > v. Two disjoint complete subtrees of s have disjoint label
    ranges, so each other tree of F falls wholly on one side, as do r's
    two subtrees, and no order ties the sides together. The classes of F
    are therefore the trees r(left class, right class), all distinct, and
    the canonical reading of each is itself an x for it. Nodes are numbered
    in postfix order, so a complete subtree is a range of bits and F a
    bitmask; the classes of each F are memoized for the call.

    Raises CapExceededError before any work when s has more than cap
    readings; the (U, class) pairs tried never outnumber readings x splits.
    """
    lab = s.key
    n = len(lab)
    check_reading_cap(lab, cap)
    # first[p]: the lowest postfix index in p's subtree, which spans first[p]..p
    first = [p - l - r for p, (l, r) in enumerate(child_sizes(lab))]
    at_most: dict[int, int] = {}  # label v -> bitmask of the nodes labelled <= v
    mask = 0
    for p in sorted(range(n), key=lab.__getitem__):
        mask |= 1 << p
        at_most[lab[p]] = mask

    def parts(forest: int):
        out = []
        rest = forest
        while rest:
            r = rest.bit_length() - 1  # the highest node left is a root
            rest &= (1 << first[r]) - 1
            below = forest & ~(1 << r)
            low = below & at_most[lab[r]]
            out.append((lab[r], low, below ^ low))
        return out

    classes: dict[int, list[Word]] = {0: [()]}
    out: dict[Word, ShiftWitness] = {}
    # Closure walk down the postfix order: a node whose parent is in U
    # either joins U or gives F its whole subtree, a range of bits.
    stack = [(n - 1, 0)]  # (next node, F so far)
    while stack:
        p, forest = stack.pop()
        if p >= 0:
            stack.append((p - 1, forest))
            stack.append((first[p] - 1, forest | (1 << p + 1) - (1 << first[p])))
            continue
        y = tuple(lab[q] for q in range(n) if not forest >> q & 1)
        for x in _fold(forest, parts, classes):
            key = psylv_key(y + x)
            if key not in out:
                out[key] = ShiftWitness(x, y)
    return out


def neighbors(s: SylvElement, cap: int = MAX_READINGS) -> dict[SylvElement, ShiftWitness]:
    """Every element one cyclic shift away from s (s itself included), with one witness each."""
    return {SylvElement.of_key(s.rank, key): wit for key, wit in neighbor_keys(s, cap).items()}


def tree_count(e: tuple[int, ...]) -> int:
    """len(keys_with_evaluation(e)), computed without listing them.

    Read in order, a tree with evaluation e is a binary tree on the sorted
    word whose node j has no right child whenever letter j + 1 repeats
    letter j (a right subtree holds only larger labels), and every such
    binary tree is one. The stack build of `trees.psylv`, run in order,
    leaves node j without a right child exactly when node j + 1 pops at
    least one entry. So count the pop sequences by stack height:
    O(len(word)^2) additions.
    """
    word = [v for v, c in enumerate(e) for _ in range(c)]
    ways = [1]  # ways[h]: pop sequences so far that leave h entries on the stack
    for j, v in enumerate(word):
        above = list(accumulate(reversed(ways)))[::-1]  # above[h] = sum(ways[h:])
        ways = [0] + (above[1:] if j and word[j - 1] == v else above)
    return sum(ways)


def keys_with_evaluation(e: tuple[int, ...]) -> list[Word]:
    """The key (canonical reading) of every tree with evaluation e, each once.

    A multiset's trees are v(left tree, right tree) over its root values v.
    Equal values go left, so v splits the multiset deterministically and no
    tree arises twice. Every multiset met is a run of e's nonzero values,
    all at full count but the last: the state (first index, last index,
    count of the last value) names it, and None the empty multiset.
    """
    values = [(i + 1, c) for i, c in enumerate(e) if c > 0]

    def parts(state):
        a, b, last = state
        out = []
        for i in range(a, b + 1):
            v, c = values[i]
            if i == b:
                c = last
            if c > 1:
                low = (a, i, c - 1)
            else:
                low = (a, i - 1, values[i - 1][1]) if i > a else None
            out.append((v, low, (i + 1, b, last) if i < b else None))
        return out

    root = (0, len(values) - 1, values[-1][1]) if values else None
    return _fold(root, parts, {None: [()]})


class ComponentGraph:
    """The subgraph induced by all elements with one fixed evaluation.

    Vertices are sorted by canonical reading and adj[i] lists the indices
    of i's neighbors in increasing order; self-loops are dropped. Edges
    carry no witness: `edge_witnesses` recomputes them from the vertices
    under max_readings, the reading cap the graph was built with.
    """

    def __init__(self, rank: int, evaluation: tuple[int, ...],
                 vertices: list[SylvElement], adj: list[list[int]],
                 max_readings: int = MAX_READINGS):
        self.rank = rank
        self.evaluation = evaluation
        self.vertices = vertices
        self.index = {v: i for i, v in enumerate(vertices)}
        self.adj = adj
        self.max_readings = max_readings
        self.parts = self._parts()

    @property
    def connected(self) -> bool:
        return len(self.parts) <= 1

    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    def _parts(self) -> list[list[int]]:
        seen: set[int] = set()
        parts = []
        for start in range(len(self.vertices)):
            if start not in seen:
                comp = bfs(self.adj, start)
                seen.update(comp)
                parts.append(sorted(comp))
        return parts


def bfs(adj: list[list[int]], source: int, stop: int | None = None) -> dict[int, int]:
    """Distances from source to every vertex it reaches, in visiting order;
    the search ends as soon as it reaches stop."""
    dist = {source: 0}
    queue = deque([source])
    while queue and stop not in dist:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def mirror_index(keys: list[Word], index: dict[Word, int]) -> list[int]:
    """m[i]: the index of the mirror image of the tree keys[i], for the keys
    of one class on distinct letters, index mapping each key to its place.

    Reversing the letters of the support (its k-th smallest letter <-> its
    k-th largest) reverses every comparison and keeps every position, so it
    swaps left and right in the Cartesian tree of a word on distinct
    letters. It acts letter by letter, so it takes the shift of xy to yx
    to the shift of its image of xy that swaps the same two factors: m is
    an automorphism of the class's shift graph. On repeated letters it
    turns the sylvester congruence into the #-sylvester one, so it is no
    automorphism there. Raises InternalError unless m is an involution.
    """
    support = sorted(keys[0]) if keys else []
    flip = dict(zip(support, reversed(support)))
    m = [index[psylv_key(tuple(map(flip.__getitem__, key)))] for key in keys]
    if any(m[j] != i for i, j in enumerate(m)):
        raise InternalError("letter reversal is not an involution on the class")
    return m


def component(e: tuple[int, ...], n: int, max_vertices: int = MAX_VERTICES,
              max_readings: int = MAX_READINGS) -> ComponentGraph:
    """Build the evaluation-class graph for e over the rank-n alphabet."""
    if len(e) != n:
        raise RankError(f"evaluation has length {len(e)}, rank is {n}")
    if any(c < 0 for c in e):
        raise RankError(f"negative multiplicity in {e}")
    # Hanging each symbol's extra copies as a left chain below it turns every
    # BST shape on the k distinct symbols into its own tree with evaluation e,
    # so Catalan(k) <= tree_count(e); that bound is cheap to compare first.
    k = sum(1 for c in e if c)
    if comb(2 * k, k) // (k + 1) > max_vertices or tree_count(e) > max_vertices:
        raise CapExceededError("component vertices", max_vertices)
    keys = sorted(keys_with_evaluation(e))
    vertices = [SylvElement.of_key(n, key) for key in keys]
    index = {key: i for i, key in enumerate(keys)}
    # On distinct letters only the vertex i <= m[i] of each mirror orbit
    # enumerates its neighbors. Nothing is appended to adj[m[i]] after the
    # loop leaves m[i], so when it reaches i > m[i], adj[m[i]] is complete
    # and i's neighbors are its mirror image. On repeated letters the
    # reversal is no automorphism, and every vertex enumerates.
    m = mirror_index(keys, index) if max(e, default=0) <= 1 else None
    # Each lower neighbor j of i appended i to adj[i] already, in increasing
    # j; so adj[i] stays sorted, and an asymmetric relation shows up here.
    adj: list[list[int]] = [[] for _ in vertices]
    for i, s in enumerate(vertices):
        if m is None or i <= m[i]:
            js = [index[key] for key in neighbor_keys(s, max_readings)]
        else:
            js = [m[j] for j in adj[m[i]]]
        if sorted(j for j in js if j < i) != adj[i]:
            raise InternalError(f"shift relation not symmetric at {word_str(s.key)}")
        for j in sorted(j for j in js if j > i):
            adj[i].append(j)
            adj[j].append(i)
    return ComponentGraph(n, e, vertices, adj, max_readings)


def edge_witnesses(g: ComponentGraph) -> Iterator[tuple[int, int, ShiftWitness]]:
    """Every edge (i, j), i < j, in increasing order, with the witness that
    `neighbor_keys` gives from vertex i to vertex j under g's reading cap."""
    for i, s in enumerate(g.vertices):
        wits = neighbor_keys(s, g.max_readings)
        for j in g.adj[i]:
            if j > i:
                yield i, j, wits[g.vertices[j].key]


def distance(g: ComponentGraph, s: SylvElement, t: SylvElement) -> int:
    if t not in g.index:
        raise ValueError("target vertex not in component")
    if s not in g.index:
        raise ValueError("source vertex not in component")
    target = g.index[t]
    dist = bfs(g.adj, g.index[s], stop=target)
    if target not in dist:
        raise DisconnectedError(g.parts)
    return dist[target]


def diameter(g: ComponentGraph) -> tuple[int, tuple[SylvElement, SylvElement]]:
    """Exact diameter D, with the lexicographically least pair of vertex
    indices i < j at distance D (a one-vertex graph gives (0, (v, v))).

    Bit-parallel BFS (Akiba, Iwata and Yoshida, SIGMOD 2013): reach[u] is
    the set of vertices within r steps of u, an int bitset, and round r + 1
    ORs into it the round-r sets of u's neighbors. u's eccentricity is the
    round in which its set fills, and full sets are not touched again, so
    D is the number of rounds and the sets still open in the last one
    belong to the vertices of eccentricity D. A round in which no set grows
    while one is not full means the adjacency is inconsistent
    (InternalError). Every pair at distance D starts at a vertex of
    eccentricity D, and a vertex at distance D from the first such vertex
    i has eccentricity D too, so it comes after i: one BFS from i gives
    the pair.
    """
    if not g.connected:
        raise DisconnectedError(g.parts)
    if len(g.vertices) == 0:
        raise ValueError("empty graph has no diameter")
    n = len(g.vertices)
    full = (1 << n) - 1
    reach = [1 << u for u in range(n)]
    d, last = 0, [0]  # the vertices of eccentricity d, in index order
    todo = list(range(n)) if n > 1 else []
    while todo:
        d += 1
        grown = []
        for u in todo:
            acc = reach[u]
            for v in g.adj[u]:
                acc |= reach[v]
            if acc != reach[u]:
                grown.append((u, acc))
        if not grown:
            raise InternalError(f"bitset BFS stalled in round {d} "
                                f"with {len(todo)} sets not full")
        for u, acc in grown:
            reach[u] = acc
        last, todo = todo, [u for u in todo if reach[u] != full]
    i = last[0]
    j = min(j for j, dj in bfs(g.adj, i).items() if dj == d)
    return d, (g.vertices[i], g.vertices[j])


def graph_dot(g: ComponentGraph, tree_labels: bool = False) -> str:
    """Graphviz DOT; vertex labels are canonical readings unless tree_labels."""
    fmt = (lambda v: tree_str(v.tree)) if tree_labels else (lambda v: word_str(v.key))
    lines = ["graph shifts {", "  node [shape=box];"]
    for i, v in enumerate(g.vertices):
        lines.append(f'  v{i} [label="{fmt(v)}"];')
    for i, j, wit in edge_witnesses(g):
        lines.append(f'  v{i} -- v{j} [label="{word_str(wit.x)}|{word_str(wit.y)}"];')
    lines.append("}")
    return "\n".join(lines)


def component_tsv(g: ComponentGraph) -> str:
    """One TSV row: evaluation, vertex count, edge count, diameter, extremal pair."""
    d, (a, b) = diameter(g)
    cols = [
        ",".join(str(c) for c in g.evaluation),
        str(len(g.vertices)),
        str(g.edge_count()),
        str(d),
        word_str(a.key),
        word_str(b.key),
    ]
    return "\t".join(cols)
