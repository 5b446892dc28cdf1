"""Cyclic shift graphs restricted to one evaluation class.

Two elements are adjacent when one factors as x*y and the other as y*x.
Working over words: every neighbor of s arises by splitting some reading of
s at some point and swapping the halves. All neighbors share s's
evaluation, so each evaluation class spans a (conjecturally connected)
finite subgraph that can be searched exhaustively at desk scale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb

from .errors import CapExceededError, DisconnectedError, RankError
from .monoid import SylvElement
from .trees import MAX_READINGS, Bst, Node, psylv, readings, tree_str
from .words import Word, word_str

MAX_VERTICES = 20_000


@dataclass(frozen=True)
class ShiftWitness:
    """Word pair certifying one edge: xy reads the source, yx the target."""

    x: Word
    y: Word

    def validates(self, source: SylvElement, target: SylvElement) -> bool:
        """True iff xy reads source and yx reads target; a symbol beyond
        their rank reads neither."""
        try:
            return (SylvElement(source.rank, psylv(self.x + self.y)) == source
                    and SylvElement(target.rank, psylv(self.y + self.x)) == target)
        except RankError:
            return False

    def swapped(self) -> "ShiftWitness":
        return ShiftWitness(self.y, self.x)


def neighbors(s: SylvElement, cap: int = MAX_READINGS) -> dict[SylvElement, ShiftWitness]:
    """Every element one cyclic shift away from s (s itself included), with one witness each."""
    out: dict[SylvElement, ShiftWitness] = {}
    for w in sorted(readings(s.tree, cap)):
        for k in range(len(w) + 1):
            x, y = w[:k], w[k:]
            t = SylvElement(s.rank, psylv(y + x))
            if t not in out:
                out[t] = ShiftWitness(x, y)
    return out


def _fold_trees(e: tuple[int, ...], empty, combine):
    """Fold the right-strict trees with evaluation e without listing them first.

    A multiset ((value, count), ...) folds to combine([(root value, fold of
    the left multiset, fold of the right multiset), ...]) over its root
    values. Equal values go left, so the root's value splits the multiset
    deterministically and no tree arises twice. The memo lives for one call,
    and an explicit stack stands in for recursion, so any number of symbols folds.
    """

    def splits(items):
        return [(v, items[:i] + (((v, c - 1),) if c > 1 else ()), items[i + 1 :])
                for i, (v, c) in enumerate(items)]

    root = tuple((i + 1, c) for i, c in enumerate(e) if c > 0)
    memo = {(): empty}
    stack = [root]
    while stack:
        items = stack[-1]
        if items in memo:
            stack.pop()
            continue
        parts = splits(items)
        todo = [s for _, left, right in parts for s in (left, right) if s not in memo]
        if todo:
            stack.extend(todo)
        else:
            stack.pop()
            memo[items] = combine([(v, memo[left], memo[right]) for v, left, right in parts])
    return memo[root]


def tree_count(e: tuple[int, ...]) -> int:
    """len(trees_with_evaluation(e)), computed without building any tree."""
    return _fold_trees(e, 1, lambda parts: sum(left * right for _, left, right in parts))


def trees_with_evaluation(e: tuple[int, ...]) -> list[Bst]:
    return list(_fold_trees(e, (None,), lambda parts: tuple(
        Node(v, left, right) for v, lefts, rights in parts
        for left in lefts for right in rights)))


class ComponentGraph:
    """The subgraph induced by all elements with one fixed evaluation.

    Vertices are sorted by canonical reading; edges carry one witness,
    oriented from the lower-index endpoint. Self-loops are dropped.
    """

    def __init__(self, rank: int, evaluation: tuple[int, ...],
                 vertices: list[SylvElement], adj: list[list[int]],
                 witnesses: dict[tuple[int, int], ShiftWitness]):
        self.rank = rank
        self.evaluation = evaluation
        self.vertices = vertices
        self.index = {v: i for i, v in enumerate(vertices)}
        self.adj = adj
        self.witnesses = witnesses
        self.parts = self._parts()

    @property
    def connected(self) -> bool:
        return len(self.parts) <= 1

    def edge_count(self) -> int:
        return len(self.witnesses)

    def _parts(self) -> list[list[int]]:
        seen: set[int] = set()
        parts = []
        for start in range(len(self.vertices)):
            if start not in seen:
                comp = _bfs(self.adj, start)
                seen.update(comp)
                parts.append(sorted(comp))
        return parts


def _bfs(adj: list[list[int]], source: int) -> dict[int, int]:
    """Distances from source to every vertex it reaches, in visiting order."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


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
    vertices = sorted((SylvElement(n, t) for t in trees_with_evaluation(e)),
                      key=lambda s: s.key)
    index = {v: i for i, v in enumerate(vertices)}
    adj: list[set[int]] = [set() for _ in vertices]
    witnesses: dict[tuple[int, int], ShiftWitness] = {}
    for i, s in enumerate(vertices):
        for t, wit in neighbors(s, max_readings).items():
            j = index[t]
            if i == j:
                continue
            adj[i].add(j)
            adj[j].add(i)
            key = (min(i, j), max(i, j))
            if key not in witnesses:
                witnesses[key] = wit if i < j else wit.swapped()
    return ComponentGraph(n, e, vertices, [sorted(a) for a in adj], witnesses)


def bfs_distances(g: ComponentGraph, source: SylvElement) -> dict[SylvElement, int]:
    if source not in g.index:
        raise ValueError("source vertex not in component")
    return {g.vertices[i]: d for i, d in _bfs(g.adj, g.index[source]).items()}


def distance(g: ComponentGraph, s: SylvElement, t: SylvElement) -> int:
    if t not in g.index:
        raise ValueError("target vertex not in component")
    d = bfs_distances(g, s)
    if t not in d:
        raise DisconnectedError(g.parts)
    return d[t]


def diameter(g: ComponentGraph) -> tuple[int, tuple[SylvElement, SylvElement]]:
    """Exact diameter by BFS from every vertex, with one extremal pair."""
    if not g.connected:
        raise DisconnectedError(g.parts)
    if len(g.vertices) == 0:
        raise ValueError("empty graph has no diameter")
    best, pair = 0, (0, 0)
    for i in range(len(g.vertices)):
        d = _bfs(g.adj, i)
        for j in range(i + 1, len(g.vertices)):
            if d[j] > best:
                best, pair = d[j], (i, j)
    return best, (g.vertices[pair[0]], g.vertices[pair[1]])


def graph_dot(g: ComponentGraph, tree_labels: bool = False) -> str:
    """Graphviz DOT; vertex labels are canonical readings unless tree_labels."""
    fmt = (lambda v: tree_str(v.tree)) if tree_labels else (lambda v: word_str(v.key))
    lines = ["graph shifts {", "  node [shape=box];"]
    for i, v in enumerate(g.vertices):
        lines.append(f'  v{i} [label="{fmt(v)}"];')
    for (i, j), wit in sorted(g.witnesses.items()):
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
