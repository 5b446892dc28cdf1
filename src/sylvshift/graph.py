"""Cyclic shift graphs restricted to one evaluation class.

Two elements are adjacent when one factors as x*y and the other as y*x:
split a reading of s as xy and insert yx. `neighbor_set` takes each split
once per set of nodes that y reads and per sylvester class of x, and
splices the neighbor's key from their letters. The components are the
evaluation classes, as the paper proves and `verify connectivity` checks
on small ones, so each is searched exhaustively. `meet` is the one search
from both ends, over a built class's rows or over keys; `search_parts` is
the one search for parts, over a built class's rows or over keys, and
stops once every vertex is placed; `levels`, a BFS by set unions, gives
all distances from one vertex.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Callable, Collection, Hashable, Iterable, Iterator, Sequence
from functools import cached_property
from itertools import accumulate
from math import factorial, inf

from .errors import CapExceededError, DisconnectedError, InternalError, RankError
from .monoid import SylvElement
from .trees import MAX_READINGS, check_reading_cap, key_sizes, psylv_key, tree_str
from .words import Word, word_str

MAX_VERTICES = 20_000


class ShiftWitness(namedtuple("ShiftWitness", "x y")):
    """Word pair certifying one edge: xy reads the source, yx the target."""

    __slots__ = ()

    def validates(self, source: SylvElement, target: SylvElement) -> bool:
        """True iff source and target are elements of one monoid, xy reads
        source and yx reads target. Compares keys, so no tree is built, and
        the letters need no rank check: equal keys have equal letters, and
        an element's letters lie in 1..rank, so a symbol beyond the rank
        (or below 1) reads neither."""
        x, y = self
        return (source.rank == target.rank and psylv_key(x + y) == source.key
                and psylv_key(y + x) == target.key)


def _fold(forest: int, memo: dict, lab: Word, first: list, at_most: dict) -> list:
    """The canonical reading and slots of each class of the linear
    extensions of a forest of complete subtrees, a bitmask of postfix
    positions in the tree that lab labels (first[p]: the lowest in p's
    subtree; at_most[v]: the nodes labelled <= v). Complete subtrees have
    disjoint label ranges, so the classes are the distinct trees v(low
    class, high class) for each root labelled v, low and high being the
    rest at labels <= v and > v, read as low's reading, high's, then v.
    Slots say, per gap between distinct labels, where the letters falling
    there read: low's, less the last when low holds v (ties go left), then
    high's past low's. memo holds every forest folded so far, seeded with
    the empty one's [((), (0,))]; a stack stands in for recursion."""
    pending: dict[int, list[tuple[int, int, int]]] = {}
    stack = [forest]
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        if top not in pending:
            pending[top] = ps = []
            rest = top
            while rest:
                r = rest.bit_length() - 1  # the highest node left is a root
                rest &= (1 << first[r]) - 1
                below = top ^ 1 << r
                low = below & at_most[lab[r]]
                ps.append((lab[r], low, below ^ low))
            todo = [sub for _, low, high in ps for sub in (low, high) if sub not in memo]
            if todo:
                stack.extend(todo)
                continue
        stack.pop()
        memo[top] = [(kl + kh + (v,),
                      (sl[:-1] if v in kl else sl) + tuple([len(kl) + s for s in sh]))
                     for v, low, high in pending.pop(top)
                     for kl, sl in memo[low] for kh, sh in memo[high]]
    return memo[forest]


def _shifts(w: Word, cap: float) -> Iterator[tuple[Word, Word, Word]]:
    """(psylv(yx)'s key, x, y) for one reading xy of psylv(w) per (U, class)
    pair, always in the same order; w is any reading of the tree. A split
    xy of a reading puts an up-closed set U of nodes in y and the forest F
    of complete subtrees below U in x. The relation is a congruence, so
    psylv(yx) depends only on U and the class of x among F's linear
    extensions (`_fold`, memoized for the call), read canonically. Inserting
    yx builds x's tree, then each letter of y falls into the gap of x's
    labels that holds it. U read in postfix order is a key, and so is its
    part in a gap, a label interval, so yx's key is x with each gap's
    letters at its slot. Raises CapExceededError before enumerating when
    psylv(w) has more than cap readings; the (U, class) pairs tried never
    outnumber readings x splits.
    """
    lab, sizes = key_sizes(w)
    check_reading_cap(sizes, cap)
    # first[p]: the lowest postfix index in p's subtree, which spans first[p]..p
    first = [p - l - r for p, (l, r) in enumerate(sizes)]
    # a bit per distinct label: smaller[v] below v, labels[p] in p's subtree
    smaller = {v: (1 << i) - 1 for i, v in enumerate(sorted(set(lab)))}
    labels: list[int] = []
    for p, (l, r) in enumerate(sizes):
        labels.append(smaller[lab[p]] + 1 | (r and labels[p - 1]) | (l and labels[p - r - 1]))
    order = sorted(range(len(lab)), key=lab.__getitem__)  # at_most[v]: the nodes labelled <= v
    at_most = dict(zip(map(lab.__getitem__, order), accumulate(map((1).__lshift__, order))))
    classes: dict[int, list[tuple[Word, Word]]] = {0: [((), (0,))]}
    # Closure walk down the postfix order: a node whose parent is in U
    # either joins U or gives F its whole subtree, a range of postfix bits.
    stack = [(len(lab) - 1, 0, 0, ())]  # (next node, F, F's labels, U's letters)
    while stack:
        p, forest, present, y = stack.pop()
        if p >= 0:
            stack.append((p - 1, forest, present, (lab[p],) + y))
            stack.append((first[p] - 1, forest | (1 << p + 1) - (1 << first[p]),
                          present | labels[p], y))
            continue
        gaps: dict[int, list[int]] = {}  # the letters of each gap, by its number
        for v in y:
            gaps.setdefault((present & smaller[v]).bit_count(), []).append(v)
        cuts = sorted(gaps.items(), reverse=True)
        for x, slots in classes.get(forest) or _fold(forest, classes, lab, first, at_most):
            key = list(x)
            for gap, letters in cuts:  # from the last gap, so that no slot moves
                key[slots[gap]:slots[gap]] = letters
            yield tuple(key), x, y


def neighbor_set(w: Word, cap: float = MAX_READINGS) -> set[Word]:
    """The key of every tree one cyclic shift away from psylv(w) (itself included)."""
    return {key for key, _, _ in _shifts(w, cap)}


def neighbor_keys(w: Word, cap: float = MAX_READINGS) -> dict[Word, ShiftWitness]:
    """Each key of `neighbor_set(w, cap)` with the first witness `_shifts` gives for it."""
    out: dict[Word, ShiftWitness] = {}
    for key, x, y in _shifts(w, cap):
        if key not in out:
            out[key] = ShiftWitness(x, y)
    return out


def tree_count(e: tuple[int, ...], cap: float = inf) -> int:
    """len(keys_with_evaluation(e)), computed without listing them.

    The trees with evaluation e are the search trees on the sorted word
    whose equal labels go left: read in order, the binary trees on the
    sorted word whose node p has no right child whenever letter p + 1
    repeats letter p. Built in order on a stack of its open right spine,
    node j pops k entries and is pushed, and node j - 1 has no right child
    exactly when k >= 1. So the trees are the pop sequences with k >= 1
    wherever letter j repeats letter j - 1, and a tree's pops, followed by
    the spine left at the end, spell its key in postfix order. Count the
    sequences by stack height, reading e run by run: O(len(e)) additions
    per letter read, and no list the length of the word. A repeated letter
    applies the same map as the one before it, so once a repeat leaves the
    counts unchanged the rest of its run leaves them so too and is skipped.
    A repeat that does change them raises their sum, which no letter
    lowers, so at most 2 len(e) + cap letters are read before the cap
    refuses.

    Raises CapExceededError("component vertices", cap) after the first
    prefix of the word whose pop sequences outnumber cap. That is exact:
    each pop sequence of a prefix extends to one of the whole word (node
    j - 1 is on the stack for node j to pop), and distinct prefixes extend
    to distinct sequences, so no prefix counts more than the whole word.
    """
    ways = [1]  # ways[h]: pop sequences so far that leave h entries on the stack
    for run in e:
        for i in range(run):
            if sum(ways) > cap:
                raise CapExceededError("component vertices", cap)
            above = list(accumulate(reversed(ways)))[::-1]  # above[h] = sum(ways[h:])
            grown = [0] + (above[1:] if i else above)
            if grown == ways:
                break
            ways = grown
    if sum(ways) > cap:
        raise CapExceededError("component vertices", cap)
    return sum(ways)


def keys_with_evaluation(e: tuple[int, ...]) -> list[Word]:
    """The key (canonical reading) of every tree with evaluation e, once each
    and in increasing order: the pop sequences that `tree_count` counts, on
    a stack of frames that share their spine and pops as linked (label,
    rest) pairs. The stack tries node j's pop counts k from h down to 0;
    choices k > k' share their first k' pops. Under k the next letter is a
    spine label below v = word[j]: the spine rises strictly, and a repeat of
    v is popped under both (k' >= 1). Under k' node j pushes v, so every pop
    or spine label read next is >= v."""
    word = [v for v, c in enumerate(e, 1) for _ in range(c)]
    out: list[Word] = []
    stack = [(0, 0, None, None)]  # (node j, spine height, spine, pops), each newest first
    while stack:
        j, h, spine, pops = stack.pop()
        if j == len(word):
            key = []
            while pops:
                v, pops = pops
                key.append(v)
            key.reverse()
            while spine:
                v, spine = spine
                key.append(v)
            out.append(tuple(key))
            continue
        v = word[j]
        repeat = j > 0 and word[j - 1] == v
        for k in range(h + 1):  # node j pops k entries
            if k or not repeat:
                stack.append((j + 1, h - k + 1, (v, spine), pops))
            if k < h:
                top, spine = spine
                pops = (top, pops)
    return out


class ComponentGraph:
    """The subgraph induced by all elements with one fixed evaluation.

    Vertices come in the key order `keys_with_evaluation` lists, index maps
    each key to its vertex, and adj[i] lists i's neighbors in increasing
    order, without self-loops. Edges carry no witness, and the graph no cap:
    `edge_witnesses` recomputes witnesses from vertices that passed the cap.
    """

    def __init__(self, rank: int, evaluation: tuple[int, ...],
                 vertices: list[SylvElement], adj: list[list[int]]):
        self.rank = rank
        self.evaluation = evaluation
        self.vertices = vertices
        self.index = {v.key: i for i, v in enumerate(vertices)}
        self.adj = adj

    @property
    def connected(self) -> bool:
        return len(self.parts) <= 1

    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    @cached_property
    def parts(self) -> list[list[int]]:
        """Each part's sorted vertex indices, lowest part first, by
        `search_parts` over the rows."""
        return search_parts(range(len(self.vertices)), self.adj.__getitem__)


def search_parts(vertices: Sequence[Hashable],
                 row: Callable[[Hashable], Iterable[Hashable]]) -> list[list[int]]:
    """The parts of the undirected graph on vertices that row(v) lists v's
    neighbors in, as sorted lists of indices into vertices, lowest part
    first. row(v) may list v itself.

    Each part is grown from the lowest vertex not yet placed, one row at a
    time in BFS order, and the search returns as soon as every vertex is
    placed, before the rows that would only meet placed vertices. That is
    sound: the parts found before the current one are exhausted, every row
    of theirs read, so they are closed, and each vertex placed since is
    reached from the current part's first vertex along edges. So once no
    vertex is left, the current part is all the vertices still unplaced
    when it began, and it is connected. A connected class thus needs only
    the rows that find its last vertex. Raises InternalError when a row
    names a vertex not in vertices.
    """
    index = {v: i for i, v in enumerate(vertices)}
    placed = [False] * len(vertices)
    left = len(vertices)
    parts = []
    start = 0
    while left:
        while placed[start]:
            start += 1
        placed[start] = True
        left -= 1
        part = [start]
        for i in part:  # part grows as it is read: a BFS queue
            if not left:
                break
            u = vertices[i]
            for v in row(u):
                j = index.get(v)
                if j is None:
                    raise InternalError(_outside(u, v))
                if not placed[j]:
                    placed[j] = True
                    left -= 1
                    part.append(j)
        parts.append(sorted(part))
    return parts


def _outside(u: Hashable, v: Hashable) -> str:
    """The error a row of u gives when it names v, which is no vertex."""
    return f"the row of {u!r} names {v!r}, which is not in the class"


def levels(adj: list[list[int]], source: int) -> Iterator[set[int]]:
    """The sets of vertices at distance 0, 1, 2, ... from source, each
    yielded once, until none is left: a level-synchronous BFS. Each level
    is the union of the previous level's rows less the vertices seen so
    far, so the work per arc runs in C, not in a Python loop."""
    seen, front = {source}, {source}
    while front:
        yield front
        front = set().union(*map(adj.__getitem__, front)) - seen
        seen |= front


def meet(neighbors: Callable[[Hashable], Collection[Hashable]], s: Hashable, t: Hashable,
         cap: int) -> int | None:
    """The distance from s to t in the undirected graph that neighbors(u)
    lists, or None when no path joins them. neighbors(u) returns a
    collection (a list, set or dict of vertices), which is read twice.

    Bidirectional search (Pohl, "Bi-directional search", 1971): grow whole
    BFS levels from both ends, each time on the side whose last level is
    smaller (a tie goes to the side not just grown), one row neighbors(u)
    at a time, and stop at the first row that meets the other side's last
    level. Before each level the two sides have explored radii a and b
    around their ends and are disjoint, so the distance D exceeds a + b.
    A row of a vertex u at depth a can meet the other side only in its
    last level: a vertex there at depth c < b would put u within
    c + 1 <= b of the other end, on both sides. So a row that meets closes
    a walk of length a + 1 + b, which is D, the number of levels grown
    beyond the two ends, the one in progress included. Conversely, if
    D = a + 1 + b, the vertex at depth a + 1 on a shortest path lies in
    the other side's last level, so some row meets; and if D is larger, it
    is new, so a side that grows empty has exhausted its component.

    Raises CapExceededError after the first row that takes the vertices
    found on both sides past cap, before the next call of neighbors.
    """
    if s == t:
        return 0
    if cap < 2:
        raise CapExceededError("search vertices", cap)
    near, far = {s}, {t}  # the vertices found on each side
    front, back = {s}, {t}  # each side's last level
    d = 0  # the levels grown beyond the two ends
    while True:
        if len(front) > len(back):
            near, far, front, back = far, near, back, front
        d += 1
        grown: set[Hashable] = set()
        for u in front:
            row = neighbors(u)
            if not back.isdisjoint(row):
                return d
            grown.update(row)
            # the row met no vertex of the far side, so only near overlaps grown
            if len(grown) + len(near) + len(far) > cap:
                grown -= near
                if len(grown) + len(near) + len(far) > cap:
                    raise CapExceededError("search vertices", cap)
        grown -= near
        if not grown:
            return None
        near |= grown
        # swap sides, so that a tie goes to the side not just grown
        near, far, front, back = far, near, back, grown


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


def _class_keys(e: tuple[int, ...], n: int, max_vertices: int, max_readings: int,
                mirrored: bool) -> tuple[list[Word], Sequence[int]]:
    """The keys of the class of e at rank n, in vertex order, and m: with
    mirrored set on distinct letters, the `mirror_index` of the keys, else
    range(len(keys)), each vertex its own orbit. `component` and
    `class_parts` check their input and both caps here, in this order,
    before the first row.

    `tree_count` counts the class against max_vertices before
    `keys_with_evaluation` lists its keys, already in vertex order. A tree
    of L = sum(e) nodes has at most L! readings (a class is the set of
    linear extensions of its tree); past that bound each orbit's first key
    has its readings counted against max_readings, in key order, as a
    mirror image has the same hook product. Raises InternalError when the
    keys listed differ in number from the trees `tree_count` counted.
    """
    if len(e) != n:
        raise RankError(f"evaluation has length {len(e)}, rank is {n}")
    if any(c < 0 for c in e):
        raise RankError(f"negative multiplicity in {e}")
    count = tree_count(e, max_vertices)
    keys = keys_with_evaluation(e)
    # two independent enumerations of one class: counted and listed
    if len(keys) != count:
        raise InternalError(f"listed {len(keys)} trees with evaluation {e}, counted {count}")
    m: Sequence[int] = range(len(keys))
    if mirrored and max(e, default=0) <= 1:
        m = mirror_index(keys, {key: i for i, key in enumerate(keys)})
    # whether L! > max_readings, stopping at the first k! past it
    if any(factorial(k) > max_readings for k in range(sum(e) + 1)):
        for i, key in enumerate(keys):
            if i <= m[i]:
                check_reading_cap(key_sizes(key)[1], max_readings)
    return keys, m


def class_parts(e: tuple[int, ...], n: int, max_vertices: int = MAX_VERTICES,
                max_readings: int = MAX_READINGS) -> list[list[int]]:
    """The parts of the class of e at rank n, as `component(e, n,
    max_vertices, max_readings).parts` lists them, without building it:
    `search_parts` over its keys, with `neighbor_set(key, inf)` as the rows.
    No adjacency list, mirror or symmetry pass is made, and the rows past
    the one that places the last key are never enumerated. Refuses on the
    caps as `component` does, before the first row."""
    keys, _ = _class_keys(e, n, max_vertices, max_readings, mirrored=False)
    return search_parts(keys, lambda key: neighbor_set(key, inf))


def component(e: tuple[int, ...], n: int, max_vertices: int = MAX_VERTICES,
              max_readings: int = MAX_READINGS) -> ComponentGraph:
    """Build the evaluation-class graph for e over the rank-n alphabet.

    Both caps refuse before the first row is built (`_class_keys`), and the
    rows then run uncapped. Raises InternalError when a row names a key
    outside the class, or when the rows are not symmetric.
    """
    # On distinct letters the mirror m is an automorphism, so the vertex
    # i <= m[i] of each orbit enumerates its neighbors and the other maps
    # its partner's finished row. On repeated letters every vertex enumerates.
    keys, m = _class_keys(e, n, max_vertices, max_readings, mirrored=True)
    g = ComponentGraph(n, e, [SylvElement._make((n, key)) for key in keys], [])
    index, adj = g.index, g.adj
    for i, key in enumerate(keys):
        if i <= m[i]:
            row = neighbor_set(key, inf)
            try:
                adj.append(sorted(index[k] for k in row if k != key))
            except KeyError as exc:
                raise InternalError(_outside(key, exc.args[0])) from None
        else:
            adj.append(sorted(map(m.__getitem__, adj[m[i]])))
    # found[i] counts the rows before i that list i while each is the next
    # lower entry of row i; len(keys) once one is not
    found = [0] * len(keys)
    for i, row in enumerate(adj):
        cut = bisect_left(row, i)
        if found[i] != cut:
            raise InternalError(f"shift relation not symmetric at {word_str(keys[i])}")
        for j in row[cut:]:
            f = found[j]
            found[j] = f + 1 if f < len(adj[j]) and adj[j][f] == i else len(keys)
    return g


def edge_witnesses(g: ComponentGraph) -> Iterator[tuple[int, int, ShiftWitness]]:
    """Every edge (i, j), i < j, in increasing order, with the witness that
    `neighbor_keys(key, inf)` gives from vertex i to vertex j."""
    for i, s in enumerate(g.vertices):
        row = g.adj[i]
        if row and row[-1] > i:  # a row that ends below i gives no edge (i, j)
            wits = neighbor_keys(s.key, inf)
            for j in row:
                if j > i:
                    yield i, j, wits[g.vertices[j].key]


def distance(g: ComponentGraph, s: SylvElement, t: SylvElement) -> int:
    """The distance from s to t in g, by `meet` over g's rows;
    DisconnectedError when no path joins them."""
    if t.rank != g.rank or t.key not in g.index:
        raise ValueError("target vertex not in component")
    if s.rank != g.rank or s.key not in g.index:
        raise ValueError("source vertex not in component")
    d = meet(g.adj.__getitem__, g.index[s.key], g.index[t.key], len(g.vertices))
    if d is None:
        raise DisconnectedError(g.parts)
    return d


def diameter(g: ComponentGraph) -> tuple[int, tuple[SylvElement, SylvElement]]:
    """Exact diameter D, with the lexicographically least pair of vertex
    indices i < j at distance D (a one-vertex graph gives (0, (v, v))).

    Bit-parallel BFS (Akiba, Iwata and Yoshida, SIGMOD 2013): reach[u] is
    the set of vertices within r steps of u, an int bitset, and round r + 1
    ORs into it the round-r sets of u's neighbors. u's eccentricity is the
    round in which its set fills, and full sets are not touched again, so
    D is the number of rounds and the sets still open in the last one
    belong to the vertices of eccentricity D. A round in which no set grows
    while one is not full means more than one part (DisconnectedError) or
    an inconsistent adjacency (InternalError), so no search checks the
    parts beforehand. Every pair at distance D starts at a vertex of
    eccentricity D, and a vertex at distance D from the first such vertex
    i has eccentricity D too, so it comes after i. In the last round every
    open set grows, i's first; the bits it gains are the vertices at
    distance D from i, and j is the lowest of them.
    """
    if len(g.vertices) == 0:
        raise ValueError("empty graph has no diameter")
    n = len(g.vertices)
    full = (1 << n) - 1
    reach = [1 << u for u in range(n)]
    d, i, j = 0, 0, 0
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
            if not g.connected:
                raise DisconnectedError(g.parts)
            raise InternalError(f"bitset BFS stalled in round {d} "
                                f"with {len(todo)} sets not full")
        i, acc = grown[0]
        new = acc & ~reach[i]  # the vertices at distance d from i
        j = (new & -new).bit_length() - 1
        for u, acc in grown:
            reach[u] = acc
        todo = [u for u in todo if reach[u] != full]
    return d, (g.vertices[i], g.vertices[j])


def graph_dot(g: ComponentGraph, tree_labels: bool = False) -> str:
    """Graphviz DOT; vertex labels are canonical readings unless tree_labels."""
    fmt = (lambda v: tree_str(v.key)) if tree_labels else (lambda v: word_str(v.key))
    lines = ["graph shifts {", "  node [shape=box];"]
    for i, v in enumerate(g.vertices):
        lines.append(f'  v{i} [label="{fmt(v)}"];')
    for i, j, wit in edge_witnesses(g):
        lines.append(f'  v{i} -- v{j} [label="{word_str(wit.x)}|{word_str(wit.y)}"];')
    lines.append("}")
    return "\n".join(lines)

