"""Exhaustive desk-scale verification suites.

Each suite checks one family of claims by brute force and returns a report
with replayable counterexamples on failure. The CLI exposes them under
`sylvshift verify`; the path suite splits its work across processes when
asked (--jobs), and reports are canonicalized so runs are reproducible.
"""

from __future__ import annotations

import itertools
import os
import sys
from contextlib import nullcontext

from .cocharge import cochseq_gap, cochseq_word
from .graph import (MAX_VERTICES, class_parts, component, diameter, keys_with_evaluation,
                    levels, neighbor_set)
from .monoid import DEFAULT_REWRITE_BUDGET, SylvElement, element_of, multiply, rewrite_class
from .pathsynth import CASE_TAGS, paths_to, shift_path
from .trees import MAX_READINGS, psylv_key, readings, tree_str
from .words import Word, word_str


class SuiteReport:
    def __init__(self, name: str):
        self.name = name
        self.passed = True
        self.lines: list[str] = []
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.passed = False
        self.failures.append(message)

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = [f"{status} {self.name}: " + ("; ".join(self.lines) or "ok")]
        out.extend(f"  counterexample: {f}" for f in self.failures[:10])
        if len(self.failures) > 10:
            out.append(f"  ... and {len(self.failures) - 10} more")
        return "\n".join(out)


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _all_words(rank: int, length: int):
    return itertools.product(range(1, rank + 1), repeat=length)


def suite_oracle(rank: int = 4, maxlen: int = 6,
                 budget: int = DEFAULT_REWRITE_BUDGET) -> SuiteReport:
    """Rewriting closure classes coincide with insertion fibers, all words checked."""
    rep = SuiteReport(f"oracle(rank={rank}, maxlen={maxlen})")
    classes = 0
    words_total = 0
    for length in range(1, maxlen + 1):
        fibers: dict = {}
        for w in _all_words(rank, length):
            fibers.setdefault(psylv_key(w), set()).add(w)
            words_total += 1
        for fiber in fibers.values():
            closure = rewrite_class(min(fiber), rank, budget)
            if closure != fiber:
                extra = closure - fiber
                missing = fiber - closure
                rep.fail(
                    f"word {word_str(min(fiber))}: closure has {len(extra)} strays "
                    f"(e.g. {sorted(extra)[:1]}), misses {len(missing)} "
                    f"(e.g. {sorted(missing)[:1]})")
            classes += 1
        _progress(f"oracle: length {length}/{maxlen} done ({classes} classes)")
    rep.lines.append(f"{words_total} words in {classes} classes agree")
    return rep


def suite_cocharge_congruence(nmax: int = 7) -> SuiteReport:
    """All standard words with one insertion tree share one cocharge sequence."""
    rep = SuiteReport(f"cocharge-congruence(n<={nmax})")
    checked = 0
    for n in range(1, nmax + 1):
        keys = keys_with_evaluation((1,) * n)
        for key in keys:
            fiber = readings(key)
            seqs = {cochseq_word(w) for w in fiber}
            if len(seqs) != 1:
                rep.fail(f"tree {tree_str(key)} has readings with sequences {sorted(seqs)}")
            checked += len(fiber)
        _progress(f"cocharge-congruence: n={n} done ({len(keys)} trees)")
    rep.lines.append(f"{checked} standard words grouped and checked")
    return rep


def suite_cocharge_shift(maxlen: int = 6) -> SuiteReport:
    """One cyclic shift moves every cocharge component by at most 1; appending
    a single non-1 symbol at the front instead of the back raises exactly its
    own component by 1.

    Every word compared with a permutation w is a rotation of w (the front
    one, (w[-1],) + w[:-1], is the rotation by n - 1), so the suite walks
    the rotation orbits, one per permutation that starts with 1, and
    computes each member's sequence once. Counterexamples are kept with
    their permutation and reported in the permutations' lexicographic
    order."""
    rep = SuiteReport(f"cocharge-shift(len<={maxlen})")
    pairs = 0
    for n in range(1, maxlen + 1):
        failures: list[tuple[Word, list[str]]] = []
        for rest in itertools.permutations(range(2, n + 1)):
            orbit = [(1,) + rest]
            orbit += [orbit[0][r:] + orbit[0][:r] for r in range(1, n)]
            seqs = [cochseq_word(w) for w in orbit]
            for r, (w, base) in enumerate(zip(orbit, seqs)):
                found = [f"split {word_str(w)} at {k}: {base} vs {shifted}"
                         for k, shifted in enumerate(seqs[r:] + seqs[:r + 1])
                         if any(abs(a - b) > 1 for a, b in zip(base, shifted))]
                a = w[-1]
                if a != 1:  # so n >= 2
                    front = seqs[r - 1]  # the rotation by n - 1
                    want = tuple(c + (1 if i == a - 1 else 0) for i, c in enumerate(base))
                    if front != want:
                        found.append(
                            f"{word_str(w)}: front-rotated sequence {front}, expected {want}")
                if found:
                    failures.append((w, found))
            pairs += n * (n + 1)
        for _, found in sorted(failures):
            for f in found:
                rep.fail(f)
    rep.lines.append(f"{pairs} shifted pairs within componentwise distance 1")
    return rep


def suite_connectivity(rank: int = 4, maxlen: int = 6, max_vertices: int = MAX_VERTICES,
                       max_readings: int = MAX_READINGS) -> SuiteReport:
    """Every evaluation class up to the given rank and length is connected.

    Insertion only compares letters, so an order-preserving map of the
    letters carries keys, key order and rows from one class to another: the
    class of (0, 1, 0, 1) at rank 4 is that of its zero-free form (1, 1) at
    rank 2. Each zero-free form is searched once, at rank len(base), by
    `class_parts`, which stops once every key is placed, and every
    evaluation is checked, reported and counted through its part count."""
    rep = SuiteReport(f"connectivity(rank<={rank}, len<={maxlen})")
    built = 0
    parts: dict[tuple[int, ...], int] = {}  # zero-free form -> its class's part count
    for n in range(1, rank + 1):
        for length in range(0, maxlen + 1):
            for e in _evaluations(n, length):
                base = tuple(c for c in e if c)
                if base not in parts:
                    parts[base] = len(class_parts(base, len(base), max_vertices, max_readings))
                if parts[base] > 1:
                    rep.fail(f"evaluation {e} at rank {n}: {parts[base]} parts")
                built += 1
        _progress(f"connectivity: rank {n} done ({built} components so far)")
    rep.lines.append(f"{built} evaluation classes, all connected")
    return rep


def _evaluations(n: int, total: int):
    """All length-n vectors of non-negative ints summing to total, in
    lexicographic order: stars and bars, with the n - 1 bars at increasing
    positions among total + n - 1 slots and each entry the stars between two."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for bars in itertools.combinations(range(total + n - 1), n - 1):
        edges = (-1,) + bars + (total + n - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def suite_diameter_bounds(nmax: int = 5) -> SuiteReport:
    """Exact standard-component diameters, reported and required to be n-1."""
    rep = SuiteReport(f"diameter-bounds(n<={nmax})")
    for n in range(2, nmax + 1):
        g = component((1,) * n, n)
        d, (a, b) = diameter(g)
        rep.lines.append(f"n={n}: diameter {d} ({word_str(a.key)} .. {word_str(b.key)})")
        if d != n - 1:
            rep.fail(f"n={n}: diameter {d}, not {n - 1}")
        _progress(f"diameter-bounds: n={n} -> {d}")
    return rep


def suite_distance_lower_bound(nmax: int = 5) -> SuiteReport:
    """BFS distances dominate the cocharge bound; the two chain trees sit >= n-1 apart."""
    rep = SuiteReport(f"distance-lower-bound(n<={nmax})")
    pairs = 0
    for n in range(2, nmax + 1):
        g = component((1,) * n, n)
        up = g.index[psylv_key(range(1, n + 1))]
        down = g.index[psylv_key(range(n, 0, -1))]
        seqs = [cochseq_word(v.key) for v in g.vertices]
        # each source's distances are checked level by level, never all held at once
        for i, s in enumerate(g.vertices):
            reached = 0
            for d, level in enumerate(levels(g.adj, i)):
                if i == up and down in level and d < n - 1:
                    rep.fail(f"n={n}: chain distance {d} < {n - 1}")
                for j in level:
                    bound = cochseq_gap(seqs[i], seqs[j])
                    if d < bound:
                        rep.fail(f"n={n}: distance({word_str(s.key)}, "
                                 f"{word_str(g.vertices[j].key)}) = {d} < bound {bound}")
                reached += len(level)
            if reached < len(g.vertices):
                rep.fail(f"n={n}: {word_str(s.key)} reaches {reached} of {len(g.vertices)} trees")
            pairs += reached
        _progress(f"distance-lower-bound: n={n} done")
    rep.lines.append(f"{pairs} standard pairs dominate their cocharge bound")
    return rep


def _path_worker(args: tuple[int, list[Word], list[Word]]) -> tuple[int, set, list[str]]:
    """Certify a chain from every source key to each target key, walking
    each target's sources together (`paths_to`); for --jobs."""
    n, targets, sources = args
    starts = [SylvElement._make((n, key)) for key in sources]
    tags: set[str] = set()
    failures: list[str] = []
    count = 0
    for key in targets:
        path = paths_to(SylvElement._make((n, key)))
        for start in starts:
            try:
                cert = path(start)
            except Exception as exc:  # noqa: BLE001  (reported, not swallowed)
                failures.append(f"path {word_str(start.key)} -> {tree_str(key)}: {exc}")
                continue
            tags.update(s.case_tag for s in cert.steps)
            count += 1
    return count, tags, failures


def suite_path(nmax: int = 5, jobs: int = 1) -> SuiteReport:
    """Certified n-step chains exist between all standard pairs; full coverage of cases.

    The work is split by targets, so the walk to a target sees all its
    sources and shares their steps."""
    rep = SuiteReport(f"path(n<={nmax})")
    seen_tags: set[str] = set()
    total = 0
    work = []
    for n in range(1, nmax + 1):
        keys = keys_with_evaluation((1,) * n)
        size = -(-len(keys) // max(jobs, 1))
        work += [(n, keys[i:i + size], keys) for i in range(0, len(keys), size)]
    # one pool serves every n, with no more workers than items or CPUs (fork
    # starts them all at once), and none is started for a single item
    workers = min(jobs, len(work), os.cpu_count() or 1)
    pooled = workers > 1
    if pooled:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if pooled else nullcontext() as pool:
        results = pool.map(_path_worker, work) if pooled else map(_path_worker, work)
        for (n, targets, _), (count, tags, failures) in zip(work, results):
            total += count
            seen_tags |= tags
            for f in failures:
                rep.fail(f)
            _progress(f"path: n={n}, {len(targets)} targets done ({total} pairs so far)")
    missing = [t for t in CASE_TAGS if t not in seen_tags]
    if nmax >= 4 and missing:
        rep.fail(f"cases never exercised: {missing}")
    rep.lines.append(f"{total} ordered pairs, cases seen: {sorted(seen_tags)}")
    return rep


EXAMPLE_CHAIN = ("13254", "54132", "12543", "41235", "12354", "23541")


def suite_example_path() -> SuiteReport:
    """The worked 5-node chain: tree-by-tree golden match; shift_path's verify() validates
    the edges."""
    rep = SuiteReport("example-path")
    words = [tuple(int(c) for c in w) for w in EXAMPLE_CHAIN]
    cert = shift_path(element_of(words[0], 5), element_of(words[-1], 5))
    for i, step in enumerate(cert.steps):
        want = element_of(words[i + 1], 5)
        if step.post != want:
            rep.fail(f"step {i}: got {tree_str(step.post.key)}, want {tree_str(want.key)}")
    rep.lines.append("5-step chain matches the worked example and all edges validate")
    return rep


def suite_induced(nmax: int = 4) -> SuiteReport:
    """Lifting a standard key's letters to the top of a larger alphabet lifts its neighbor keys."""
    rep = SuiteReport(f"induced-subgraph(n<={nmax})")
    checked = 0
    for m in range(1, nmax):
        for n in range(m + 1, nmax + 1):
            for key in keys_with_evaluation((1,) * m):
                low = {tuple(a + n - m for a in k) for k in neighbor_set(key)}
                high = neighbor_set(tuple(a + n - m for a in key))
                if low != high:
                    rep.fail(f"tree {tree_str(key)}: ranks {m} and {n} disagree")
                checked += 1
    rep.lines.append(f"{checked} elements agree across ranks")
    return rep


def suite_monoid(rank: int = 3, maxlen: int = 4, assoc_total: int = 6) -> SuiteReport:
    """Product well-defined on classes, and associative over small elements."""
    rep = SuiteReport(f"monoid(rank={rank}, len<={maxlen})")
    fibers: dict = {}
    for length in range(0, maxlen + 1):
        for w in _all_words(rank, length):
            fibers.setdefault(psylv_key(w), []).append(w)
    classes = list(fibers.values())
    checked = 0
    for cu in classes:
        for cv in classes:
            products = {psylv_key(u + v) for u in cu for v in cv}
            if len(products) != 1:
                rep.fail(f"classes of {word_str(cu[0])} and {word_str(cv[0])}: "
                         f"{len(products)} product trees")
            checked += 1
    rep.lines.append(f"{checked} class pairs multiply consistently")

    elems: list[SylvElement] = []
    for total in range(0, assoc_total + 1):
        for e in _evaluations(rank, total):
            elems.extend(SylvElement._make((rank, key)) for key in keys_with_evaluation(e))
    # elems runs through the totals in increasing order, so lengths never
    # decrease along it: once b or c is too long, every later one is too.
    # Every product a triple needs is of two elements of total length at
    # most assoc_total, so it is again one of elems: row i of the table
    # holds the index of each such product elems[i] * elems[j], j in order.
    index = {e: i for i, e in enumerate(elems)}
    lengths = [len(e) for e in elems]
    table: list[list[int]] = []
    for a, length in zip(elems, lengths):
        row: list[int] = []
        for b, other in zip(elems, lengths):
            if length + other > assoc_total:
                break
            ab = multiply(a, b)
            if ab not in index:
                rep.fail(f"product of {tree_str(a.key)} and {tree_str(b.key)} is {ab!r}, "
                         f"outside the {len(elems)} elements of length <= {assoc_total}")
                return rep
            row.append(index[ab])
        table.append(row)
    triples = 0
    for i, row in enumerate(table):
        for j, ij in enumerate(row):
            for k, length in enumerate(lengths):
                if lengths[i] + lengths[j] + length > assoc_total:
                    break
                if table[ij][k] != table[i][table[j][k]]:
                    rep.fail("associativity broke on "
                             + ", ".join(tree_str(elems[x].key) for x in (i, j, k)))
                triples += 1
    rep.lines.append(f"{triples} triples of total length <= {assoc_total} associate")
    return rep


# The least value of each size parameter at which a suite checks anything;
# below it the suite would report PASS over nothing.
LEAST_SIZES = {
    "oracle": {"rank": 1, "maxlen": 1},
    "cocharge-congruence": {"nmax": 1},
    "cocharge-shift": {"maxlen": 1},
    "connectivity": {"rank": 1},
    "diameter-bounds": {"nmax": 2},
    "distance-lower-bound": {"nmax": 2},
    "path": {"nmax": 1},
    "induced-subgraph": {"nmax": 2},
}

SUITES = {
    "oracle": suite_oracle,
    "cocharge-congruence": suite_cocharge_congruence,
    "cocharge-shift": suite_cocharge_shift,
    "connectivity": suite_connectivity,
    "diameter-bounds": suite_diameter_bounds,
    "distance-lower-bound": suite_distance_lower_bound,
    "path": suite_path,
    "example-path": suite_example_path,
    "induced-subgraph": suite_induced,
    "monoid": suite_monoid,
}
