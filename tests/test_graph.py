import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from bisect import bisect_right
from functools import cache
from math import comb, inf
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (adjacency_by_vertex, bfs_by_index, bfs_distances, canonical_reading,
                      diameter_by_bfs, hook_length_extensions, is_bst, mirror_tree,
                      multiset_words, neighbors_by_readings, psylv, validates_checking_ranks)
from sylvshift import graph, trees
from sylvshift import verify as suites
from sylvshift.errors import CapExceededError, DisconnectedError, InternalError, RankError
from sylvshift.graph import (
    ComponentGraph,
    ShiftWitness,
    class_parts,
    component,
    diameter,
    distance,
    edge_witnesses,
    keys_with_evaluation,
    levels,
    meet,
    mirror_index,
    neighbor_keys,
    neighbor_set,
    search_parts,
    tree_count,
)
from sylvshift.monoid import SylvElement, element_of
from sylvshift.trees import MAX_READINGS, check_reading_cap, key_sizes, psylv_key, readings
from sylvshift.words import Word, evaluation, word_str

# Evaluation classes with repeated symbols whose every tree is checked
# against the readings oracle, next to every standard tree with n <= 7.
ORACLE_CLASSES = [(2, 1, 2, 1, 2), (3, 3), (2, 2, 2), (1, 3, 1, 2), (4, 1, 1), (2, 2, 2, 2)]


def test_neighbors_witnesses_validate():
    s = element_of((1, 3, 2, 5, 4), 5)
    nbrs = neighbor_keys(s.key)
    t = element_of((5, 4, 1, 3, 2), 5)
    assert nbrs[t.key].validates(s, t)
    assert not nbrs[t.key].validates(t, s)
    assert not ShiftWitness((1, 3), (2, 5, 4)).validates(s, element_of((2, 1), 5))
    # an edge joins two elements of one monoid: the keys match, the ranks do not
    assert ShiftWitness((2,), (1,)).validates(element_of((2, 1), 2), element_of((1, 2), 2))
    assert not ShiftWitness((2,), (1,)).validates(element_of((2, 1), 2), element_of((1, 2), 3))


def test_validates_matches_check_first_oracle():
    # Every neighbor witness of each standard element on n <= 5 letters,
    # with its letters as given, swapped between x and y, lowered to reach
    # 0 and raised to reach n + 1, against sources and targets at ranks n
    # and n + 1 holding the element's letters or the raised ones.
    for n in range(1, 6):
        def raised(w):
            return tuple(a + (a == n) for a in w)

        for key in keys_with_evaluation((1,) * n):
            for key2, wit in graph.neighbor_keys(key).items():
                wits = [wit, ShiftWitness(wit.y, wit.x),
                        ShiftWitness(*(tuple(a - (a == 1) for a in w) for w in wit)),
                        ShiftWitness(raised(wit.x), raised(wit.y))]
                sources = [SylvElement(n, key), SylvElement(n + 1, key),
                           SylvElement(n + 1, raised(key))]
                targets = [SylvElement(n, key2), SylvElement(n + 1, key2),
                           SylvElement(n + 1, raised(key2))]
                for w in wits:
                    for a, b in itertools.product(sources, targets):
                        assert w.validates(a, b) is validates_checking_ranks(w, a, b), (w, a, b)


def check_against_oracle(s):
    got = neighbor_keys(s.key)
    assert set(got) == {t.key for t in neighbors_by_readings(s)}
    for key, wit in got.items():
        assert wit.validates(s, SylvElement(s.rank, key))


def test_neighbors_match_readings_oracle():
    cases = [(n, key) for n in range(8) for key in keys_with_evaluation((1,) * n)]
    cases += [(len(e), key) for e in ORACLE_CLASSES for key in keys_with_evaluation(e)]
    for n, key in cases:
        s = SylvElement(n, key)
        # each candidate tried is yx for a distinct reading xy of s and split
        tried = sum(1 for _ in graph._shifts(key, MAX_READINGS))
        assert 0 < tried <= check_reading_cap(key_sizes(key)[1], inf) * (len(key) + 1)
        check_against_oracle(s)
        assert set(neighbor_set(key)) == set(neighbor_keys(key))


def test_spliced_keys_match_insertion():
    # every (U, class) candidate's spliced key is the key that inserting yx
    # gives, over every evaluation of rank <= 4 and total <= 7, the oracle
    # and gapped classes, and the standard classes with n <= 8
    evaluations = [e for k in range(5) for e in itertools.product(range(8), repeat=k)
                   if sum(e) <= 7]
    evaluations += ORACLE_CLASSES + [e for e, _ in GAPPED_CLASSES] + [(1,) * n for n in range(9)]
    tried = 0
    for e in evaluations:
        for key in keys_with_evaluation(e):
            for spliced, x, y in graph._shifts(key, MAX_READINGS):
                assert spliced == psylv_key(y + x), (key, x, y)
                tried += 1
    assert tried > 150_000


def test_component_inserts_only_for_the_mirror(monkeypatch):
    # the rows splice their keys; `mirror_index` inserts each key's mirror
    # image once on distinct letters, and repeated letters insert nothing
    calls = []
    monkeypatch.setattr(graph, "psylv_key", lambda w: calls.append(w) or psylv_key(w))
    classes = [((1,) * n, n) for n in range(8)] + GAPPED_CLASSES
    for e, n in classes + [(e, len(e)) for e in ORACLE_CLASSES]:
        calls.clear()
        g = component(e, n)
        assert len(calls) == (len(g.vertices) if max(e, default=0) <= 1 else 0), e


def test_long_runs_of_one_letter_stay_lean():
    # A run folds as a chain: each of its prefixes keeps one reading and one
    # slot on each side, as equal labels leave no gap between them. Inserting
    # every candidate instead, this command took 4.3 s at 71 MB peak RSS
    # (2 vCPUs, Python 3.11). A small process starts the command and reads
    # its peak: a child keeps the peak RSS of the process it was forked from.
    code = ("import resource, subprocess, sys, time\n"
            "start = time.perf_counter()\n"
            "out = subprocess.run([sys.executable, '-m', 'sylvshift', 'component', '--eval',\n"
            "                      '2000,1'], capture_output=True, text=True, check=True).stdout\n"
            "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
            "print(out + str(time.perf_counter() - start), peak)")
    src = str(Path(graph.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    text, numbers = run.stdout.rstrip("\n").split("\n")
    seconds, peak_kb = numbers.split()
    assert text == "evaluation 2000,1 at rank 2: 2 vertices, 1 edges, connected"
    assert float(seconds) < 4.3 and int(peak_kb) < 71 * 1024, (seconds, peak_kb)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=9).map(tuple))
def test_neighbors_match_readings_oracle_sampled(w):
    check_against_oracle(element_of(w, 5))


def test_neighbors_symmetric_and_evaluation_preserving():
    cache = {}

    def nbrs(key):
        if key not in cache:
            cache[key] = neighbor_keys(key)
        return cache[key]

    for length in range(0, 6):
        for w in itertools.product((1, 2, 3, 4), repeat=length):
            s = element_of(w, 4)
            if s.key in cache:
                continue
            for key, wit in nbrs(s.key).items():
                assert evaluation(key, 4) == evaluation(s.key, 4)
                assert s.key in nbrs(key)
                assert ShiftWitness(wit.y, wit.x).validates(SylvElement(4, key), s)


def test_keys_with_evaluation_matches_bruteforce():
    # the key of every distinct insertion tree of the class appears exactly
    # once, for every evaluation of rank <= 4 and total <= 6
    for e in (e for k in range(5) for e in itertools.product(range(7), repeat=k) if sum(e) <= 6):
        symbols = [i + 1 for i, c in enumerate(e) for _ in range(c)]
        brute = {canonical_reading(psylv(w)) for w in multiset_words(symbols)}
        built = keys_with_evaluation(e)
        assert len(built) == len(set(built))
        assert set(built) == brute
        assert all(is_bst(psylv(key)) and canonical_reading(psylv(key)) == key for key in built)
        assert tree_count(e) == len(built)


def test_component_edges_match_word_bruteforce():
    # edges recomputed straight from the definition, over raw words
    for e, n in [((1, 1), 2), ((1, 1, 1), 3), ((2, 1), 2), ((2, 1, 1), 3), ((1, 1, 1, 1), 4)]:
        g = component(e, n)
        symbols = [i + 1 for i, c in enumerate(e) for _ in range(c)]
        brute = set()
        for w in multiset_words(symbols):
            s = psylv(w)
            for k in range(len(w) + 1):
                t = psylv(w[k:] + w[:k])
                if s != t:
                    a, b = sorted((g.index[canonical_reading(s)], g.index[canonical_reading(t)]))
                    brute.add((a, b))
        assert {(i, j) for i, a in enumerate(g.adj) for j in a if i < j} == brute
        assert {(i, j) for i, j, _ in edge_witnesses(g)} == brute
        assert g.edge_count() == len(brute)


def test_standard_component_n8_golden():
    g = component((1,) * 8, 8)
    assert (len(g.vertices), g.edge_count(), g.connected) == (1430, 29444, True)
    d, (a, b) = diameter(g)
    assert (d, word_str(a.key), word_str(b.key)) == (7, "12345678", "76543218")


# Gapped distinct-letter classes: the mirror reverses the support, not 1..n.
GAPPED_CLASSES = [((1, 0, 1, 1, 0, 1), 6), ((0, 1, 1, 1), 4)]


def test_component_matches_the_per_vertex_build():
    for e, n in [((1,) * n, n) for n in range(8)] + GAPPED_CLASSES:
        assert component(e, n).adj == adjacency_by_vertex(e), e


def count_calls(monkeypatch, name: str) -> list[Word]:
    """The words that each call of graph's function name gets, in order."""
    calls = []
    real = getattr(graph, name)
    monkeypatch.setattr(graph, name, lambda w, cap: calls.append(w) or real(w, cap))
    return calls


def test_neighbor_keys_runs_once_per_mirror_orbit(monkeypatch):
    # the build's rows are keys only: `neighbor_set`, with no witness
    calls = count_calls(monkeypatch, "neighbor_set")
    for n, orbits in [(5, 22), (7, 217), (8, 715)]:
        calls.clear()
        g = component((1,) * n, n)
        m = mirror_index([v.key for v in g.vertices], g.index)
        assert len(calls) == len(set(calls)) == orbits
        assert {g.index[key] for key in calls} == {min(i, j) for i, j in enumerate(m)}
    # on repeated letters every vertex enumerates its own neighbors
    for e in ORACLE_CLASSES:
        calls.clear()
        assert len(component(e, len(e)).vertices) == len(calls) == len(set(calls))


def test_mirror_is_an_involutive_automorphism():
    for e, n in [((1,) * n, n) for n in range(7)] + GAPPED_CLASSES:
        keys = sorted(keys_with_evaluation(e))
        index = {key: i for i, key in enumerate(keys)}
        m = mirror_index(keys, index)
        support = [a for a, c in enumerate(e, 1) if c]
        flip = dict(zip(support, reversed(support)))
        adj = adjacency_by_vertex(e)
        for i, key in enumerate(keys):
            assert m[m[i]] == i
            assert psylv(keys[m[i]]) == mirror_tree(psylv(key), flip)
            assert sorted(m[j] for j in adj[i]) == adj[m[i]]


def test_a_mirror_that_is_no_involution_is_refused(monkeypatch):
    # why component keeps the per-vertex build on repeated letters: on
    # (2, 2) the reversal maps the class onto itself, but is no involution
    keys = sorted(keys_with_evaluation((2, 2)))
    with pytest.raises(InternalError, match="not an involution"):
        mirror_index(keys, {key: i for i, key in enumerate(keys)})
    monkeypatch.setattr(graph, "psylv_key", lambda w: (1, 2, 3))
    with pytest.raises(InternalError, match="not an involution"):
        component((1, 1, 1), 3)


def test_component_refuses_an_asymmetric_shift_relation(monkeypatch):
    # An asymmetry between mirror partners i and m(i) cannot show up here:
    # the list of m(i) is derived from that of i. The per-vertex build
    # covers those pairs in test_mirror_is_an_involutive_automorphism.
    real = graph.neighbor_set
    for dropped, at in [
        # 123 loses its neighbor 231, whose list is derived from 213's
        (((1, 2, 3), (2, 3, 1)), "231"),
        # 21435 loses 13542, which comes first and whose list is derived
        (((2, 1, 4, 3, 5), (1, 3, 5, 4, 2)), "21435"),
    ]:
        def one_way(key, cap, dropped=dropped):
            return {k for k in real(key, cap) if (key, k) != dropped}

        monkeypatch.setattr(graph, "neighbor_set", one_way)
        n = len(at)
        with pytest.raises(InternalError, match=f"not symmetric at {at}$"):
            component((1,) * n, n)
    # a row also breaks it when it gains an arc its target does not return,
    # even when another row drops an arc into that target, so that as many
    # rows below 213 list it as 213 lists below itself
    for added, dropped, at in [
        (((1, 2, 3), (2, 1, 3)), None, "213"),
        (((1, 2, 3, 4), (1, 3, 2, 4)), None, "1324"),
        (((1, 2, 3), (2, 1, 3)), ((1, 3, 2), (2, 1, 3)), "213"),
    ]:
        def one_more(key, cap, added=added, dropped=dropped):
            out = real(key, cap)
            if key == added[0]:
                assert added[1] not in out
                out.add(added[1])
            if dropped and key == dropped[0]:
                out.remove(dropped[1])
            return out

        monkeypatch.setattr(graph, "neighbor_set", one_more)
        n = len(at)
        with pytest.raises(InternalError, match=f"not symmetric at {at}$"):
            component((1,) * n, n)


def test_component_refuses_a_listing_that_disagrees_with_its_count(monkeypatch):
    real = graph.keys_with_evaluation
    monkeypatch.setattr(graph, "keys_with_evaluation", lambda e: real(e)[1:])
    with pytest.raises(InternalError, match=r"listed 4 trees with evaluation \(1, 1, 1\), "
                                            "counted 5$"):
        component((1, 1, 1), 3)


def test_component_validates_input():
    with pytest.raises(RankError):
        component((1, 1), 3)
    with pytest.raises(RankError):
        component((-1, 1), 2)
    with pytest.raises(CapExceededError):
        component((1, 1, 1), 3, max_vertices=2)


def test_reading_cap_is_the_exact_reading_count():
    for w in [(1, 3, 2, 5, 4), (2, 1, 2, 1, 2, 3), (3, 1, 4, 1, 5, 9, 2, 6, 5)]:
        s = element_of(w, 9)
        k = hook_length_extensions(psylv(w))
        assert len(readings(s.key, cap=k)) == k
        assert neighbor_keys(s.key, cap=k)
        with pytest.raises(CapExceededError):
            neighbor_keys(s.key, cap=k - 1)
        with pytest.raises(CapExceededError):
            readings(s.key, cap=k - 1)


def test_neighbors_and_readings_insert_the_word_once(monkeypatch):
    # the reading cap reads the sizes of the one key_sizes pass
    calls = []

    def counted(w):
        calls.append(w)
        return key_sizes(w)

    monkeypatch.setattr(trees, "key_sizes", counted)
    monkeypatch.setattr(graph, "key_sizes", counted)
    for w in [(3, 1, 4, 1, 5, 9, 2, 6, 5), tuple(range(1, 13)), (2, 1) * 6]:
        for listing in (neighbor_keys, readings):
            calls.clear()
            listing(w)
            assert calls == [w]


def test_component_cap_fails_before_building_trees(monkeypatch):
    def build(e):
        raise AssertionError(f"keys with evaluation {e} listed before the vertex cap check")

    monkeypatch.setattr(graph, "keys_with_evaluation", build)
    with pytest.raises(CapExceededError):
        component((1,) * 12, 12, max_vertices=10)


def test_catalan_bounds_tree_count():
    # hanging each symbol's extra copies as a left chain below it turns every
    # BST shape on the k distinct symbols into its own tree, so Catalan(k)
    # bounds the count from below
    for e in itertools.product(range(3), repeat=4):
        k = sum(1 for c in e if c)
        assert comb(2 * k, k) // (k + 1) <= tree_count(e) == len(keys_with_evaluation(e))
    # and the listing has exactly tree_count distinct keys, rank <= 3, total <= 12
    for e in (e for k in range(4) for e in itertools.product(range(13), repeat=k) if sum(e) <= 12):
        built = keys_with_evaluation(e)
        assert tree_count(e) == len(built) == len(set(built)), e


def test_tree_count_cap_is_exact():
    # a prefix of the sorted word never has more pop sequences than the
    # whole word, so refusing at the first prefix past the cap is exact
    for e in (e for k in range(5) for e in itertools.product(range(9), repeat=k) if sum(e) <= 8):
        count = tree_count(e)
        assert tree_count(e, count) == count
        with pytest.raises(CapExceededError, match=f"^component vertices exceeded cap of {count - 1}$"):
            tree_count(e, count - 1)


def test_component_vertex_cap_refuses_at_a_short_prefix():
    # Catalan numbers pass 20000 at eleven letters, so the count stops there
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="^component vertices exceeded cap of 20000$"):
        component((1,) * 20000, 20000, 20000)
    assert time.perf_counter() - start < 1.0


def test_component_reading_cap_refuses_before_the_first_row(monkeypatch):
    # all but the first two of the 1001 trees of two runs of 1000 have more
    # readings than the default cap; the keys are counted before any row
    def row(w, cap):
        raise AssertionError("a row was enumerated before the reading cap check")

    monkeypatch.setattr(graph, "neighbor_set", row)
    with pytest.raises(CapExceededError, match="^readings exceeded cap of 100000$"):
        component((1000, 1000), 2)


def test_component_counts_no_readings_within_the_factorial_bound(monkeypatch):
    # 6! = 720 readings at most, within the default cap, so the standard
    # n=7 build inserts only the keys of its rows: one per mirror orbit,
    # (429 + 5 symmetric trees) / 2
    calls = []

    def counted(w):
        calls.append(w)
        return key_sizes(w)

    monkeypatch.setattr(trees, "key_sizes", counted)
    monkeypatch.setattr(graph, "key_sizes", counted)
    component((1,) * 7, 7)
    assert len(calls) == 217
    # a reading ends with the root, so 3! bounds the readings at n=4: past
    # it every key is counted, in key order, and then each mirror orbit's
    # first key is inserted once more for its row, 14 + 7 calls
    calls.clear()
    g = component((1,) * 4, 4, max_readings=5)
    m = mirror_index([v.key for v in g.vertices], g.index)
    firsts = [v.key for i, v in enumerate(g.vertices) if i <= m[i]]
    assert calls == [v.key for v in g.vertices] + firsts and len(firsts) == 7
    # within it only the rows run
    calls.clear()
    component((1,) * 4, 4, max_readings=6)
    assert calls == firsts


def test_component_compares_the_factorial_bound_without_computing_it(monkeypatch):
    # 9! passes the default cap, so no larger factorial is asked for; the
    # second of the two trees has 100001 readings
    asked = []
    real = graph.factorial
    monkeypatch.setattr(graph, "factorial", lambda k: asked.append(k) or real(k))
    with pytest.raises(CapExceededError, match="^readings exceeded cap of 100000$"):
        component((100001, 1), 2)
    assert max(asked) == 9


def test_tree_count_of_long_standard_evaluations():
    for k in range(301):
        assert tree_count((1,) * k) == comb(2 * k, k) // (k + 1)


def test_long_evaluations_need_no_recursion(default_recursion_limit):
    with pytest.raises(CapExceededError):
        component((1,) * 1200, 1200, max_vertices=10)
    assert tree_count((1200,)) == 1
    assert tree_count((600, 600)) == 601  # T(a, b) = b + 1
    assert keys_with_evaluation((20000,)) == [(1,) * 20000]


def test_tree_count_refuses_before_it_allocates():
    # the counts are read run by run, and a run whose repeats leave them
    # unchanged is skipped, so no list the length of the word is built
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="^component vertices exceeded cap of 1$"):
            tree_count((10**7, 10**7), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.1 and peak < 1_000_000


def test_listing_a_class_holds_only_its_output():
    # two long runs: the walk shares its frames' spines and pops, so it
    # holds the 301 keys of 600 letters it returns and little else
    tracemalloc.start()
    try:
        keys = keys_with_evaluation((300, 300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == len(set(keys)) == 301
    assert all(psylv_key(key) == key for key in keys)
    assert peak < 20_000_000


def test_distance_examples():
    g = component((1, 1), 2)
    a, b = element_of((1, 2), 2), element_of((2, 1), 2)
    assert distance(g, a, b) == 1
    assert distance(g, a, a) == 0
    stray = element_of((1, 1), 2)
    with pytest.raises(ValueError, match="target"):
        distance(g, a, stray)
    with pytest.raises(ValueError, match="target"):
        distance(g, stray, stray)
    with pytest.raises(ValueError, match="source"):
        distance(g, stray, a)
    # the key (1, 2) is a vertex, but the rank-3 element is not
    other_rank = element_of((1, 2), 3)
    with pytest.raises(ValueError, match="source"):
        distance(g, other_rank, b)
    with pytest.raises(ValueError, match="target"):
        distance(g, a, other_rank)
    broken = ComponentGraph(2, (1, 1), [a, b], [[], []])
    with pytest.raises(DisconnectedError):
        distance(broken, a, b)
    assert distance(broken, b, b) == 0


def test_distance_matches_bfs_distances():
    # distance runs meet over g's rows, and so does this test directly;
    # one plain BFS per source gives every distance the other way
    for e in [(1,) * n for n in range(7)] + ORACLE_CLASSES:
        g = component(e, len(e))
        for s in g.vertices:
            want = bfs_distances(g, s)
            i = g.index[s.key]
            assert {t: meet(g.adj.__getitem__, i, g.index[t.key], len(g.vertices))
                    for t in g.vertices} == want
            assert {t: distance(g, s, t) for t in g.vertices} == want


def test_meet_on_keys_matches_the_built_graph():
    # the search that `sylvshift distance` runs: over keys, on neighbor
    # lists that include the key itself, without building the class
    for e in [(1,) * n for n in range(6)] + [(2, 1, 2, 1, 2)]:
        g = component(e, len(e))
        known = cache(neighbor_keys)  # each class's keys, enumerated once
        for a, b in itertools.product(g.vertices, repeat=2):
            assert meet(known, a.key, b.key, len(g.vertices)) == distance(g, a, b)
    g = component((1,) * 7, 7)
    rng = random.Random(7)
    for _ in range(60):
        a, b = rng.choice(g.vertices), rng.choice(g.vertices)
        assert meet(neighbor_keys, a.key, b.key, len(g.vertices)) == distance(g, a, b)


def test_meet_cap_and_disconnection():
    # on a path 0 - 1 - ... - 9 the two balls meet in the middle after
    # storing every vertex, so a cap of 10 suffices and 9 raises
    def path(u):
        return [v for v in (u - 1, u + 1) if 0 <= v <= 9]

    assert meet(path, 0, 9, 10) == 9
    assert meet(path, 3, 3, 1) == 0
    with pytest.raises(CapExceededError):
        meet(path, 0, 9, 9)
    with pytest.raises(CapExceededError):
        meet(path, 0, 1, 1)

    # two disjoint infinite binary trees: every vertex offered is new, and
    # the cap is checked after each row, so the row that takes the count
    # past it, two children at a time, is the last one ever requested
    offered = []

    def grow(u):
        row = (u + (0,), u + (1,))
        offered.extend(row)
        return row

    for cap in (2, 3, 10, 57):
        offered.clear()
        with pytest.raises(CapExceededError):
            meet(grow, (0,), (1,), cap)
        # found: the two ends and every vertex offered; over cap after the last row only
        assert cap - 1 <= len(offered) <= cap

    # two parts {0, 1} and {2, 3}: one side runs out, whichever it is
    def pairs(u):
        return [u ^ 1]

    assert meet(pairs, 0, 2, 10) is None
    assert meet(pairs, 3, 0, 10) is None
    assert meet(pairs, 0, 1, 10) == 1


def test_meet_stops_at_the_row_that_meets():
    # on a path 0 - 1 - ... - 9 from 7 to 2 the levels grow {6, 8}, then
    # {1, 3}, then {5, 9}, which 5's row [4, 6] closes against {0, 4}; 9's
    # row meets nothing and may come first, but no row comes after 5's
    called = []

    def path(u):
        called.append(u)
        return [v for v in (u - 1, u + 1) if 0 <= v <= 9]

    assert meet(path, 7, 2, 10) == 5
    assert called[-1] == 5
    assert sorted(called) in ([1, 2, 3, 5, 6, 7, 8], [1, 2, 3, 5, 6, 7, 8, 9])


def test_meet_on_keys_makes_no_call_past_the_answer():
    # the n=8 extremal pair, searched as `sylvshift distance` searches it:
    # finishing the level after the first touch took 492 neighbor calls
    calls = []

    def counted(key):
        calls.append(key)
        return neighbor_keys(key)

    assert meet(counted, (1, 2, 3, 4, 5, 6, 7, 8), (7, 6, 5, 4, 3, 2, 1, 8), 1430) == 7
    assert len(calls) < 200 and len(set(calls)) == len(calls)


@st.composite
def adjacency_lists(draw, max_vertices: int = 40) -> list[list[int]]:
    """Symmetric sorted adjacency lists without self-loops, on shuffled
    vertex numbers. Each vertex i > 0 is joined to at most one earlier
    vertex, mostly i - 1 or i - 2, so long paths arise; a few more edges
    close cycles. Edges stay inside blocks of consecutive numbers, so most
    draws have several parts, isolated vertices among them."""
    n = draw(st.integers(1, max_vertices))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4))) if n > 1 else []
    back = st.one_of(st.just(1), st.integers(1, 2), st.integers(0, n))  # 0 or > i: none
    pairs = [(i - d, i) for i, d in enumerate(draw(st.lists(back, min_size=n, max_size=n)))]
    ends = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(ends, ends), max_size=n))
    name = draw(st.permutations(range(n)))
    rows: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        if 0 <= i != j and bisect_right(cuts, i) == bisect_right(cuts, j):
            rows[name[i]].add(name[j])
            rows[name[j]].add(name[i])
    return [sorted(row) for row in rows]


@settings(max_examples=80, deadline=None)
@given(adjacency_lists())
def test_levels_distance_and_parts_match_plain_bfs(adj):
    n = len(adj)
    # one-letter elements stand in for the vertices: distance looks them up by key
    g = ComponentGraph(n, (1,) * n, [element_of((v + 1,), n) for v in range(n)], adj)
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from((i, j) for i, row in enumerate(adj) for j in row)
    assert g.parts == sorted(sorted(part) for part in nx.connected_components(G))
    # the same graph on named vertices, each row listing its own vertex too
    names = [f"v{v}" for v in range(n)]
    assert search_parts(names, lambda u: [u] + [names[j] for j in adj[int(u[1:])]]) == g.parts
    for s in range(n):
        want = bfs_by_index(adj, s)
        assert want == nx.single_source_shortest_path_length(G, s)
        # every vertex reached once, at its distance, and no empty level
        found = list(levels(adj, s))
        assert {v: d for d, level in enumerate(found) for v in level} == want
        assert sum(map(len, found)) == len(want) and len(found) == max(want.values()) + 1
        for t in range(n):
            if t in want:
                assert distance(g, g.vertices[s], g.vertices[t]) == want[t]
            else:
                with pytest.raises(DisconnectedError) as exc:
                    distance(g, g.vertices[s], g.vertices[t])
                assert exc.value.parts == g.parts


def test_distance_lower_bound_suite_checks_every_pair(monkeypatch):
    assert suites.suite_distance_lower_bound(nmax=4).lines == [
        "225 standard pairs dominate their cocharge bound"]
    real = suites.component

    def shortcut(e, n):
        # one extra edge joins the two chain trees
        g = real(e, n)
        ends = {g.index[psylv_key(range(1, n + 1))], g.index[psylv_key(range(n, 0, -1))]}
        adj = [sorted(set(row) | ends - {i}) if i in ends else row for i, row in enumerate(g.adj)]
        return ComponentGraph(g.rank, g.evaluation, g.vertices, adj)

    monkeypatch.setattr(suites, "component", shortcut)
    rep = suites.suite_distance_lower_bound(nmax=4)
    assert not rep.passed
    assert "n=3: chain distance 1 < 2" in rep.failures
    assert "n=4: distance(1234, 4321) = 1 < bound 3" in rep.failures

    def cut(e, n):
        g = real(e, n)
        return ComponentGraph(g.rank, g.evaluation, g.vertices, [[] for _ in g.adj])

    monkeypatch.setattr(suites, "component", cut)
    rep = suites.suite_distance_lower_bound(nmax=3)
    assert "n=3: 213 reaches 1 of 5 trees" in rep.failures
    assert rep.lines == ["7 standard pairs dominate their cocharge bound"]


def test_diameter_matches_per_vertex_bfs():
    classes = [(1,) * n for n in range(8)] + ORACLE_CLASSES + [(3,)]
    for e in classes:
        g = component(e, len(e))
        assert diameter(g) == diameter_by_bfs(g)
    one = component((3,), 1)
    assert diameter(one) == (0, (one.vertices[0], one.vertices[0]))


def test_diameter_bounds_requires_n_minus_one(monkeypatch):
    real = suites.diameter
    assert suites.suite_diameter_bounds(nmax=4).passed
    monkeypatch.setattr(suites, "diameter", lambda g: (len(g.evaluation), real(g)[1]))
    rep = suites.suite_diameter_bounds(nmax=4)
    assert rep.render().startswith("FAIL diameter-bounds(n<=4)")
    assert rep.failures == [f"n={n}: diameter {n}, not {n - 1}" for n in (2, 3, 4)]


def test_diameter_stalled_rounds_raise():
    # vertex 1 lists no neighbor, so its set never grows past itself
    v = component((1, 1), 2).vertices
    lopsided = ComponentGraph(2, (1, 1), v, [[1], []])
    assert lopsided.connected
    with pytest.raises(InternalError):
        diameter(lopsided)


def test_diameter_searches_no_connected_graph(monkeypatch):
    # only a graph whose rounds stall has its parts searched for
    graphs = [component((1,) * 6, 6)] + [component(e, len(e)) for e in ORACLE_CLASSES]
    want = [diameter_by_bfs(g) for g in graphs]

    def refuse(vertices, row):
        raise AssertionError("diameter searched for parts")

    monkeypatch.setattr(graph, "search_parts", refuse)
    assert [diameter(g) for g in graphs] == want
    stalled = ComponentGraph(2, (1, 1), graphs[0].vertices[:2], [[], []])
    with pytest.raises(AssertionError, match="searched for parts"):
        diameter(stalled)


def test_diameter_disconnected_reports_parts():
    a, b = element_of((1, 2), 2), element_of((2, 1), 2)
    broken = ComponentGraph(2, (1, 1), [a, b], [[], []])
    assert not broken.connected
    with pytest.raises(DisconnectedError) as exc:
        diameter(broken)
    assert len(exc.value.parts) == 2


def test_edge_witnesses_oriented():
    # a graph holds no reading cap, so one built under a tight cap gives
    # its witnesses as any other does
    for e, cap in [((1, 1, 1), 100000), ((2, 1, 2, 1, 2), 100000), ((1,) * 4, 23)]:
        g = component(e, len(e), max_readings=cap)
        edges = []
        for i, j, wit in edge_witnesses(g):
            assert i < j
            assert wit.validates(g.vertices[i], g.vertices[j])
            edges.append((i, j))
        assert edges == sorted((i, j) for i, a in enumerate(g.adj) for j in a if i < j)


def test_edge_witnesses_skip_vertices_without_a_higher_neighbor(monkeypatch):
    g = component((1,) * 7, 7)
    calls = count_calls(monkeypatch, "neighbor_keys")
    assert sum(1 for _ in edge_witnesses(g)) == g.edge_count() == 5138
    assert len(calls) == len(set(calls)) == 297
    assert {g.index[key] for key in calls} == {i for i, a in enumerate(g.adj) if a and a[-1] > i}



def test_vertices_sorted_and_deterministic():
    g = component((1, 1, 1), 3)
    rs = [v.key for v in g.vertices]
    assert rs == sorted(rs)
    again = component((1, 1, 1), 3)
    assert [v.tree for v in again.vertices] == [v.tree for v in g.vertices]
    assert again.adj == g.adj
    assert list(edge_witnesses(again)) == list(edge_witnesses(g))


def test_evaluations_in_lexicographic_order(default_recursion_limit):
    for n in range(0, 5):
        for total in range(0, 6):
            want = [e for e in itertools.product(range(total + 1), repeat=n) if sum(e) == total]
            assert list(suites._evaluations(n, total)) == want
    assert len(list(suites._evaluations(1500, 1))) == 1500


def test_unused_top_letters_leave_the_class_alone():
    # what suite_connectivity builds each class through: an evaluation with
    # zeros anywhere is the class of its zero-free form at rank len(base),
    # relabeled by the order-preserving map of the letters it uses
    checked = 0
    for n in range(2, 5):
        for total in range(0, 7):
            for e in suites._evaluations(n, total):
                if all(e):
                    continue
                base = tuple(c for c in e if c)
                used = [a for a, c in enumerate(e, 1) if c]
                lower = {a: i for i, a in enumerate(used, 1)}  # onto 1..len(base), in order
                g, h = component(e, n), component(base, len(base))
                assert [tuple(map(lower.__getitem__, v.key)) for v in g.vertices] == \
                    [v.key for v in h.vertices], e
                assert g.adj == h.adj, e
                checked += 1
    assert checked == 272


def test_keys_are_listed_in_increasing_order():
    # component takes the listing as its vertex order, unsorted
    checked = 0
    for n in range(1, 6):
        for total in range(0, 9):
            for e in suites._evaluations(n, total):
                keys = keys_with_evaluation(e)
                assert all(a < b for a, b in zip(keys, keys[1:])), e
                checked += 1
    assert checked == 2001


def test_connectivity_builds_each_base_once(monkeypatch):
    # each zero-free form is searched once, at its own rank, and none built
    calls = []
    real = suites.class_parts
    monkeypatch.setattr(suites, "class_parts",
                        lambda e, n, *caps: calls.append((e, n)) or real(e, n, *caps))
    monkeypatch.setattr(suites, "component", None)
    assert suites.suite_connectivity().lines == ["329 evaluation classes, all connected"]
    assert len(calls) == len(set(calls)) == 57
    assert all(len(e) == n and all(e) for e, n in calls)
    calls.clear()
    assert suites.suite_connectivity(rank=1500, maxlen=0).passed
    assert calls == [((), 0)]


def test_connectivity_reports_every_rank_of_a_failing_base(monkeypatch):
    real = suites.class_parts
    monkeypatch.setattr(suites, "class_parts",
                        lambda e, n, *caps: [[0], [1]] if e == (1, 1) else real(e, n, *caps))
    assert suites.suite_connectivity().render().split("\n") == [
        "FAIL connectivity(rank<=4, len<=6): 329 evaluation classes, all connected",
        *SPLIT_ONE_ONE]


# every evaluation at every rank whose zero-free form is (1, 1)
SPLIT_ONE_ONE = [f"  counterexample: evaluation {e} at rank {n}: 2 parts"
                 for n in range(1, 5) for length in range(0, 7)
                 for e in suites._evaluations(n, length) if tuple(c for c in e if c) == (1, 1)]


def test_connectivity_reports_a_class_its_rows_split(monkeypatch):
    # rows that leave 12 and 21 alone split the class of (1, 1) in two
    real = graph.neighbor_set
    monkeypatch.setattr(graph, "neighbor_set",
                        lambda key, cap: {key} if len(key) == 2 and key[0] != key[1]
                        else real(key, cap))
    assert len(SPLIT_ONE_ONE) == 10
    assert suites.suite_connectivity().render().split("\n") == [
        "FAIL connectivity(rank<=4, len<=6): 329 evaluation classes, all connected",
        *SPLIT_ONE_ONE]


def test_connectivity_stops_each_search_once_every_key_is_placed(monkeypatch):
    # 198 rows for the 657 keys of the 57 zero-free forms; building every
    # row of each took 647, and a class of one key needs none
    calls = count_calls(monkeypatch, "neighbor_set")
    assert suites.suite_connectivity().passed
    assert len(calls) == len(set(calls)) == 198
    calls.clear()
    assert class_parts((1, 1), 2) == [[0, 1]] and len(calls) == 1
    assert class_parts((3,), 1) == [[0]] and calls == [(1, 2)]


def test_class_parts_match_the_built_class():
    bases = {tuple(c for c in e if c) for n in range(1, 5) for length in range(7)
             for e in suites._evaluations(n, length)}
    assert len(bases) == 57
    for e in sorted(bases) + ORACLE_CLASSES:
        g = component(e, len(e))
        assert class_parts(e, len(e)) == g.parts == [list(range(len(g.vertices)))], e


def test_a_row_outside_the_class_is_refused(monkeypatch):
    with pytest.raises(InternalError, match="^the row of 'b' names 'z', which is not in the class$"):
        search_parts("abc", lambda u: "az" if u == "b" else "ab")
    # only the rows read are checked: the search stops once 2 is placed
    assert search_parts("abc", lambda u: "abz" if u == "c" else "abc") == [[0, 1, 2]]
    with pytest.raises(InternalError, match="^the row of 1 names 3, which is not in the class$"):
        ComponentGraph(3, (1, 1, 1), [element_of((v,), 3) for v in (1, 2, 3)],
                       [[], [3], []]).parts
    # the key 123 lists the key 1234, of another class
    real = graph.neighbor_set
    monkeypatch.setattr(graph, "neighbor_set",
                        lambda key, cap: real(key, cap) | {(1, 2, 3, 4)} if key == (1, 2, 3)
                        else real(key, cap))
    msg = r"^the row of \(1, 2, 3\) names \(1, 2, 3, 4\), which is not in the class$"
    with pytest.raises(InternalError, match=msg):
        class_parts((1, 1, 1), 3)
    with pytest.raises(InternalError, match=msg):
        component((1, 1, 1), 3)


def test_class_parts_and_component_refuse_alike(monkeypatch):
    # both check their input and caps in one helper, before the first row
    # and, in component, before the mirror inserts a word
    def row(key, cap):
        raise AssertionError("a row was enumerated before the checks")

    def insert(w):
        raise AssertionError("a word was inserted before the checks")

    monkeypatch.setattr(graph, "neighbor_set", row)
    monkeypatch.setattr(graph, "psylv_key", insert)
    for args in [((1, 1), 3), ((1, -1), 2), ((1, 1, 1), 3, 4), ((1, 1, 1), 3, 5, 1),
                 ((1000, 1000), 2), ((2, 2, 2), 3, 90, 19), ((1,) * 9, 9, 20000, 10)]:
        with pytest.raises(Exception) as built:
            component(*args)
        with pytest.raises(Exception) as searched:
            class_parts(*args)
        assert isinstance(built.value, (RankError, CapExceededError)), args
        assert (type(searched.value), str(searched.value)) == \
            (type(built.value), str(built.value)), args


def test_empty_graph_has_no_diameter():
    with pytest.raises(ValueError, match="empty graph has no diameter"):
        diameter(ComponentGraph(0, (), [], []))
