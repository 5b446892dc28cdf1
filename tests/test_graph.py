import itertools
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (adjacency_by_vertex, bfs_distances, diameter_by_bfs, mirror_tree,
                      multiset_words, neighbors_by_readings)
from sylvshift import graph
from sylvshift import verify as suites
from sylvshift.errors import CapExceededError, DisconnectedError, InternalError, RankError
from sylvshift.graph import (
    ComponentGraph,
    ShiftWitness,
    component,
    component_tsv,
    diameter,
    distance,
    edge_witnesses,
    graph_dot,
    keys_with_evaluation,
    mirror_index,
    neighbors,
    tree_count,
)
from sylvshift.monoid import SylvElement, element_of, evaluation_of
from sylvshift.trees import (Node, canonical_reading, is_bst, labels, psylv, psylv_key,
                             reading_count, readings)
from sylvshift.words import Word, word_str

# Evaluation classes with repeated symbols whose every tree is checked
# against the readings oracle, next to every standard tree with n <= 7.
ORACLE_CLASSES = [(2, 1, 2, 1, 2), (3, 3), (2, 2, 2), (1, 3, 1, 2), (4, 1, 1), (2, 2, 2, 2)]


def test_neighbors_examples():
    s = element_of((1, 2), 2)
    nbrs = set(neighbors(s))
    assert nbrs == {s, element_of((2, 1), 2)}

    empty = element_of((), 3)
    assert set(neighbors(empty)) == {empty}

    big = neighbors(element_of((1, 3, 2, 5, 4), 5))
    assert element_of((5, 4, 1, 3, 2), 5) in big


def test_neighbors_witnesses_validate(monkeypatch):
    s = element_of((1, 3, 2, 5, 4), 5)
    nbrs = neighbors(s)

    def build(self, label, *children):
        raise AssertionError(f"validates built a node labelled {label}")

    monkeypatch.setattr(Node, "__init__", build)
    for t, wit in nbrs.items():
        assert wit.validates(s, t)
    t = element_of((5, 4, 1, 3, 2), 5)
    assert nbrs[t].validates(s, t)
    assert not nbrs[t].validates(t, s)
    assert not ShiftWitness((1, 3, 2), (6,)).validates(element_of((1, 3, 2), 6),
                                                       element_of((1, 3, 2), 6))
    assert not ShiftWitness((1, 3), (2, 5, 4)).validates(s, element_of((2, 1), 5))


def check_against_oracle(s):
    got = neighbors(s)
    assert set(got) == set(neighbors_by_readings(s))
    for t, wit in got.items():
        assert wit.validates(s, t)


def test_neighbors_match_readings_oracle(monkeypatch):
    tried = []
    monkeypatch.setattr(graph, "psylv_key", lambda w: tried.append(w) or psylv_key(w))
    cases = [(n, key) for n in range(8) for key in suites.standard_keys(n)]
    cases += [(len(e), key) for e in ORACLE_CLASSES for key in keys_with_evaluation(e)]
    for n, key in cases:
        s = SylvElement(n, key)
        tried.clear()
        graph.neighbor_keys(s)
        # each word tried is yx for a distinct reading xy of s and split
        assert 0 < len(tried) <= reading_count(key) * (len(key) + 1)
        check_against_oracle(s)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=9).map(tuple))
def test_neighbors_match_readings_oracle_sampled(w):
    check_against_oracle(element_of(w, 5))


def test_neighbors_symmetric_and_evaluation_preserving():
    cache = {}

    def nbrs(s):
        if s not in cache:
            cache[s] = neighbors(s)
        return cache[s]

    for length in range(0, 6):
        for w in itertools.product((1, 2, 3, 4), repeat=length):
            s = element_of(w, 4)
            if s in cache:
                continue
            for t, wit in nbrs(s).items():
                assert evaluation_of(t) == evaluation_of(s)
                assert s in nbrs(t)
                assert ShiftWitness(wit.y, wit.x).validates(t, s)


def test_keys_with_evaluation_counts():
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for n in range(1, 7):
        assert len(keys_with_evaluation((1,) * n)) == catalan[n]
    assert len(keys_with_evaluation((2, 0))) == 1
    assert keys_with_evaluation(()) == [()]  # the empty tree


def test_keys_with_evaluation_matches_bruteforce():
    # the key of every distinct insertion tree of the class appears exactly once
    for e in [(1, 1), (2, 0), (1, 1, 1), (2, 1, 0), (2, 2), (1, 0, 2), (2, 1, 1)]:
        symbols = [i + 1 for i, c in enumerate(e) for _ in range(c)]
        brute = {canonical_reading(psylv(w)) for w in multiset_words(symbols)}
        built = keys_with_evaluation(e)
        assert len(built) == len(set(built))
        assert set(built) == brute
        assert all(is_bst(psylv(key)) and canonical_reading(psylv(key)) == key for key in built)
        assert tree_count(e) == len(built)


def test_component_examples():
    g = component((1, 1), 2)
    assert len(g.vertices) == 2 and g.edge_count() == 1 and g.connected

    g3 = component((1, 1, 1), 3)
    assert len(g3.vertices) == 5 and g3.connected

    g_rep = component((2, 0), 2)
    assert len(g_rep.vertices) == 1 and g_rep.connected


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
                    a, b = sorted((g.index[SylvElement.of_tree(n, s)],
                                   g.index[SylvElement.of_tree(n, t)]))
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
        assert component(e, n).adj == adjacency_by_vertex(e, n), e


def count_neighbor_keys(monkeypatch) -> list[Word]:
    calls = []
    real = graph.neighbor_keys
    monkeypatch.setattr(graph, "neighbor_keys", lambda s, cap: calls.append(s.key) or real(s, cap))
    return calls


def test_neighbor_keys_runs_once_per_mirror_orbit(monkeypatch):
    calls = count_neighbor_keys(monkeypatch)
    for n, orbits in [(5, 22), (7, 217), (8, 715)]:
        calls.clear()
        g = component((1,) * n, n)
        m = mirror_index([v.key for v in g.vertices], {v.key: i for v, i in g.index.items()})
        assert len(calls) == len(set(calls)) == orbits
        assert {g.index[SylvElement(n, key)] for key in calls} == {min(i, j) for i, j in enumerate(m)}
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
        adj = adjacency_by_vertex(e, n)
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
    real = graph.neighbor_keys
    for dropped, at in [
        # 123 loses its neighbor 231, whose list is derived from 213's
        (((1, 2, 3), (2, 3, 1)), "231"),
        # 21435 loses 13542, which comes first and whose list is derived
        (((2, 1, 4, 3, 5), (1, 3, 5, 4, 2)), "21435"),
    ]:
        def one_way(s, cap, dropped=dropped):
            return {k: w for k, w in real(s, cap).items() if (s.key, k) != dropped}

        monkeypatch.setattr(graph, "neighbor_keys", one_way)
        n = len(at)
        with pytest.raises(InternalError, match=f"not symmetric at {at}$"):
            component((1,) * n, n)


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
        k = reading_count(w)
        assert len(readings(s.tree, cap=k)) == k
        assert neighbors(s, cap=k)
        with pytest.raises(CapExceededError):
            neighbors(s, cap=k - 1)
        with pytest.raises(CapExceededError):
            readings(s.tree, cap=k - 1)


def test_component_cap_fails_before_building_trees(monkeypatch):
    def build(e):
        raise AssertionError(f"keys with evaluation {e} listed before the vertex cap check")

    monkeypatch.setattr(graph, "keys_with_evaluation", build)
    with pytest.raises(CapExceededError):
        component((1,) * 12, 12, max_vertices=10)


def test_catalan_bounds_tree_count():
    # component compares Catalan(k), k = distinct symbols, with its cap first
    for e in itertools.product(range(3), repeat=4):
        k = sum(1 for c in e if c)
        assert comb(2 * k, k) // (k + 1) <= tree_count(e) == len(keys_with_evaluation(e))


def test_tree_count_of_long_standard_evaluations():
    for k in range(301):
        assert tree_count((1,) * k) == comb(2 * k, k) // (k + 1)


def test_long_evaluations_need_no_recursion(default_recursion_limit):
    with pytest.raises(CapExceededError):
        component((1,) * 1200, 1200, max_vertices=10)
    assert tree_count((1200,)) == 1
    assert tree_count((600, 600)) == 601  # T(a, b) = b + 1


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
    broken = ComponentGraph(2, (1, 1), [a, b], [[], []])
    with pytest.raises(DisconnectedError):
        distance(broken, a, b)
    assert distance(broken, b, b) == 0


def test_distance_matches_bfs_distances():
    for e in [(1,) * 6, (2, 1, 2, 1, 2)]:
        g = component(e, len(e))
        for s in g.vertices:
            want = bfs_distances(g, s)
            assert {t: distance(g, s, t) for t in g.vertices} == want


def test_chain_distance_lower_bound():
    for n in range(2, 6):
        g = component((1,) * n, n)
        up = element_of(tuple(range(1, n + 1)), n)
        down = element_of(tuple(range(n, 0, -1)), n)
        assert distance(g, up, down) >= n - 1


def test_diameter_small():
    d2, _ = diameter(component((1, 1), 2))
    assert d2 == 1
    d3, _ = diameter(component((1, 1, 1), 3))
    assert 2 <= d3 <= 3
    d4, _ = diameter(component((1, 1, 1, 1), 4))
    assert 3 <= d4 <= 4


def test_diameter_matches_per_vertex_bfs():
    classes = [(1,) * n for n in range(8)] + ORACLE_CLASSES + [(3,)]
    for e in classes:
        g = component(e, len(e))
        assert diameter(g) == diameter_by_bfs(g)
    one = component((3,), 1)
    assert diameter(one) == (0, (one.vertices[0], one.vertices[0]))


def test_diameter_stalled_rounds_raise():
    # vertex 1 lists no neighbor, so its set never grows past itself
    v = component((1, 1), 2).vertices
    lopsided = ComponentGraph(2, (1, 1), v, [[1], []])
    assert lopsided.connected
    with pytest.raises(InternalError):
        diameter(lopsided)


def test_distances_and_diameter_against_networkx():
    for e, n in [((1, 1, 1, 1), 4), ((1, 1, 1, 1, 1), 5), ((2, 1, 1), 3)]:
        g = component(e, n)
        G = nx.Graph()
        G.add_nodes_from(range(len(g.vertices)))
        G.add_edges_from((i, j) for i, a in enumerate(g.adj) for j in a)
        assert {(i, j) for i, j, _ in edge_witnesses(g)} == {tuple(sorted(e)) for e in G.edges}
        assert g.edge_count() == G.number_of_edges()
        assert nx.is_connected(G)
        d, _ = diameter(g)
        assert d == nx.diameter(G)
        for v in g.vertices:
            mine = {g.index[t]: dd for t, dd in bfs_distances(g, v).items()}
            theirs = nx.single_source_shortest_path_length(G, g.index[v])
            assert mine == dict(theirs)


def test_diameter_disconnected_reports_parts():
    a, b = element_of((1, 2), 2), element_of((2, 1), 2)
    broken = ComponentGraph(2, (1, 1), [a, b], [[], []])
    assert not broken.connected
    with pytest.raises(DisconnectedError) as exc:
        diameter(broken)
    assert len(exc.value.parts) == 2

    v = component((1, 1, 1), 3).vertices[:4]
    two_parts = ComponentGraph(3, (1, 1, 1), v, [[2], [3], [0], [1]])
    G = nx.Graph([(0, 2), (1, 3)])
    assert two_parts.parts == sorted(sorted(c) for c in nx.connected_components(G))


def test_edge_witnesses_oriented():
    for e in [(1, 1, 1), (2, 1, 2, 1, 2)]:
        g = component(e, len(e))
        edges = []
        for i, j, wit in edge_witnesses(g):
            assert i < j
            assert wit.validates(g.vertices[i], g.vertices[j])
            edges.append((i, j))
        assert edges == sorted((i, j) for i, a in enumerate(g.adj) for j in a if i < j)



def test_vertices_sorted_and_deterministic():
    g = component((1, 1, 1), 3)
    rs = [canonical_reading(v.tree) for v in g.vertices]
    assert rs == sorted(rs)
    again = component((1, 1, 1), 3)
    assert [v.tree for v in again.vertices] == [v.tree for v in g.vertices]
    assert again.adj == g.adj
    assert list(edge_witnesses(again)) == list(edge_witnesses(g))


def test_emitters():
    g = component((1, 1), 2)
    dot = graph_dot(g)
    assert dot.startswith("graph") and "--" in dot and '"12"' in dot
    row = component_tsv(g).split("\t")
    assert row[0] == "1,1" and row[1] == "2" and row[2] == "1" and row[3] == "1"


def test_all_vertices_share_evaluation():
    g = component((2, 1, 1), 3)
    for v in g.vertices:
        assert sorted(labels(v.tree)) == [1, 1, 2, 3]


def test_evaluations_in_lexicographic_order(default_recursion_limit):
    for n in range(0, 5):
        for total in range(0, 6):
            want = [e for e in itertools.product(range(total + 1), repeat=n) if sum(e) == total]
            assert list(suites._evaluations(n, total)) == want
    assert len(list(suites._evaluations(1500, 1))) == 1500
