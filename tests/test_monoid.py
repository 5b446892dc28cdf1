import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import EQ1_WORD, multiset_words
from sylvshift import monoid
from sylvshift import verify as suites
from sylvshift.errors import BudgetExceededError, RankError
from sylvshift.graph import (ShiftWitness, component, diameter, distance, keys_with_evaluation,
                             neighbors)
from sylvshift.monoid import (
    SylvElement,
    element_of,
    equivalent,
    evaluation_of,
    multiply,
    rewrite_class,
    rewrite_equivalent,
    single_rewrites,
)
from sylvshift.pathsynth import shift_path
from sylvshift.trees import Node, canonical_reading, psylv, psylv_key
from sylvshift.words import evaluation


def test_element_of_examples():
    assert element_of((3, 1, 2), 3).tree == Node(2, Node(1), Node(3))
    assert element_of((1, 3, 2), 3) == element_of((3, 1, 2), 3)
    assert element_of((), 4) == SylvElement.of_tree(4, None)
    assert element_of((1, 3, 2), 3).key == (1, 3, 2)


def test_element_rank_checked():
    with pytest.raises(RankError):
        element_of((1, 5), 4)
    with pytest.raises(RankError):
        SylvElement.of_tree(2, psylv((1, 3)))


def test_equivalent_examples():
    assert equivalent((3, 1, 2), (1, 3, 2), 3)
    assert not equivalent((1, 2), (2, 1), 2)
    w = EQ1_WORD
    assert equivalent(w, canonical_reading(psylv(w)), 7)


def test_multiply_examples():
    one, two = element_of((1,), 2), element_of((2,), 2)
    assert multiply(one, two).tree == Node(2, Node(1), None)
    assert multiply(two, one).tree == Node(1, None, Node(2))
    e = element_of((), 2)
    assert multiply(e, one) == one and multiply(one, e) == one
    assert (one * two).tree == Node(2, Node(1), None)


def test_multiply_rank_mismatch():
    with pytest.raises(RankError):
        multiply(element_of((), 2), element_of((), 3))


def test_single_rewrites():
    # 312 -> 132 is the c,a,...,b move with v empty (a=1, b=2, c=3)
    assert (1, 3, 2) in single_rewrites((3, 1, 2))
    assert single_rewrites((1, 2)) == set()
    # no symbol in [1, 2) to the right of the pair, so 21 is frozen
    assert single_rewrites((2, 1)) == set()


def test_rewrite_equivalent_examples():
    assert rewrite_equivalent((3, 1, 2), (1, 3, 2), 3)
    assert not rewrite_equivalent((1, 2), (2, 1), 2)
    assert not rewrite_equivalent((1, 2), (1, 1), 2)  # evaluation mismatch
    assert not rewrite_equivalent((1,), (1, 1), 2)  # length mismatch


def test_rewrite_budget():
    w = tuple(range(1, 7)) + tuple(range(6, 0, -1))
    with pytest.raises(BudgetExceededError):
        rewrite_class(w, 6, budget=3)
    # the class {312, 132} exceeds a budget of 1, but the pairwise search
    # stops on reaching its target before counting it
    with pytest.raises(BudgetExceededError):
        rewrite_class((3, 1, 2), 3, budget=1)
    assert rewrite_equivalent((3, 1, 2), (1, 3, 2), 3, budget=1)


def test_rewrite_matches_insertion_exhaustive_rank3():
    for length in range(1, 6):
        fibers = {}
        for w in itertools.product((1, 2, 3), repeat=length):
            fibers.setdefault(psylv(w), set()).add(w)
        for fiber in fibers.values():
            assert rewrite_class(min(fiber), 3) == fiber
    # and through the pairwise interface
    assert rewrite_equivalent((3, 1, 4, 2), (1, 3, 4, 2), 4) == equivalent(
        (3, 1, 4, 2), (1, 3, 4, 2), 4)


def test_evaluation_of_examples():
    assert evaluation_of(element_of(EQ1_WORD, 7)) == (2, 1, 0, 2, 3, 1, 1)
    assert evaluation_of(element_of((), 3)) == (0, 0, 0)
    assert evaluation_of(element_of((1, 3, 2, 5, 4), 5)) == (1, 1, 1, 1, 1)


def test_multihomogeneity_exhaustive_small():
    for length in range(0, 5):
        for u in itertools.product((1, 2, 3), repeat=length):
            for v in itertools.product((1, 2, 3), repeat=length):
                if equivalent(u, v, 3):
                    assert evaluation(u, 3) == evaluation(v, 3)


def test_product_well_defined_small():
    # representatives may be swapped freely without changing the product
    classes = {}
    for w in itertools.product((1, 2), repeat=3):
        classes.setdefault(psylv(w), []).append(w)
    for cu in classes.values():
        for cv in classes.values():
            results = {psylv(u + v) for u in cu for v in cv}
            assert len(results) == 1


def test_associativity_sampled():
    elems = [element_of(w, 3) for w in [(), (1,), (2, 1), (1, 3, 2), (3, 3)]]
    for a in elems:
        for b in elems:
            for c in elems:
                assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_monoid_suite_at_stated_scale():
    from sylvshift.verify import suite_monoid

    rep = suite_monoid(rank=3, maxlen=4, assoc_total=6)
    assert rep.passed, rep.render()


def test_canonical_reading_is_a_complete_key():
    # distinct trees of one evaluation have distinct keys, and each key
    # inserts back to its tree, so comparing keys is comparing trees
    for n in range(0, 5):
        for e in itertools.product(range(7), repeat=n):
            if sum(e) > 6:
                continue
            symbols = [i + 1 for i, c in enumerate(e) for _ in range(c)]
            trees = list({psylv(w) for w in multiset_words(symbols)})
            keys = [SylvElement.of_tree(n, t).key for t in trees]
            assert len(set(keys)) == len(trees)
            assert set(keys) == set(keys_with_evaluation(e))
            for t, key in zip(trees, keys):
                assert psylv(key) == t


def test_no_library_path_compares_trees(monkeypatch):
    def refuse(*args):
        raise AssertionError("a library path compared or hashed Node trees")

    monkeypatch.setattr(Node, "__eq__", refuse)
    monkeypatch.setattr(Node, "__hash__", refuse)
    for e in [(1,) * 5, (2, 1, 2)]:
        g = component(e, len(e))
        d, (a, b) = diameter(g)
        assert distance(g, a, b) == d
    cert = shift_path(element_of((1, 3, 2, 5, 4), 5), element_of((2, 3, 5, 4, 1), 5))
    assert cert.verify()
    assert equivalent((3, 1, 2), (1, 3, 2), 3)
    assert not equivalent((1, 2), (2, 1), 2)
    assert multiply(element_of((1,), 2), element_of((2,), 2)) == element_of((1, 2), 2)
    reports = [suites.suite_oracle(maxlen=4), suites.suite_monoid(),
               suites.suite_induced(), suites.suite_example_path(),
               suites.suite_distance_lower_bound(nmax=4)]
    for rep in reports:
        assert rep.passed, rep.render()


@given(st.lists(st.integers(1, 4), max_size=9).map(tuple))
def test_element_is_the_key_of_any_reading(w):
    # w has repeated symbols; the element keeps the canonical reading of
    # w's tree, and its lazily built tree is w's tree
    t = psylv(w)
    s = SylvElement(4, w)
    assert s.key == canonical_reading(t)
    assert s.tree == t and s.tree is s.tree
    assert SylvElement.of_tree(4, t).tree is t
    assert SylvElement.of_tree(4, t) == s == SylvElement(4, s.key)


def test_keys_are_stored_without_a_second_insertion(monkeypatch):
    calls = []
    monkeypatch.setattr(monoid, "psylv_key", lambda w: calls.append(w) or psylv_key(w))
    t = psylv(EQ1_WORD)
    s = SylvElement.of_tree(7, t)
    assert calls == [] and s.key == canonical_reading(t) and s.tree is t
    assert SylvElement.of_key(7, s.key) == s == element_of(EQ1_WORD, 7)
    assert calls == [EQ1_WORD]
    # the rank is still checked, and a tree that is not right-strict refused
    with pytest.raises(RankError):
        SylvElement.of_tree(6, t)
    with pytest.raises(RankError):
        SylvElement.of_key(6, s.key)
    with pytest.raises(ValueError, match="right-strict"):
        SylvElement.of_tree(2, Node(1, None, Node(1)))
    # component stores the keys it lists as they are
    calls.clear()
    g = component((2, 1, 2, 1, 2), 5)
    assert calls == [] and len(g.vertices) == 136


def test_keys_need_no_tree(monkeypatch):
    def refuse(self, label, *children):
        raise AssertionError(f"a node labelled {label} was built")

    monkeypatch.setattr(Node, "__init__", refuse)
    with pytest.raises(AssertionError):
        psylv((1,))
    s = element_of((1, 3, 2, 5, 4), 5)
    assert s.key == (1, 3, 2, 5, 4)
    assert multiply(element_of((3, 1), 5), element_of((2,), 5)) == element_of((1, 3, 2), 5)
    assert equivalent((3, 1, 2), (1, 3, 2), 3)
    assert not equivalent((1, 2), (2, 1), 2)
    nbrs = neighbors(s)
    assert element_of((5, 4, 1, 3, 2), 5) in nbrs
    assert all(wit.validates(s, t) for t, wit in nbrs.items())
    assert not ShiftWitness((1, 3), (2, 5, 4)).validates(s, element_of((2, 1), 5))
