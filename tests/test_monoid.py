import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (EQ1_WORD, Node, canonical_reading, multiset_words, psylv, psylv_by_insertion,
                      single_rewrites_by_definition)
from sylvshift import monoid
from sylvshift import verify as suites
from sylvshift.errors import BudgetExceededError, RankError
from sylvshift.graph import component, keys_with_evaluation, neighbor_keys
from sylvshift.monoid import (
    SylvElement,
    element_of,
    equivalent,
    multiply,
    rewrite_class,
    rewrite_equivalent,
    single_rewrites,
)
from sylvshift.pathsynth import shift_path
from sylvshift.trees import key_sizes, psylv_key, tree_str
from sylvshift.words import evaluation


def test_element_of_examples():
    assert psylv(element_of((3, 1, 2), 3).key) == Node(2, Node(1), Node(3))
    assert element_of((1, 3, 2), 3) == element_of((3, 1, 2), 3)
    assert element_of((), 4) == SylvElement(4, canonical_reading(None))
    assert element_of((1, 3, 2), 3).key == (1, 3, 2)


def test_element_rank_checked():
    with pytest.raises(RankError):
        element_of((1, 5), 4)
    with pytest.raises(RankError):
        SylvElement(2, canonical_reading(psylv((1, 3))))
    with pytest.raises(RankError):
        SylvElement(6, element_of(EQ1_WORD, 7).key)


def test_equivalent_examples():
    assert equivalent((3, 1, 2), (1, 3, 2), 3)
    assert not equivalent((1, 2), (2, 1), 2)
    w = EQ1_WORD
    assert equivalent(w, canonical_reading(psylv(w)), 7)


def test_multiply_examples():
    one, two = element_of((1,), 2), element_of((2,), 2)
    assert psylv(multiply(one, two).key) == Node(2, Node(1), None)
    assert psylv(multiply(two, one).key) == Node(1, None, Node(2))
    e = element_of((), 2)
    assert multiply(e, one) == one and multiply(one, e) == one
    assert psylv((one * two).key) == Node(2, Node(1), None)


def test_multiply_rank_mismatch():
    with pytest.raises(RankError):
        multiply(element_of((), 2), element_of((), 3))


def test_single_rewrites():
    # 312 -> 132 is the c,a,...,b move with v empty (a=1, b=2, c=3)
    assert (1, 3, 2) in single_rewrites((3, 1, 2))
    assert single_rewrites((1, 2)) == set()
    # no symbol in [1, 2) to the right of the pair, so 21 is frozen
    assert single_rewrites((2, 1)) == set()


def test_single_rewrites_match_the_definition():
    # the bisection over the sorted distinct symbols right of each pair
    # against a scan of the whole suffix, on every word over 1..4 of length <= 7
    checked = 0
    for length in range(8):
        for w in itertools.product(range(1, 5), repeat=length):
            assert single_rewrites(w) == single_rewrites_by_definition(w), w
            checked += 1
    assert checked == 21845  # 21844 non-empty words and the empty one


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
    assert rewrite_class((3, 1, 2), 3, budget=2) == {(3, 1, 2), (1, 3, 2)}  # exactly its size
    assert rewrite_equivalent((3, 1, 2), (1, 3, 2), 3, budget=1)


def test_rewrite_matches_insertion_exhaustive_rank3():
    for length in range(1, 6):
        fibers = {}
        for w in itertools.product((1, 2, 3), repeat=length):
            fibers.setdefault(psylv_key(w), set()).add(w)
        for fiber in fibers.values():
            assert rewrite_class(min(fiber), 3) == fiber


def test_multihomogeneity_exhaustive_small():
    for length in range(0, 5):
        for u in itertools.product((1, 2, 3), repeat=length):
            for v in itertools.product((1, 2, 3), repeat=length):
                if equivalent(u, v, 3):
                    assert evaluation(u, 3) == evaluation(v, 3)


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


def skewed(s, t):
    """A product that reads its left factor backwards: an element of the
    right length and letters, but not associative: (2)(1)() has key 12 and
    (2)((1)()) has key 21."""
    return SylvElement(s.rank, s.key[::-1] + t.key)


def test_monoid_suite_reports_every_triple_that_does_not_associate(monkeypatch):
    # the associativity check reads its products from a table; with a
    # product that breaks the law it fails on exactly the triples that a
    # direct check of all three products finds, in the same order
    monkeypatch.setattr(suites, "multiply", skewed)
    rep = suites.suite_monoid(rank=2, maxlen=2, assoc_total=4)
    assert not rep.passed
    elems = [SylvElement(2, key) for total in range(5)
             for e in suites._evaluations(2, total) for key in keys_with_evaluation(e)]
    want = [f"associativity broke on {tree_str(a.key)}, {tree_str(b.key)}, {tree_str(c.key)}"
            for a, b, c in itertools.product(elems, repeat=3)
            if len(a) + len(b) + len(c) <= 4 and skewed(skewed(a, b), c) != skewed(a, skewed(b, c))]
    assert want and rep.failures == want
    assert "counterexample: associativity broke on 2(_,_), 1(_,_), _" in rep.render()


def test_monoid_suite_reports_a_product_outside_its_elements(monkeypatch):
    monkeypatch.setattr(suites, "multiply", lambda s, t: SylvElement(s.rank, s.key + t.key + (1,)))
    rep = suites.suite_monoid(rank=2, maxlen=2, assoc_total=4)
    assert not rep.passed
    assert rep.failures == ["product of _ and 2(2(2(2(_,_),_),_),_) is "
                            "SylvElement(rank=2, key=(2, 2, 2, 2, 1)), "
                            "outside the 25 elements of length <= 4"]


def test_suites_build_their_elements_from_keys(monkeypatch):
    # suite_monoid's elements and the path suite's sources and targets are
    # built from canonical readings, which are stored as they are: with
    # element_of and multiply replaced by _make of a key inserted out of
    # sight, the suites insert nothing through the constructor;
    # suite_induced builds no element at all
    calls = []
    monkeypatch.setattr(monoid, "psylv_key", lambda w: calls.append(w) or psylv_key(w))

    def by_key(w, n):
        return SylvElement._make((n, psylv_key(w)))

    class Certified:
        steps = ()

    seen = []
    monkeypatch.setattr(suites, "element_of", by_key)
    monkeypatch.setattr(suites, "multiply", lambda s, t: by_key(s.key + t.key, s.rank))
    monkeypatch.setattr(suites, "neighbor_set", lambda s: seen.append(s) or set())
    targets = []

    def paths_to(t):
        targets.append(t)
        return lambda s: seen.append((s, t)) or Certified()

    monkeypatch.setattr(suites, "paths_to", paths_to)
    reports = [suites.suite_monoid(rank=2, maxlen=2, assoc_total=4),
               suites.suite_induced(nmax=3), suites.suite_path(nmax=3)]
    assert calls == []
    assert all(rep.passed for rep in reports)
    # induced: for each key of rank m and each rank n > m, the key and then
    # the key lifted by n - m, so 2 * (1 * 2 + 2 * 1) calls; path:
    # 1 + 2 * 2 + 5 * 5 ordered pairs, target by target
    assert len(seen) == 8 + 30
    assert seen[:8] == [(1,), (2,), (1,), (3,), (1, 2), (2, 3), (2, 1), (3, 2)]
    for s, t in seen[8:]:
        assert (s, t) == (SylvElement(s.rank, s.key), SylvElement(t.rank, t.key))
    # each target reaches paths_to, which sizes it, once, and its walk then
    # takes every source of its size
    assert len(set(targets)) == len(targets) == 1 + 2 + 5
    assert [t for _, t in seen[8:]] == [t for t in targets for u in targets if len(u) == len(t)]


def test_induced_subgraph_fails_on_a_letter_dependent_shift(monkeypatch):
    # a neighbor function that reads letter values, not only their order:
    # it drops every neighbor but the source whose key ends in letter 1,
    # which no lifted key has
    real = suites.neighbor_set

    def biased(key):
        return {k for k in real(key) if k == key or k[-1] != 1}

    monkeypatch.setattr(suites, "neighbor_set", biased)
    rep = suites.suite_induced(nmax=4)
    assert rep.render().startswith("FAIL induced-subgraph(n<=4)")
    assert len(rep.failures) == 5


def test_canonical_reading_is_a_complete_key():
    # distinct trees of one evaluation have distinct keys, and each key
    # inserts back to its tree, so comparing keys is comparing trees
    for n in range(0, 5):
        for e in itertools.product(range(7), repeat=n):
            if sum(e) > 6:
                continue
            symbols = [i + 1 for i, c in enumerate(e) for _ in range(c)]
            trees = list({psylv_by_insertion(w) for w in multiset_words(symbols)})
            keys = [SylvElement(n, canonical_reading(t)).key for t in trees]
            assert len(set(keys)) == len(trees)
            assert set(keys) == set(keys_with_evaluation(e))
            for t, key in zip(trees, keys):
                assert psylv(key) == t
    # a tree that is not right-strict has no key
    with pytest.raises(ValueError, match="right-strict"):
        canonical_reading(Node(1, None, Node(1)))


@given(st.lists(st.integers(1, 4), max_size=9).map(tuple))
def test_element_is_the_key_of_any_reading(w):
    # w has repeated symbols; the element keeps the canonical reading of
    # w's tree, and the tree it gives on each read is w's tree as its key
    # and subtree sizes
    t = psylv_by_insertion(w)
    s = SylvElement(4, w)
    assert s.key == canonical_reading(t)
    assert s.tree == key_sizes(w)
    assert psylv(s.key) == t
    assert SylvElement(4, canonical_reading(t)) == s == SylvElement(4, s.key)


def count_check_rank(monkeypatch) -> list:
    """Wrap every binding of words.check_rank in the loaded sylvshift
    modules; the returned list gets one entry per call."""
    import sys

    from sylvshift import words

    calls = []
    real = words.check_rank

    def counted(w, n):
        calls.append(n)
        return real(w, n)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sylvshift" and getattr(module, "check_rank", None) is real:
            monkeypatch.setattr(module, "check_rank", counted)
    return calls


def test_ranks_are_checked_where_letters_enter(monkeypatch, capsys):
    # A rank is checked where letters come from outside the library. An
    # element whose key the library computed from checked letters of the
    # same rank is built unchecked: component vertices, path step posts and
    # products. Neighbor keys are computed from the source's key unchecked.
    from sylvshift.cli import main

    calls = count_check_rank(monkeypatch)

    def count(fn) -> int:
        calls.clear()
        fn()
        return len(calls)

    def chain_path():
        cert = shift_path(element_of(tuple(range(1, 301)), 300),
                          element_of(tuple(range(300, 0, -1)), 300))
        assert cert.verify()

    assert count(lambda: component((1,) * 7, 7)) == 0
    assert count(lambda: component((2, 1, 2, 1, 2), 5)) == 0
    assert count(chain_path) == 2
    assert count(lambda: neighbor_keys(element_of((1, 3, 2, 5, 4), 5).key)) == 1
    assert count(lambda: multiply(element_of((2, 1), 3), element_of((3,), 3))) == 2
    # the oracle suite's rewrite_class checks its 1530 classes; nothing else
    # in the suites checks a rank more than a few times
    assert count(lambda: main(["verify", "all", "--jobs", "1"])) < 2000
    capsys.readouterr()


def test_oracle_suite_reports_a_closure_that_differs_from_its_fiber(monkeypatch):
    # each closure of more than one word loses its largest word and gains
    # a word of letters beyond the rank
    def skewed(w, rank, budget):
        closure = rewrite_class(w, rank, budget)
        return closure if len(closure) == 1 else closure - {max(closure)} | {(rank + 1,) * len(w)}

    monkeypatch.setattr(suites, "rewrite_class", skewed)
    assert suites.suite_oracle(3, 3).render().split("\n") == [
        "FAIL oracle(rank=3, maxlen=3): 39 words in 35 classes agree",
        *(f"  counterexample: word {w}: closure has 1 strays (e.g. [(4, 4, 4)]), misses 1 "
          f"(e.g. [{m}])" for w, m in (("121", (2, 1, 1)), ("131", (3, 1, 1)),
                                       ("132", (3, 1, 2)), ("232", (3, 2, 2))))]


def test_monoid_suite_reports_classes_whose_products_differ(monkeypatch):
    # a product of more than three letters is keyed by the word itself, so
    # the readings of one class give distinct "product trees"
    real = suites.psylv_key
    monkeypatch.setattr(suites, "psylv_key", lambda w: real(w) if len(w) <= 3 else tuple(w))
    lines = suites.suite_monoid(3, 3, 0).render().split("\n")
    assert lines[:3] == [
        "FAIL monoid(rank=3, len<=3): 1296 class pairs multiply consistently; "
        "1 triples of total length <= 0 associate",
        "  counterexample: classes of 1 and 121: 2 product trees",
        "  counterexample: classes of 1 and 131: 2 product trees"]
    assert len(lines) == 12 and lines[-1] == "  ... and 254 more"  # ten counterexamples shown
