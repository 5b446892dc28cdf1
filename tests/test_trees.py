import itertools
import sys
from math import inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    EQ1_STR,
    Node,
    canonical_reading,
    complete_subtree,
    hook_length_extensions,
    infix,
    insert,
    is_bst,
    labels,
    node_parse_tree,
    node_readings,
    node_tree_art,
    node_tree_dot,
    node_tree_str,
    postfix,
    psylv,
    psylv_by_insertion,
    remove_subtree,
    standard_trees,
    standard_trees_by_insertion,
    tree_from_key_sizes,
)
from sylvshift import trees
from sylvshift.errors import CapExceededError, ParseError
from sylvshift.monoid import element_of, equivalent
from sylvshift.trees import (
    KEY_CACHE_SIZE,
    check_reading_cap,
    key_sizes,
    parse_tree,
    psylv_key,
    readings,
    tree_art,
    tree_dot,
    tree_str,
)

words = st.lists(st.integers(1, 4), max_size=7).map(tuple)


def test_insert_examples():
    assert insert(None, 4) == Node(4) == psylv((4,))
    assert insert(Node(2), 1) == Node(2, Node(1), None) == psylv((1, 2))
    assert insert(Node(2), 3) == Node(2, None, Node(3)) == psylv((3, 2))


def test_insert_equal_goes_left():
    assert insert(Node(2), 2) == Node(2, Node(2), None) == psylv((2, 2))
    assert tree_str((1, 2, 1, 2)) == "2(1(1(_,_),2(_,_)),_)"


def test_psylv_matches_insertion_exhaustively():
    # every word over {1..4} up to length 7, the empty word included
    for length in range(0, 8):
        for w in itertools.product((1, 2, 3, 4), repeat=length):
            t = psylv_by_insertion(w)
            assert psylv(w) == t
            assert psylv_key(w) == canonical_reading(t)


@given(st.integers(1, 6).flatmap(lambda k: st.lists(st.integers(1, k), max_size=60)),
       st.booleans())
def test_psylv_matches_insertion_with_repeats(w, as_tuple):
    t = psylv_by_insertion(w)
    assert psylv(w) == t
    # psylv_key takes a tuple or a list and remembers recent words: a first
    # call and the repeats, which the cache serves, all give the tree's key
    word = tuple(w) if as_tuple else w
    assert psylv_key(word) == canonical_reading(t)
    hits = psylv_key.cache_info().hits
    assert psylv_key(word) == psylv_key(list(w)) == psylv_key(tuple(w)) == canonical_reading(t)
    assert psylv_key.cache_info().hits == hits + 3


def test_key_cache_is_bounded():
    # more distinct words than the cache holds: it stays full, not larger
    for i in range(KEY_CACHE_SIZE + 100):
        w = tuple(int(c) + 1 for c in str(i))
        assert psylv_key(w) == canonical_reading(psylv_by_insertion(w))
    info = psylv_key.cache_info()
    assert info.maxsize == KEY_CACHE_SIZE
    assert info.currsize == KEY_CACHE_SIZE


def test_psylv_goldens(eq1_tree):
    assert tree_str(canonical_reading(eq1_tree)) == EQ1_STR
    assert tree_str((1, 3, 2, 5, 4)) == "4(2(1(_,_),3(_,_)),5(_,_))"
    assert tree_str((2, 3, 5, 4, 1)) == "1(_,4(3(2(_,_),_),5(_,_)))"
    assert psylv(()) is None


def test_infix_golden(eq1_tree):
    assert [a for a, _ in infix(eq1_tree)] == [1, 1, 2, 4, 4, 5, 5, 5, 6, 7]
    assert infix(Node(3)) == [(3, "")]
    assert infix(None) == []


def test_postfix_golden():
    assert [a for a, _ in postfix(psylv((2, 3, 5, 4, 1)))] == [2, 3, 5, 4, 1]
    chain = psylv(tuple(range(1, 7)))
    assert [a for a, _ in postfix(chain)] == list(range(1, 7))
    assert postfix(None) == []


def test_postfix_visits_descendants_first(eq1_tree):
    order = postfix(eq1_tree)
    for i, (_, loc) in enumerate(order):
        for _, later in order[i + 1 :]:
            assert not (later != loc and later.startswith(loc))


def test_readings_count_matches_hook_formula():
    for n in range(1, 7):
        for t in standard_trees(n):
            assert (len(readings(canonical_reading(t))) == hook_length_extensions(t)
                    == check_reading_cap(key_sizes(canonical_reading(t))[1], inf))


def test_child_sizes_of_any_reading_match_its_tree():
    for length in range(0, 6):
        for w in itertools.product((1, 2, 3), repeat=length):
            t = psylv(w)
            nodes = [complete_subtree(t, loc) for _, loc in postfix(t)]
            want = [(len(labels(v.left)), len(labels(v.right))) for v in nodes]
            assert key_sizes(w) == (canonical_reading(t), want) == key_sizes(canonical_reading(t))


@given(st.integers(1, 6).flatmap(lambda k: st.lists(st.integers(1, k), max_size=60)))
def test_key_sizes_address_the_tree(w):
    # one pass gives the key and the sizes of its tree, and the positions
    # they address (right child at p - 1, left child at p - r - 1) rebuild
    # the inserted tree, repeated letters included
    key = psylv_key(w)
    assert key_sizes(w) == (key, key_sizes(key)[1])
    t = psylv_by_insertion(w)
    nodes = [complete_subtree(t, loc) for _, loc in postfix(t)]
    assert key_sizes(w)[1] == [(len(labels(v.left)), len(labels(v.right))) for v in nodes]
    assert tree_from_key_sizes(*key_sizes(w)) == t == psylv(w)


def test_reading_count_exact_on_multiset_trees():
    # node orders and words are in bijection even with repeated labels
    for length in range(0, 7):
        for w in itertools.product((1, 2, 3), repeat=length):
            # w is any reading of its tree, not only the canonical one
            assert len(readings(w)) == check_reading_cap(key_sizes(w)[1], inf)


def test_readings_cap():
    with pytest.raises(CapExceededError):
        readings((1, 3, 2), cap=1)


def test_canonical_reading():
    assert canonical_reading(psylv((2, 3, 5, 4, 1))) == (2, 3, 5, 4, 1)
    assert canonical_reading(psylv((1, 3, 2))) == (1, 3, 2)
    assert canonical_reading(None) == ()


def test_complete_subtree(eq1_tree):
    right = canonical_reading(complete_subtree(eq1_tree, "R"))
    assert tree_str(right) == "5(5(5(_,_),_),6(_,7(_,_)))"
    assert complete_subtree(eq1_tree, "") == eq1_tree
    assert complete_subtree(Node(9), "") == Node(9)
    with pytest.raises(ValueError):
        complete_subtree(eq1_tree, "RRRR")
    with pytest.raises(ValueError):
        complete_subtree(eq1_tree, "RRL")
    with pytest.raises(ValueError):
        complete_subtree(None, "L")


def test_remove_subtree(eq1_tree):
    pruned = remove_subtree(eq1_tree, "R")
    assert tree_str(canonical_reading(pruned)) == "4(2(1(1(_,_),_),4(_,_)),_)"
    assert remove_subtree(eq1_tree, "") is None
    assert len(labels(remove_subtree(eq1_tree, "LL"))) == len(labels(eq1_tree)) - 2


def test_tree_text_roundtrip(eq1_tree):
    assert parse_tree(EQ1_STR) == canonical_reading(eq1_tree)
    assert parse_tree("_") == ()
    big = (1, 3, 12, 5)
    assert parse_tree(tree_str(big)) == psylv_key(big)
    # the last two read like 2(1(_,_),_) and 1(1(_,_),_) in postfix order but
    # break the search order, so no word inserts to them
    for bad in ("", "4(", "4(1(_,_)", "4(_;_)", "x(_,_)", "2(_,1(_,_))", "1(_,1(_,_))"):
        with pytest.raises(ParseError):
            parse_tree(bad)


def _labelled_shapes(size, symbols):
    """Every binary tree with the given number of nodes, each node labelled
    by any of the symbols, search order or not."""
    if size == 0:
        yield None
        return
    for left_size in range(size):
        for left in _labelled_shapes(left_size, symbols):
            for right in _labelled_shapes(size - 1 - left_size, symbols):
                for label in symbols:
                    yield Node(label, left, right)


def test_right_strict_means_some_word_inserts_to_it():
    inserted = {psylv_by_insertion(w)
                for k in range(5) for w in itertools.product((1, 2, 3), repeat=k)}
    refused = 0
    for size in range(5):
        for t in _labelled_shapes(size, (1, 2, 3)):
            assert is_bst(t) == (t in inserted)
            if is_bst(t):
                assert psylv(canonical_reading(t)) == t
                assert parse_tree(node_tree_str(t)) == canonical_reading(t)
                continue
            refused += 1
            with pytest.raises(ValueError):
                canonical_reading(t)
            with pytest.raises(ParseError):
                parse_tree(node_tree_str(t))
    assert refused > 0


def test_parse_tree_accepts_exactly_the_texts_tree_str_writes():
    # every one-character edit of the text of every tree on up to three
    # nodes: the key parser takes what the node parser takes when tree_str
    # writes it back unchanged (so not "01(_,_)"), and refuses the rest
    texts = {node_tree_str(psylv(w))
             for k in range(4) for w in itertools.product((1, 2, 3), repeat=k)}
    edits = set()
    for text in texts:
        for i in range(len(text) + 1):
            edits.add(text[:i] + text[i + 1:])
            for ch in "0123_(),x ":
                edits.update((text[:i] + ch + text[i:], text[:i] + ch + text[i + 1:]))
    accepted = 0
    for text in sorted(edits):
        try:
            t = node_parse_tree(text)
        except ParseError:
            want = None
        else:
            want = canonical_reading(t) if node_tree_str(t) == text.replace(" ", "") else None
        if want is None:
            with pytest.raises(ParseError):
                parse_tree(text)
        else:
            assert parse_tree(text) == want
            accepted += 1
    assert accepted > len(texts)


def test_parse_tree_refuses_labels_too_long_to_convert():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integer strings of any length")
    with pytest.raises(ParseError, match=f"label of {limit + 1} digits"):
        parse_tree("1" * (limit + 1) + "(_,_)")
    with pytest.raises(ParseError, match=f"label of {limit + 1} digits"):
        parse_tree("2(1(_,_)," + "3" * (limit + 1) + "(_,_))")


def test_render_cap_is_the_exact_text_length(monkeypatch):
    # art is counted before any line is drawn: a cap of the text's own
    # length draws it, one less refuses it; labels of several digits and
    # repeated labels are counted as drawn (the empty tree's art,
    # "(empty)", is not counted)
    cap = trees.MAX_RENDER_CHARS
    # the 2000-node chain's 8 MB of art lies within the default cap
    assert len(tree_art(range(1, 2001))) <= cap
    for length in range(1, 6):
        for w in itertools.product((1, 2, 12, 345), repeat=length):
            monkeypatch.setattr(trees, "MAX_RENDER_CHARS", cap)
            text = tree_art(w)
            monkeypatch.setattr(trees, "MAX_RENDER_CHARS", len(text))
            assert tree_art(w) == text
            monkeypatch.setattr(trees, "MAX_RENDER_CHARS", len(text) - 1)
            with pytest.raises(CapExceededError):
                tree_art(w)


def check_against_node_oracles(w):
    """Rendering, parsing and readings over key positions agree with the
    same jobs done by walking the nodes of w's tree."""
    t = psylv_by_insertion(w)
    text = tree_str(w)
    assert text == node_tree_str(t)
    assert tree_art(w) == node_tree_art(t)
    assert tree_dot(w) == node_tree_dot(t)
    assert parse_tree(text) == psylv_key(w) == canonical_reading(node_parse_tree(text))
    assert readings(w) == node_readings(t)


def test_key_walks_match_node_oracles_exhaustively():
    for length in range(0, 7):
        for w in itertools.product((1, 2, 3), repeat=length):
            check_against_node_oracles(w)


@given(st.integers(1, 4).flatmap(lambda k: st.lists(st.integers(1, k), max_size=8)))
def test_key_walks_match_node_oracles_with_repeats(w):
    check_against_node_oracles(tuple(w))


@given(words)
def test_psylv_is_bst_and_infix_sorted(w):
    t = psylv(w)
    assert is_bst(t)
    ls = labels(t)
    assert ls == sorted(ls)
    assert len(ls) == len(w)


@given(words)
def test_word_is_reading_of_its_tree(w):
    t = psylv(w)
    rs = readings(w)
    assert w in rs
    for r in rs:
        assert psylv(r) == t


def test_standard_trees_match_insertion_oracle():
    # same trees in the same order as inserting all n! permutations
    for n in range(0, 8):
        assert standard_trees(n) == standard_trees_by_insertion(n)


@pytest.mark.parametrize("w", [range(1, 100_001), range(100_000, 0, -1)])
def test_chains_of_1e5_nodes_need_no_recursion(default_recursion_limit, w):
    n = 100_000
    key, sizes = key_sizes(tuple(w))
    # inserted right to left, 1..n is a chain of left children under n and
    # n..1 a chain of right children under 1; either word is its own key
    assert key == tuple(w) == psylv_key(tuple(w))
    assert sizes == [(p, 0) if w[0] == 1 else (0, p) for p in range(n)]
    assert check_reading_cap(key_sizes(key)[1], inf) == 1
    assert parse_tree(tree_str(w)) == tuple(w)
    # the sideways art is quadratic in the depth, so it is drawn for a
    # 2000-node chain: deeper than the recursion limit, 8 MB of text
    assert tree_art(w[:2000]) == node_tree_art(psylv(w[:2000]))
    # the whole chain would draw about 2e10 characters: refused up front
    with pytest.raises(CapExceededError):
        tree_art(w)
    # DOT names each node by its key position, so its text is linear
    text = tree_dot(w)
    dot = text.split("\n")
    assert len(text) < 60 * n and len(dot) == 2 * n + 2
    side = "L" if w[0] == 1 else "R"
    assert dot[2] == f'  n0 [label="{w[0]}"];' and dot[n + 1] == f'  n{n - 1} [label="{w[-1]}"];'
    assert dot[n + 2:-1] == [f'  n{p} -> n{p - 1} [label="{side}"];' for p in range(1, n)]
    a, b = element_of(tuple(w), n), element_of(tuple(w), n)
    assert a.tree == b.tree == (key, sizes)
    assert a == b and hash(a) == hash(b)
    # the trees differ only at the deepest node once the first two symbols swap
    assert element_of((w[1], w[0]) + tuple(w[2:]), n) != a
    assert repr(a) == f"SylvElement(rank={n}, key={tuple(w)!r})"
    assert equivalent(tuple(w), key, n)


def test_reading_cap_below_one_is_refused():
    # every tree, the empty one included, has at least one reading
    for w in ((), (1,), (2, 1, 3)):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            check_reading_cap(key_sizes(w)[1], 0)
