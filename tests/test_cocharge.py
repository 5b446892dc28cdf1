import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sylvshift.cocharge import cochseq_word, cocharge_lower_bound
from sylvshift.errors import NotStandardError
from sylvshift.monoid import element_of
from sylvshift.trees import key_sizes, psylv_key, readings


def test_worked_example():
    assert cochseq_word((1, 2, 4, 6, 3, 7, 5)) == (0, 0, 0, 1, 1, 2, 2)


def test_chain_words():
    for n in range(1, 8):
        up = tuple(range(1, n + 1))
        down = tuple(range(n, 0, -1))
        assert cochseq_word(up) == (0,) * n
        assert cochseq_word(down) == tuple(range(n))


def test_rejects_non_standard():
    for bad in ((1, 1), (2, 3), ()):
        with pytest.raises(NotStandardError):
            cochseq_word(bad)
    for bad in ((1, 1), ()):
        with pytest.raises(NotStandardError):
            cocharge_lower_bound(key_sizes(bad), key_sizes(bad))


def test_cochseq_tree():
    # a standard tree's sequence is its key's, as every reading's is
    t = element_of((3, 1, 2), 3).tree
    assert cochseq_word(t[0]) == cochseq_word((1, 3, 2)) == cochseq_word((3, 1, 2)) == (0, 0, 1)
    assert cochseq_word(psylv_key((1,))) == (0,)
    assert cochseq_word(psylv_key(range(1, 8))) == (0,) * 7


def test_all_readings_agree_through_n6():
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            assert {cochseq_word(r) for r in readings(p)} == {cochseq_word(psylv_key(p))}


@given(st.permutations(list(range(1, 8))))
def test_sequence_shape(p):
    seq = cochseq_word(tuple(p))
    assert seq[0] == 0
    for i in range(1, len(seq)):
        assert seq[i] - seq[i - 1] in (0, 1)
        assert 0 <= seq[i] <= i


def test_one_shift_moves_components_by_at_most_one():
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            base = cochseq_word(p)
            for k in range(n + 1):
                other = cochseq_word(p[k:] + p[:k])
                assert all(abs(a - b) <= 1 for a, b in zip(base, other))


def test_front_rotation_raises_own_component():
    # moving the last symbol a != 1 to the front adds 1 to component a only
    for n in range(2, 7):
        for p in itertools.permutations(range(1, n + 1)):
            a = p[-1]
            if a == 1:
                continue
            back = cochseq_word(p)
            front = cochseq_word((a,) + p[:-1])
            assert front[a - 1] == back[a - 1] + 1
            assert all(front[i] == back[i] for i in range(n) if i != a - 1)


def test_lower_bound_examples():
    for n in range(2, 8):
        up = key_sizes(tuple(range(1, n + 1)))
        down = key_sizes(tuple(range(n, 0, -1)))
        assert cocharge_lower_bound(up, down) == n - 1
        assert cocharge_lower_bound(up, up) == 0
    assert cocharge_lower_bound(key_sizes((1, 2)), key_sizes((2, 1))) == 1


def test_lower_bound_size_mismatch():
    with pytest.raises(NotStandardError):
        cocharge_lower_bound(key_sizes((1,)), key_sizes((1, 2)))
