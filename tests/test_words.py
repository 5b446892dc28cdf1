import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sylvshift.errors import ParseError, RankError
from sylvshift.words import evaluation, is_standard, parse_word, word_str

symbols = st.lists(st.integers(1, 12), max_size=12)


def test_evaluation_examples():
    assert evaluation(parse_word("1246375"), 7) == (1, 1, 1, 1, 1, 1, 1)
    assert evaluation(parse_word("5451761524"), 7) == (2, 1, 0, 2, 3, 1, 1)
    assert evaluation((), 3) == (0, 0, 0)


def test_evaluation_rank_violation():
    with pytest.raises(RankError):
        evaluation((1, 5), 4)
    with pytest.raises(RankError):
        evaluation((0,), 4)


def test_is_standard():
    assert is_standard(parse_word("1246375"))
    assert not is_standard(parse_word("11"))
    assert is_standard(())
    assert not is_standard((2, 3))


def test_parse_word_forms():
    assert parse_word("13254") == (1, 3, 2, 5, 4)
    assert parse_word("1.3.12.5") == (1, 3, 12, 5)
    assert parse_word("") == ()
    assert parse_word("12") == (1, 2)  # compact digits, not the number 12
    assert parse_word(".12") == (12,)  # leading dot forces the dotted reading


def test_parse_word_rejects():
    # "10" has a 0 digit symbol; "²" and ".1.²" are digits but not decimal
    for bad in ("a", "1..2", "1.x", "0", "10", "\u00b2", ".1.\u00b2"):
        with pytest.raises(ParseError):
            parse_word(bad)


def test_labels_too_long_to_convert_raise_parse_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integer strings of any length")
    long = "1" * (limit + 1)
    with pytest.raises(ParseError, match=f"label of {limit + 1} digits"):
        parse_word("." + long)
    with pytest.raises(ParseError, match=f"label of {limit + 1} digits"):
        parse_word("2." + long + ".3")
    assert parse_word("." + "1" * limit) == (int("1" * limit),)


def test_word_str_picks_format():
    assert word_str((1, 3, 2)) == "132"
    assert word_str((1, 3, 12, 5)) == "1.3.12.5"
    assert word_str(()) == ""
    assert word_str((9,)) == "9"
    assert word_str((12, 3)) == "12.3"  # a leading dot only for a lone label


@given(symbols)
def test_word_roundtrip(w):
    assert parse_word(word_str(tuple(w))) == tuple(w)


@given(symbols, symbols)
def test_evaluation_additive(u, v):
    n = 12
    uv = tuple(u) + tuple(v)
    total = tuple(a + b for a, b in zip(evaluation(u, n), evaluation(v, n)))
    assert evaluation(uv, n) == total


@given(st.permutations(list(range(1, 7))))
def test_standard_iff_all_ones(p):
    w = tuple(p)
    assert is_standard(w)
    assert evaluation(w, len(w)) == (1,) * len(w)


def test_check_rank_refuses_a_negative_rank():
    from sylvshift.words import check_rank

    for w in ((), (1,)):
        with pytest.raises(RankError, match="rank must be >= 0, got -1"):
            check_rank(w, -1)
