import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sylvshift import verify as suites
from sylvshift.cocharge import cochseq_word, cocharge_lower_bound
from sylvshift.errors import NotStandardError
from sylvshift.monoid import element_of
from sylvshift.trees import key_sizes, psylv_key, readings
from sylvshift.words import word_str


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


def test_lower_bound_size_mismatch():
    with pytest.raises(NotStandardError):
        cocharge_lower_bound(key_sizes((1,)), key_sizes((1, 2)))


def test_shift_suite_computes_each_sequence_once(monkeypatch):
    # the suite walks rotation orbits, so each permutation's sequence is
    # computed once: 873 = 1! + 2! + ... + 6! calls at maxlen 6
    calls = []
    monkeypatch.setattr(suites, "cochseq_word", lambda w: calls.append(w) or cochseq_word(w))
    rep = suites.suite_cocharge_shift(maxlen=6)
    assert rep.passed
    assert rep.lines == ["5912 shifted pairs within componentwise distance 1"]
    assert len(calls) == len(set(calls)) == 873


def shift_report_by_permutation(maxlen: int) -> suites.SuiteReport:
    """suite_cocharge_shift's report, computed permutation by permutation in
    lexicographic order, every rotation's sequence anew."""
    rep = suites.SuiteReport(f"cocharge-shift(len<={maxlen})")
    pairs = 0
    for n in range(1, maxlen + 1):
        for w in itertools.permutations(range(1, n + 1)):
            base = suites.cochseq_word(w)
            for k in range(n + 1):
                shifted = suites.cochseq_word(w[k:] + w[:k])
                if any(abs(a - b) > 1 for a, b in zip(base, shifted)):
                    rep.fail(f"split {word_str(w)} at {k}: {base} vs {shifted}")
                pairs += 1
            a = w[-1]
            if n >= 2 and a != 1:
                front = suites.cochseq_word((a,) + w[:-1])
                want = tuple(c + (1 if i == a - 1 else 0) for i, c in enumerate(base))
                if front != want:
                    rep.fail(f"{word_str(w)}: front-rotated sequence {front}, expected {want}")
    rep.lines.append(f"{pairs} shifted pairs within componentwise distance 1")
    return rep


def test_shift_suite_reports_as_a_scan_of_every_permutation(monkeypatch):
    # with the sequences of some permutations raised by 1 to 3 in their last
    # component, the orbit walk fails on the same splits and front rotations,
    # in the same order, as a scan of the permutations in lexicographic order
    def perturbed(w):
        seq = cochseq_word(w)
        bump = sum(i * a for i, a in enumerate(w)) % 7
        return seq[:-1] + (seq[-1] + bump,) if bump <= 3 else seq

    monkeypatch.setattr(suites, "cochseq_word", perturbed)
    rep = suites.suite_cocharge_shift(maxlen=5)
    want = shift_report_by_permutation(5)
    splits = [f for f in want.failures if f.startswith("split")]
    assert len(splits) > 10 and len(want.failures) - len(splits) > 10
    assert not rep.passed
    assert (rep.lines, rep.failures, rep.render()) == (want.lines, want.failures, want.render())


def test_congruence_suite_reports_a_tree_whose_readings_disagree(monkeypatch):
    # a "sequence" that is the word itself differs between any two readings
    monkeypatch.setattr(suites, "cochseq_word", tuple)
    assert suites.suite_cocharge_congruence(3).render() == (
        "FAIL cocharge-congruence(n<=3): 9 standard words grouped and checked\n"
        "  counterexample: tree 2(1(_,_),3(_,_)) has readings with sequences "
        "[(1, 3, 2), (3, 1, 2)]")
