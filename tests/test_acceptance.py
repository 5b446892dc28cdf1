"""Acceptance gate: every criterion asserted at its stated scale.

Each test prints one PASS line; pytest -v (or -s) shows the full checklist.
"""

import itertools

from conftest import EQ1_STR, EQ1_WORD
from sylvshift import verify as suites
from sylvshift.cocharge import cochseq_word, cocharge_lower_bound
from sylvshift.monoid import rewrite_equivalent, equivalent
from sylvshift.trees import key_sizes, tree_str


def _ok(k: int, name: str, detail: str = ""):
    print(f"ACCEPTANCE {k:02d} {name}: PASS {detail}".rstrip())


def test_01_golden_insertion():
    assert tree_str(EQ1_WORD) == EQ1_STR
    _ok(1, "golden-insertion")


def test_02_golden_cocharge():
    assert cochseq_word((1, 2, 4, 6, 3, 7, 5)) == (0, 0, 0, 1, 1, 2, 2)
    _ok(2, "golden-cocharge")


def test_03_chain_endpoints():
    for n in range(1, 8):
        up = key_sizes(tuple(range(1, n + 1)))
        down = key_sizes(tuple(range(n, 0, -1)))
        assert cochseq_word(tuple(range(1, n + 1))) == (0,) * n
        assert cochseq_word(tuple(range(n, 0, -1))) == tuple(range(n))
        if n >= 2:
            assert cocharge_lower_bound(up, down) == n - 1
    _ok(3, "chain-endpoints")


def test_04_presentation_oracle():
    rep = suites.suite_oracle(rank=4, maxlen=6)
    assert rep.passed, rep.render()
    # the pairwise interface agrees on a sample of same-evaluation pairs
    for u in itertools.permutations((1, 2, 3, 4)):
        for v in itertools.permutations((1, 2, 3, 4)):
            assert rewrite_equivalent(u, v, 4) == equivalent(u, v, 4)
    _ok(4, "presentation-oracle", rep.lines[0])


def test_05_cocharge_congruence():
    rep = suites.suite_cocharge_congruence(nmax=7)
    assert rep.passed, rep.render()
    _ok(5, "cocharge-congruence", rep.lines[0])


def test_06_cocharge_shift_bound():
    rep = suites.suite_cocharge_shift(maxlen=6)
    assert rep.passed, rep.render()
    _ok(6, "cocharge-shift-bound", rep.lines[0])


def test_07_connectivity():
    rep = suites.suite_connectivity(rank=4, maxlen=6)
    assert rep.passed, rep.render()
    _ok(7, "connectivity", rep.lines[0])


def test_08_diameter_bounds():
    rep = suites.suite_diameter_bounds(nmax=5)
    assert rep.passed, rep.render()
    _ok(8, "diameter-bounds", " / ".join(rep.lines))


def test_09_distance_lower_bound():
    rep = suites.suite_distance_lower_bound(nmax=5)
    assert rep.passed, rep.render()
    _ok(9, "distance-lower-bound", rep.lines[0])


def test_10_paths_exhaustive():
    rep = suites.suite_path(nmax=5)
    assert rep.passed, rep.render()
    _ok(10, "paths-exhaustive", rep.lines[0])


def test_11_worked_example_path():
    rep = suites.suite_example_path()
    assert rep.passed, rep.render()
    _ok(11, "worked-example-path", rep.lines[0])


def test_12_induced_subgraph():
    rep = suites.suite_induced(nmax=4)
    assert rep.passed, rep.render()
    _ok(12, "induced-subgraph", rep.lines[0])
