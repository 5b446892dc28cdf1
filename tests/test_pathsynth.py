import json
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (Node, canonical_reading, classify_step, complete_subtree,
                      induction_step_by_cases, node_tree_str, postfix, psylv, standard_trees,
                      step_invariants_by_tree, visited_tops_by_scan)
from sylvshift import pathsynth
from sylvshift import verify as suites
from sylvshift.errors import InternalError, NotStandardError, ParseError, RankError
from sylvshift.graph import ShiftWitness, keys_with_evaluation
from sylvshift.monoid import SylvElement, element_of
from sylvshift.pathsynth import (
    CASE_TAGS,
    PathCertificate,
    PathStep,
    certificate_from_obj,
    certificate_json,
    induction_step,
    shift_path,
    transcript,
    verify_step_invariants,
)
from sylvshift.trees import key_sizes, tree_str
from sylvshift.words import parse_word, word_str

U5 = psylv(parse_word("23541"))
U5_NODES = postfix(U5)
U5_KEY = canonical_reading(U5)
U5_SIZES = key_sizes(U5_KEY)[1]
CHAIN_WORDS = ["13254", "54132", "12543", "41235", "12354", "23541"]
CHAIN_TREES = [psylv(parse_word(w)) for w in CHAIN_WORDS]
CHAIN = [SylvElement(5, canonical_reading(t)) for t in CHAIN_TREES]


def record_steps(monkeypatch):
    """Make shift_path log, at every step, the tree it built and a copy of
    its stack of the postfix positions of the topmost visited nodes;
    returns the two logs."""
    trees, log = [], []
    real = pathsynth.verify_step_invariants

    def recording(t, target, tops):
        trees.append(t)
        log.append(list(tops))
        return real(t, target, tops)

    monkeypatch.setattr(pathsynth, "verify_step_invariants", recording)
    return trees, log


def case_oracle_disagreements(cert, target, tree_of=psylv, checked=None) -> list[str]:
    """Steps of cert where the proof's case-by-case construction, run on the
    step's pre tree (tree_of its key), raises a lemma error, or gives another
    tag, another x, or a y that reads another element. checked maps each
    (target key, h, pre key, case tag, witness) already met to its finding
    ("" if none): the oracle's input and the library's output, so a step
    that several chains share is checked once."""
    checked = {} if checked is None else checked
    out = []
    for h, step in enumerate(cert.steps[1:], start=1):
        mark = (target.key, h, step.pre.key, step.case_tag, step.witness)
        if mark not in checked:
            checked[mark] = case_oracle_finding(step, h, target, tree_of)
        if checked[mark]:
            out.append(f"step {h}: {checked[mark]}")
    return out


def case_oracle_finding(step, h, target, tree_of) -> str:
    u = psylv(target.key)
    try:
        wit, tag = induction_step_by_cases(tree_of(step.pre.key), u, postfix(u), h)
    except InternalError as exc:
        return str(exc)
    same_y = element_of(wit.y, target.rank) == element_of(step.witness.y, target.rank)
    if (tag, wit.x) != (step.case_tag, step.witness.x) or not same_y:
        return (f"cases give {tag} {wit.x} {wit.y}, the library "
                f"{step.case_tag} {step.witness.x} {step.witness.y}")
    return ""


@pytest.fixture(scope="module")
def paths_through_n6():
    """shift_path on every ordered standard pair with n <= 6, run once: the
    case tags seen, the pairs whose path does not run from source to target,
    the pairs whose stack of topmost visited nodes left the scan oracle at
    some step, the steps where the case-by-case oracle disagrees with the
    library, the count of each (library, tree oracle) verdict pair of the
    chain invariants, over the distinct (tree, stack) pairs of every step's
    post tree and pre tree with the step's stack of topmost visited nodes,
    the steps whose tree, as shift_path built it, is not key_sizes of
    the step's yx, the pairs where the walk to the target shared by all
    sources (`paths_to`) certifies another chain than shift_path alone,
    and the set of (target, h, T_h) of steps h >= 1 with n <= 5."""
    with pytest.MonkeyPatch.context() as mp:
        trees_built, log = record_steps(mp)
        seen, missed, stack_mismatches, case_mismatches, moved_mismatches = set(), [], [], [], []
        shared_mismatches, steps_through_n5 = [], set()
        verdicts = Counter()
        # a step is checked against each oracle once per distinct input and
        # output: the case oracle through case_oracle_disagreements, and
        # insertion per (witness, built key, built sizes)
        case_checked, moved_checked = {}, {}
        for n in range(1, 7):
            trees = standard_trees(n)
            tree_of = {canonical_reading(t): t for t in trees}
            shape_of = {key: key_sizes(key) for key in tree_of}
            for u in trees:
                oracle = [visited_tops_by_scan(u, h) for h in range(1, n + 1)]
                goal = canonical_reading(u)
                target = SylvElement(n, goal)
                subtrees = [complete_subtree(u, loc) for _, loc in postfix(u)]
                checks = set()  # (tree key, tops) pairs met on u's paths
                walk = pathsynth.paths_to(target)
                for t in trees:
                    trees_built.clear()
                    log.clear()
                    start = canonical_reading(t)
                    cert = shift_path(SylvElement(n, start), target)
                    for h, (step, built) in enumerate(zip(cert.steps, trees_built, strict=True)):
                        wit = step.witness
                        mark = (wit, built[0], tuple(built[1]))
                        if mark not in moved_checked:
                            moved_checked[mark] = built == key_sizes(wit.y + wit.x)
                        if not moved_checked[mark]:
                            moved_mismatches.append(
                                (tree_str(cert.source.key), tree_str(target.key), h))
                    seen.update(s.case_tag for s in cert.steps)
                    # the oracle's readings of t and u as keys: a chain from t to u
                    if (cert.steps[0].pre.key, cert.steps[-1].post.key) != (start, goal):
                        missed.append((t, u))
                    if log != oracle:
                        stack_mismatches.append((t, u))
                    disagreements = case_oracle_disagreements(cert, target, tree_of.__getitem__,
                                                              case_checked)
                    case_mismatches += [(tree_str(cert.source.key), tree_str(target.key), d)
                                        for d in disagreements]
                    checks.update((key, tuple(tops)) for step, tops in zip(cert.steps, oracle)
                                  for key in (step.pre.key, step.post.key))
                    if walk(cert.source) != cert:
                        shared_mismatches.append((tree_str(cert.source.key), tree_str(target.key)))
                    if n <= 5:
                        steps_through_n5.update((target.key, h, step.pre.key)
                                                for h, step in enumerate(cert.steps) if h)
                for key, tops in checks:
                    patterns = [subtrees[p] for p in reversed(tops)]
                    verdicts[verify_step_invariants(shape_of[key], shape_of[target.key], tops),
                             step_invariants_by_tree(tree_of[key], patterns)] += 1
    return (seen, missed, stack_mismatches, case_mismatches, verdicts, moved_mismatches,
            shared_mismatches, steps_through_n5)


def test_classify_steps_of_worked_example():
    assert classify_step(U5, U5_NODES, 1) == "case3"
    assert classify_step(U5, U5_NODES, 2) == "case1"
    assert classify_step(U5, U5_NODES, 3) == "case2"
    assert classify_step(U5, U5_NODES, 4) == "case4"
    with pytest.raises(ValueError):
        classify_step(U5, U5_NODES, 5)


def test_classify_covers_all_consecutive_pairs():
    # exactly one locator shape fits every step of every standard tree
    # through n = 8, and it is the one the library reads from the next
    # node's subtree sizes
    for n in range(2, 9):
        for t in standard_trees(n):
            nodes, sizes = postfix(t), key_sizes(canonical_reading(t))[1]
            for h in range(1, n):
                assert classify_step(t, nodes, h) == pathsynth._shape(*sizes[h])


def test_visited_tops(monkeypatch):
    # after 3 postfix steps of U5 (nodes 2, 3, 5), nodes 3 and 5 are topmost
    _, log = record_steps(monkeypatch)
    shift_path(element_of(parse_word("13254"), 5), element_of(parse_word("23541"), 5))
    assert log[2] == [1, 2] and [U5_KEY[p] for p in log[2]] == [3, 5]
    assert log[4] == [4] and U5_KEY[4] == 1
    assert visited_tops_by_scan(U5, 3) == log[2]


def test_visited_tops_matches_scan_oracle(paths_through_n6):
    _, _, stack_mismatches, *_ = paths_through_n6
    assert stack_mismatches == []


def test_induction_steps_match_case_oracle(paths_through_n6):
    _, _, _, case_mismatches, *_ = paths_through_n6
    assert case_mismatches == []


def test_step_invariants_match_tree_oracle(paths_through_n6):
    # on every step's post tree (where the invariants hold) and pre tree
    # (where they mostly fail), against every stack of topmost nodes met
    _, _, _, _, verdicts, *_ = paths_through_n6
    assert set(verdicts) == {(True, True), (False, False)}


def test_moved_trees_match_insertion(paths_through_n6):
    # every step after the base derives its tree from the pre tree's by
    # moving one subtree; insertion of yx must give the same key and sizes
    _, _, _, _, _, moved_mismatches, *_ = paths_through_n6
    assert moved_mismatches == []


def test_shared_walk_builds_each_step_once(paths_through_n6, monkeypatch):
    # the walk to a target certifies, for every source with n <= 6, the
    # chain shift_path certifies alone: the same steps, witnesses, posts
    # and tags. The path suite then builds and checks each step h >= 1 once
    # per distinct (target, h, T_h) of those chains, and checks the base
    # step once per pair.
    *_, shared_mismatches, steps_through_n5 = paths_through_n6
    assert shared_mismatches == []
    calls = Counter()

    def counting(name):
        real = getattr(pathsynth, name)
        return lambda *args: calls.update([name]) or real(*args)

    for name in ("induction_step", "verify_step_invariants"):
        monkeypatch.setattr(pathsynth, name, counting(name))
    assert suites.suite_path(5).passed
    assert calls["induction_step"] == len(steps_through_n5) == 743
    assert calls["verify_step_invariants"] == 743 + 1990


@st.composite
def standard_pairs(draw, nmax=40, chains=False):
    n = draw(st.integers(7, nmax))
    words = st.permutations(range(1, n + 1))
    if chains:
        words |= st.sampled_from([tuple(range(1, n + 1)), tuple(range(n, 0, -1))])
    return [element_of(tuple(draw(words)), n) for _ in range(2)]


@given(standard_pairs())
def test_induction_steps_match_case_oracle_beyond_n6(pair):
    source, target = pair
    cert = shift_path(source, target)
    assert case_oracle_disagreements(cert, target) == []


@given(standard_pairs(nmax=60, chains=True))
def test_moved_matches_insertion_beyond_n6(pair):
    # chains in either direction give the longest walks from the root to
    # the moved subtree
    source, target = pair
    for step in shift_path(source, target).steps[1:]:
        pre = key_sizes(step.pre.key)
        p = pre[0].index(step.witness.x[-1])
        assert pathsynth._moved(pre, p) == key_sizes(step.witness.y + step.witness.x)


def test_base_step_examples():
    # the first step rotates the source's key so that the target's first
    # postfix node comes last, as the root
    wit = shift_path(CHAIN[0], CHAIN[-1]).steps[0].witness
    assert (wit.x, wit.y) == ((1, 3, 2), (5, 4))
    assert wit.validates(CHAIN[0], CHAIN[1])

    single = element_of((1,), 1)
    wit = shift_path(single, single).steps[0].witness
    assert wit.validates(single, single) and wit.x == (1,) and wit.y == ()

    down = element_of((2, 1), 2)
    wit = shift_path(down, down).steps[0].witness
    assert wit.validates(down, element_of((1, 2), 2))
    assert (wit.x, wit.y) == ((2,), (1,))


def test_shift_path_returns_only_verified_certificates(monkeypatch):
    # one witness rejected by verify(): the chain is built, then refused
    real = ShiftWitness.validates
    rejected = CHAIN[3]
    monkeypatch.setattr(ShiftWitness, "validates",
                        lambda self, pre, post: pre != rejected and real(self, pre, post))
    with pytest.raises(InternalError, match="^certificate failed re-verification$"):
        shift_path(CHAIN[0], CHAIN[-1])
    # a witness that does not read its pre tree fails at its own step
    monkeypatch.undo()
    real_step = pathsynth.induction_step

    def corrupted(*args):
        witness, tag = real_step(*args)
        return ShiftWitness(witness.x[:-1], witness.y), tag

    monkeypatch.setattr(pathsynth, "induction_step", corrupted)
    with pytest.raises(InternalError, match=r"^step 1 \(case3\): "):
        shift_path(CHAIN[0], CHAIN[-1])


def test_a_failing_step_is_not_shared(monkeypatch):
    # the invariants fail at one (target, h, T_{h+1}) with h >= 1 that
    # several but not all sources reach, at n = 4: the suite reports each
    # of those sources, and only them
    keys = keys_with_evaluation((1,) * 4)
    reached = Counter()
    for key in keys:
        target = SylvElement(4, key)
        for source in keys:
            for h, step in enumerate(shift_path(SylvElement(4, source), target).steps[1:], 1):
                reached[key, h, step.post.key] += 1
    (key, h, post), count = next(item for item in reached.most_common() if item[1] < len(keys))
    assert count > 1
    real = pathsynth.verify_step_invariants
    monkeypatch.setattr(
        pathsynth, "verify_step_invariants",
        lambda t, goal, tops: (goal[0], tops[-1], t[0]) != (key, h, post) and real(t, goal, tops))
    failures = []
    for source in keys:
        try:
            shift_path(SylvElement(4, source), SylvElement(4, key))
        except InternalError as exc:
            failures.append(f"path {word_str(source)} -> {tree_str(key)}: {exc}")
    rep = suites.suite_path(4)
    assert len(failures) == count
    assert rep.failures == failures
    assert all(f": step {h} (" in f and f.endswith("): chain invariants fail afterwards")
               for f in failures)


def test_path_pool_has_no_more_workers_than_work_items(monkeypatch):
    # fork starts every worker of a pool at once: --jobs 5000 on 8 work
    # items (one target each at n <= 3) must ask for 8, or for the CPU
    # count when that is lower
    import concurrent.futures
    import os

    sizes = []

    class InProcess:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    want = suites.suite_path(3).render()
    for cpus in (3, 64):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert [suites.suite_path(3, jobs).render() for jobs in (5000, 2)] == [want, want]
    assert sizes == [3, 2, 1 + 2 + 5, 2]


def test_path_suite_reports_certificates_that_fail_verify(monkeypatch):
    monkeypatch.setattr(PathCertificate, "verify", lambda self: False)
    rep = suites.suite_path(3)
    # every ordered pair of standard trees with n <= 3: 1 + 2 * 2 + 5 * 5
    assert rep.render().startswith("FAIL path(n<=3)")
    assert len(rep.failures) == 30
    assert all(f.endswith(": certificate failed re-verification") for f in rep.failures)
    assert "  counterexample: path 1 -> 1(_,_): certificate failed re-verification\n" in rep.render()


def test_induction_steps_match_worked_example():
    # y is the canonical reading of T_h with x's block taken out. At step 2
    # the proof's pieces give y = 4123 instead; both read the same pruned
    # tree, so T_3 is the same.
    expected = [
        ((5, 4, 3), (1, 2), "case3"),
        ((5,), (1, 2, 4, 3), "case1"),
        ((4,), (1, 2, 3, 5), "case2b"),
        ((1,), (2, 3, 5, 4), "case4a"),
    ]
    for h, (x, y, tag) in enumerate(expected, start=1):
        wit, got_tag = induction_step(key_sizes(CHAIN[h].key), (U5_KEY, U5_SIZES), h)
        assert (wit.x, wit.y, got_tag) == (x, y, tag)
        assert wit.validates(CHAIN[h], CHAIN[h + 1])


def test_induction_step_refuses_a_symbol_missing_from_the_tree():
    # the target's next node 6 labels no node of the 5-node pre tree
    key = (2, 3, 6, 4, 1)
    with pytest.raises(InternalError, match="step 2: symbol 6 missing from the tree"):
        induction_step(key_sizes(CHAIN[2].key), key_sizes(key), 2)


def test_step_invariants_on_worked_example():
    target = (U5_KEY, U5_SIZES)
    for h in range(1, 6):
        assert verify_step_invariants(key_sizes(CHAIN[h].key), target, visited_tops_by_scan(U5, h))
    # a tree whose root is not the newest built subtree fails
    assert not verify_step_invariants(key_sizes(CHAIN[0].key), target,
                                      visited_tops_by_scan(U5, 1))


def test_shift_path_golden():
    cert = shift_path(element_of(parse_word("13254"), 5), element_of(parse_word("23541"), 5))
    assert [psylv(s.post.key) for s in cert.steps] == CHAIN_TREES[1:]
    assert [s.case_tag for s in cert.steps] == ["base", "case3", "case1", "case2b", "case4a"]
    assert cert.verify()
    text = transcript(cert)
    assert "13254" in text and "[case2b]" in text


def test_paths_build_no_tree(default_recursion_limit):
    # every tree of the chain is a key and its subtree sizes, the library's
    # one tree form: the construction, the re-check, and writing and
    # reading the certificate run at the default recursion limit, on a
    # 32-node pair drawn as the benchmark draws them and on the 300-node
    # chain 1..300 -> 300..1
    rng = random.Random(1)
    pair = []
    for _ in range(2):
        word = list(range(1, 33))
        picked = rng.sample(range(32), 20)
        values = [word[i] for i in picked]
        rng.shuffle(values)
        for i, a in zip(picked, values):
            word[i] = a
        pair.append(element_of(tuple(word), 32))
    chain = (element_of(tuple(range(1, 301)), 300), element_of(tuple(range(300, 0, -1)), 300))
    for source, target in (pair, chain):
        cert = shift_path(source, target)
        assert len(cert) == len(target) and cert.target == target
        assert cert.verify()
        back = certificate_from_obj(json.loads(certificate_json(cert)))
        assert back == cert and back.verify()


def test_case_coverage_through_n6(paths_through_n6):
    seen, missed, *_ = paths_through_n6
    assert missed == []
    assert seen == set(CASE_TAGS)


def test_input_validation():
    with pytest.raises(RankError):
        shift_path(element_of((1,), 1), element_of((1,), 2))
    with pytest.raises(NotStandardError):
        shift_path(element_of((1, 1), 2), element_of((1, 2), 2))
    with pytest.raises(NotStandardError):
        shift_path(element_of((1,), 3), element_of((1, 2), 3))
    with pytest.raises(NotStandardError):
        shift_path(element_of((), 1), element_of((), 1))


def test_malformed_certificate_objects_raise_parse_error():
    # the shapes certificate_obj never writes fail with the library's error
    step = {"step": 0, "case": "base", "pre": "1(_,_)", "post": "1(_,_)", "x": "1", "y": ""}
    assert certificate_from_obj({"rank": 1, "steps": [step]}).verify()
    no_x = {k: v for k, v in step.items() if k != "x"}
    for obj in ({}, {"rank": "2", "steps": [step]}, [step], {"rank": 2, "steps": "x"},
                {"rank": 2, "steps": [no_x]}, {"rank": 2, "steps": []}):
        with pytest.raises(ParseError):
            certificate_from_obj(obj)


def test_tampered_certificates_fail():
    from sylvshift.pathsynth import PathCertificate, PathStep, certificate_obj

    cert = shift_path(element_of(parse_word("13254"), 5), element_of(parse_word("23541"), 5))
    assert not PathCertificate(()).verify()

    # break one witness
    obj = certificate_obj(cert)
    obj["steps"][2]["x"] = "55"
    assert not certificate_from_obj(obj).verify()

    # a witness symbol beyond the rank reads no element of it
    obj = certificate_obj(cert)
    obj["steps"][2]["x"] = "9"
    assert not certificate_from_obj(obj).verify()

    # a pre tree of another shape with the same postfix reading: the left
    # chain of that reading breaks the search order
    obj = certificate_obj(cert)
    chain = None
    for label in cert.steps[3].pre.key:
        chain = Node(label, chain)
    assert [label for label, _ in postfix(chain)] == list(cert.steps[3].pre.key)
    assert node_tree_str(chain) != obj["steps"][3]["pre"]
    obj["steps"][3]["pre"] = node_tree_str(chain)
    with pytest.raises(ParseError):
        certificate_from_obj(obj)
    with pytest.raises(ValueError):
        canonical_reading(chain)

    # an edge joins two elements of one monoid: the same keys at another
    # rank do not chain into a certificate
    base, step = shift_path(element_of((1, 2), 2), element_of((2, 1), 2)).steps
    mid = SylvElement(3, base.post.key)
    assert PathCertificate((base, step)).verify()
    assert not PathCertificate((base._replace(post=mid), step._replace(pre=mid))).verify()

    # break the chaining
    steps = list(cert.steps)
    steps[1] = PathStep(steps[0].pre, steps[1].witness, steps[1].post, steps[1].case_tag)
    assert not PathCertificate(tuple(steps)).verify()

    # drop a step
    assert not PathCertificate(cert.steps[1:]).verify()


def test_verify_accepts_any_valid_chain():
    # n trivial shifts from t to itself: a valid n-step chain the construction
    # never builds, since its invariants fail on t after the first step
    t = CHAIN[0]
    trivial = PathStep(t, ShiftWitness(t.key, ()), t, "base")
    assert not verify_step_invariants(t.tree, t.tree, visited_tops_by_scan(psylv(t.key), 1))
    assert PathCertificate((trivial,) * 5).verify()
    assert not PathCertificate((trivial,) * 4).verify()
    untagged = PathStep(t, trivial.witness, t, "case5")
    assert not PathCertificate((trivial,) * 4 + (untagged,)).verify()


def test_occurs_refuses_each_mismatch():
    from sylvshift.pathsynth import _occurs

    # 2 over its left child 1, and 1 over its right child 2
    t12, t21 = key_sizes((1, 2)), key_sizes((2, 1))
    assert _occurs(t12, 1, t12, 1) and _occurs(t12, 1, key_sizes((2,)), 0)
    assert not _occurs(t12, 1, t21, 1)  # the labels differ
    assert not _occurs(key_sizes((1,)), 0, t21, 1)  # no right child where the pattern has one
    assert not _occurs(key_sizes((2,)), 0, t12, 1)  # no left child where the pattern has one


def test_step_invariants_refuse_a_top_that_is_not_the_targets_subtree():
    # t's root 2 is the target's, but its right subtree holds 3 over 4,
    # where the target's holds 4 over 3
    t, target = key_sizes((1, 3, 4, 2)), key_sizes((1, 4, 3, 2))
    assert verify_step_invariants(target, target, [3])
    assert not verify_step_invariants(t, target, [3])


def test_step_invariants_match_the_tree_oracle_off_the_chain():
    # every standard tree with n <= 5 against every target's stack of
    # topmost visited nodes after each step, chain state or not
    verdicts = Counter()
    for n in range(1, 6):
        trees = standard_trees(n)
        for u in trees:
            subtrees = [complete_subtree(u, loc) for _, loc in postfix(u)]
            target = key_sizes(canonical_reading(u))
            for h in range(1, n + 1):
                tops = visited_tops_by_scan(u, h)
                patterns = [subtrees[p] for p in reversed(tops)]
                for t in trees:
                    got = verify_step_invariants(key_sizes(canonical_reading(t)), target, tops)
                    verdicts[got, step_invariants_by_tree(t, patterns)] += 1
    assert verdicts == {(True, True): 807, (False, False): 8881}


def test_example_path_suite_reports_a_step_off_the_worked_chain(monkeypatch):
    # the same ends, with the worked chain's second tree swapped for another
    monkeypatch.setattr(suites, "EXAMPLE_CHAIN",
                        ("13254", "54132", "12345", "41235", "12354", "23541"))
    assert suites.suite_example_path().render() == (
        "FAIL example-path: 5-step chain matches the worked example and all edges validate\n"
        "  counterexample: step 1: got 3(2(1(_,_),_),4(_,5(_,_))), "
        "want 5(4(3(2(1(_,_),_),_),_),_)")


def test_path_suite_reports_cases_never_exercised(monkeypatch):
    monkeypatch.setattr(suites, "CASE_TAGS", CASE_TAGS + ("case5",))
    assert suites.suite_path(4).render() == (
        "FAIL path(n<=4): 226 ordered pairs, cases seen: "
        "['base', 'case1', 'case2a', 'case2b', 'case3', 'case4a', 'case4b']\n"
        "  counterexample: cases never exercised: ['case5']")
