import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sylvshift
from sylvshift import graph, pathsynth
from sylvshift import verify as suites
from sylvshift.cli import SIZE_FLAGS, build_parser, main
from sylvshift.graph import ShiftWitness
from sylvshift.monoid import SylvElement
from sylvshift.pathsynth import PathCertificate, certificate_from_obj
from sylvshift.trees import parse_tree, psylv_key
from sylvshift.words import parse_word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tree_golden(capsys):
    code, out, _ = run(capsys, "tree", "5451761524")
    assert code == 0
    assert out.strip() == "4(2(1(1(_,_),_),4(_,_)),5(5(5(_,_),_),6(_,7(_,_))))"


def test_tree_empty_and_formats(capsys):
    code, out, _ = run(capsys, "tree", "")
    assert code == 0 and out.strip() == "_"
    code, out, _ = run(capsys, "tree", "132", "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run(capsys, "tree", "132", "--format", "art")
    assert code == 0 and "2" in out


def test_tree_json_roundtrip(capsys):
    code, out, _ = run(capsys, "tree", "13254", "--format", "json")
    obj = json.loads(out)
    assert parse_tree(obj["tree"]) == psylv_key(parse_word(obj["word"]))


def test_dotted_words(capsys):
    code, out, _ = run(capsys, "tree", "1.3.12.5")
    assert code == 0 and "12(" in out


def test_cochseq(capsys):
    code, out, _ = run(capsys, "cochseq", "1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "cochseq", "4321")
    assert code == 0 and out.strip() == "0 1 2 3"


def test_eval_readings_equal_multiply(capsys):
    code, out, _ = run(capsys, "readings", "132")
    assert code == 0 and out.strip().splitlines() == ["132", "312"]

    code, out, _ = run(capsys, "equal", "312", "132", "--rewrite")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "equal", "12", "21")
    assert code == 0 and out.strip() == "false"

    code, out, _ = run(capsys, "multiply", "2", "1")
    assert code == 0 and out.strip() == "1(_,2(_,_))"


def test_neighbors(capsys):
    code, out, _ = run(capsys, "neighbors", "12", "-n", "2")
    assert code == 0
    assert {line.split()[0] for line in out.strip().splitlines()} == {"12", "21"}
    code, out, _ = run(capsys, "neighbors", "13254", "--format", "json")
    obj = json.loads(out)
    readings = {n["reading"] for n in obj["neighbors"]}
    assert "15432" in readings  # the tree of 54132
    for n in obj["neighbors"]:
        x, y = parse_word(n["x"]), parse_word(n["y"])
        assert psylv_key(y + x) == parse_tree(n["tree"])


def test_component_and_diameter(capsys):
    code, out, _ = run(capsys, "component", "-n", "2", "--eval", "1,1")
    assert code == 0 and "2 vertices, 1 edges, connected" in out

    code, out, _ = run(capsys, "diameter", "--standard", "-n", "3")
    assert code == 0 and out.strip().startswith("2")

    code, out, _ = run(capsys, "diameter", "-n", "3", "--standard", "--format", "tsv")
    cols = out.strip().split("\t")
    assert cols[0] == "1,1,1" and cols[1] == "5"

    code, out, _ = run(capsys, "component", "-n", "2", "--eval", "1,1", "--format", "dot")
    assert code == 0 and out.startswith("graph")


def test_tsv_rows_compute_the_diameter_once(monkeypatch, capsys):
    from sylvshift import cli, graph

    calls = []
    real = graph.diameter

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graph, "diameter", counted)
    monkeypatch.setattr(cli, "diameter", counted)
    code, out, _ = run(capsys, "diameter", "--standard", "-n", "7", "--format", "tsv")
    assert code == 0 and out == "1,1,1,1,1,1,1\t429\t5138\t6\t1234567\t6543217\n"
    assert len(calls) == 1
    # The row is the diameter's, so `component` has no TSV format.
    with pytest.raises(SystemExit) as exc:
        main(["component", "--standard", "-n", "7", "--format", "tsv"])
    assert exc.value.code == 2 and capsys.readouterr().out == "" and len(calls) == 1


def test_labels_too_long_to_convert_exit_2(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integer strings of any length")
    long = "1" * (limit + 1)
    for argv in (["tree", "." + long], ["equal", "1", "." + long]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: label of {limit + 1} digits is too long to read\n"
    # an integer flag that long is refused by its parser, as a malformed one is
    for flag, low in (("--max-vertices", 1), ("-n", 0)):
        with pytest.raises(SystemExit) as exc:
            main(["component", "--eval", "1,1", flag, long])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {'-n/--rank' if flag == '-n' else flag}: "
            f"expected an integer >= {low}, got '{long}'\n")


def test_tree_drawings_too_large_exit_3(capsys):
    chain = ".".join(map(str, range(1, 100_001)))
    code, out, err = run(capsys, "tree", chain, "--format", "art")
    assert code == 3 and out == ""
    assert err == "error: rendered characters exceeded cap of 20000000\n"
    code, out, _ = run(capsys, "tree", chain)
    assert code == 0 and out.startswith("100000(99999(")


# sha256 of the full stdout of `component` with witnessed edges, pinned
# when each edge still stored its witness: recomputing them per source
# vertex must reproduce every vertex, edge and x|y split byte for byte.
COMPONENT_GOLDENS = [
    (("-n", "5", "--eval", "2,1,2,1,2", "--format", "json"),
     "0c8221ac0b084e705c0902a9538dcbbc398035a4ea9472ed0290afe014fe6b43"),
    (("-n", "5", "--eval", "2,1,2,1,2", "--format", "dot"),
     "2a5c79a32f78fd243f2992508be0f1c5b551ca360c867b91c2a887081f1f9c91"),
    (("-n", "6", "--standard", "--format", "json"),
     "73e360261fb7626abe9e7d14d204f5a2b5ed767a36d739f4ad032794a49f3a01"),
    (("-n", "6", "--standard", "--format", "dot"),
     "a4080ba42c2e2993d642d0092e9fb23b5af9a82a02b2737ce6deef81720e13dc"),
]


@pytest.mark.parametrize("argv, digest", COMPONENT_GOLDENS)
def test_component_output_golden(capsys, argv, digest):
    code, out, _ = run(capsys, "component", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the full stdout of commands that print trees, pinned while
# trees were still rendered by walking nodes: rendering from key positions
# must reproduce every tree, reading and witness byte for byte.
TREE_GOLDENS = [
    (("tree", "5451761524"),
     "ab8b73381ca057343312513450d4813fa4edeec07ea3d43c573f9557523f2fda"),
    (("tree", "5451761524", "--format", "art"),
     "81a62d5841354e7eceac61842740ad01abe8692fda5b6aec13bb2f10d818644f"),
    (("tree", "5451761524", "--format", "dot"),
     "0ccb57f3cfd255e42851d78ffd68b38fbf68d66d30146fee6dae07a329af6ccb"),
    (("tree", "5451761524", "--format", "json"),
     "781e04067fe40f18c29ef38497a9a91317c34d95868880cc59af432081a3d903"),
    (("tree", "1.3.12.5", "--format", "dot"),
     "1cbc36f9094a758e77b0ad413b2430c80a61cf6083b383bd7416bd2c20e44082"),
    (("tree", ""),
     "4415b7e361fc6f6ba2492adef1f27cfb00d0105e4588177470cecc4214b35284"),
    (("readings", "5451761524"),
     "97cf0a76e0d39b95fb3d66d37b14043eed449aa1de1864df02a5a95b383fda05"),
    (("readings", "5451761524", "--format", "json"),
     "f338789962336d3a648c7fe75a55e68e45fede109320927b553c3107d5cfb6c1"),
    (("component", "-n", "5", "--eval", "2,1,2,1,2", "--format", "dot", "--tree-labels"),
     "648643647456060299181ae9570de2a5ce2301f67cd95b8dc5341001fa392933"),
    (("component", "-n", "6", "--standard", "--format", "dot", "--tree-labels"),
     "3b17dda05e8d544b493e8bcf2dabb3cc39d3a76b50a3b317d5eb1b537e813c47"),
    (("path", "13254", "23541"),
     "0d5250bdbd5a4969abb7a2e578774a4aa1e54bdaac92c02f9db8836da4c4b724"),
    (("neighbors", "5451761524", "--format", "json"),
     "120e0552c895868d7b0e06582cfadf111caadc5da0c4e5ebad2db8fcac03185e"),
    (("multiply", "2143", "3412", "--format", "json"),
     "d5b0ea860510f512218d72c1d51f202ced30f50fb38251a3590c3c166a5c1fc4"),
]


@pytest.mark.parametrize("argv, digest", TREE_GOLDENS)
def test_tree_output_golden(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_component_json_with_raised_reading_cap(capsys):
    # a vertex of (11, 11) has 352716 readings: over the default cap, under
    # the raised one, which the recomputed witnesses must use too
    code, _, err = run(capsys, "component", "--eval", "11,11", "--format", "json")
    assert code == 3 and "cap" in err
    code, out, _ = run(capsys, "component", "--eval", "11,11", "--max-readings", "400000",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 12 and doc["connected"]
    vertices = [SylvElement(2, parse_word(v)) for v in doc["vertices"]]
    for edge in doc["edges"]:
        wit = ShiftWitness(parse_word(edge["x"]), parse_word(edge["y"]))
        assert edge["a"] < edge["b"]
        assert wit.validates(vertices[edge["a"]], vertices[edge["b"]])


def test_distance(capsys):
    code, out, _ = run(capsys, "distance", "-n", "5", "12345", "54321")
    assert code == 0 and out == "4\n"
    code, out, _ = run(capsys, "distance", "-n", "5", "12345", "54321", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"source": "12345", "target": "54321", "rank": 5, "distance": 4}


def test_distance_searches_without_the_class(monkeypatch, capsys):
    from sylvshift import cli

    def refuse(*args):
        raise AssertionError("distance built the evaluation class")

    monkeypatch.setattr(cli, "component", refuse)
    code, out, _ = run(capsys, "distance", "-n", "5", "12345", "54321")
    assert code == 0 and out == "4\n"
    # one shift apart at n=11, whose class of 58786 trees is past the
    # default --max-vertices: the search discovers a handful of them
    up = ".".join(str(a) for a in range(1, 12))
    shifted = ".".join(str(a) for a in [*range(2, 12), 1])
    code, out, _ = run(capsys, "distance", "-n", "11", up, shifted)
    assert code == 0 and out == "1\n"
    # the discovered vertices are capped, not the class
    code, out, err = run(capsys, "distance", "-n", "5", "12345", "54321", "--max-vertices", "5")
    assert code == 3 and out == "" and "exceeded cap of 5" in err

    # a neighbor function that leaves each element alone: the two words
    # lie in different parts, exit 2
    monkeypatch.setattr(cli, "neighbor_set", lambda key, cap: {key})
    code, out, err = run(capsys, "distance", "12", "21")
    assert code == 2 and out == ""
    assert err.startswith("error: graph is disconnected (2 parts)")


def test_path_text_and_json(capsys):
    code, out, _ = run(capsys, "path", "13254", "23541", "--format", "json")
    cert = certificate_from_obj(json.loads(out))
    assert cert.verify()
    assert len(cert.steps) == 5

    code, out, _ = run(capsys, "path", "1", "1")
    assert code == 0 and "T1" in out


def test_path_between_long_chains(capsys):
    up = ".".join(str(a) for a in range(1, 301))
    down = ".".join(str(a) for a in range(300, 0, -1))
    code, out, _ = run(capsys, "path", up, down, "-n", "300", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["steps"]) == 300


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "example-path")
    assert code == 0 and out.startswith("PASS")


def test_exit_codes(capsys):
    code, _, err = run(capsys, "tree", "1x2")
    assert code == 2 and "error" in err

    code, _, err = run(capsys, "cochseq", "11")
    assert code == 2

    code, _, err = run(capsys, "neighbors", "13254", "--max-readings", "1")
    assert code == 3

    code, _, err = run(capsys, "component", "-n", "3", "--standard", "--max-vertices", "2")
    assert code == 3

    code, _, err = run(capsys, "verify", "no-such-suite")
    assert code == 2

    code, _, err = run(capsys, "distance", "12", "11")
    assert code == 2 and "evaluation" in err

    code, out, err = run(capsys, "eval", "12", "-n", "0")
    assert code == 2 and out == "" and "outside alphabet 1..0" in err

    for argv in (["verify", "diameter-bounds", "--n", "-5"],
                 ["verify", "oracle", "--maxlen", "-2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "expected an integer >= 0" in capsys.readouterr().err

    # a suite whose size flag leaves it nothing to check fails instead of passing
    for suite, flag, value in (("diameter-bounds", "--n", "1"),
                               ("distance-lower-bound", "--n", "1"),
                               ("induced-subgraph", "--n", "1"),
                               ("path", "--n", "0"),
                               ("cocharge-congruence", "--n", "0"),
                               ("oracle", "--maxlen", "0"),
                               ("oracle", "-n/--rank", "0"),
                               ("cocharge-shift", "--maxlen", "0"),
                               ("connectivity", "-n/--rank", "0"),
                               ("all", "--n", "1")):
        code, out, err = run(capsys, "verify", suite, flag.split("/")[-1], value)
        assert code == 2 and out == "" and f"at {flag} {value}" in err
        assert suite == "all" or f"suite {suite} " in err
    for suite, flag in (("connectivity", "--maxlen"), ("monoid", "--rank"),
                        ("monoid", "--maxlen")):
        code, out, _ = run(capsys, "verify", suite, flag, "0")
        assert code == 0 and out.startswith(f"PASS {suite}")
    # and at the least sizes it accepts, each suite runs and passes
    for suite, least in suites.LEAST_SIZES.items():
        argv = [a for param, size in least.items()
                for a in (SIZE_FLAGS[param].split("/")[-1], str(size))]
        code, out, _ = run(capsys, "verify", suite, *argv)
        assert code == 0 and out.startswith(f"PASS {suite}"), argv

    for command in ("component", "diameter"):
        for argv in ([command, "-n", "2"], [command, "-n", "2", "--eval", "1,1", "--standard"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
    capsys.readouterr()
    for command in ("component", "diameter"):
        code, out, err = run(capsys, command, "--standard")
        assert code == 2 and out == "" and err == "error: --standard needs --rank\n"


def test_numbers_follow_the_word_label_rule(capsys):
    # counts and integer flags are decimal digits, as word labels are:
    # Python's signs, spaces and underscores are refused
    code, out, err = run(capsys, "component", "--eval=1_0,+1")
    assert code == 2 and out == ""
    assert err == "error: bad evaluation '1_0,+1', expected e.g. 1,1,0\n"
    code, _, err = run(capsys, "component", "--eval", " 1,1")
    assert code == 2 and "bad evaluation" in err
    for argv in (["verify", "diameter-bounds", "--n", "+3"],
                 ["component", "--standard", "-n", "1_0"],
                 ["component", "--eval", "1,1", "--max-vertices", "1_000"],
                 ["neighbors", "132", "--max-readings", " 4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected an integer >= " in capsys.readouterr().err
    code, out, _ = run(capsys, "component", "--eval", "0,2", "--max-vertices", "1")
    assert code == 0 and out


def test_verify_refuses_a_size_flag_no_named_suite_reads(capsys):
    for argv, flag in ((["diameter-bounds", "-n", "6"], "-n/--rank"),
                       (["example-path", "--n", "9"], "--n"),
                       (["path", "monoid", "--maxlen", "3", "--n", "3"], None),
                       (["cocharge-congruence", "diameter-bounds", "--maxlen", "3"], "--maxlen")):
        code, out, err = run(capsys, "verify", *argv)
        if flag is None:
            assert code == 0 and out.count("PASS") == 2
        else:
            assert code == 2 and out == "" and err.endswith(f" reads {flag}\n")
    # the caps, the budget and --jobs stay optional for every suite
    code, out, _ = run(capsys, "verify", "example-path", "--jobs", "1", "--budget", "5",
                       "--max-readings", "9")
    assert code == 0 and out.startswith("PASS example-path")


def test_verify_reads_the_flags_of_a_wrapped_suite(monkeypatch, capsys):
    # a functools.wraps wrapper, as a tracer installs one, takes *args and
    # **kwargs; the suite it wraps still names the flags verify passes on
    seen = {}

    def wrapped(name):
        real = suites.SUITES[name]

        @functools.wraps(real)
        def wrapper(*args, **kwargs):
            seen[name] = kwargs
            return real(*args, **kwargs)
        return wrapper

    for name in ("oracle", "path"):
        monkeypatch.setitem(suites.SUITES, name, wrapped(name))
    code, out, _ = run(capsys, "verify", "oracle", "--maxlen", "2")
    assert code == 0 and out.startswith("PASS") and seen["oracle"]["maxlen"] == 2
    code, out, _ = run(capsys, "verify", "path", "--n", "2", "--jobs", "2")
    assert code == 0 and out.startswith("PASS") and seen["path"] == {"nmax": 2, "jobs": 2}


def test_main_leaves_the_recursion_limit(default_recursion_limit, capsys):
    code, out, _ = run(capsys, "verify", "connectivity", "-n", "1500", "--maxlen", "0")
    assert code == 0 and out.startswith("PASS")
    assert sys.getrecursionlimit() == 1000


def test_internal_errors_exit_5(monkeypatch, capsys):
    real = pathsynth.induction_step

    def corrupted(*args):
        witness, tag = real(*args)
        return ShiftWitness(witness.x[:-1], witness.y), tag

    with monkeypatch.context() as m:
        m.setattr(pathsynth, "induction_step", corrupted)
        code, out, err = run(capsys, "path", "13254", "23541")
    assert code == 5 and out == ""
    assert err.startswith("internal error: step 1 (case3): ")

    code, _, _ = run(capsys, "path", "13254", "23541")
    assert code == 0
    monkeypatch.setattr(PathCertificate, "verify", lambda self: False)
    for argv in (("path", "13254", "23541"), ("verify", "example-path")):
        code, out, err = run(capsys, *argv)
        assert code == 5 and out == ""
        assert err.strip() == "internal error: certificate failed re-verification"

    real = graph.keys_with_evaluation
    monkeypatch.setattr(graph, "keys_with_evaluation", lambda e: real(e)[1:])
    code, out, err = run(capsys, "component", "-n", "3", "--eval", "1,1,1")
    assert code == 5 and out == ""
    assert err.strip() == ("internal error: listed 4 trees with evaluation (1, 1, 1), "
                           "counted 5")


def test_closed_pipe_exits_cleanly():
    # `component ... | head -1`: the reader leaves after one line of about
    # 187 kB, more than a pipe buffers, so the write fails with EPIPE
    src = Path(sylvshift.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "sylvshift", "component", "--standard", "-n", "7",
           "--format", "dot"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"graph shifts {\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")


def test_closed_pipe_keeps_the_exit_code(monkeypatch):
    failing = suites.SuiteReport("example-path")
    failing.fail("a counterexample")
    monkeypatch.setitem(suites.SUITES, "example-path", lambda: failing)
    r, w = os.pipe()
    os.close(r)
    with open(w, "w") as closed, monkeypatch.context() as m:
        m.setattr(sys, "stdout", closed)
        assert main(["verify", "example-path"]) == 4
        # stdout now points at devnull, so a later write and flush pass
        print("more", file=closed, flush=True)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "t.txt"
    code, out, _ = run(capsys, "tree", "132", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().strip() == "2(1(_,_),3(_,_))"

    code, _, err = run(capsys, "tree", "1", "--out", str(tmp_path / "missing" / "t.txt"))
    assert code == 2 and err.startswith("error: cannot write")


def test_one_parser_keeps_calls_apart(tmp_path, capsys):
    # the parser is built once per process; an option given to one call
    # does not reach the next, which gets the option's default
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "tree", "132", "--format", "json")
    assert code == 0 and json.loads(out)
    code, out, _ = run(capsys, "tree", "132")
    assert code == 0 and out == "2(1(_,_),3(_,_))\n"

    target = tmp_path / "example.txt"
    code, out, _ = run(capsys, "verify", "example-path", "--out", str(target))
    assert code == 0 and out == ""
    written = target.read_text()
    assert written.startswith("PASS example-path")
    code, out, _ = run(capsys, "verify", "example-path")
    assert code == 0 and out == written and target.read_text() == written


def test_jobs_flag(capsys):
    code, out, _ = run(capsys, "verify", "path", "--n", "3", "--jobs", "2")
    assert code == 0 and out.startswith("PASS")


SHARED_FLAGS = {"-n", "--format", "--max-readings", "--max-vertices", "--budget", "--jobs", "--out"}
FLAGS_READ = {
    "tree": {"--format", "--out"},
    "cochseq": {"--format", "--out"},
    "eval": {"-n", "--format", "--out"},
    "multiply": {"-n", "--format", "--out"},
    "path": {"-n", "--format", "--out"},
    "readings": {"--format", "--max-readings", "--out"},
    "neighbors": {"-n", "--format", "--max-readings", "--out"},
    "equal": {"-n", "--format", "--budget", "--out"},
    "component": {"-n", "--format", "--max-readings", "--max-vertices", "--out"},
    "distance": {"-n", "--format", "--max-readings", "--max-vertices", "--out"},
    "diameter": {"-n", "--format", "--max-readings", "--max-vertices", "--out"},
    "verify": {"-n", "--max-readings", "--max-vertices", "--budget", "--jobs", "--out"},
}


def test_each_command_takes_only_the_shared_flags_it_reads(capsys):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {o for a in p._actions for o in a.option_strings if o in SHARED_FLAGS}
           for name, p in sub.choices.items()}
    assert got == FLAGS_READ
    assert sum(len(flags) for flags in got.values()) == 45

    for argv in (["tree", "132", "--jobs", "2"], ["neighbors", "12", "--max-readings", "0"],
                 ["eval", "1", "-n", "-1"], ["verify", "path", "--jobs", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()

    code, out, _ = run(capsys, "verify", "monoid", "--rank", "2", "--maxlen", "2")
    assert code == 0 and out.startswith("PASS monoid(rank=2, len<=2): ")


def test_verify_monoid_states_its_associativity_range(capsys):
    # --maxlen bounds the class pairs only; the triples run to total length 6
    code, out, _ = run(capsys, "verify", "monoid", "--rank", "2", "--maxlen", "0")
    assert code == 0
    assert out == ("PASS monoid(rank=2, len<=0): 1 class pairs multiply consistently; "
                   "2050 triples of total length <= 6 associate\n")


def _neighbor_lines(rows) -> str:
    return "\n".join(f"{r}  (x={x or 'e'}, y={y or 'e'})" for r, x, y in rows)


def _component_text(obj) -> str:
    return (f"evaluation {','.join(map(str, obj['evaluation']))} at rank {obj['rank']}: "
            f"{len(obj['vertices'])} vertices, {len(obj['edges'])} edges, "
            + ("connected" if obj["connected"] else "not connected"))


def _dot_as_component_text(out: str) -> str:
    lines = out.splitlines()
    return (f"evaluation 2,1,2 at rank 3: {sum('[label=' in s and '--' not in s for s in lines)} "
            f"vertices, {sum(' -- ' in s for s in lines)} edges, connected")


# The arguments each command runs with below, and what each of its other
# formats says in the words of its text form (None: a drawing, not read back).
FORMAT_ARGV = {
    "tree": ["5451761524"],
    "cochseq": ["1246375"],
    "eval": ["5451761524", "-n", "7"],
    "readings": ["1324"],
    "equal": ["312", "132"],
    "multiply": ["21", "13"],
    "neighbors": ["13254"],
    "component": ["--eval", "2,1,2"],
    "distance": ["12345", "54321"],
    "diameter": ["--standard", "-n", "4"],
    "path": ["13254", "23541"],
}
AS_TEXT = {
    ("tree", "art"): None,
    ("tree", "dot"): None,
    ("tree", "json"): lambda out: json.loads(out)["tree"],
    ("cochseq", "json"): lambda out: " ".join(map(str, json.loads(out)["cochseq"])),
    ("eval", "json"): lambda out: ",".join(map(str, json.loads(out)["evaluation"])),
    ("readings", "json"): lambda out: "\n".join(json.loads(out)["readings"]),
    ("equal", "json"): lambda out: "true" if json.loads(out)["equal"] else "false",
    ("multiply", "json"): lambda out: json.loads(out)["tree"],
    ("neighbors", "tsv"): lambda out: _neighbor_lines(s.split("\t") for s in out.splitlines()),
    ("neighbors", "json"): lambda out: _neighbor_lines(
        (n["reading"], n["x"], n["y"]) for n in json.loads(out)["neighbors"]),
    ("component", "dot"): _dot_as_component_text,
    ("component", "json"): lambda out: _component_text(json.loads(out)),
    ("distance", "json"): lambda out: str(json.loads(out)["distance"]),
    ("diameter", "tsv"): lambda out: "{3}  ({4} .. {5})".format(*out.rstrip("\n").split("\t")),
    ("diameter", "json"): lambda out: "{}  ({} .. {})".format(
        json.loads(out)["diameter"], *json.loads(out)["pair"]),
    ("path", "json"): lambda out: pathsynth.transcript(certificate_from_obj(json.loads(out))),
}
COMMANDS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
FORMATS = [(name, fmt) for name, p in COMMANDS.choices.items()
           for a in p._actions if a.dest == "format" for fmt in a.choices]


@pytest.mark.parametrize("command, fmt", FORMATS)
def test_every_format_says_what_the_text_form_says(capsys, command, fmt):
    argv = [command, *FORMAT_ARGV[command]]
    code, text, err = run(capsys, *argv)
    assert code == 0 and text and err == ""
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 0 and out and err == ""
    if fmt == "text":
        assert out == text
    elif AS_TEXT[command, fmt]:
        assert AS_TEXT[command, fmt](out) == text.rstrip("\n")
