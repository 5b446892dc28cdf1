import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sylvshift
from sylvshift import pathsynth
from sylvshift import verify as suites
from sylvshift.cli import build_parser, main
from sylvshift.graph import ShiftWitness
from sylvshift.monoid import SylvElement
from sylvshift.pathsynth import PathCertificate, certificate_from_obj
from sylvshift.trees import parse_tree, psylv
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
    assert parse_tree(obj["tree"]) == psylv(parse_word(obj["word"]))


def test_dotted_words(capsys):
    code, out, _ = run(capsys, "tree", "1.3.12.5")
    assert code == 0 and "12(" in out


def test_cochseq(capsys):
    code, out, _ = run(capsys, "cochseq", "1246375")
    assert code == 0 and out.strip() == "0 0 0 1 1 2 2"
    code, out, _ = run(capsys, "cochseq", "1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "cochseq", "4321")
    assert code == 0 and out.strip() == "0 1 2 3"


def test_eval_readings_equal_multiply(capsys):
    code, out, _ = run(capsys, "eval", "5451761524", "-n", "7")
    assert code == 0 and out.strip() == "2,1,0,2,3,1,1"

    code, out, _ = run(capsys, "readings", "132")
    assert code == 0 and out.strip().splitlines() == ["132", "312"]

    code, out, _ = run(capsys, "equal", "312", "132", "--rewrite")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "equal", "12", "21")
    assert code == 0 and out.strip() == "false"

    code, out, _ = run(capsys, "multiply", "1", "2")
    assert code == 0 and out.strip() == "2(1(_,_),_)"
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
        assert psylv(y + x) == parse_tree(n["tree"])


def test_component_and_diameter(capsys):
    code, out, _ = run(capsys, "component", "-n", "2", "--eval", "1,1")
    assert code == 0 and "2 vertices, 1 edges, connected" in out

    code, out, _ = run(capsys, "diameter", "--standard", "-n", "3")
    assert code == 0 and out.strip().startswith("2")

    code, out, _ = run(capsys, "component", "-n", "3", "--standard", "--format", "tsv")
    cols = out.strip().split("\t")
    assert cols[0] == "1,1,1" and cols[1] == "5"

    code, out, _ = run(capsys, "component", "-n", "2", "--eval", "1,1", "--format", "dot")
    assert code == 0 and out.startswith("graph")


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
    assert code == 0 and int(out.strip()) >= 4


def test_path_text_and_json(capsys):
    code, out, _ = run(capsys, "path", "13254", "23541", "--check")
    assert code == 0
    assert "[base]" in out and "23541" in out

    code, out, _ = run(capsys, "path", "13254", "23541", "--format", "json")
    cert = certificate_from_obj(json.loads(out))
    assert cert.verify()
    assert len(cert.steps) == 5

    code, out, _ = run(capsys, "path", "1", "1")
    assert code == 0 and "T1" in out


def test_path_between_long_chains(capsys):
    up = ".".join(str(a) for a in range(1, 301))
    down = ".".join(str(a) for a in range(300, 0, -1))
    code, out, _ = run(capsys, "path", up, down, "-n", "300", "--check", "--format", "json")
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
                               ("oracle", "--rank", "0"),
                               ("cocharge-shift", "--maxlen", "0"),
                               ("connectivity", "--rank", "0"),
                               ("all", "--n", "1")):
        code, out, err = run(capsys, "verify", suite, flag, value)
        assert code == 2 and out == "" and f"at {flag} {value}" in err
        assert suite == "all" or f"suite {suite} " in err
    for suite, flag in (("connectivity", "--maxlen"), ("monoid", "--rank"),
                        ("monoid", "--maxlen")):
        code, out, _ = run(capsys, "verify", suite, flag, "0")
        assert code == 0 and out.startswith(f"PASS {suite}")

    for command in ("component", "diameter"):
        for argv in ([command, "-n", "2"], [command, "-n", "2", "--eval", "1,1", "--standard"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
    capsys.readouterr()


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

    code, _, _ = run(capsys, "path", "13254", "23541", "--check")
    assert code == 0
    monkeypatch.setattr(PathCertificate, "verify", lambda self: False)
    code, out, err = run(capsys, "path", "13254", "23541", "--check")
    assert code == 5 and out == ""
    assert err.strip() == "internal error: certificate failed re-verification"


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


def test_jobs_flag(capsys):
    code, out, _ = run(capsys, "verify", "path", "--depth", "3", "--jobs", "2")
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
