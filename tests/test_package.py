import os
import pickle
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sylvshift
from sylvshift import cocharge_lower_bound, component, element_of, shift_path, trees
from sylvshift.cli import main
from sylvshift.cocharge import cochseq_gap, cochseq_word
from sylvshift.graph import distance

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_imports_are_exported():
    block = re.search(r"from sylvshift import \(([^)]*)\)", README.read_text())
    names = re.findall(r"\w+", block.group(1))
    assert names
    assert set(names) <= set(sylvshift.__all__)
    assert all(hasattr(sylvshift, name) for name in sylvshift.__all__)


# README command lines whose comment is their first line of output
README_OUTPUTS = ("tree 5451761524", "eval 5451761524 -n 7", "multiply 1 2", "cochseq 1246375",
                  "distance -n 5 12345 54321", "diameter --standard -n 5")


def test_readme_command_block_runs(capsys):
    # every line of the block under "Command line" exits 0, and those in
    # README_OUTPUTS print their comment as their first line
    block = re.search(r"## Command line\n+```\n(.*?)```", README.read_text(), re.S).group(1)
    runs = {}
    for line in block.splitlines():
        if line.startswith("sylvshift "):
            command, _, comment = line.removeprefix("sylvshift ").partition("#")
            runs[command.strip()] = comment.strip()
    assert len(runs) == 13 and set(README_OUTPUTS) <= set(runs)
    for command, comment in runs.items():
        assert main(shlex.split(command)) == 0, command
        out = capsys.readouterr().out
        if command in README_OUTPUTS:
            assert out.splitlines()[0] == comment, command


def test_readme_library_block_runs():
    # the block under "Library" runs as written, and its comments' claims hold
    block = re.search(r"## Library\n+```python\n(.*?)```", README.read_text(), re.S).group(1)
    names = {}
    exec(block, names)
    t, u, g, cert = names["t"], names["u"], names["g"], names["cert"]
    assert t.key == (1, 3, 2, 5, 4) and "# (1, 3, 2, 5, 4)" in block
    assert names["tree_str"](t.key) == "4(2(1(_,_),3(_,_)),5(_,_))"
    assert "# 4(2(1(_,_),3(_,_)),5(_,_))" in block
    assert t.tree == (t.key, [(0, 0), (0, 0), (1, 1), (0, 0), (3, 1)])
    assert names["cochseq_word"](u.key) == (0, 1, 1, 1, 2) and "# (0, 1, 1, 1, 2)" in block
    assert names["cocharge_lower_bound"](t.tree, u.tree) == 1 and "# 1, a lower bound" in block
    assert len(g.vertices) == 42 and g.edge_count() == 170 and "# 42 vertices, 170 edges" in block
    d, (a, b) = names["diameter"](g)
    assert d == 4 and (a.key, b.key) == ((1, 2, 3, 4, 5), (4, 3, 2, 1, 5))
    assert "keys 12345 and 43215" in block
    assert cert.verify()


def test_runtime_imports_only_the_standard_library():
    # -I drops PYTHONPATH and the user site, so the package's own directory
    # goes on sys.path by hand; modules the interpreter loads at startup
    # (site hooks included) are not the package's and are left out. -I also
    # ignores PYTHONDONTWRITEBYTECODE, so -B keeps __pycache__ out of src/.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(sylvshift.__file__).parents[1])!r})\n"
        "before = set(sys.modules)\n"
        "import importlib, pkgutil, sylvshift\n"
        "for m in pkgutil.iter_modules(sylvshift.__path__):\n"
        "    importlib.import_module('sylvshift.' + m.name)\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout.split()
    assert "sylvshift.cli" in out and "sylvshift.verify" in out
    tops = {name.partition(".")[0] for name in out}
    # multiprocessing also registers __main__ under the alias __mp_main__
    assert sorted(tops - {"sylvshift", "__mp_main__"} - set(sys.stdlib_module_names)) == []


def test_python_dash_m_runs_the_cli():
    src = str(Path(sylvshift.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "sylvshift", "tree", "132"], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0
    assert done.stdout == "2(1(_,_),3(_,_))\n"


def test_value_types_are_immutable_picklable_and_keep_their_repr():
    s = element_of((3, 1, 2), 3)
    cached = element_of((3, 1, 2), 3)
    tree = cached.tree
    cert = shift_path(element_of((1, 2), 2), element_of((2, 1), 2))
    step = cert.steps[1]
    reprs = [
        (s, "SylvElement(rank=3, key=(1, 3, 2))"),
        (cached, "SylvElement(rank=3, key=(1, 3, 2))"),
        (step.witness, "ShiftWitness(x=(1,), y=(2,))"),
        (step, "PathStep(pre=SylvElement(rank=2, key=(1, 2)), witness=ShiftWitness(x=(1,), "
               "y=(2,)), post=SylvElement(rank=2, key=(2, 1)), case_tag='case4a')"),
        (cert, "PathCertificate(steps=(PathStep(pre=SylvElement(rank=2, key=(1, 2)), "
               "witness=ShiftWitness(x=(1, 2), y=()), post=SylvElement(rank=2, key=(1, 2)), "
               "case_tag='base'), " + repr(step) + "))"),
    ]
    fields = {"SylvElement": ("rank", "key"), "ShiftWitness": ("x", "y"),
              "PathStep": ("pre", "witness", "post", "case_tag"),
              "PathCertificate": ("steps",)}
    for value, text in reprs:
        assert repr(value) == text
        for name in fields[type(value).__name__]:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value) and copy == value and repr(copy) == text
    # an element holds its rank and key only; its tree is computed on each read
    assert tree == ((1, 3, 2), [(0, 0), (0, 0), (1, 1)])
    assert not hasattr(s, "__dict__") and cached.tree is not tree
    assert pickle.loads(pickle.dumps(cached)).tree == tree == s.tree
    assert len(s) == len(s.key) == 3 and len(cert) == len(cert.steps) == 2
    assert s * s == element_of((1, 3, 2, 1, 3, 2), 3)
    # an element multiplies only by an element: no tuple repetition or
    # concatenation on either side
    for product in (lambda: 2 * s, lambda: s * 2, lambda: s + s, lambda: (1, 2) + s):
        with pytest.raises(TypeError):
            product()


def test_namedtuple_helpers_keep_the_value_types_checked():
    # _replace and _make work on every certificate, not only on one-step ones
    cert = shift_path(element_of((1, 2), 2), element_of((2, 1), 2))
    assert len(cert) == 2
    assert cert._replace(steps=cert.steps) == cert == type(cert)._make([cert.steps])
    # an element's _replace checks its rank and inserts its key, as
    # SylvElement(rank, key) does
    s = element_of((1, 3, 2), 3)
    replaced = s._replace(key=(3, 1, 2))
    assert replaced == element_of((3, 1, 2), 3)
    assert replaced.key in sylvshift.component((1, 1, 1), 3).index
    with pytest.raises(sylvshift.RankError):
        s._replace(key=(1, 5))


def test_deep_trees_pickle(default_recursion_limit):
    # an element pickles as its rank and key, and its tree as that key and
    # a flat list of subtree sizes, so a 5000-node chain goes through
    # pickle at the default recursion limit
    n = 5000
    s = element_of(tuple(range(1, n + 1)), n)
    chain = s.tree
    assert pickle.loads(pickle.dumps(s)) == s
    copy = pickle.loads(pickle.dumps(chain))
    assert copy == chain and copy is not chain


def test_the_library_has_one_tree_form():
    # an element's tree is its key and subtree sizes, the form in which a
    # caller hands two trees to cocharge_lower_bound; the bound is then the
    # gap of the keys' sequences and never exceeds the trees' distance
    for n in range(1, 6):
        g = component((1,) * n, n)
        for s in g.vertices:
            assert s.tree == trees.key_sizes(s.key)
            for t in g.vertices:
                bound = cocharge_lower_bound(s.tree, t.tree)
                assert bound == cochseq_gap(cochseq_word(s.key), cochseq_word(t.key))
                assert bound <= distance(g, s, t)
    # and no module offers a second tree type or a second insertion
    for module in (sylvshift, trees):
        assert {"Node", "Bst", "psylv", "canonical_reading"} & set(vars(module)) == set()
    assert not hasattr(sylvshift.cocharge, "cochseq_tree")


def test_import_loads_no_heavy_module():
    # The same interpreter bare and after `import sylvshift`: modules that
    # site preloads show in both runs and are not the package's.
    src = str(Path(sylvshift.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def modules(code: str) -> set[str]:
        code += "\nimport sys\nprint('\\n'.join(sys.modules))"
        return set(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  check=True, timeout=60, env=env).stdout.split())

    added = modules("import sylvshift") - modules("pass")
    assert "sylvshift.pathsynth" in added
    assert added & {"dataclasses", "inspect", "json", "concurrent.futures"} == set()


def test_verify_loads_no_heavy_module():
    # A verify suite's parameters are read from its code object, so a
    # suite that needs no pool starts without inspect or the process pool.
    # -X importtime lists on stderr every module the command imports.
    src = str(Path(sylvshift.__file__).parents[1])
    cmd = [sys.executable, "-X", "importtime", "-m", "sylvshift", "verify", "example-path"]
    run = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.startswith("PASS example-path")
    loaded = {line.rpartition("|")[2].strip() for line in run.stderr.splitlines()}
    assert "sylvshift.verify" in loaded
    assert loaded & {"dataclasses", "inspect", "concurrent.futures"} == set()
