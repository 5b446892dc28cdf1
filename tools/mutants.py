"""A recorded mutation pass: seeded operator and constant mutants of the
library, each run against the whole tier-1 suite.

    python tools/mutants.py

A site is one comparison, arithmetic, bitwise or augmented-assignment
operator, or one int constant, in a function body of one of MODULES. A
site is named module.function:ordinal, its place among the sites of the
function's AST walk, so an edit to a comment or to another function does
not move it. PER_MODULE sites per module are drawn with random.Random seeded
by SEED and the module's name, so one module's sites never move another's.
Each mutant swaps its operator (SWAPS) or adds 1 to its constant.

Mutants run one at a time, since some tests bound their own time: each
in a fresh temporary copy of src/, tests/, pyproject.toml and README.md
(the checkout is never edited, and no hypothesis database carries over),
as the whole suite with a fixed --hypothesis-seed, a TIMEOUT and at most
MEMORY bytes of address space per process, so that a mutant that loops
while it allocates fails on its own. The unmutated copy runs first and
must pass.

MUTANTS.json records each site's status (killed, survived or timeout)
and the tests that failed on it; no timings, so a re-run shows no diff.
A survivor keeps the "reason" the committed record gives it: why the
mutant is equivalent. Exits 1 when a site the committed record counts
as killed (or timed out) now survives, or when a survivor has no reason.
"""

import ast
import json
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "MUTANTS.json"
MODULES = ("words", "trees", "monoid", "graph", "pathsynth", "cocharge", "verify", "cli")
PER_MODULE = 13
SEED = 2016
HYPOTHESIS_SEED = 0
TIMEOUT = 120
MEMORY = 2 << 30
COPIED = ("src", "tests", "pyproject.toml", "README.md")
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
           ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
           ast.FloorDiv: "//", ast.Div: "/", ast.Mod: "%", ast.Pow: "**",
           ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&", ast.BitOr: "|",
           ast.BitXor: "^"}


def functions(tree):
    """(qualified name, node) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def sites_of(func):
    """(node, op index or None, mutation text) of each site in func's body,
    in walk order; a docstring holds none, being a str constant."""
    for stmt in func.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    yield node, i, f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
                yield node, None, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[SWAPS[type(node.op)]]}"
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                yield node, None, f"{node.value} -> {node.value + 1}"


def all_sites():
    """{site name: mutation text}, PER_MODULE drawn per module, each module
    from a generator seeded by SEED and its own name: a site added to or
    removed from one module redraws that module only."""
    chosen = {}
    for module in MODULES:
        rng = random.Random(f"{SEED}:{module}")
        tree = ast.parse((ROOT / "src" / "sylvshift" / f"{module}.py").read_text())
        found = [(f"{module}.{name}:{k}", text) for name, func in functions(tree)
                 for k, (_, _, text) in enumerate(sites_of(func))]
        chosen.update(rng.sample(found, min(PER_MODULE, len(found))))
    return chosen


def mutate(source, site):
    """source with site's operator swapped or its constant moved by 1. The
    mutated node's own text is replaced by its unparsed form, so every
    other line stays as it was."""
    name, k = site.split(".", 1)[1].rsplit(":", 1)
    tree = ast.parse(source)
    func = dict(functions(tree))[name]
    node, i, _ = list(sites_of(func))[int(k)]
    lines = source.splitlines(keepends=True)
    start = sum(map(len, lines[:node.lineno - 1])) + len(
        lines[node.lineno - 1].encode()[:node.col_offset].decode())
    end = sum(map(len, lines[:node.end_lineno - 1])) + len(
        lines[node.end_lineno - 1].encode()[:node.end_col_offset].decode())
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    text = ast.unparse(node)
    out = source[:start] + (text if isinstance(node, ast.stmt) else f"({text})") + source[end:]
    assert ast.dump(ast.parse(out)) == ast.dump(tree), f"{site} does not mutate in place"
    return out


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run_suite(site=None):
    """('passed' or 'killed' or 'timeout', failed test ids) of one run of
    the suite on a fresh copy, site mutated if given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, Path(tmp) / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / name, tmp)
        if site:
            path = Path(tmp) / "src" / "sylvshift" / f"{site.split('.')[0]}.py"
            path.write_text(mutate(path.read_text(), site))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": "src"}
        cmd = [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", f"--hypothesis-seed={HYPOTHESIS_SEED}"]
        # a session of its own, so that a timeout also ends the suite's children
        with subprocess.Popen(cmd, cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, start_new_session=True, preexec_fn=limit_memory) as run:
            try:
                out = run.communicate(timeout=TIMEOUT)[0]
            except subprocess.TimeoutExpired:
                os.killpg(run.pid, signal.SIGKILL)
                run.communicate()
                return "timeout", []
        failed = sorted({m.group(1) for m in re.finditer(r"^(?:FAILED|ERROR) (\S+)", out, re.M)})
        return ("passed" if run.returncode == 0 else "killed"), failed


def main():
    old = json.loads(RECORD.read_text())["sites"] if RECORD.exists() else {}
    status, failed = run_suite()
    if status != "passed":
        sys.exit(f"the unmutated suite does not pass: {status} {failed}")
    sites = {}
    for n, (site, text) in enumerate(sorted(all_sites().items()), 1):
        status, failed = run_suite(site)
        status = "survived" if status == "passed" else status
        sites[site] = {"mutation": text, "status": status, "killed_by": failed}
        if status == "survived" and "reason" in old.get(site, {}):
            sites[site]["reason"] = old[site]["reason"]
        print(f"{n:3} {site} {text}: {status}", flush=True)
    counts = Counter(r["status"] for r in sites.values())
    record = {"seed": SEED, "per_module": PER_MODULE, "hypothesis_seed": HYPOTHESIS_SEED,
              "counts": dict(sorted(counts.items())), "sites": sites}
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    lost = [s for s, r in sites.items() if r["status"] == "survived"
            and old.get(s, {}).get("status") in ("killed", "timeout")]
    unexplained = [s for s, r in sites.items() if r["status"] == "survived" and "reason" not in r]
    for s in lost:
        print(f"{s}: killed in the committed record, survives now")
    for s in unexplained:
        print(f"{s}: survives with no reason given")
    sys.exit(1 if lost or unexplained else 0)


if __name__ == "__main__":
    main()
