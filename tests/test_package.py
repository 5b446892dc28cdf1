import os
import re
import subprocess
import sys
from pathlib import Path

import sylvshift

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_imports_are_exported():
    block = re.search(r"from sylvshift import \(([^)]*)\)", README.read_text())
    names = re.findall(r"\w+", block.group(1))
    assert names
    assert set(names) <= set(sylvshift.__all__)
    assert all(hasattr(sylvshift, name) for name in sylvshift.__all__)


def test_runtime_imports_only_the_standard_library():
    # -I drops PYTHONPATH and the user site, so the package's own directory
    # goes on sys.path by hand; modules the interpreter loads at startup
    # (site hooks included) are not the package's and are left out.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(sylvshift.__file__).parents[1])!r})\n"
        "before = set(sys.modules)\n"
        "import importlib, pkgutil, sylvshift\n"
        "for m in pkgutil.iter_modules(sylvshift.__path__):\n"
        "    importlib.import_module('sylvshift.' + m.name)\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
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
