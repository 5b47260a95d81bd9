import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import conftest
import lindbladsim


def test_star_import_resolves_every_exported_name():
    # a name in __all__ that the package does not bind makes the import raise
    namespace = {}
    exec("from lindbladsim import *", namespace)
    assert set(lindbladsim.__all__) <= namespace.keys()
    assert len(set(lindbladsim.__all__)) == len(lindbladsim.__all__)


MODULES = {m.name: importlib.import_module(f"lindbladsim.{m.name}")
           for m in pkgutil.iter_modules(lindbladsim.__path__)}


def readme_spans():
    """Backticked spans of README.md, fenced code blocks left out."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))


def test_readme_module_references_resolve():
    # every module.name the README names, such as numerics.expm, exists
    refs = [m.groups() for span in readme_spans()
            for m in re.finditer(r"(?<![\w.])(\w+)\.(\w+)", span) if m[1] in MODULES]
    assert ("numerics", "expm") in refs
    assert [f"{mod}.{name}" for mod, name in refs if not hasattr(MODULES[mod], name)] == []


def test_readme_identifiers_resolve():
    # every bare identifier with an underscore, or the callee of a call, lives in the
    # package or in the tests' conftest
    names = {m[1] for span in readme_spans()
             if (m := re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?", span, flags=re.S)) and "_" in m[1]}
    assert "verify_plan" in names
    owners = [*MODULES.values(), conftest]
    assert sorted(n for n in names if not any(hasattr(o, n) for o in owners)) == []


ROOT = Path(__file__).resolve().parents[1]


def names_used(path):
    """Names a Python file uses in code: Name and Attribute nodes and import aliases."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_definition_has_a_caller_outside_the_tests():
    # an oracle that only tests use lives in tests/conftest.py; the package's own
    # re-exports in __init__.py do not count as a use
    package = ROOT / "src" / "lindbladsim"
    modules = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    defined = {node.name for path in modules for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"}
    callers = [*modules, *sorted((ROOT / "bench").glob("*.py")),
               *sorted((ROOT / "scripts").glob("*.py"))]
    used = {name for path in callers for name in names_used(path)}
    assert "simulate" in defined and "simulate" in used
    assert sorted(defined - used) == []


# a fresh interpreter's import of the package and its CLI, and a first simulate at d = 2:
# the start-up a user pays before any run, as the benchmark's setup_s times it
FIRST_RUN = """
import sys
sys.path.insert(0, {src!r})
import numpy as np
import lindbladsim, lindbladsim.cli
from lindbladsim.lindblad import DiagonalGenerator, from_diagonal
g = from_diagonal(DiagonalGenerator(d=2, H=np.zeros((2, 2)), terms=((1.0, [[0, 1], [0, 0]]),)))
lindbladsim.simulate(g, lindbladsim.maximally_mixed(2), 0.5, 1e-3)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_a_first_run_loads_no_scipy():
    # scipy is a test dependency only; importing scipy.linalg alone takes about three
    # times what the import and first run above take without it
    code = FIRST_RUN.format(src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "[]"
