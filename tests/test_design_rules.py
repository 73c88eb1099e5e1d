"""Design rules: numpy.linalg is the test oracle and stays out of the package,
the package imports only the standard library and numpy, and every function
the benchmark's tracer wraps exists."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cho"
TRACER = ROOT / "perfbench" / "tracer.py"


def numpy_linalg_references(source: str) -> list[int]:
    """Line numbers of every reference to numpy.linalg in a module's source."""
    tree = ast.parse(source)
    numpy_names = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "numpy" or alias.name.startswith("numpy.")
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "numpy.linalg" or a.name.startswith("numpy.linalg.")
                   for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if (node.module == "numpy.linalg" or node.module.startswith("numpy.linalg.")
                    or (node.module == "numpy"
                        and any(a.name == "linalg" for a in node.names))):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "linalg"
              and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_does_not_use_numpy_linalg(path):
    assert numpy_linalg_references(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.linalg.eigh(a)",
    "import numpy\nnumpy.linalg.inv(a)",
    "import numpy.linalg",
    "import numpy.linalg as la",
    "from numpy import linalg",
    "from numpy import array, linalg as la",
    "from numpy.linalg import eigvalsh",
    "def f(a):\n    import numpy as xp\n    return xp.linalg.det(a)",
])
def test_every_form_of_reference_is_found(source):
    assert numpy_linalg_references(source) != []


@pytest.mark.parametrize("source", [
    "from . import linalg\nlinalg.jacobi_eigh(s)",
    "from .linalg import leading_principal_minors",
    '"""numpy.linalg is deliberately not used."""',
    "import numpy as np\nnp.array(a)",
])
def test_package_linalg_and_prose_are_not_references(source):
    assert numpy_linalg_references(source) == []


def imported_top_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports in a module's source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    # CI installs numpy, pytest and hypothesis only; sympy or scipy would pass
    # on a machine that has them and fail there
    allowed = set(sys.stdlib_module_names) | {"numpy", "cho"}
    assert imported_top_modules(path.read_text(encoding="utf-8")) - allowed == set()


def test_import_scan_sees_every_form():
    source = ("import sympy\nimport scipy.linalg as sl\nfrom mpmath import mpf\n"
              "from . import linalg\nfrom .errors import ParseError\n"
              "def f():\n    import networkx\n")
    assert imported_top_modules(source) == {"sympy", "scipy", "mpmath", "networkx"}


def traced_names(source: str) -> list[tuple[str, str]]:
    """The (module, function) pairs of the TRACED list in the tracer's source."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED assignment")


def test_every_traced_function_exists():
    # a deletion that leaves a traced name behind breaks the benchmark's --trace 1
    pairs = traced_names(TRACER.read_text(encoding="utf-8"))
    assert pairs
    missing = [f"{module}.{name}" for module, name in pairs
               if not callable(getattr(importlib.import_module(f"cho.{module}"), name, None))]
    assert missing == []
