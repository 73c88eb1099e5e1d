"""Design rules: numpy.linalg is the test oracle and stays out of the package,
and every function the benchmark's tracer wraps exists."""

import ast
import importlib
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
