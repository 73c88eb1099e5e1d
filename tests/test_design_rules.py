"""Design rule: numpy.linalg is the test oracle and stays out of the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cho"


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
