"""The engine is exact: no module of ``src/`` writes a float literal, calls
``float``, ``math.sqrt`` or ``math.log``, or imports ``decimal`` or
``numpy``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "groupoid_forge"
INEXACT_CALLS = {"float", "math.sqrt", "math.log"}
INEXACT_MODULES = {"decimal", "numpy"}


def _dotted(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return ""


def inexact_uses(source: str) -> list[str]:
    """One "line: what" entry per inexact construct in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and _dotted(node.func) in INEXACT_CALLS:
            found.append(f"{node.lineno}: call to {_dotted(node.func)}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{name}" for name in names]
            found += [
                f"{node.lineno}: import of {name}"
                for name in names
                if name.split(".")[0] in INEXACT_MODULES or name in INEXACT_CALLS
            ]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_is_exact(path):
    assert inexact_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 2j",
        "x = float(3)",
        "import math\nx = math.sqrt(2)",
        "import math\nx = math.log(2)",
        "from math import sqrt",
        "import decimal",
        "from decimal import Decimal",
        "import numpy as np",
        "from numpy.linalg import det",
    ],
)
def test_guard_sees_each_inexact_construct(source):
    assert len(inexact_uses(source)) == 1
