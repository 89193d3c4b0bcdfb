"""The engine is exact: no module of ``src/`` writes a float literal, calls
``float``, ``math.sqrt`` or ``math.log``, or imports ``decimal`` or
``numpy``.  Nor does any module but ``cli.py``, which parses command-line
text, call ``int``: every integer read from a file passes the strict
reader ``validation.json_int``, which refuses what ``int`` would coerce."""

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


def int_calls(source: str) -> list[str]:
    """One "line: call to int" entry per ``int`` call in a module's source."""
    return [
        f"{node.lineno}: call to int"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _dotted(node.func) == "int"
    ]


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"],
    ids=lambda p: p.name,
)
def test_module_coerces_no_integer(path):
    assert int_calls(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source", ["x = int('3')", "x = int(2.5)", "xs = [int(v) for v in row]", "f(int(x) + 1)"]
)
def test_guard_sees_each_int_call(source):
    assert len(int_calls(source)) == 1


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
