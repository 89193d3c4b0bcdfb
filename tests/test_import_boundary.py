"""The engine loads only the engine: importing the planners or the ``forge``
command line loads none of the groupoid toolkit, the planners' certificates
import none of it, and ``groupoid_forge.twisted_product`` names its module
whichever import runs first."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupoid_forge

PACKAGE = Path(groupoid_forge.__file__).resolve().parent
TOOLKIT = {"groupoid_core", "graph_groupoid", "convolution_algebra", "gaussian", "twisted_product"}


def _run(code: str) -> str:
    """The stdout of ``code`` in a fresh interpreter that imports this
    checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("module", ["pipeline", "cli"])
def test_the_engine_loads_no_toolkit_module(module):
    loaded = _run(
        f"import sys, groupoid_forge.{module}\n"
        "print(*(m for m in sys.modules if m.startswith('groupoid_forge.')))"
    ).split()
    names = {m.removeprefix("groupoid_forge.") for m in loaded}
    assert module in names and "certificates" in names
    assert not names & TOOLKIT, sorted(names & TOOLKIT)


def test_the_certificates_import_no_toolkit_module():
    tree = ast.parse((PACKAGE / "certificates.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import x
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(node.module.removeprefix("groupoid_forge.").split(".")[0])
        elif isinstance(node, ast.Import):
            imported.update(a.name.removeprefix("groupoid_forge.").split(".")[0] for a in node.names)
    assert imported, "no import found"
    assert not imported & TOOLKIT, sorted(imported & TOOLKIT)


@pytest.mark.parametrize(
    "first",
    [
        "import groupoid_forge.twisted_product",
        "from groupoid_forge import twisted_product",
        "from groupoid_forge import *",
        "from groupoid_forge import bouquet_twisted_product",
        "from groupoid_forge import check_lc",
        "import groupoid_forge.convolution_algebra",
        "import groupoid_forge.pipeline",
    ],
)
def test_the_package_attribute_twisted_product_is_the_submodule(first):
    out = _run(
        f"{first}\n"
        "import sys, types, groupoid_forge\n"
        "import groupoid_forge.twisted_product as by_import\n"
        "from groupoid_forge import twisted_product as by_from\n"
        "module = sys.modules['groupoid_forge.twisted_product']\n"
        "print(isinstance(module, types.ModuleType),"
        " groupoid_forge.twisted_product is by_import is by_from is module)"
    )
    assert out.split() == ["True", "True"]
