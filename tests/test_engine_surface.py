"""The library holds only what the engine runs: every public top-level
function and class of ``groupoid_forge``, and every public method of a
public class, is referenced somewhere in ``src/``, ``demos/`` or ``bench/``
outside its own definition and ``__init__.py``.  A helper only the tests
call belongs in ``tests/helpers.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groupoid_forge"


def _public(nodes, kinds):
    return [n for n in nodes if isinstance(n, kinds) and not n.name.startswith("_")]


def _public_definitions():
    """(module file, name, first line, last line) per public top-level
    function and class, and per public method of a public class, named by
    its class, ``Class.method``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _public(ast.parse(path.read_text(encoding="utf-8")).body, (ast.FunctionDef, ast.ClassDef)):
            out.append((path, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for sub in _public(node.body, ast.FunctionDef):
                    out.append((path, f"{node.name}.{sub.name}", sub.lineno, sub.end_lineno))
    return out


def _references():
    """name -> [(file, line)] over identifiers, attributes, imported names and
    string constants (the benchmark tracer names functions as strings)."""
    refs = {}
    for folder in ("src", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rsplit(".", 1)[-1]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value.rsplit(".", 1)[-1]
                else:
                    continue
                refs.setdefault(name, []).append((path, getattr(node, "lineno", 0)))
    return refs


def _outside(ref, definitions) -> bool:
    where, line = ref
    return not any(where == path and first <= line <= last for path, _, first, last in definitions)


def _unused(definitions, refs) -> set:
    """Definitions with no reference outside themselves and outside the
    unused ones, so a cluster of helpers that only call each other is found
    as a whole.  A method matches references by its bare name, so it shares
    the references of every attribute or function spelled the same way."""
    unused = set()
    while True:
        dead = [d for d in definitions if d in unused]
        found = {
            d
            for d in definitions
            if not any(_outside(ref, (d, *dead)) for ref in refs.get(d[1].rsplit(".", 1)[-1], ()))
        }
        if found == unused:
            return unused
        unused = found


def test_every_public_definition_is_used_by_the_engine():
    unused = _unused(_public_definitions(), _references())
    names = sorted(f"{path.stem}.{name}" for path, name, _, _ in unused)
    assert not names, f"referenced only by tests or nowhere: {names}"
