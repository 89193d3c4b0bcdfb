"""The library holds only what the engine runs: every public top-level
function and class of ``groupoid_forge``, and every public method of a
public class, is referenced somewhere in ``src/``, ``demos/`` or ``bench/``
outside its own definition and ``__init__.py``.  A helper only the tests
call belongs in ``tests/helpers.py``.  A method counts as referenced only
by an attribute access or by a string in the benchmark tracer."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groupoid_forge"
TRACER = ROOT / "bench" / "tracer.py"


def _public(nodes, kinds):
    return [n for n in nodes if isinstance(n, kinds) and not n.name.startswith("_")]


def _definitions_in(path, tree):
    """(module file, name, first line, last line) per public top-level
    function and class of a parsed module, and per public method of a public
    class, named by its class, ``Class.method``."""
    out = []
    for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
        out.append((path, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for sub in _public(node.body, ast.FunctionDef):
                out.append((path, f"{node.name}.{sub.name}", sub.lineno, sub.end_lineno))
    return out


def _public_definitions():
    return [
        d
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for d in _definitions_in(path, ast.parse(path.read_text(encoding="utf-8")))
    ]


def _references_in(trees):
    """name -> [(file, line, names a method)] over identifiers, attributes,
    imported names and string constants of parsed modules (the benchmark
    tracer names functions and methods as strings).  Only an attribute
    access ``x.name`` or a string in the tracer can name a method; a local
    variable or a string elsewhere spelled like one does not."""
    refs = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            method = isinstance(node, ast.Attribute)
            if isinstance(node, ast.Name):
                name = node.id
            elif method:
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value.rsplit(".", 1)[-1]
                method = path == TRACER
            else:
                continue
            refs.setdefault(name, []).append((path, getattr(node, "lineno", 0), method))
    return refs


def _references():
    return _references_in(
        {
            path: ast.parse(path.read_text(encoding="utf-8"))
            for folder in ("src", "demos", "bench")
            for path in sorted((ROOT / folder).rglob("*.py"))
            if path.name != "__init__.py"
        }
    )


def _outside(ref, definitions) -> bool:
    where, line, _ = ref
    return not any(where == path and first <= line <= last for path, _, first, last in definitions)


def _unused(definitions, refs) -> set:
    """Definitions with no reference outside themselves and outside the
    unused ones, so a cluster of helpers that only call each other is found
    as a whole.  A method matches only the references that can name one, by
    its bare name."""
    unused = set()
    while True:
        dead = [d for d in definitions if d in unused]
        found = {
            d
            for d in definitions
            if not any(
                _outside(ref, (d, *dead))
                for ref in refs.get(d[1].rsplit(".", 1)[-1], ())
                if ref[2] or "." not in d[1]
            )
        }
        if found == unused:
            return unused
        unused = found


def test_every_public_definition_is_used_by_the_engine():
    unused = _unused(_public_definitions(), _references())
    names = sorted(f"{path.stem}.{name}" for path, name, _, _ in unused)
    assert not names, f"referenced only by tests or nowhere: {names}"


SELF_TEST_MODULE = """
class Element:
    def sub(self, other): ...
    def scale(self, c): ...
    def used(self): ...

def build(parser):
    sub = parser.add_subparsers()
    return Element().used(), sub, "scale"

build(None)
"""


def test_a_method_is_matched_by_an_attribute_or_a_tracer_string():
    module = ROOT / "src" / "module.py"
    tree = ast.parse(SELF_TEST_MODULE)
    definitions = _definitions_in(module, tree)

    def unused(trees):
        return {name for _, name, _, _ in _unused(definitions, _references_in(trees))}

    # neither the local variable ``sub`` nor the string "scale" names a method
    assert unused({module: tree}) == {"Element.sub", "Element.scale"}
    tracer = ast.parse('METHODS = (("module", "Element", "scale"),)')
    assert unused({module: tree, TRACER: tracer}) == {"Element.sub"}
