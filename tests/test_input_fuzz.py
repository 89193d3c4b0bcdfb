"""A seeded fuzz of every ``forge`` command form that reads a JSON file.

Each run takes the valid files of one command form, changes one field of
one file (a value replaced, or an object key dropped) and runs ``cli.main``
in process.  Nothing may escape ``main``, and every return is 0, 1 or 2.

A float, a bool or a numeric string planted where the valid file held an
integer must return 2 with the field's path on stderr, in every file whose
integers the command reads: diagrams, rank-2 data, cocycles, and the
``input``, ``parameters``, ``corner.level`` and ``corner.vector`` of a
report.  The other report fields are derived and compared by value, so a
planted ``2.0`` would check there: ``verify-report`` refuses a float
anywhere in a report, naming its field the same way, and a planted bool or
numeric string there may still check or fail.  Groupoid dumps and automorphism
files hold names, not integers.  Planted values stay at magnitude 3 or less: a planted level size
allocates a table of its square.
"""

import contextlib
import io
import json
import random
from functools import reduce
from operator import getitem

import pytest

from groupoid_forge.cli import main
from groupoid_forge.graph_model import diagram_from_json
from groupoid_forge.groupoid_core import full_relation
from groupoid_forge.pipeline import plan_af_realization, plan_rank2_realization

from families import FIGURE_TAIL

# the stationary 2x2 diagram [[2, 3], [1, 4]]
DIAGRAM = {
    "levels": [{"size": 2}, {"size": 2}],
    "edges": [
        {"level": 0, "range": 0, "source": 0, "mult": 2},
        {"level": 0, "range": 0, "source": 1, "mult": 3},
        {"level": 0, "range": 1, "source": 0, "mult": 1},
        {"level": 0, "range": 1, "source": 1, "mult": 4},
    ],
    "repeat_from": 0,
}
PLAN = {"depth": 2, "lbound": 3}


def _json(value):
    return json.loads(json.dumps(value))


# file name -> valid contents
FILES = {
    "diagram": DIAGRAM,
    "rank2": FIGURE_TAIL.to_json() | {"horizon": 3},
    "af_report": _json(
        plan_af_realization(diagram_from_json(DIAGRAM), unit_class=(0, [1, 2]), **PLAN).to_json()
    ),
    "rank2_report": _json(
        plan_rank2_realization(FIGURE_TAIL, unit_class=(0, [2]), **PLAN).to_json()
    ),
    "H": full_relation(range(2)).to_json(),
    "G": full_relation(range(2)).to_json(),
    # the coboundary of the unit weights (0, 0) -> 0, (1, 1) -> 1
    "cocycle": {"values": {"(0, 0)": 0, "(0, 1)": -1, "(1, 0)": 1, "(1, 1)": 0}},
    # the swap of the two points
    "alpha": {
        "map": {"(0, 0)": "(1, 1)", "(0, 1)": "(1, 0)", "(1, 0)": "(0, 1)", "(1, 1)": "(0, 0)"}
    },
}

FLAGS = ["--depth", "2", "--lbound", "3"]
FORMS = {
    "validate": ["validate", "{diagram}"],
    "telescope": ["telescope", "{diagram}", "--subsequence", "0,1,3"],
    "ktheory": ["ktheory", "{diagram}", "--corner", "0:1,2", "--op", "positive", "--horizon", "4"],
    "certify-lc": ["certify", "lc", "--input", "{diagram}"],
    "certify-wfc": ["certify", "wfc", "--input", "{diagram}", *FLAGS],
    "realize-af": ["realize", "af", "{diagram}", "--unit", "0:1,2", *FLAGS],
    "certify-wfc-rank2": ["certify", "wfc", "--rank2", "--input", "{rank2}", *FLAGS],
    "realize-rank2": ["realize", "rank2", "{rank2}", "--unit", "0:2", *FLAGS],
    "rank2-build": ["rank2", "build", "--input", "{rank2}"],
    "rank2-orders": ["rank2", "orders", "--input", "{rank2}"],
    "rank2-telescope": ["rank2", "telescope", "--input", "{rank2}"],
    "rank2-automorphism": ["rank2", "automorphism", "--input", "{rank2}"],
    "verify-report-af": ["verify-report", "{af_report}"],
    "verify-report-rank2": ["verify-report", "{rank2_report}"],
    "check-groupoid": ["check-groupoid", "{G}"],
    "twist": ["twist", "--H", "{H}", "--G", "{G}", "--alpha", "cycle:1", "--cocycle", "{cocycle}"],
    "twist-alpha-file": ["twist", "--H", "{H}", "--G", "{G}", "--alpha", "{alpha}"],
}


def run(argv_template: list[str], files: dict, folder) -> tuple[int, str]:
    """``forge`` on the given files in process: its return and its stderr."""
    paths = {}
    for name, data in files.items():
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([arg.format(**paths) for arg in argv_template])
    return code, err.getvalue()


def _nodes(value, path=()):
    """(path, value) for every field below ``value``, depth first."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _plant(rng: random.Random, old):
    """A replacement for ``old``: where it is an integer, half the time a
    float, a bool or a numeric string; otherwise any small JSON value."""
    x = rng.randint(-3, 3)
    if type(old) is int and rng.random() < 0.5:
        return rng.choice([float(x), x + 0.5, x > 0, str(x)])
    return rng.choice([None, x, float(x), x > 0, str(x), "x", [], [x], {}, {"a": x}])


READ_CORNER_FIELDS = (("corner", "level"), ("corner", "vector"))


def integer_path(name: str, path: tuple) -> str | None:
    """The path a reader names for an integer field of a file, or None when
    no reader takes that field as an integer."""
    if name in ("H", "G"):
        return None
    if name.endswith("report"):
        if path[0] == "input":
            path = path[1:]
        elif path[0] != "parameters" and path[:2] not in READ_CORNER_FIELDS:
            return None
    return ".".join(map(str, path))


def files_of(form: str) -> dict:
    """Fresh copies of the valid files a command form reads."""
    return {name: _json(data) for name, data in FILES.items() if f"{{{name}}}" in FORMS[form]}


def mutate(rng: random.Random, form: str) -> tuple[dict, str, tuple, object]:
    """The files of ``form`` with one field of one of them changed: the
    files, the changed file's name, the field's path and its new value
    (``KeyError`` for a dropped key)."""
    files = files_of(form)
    name = rng.choice(list(files))
    path, old = rng.choice(list(_nodes(files[name])))
    parent = reduce(getitem, path[:-1], files[name])
    if isinstance(parent, dict) and rng.random() < 0.1:
        del parent[path[-1]]
        return files, name, path, KeyError
    new = parent[path[-1]] = _plant(rng, old)
    return files, name, path, new


def is_planted_non_integer(old, new) -> bool:
    numeric = isinstance(new, str) and new.lstrip("-").isdigit()
    return type(old) is int and (type(new) in (float, bool) or numeric)


@pytest.mark.parametrize("form", FORMS)
def test_mutations_never_escape_main(form, tmp_path):
    rng = random.Random(f"fuzz:{form}")
    for _ in range(38):
        files, name, path, new = mutate(rng, form)
        old = reduce(getitem, path, FILES[name])
        code, err = run(FORMS[form], files, tmp_path)
        case = f"{form}: {name} {'.'.join(map(str, path))} = {new!r}"
        assert code in (0, 1, 2), case
        field = integer_path(name, path)
        if name.endswith("report") and type(new) is float:
            field = ".".join(map(str, path))
        elif field is None or not is_planted_non_integer(old, new):
            continue
        assert code == 2, case
        assert f"{field} must be an integer, got {new!r}" in err, (case, err)


@pytest.mark.parametrize(
    "form, name, path, value",
    [
        ("realize-af", "diagram", "edges.0.mult", 2.5),
        ("realize-af", "diagram", "edges.0.mult", "2"),
        ("realize-af", "diagram", "edges.0.mult", True),
        ("validate", "diagram", "levels.0.size", 1.0),
        ("realize-af", "diagram", "repeat_from", 0.9),
        ("realize-af", "diagram", "repeat_from", False),
        ("realize-rank2", "rank2", "A.0.0.0", "2"),
        ("realize-rank2", "rank2", "T.1.0", 1.2),
        ("verify-report-af", "af_report", "input.edges.1.mult", 3.0),
        ("verify-report-rank2", "rank2_report", "parameters.levels_out", 4.0),
        ("verify-report-rank2", "rank2_report", "corner.level", False),
        ("verify-report-af", "af_report", "corner.vector.1", "2"),
        ("twist", "cocycle", "values.(0, 1)", -1.0),
    ],
)
def test_planted_non_integer_is_refused(form, name, path, value, tmp_path):
    files = files_of(form)
    *parents, key = keys = [int(k) if k.isdigit() else k for k in path.split(".")]
    reduce(getitem, parents, files[name])[key] = value
    code, err = run(FORMS[form], files, tmp_path)
    assert code == 2
    assert f"{integer_path(name, tuple(keys))} must be an integer, got {value!r}" in err


def test_matrix_list_that_is_a_string_is_refused(tmp_path):
    files = files_of("realize-rank2")
    files["rank2"]["A"] = "2"
    code, err = run(FORMS["realize-rank2"], files, tmp_path)
    assert code == 2
    assert "A must be a list, got '2'" in err


@pytest.mark.parametrize("form", FORMS)
def test_valid_files_pass(form, tmp_path):
    # the figure-tail plan is unknown (minimality), so realizing it returns 1
    expected = 1 if form == "realize-rank2" else 0
    assert run(FORMS[form], files_of(form), tmp_path)[0] == expected
