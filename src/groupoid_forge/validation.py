"""Shared validation reports and structural errors.

A ``ValidationReport`` collects invariant violations found by an exhaustive
check; structural problems (data that cannot even be interpreted) raise
``StructuralError`` instead of being reported as violations.
"""

from __future__ import annotations

from typing import NamedTuple


class StructuralError(ValueError):
    """Input is malformed beyond invariant checking (bad shapes, bad indices)."""


def json_int(value, path: str) -> int:
    """``value`` when it is a JSON integer, read from an input file at the
    field ``path`` (``edges.0.mult``); a bool, float or string is refused."""
    if type(value) is not int:
        raise StructuralError(f"{path} must be an integer, got {value!r}")
    return value


def json_ints(values, path: str, depth: int = 1) -> tuple:
    """The list ``values`` of JSON integers nested ``depth`` lists deep (a
    list of matrices is 3 deep), each integer read by ``json_int``."""
    if not isinstance(values, (list, tuple)):
        raise StructuralError(f"{path} must be a list, got {values!r}")
    if depth == 1:
        return tuple(json_int(x, f"{path}.{i}") for i, x in enumerate(values))
    return tuple(json_ints(x, f"{path}.{i}", depth - 1) for i, x in enumerate(values))


class Violation(NamedTuple):
    invariant: str
    subject: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.subject}"


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.passed:
            return "pass"
        lines = [f"fail ({len(self.violations)} violation(s))"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


def report_from(violations: list[Violation]) -> ValidationReport:
    return ValidationReport(tuple(violations))
