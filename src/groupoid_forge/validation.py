"""Shared validation reports and structural errors.

A ``ValidationReport`` collects invariant violations found by an exhaustive
check; structural problems (data that cannot even be interpreted) raise
``StructuralError`` instead of being reported as violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class StructuralError(ValueError):
    """Input is malformed beyond invariant checking (bad shapes, bad indices)."""


def optional_int(data: dict, key: str) -> int | None:
    """The integer an input record holds at ``key``, None when it holds none;
    a value ``int`` cannot read raises ``StructuralError`` naming the key."""
    value = data.get(key)
    try:
        return None if value is None else int(value)
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"{key} must be an integer, got {value!r}") from exc


@dataclass(frozen=True)
class Violation:
    invariant: str
    subject: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.subject}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.passed:
            return "pass"
        lines = [f"fail ({len(self.violations)} violation(s))"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "violations": [
                {"invariant": v.invariant, "subject": v.subject} for v in self.violations
            ],
        }


def report_from(violations: list[Violation]) -> ValidationReport:
    return ValidationReport(tuple(violations))
