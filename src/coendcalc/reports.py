"""Pass/fail reports used by validators and axiom checkers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: Optional[str] = None

    def __str__(self):
        tail = f"  [{self.witness}]" if self.witness else ""
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}{tail}"


@dataclass
class CheckReport:
    checks: list = field(default_factory=list)

    def add(self, name: str, passed: bool, witness: Optional[str] = None):
        self.checks.append(Check(name, bool(passed), witness))

    def ok(self, name: str):
        self.add(name, True)

    def fail(self, name: str, witness: Optional[str] = None):
        self.add(name, False, witness)

    def add_first(self, name: str, witnesses) -> bool:
        """Add a check that fails with the first of ``witnesses``, if any.

        ``witnesses`` is consumed lazily; returns whether the check passed.
        """
        witness = next(iter(witnesses), None)
        self.add(name, witness is None, witness)
        return witness is None

    def add_equal(self, name: str, lhs, rhs, describe):
        """Check the identity ``lhs == rhs`` of two sparse maps.

        ``describe(column, row)`` renders the first entry where they differ
        as the witness.
        """
        self.add_difference(name, lhs.first_difference(rhs), describe)

    def add_difference(self, name: str, diff, describe):
        """Add a check that fails at the (column, row) pair ``diff``, if any."""
        self.add(name, diff is None, None if diff is None else describe(*diff))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def extend(self, other: "CheckReport", prefix: str = ""):
        for c in other.checks:
            self.checks.append(Check(prefix + c.name, c.passed, c.witness))

    def to_json_obj(self) -> list:
        return [
            {"name": c.name, "passed": c.passed, "witness": c.witness}
            for c in self.checks
        ]

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)
