"""Structured check reports shared by every verification routine.

A report is a flat list of named checks; a check that fails carries a
concrete witness (the violated identity instance). Reports aggregate, so
axiom sweeps can enumerate every failure instead of stopping at the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    witness: str | None = None


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool, witness: str | None = None) -> bool:
        self.checks.append(Check(name, bool(ok), witness))
        return bool(ok)

    def sweep(self, name: str, failures) -> bool:
        """One failed check per witness in ``failures``, in order, or a
        single passed check if there are none."""
        ok = True
        for witness in failures:
            self.add(name, False, witness)
            ok = False
        if ok:
            self.add(name, True)
        return ok

    def extend(self, other: "Report", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(Check(prefix + c.name, c.ok, c.witness))

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "verdict": "pass" if self.passed else "fail",
            "checks": [
                {"name": c.name, "status": "pass" if c.ok else "fail",
                 **({"witness": c.witness} if c.witness is not None else {})}
                for c in self.checks
            ],
        }

    def summary(self) -> str:
        verdict = "pass" if self.passed else "fail"
        return f"{self.title}: {verdict} ({len(self.checks)} checks, " \
               f"{len(self.failures())} failed)"
