"""Structured pass/fail records for condition checkers.

Every checker in the package is report-valued: it measures defect norms for
each sub-condition and aggregates them into a :class:`ConditionReport`.  A
defect passes when its value is at most its tolerance; the report passes when
every defect does.  A failed hypothesis of a checker is recorded the same
way, as entries of its report, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Defect:
    """One measured sub-condition: a named defect norm and its tolerance."""

    check: str
    value: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.value <= self.tol

    def to_json(self) -> dict:
        return {"check": self.check, "value": float(self.value),
                "tol": float(self.tol), "ok": self.ok}


@dataclass
class ConditionReport:
    name: str
    defects: list[Defect] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(d.ok for d in self.defects)

    def add(self, check: str, value: float, tol: float) -> Defect:
        d = Defect(check, float(value), float(tol))
        self.defects.append(d)
        return d

    def note(self, text: str) -> None:
        self.notes.append(text)

    def merge(self, sub: "ConditionReport", prefix: str | None = None) -> None:
        """Absorb a sub-report, optionally prefixing its defect names."""
        p = f"{prefix}: " if prefix else ""
        for d in sub.defects:
            self.defects.append(Defect(p + d.check, d.value, d.tol))
        for n in sub.notes:
            self.notes.append(p + n)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "defects": [d.to_json() for d in self.defects],
            "notes": list(self.notes),
        }

    def __str__(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        lines = [f"{self.name}: {state}"]
        for d in self.defects:
            mark = "ok " if d.ok else "BAD"
            lines.append(f"  [{mark}] {d.check}: {d.value:.3e} (tol {d.tol:.1e})")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)
