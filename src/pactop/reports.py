"""Structured check reports.

Reports form a tree: leaf checks carry a status and a witness, sections
group related checks.  Statuses: ``pass``/``fail`` decide the overall
verdict, ``not-applicable`` marks checks whose hypothesis failed, and
``info`` records facts (separation flags, discontinuity points) that are
never counted as failures.
"""

from __future__ import annotations

from .record import Record

PASS = "pass"
FAIL = "fail"
NA = "not-applicable"
INFO = "info"


class Check(Record):
    _fields = ("name", "status", "witness", "detail")
    name: str
    status: str
    witness: tuple
    detail: str

    def __init__(self, name: str, status: str, witness: tuple = (), detail: str = ""):
        # straight into the dict: built often, read rarely (pactop.record)
        d = self.__dict__
        d["name"] = name
        d["status"] = status
        d["witness"] = witness
        d["detail"] = detail


class Report(Record):
    _fields = ("name", "checks", "sections")
    name: str
    checks: tuple[Check, ...]
    sections: tuple[Report, ...]

    def __init__(self, name: str, checks: tuple[Check, ...] = (),
                 sections: tuple[Report, ...] = ()):
        # straight into the dict, as Check
        d = self.__dict__
        d["name"] = name
        d["checks"] = checks
        d["sections"] = sections

    @property
    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.checks) and all(
            s.ok for s in self.sections
        )

    def failures(self) -> list[tuple[str, Check]]:
        """Flat list of failing checks with slash-joined paths."""
        out = []
        for c in self.checks:
            if c.status == FAIL:
                out.append((f"{self.name}/{c.name}", c))
        for s in self.sections:
            for path, c in s.failures():
                out.append((f"{self.name}/{path}", c))
        return out

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": PASS if self.ok else FAIL,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "witness": _jsonable(c.witness),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "sections": [s.to_dict() for s in self.sections],
        }

    def render_text(self, indent: int = 0) -> str:
        pad = "  " * indent
        mark = "PASS" if self.ok else "FAIL"
        lines = [f"{pad}[{mark}] {self.name}"]
        for c in self.checks:
            tail = ""
            if c.witness:
                tail += f" witness={_jsonable(c.witness)}"
            if c.detail:
                tail += f" ({c.detail})"
            lines.append(f"{pad}  [{c.status}] {c.name}{tail}")
        for s in self.sections:
            lines.append(s.render_text(indent + 1))
        return "\n".join(lines)


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


class ReportBuilder:
    """Mutable accumulator; ``build()`` freezes everything."""

    def __init__(self, name: str):
        self.name = name
        self.checks: list[Check] = []
        self.sections: list[Report] = []

    def check(self, name: str, ok: bool, witness: tuple = (), detail: str = "") -> bool:
        self.checks.append(Check(name, PASS if ok else FAIL, witness, detail))
        return ok

    def info(self, name: str, witness: tuple = (), detail: str = "") -> None:
        self.checks.append(Check(name, INFO, witness, detail))

    def na(self, name: str, detail: str = "") -> None:
        self.checks.append(Check(name, NA, (), detail))

    def section(self, report: Report) -> Report:
        self.sections.append(report)
        return report

    def build(self) -> Report:
        return Report(self.name, tuple(self.checks), tuple(self.sections))
