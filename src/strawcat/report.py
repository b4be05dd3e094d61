"""Verification reports shared by every checker in the package.

A report is a flat list of findings.  Each finding names the check that ran,
whether it held, and the witnessing identifiers when it did not.  A report
also counts, per family, every instance handed to `Report.require`.  Reports
are deterministic functions of their inputs: checkers enumerate in the fixed
construction order of the tables they inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    check: str
    ok: bool
    witness: tuple = ()
    detail: str = ""

    def render(self) -> str:
        status = "ok" if self.ok else "FAIL"
        parts = [f"[{status}] {self.check}"]
        if self.witness:
            parts.append("witness=" + ",".join(str(w) for w in self.witness))
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


@dataclass
class Report:
    title: str
    params: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)
    truncated: bool = False
    counts: dict = field(default_factory=dict)

    def add(self, check: str, ok: bool, witness: tuple = (), detail: str = "") -> None:
        self.findings.append(Finding(check, bool(ok), tuple(witness), detail))

    def require(self, check: str, ok: bool, witness: tuple = (), detail: str = "") -> None:
        # One instance of the family `check`: counted whether or not it holds,
        # and recorded as a finding only when it fails.
        self.counts[check] = self.counts.get(check, 0) + 1
        if not ok:
            self.add(check, False, witness, detail)

    def merge(self, other: "Report") -> None:
        """Append other's findings and add its counts; params self lacks are
        copied over."""
        self.findings.extend(other.findings)
        for k, n in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + n
        for k, v in other.params.items():
            self.params.setdefault(k, v)
        self.truncated = self.truncated or other.truncated

    @property
    def ok(self) -> bool:
        return not self.truncated and all(f.ok for f in self.findings)

    def failures(self) -> list:
        return [f for f in self.findings if not f.ok]

    def summary(self) -> str:
        fails = self.failures()
        head = f"{self.title}: " + ("PASS" if self.ok else f"FAIL ({len(fails)} violations)")
        if self.truncated:
            head += " [truncated]"
        return head

    def render(self, max_lines: int = 40) -> str:
        lines = [self.summary()]
        for f in self.failures()[:max_lines]:
            lines.append("  " + f.render())
        rest = len(self.failures()) - max_lines
        if rest > 0:
            lines.append(f"  ... {rest} more")
        return "\n".join(lines)


class StructuralError(Exception):
    """Raised for dangling identifiers or non-composable data.

    Distinct from axiom failures, which are reported, not raised.
    """
