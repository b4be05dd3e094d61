"""Verification reports shared by every checker in the package.

A report is a flat list of findings.  Each finding names the check that ran,
whether it held, and the witnessing identifiers when it did not.  Reports are
deterministic functions of their inputs: checkers enumerate in the fixed
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

    def add(self, check: str, ok: bool, witness: tuple = (), detail: str = "") -> None:
        self.findings.append(Finding(check, bool(ok), tuple(witness), detail))

    def require(self, check: str, ok: bool, witness: tuple = (), detail: str = "") -> None:
        # Record only violations; passing instances are tallied by callers.
        if not ok:
            self.add(check, False, witness, detail)

    def merge(self, other: "Report") -> None:
        """Append other's findings; params self lacks are copied over."""
        self.findings.extend(other.findings)
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
