"""Uniform pass/fail reporting for identity checks."""

import time
from dataclasses import dataclass, field

MAX_WITNESSES = 8
WITNESS_CHARS = 200


@dataclass
class CheckReport:
    """Outcome of one verified identity.

    status is 'pass' or 'fail'; witnesses lists up to MAX_WITNESSES
    offending positions with a printable residual each; region describes
    the domain on which the identity was actually compared.
    """

    name: str
    status: str
    residual_term_count: int = 0
    witnesses: list = field(default_factory=list)
    region: str = ""
    duration_ms: float = 0.0

    @property
    def passed(self):
        return self.status == "pass"

    def as_dict(self):
        return {
            "name": self.name,
            "status": self.status,
            "residual_terms": self.residual_term_count,
            "region": self.region,
            "duration_ms": round(self.duration_ms, 3),
            "witnesses": list(self.witnesses),
        }

    def __str__(self):
        mark = "ok" if self.passed else "FAIL"
        s = f"[{mark:4}] {self.name}"
        if self.region:
            s += f"  ({self.region})"
        if not self.passed:
            s += f"  residual terms: {self.residual_term_count}"
            for w in self.witnesses:
                s += f"\n        at {w['position']}: {w['residual']}"
        return s


def finish_report(name, witnesses, term_count, region, started):
    """Assemble a CheckReport from collected witnesses.

    witnesses: list of (position, residual) pairs; term_count: total
    number of nonzero residual terms; started: time.monotonic() stamp.
    """
    return CheckReport(
        name=name,
        status="pass" if term_count == 0 else "fail",
        residual_term_count=term_count,
        witnesses=[
            {"position": str(p), "residual": str(r)}
            for p, r in witnesses[:MAX_WITNESSES]
        ],
        region=region,
        duration_ms=(time.monotonic() - started) * 1000.0,
    )


class Residuals:
    """The nonzero residuals of one check.

    Every residual term is counted, but only the first MAX_WITNESSES
    residuals are formatted; a residual string longer than WITNESS_CHARS
    is cut there and marked with " ...".
    """

    def __init__(self):
        self.count = 0
        self.witnesses = []

    def add(self, residual, position, *args, terms=None):
        """Record residual unless it is zero.

        position is formatted with args only if the residual is kept as a
        witness.  terms defaults to len(residual.terms).
        """
        n = len(residual.terms) if terms is None else terms
        if not n:
            return
        self.count += n
        if len(self.witnesses) < MAX_WITNESSES:
            s = str(residual)
            if len(s) > WITNESS_CHARS:
                s = s[:WITNESS_CHARS] + " ..."
            self.witnesses.append((position.format(*args) if args else position, s))

    def report(self, name, region, started):
        return finish_report(name, self.witnesses, self.count, region, started)
