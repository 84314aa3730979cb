"""Uniform pass/fail reporting for identity checks.

A checker collects its nonzero residuals in a Residuals and returns
Residuals.report(name, region).  Checks keep no clock: the runner (cli)
times each whole call, building its inputs included, and sets the
report's duration_ms.
"""

from dataclasses import dataclass, field

MAX_WITNESSES = 8
WITNESS_CHARS = 200


@dataclass
class CheckReport:
    """Outcome of one verified identity.

    status is 'pass', 'fail' or 'error' (the check raised); witnesses lists
    up to MAX_WITNESSES offending positions with a printable residual each;
    region describes the domain on which the identity was compared.
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
        mark = {"pass": "ok", "fail": "FAIL"}.get(self.status, "ERR")
        s = f"[{mark:4}] {self.name}"
        if self.region:
            s += f"  ({self.region})"
        if self.status == "fail":
            s += f"  residual terms: {self.residual_term_count}"
        for w in self.witnesses:  # a passing report has none
            s += f"\n        at {w['position']}: {w['residual']}"
        return s


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

    def report(self, name, region):
        """The CheckReport of these residuals: a pass when there are none,
        with region describing the domain that was compared."""
        return CheckReport(
            name=name,
            status="fail" if self.count else "pass",
            residual_term_count=self.count,
            witnesses=[{"position": p, "residual": r} for p, r in self.witnesses],
            region=region,
        )
