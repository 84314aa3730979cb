"""verify all reports the frozen verdicts at the default size, at 8/6 and
at 12/10, the largest baseline size.

tests/golden holds, for each check of `verify all`, its name, status,
residual count and region, plus the notes.  A change to a structure
constant, a realization or a window shows here as a changed line.
"""

import json
from pathlib import Path

import pytest

from onsalg import cli

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, args", [
    ("all-6-4", []),
    ("all-8-6", ["--window", "8", "--max-k", "6"]),
    ("all-12-10", ["--window", "12", "--max-k", "10"]),
])
def test_verify_all_matches_its_golden_report(capsys, name, args):
    assert cli.run(["all", "--format", "json", *args]) == 0
    doc = json.loads(capsys.readouterr().out)
    got = {
        "suite": doc["suite"],
        "window": doc["window"],
        "max_k": doc["max_k"],
        "checks": [
            {key: c[key] for key in ("name", "status", "residual_terms", "region")}
            for c in doc["checks"]
        ],
        "notes": doc["notes"],
    }
    assert got == json.loads((GOLDEN / f"{name}.json").read_text())
