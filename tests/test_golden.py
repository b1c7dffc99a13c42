"""Golden CLI reports: stored inputs, stored stdout bytes, exit code and summary.

Each case in golden/cases.json names a command line whose file arguments
live under golden/inputs/; golden/expected/<case>.json holds the exact report
bytes.  A change to the search, the radii or the report format that alters
any byte fails here.
"""

import json
from pathlib import Path

import pytest

from gridball.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, capsys):
    case = CASES[name]
    argv = [str(GOLDEN / a) if a.startswith("inputs/") else a for a in case["argv"]]
    code = main(argv)
    out = capsys.readouterr()
    assert out.out == (GOLDEN / "expected" / f"{name}.json").read_text()
    assert (code, out.err) == (case["exit"], case["stderr"])
