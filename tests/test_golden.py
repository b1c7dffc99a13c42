"""Golden CLI reports: stored inputs, stored stdout bytes, exit code and summary.

Each case in golden/cases.json names a command line whose file arguments
live under golden/inputs/; golden/expected/<case>.json holds the exact report
bytes.  A change to the search, the radii or the report format that alters
any byte fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from gridball import cli, solver, tester
from gridball.gf import FieldSpec
from gridball.poly import SparsePoly

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, capsys):
    case = CASES[name]
    argv = [str(GOLDEN / a) if a.startswith("inputs/") else a for a in case["argv"]]
    code = cli.main(argv)
    out = capsys.readouterr()
    assert out.out == (GOLDEN / "expected" / f"{name}.json").read_text()
    assert (code, out.err) == (case["exit"], case["stderr"])


def test_tracer_wraps_and_restores_every_layer(capsys):
    # perfbench's tracer patches layer functions by name: a golden reduce
    # and find-nonzero case run inside it fire their spans, print the same
    # bytes, and leave every attribute of the patched owners as it was
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    owners = (cli, solver, tester, FieldSpec, SparsePoly)
    before = [dict(vars(owner)) for owner in owners]
    with tracer.patched(tracer.Tracer()) as spans:
        for name in ("reduce", "find-nonzero-third-chunk"):
            test_golden_report(name, capsys)
    for span in (
        "cli", "poly.from_json_dict", "poly.reduce_mod_domain", "tester.select_radius",
        "tester.radius_general", "tester.search", "poly.evaluate_many",
    ):
        assert spans.count[span + ".calls"] > 0, span
    for owner, saved in zip(owners, before):
        assert vars(owner).keys() == saved.keys()
        assert all(vars(owner)[k] is v for k, v in saved.items()), owner
