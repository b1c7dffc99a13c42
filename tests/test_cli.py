import json
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridball import brute
from gridball.cli import main
from gridball.domain import RectangularDomain
from gridball.gf import make_field
from gridball.poly import SparsePoly


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def fermat_files(tmp_path):
    poly = _write(
        tmp_path / "fermat.json",
        {"field": "GF(3)", "nvars": 1, "terms": [{"coeff": 1, "exps": [2]}, {"coeff": 2, "exps": [0]}]},
    )
    dom = _write(tmp_path / "s.json", {"field": "GF(3)", "sets": [[1, 2]]})
    return poly, dom


@pytest.fixture
def f4_files(tmp_path):
    poly = _write(
        tmp_path / "f4.json",
        {"field": "GF(2^2)", "nvars": 2, "terms": [{"coeff": 1, "exps": [2, 2]}]},
    )
    dom = _write(tmp_path / "d4.json", {"field": "GF(2^2)", "sets": [[2, 3], [2, 3]]})
    return poly, dom


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out else None
    return code, report, out.err


def test_test_zero_vanishes(capsys, fermat_files):
    poly, dom = fermat_files
    code, report, err = _run(capsys, ["test-zero", "--poly", poly, "--domain", dom])
    assert code == 0
    assert report["verdict"] == "vanishes"
    assert report["evaluations"] <= report["budget"]
    assert "vanishes" in err


def test_test_zero_witness(capsys, f4_files):
    poly, dom = f4_files
    code, report, _ = _run(capsys, ["test-zero", "--poly", poly, "--domain", dom])
    assert code == 1
    assert report["verdict"] == "witness"
    assert report["witness"] == [2, 2]
    assert report["distance"] == 0


def test_test_zero_bound_override(capsys, fermat_files):
    poly, dom = fermat_files
    code, report, _ = _run(
        capsys, ["test-zero", "--poly", poly, "--domain", dom, "--bound", "5"]
    )
    assert code == 0 and report["bound"] == 5
    code, _, err = _run(
        capsys, ["test-zero", "--poly", poly, "--domain", dom, "--bound", "1"]
    )
    assert code == 2 and "error" in err


def test_test_zero_requires_power_domain(capsys, tmp_path, fermat_files):
    poly, _ = fermat_files
    dom = _write(tmp_path / "d.json", {"field": "GF(3)", "sets": [[1]]})
    poly2 = _write(
        tmp_path / "p2.json",
        {"field": "GF(3)", "nvars": 2, "terms": [{"coeff": 1, "exps": [1, 0]}]},
    )
    dom2 = _write(tmp_path / "d2.json", {"field": "GF(3)", "sets": [[1, 2], [1]]})
    code, _, err = _run(capsys, ["test-zero", "--poly", poly2, "--domain", dom2])
    assert code == 2 and "power domain" in err


def test_malformed_and_missing_inputs(capsys, tmp_path, fermat_files):
    poly, dom = fermat_files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, ["test-zero", "--poly", str(bad), "--domain", dom])
    assert code == 2 and "error" in err
    code, _, err = _run(
        capsys, ["test-zero", "--poly", str(tmp_path / "nope.json"), "--domain", dom]
    )
    assert code == 2
    code, _, err = _run(
        capsys, ["test-zero", "--poly", poly, "--domain", dom, "--field", "GF(5)"]
    )
    assert code == 2 and "does not match" in err


def test_structurally_wrong_json(capsys, tmp_path, fermat_files):
    poly, dom = fermat_files
    for blob in (
        {"field": "GF(3)", "nvars": 1, "terms": {"a": 1}},
        {"field": "GF(3)", "nvars": 1, "terms": [{"coeff": 1}]},
        {"field": "GF(3)", "nvars": "x", "terms": []},
        [1, 2, 3],
    ):
        bad = _write(tmp_path / "weird.json", blob)
        code, _, err = _run(capsys, ["test-zero", "--poly", bad, "--domain", dom])
        assert code == 2 and "error" in err
    baddom = _write(tmp_path / "wd.json", {"field": "GF(3)", "sets": 7})
    code, _, err = _run(capsys, ["test-zero", "--poly", poly, "--domain", baddom])
    assert code == 2


@pytest.mark.parametrize(
    "kind, blob",
    [
        ("poly", {"field": "GF(3)", "nvars": 1, "terms": [{"coeff": 1, "exps": [7.9]}]}),
        ("poly", {"field": "GF(3)", "nvars": 1, "terms": [{"coeff": True, "exps": [2]}]}),
        ("poly", {"field": "GF(3)", "nvars": 1.0, "terms": [{"coeff": 1, "exps": [2]}]}),
        ("domain", {"field": "GF(3)", "sets": [[1, "2"]]}),
        (
            "system",
            {
                "field": "GF(3)",
                "polys": [{"nvars": 2, "terms": [{"coeff": 1, "exps": [1, 0]}]}],
                "domain": {"field": "GF(3)", "sets": [[1, 2], [1, 2]]},
                "anchor": ["1", 2],
            },
        ),
    ],
    ids=["exponent-float", "coefficient-bool", "nvars-float", "set-index-string", "anchor-string"],
)
def test_inputs_must_be_json_integers(capsys, tmp_path, fermat_files, kind, blob):
    poly, dom = fermat_files
    bad = _write(tmp_path / "bad.json", blob)
    if kind == "system":
        argv = ["solve-system", "--system", bad]
    else:
        argv = ["test-zero", "--poly", bad if kind == "poly" else poly]
        argv += ["--domain", bad if kind == "domain" else dom]
    code, report, err = _run(capsys, argv)
    assert code == 2 and report is None
    assert err.startswith("error:") and "must be a JSON integer" in err


def test_unprintable_report_exits_2(capsys, tmp_path):
    # with M = 64 on GF(2^12) the budget is 2^17028, past the int-to-str digit limit
    poly = _write(
        tmp_path / "p.json",
        {"field": "GF(2^12)", "nvars": 2, "terms": [{"coeff": 1, "exps": [1, 1]}]},
    )
    dom = _write(tmp_path / "d.json", {"field": "GF(2^12)", "sets": [[1, 2], [1, 2]]})
    code = main(["test-zero", "--poly", poly, "--domain", dom, "--bound", "64"])
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and out.err.startswith("error:")


def test_memory_error_exits_2(capsys, monkeypatch, f4_files):
    # an input too large to allocate must not end in exit 1, the witness code
    def out_of_memory(self, domain):
        raise MemoryError

    monkeypatch.setattr(SparsePoly, "reduce_mod_domain", out_of_memory)
    poly, dom = f4_files
    code, report, err = _run(capsys, ["reduce", "--poly", poly, "--domain", dom])
    assert code == 2 and report is None
    assert err.splitlines() == ["error: MemoryError"]


def test_unwritable_out_exits_2(capsys, tmp_path, fermat_files):
    poly, dom = fermat_files
    out = tmp_path / "missing" / "r.json"
    code, _, err = _run(capsys, ["test-zero", "--poly", poly, "--domain", dom, "--out", str(out)])
    assert code == 2 and err.startswith("error:")
    assert not out.exists()


def test_text_polynomial_input(capsys, tmp_path, fermat_files):
    _, dom = fermat_files
    poly = tmp_path / "p.txt"
    poly.write_text("1*x1^2+2")
    code, report, _ = _run(
        capsys, ["test-zero", "--poly", str(poly), "--domain", dom, "--field", "GF(3)"]
    )
    assert code == 0 and report["verdict"] == "vanishes"
    code, _, err = _run(capsys, ["test-zero", "--poly", str(poly), "--domain", dom])
    assert code == 2 and "--field" in err


def test_text_polynomial_takes_the_domain_variables(capsys, tmp_path):
    poly = tmp_path / "p.txt"
    dom = _write(tmp_path / "d.json", {"field": "GF(7)", "sets": [[1, 2], [1, 2]]})
    argv = ["reduce", "--poly", str(poly), "--domain", dom, "--field", "GF(7)"]
    poly.write_text("3*x1")
    code, report, _ = _run(capsys, argv)
    assert code == 0 and report["input"]["poly"]["nvars"] == 2
    # a variable past the domain fails before its exponent tuple of
    # 5 * 10^6 entries is built
    poly.write_text("x5000000")
    make_field(7)  # the field's tables are not the input's cost
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "x5000000" in capsys.readouterr().err
    assert peak < 1 << 20


def test_find_nonzero(capsys, f4_files):
    poly, dom = f4_files
    code, report, _ = _run(
        capsys, ["find-nonzero", "--poly", poly, "--domain", dom, "--anchor", "2,3"]
    )
    assert code == 1
    assert report["verdict"] == "witness" and report["distance"] == 0
    code, _, err = _run(
        capsys, ["find-nonzero", "--poly", poly, "--domain", dom, "--anchor", "1,1"]
    )
    assert code == 2  # anchor outside the domain
    code, _, err = _run(
        capsys, ["find-nonzero", "--poly", poly, "--domain", dom, "--anchor", "2,x"]
    )
    assert code == 2


def test_reduce_worked_example(capsys, f4_files):
    poly, dom = f4_files
    code, report, err = _run(capsys, ["reduce", "--poly", poly, "--domain", dom])
    assert code == 0
    assert report["input"]["monomials"] == 1
    assert report["reduced"]["monomials"] == 4
    assert report["reduced"]["text"] == "1+1*x2+1*x1+1*x1*x2"
    assert "1 -> 4" in err


def test_reduce_hostile_exponent(capsys, tmp_path):
    # X1^(10^9) steps only to its folded exponent: this returns at once
    from gridball.poly import _fold

    dom_data = {"field": "GF(7)", "sets": [[0, 2, 3, 5], [1, 4]]}
    dom = _write(tmp_path / "d7.json", dom_data)

    def poly(e):
        terms = [{"coeff": 3, "exps": [e, 1]}, {"coeff": 1, "exps": [2, 5]}]
        return {"field": "GF(7)", "nvars": 2, "terms": terms}

    path = _write(tmp_path / "huge.json", poly(10**9))
    code, report, _ = _run(capsys, ["reduce", "--poly", path, "--domain", dom])
    assert code == 0
    want = SparsePoly.from_json_dict(poly(_fold(10**9, 6))).reduce_mod_domain(
        RectangularDomain.from_json_dict(dom_data)
    )
    assert report["reduced"]["poly"] == want.to_json_dict()
    assert report["input"]["poly"]["terms"][1]["exps"] == [10**9, 1]


@pytest.mark.parametrize("kind", ["poly", "domain"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, fermat_files, kind):
    poly, dom = fermat_files
    deep = tmp_path / "deep.json"
    deep.write_text('{"sets": ' + "[" * 100_000 + "]" * 100_000 + "}")
    argv = ["reduce", "--poly", str(deep) if kind == "poly" else poly]
    argv += ["--domain", str(deep) if kind == "domain" else dom]
    code, report, err = _run(capsys, argv)
    assert code == 2 and report is None
    assert err.startswith("error:")


@pytest.mark.parametrize("field", [123, None])
@pytest.mark.parametrize("kind", ["poly", "domain"])
def test_non_string_field_exits_2(capsys, tmp_path, fermat_files, kind, field):
    poly, dom = fermat_files
    blob = json.loads(Path(poly if kind == "poly" else dom).read_text())
    bad = _write(tmp_path / "bad.json", {**blob, "field": field})
    argv = ["test-zero", "--poly", bad if kind == "poly" else poly]
    argv += ["--domain", bad if kind == "domain" else dom]
    code, report, err = _run(capsys, argv)
    assert code == 2 and report is None
    assert err.startswith("error:") and "must be a string" in err


@pytest.mark.parametrize("field", ["GF(2305843009213693951)", "GF(3^50000000)"])
def test_huge_field_order_exits_2_fast(capsys, tmp_path, field):
    poly = _write(tmp_path / "p.json", {"field": field, "nvars": 1, "terms": []})
    dom = _write(tmp_path / "d.json", {"field": field, "sets": [[1]]})
    start = time.perf_counter()
    code, report, err = _run(capsys, ["test-zero", "--poly", poly, "--domain", dom])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and report is None
    assert err.startswith("error:") and "exceeds cap" in err


@pytest.fixture
def system_file(tmp_path):
    return _write(
        tmp_path / "sys.json",
        {
            "field": "GF(3)",
            "polys": [
                {"nvars": 2, "terms": [{"coeff": 1, "exps": [1, 0]}, {"coeff": 2, "exps": [0, 1]}]}
            ],
            "domain": {"field": "GF(3)", "sets": [[1, 2], [1, 2]]},
            "anchor": [1, 2],
        },
    )


def test_solve_system(capsys, system_file):
    code, report, _ = _run(capsys, ["solve-system", "--system", system_file])
    assert code == 1
    assert report["verdict"] == "solution"
    assert report["distance"] == 1
    assert report["radius_closed_form"] >= report["radius"] - 1e-9


def test_solve_system_anchor_override(capsys, system_file):
    code, report, _ = _run(
        capsys, ["solve-system", "--system", system_file, "--anchor", "2,2"]
    )
    assert code == 1 and report["distance"] == 0


def test_solve_system_bad_anchor_override(capsys, system_file):
    code, _, err = _run(capsys, ["solve-system", "--system", system_file, "--anchor", "1,x"])
    assert code == 2
    assert err == "error: bad anchor '1,x', expected comma-separated indices\n"


def test_solve_system_unsatisfiable(capsys, tmp_path):
    sysf = _write(
        tmp_path / "unsat.json",
        {
            "field": "GF(3)",
            "polys": [
                {"nvars": 2, "terms": [{"coeff": 1, "exps": [1, 0]}, {"coeff": 2, "exps": [0, 1]}]},
                {"nvars": 2, "terms": [{"coeff": 1, "exps": [1, 0]}, {"coeff": 2, "exps": [0, 1]}, {"coeff": 2, "exps": [0, 0]}]},
            ],
            "domain": {"field": "GF(3)", "sets": [[1, 2], [1, 2]]},
            "anchor": [1, 2],
        },
    )
    code, report, _ = _run(capsys, ["solve-system", "--system", sysf])
    assert code == 0 and report["verdict"] == "no-solution"


def test_solve_system_zero_domain(capsys, tmp_path):
    sysf = _write(
        tmp_path / "zd.json",
        {
            "field": "GF(5)",
            "polys": [
                {"nvars": 2, "terms": [{"coeff": 1, "exps": [1, 0]}, {"coeff": 4, "exps": [0, 1]}]}
            ],
            "domain": {"field": "GF(5)", "sets": [[0, 2], [0, 3]]},
            "anchor": [2, 3],
        },
    )
    code, report, _ = _run(capsys, ["solve-system", "--system", sysf])
    assert code == 1
    assert report["theorem"] == "indicator-zero-domain"
    # x1 = 2, x2 = 3: 2 - 3 != 0, so the nearest solution zeroes something
    assert report["distance"] >= 1
    # anchor not the nonzero corner -> error
    code, _, _ = _run(capsys, ["solve-system", "--system", sysf, "--anchor", "0,3"])
    assert code == 2
    # the origin is not a solution of x1 - x2 + 1 -> error
    no_origin = _write(
        tmp_path / "zd1.json",
        {
            "field": "GF(5)",
            "polys": [
                {"nvars": 2, "terms": [{"coeff": 1, "exps": [1, 0]}, {"coeff": 4, "exps": [0, 1]}, {"coeff": 1, "exps": [0, 0]}]}
            ],
            "domain": {"field": "GF(5)", "sets": [[0, 2], [0, 3]]},
            "anchor": [2, 3],
        },
    )
    code, _, err = _run(capsys, ["solve-system", "--system", no_origin])
    assert code == 2 and "origin" in err


def test_solve_system_gf256_caps_the_radius_at_n(capsys, tmp_path):
    # the ratio generator/1 has order r = 255, so floor(log_t m_hat) is about
    # 1.4e5; the radius loop stops at N = 5 instead of running that far
    f = make_field(2, 8)
    n = 5
    sets = [[1, f.generator_index, 7], [3, 5, 9], [11, 13, 17], [19, 23, 29], [31, 37, 41]]
    x = [SparsePoly.variable(f, n, i) for i in range(n)]
    t = [f.element(s[2]) for s in sets]  # planted solution
    p1 = x[0] * x[1] + x[2] + SparsePoly.constant(f, n, t[0] * t[1] + t[2])
    p2 = x[3] * x[4] + x[0] + SparsePoly.constant(f, n, t[3] * t[4] + t[0])
    assert p1.monomial_count() == p2.monomial_count() == 3
    dom = RectangularDomain(f, [[f.element(i) for i in s] for s in sets])
    sysf = _write(
        tmp_path / "gf256.json",
        {
            "field": f.name,
            "polys": [p1.to_json_dict(), p2.to_json_dict()],
            "domain": dom.to_json_dict(),
            "anchor": [s[0] for s in sets],
        },
    )
    code, report, _ = _run(capsys, ["solve-system", "--system", sysf])
    sols = brute.solution_positions([p1, p2], dom)
    witness = [sets[i].index(v) for i, v in enumerate(report["witness"])]
    assert code == 1 and report["radius"] == n
    assert witness in sols.tolist()
    assert report["distance"] == int((sols != 0).sum(axis=1).min())


def test_verify_bounds(capsys):
    code, report, err = _run(
        capsys, ["verify-bounds", "--per-theorem", "5", "--seed", "3"]
    )
    assert code == 0
    assert report["all_pass"]
    assert set(report["suites"]) == {
        "two-point-sparsity",
        "subgroup-sparsity",
        "two-point-density",
        "power-domain-density",
        "degree-bounded-sparsity",
        "zero-domain-sparsity",
        "alternating-difference",
        "covering-tuple",
        "support-exchange",
    }
    assert "all bounds hold" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_bounds_rejects_an_empty_suite(capsys, count):
    # a suite of no instances checks nothing, so it must not pass
    code = main(["verify-bounds", "--per-theorem", count])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"error: per-theorem count must be >= 1, got {count}\n"


def test_reports_are_byte_identical(tmp_path, capsys, fermat_files, system_file):
    poly, dom = fermat_files
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            ["test-zero", "--poly", poly, "--domain", dom, "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()
    outs = []
    for name in ("v1.json", "v2.json"):
        out = tmp_path / name
        code = main(["verify-bounds", "--per-theorem", "4", "--seed", "5", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    outs = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        code = main(["solve-system", "--system", system_file, "--out", str(out)])
        assert code == 1
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# -- any JSON input ends in exit 0, 1 or 2 -------------------------------------

_VALID = {
    "poly": {
        "field": "GF(7)",
        "nvars": 2,
        "terms": [{"coeff": 3, "exps": [6, 1]}, {"coeff": 1, "exps": [0, 2]}],
    },
    "domain": {"field": "GF(7)", "sets": [[1, 2, 4], [1, 2, 4]]},
    "system": {
        "field": "GF(7)",
        "polys": [{"nvars": 2, "terms": [{"coeff": 1, "exps": [1, 0]}, {"coeff": 6, "exps": [0, 1]}]}],
        "domain": {"field": "GF(7)", "sets": [[1, 3], [2, 3, 5]]},
        "anchor": [3, 5],
    },
}

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-1, 0, 1, 2, 6, 7, 10**9, 2**63, 10**30])
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["GF(2)", "GF(7)", "GF(3^2)", "GF(7", "GF(0)", "GF(6)"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def _mutated(draw, doc):
    """doc with one node replaced by any JSON value, or one key dropped."""
    if not isinstance(doc, (dict, list)) or not doc or draw(st.integers(0, 3)) == 0:
        return draw(_JSON)
    out = doc.copy()
    key = draw(st.sampled_from(sorted(doc) if isinstance(doc, dict) else range(len(doc))))
    if isinstance(doc, dict) and draw(st.integers(0, 5)) == 0:
        del out[key]
    else:
        out[key] = draw(_mutated(doc[key]))
    return out


def _input(kind):
    return st.one_of(_JSON, _mutated(_VALID[kind]), st.just(_VALID[kind]))


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(poly=_input("poly"), domain=_input("domain"), system=_input("system"))
def test_any_json_input_exits_0_1_or_2(tmp_path, poly, domain, system):
    # no traceback escapes main, whatever the files hold
    files = ["--poly", _write(tmp_path / "p.json", poly)]
    files += ["--domain", _write(tmp_path / "d.json", domain)]
    for argv in (
        ["test-zero", *files],
        ["find-nonzero", *files, "--anchor", "1,2"],
        ["solve-system", "--system", _write(tmp_path / "s.json", system)],
        ["reduce", *files],
    ):
        assert main(argv) in (0, 1, 2)


# -- any text or bytes in a polynomial file end in exit 0, 1 or 2 ------------

_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=10)
_FACTOR = _DIGITS | st.builds("x{}".format, _DIGITS) | st.builds("x{}^{}".format, _DIGITS, _DIGITS)
_TERM = st.lists(_FACTOR, min_size=1, max_size=3).map("*".join)
_TEXT = st.lists(_TERM, min_size=1, max_size=4).map(" + ".join) | st.text(
    alphabet="x0123456789^*+ ", max_size=30
)


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(blob=_TEXT.map(str.encode) | st.binary(max_size=40))
def test_any_text_or_bytes_exits_0_1_or_2(tmp_path, blob):
    # variable indices and exponents of up to 10 digits included: each call
    # ends in an exit code, and fast
    path = tmp_path / "p.txt"
    path.write_bytes(blob)
    files = ["--poly", str(path), "--domain", _write(tmp_path / "d.json", _VALID["domain"])]
    files += ["--field", "GF(7)"]
    for argv in (
        ["test-zero", *files],
        ["find-nonzero", *files, "--anchor", "1,2"],
        ["reduce", *files],
        ["solve-system", "--system", str(path), "--field", "GF(7)"],
    ):
        start = time.perf_counter()
        assert main(argv) in (0, 1, 2)
        assert time.perf_counter() - start < 2.0
