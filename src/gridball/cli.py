"""Command-line front end: parse inputs, run the algorithms, emit JSON reports.

Reports are printed to stdout (or --out FILE) as sorted-key JSON, so a given
command line with a given seed always produces byte-identical output; a
one-line human summary goes to stderr.

Exit codes, uniform across commands:
  0  definitive negative: vanishes everywhere / no solution / all bounds hold
  1  witness: a nonzero or a solution was found / a bound failed
  2  error: bad flags, malformed input, violated preconditions
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from gridball import brute
from gridball.domain import RectangularDomain
from gridball.gf import FieldSpec, json_int, parse_field_name
from gridball.poly import SparsePoly
from gridball.solver import PolySystem, solve_near, solve_near_zero_domain
from gridball.tester import EvaluationOracle, find_nonzero_near, radius_general, test_zero_on_power_domain

DEFAULT_SEED = 0
DEFAULT_PER_THEOREM = 200


@dataclass
class RunConfig:
    """Everything one invocation needs; the seed lands in every report."""

    command: str
    field: str | None = None
    poly_path: str | None = None
    domain_path: str | None = None
    system_path: str | None = None
    anchor: str | None = None
    bound: int | None = None
    seed: int = DEFAULT_SEED
    out: str | None = None
    per_theorem: int = DEFAULT_PER_THEOREM


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_poly(config: RunConfig, domain: RectangularDomain) -> SparsePoly:
    """The --poly file; text is read in the domain's variables, so x_i past them fails at once."""
    if config.poly_path is None:
        raise ValueError("this command needs --poly FILE")
    with open(config.poly_path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    stripped = raw.lstrip()
    if stripped.startswith("{"):
        p = SparsePoly.from_json_dict(json.loads(raw))
    else:
        if config.field is None:
            raise ValueError("text polynomial files need --field GF(p^k)")
        p = SparsePoly.from_text(parse_field_name(config.field), stripped.strip(), domain.nvars)
    _check_field(config, p.field)
    return p


def _load_domain(config: RunConfig) -> RectangularDomain:
    if config.domain_path is None:
        raise ValueError("this command needs --domain FILE")
    d = RectangularDomain.from_json_dict(_load_json(config.domain_path))
    _check_field(config, d.field)
    return d


def _check_field(config: RunConfig, field: FieldSpec) -> None:
    if config.field is not None and parse_field_name(config.field) is not field:
        raise ValueError(f"--field {config.field} does not match the file's {field.name}")


def _parse_anchor(config: RunConfig, domain: RectangularDomain):
    if config.anchor is None:
        raise ValueError("this command needs --anchor i,j,...")
    try:
        indices = [int(t) for t in config.anchor.split(",")]
    except ValueError:
        raise ValueError(f"bad anchor {config.anchor!r}, expected comma-separated indices") from None
    if len(indices) != domain.nvars:
        raise ValueError(f"anchor has {len(indices)} coordinates, domain has {domain.nvars}")
    anchor = tuple(domain.field.element(i) for i in indices)
    if not domain.contains(anchor):
        raise ValueError("anchor is not a point of the domain")
    return anchor


def _base_report(config: RunConfig) -> dict:
    return {"command": config.command, "seed": config.seed}


def cmd_test_zero(config: RunConfig) -> tuple[int, dict]:
    """Decide vanishing on S^N; exit 0 = vanishes, 1 = witness found."""
    domain = _load_domain(config)
    p = _load_poly(config, domain)
    if not domain.is_power:
        raise ValueError("test-zero needs a power domain (all coordinate sets equal)")
    if domain.nvars != p.nvars:
        raise ValueError(f"polynomial has {p.nvars} variables, domain has {domain.nvars}")
    s = list(domain.sets[0])
    oracle = EvaluationOracle.from_poly(p, config.bound)
    report = _base_report(config)
    rep = test_zero_on_power_domain(oracle, s, p.nvars)
    # evaluation budget of the black-box test, with t = (q-1)/(q-2)
    q = p.field.q
    if q > 2:
        k_budget = radius_general(oracle.bound, q - 1)
    else:
        k_budget = 0
    budget = max(1, math.comb(p.nvars, k_budget)) * len(s) ** k_budget
    report.update(
        field=p.field.name,
        nvars=p.nvars,
        set=[x.index for x in s],
        bound=oracle.bound,
        budget=budget,
        budget_radius=k_budget,
        **rep.to_json_dict(),
    )
    return (0 if rep.verdict == "vanishes" else 1), report


def cmd_find_nonzero(config: RunConfig) -> tuple[int, dict]:
    """Nearest-nonzero search; exit 0 = vanishes on the domain, 1 = witness."""
    domain = _load_domain(config)
    p = _load_poly(config, domain)
    anchor = _parse_anchor(config, domain)
    rep = find_nonzero_near(p, anchor, domain, bound=config.bound)
    report = _base_report(config)
    report.update(
        field=p.field.name,
        nvars=p.nvars,
        anchor=[x.index for x in anchor],
        bound=config.bound if config.bound is not None else max(1, p.monomial_count()),
        **rep.to_json_dict(),
    )
    return (0 if rep.verdict == "vanishes" else 1), report


def cmd_solve_system(config: RunConfig) -> tuple[int, dict]:
    """Solve a system near an anchor; exit 0 = no solution, 1 = solution."""
    if config.system_path is None:
        raise ValueError("solve-system needs --system FILE")
    data = _load_json(config.system_path)
    field = parse_field_name(data["field"])
    _check_field(config, field)
    polys = []
    for pd in data["polys"]:
        if "field" not in pd:
            pd = {"field": field.name, **pd}
        polys.append(SparsePoly.from_json_dict(pd, field))
    system = PolySystem(polys)
    domain = RectangularDomain.from_json_dict(data["domain"], field)
    if domain.nvars != system.nvars:
        raise ValueError("domain and system disagree on the variable count")
    anchor_idx = data.get("anchor")
    if config.anchor is not None:
        anchor = _parse_anchor(config, domain)
    elif anchor_idx is None:
        raise ValueError("the system file or --anchor must provide an anchor")
    else:
        anchor = tuple(field.element(json_int(i, "anchor index")) for i in anchor_idx)
        if len(anchor) != system.nvars:
            raise ValueError("anchor has the wrong number of coordinates")

    if domain.contains_zero:
        vertex = domain.zero_paired_vertex()
        if vertex is None:
            raise ValueError(
                "domains containing zero must be of the {0, a_i} per-coordinate form"
            )
        if anchor != vertex:
            raise ValueError("on a {0, a_i} domain the anchor must be the nonzero corner")
        rep = solve_near_zero_domain(system, anchor)
    else:
        rep = solve_near(system, anchor, domain)
    report = _base_report(config)
    report.update(
        field=field.name,
        nvars=system.nvars,
        polys=[p.to_json_dict() for p in system.polys],
        domain=domain.to_json_dict(),
        anchor=[x.index for x in anchor],
        **rep.to_json_dict(),
    )
    return (1 if rep.verdict == "solution" else 0), report


def cmd_reduce(config: RunConfig) -> tuple[int, dict]:
    """Reduce a polynomial to its normal form on a domain; exit 0 on success."""
    domain = _load_domain(config)
    p = _load_poly(config, domain)
    if domain.nvars != p.nvars:
        raise ValueError(f"polynomial has {p.nvars} variables, domain has {domain.nvars}")
    reduced = p.reduce_mod_domain(domain)
    report = _base_report(config)
    report.update(
        field=p.field.name,
        nvars=p.nvars,
        domain=domain.to_json_dict(),
        input={"poly": p.to_json_dict(), "text": p.to_text(), "monomials": p.monomial_count()},
        reduced={
            "poly": reduced.to_json_dict(),
            "text": reduced.to_text(),
            "monomials": reduced.monomial_count(),
        },
    )
    return 0, report


def cmd_verify_bounds(config: RunConfig) -> tuple[int, dict]:
    """Run the randomized bound suites; exit 0 = all pass, 1 = counterexample."""
    suite = brute.run_verification_suite(config.seed, config.per_theorem)
    report = _base_report(config)
    report.update(suite)
    return (0 if suite["all_pass"] else 1), report


_COMMANDS = {
    "test-zero": cmd_test_zero,
    "find-nonzero": cmd_find_nonzero,
    "solve-system": cmd_solve_system,
    "reduce": cmd_reduce,
    "verify-bounds": cmd_verify_bounds,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridball",
        description="Sparse polynomial zero testing and solving on finite-field grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--field", help='field name, e.g. "GF(9)" or "GF(3^2)"')
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed, recorded in the report")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")

    sp = sub.add_parser("test-zero", help="decide whether a polynomial vanishes on S^N")
    sp.add_argument("--poly", required=True, help="polynomial file (JSON or text)")
    sp.add_argument("--domain", required=True, help="power-domain file (JSON)")
    sp.add_argument("--bound", type=int, help="declared monomial bound (>= the true count)")
    common(sp)

    sp = sub.add_parser("find-nonzero", help="nearest nonzero within the guaranteed radius")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--domain", required=True)
    sp.add_argument("--anchor", required=True, help="comma-separated element indices")
    sp.add_argument("--bound", type=int)
    common(sp)

    sp = sub.add_parser("solve-system", help="nearest solution of a sparse system")
    sp.add_argument("--system", required=True, help="system file (JSON)")
    sp.add_argument("--anchor", help="override the file's anchor")
    common(sp)

    sp = sub.add_parser("reduce", help="normal form modulo the domain's vanishing ideal")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--domain", required=True)
    common(sp)

    sp = sub.add_parser("verify-bounds", help="run the randomized bound-verification suites")
    sp.add_argument("--per-theorem", type=int, default=DEFAULT_PER_THEOREM, dest="per_theorem")
    common(sp)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        field=getattr(args, "field", None),
        poly_path=getattr(args, "poly", None),
        domain_path=getattr(args, "domain", None),
        system_path=getattr(args, "system", None),
        anchor=getattr(args, "anchor", None),
        bound=getattr(args, "bound", None),
        seed=args.seed,
        out=args.out,
        per_theorem=getattr(args, "per_theorem", DEFAULT_PER_THEOREM),
    )


def run(config: RunConfig) -> tuple[int, dict]:
    """Run one command; returns (exit_code, report)."""
    if config.command not in _COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    return _COMMANDS[config.command](config)


def _summary(code: int, report: dict) -> str:
    cmd = report.get("command", "?")
    if cmd == "verify-bounds":
        status = "all bounds hold" if code == 0 else "COUNTEREXAMPLE FOUND"
        return f"{cmd}: {status} ({report['per_theorem']} instances per suite)"
    if cmd == "reduce":
        return (
            f"reduce: {report['input']['monomials']} -> "
            f"{report['reduced']['monomials']} monomials"
        )
    verdict = report.get("verdict")
    extra = ""
    if report.get("witness") is not None:
        extra = f" at distance {report['distance']}"
    return f"{cmd}: {verdict}{extra} ({report.get('evaluations')} evaluations)"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    try:
        code, report = run(config)
        # encoding can fail too: an integer past the int-to-str digit limit
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if config.out:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    # RecursionError: json nesting deeper than the interpreter's stack;
    # MemoryError: an input too large to allocate, often with an empty message
    except (
        ValueError, TypeError, KeyError, IndexError, OSError, RecursionError, MemoryError
    ) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    print(_summary(code, report), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
