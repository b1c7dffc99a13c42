"""Exhaustive brute-force ground truth and bound verifiers.

Everything here decides by full enumeration (capped at 10^6 grid points) and
is the source of truth the search modules are tested against.  The grid
evaluator builds per-axis value tensors and never materializes point lists,
so it shares no code path with the pointwise evaluation used by the testers.

The verify_* functions check one counting bound each: hypotheses are
validated first and violations raise HypothesisError (never silently
skipped); a False return is a genuine counterexample to the bound.
Real-valued bounds are compared with an outward-rounding margin of 1e-9;
integer bounds are compared exactly.

Counterexamples serialize as JSON: the instance, the claimed bound, and the
observed values.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from gridball.domain import RectangularDomain, entropy, vol
from gridball.gf import (
    FieldElement,
    FieldSpec,
    make_field,
    max_ratio_order,
    mul_order,
    subgroup_of_order,
)
from gridball.poly import SparsePoly
from gridball.tester import radius_general

Point = tuple[FieldElement, ...]

ENUM_CAP = 10**6
MARGIN = 1e-9


class HypothesisError(ValueError):
    """A verifier was handed an instance violating the bound's hypotheses."""


class CounterexampleError(AssertionError):
    """A verified-by-theorem fact failed on a concrete instance."""

    def __init__(self, message: str, payload: dict):
        super().__init__(message)
        self.payload = payload

    def as_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True)


def real_geq(lhs: float, rhs: float) -> bool:
    """lhs >= rhs allowing the declared outward-rounding margin."""
    return lhs >= rhs - MARGIN * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# full-grid evaluation


def evaluate_on_grid(f: SparsePoly, domain: RectangularDomain) -> np.ndarray:
    """Values of f on the whole grid, one tensor axis per coordinate.

    Entry [j_1, .., j_N] is the canonical index of f(A_1[j_1], .., A_N[j_N]).
    """
    if domain.field is not f.field:
        raise ValueError("domain over a different field")
    if domain.nvars != f.nvars:
        raise ValueError("domain with a different variable count")
    if domain.size > ENUM_CAP:
        raise ValueError(f"grid size {domain.size} exceeds enumeration cap {ENUM_CAP}")
    fld = f.field
    dims = tuple(len(a) for a in domain.sets)
    axes = [np.array([x.index for x in a], dtype=np.int64) for a in domain.sets]
    acc = np.zeros(dims, dtype=np.int64)
    for exps, c in f.terms.items():
        t = np.array(c.index, dtype=np.int64)
        for i, e in enumerate(exps):
            t = fld.vec_mul(t[..., None], fld.vec_pow(axes[i], e))
        acc = fld.vec_add(acc, t)
    return acc


def _positions_to_point(domain: RectangularDomain, pos: Sequence[int]) -> Point:
    return tuple(domain.sets[i][j] for i, j in enumerate(pos))


def nonzero_positions(f: SparsePoly, domain: RectangularDomain) -> np.ndarray:
    """Per-axis positions of the grid points where f is nonzero, shape (m, N)."""
    return np.argwhere(evaluate_on_grid(f, domain) != 0)


def nonzero_set(f: SparsePoly, domain: RectangularDomain) -> set[Point]:
    """The exact set of domain points where f is nonzero, by full scan."""
    return {
        _positions_to_point(domain, pos) for pos in nonzero_positions(f, domain)
    }


def nonzero_count(f: SparsePoly, domain: RectangularDomain) -> int:
    return int((evaluate_on_grid(f, domain) != 0).sum())


def nearest_nonzero_distance(
    f: SparsePoly, domain: RectangularDomain, anchor: Point
) -> int | None:
    """Minimum Hamming distance from anchor to a nonzero of f, by full scan."""
    pos = nonzero_positions(f, domain)
    if pos.shape[0] == 0:
        return None
    anchor_pos = np.array(
        [domain.sets[i].index(x) for i, x in enumerate(anchor)], dtype=np.int64
    )
    return int((pos != anchor_pos).sum(axis=1).min())


def solution_positions(polys: Sequence[SparsePoly], domain: RectangularDomain) -> np.ndarray:
    """Per-axis positions of the common zeros of all polys, shape (m, N)."""
    mask = evaluate_on_grid(polys[0], domain) == 0
    for p in polys[1:]:
        mask &= evaluate_on_grid(p, domain) == 0
    return np.argwhere(mask)


# ---------------------------------------------------------------------------
# absorbing polynomials


@dataclass
class AbsorbingInstance:
    """A polynomial absorbing at `point` for `domain`, with an optional
    opposite corner where it is known to be nonzero."""

    poly: SparsePoly
    domain: RectangularDomain
    point: Point
    opposite: Point | None = None

    def to_json_dict(self) -> dict:
        return {
            "poly": self.poly.to_json_dict(),
            "domain": self.domain.to_json_dict(),
            "point": [x.index for x in self.point],
            "opposite": None if self.opposite is None else [x.index for x in self.opposite],
        }


def is_absorbing(f: SparsePoly, a: Point, domain: RectangularDomain) -> bool:
    """True iff f vanishes at every domain point sharing a coordinate with a."""
    a = tuple(a)
    if not domain.contains(a):
        raise ValueError("point is not in the domain")
    arr = evaluate_on_grid(f, domain)
    for i, ai in enumerate(a):
        pos = domain.sets[i].index(ai)
        sl = tuple(pos if j == i else slice(None) for j in range(domain.nvars))
        if np.any(arr[sl] != 0):
            return False
    return True


def make_absorbing(g: SparsePoly, a: Point, domain: RectangularDomain) -> SparsePoly:
    """g * prod_i (X_i - a_i), reduced to normal form on the domain.

    Absorbing at a for the domain by construction, with per-variable degrees
    below the coordinate set sizes.
    """
    a = tuple(a)
    if not domain.contains(a):
        raise ValueError("point is not in the domain")
    f = g.field
    vanisher = SparsePoly.one(f, g.nvars)
    for i, ai in enumerate(a):
        vanisher = vanisher * (
            SparsePoly.variable(f, g.nvars, i) - SparsePoly.constant(f, g.nvars, ai)
        )
    return (g * vanisher).reduce_mod_domain(domain)


def alternating_difference(p: SparsePoly, a: Point, b: Point) -> FieldElement:
    """sum over subsets I of (-1)^(N-|I|) p(c^I), c^I_i = b_i if i in I else a_i.

    For p absorbing at a on the box spanned by a and b, every summand except
    the I = full-set one vanishes, so the value collapses to p(b).
    """
    a, b = tuple(a), tuple(b)
    if len(a) != len(b) or len(a) != p.nvars:
        raise ValueError("point length mismatch")
    fld = p.field
    n = p.nvars
    total = 0
    for picks in product((0, 1), repeat=n):
        point = tuple(b[i] if picks[i] else a[i] for i in range(n))
        v = p.evaluate(point).index
        if (n - sum(picks)) % 2:
            v = fld.neg_index(v)
        total = fld.add_index(total, v)
    return FieldElement(fld, total)


# ---------------------------------------------------------------------------
# covering and exchange combinatorics


def find_covering_tuple(
    tuples: Iterable[tuple[int, ...]], radii: Sequence[int]
) -> tuple[int, ...] | None:
    """First grid tuple agreeing with every given tuple in some coordinate.

    Scans prod_i {0..radii[i]-1} in lexicographic order; a hit is guaranteed
    whenever len(tuples) * prod(radii[i]-1) < prod(radii[i]).
    """
    tlist = [tuple(t) for t in tuples]
    n = len(radii)
    for t in tlist:
        if len(t) != n:
            raise ValueError("tuple length does not match the grid")
    for q in product(*(range(r) for r in radii)):
        if all(any(q[i] == t[i] for i in range(n)) for t in tlist):
            return q
    return None


def check_comb_property(
    exps: Iterable[tuple], sets: Sequence[Iterable]
) -> bool:
    """Exhaustively test the coordinate-exchange condition on a tuple set.

    The condition: for every member and every coordinate j there is a
    different j-th value (within sets[j]) giving another member.  Returns
    whether it holds; when it holds for a nonempty set, the set must have at
    least 2^N members, and a violation raises CounterexampleError.
    """
    e_set = {tuple(e) for e in exps}
    a_sets = [set(s) for s in sets]
    n = len(a_sets)
    for e in e_set:
        if len(e) != n or any(x not in a_sets[i] for i, x in enumerate(e)):
            raise ValueError(f"{e} is not a tuple of the product set")
    for e in e_set:
        for j in range(n):
            if not any(
                e[:j] + (v,) + e[j + 1 :] in e_set
                for v in a_sets[j]
                if v != e[j]
            ):
                return False
    if e_set and len(e_set) < 2**n:
        raise CounterexampleError(
            f"exchange condition holds but |E| = {len(e_set)} < 2^{n}",
            {
                "claimed": f"|E| >= 2^{n}",
                "observed": {"size": len(e_set)},
                "tuples": sorted(map(list, e_set)),
            },
        )
    return True


# ---------------------------------------------------------------------------
# bound verifiers


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise HypothesisError(msg)


def _two_point_corners(domain: RectangularDomain, a: Point) -> Point:
    """Opposite corner of a two-element-per-coordinate domain."""
    _require(
        all(len(s) == 2 for s in domain.sets),
        "domain must have exactly two elements per coordinate",
    )
    _require(domain.contains(a), "absorption point must lie in the domain")
    return tuple(s[0] if s[1] == ai else s[1] for s, ai in zip(domain.sets, a))


def verify_coeffs_bound(inst: AbsorbingInstance, orders: Sequence[int]) -> bool:
    """Two-point-domain sparsity bound: M(f) * prod(r_i - 1) >= prod r_i.

    Hypotheses: zero-free two-point domain {a_i, b_i}^N, a_i^{r_i} = b_i^{r_i}
    for each i, f absorbing at a, and f nonzero at the opposite corner b.
    """
    f, domain, a = inst.poly, inst.domain, tuple(inst.point)
    b = _two_point_corners(domain, a)
    if inst.opposite is not None:
        _require(tuple(inst.opposite) == b, "opposite point is not the opposite corner")
    _require(not domain.contains_zero, "domain must be zero-free")
    n = domain.nvars
    _require(len(orders) == n, "need one order per coordinate")
    for ai, bi, ri in zip(a, b, orders):
        _require(ri >= 1, "orders must be positive")
        _require(ai**ri == bi**ri, f"a^{ri} != b^{ri} in some coordinate")
    _require(is_absorbing(f, a, domain), "polynomial is not absorbing at the point")
    _require(f.evaluate(b).index != 0, "polynomial vanishes at the opposite corner")
    lhs = f.monomial_count()
    for ri in orders:
        lhs *= ri - 1
    rhs = math.prod(orders)
    return lhs >= rhs


def verify_kw_bound(f: SparsePoly, subgroup: Iterable[FieldElement], a: Point) -> bool:
    """Subgroup-domain sparsity bound: M(f) * (d-1)^N >= d^N.

    Hypotheses: subgroup of order d of the multiplicative group, f absorbing
    at a in S^N, and f nonzero somewhere on S^N.
    """
    elems = set(subgroup)
    d = len(elems)
    fld = f.field
    _require(
        d >= 1 and (fld.q - 1) % d == 0 and elems == subgroup_of_order(fld, d),
        f"the given set is not the multiplicative subgroup of order {d}",
    )
    n = f.nvars
    domain = RectangularDomain.power(fld, elems, n)
    a = tuple(a)
    _require(domain.contains(a), "absorption point must lie in S^N")
    _require(is_absorbing(f, a, domain), "polynomial is not absorbing at the point")
    _require(nonzero_count(f, domain) > 0, "polynomial vanishes on all of S^N")
    return f.monomial_count() * (d - 1) ** n >= d**n


def verify_2elements_density(f: SparsePoly, domain: RectangularDomain, r: int) -> bool:
    """Two-point-domain density: |W| >= 2^(N - log_t M(f)), t = r/(r-1).

    Real-valued comparison with the outward margin; hypotheses: zero-free
    two-point domain with a common order r (a_i^r = b_i^r for all i) and a
    nonempty nonzero set W.
    """
    _require(r >= 2, "common order must be >= 2")
    _require(not domain.contains_zero, "domain must be zero-free")
    _require(
        all(len(s) == 2 for s in domain.sets),
        "domain must have exactly two elements per coordinate",
    )
    for s in domain.sets:
        _require(s[0] ** r == s[1] ** r, f"coordinate pair has a^{r} != b^{r}")
    w = nonzero_count(f, domain)
    _require(w > 0, "the nonzero set is empty")
    n = domain.nvars
    m = f.monomial_count()
    log2_t = math.log2(r) - math.log2(r - 1)
    rhs = 2.0 ** (n - math.log2(m) / log2_t)
    return real_geq(float(w), rhs)


def density_bound_report(
    f: SparsePoly, s: Iterable[FieldElement], nvars: int
) -> dict:
    """All density bounds for f on S^nvars, with exact checks where possible.

    The ball-volume form and the (N*s)^k power form are verified with exact
    big-integer arithmetic (using the floored radius, which only strengthens
    them); the entropy form uses s as the entropy parameter and is checked
    with the outward margin when its sparsity hypothesis (tested exactly)
    holds.  The same form evaluated with the field order as parameter is
    reported for information only.
    """
    elems = sorted({x.index for x in s})
    fld = f.field
    _require(len(elems) >= 2, "need at least two elements in S")
    _require(elems[0] != 0, "S must be zero-free")
    sset = [FieldElement(fld, i) for i in elems]
    domain = RectangularDomain.power(fld, sset, nvars)
    w = nonzero_count(f, domain)
    _require(w > 0, "the nonzero set is empty")
    m = f.monomial_count()
    size = len(elems)
    r = max_ratio_order([sset])
    k = radius_general(m, r)
    log2_t = math.log2(r) - math.log2(r - 1)
    log_t_m = math.log2(m) / log2_t

    vol_ok = w * vol(size, nvars, k) >= size**nvars
    power_ok = w * (nvars * size) ** k >= size**nvars

    report = {
        "nonzeros": w,
        "monomials": m,
        "alphabet": size,
        "nvars": nvars,
        "ratio_order": r,
        "radius": k,
        "vol_form_ok": bool(vol_ok),
        "power_form_ok": bool(power_ok),
        "entropy_form_applicable": False,
        "entropy_form_ok": None,
        "entropy_form_field_order_value": None,
    }

    # hypothesis M <= t^(N(s-1)/s), exactly: M^s (r-1)^(N(s-1)) <= r^(N(s-1))
    if m**size * (r - 1) ** (nvars * (size - 1)) <= r ** (nvars * (size - 1)):
        x = log_t_m / nvars
        rhs = float(size) ** (nvars * (1.0 - entropy(size, x)))
        report["entropy_form_applicable"] = True
        report["entropy_form_ok"] = real_geq(float(w), rhs)
        report["entropy_form_rhs"] = rhs
    q = fld.q
    if m**q * (r - 1) ** (nvars * (q - 1)) <= r ** (nvars * (q - 1)):
        x = log_t_m / nvars
        report["entropy_form_field_order_value"] = float(size) ** (
            nvars * (1.0 - entropy(q, x))
        )
    return report


def verify_density_bounds(f: SparsePoly, s: Iterable[FieldElement], nvars: int) -> bool:
    """True iff every applicable density bound holds for f on S^nvars."""
    rep = density_bound_report(f, s, nvars)
    ok = rep["vol_form_ok"] and rep["power_form_ok"]
    if rep["entropy_form_applicable"]:
        ok = ok and rep["entropy_form_ok"]
    return bool(ok)


def verify_redcoeffs(f: SparsePoly, domain: RectangularDomain, a: Point) -> bool:
    """Degree-bounded sparsity: absorbing with deg_{X_i} < |A_i| implies
    M(f) >= 2^N.

    Hypotheses: a has no zero coordinates, f is absorbing at a, per-variable
    degrees are below the coordinate set sizes, and f is nonzero somewhere
    on the domain.
    """
    a = tuple(a)
    n = domain.nvars
    _require(domain.contains(a), "absorption point must lie in the domain")
    _require(all(x.index != 0 for x in a), "absorption point must be zero-free")
    _require(
        all(f.degree_in_variable(i) < len(domain.sets[i]) for i in range(n)),
        "per-variable degrees must be below the coordinate set sizes",
    )
    _require(is_absorbing(f, a, domain), "polynomial is not absorbing at the point")
    _require(nonzero_count(f, domain) > 0, "polynomial vanishes on the whole domain")
    return f.monomial_count() >= 2**n


def verify_coeffs2(f: SparsePoly, domain: RectangularDomain, a: Point) -> bool:
    """Zero-paired-domain sparsity: on {0,a_1}x..x{0,a_N}, absorbing at the
    nonzero corner with f(0,..,0) != 0 implies M(f) >= 2^N (no degree bounds).
    """
    a = tuple(a)
    vertex = domain.zero_paired_vertex()
    _require(vertex is not None, "domain must be of the {0, a_i} form")
    _require(a == vertex, "absorption point must be the all-nonzero corner")
    origin = (f.field.zero,) * domain.nvars
    _require(f.evaluate(origin).index != 0, "polynomial vanishes at the origin")
    _require(is_absorbing(f, a, domain), "polynomial is not absorbing at the point")
    return f.monomial_count() >= 2 ** domain.nvars


# ---------------------------------------------------------------------------
# randomized instance generation and the verification suite

SUITE_FIELDS: tuple[tuple[int, int], ...] = ((3, 1), (2, 2), (5, 1), (7, 1), (3, 2))


def random_sparse_poly(
    rng: random.Random,
    field: FieldSpec,
    nvars: int,
    max_terms: int,
    max_exp: int,
    min_terms: int = 1,
) -> SparsePoly:
    """Random sparse polynomial; collisions may make it sparser than asked."""
    nterms = rng.randint(min_terms, max(min_terms, max_terms))
    terms: dict[tuple[int, ...], FieldElement] = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[exps] = field.element(rng.randrange(1, field.q))
    return SparsePoly(field, nvars, terms)


def _random_two_point_domain(
    rng: random.Random, field: FieldSpec, nvars: int, zero_free: bool = True
) -> RectangularDomain:
    lo = 1 if zero_free else 0
    sets = []
    for _ in range(nvars):
        pair = rng.sample(range(lo, field.q), 2)
        sets.append([field.element(i) for i in pair])
    return RectangularDomain(field, sets)


def _random_vertex(rng: random.Random, domain: RectangularDomain) -> Point:
    return tuple(rng.choice(s) for s in domain.sets)


def _absorbing_poly(
    rng: random.Random, g: SparsePoly, a: Point, domain: RectangularDomain
) -> SparsePoly:
    """Absorbing at a for the domain; reduced or raw product, at random."""
    if rng.random() < 0.5:
        return make_absorbing(g, a, domain)
    f = g.field
    vanisher = SparsePoly.one(f, g.nvars)
    for i, ai in enumerate(a):
        vanisher = vanisher * (
            SparsePoly.variable(f, g.nvars, i) - SparsePoly.constant(f, g.nvars, ai)
        )
    return g * vanisher


_RETRIES = 200


def gen_two_point_sparsity(rng: random.Random, field: FieldSpec) -> tuple[AbsorbingInstance, list[int]]:
    """Instance for the two-point sparsity bound, hypothesis-satisfying."""
    nvars = rng.randint(1, 5)
    for _ in range(_RETRIES):
        domain = _random_two_point_domain(rng, field, nvars)
        a = _random_vertex(rng, domain)
        b = _two_point_corners(domain, a)
        g = random_sparse_poly(rng, field, nvars, 3, field.q - 1, min_terms=1)
        f = _absorbing_poly(rng, g, a, domain)
        if f.evaluate(b).index != 0:
            orders = [mul_order(ai / bi) for ai, bi in zip(a, b)]
            return AbsorbingInstance(f, domain, a, b), orders
    raise RuntimeError("failed to generate a two-point sparsity instance")


def gen_subgroup_sparsity(rng: random.Random, field: FieldSpec) -> tuple[SparsePoly, set[FieldElement], Point]:
    """Instance for the subgroup sparsity bound."""
    divisors = [d for d in range(2, field.q) if (field.q - 1) % d == 0]
    if not divisors:
        raise ValueError(f"{field.name} has no multiplicative subgroup of order >= 2")
    nvars = rng.randint(1, 4)
    for _ in range(_RETRIES):
        d = rng.choice(divisors)
        subgroup = subgroup_of_order(field, d)
        domain = RectangularDomain.power(field, subgroup, nvars)
        a = _random_vertex(rng, domain)
        g = random_sparse_poly(rng, field, nvars, 3, field.q - 1)
        f = _absorbing_poly(rng, g, a, domain)
        if nonzero_count(f, domain) > 0:
            return f, subgroup, a
    raise RuntimeError("failed to generate a subgroup sparsity instance")


def gen_two_point_density(rng: random.Random, field: FieldSpec) -> tuple[SparsePoly, RectangularDomain, int]:
    """Instance for the two-point density bound (common order r)."""
    nvars = rng.randint(1, 5)
    for _ in range(_RETRIES):
        domain = _random_two_point_domain(rng, field, nvars)
        r = math.lcm(*(mul_order(s[0] / s[1]) for s in domain.sets))
        if rng.random() < 0.5:
            f = random_sparse_poly(rng, field, nvars, 6, field.q - 1)
        else:
            a = _random_vertex(rng, domain)
            f = _absorbing_poly(rng, random_sparse_poly(rng, field, nvars, 2, field.q - 1), a, domain)
        if nonzero_count(f, domain) > 0:
            return f, domain, r
    raise RuntimeError("failed to generate a two-point density instance")


def gen_power_density(rng: random.Random, field: FieldSpec) -> tuple[SparsePoly, list[FieldElement], int]:
    """Instance for the power-domain density bounds."""
    size = rng.randint(2, field.q - 1)
    nvars = rng.randint(1, 5)
    for _ in range(_RETRIES):
        s = [field.element(i) for i in rng.sample(range(1, field.q), size)]
        f = random_sparse_poly(rng, field, nvars, 6, field.q - 1)
        if nonzero_count(f, RectangularDomain.power(field, s, nvars)) > 0:
            return f, s, nvars
    raise RuntimeError("failed to generate a power-domain density instance")


def gen_degree_bounded_sparsity(rng: random.Random, field: FieldSpec) -> tuple[SparsePoly, RectangularDomain, Point]:
    """Instance for the degree-bounded sparsity bound (reduced, so the degree
    hypothesis holds by construction; the domain may contain zero)."""
    nvars = rng.randint(1, 4)
    for _ in range(_RETRIES):
        sets = []
        for _ in range(nvars):
            size = rng.randint(2, min(4, field.q))
            sets.append([field.element(i) for i in rng.sample(range(field.q), size)])
        domain = RectangularDomain(field, sets)
        a = tuple(rng.choice([x for x in s if x.index != 0]) for s in domain.sets)
        g = random_sparse_poly(rng, field, nvars, 3, field.q - 1)
        f = make_absorbing(g, a, domain)
        if nonzero_count(f, domain) > 0:
            return f, domain, a
    raise RuntimeError("failed to generate a degree-bounded sparsity instance")


def gen_zero_domain_sparsity(rng: random.Random, field: FieldSpec) -> tuple[SparsePoly, RectangularDomain, Point]:
    """Instance for the zero-paired-domain sparsity bound."""
    nvars = rng.randint(1, 5)
    for _ in range(_RETRIES):
        a = tuple(field.element(rng.randrange(1, field.q)) for _ in range(nvars))
        domain = RectangularDomain(field, [[field.zero, x] for x in a])
        # g needs a nonzero value at the origin, so force a constant term
        g = random_sparse_poly(rng, field, nvars, 3, field.q - 1) + SparsePoly.constant(
            field, nvars, field.element(rng.randrange(1, field.q))
        )
        f = _absorbing_poly(rng, g, a, domain)
        origin = (field.zero,) * nvars
        if f.evaluate(origin).index != 0:
            return f, domain, a
    raise RuntimeError("failed to generate a zero-domain sparsity instance")


def gen_alternating_instance(rng: random.Random, field: FieldSpec) -> tuple[SparsePoly, Point, Point]:
    """Absorbing instance on a two-point box for the alternating-sum identity."""
    nvars = rng.randint(1, 5)
    domain = _random_two_point_domain(rng, field, nvars, zero_free=rng.random() < 0.5)
    a = _random_vertex(rng, domain)
    b = _two_point_corners(domain, a)
    g = random_sparse_poly(rng, field, nvars, 3, field.q - 1)
    f = _absorbing_poly(rng, g, a, domain)
    return f, a, b


def gen_covering_instance(rng: random.Random) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Tuple set small enough that a covering tuple must exist."""
    nvars = rng.randint(1, 5)
    radii = tuple(rng.randint(2, 4) for _ in range(nvars))
    full = math.prod(radii)
    excluded = math.prod(r - 1 for r in radii)
    max_size = (full - 1) // excluded  # largest |S| with |S| * excluded < full
    size = rng.randint(0, max_size)
    seen: set[tuple[int, ...]] = set()
    while len(seen) < size:
        seen.add(tuple(rng.randrange(r) for r in radii))
    return sorted(seen), radii


_SUITES = (
    "two-point-sparsity",
    "subgroup-sparsity",
    "two-point-density",
    "power-domain-density",
    "degree-bounded-sparsity",
    "zero-domain-sparsity",
    "alternating-difference",
    "covering-tuple",
    "support-exchange",
)


def _run_one(suite: str, rng: random.Random, field: FieldSpec) -> tuple[bool, dict]:
    if suite == "two-point-sparsity":
        inst, orders = gen_two_point_sparsity(rng, field)
        ok = verify_coeffs_bound(inst, orders)
        payload = {"instance": inst.to_json_dict(), "orders": orders,
                   "claimed": "M * prod(r_i - 1) >= prod r_i",
                   "observed": {"monomials": inst.poly.monomial_count()}}
    elif suite == "subgroup-sparsity":
        f, subgroup, a = gen_subgroup_sparsity(rng, field)
        ok = verify_kw_bound(f, subgroup, a)
        payload = {"poly": f.to_json_dict(),
                   "subgroup": sorted(x.index for x in subgroup),
                   "point": [x.index for x in a],
                   "claimed": "M * (d-1)^N >= d^N",
                   "observed": {"monomials": f.monomial_count()}}
    elif suite == "two-point-density":
        f, domain, r = gen_two_point_density(rng, field)
        ok = verify_2elements_density(f, domain, r)
        payload = {"poly": f.to_json_dict(), "domain": domain.to_json_dict(),
                   "order": r, "claimed": "|W| >= 2^(N - log_t M)",
                   "observed": {"nonzeros": nonzero_count(f, domain)}}
    elif suite == "power-domain-density":
        f, s, nvars = gen_power_density(rng, field)
        rep = density_bound_report(f, s, nvars)
        ok = verify_density_bounds(f, s, nvars)
        payload = {"poly": f.to_json_dict(), "set": [x.index for x in s],
                   "claimed": "volume/power/entropy density chain",
                   "observed": rep}
    elif suite == "degree-bounded-sparsity":
        f, domain, a = gen_degree_bounded_sparsity(rng, field)
        ok = verify_redcoeffs(f, domain, a)
        payload = {"poly": f.to_json_dict(), "domain": domain.to_json_dict(),
                   "point": [x.index for x in a], "claimed": "M >= 2^N",
                   "observed": {"monomials": f.monomial_count()}}
    elif suite == "zero-domain-sparsity":
        f, domain, a = gen_zero_domain_sparsity(rng, field)
        ok = verify_coeffs2(f, domain, a)
        payload = {"poly": f.to_json_dict(), "domain": domain.to_json_dict(),
                   "point": [x.index for x in a], "claimed": "M >= 2^N",
                   "observed": {"monomials": f.monomial_count()}}
    elif suite == "alternating-difference":
        f, a, b = gen_alternating_instance(rng, field)
        got = alternating_difference(f, a, b)
        want = f.evaluate(b)
        ok = got == want
        payload = {"poly": f.to_json_dict(), "a": [x.index for x in a],
                   "b": [x.index for x in b],
                   "claimed": "alternating sum equals the opposite-corner value",
                   "observed": {"sum": got.index, "value": want.index}}
    elif suite == "covering-tuple":
        tuples, radii = gen_covering_instance(rng)
        found = find_covering_tuple(tuples, radii)
        ok = found is not None
        payload = {"tuples": [list(t) for t in tuples], "radii": list(radii),
                   "claimed": "a covering tuple exists under the size hypothesis",
                   "observed": {"found": None if found is None else list(found)}}
    elif suite == "support-exchange":
        f, domain, a = gen_degree_bounded_sparsity(rng, field)
        ranges = [range(len(s)) for s in domain.sets]
        ok = check_comb_property(set(f.terms), ranges)
        payload = {"poly": f.to_json_dict(), "domain": domain.to_json_dict(),
                   "claimed": "support satisfies the exchange condition",
                   "observed": {"support": sorted(map(list, f.terms))}}
    else:  # pragma: no cover
        raise ValueError(f"unknown suite {suite!r}")
    return ok, payload


def run_verification_suite(
    seed: int, per_theorem: int, fields: Sequence[tuple[int, int]] = SUITE_FIELDS
) -> dict:
    """Run every randomized bound suite; deterministic for a given seed.

    Returns a JSON-ready report with per-suite instance counts, failure
    counts, and up to three serialized counterexamples per suite; an empty
    suite would pass while checking nothing, so per_theorem must be >= 1.
    """
    if per_theorem < 1:
        raise ValueError(f"per-theorem count must be >= 1, got {per_theorem}")
    specs = [make_field(p, k) for p, k in fields]
    suites_report = {}
    all_pass = True
    for suite in _SUITES:
        rng = random.Random(f"{seed}:{suite}")
        failures = 0
        counterexamples: list[dict] = []
        for i in range(per_theorem):
            field = specs[i % len(specs)]
            try:
                ok, payload = _run_one(suite, rng, field)
            except CounterexampleError as exc:
                ok, payload = False, exc.payload
            if not ok:
                failures += 1
                if len(counterexamples) < 3:
                    counterexamples.append(payload)
        suites_report[suite] = {
            "instances": per_theorem,
            "failures": failures,
            "counterexamples": counterexamples,
        }
        all_pass = all_pass and failures == 0
    return {
        "seed": seed,
        "per_theorem": per_theorem,
        "fields": [make_field(p, k).name for p, k in fields],
        "suites": suites_report,
        "all_pass": all_pass,
    }
