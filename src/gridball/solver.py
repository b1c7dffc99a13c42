"""Sparse polynomial-system solving on rectangular domains by ball search.

Over GF(q) the common zeros of f_1, .., f_r are exactly the nonzeros of the
indicator g = prod_i (1 - f_i^(q-1)).  The indicator is never expanded
symbolically (its monomial count can be exponential); it is evaluated
pointwise, and the search radius comes from the exact big-integer bound
M(g) <= prod_i (1 + M(f_i)^(q-1)).

System JSON: {"field": .., "polys": [poly, ..], "domain": .., "anchor": [..]}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gridball.domain import RectangularDomain
from gridball.gf import FieldElement, max_ratio_order
from gridball.poly import SparsePoly
from gridball.tester import (
    EvaluationOracle,
    SearchReport,
    _search,
    radius_degree_bounded,
    radius_general,
)

Point = tuple[FieldElement, ...]

RULE_INDICATOR_RATIO = "indicator-ratio-order"
RULE_INDICATOR_ZERO_DOMAIN = "indicator-zero-domain"

_SOLVE_VERDICTS = ("no-solution", "solution")


class PolySystem:
    """A system f_1 = .. = f_r = 0 of nonzero sparse polynomials.

    `m_hat` = prod (1 + M(f_i)^(q-1)) bounds the indicator's monomial count;
    `closed_numerator` = r + (q-1) * sum log2 M(f_i) is the numerator of
    every closed-form radius and threshold.
    """

    __slots__ = ("field", "polys", "bounds", "m_hat", "closed_numerator")

    def __init__(self, polys: Sequence[SparsePoly]):
        polys = tuple(polys)
        if not polys:
            raise ValueError("a system needs at least one polynomial")
        field = polys[0].field
        nvars = polys[0].nvars
        for p in polys:
            if p.field is not field:
                raise ValueError("system polynomials over different fields")
            if p.nvars != nvars:
                raise ValueError("system polynomials with different variable counts")
            if p.is_zero():
                raise ValueError("the zero polynomial is not allowed in a system")
        self.field = field
        self.polys = polys
        self.bounds = tuple(p.monomial_count() for p in polys)
        self.m_hat = 1
        for m in self.bounds:
            self.m_hat *= 1 + m ** (field.q - 1)
        self.closed_numerator = len(polys) + (field.q - 1) * sum(math.log2(m) for m in self.bounds)

    @property
    def nvars(self) -> int:
        return self.polys[0].nvars

    def is_solution(self, x: Sequence[FieldElement]) -> bool:
        return all(p.evaluate(x).index == 0 for p in self.polys)


def indicator_value(system: PolySystem, x: Sequence[FieldElement]) -> FieldElement:
    """g(x) = prod_i (1 - f_i(x)^(q-1)): one at solutions, zero elsewhere."""
    if len(x) != system.nvars:
        raise ValueError(f"point has {len(x)} coordinates, expected {system.nvars}")
    row = np.array([[xi.index for xi in x]], dtype=np.int64)
    return FieldElement(system.field, int(_indicator_many(system, row)[0]))


def _indicator_many(system: PolySystem, points: np.ndarray) -> np.ndarray:
    """Indicator values at an (n, nvars) int64 array of canonical indices."""
    # batch form: 1 - v^(q-1) is 1 exactly when v = 0, so g is the product
    # of the per-polynomial zero masks
    polys = system.polys
    vals = polys[0].evaluate_many(points)
    mask = vals == 0
    for p in polys[1:]:
        if not mask.any():
            break
        mask &= p.evaluate_many(points) == 0
    return mask.astype(np.int64)


def _indicator_oracle(system: PolySystem) -> EvaluationOracle:
    return EvaluationOracle(
        system.field, system.nvars, system.m_hat, lambda pts: _indicator_many(system, pts)
    )


@dataclass
class SystemRadius:
    """Search radius data for a system: exact sharp bound and the looser
    closed form kept for comparison (both clamped to the variable count)."""

    m_hat: int  # prod (1 + M(f_i)^(q-1)), an upper bound for M(g)
    sharp: int
    closed_form: float


def system_radius(system: PolySystem, ratio_order: int) -> SystemRadius:
    """Radii for the indicator search, given the domain's max ratio order.

    The sharp radius is floor(log_t m_hat) computed exactly on big integers
    with t = r/(r-1); the closed form is
    (r_count + (q-1) * sum log2 M(f_i)) / log2(t).
    """
    f = system.field
    if f.q <= 2:
        raise ValueError("system solving needs a field with more than 2 elements")
    if ratio_order < 2:
        raise ValueError("ratio order must be >= 2")
    n = system.nvars
    sharp = radius_general(system.m_hat, ratio_order, n)
    log2_t = math.log2(ratio_order) - math.log2(ratio_order - 1)
    closed = system.closed_numerator / log2_t
    return SystemRadius(m_hat=system.m_hat, sharp=sharp, closed_form=min(closed, float(n)))


def solve_near(system: PolySystem, anchor: Point, domain: RectangularDomain) -> SearchReport:
    """Nearest solution of the system within the guaranteed radius.

    Requires a zero-free domain and q > 2.  A "no-solution" verdict after
    exhausting the ball is valid for the entire domain: any solution in the
    domain would imply one inside the ball.
    """
    anchor = tuple(anchor)
    if domain.field is not system.field:
        raise ValueError("domain over a different field")
    if domain.nvars != system.nvars:
        raise ValueError("domain with a different variable count")
    if domain.contains_zero:
        raise ValueError("solve_near requires a zero-free domain")
    if not domain.contains(anchor):
        raise ValueError("anchor is not a point of the domain")
    rad = system_radius(system, max_ratio_order(domain.sets))
    return _search(
        _indicator_oracle(system),
        domain,
        anchor,
        rad.sharp,
        RULE_INDICATOR_RATIO,
        _SOLVE_VERDICTS,
        0,
        rad.closed_form,
    )


def solve_near_zero_domain(system: PolySystem, a: Point) -> SearchReport:
    """Solution near a on {0,a_1}x..x{0,a_N}, given the origin is a solution.

    The witness has at most floor(log2 m_hat) zero entries.  Costs one
    indicator evaluation to confirm the origin before searching.
    """
    a = tuple(a)
    if len(a) != system.nvars:
        raise ValueError(f"anchor has {len(a)} coordinates, expected {system.nvars}")
    if any(x.index == 0 for x in a):
        raise ValueError("anchor coordinates must all be nonzero")
    f = system.field
    n = system.nvars
    oracle = _indicator_oracle(system)
    if oracle.evaluate((f.zero,) * n).index == 0:
        raise ValueError("the origin is not a solution of the system")
    rep = _search(
        oracle,
        RectangularDomain(f, [[f.zero, x] for x in a]),
        a,
        min(radius_degree_bounded(system.m_hat), n),
        RULE_INDICATOR_ZERO_DOMAIN,
        _SOLVE_VERDICTS,
        0,
        min(system.closed_numerator, float(n)),
    )
    if rep.witness is None:
        raise RuntimeError(
            "no solution inside the guaranteed radius; this contradicts the "
            "zero-domain bound and indicates a bug"
        )
    return rep


@dataclass
class NotSingletonCheck:
    """Outcome of the non-singleton criterion for a system on a domain."""

    applicable: bool
    threshold: float  # closed-form bound the variable count must exceed
    conclusion: str

    def to_json_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "threshold": self.threshold,
            "conclusion": self.conclusion,
        }


def check_not_singleton(system: PolySystem, domain: RectangularDomain) -> NotSingletonCheck:
    """Decide whether the solution set on the domain cannot be a singleton.

    Applicable when N > (r_count + (q-1) sum log2 M(f_i)) / log2(t) with
    t = (q-1)/(q-2), tested exactly as
    (q-1)^N > (q-2)^N * 2^r_count * prod M(f_i)^(q-1).
    Needs a zero-free domain with at least two elements per coordinate.
    """
    f = system.field
    if f.q <= 2:
        raise ValueError("criterion needs a field with more than 2 elements")
    if domain.field is not f or domain.nvars != system.nvars:
        raise ValueError("domain does not match the system")
    if domain.contains_zero:
        raise ValueError("criterion requires a zero-free domain")
    if any(len(s) < 2 for s in domain.sets):
        raise ValueError("criterion requires at least 2 elements per coordinate")
    n = system.nvars
    q = f.q
    rhs = (q - 2) ** n * 2 ** len(system.polys)
    for m in system.bounds:
        rhs *= m ** (q - 1)
    applicable = (q - 1) ** n > rhs
    log2_t = math.log2(q - 1) - math.log2(q - 2)
    threshold = system.closed_numerator / log2_t
    conclusion = (
        "the solution set on the domain is not a singleton"
        if applicable
        else "criterion not applicable at this sparsity"
    )
    return NotSingletonCheck(applicable, threshold, conclusion)
