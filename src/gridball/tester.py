"""Black-box zero testing and sphere-bounded nonzero search.

The core fact used here: a polynomial with at most M monomials that is
nonzero somewhere on a rectangular domain of nonzero field elements has a
nonzero within Hamming radius floor(log_t M) of every domain point, where
t = r/(r-1) and r is the largest multiplicative order among ratios of
same-coordinate domain elements.  Tighter radii (floor(log2 M)) apply when
per-variable degrees are below the coordinate set sizes, or on domains of
the form {0, a_i}^N when the polynomial is nonzero at the origin.

Radii are computed with exact integer comparisons; no floating point is
trusted near a boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

# enumerate_ball is not called here; perfbench/tracer.py patches tester.enumerate_ball
from gridball.domain import (  # noqa: F401
    RectangularDomain,
    alternatives,
    ball_chunks,
    enumerate_ball,
    hamming_distance,
    piece_point,
    piece_sums,
    shell_pieces,
)
from gridball.gf import FieldElement, FieldSpec, max_ratio_order
from gridball.poly import _WORK_ELEMS, SparsePoly

Point = tuple[FieldElement, ...]

# most ball points per row block of the row scan
_CHUNK = 2048

RULE_RATIO_ORDER = "ratio-order"
RULE_DEGREE_BOUNDED = "degree-bounded"
RULE_ZERO_DOMAIN = "zero-domain"
RULE_SINGLE_POINT = "single-point"

_NONZERO_VERDICTS = ("vanishes", "witness")


@dataclass
class SearchReport:
    """Outcome of a ball search: verdict, witness (if any), and accounting."""

    verdict: str  # "vanishes" | "witness" | "solution" | "no-solution"
    radius: int
    theorem: str
    evaluations: int
    witness: Point | None = None
    distance: int | None = None
    radius_closed_form: float | None = None

    def to_json_dict(self) -> dict:
        d = {
            "verdict": self.verdict,
            "witness": None if self.witness is None else [x.index for x in self.witness],
            "distance": self.distance,
            "radius": self.radius,
            "theorem": self.theorem,
            "evaluations": self.evaluations,
        }
        if self.radius_closed_form is not None:
            d["radius_closed_form"] = self.radius_closed_form
        return d


class EvaluationOracle:
    """Point-evaluation black box with a declared monomial bound.

    `batch` maps an (n, nvars) int64 array of canonical point indices to an
    int64 array of value indices; when it is poly.evaluate_many, the ball
    scan may evaluate poly shell by shell instead.  `poly` is the explicit
    polynomial behind the oracle, if any; only the degree-bounded radius
    rule reads it.  The declared bound must be at least the true number of
    monomials of the underlying polynomial; the radius guarantees are
    conditional on that.  `count` grows by one per point through evaluate
    or evaluate_many; a ball scan adds the points a point-by-point scan in
    ball order would evaluate: up to and including the witness, or the
    whole ball, however it batched them.
    """

    def __init__(
        self,
        field: FieldSpec,
        nvars: int,
        bound: int,
        batch: Callable[[np.ndarray], np.ndarray],
        poly: SparsePoly | None = None,
    ):
        if bound < 1:
            raise ValueError("monomial bound must be >= 1")
        if poly is not None and (poly.field is not field or poly.nvars != nvars):
            raise ValueError("poly does not match the declared field/arity")
        self.field = field
        self.nvars = nvars
        self.bound = bound
        self.poly = poly
        self._batch = batch
        self.count = 0

    @classmethod
    def from_poly(cls, p: SparsePoly, bound: int | None = None) -> "EvaluationOracle":
        m = max(1, p.monomial_count())
        if bound is None:
            bound = m
        elif bound < m:
            raise ValueError(f"declared bound {bound} is below the actual count {m}")
        return cls(p.field, p.nvars, bound, p.evaluate_many, poly=p)

    def evaluate(self, point: Point) -> FieldElement:
        row = np.array([[x.index for x in point]], dtype=np.int64)
        return FieldElement(self.field, int(self.evaluate_many(row)[0]))

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Canonical-index values at an (n, nvars) int64 array of points."""
        self.count += len(points)
        return self._batch(points)


def radius_general(bound: int, r: int, cap: int | None = None) -> int:
    """Largest k with r^k <= bound * (r-1)^k, i.e. floor(log_{r/(r-1)} bound).

    With a cap the result is min(k, cap).  A float logarithm guesses k and
    exact big-integer comparisons step it to the answer, since boundary
    cases (e.g. r=3, bound=5) flip under double rounding.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if r < 2:
        raise ValueError("ratio order must be >= 2")
    k = int(math.log(bound) / math.log1p(1 / (r - 1)))
    if cap is not None:
        k = min(k, cap)
    while k > 0 and r**k > bound * (r - 1) ** k:
        k -= 1
    while (cap is None or k < cap) and r ** (k + 1) <= bound * (r - 1) ** (k + 1):
        k += 1
    return k


def radius_degree_bounded(bound: int) -> int:
    """floor(log2 bound), the radius valid under per-variable degree bounds."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return bound.bit_length() - 1


def select_radius(
    oracle: EvaluationOracle, domain: RectangularDomain, anchor: Point
) -> tuple[int, str]:
    """Smallest applicable search radius for this domain and anchor.

    Rules tried, all clamped to the variable count:
      ratio-order     zero-free domain; floor(log_{r/(r-1)} M)
      degree-bounded  explicit polynomial with deg_{X_i} < |A_i| for all i
                      and an anchor without zero coordinates; floor(log2 M)
      zero-domain     domain {0,a_1}x..x{0,a_N}, anchor the all-nonzero
                      corner, and value at the origin nonzero (checked by
                      spending one evaluation, unless degree-bounded
                      applies and gives the same radius); floor(log2 M)
    """
    anchor = tuple(anchor)
    if not domain.contains(anchor):
        raise ValueError("anchor is not a point of the domain")
    n = domain.nvars
    candidates: list[tuple[int, str]] = []
    if not domain.contains_zero:
        r = max_ratio_order(domain.sets)
        candidates.append((radius_general(oracle.bound, r, n), RULE_RATIO_ORDER))
    degree_bounded = (
        oracle.poly is not None
        and all(oracle.poly.degree_in_variable(i) < len(domain.sets[i]) for i in range(n))
        and all(a.index != 0 for a in anchor)
    )
    if degree_bounded:
        candidates.append((min(radius_degree_bounded(oracle.bound), n), RULE_DEGREE_BOUNDED))
    vertex = domain.zero_paired_vertex()
    # the zero-domain rule gives the degree-bounded radius, so its origin
    # evaluation is spent only when that rule does not apply
    if not degree_bounded and vertex is not None and anchor == vertex:
        origin = (oracle.field.zero,) * n
        if oracle.evaluate(origin).index != 0:
            candidates.append((min(radius_degree_bounded(oracle.bound), n), RULE_ZERO_DOMAIN))
    if not candidates:
        raise ValueError(
            "no applicable radius rule: the domain contains zero and neither the "
            "degree-bounded nor the zero-domain rule applies"
        )
    return min(candidates, key=lambda c: c[0])


def _scan_ball(
    oracle: EvaluationOracle,
    domain: RectangularDomain,
    anchor: Point,
    radius: int,
) -> Point | None:
    """First ball point (in enumeration order) where the oracle is nonzero.

    Bills the oracle what a sequential tester pays, whatever the batching:
    the witness's ball rank + 1, or the ball's point count when there is
    none.  Both routes walk the pieces of shell_pieces.  An oracle built
    from its polynomial on a domain whose movable coordinates all have the
    same number r of alternatives, with r * terms at most _WORK_ELEMS, is
    scanned by _scan_shells; every other oracle gets the rows ball_chunks
    decodes, at most _CHUNK of them and _WORK_ELEMS coordinates a block,
    so wide domains stay small.  Ragged domains keep the rows because there
    every position subset would be its own small tensor: on 128-term polys
    over GF(2^8) and GF(2^12), per-subset outer sums took about twice the
    time of ball_chunks plus evaluate_many.  Only the witness is built as
    FieldElements.
    """
    poly = oracle.poly
    alts = alternatives(anchor, domain)
    radix = {len(a) for a in alts if a}
    if (
        poly is not None
        and oracle._batch == poly.evaluate_many
        and len(radix) <= 1
        and max(radix, default=1) * max(1, len(poly.terms)) <= _WORK_ELEMS
    ):
        witness, scanned = _scan_shells(poly, anchor, alts, radius)
    else:
        witness, scanned = None, 0
        size = min(_CHUNK, max(1, _WORK_ELEMS // max(1, domain.nvars)))
        for rows in ball_chunks(anchor, radius, domain, size):
            nz = np.flatnonzero(oracle._batch(rows))
            if nz.size:
                witness = tuple(FieldElement(domain.field, i) for i in rows[nz[0]].tolist())
                scanned += int(nz[0]) + 1
                break
            scanned += len(rows)
    oracle.count += scanned
    return witness


def _scan_shells(
    poly: SparsePoly, anchor: Point, alts: list[list[int]], radius: int
) -> tuple[Point | None, int]:
    """First nonzero of the polynomial on the ball, and the points up to it.

    Every movable coordinate (one with alternatives) must have the same
    number r of them, and r * terms must be at most _WORK_ELEMS.  The
    points whose changed positions are a subset P form a product grid, on
    which a term's log is an outer sum of per-coordinate steps:
    log t(x) = log t(c) + sum_(i in P) e_ti (log x_i - log c_i) mod (q-1).
    Zeros are counted apart: a term vanishes where its count of zero
    support coordinates is positive.  Returns (witness, its ball rank + 1)
    or (None, ball volume).
    """
    f = poly.field
    order = f.q - 1
    log = f._log_arr  # log[0] = 0 stands in for the undefined log of zero
    exps, _, log_coeffs = poly._log_terms()
    e = exps.astype(np.int64)
    movable = [i for i, a in enumerate(alts) if a]
    m = len(movable)
    r = len(alts[movable[0]]) if movable else 1
    c = np.array([x.index for x in anchor], dtype=np.int64)
    alt = np.array([alts[i] for i in movable], dtype=np.int64).reshape(m, r)
    cm = c[movable]
    em = np.ascontiguousarray(e[movable].T)  # (terms, m)
    # per term, the log of its value at the anchor; per position, the log
    # steps to its alternatives
    base = (log_coeffs + (log[c][:, None] * e % order).sum(axis=0)) % order
    dlog = (log[alt] - log[cm][:, None]) % order
    zeros = None
    if (c == 0).any() or (alt == 0).any():
        # per term, zero support coordinates at the anchor; per position,
        # the change in that count at each alternative
        support = e > 0
        zeros = (
            (c == 0) @ support.astype(np.int64),
            np.ascontiguousarray(support[movable].T),
            (alt == 0).astype(np.int64) - (cm == 0)[:, None],
        )
    exp = f._exp_addends
    block = _WORK_ELEMS // max(1, len(log_coeffs))
    done = 0
    for pos, lead in _capped(shell_pieces([r] * m, radius, block), block // r):
        lead = np.array(lead, dtype=np.int64)
        vals = piece_sums(em, dlog, base, pos, lead, order)
        vals -= vals // order * order  # faster than % on int64
        # indices are in range, and mode="clip" keeps take from buffering
        np.take(exp, vals, out=vals, mode="clip")
        if zeros is not None:
            vals[piece_sums(zeros[1], zeros[2], zeros[0], pos, lead) > 0] = 0
        nz = np.flatnonzero(f.sum_addends(vals.T))
        if nz.size:
            point = list(anchor)
            for j, d in zip(*piece_point(pos, lead, r, int(nz[0]))):
                point[movable[j]] = FieldElement(f, alts[movable[j]][d])
            return tuple(point), done + int(nz[0]) + 1
        done += vals.shape[1]
    return None, done


def _capped(pieces, limit: int):
    """The pieces, in runs of at most limit // rho subsets (one at least).
    piece_sums builds terms * subsets * rho * r steps; limit = block // r
    keeps them within terms * block, which a piece of block points ensures
    alone only when r >= 2, where a subset's r^rho points are >= rho * r."""
    for pos, lead in pieces:
        step = max(1, limit // max(1, pos.shape[1]))
        for lo in range(0, len(pos), step):
            yield pos[lo : lo + step], lead


def _search(
    oracle: EvaluationOracle,
    domain: RectangularDomain,
    anchor: Point,
    radius: int,
    theorem: str,
    verdicts: tuple[str, str],
    start: int,
    radius_closed_form: float | None = None,
) -> SearchReport:
    """Scan the ball and report verdicts[0] (nothing nonzero) or verdicts[1],
    billing the evaluations made since the oracle count was `start`."""
    witness = _scan_ball(oracle, domain, anchor, radius)
    distance = None if witness is None else hamming_distance(anchor, witness)
    return SearchReport(
        verdicts[witness is not None],
        radius,
        theorem,
        oracle.count - start,
        witness,
        distance,
        radius_closed_form,
    )


def test_zero_on_power_domain(
    oracle: EvaluationOracle, s: Iterable[FieldElement], nvars: int
) -> SearchReport:
    """Decide whether the oracle's polynomial vanishes on all of S^nvars.

    Evaluates only the Hamming ball of radius floor(log_{r/(r-1)} M) around
    the constant point built from the smallest element of S, where r is the
    largest ratio order within S; a nonzero anywhere on S^nvars implies one
    inside that ball.  When |S| = 1 the domain is a single point and is
    tested directly (this also covers GF(2), where no ratio bound exists).
    """
    elems = sorted({x.index for x in s})
    if not elems:
        raise ValueError("S must be nonempty")
    if elems[0] == 0:
        raise ValueError("S must not contain the zero element")
    if nvars < 1:
        raise ValueError("need at least one variable")
    if oracle.nvars != nvars:
        raise ValueError(f"oracle arity {oracle.nvars} != {nvars}")
    f = oracle.field
    sset = [FieldElement(f, i) for i in elems]
    anchor = (sset[0],) * nvars
    r = max_ratio_order([sset])
    k = radius_general(oracle.bound, r, nvars)
    rule = RULE_SINGLE_POINT if len(sset) == 1 else RULE_RATIO_ORDER
    domain = RectangularDomain.power(f, sset, nvars)
    return _search(oracle, domain, anchor, k, rule, _NONZERO_VERDICTS, oracle.count)


def find_nonzero_near(
    p: SparsePoly,
    anchor: Point,
    domain: RectangularDomain,
    bound: int | None = None,
) -> SearchReport:
    """Nearest nonzero of p within the guaranteed radius around the anchor.

    Searches the ball radius by radius, so the first witness found realizes
    the minimum Hamming distance from the anchor to any nonzero of p on the
    domain.  A "vanishes" verdict after exhausting the ball means p vanishes
    on the whole domain, not just the ball.
    """
    anchor = tuple(anchor)
    oracle = EvaluationOracle.from_poly(p, bound)
    # count from zero so a zero-domain hypothesis check is billed too
    k, rule = select_radius(oracle, domain, anchor)
    return _search(oracle, domain, anchor, k, rule, _NONZERO_VERDICTS, 0)
