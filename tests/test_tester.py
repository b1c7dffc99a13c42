import math
import random
import time
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridball import brute, poly as poly_module, tester
from gridball.domain import RectangularDomain, enumerate_ball, hamming_distance, vol
from gridball.gf import make_field
from gridball.poly import SparsePoly
from gridball.solver import PolySystem, solve_near, solve_near_zero_domain
from gridball.tester import (
    EvaluationOracle,
    find_nonzero_near,
    radius_degree_bounded,
    radius_general,
    select_radius,
)
from gridball.tester import test_zero_on_power_domain as run_zero_test


# -- radii ---------------------------------------------------------------------


def test_radius_general_examples():
    assert radius_general(1, 2) == 0
    assert radius_general(8, 2) == 3
    # boundary case that flips under double rounding: 3^3 <= 5*2^3 but 3^4 > 5*2^4
    assert radius_general(5, 3) == 3
    with pytest.raises(ValueError):
        radius_general(0, 2)
    with pytest.raises(ValueError):
        radius_general(4, 1)


@given(st.integers(1, 10**6), st.integers(2, 50), st.integers(0, 60))
@example(64, 4095, 60)
@example(64, 16383, 60)
@settings(deadline=None)  # the two explicit cases take big-integer powers of 10^5-10^6 bits
def test_radius_general_exact_characterization(m, r, cap):
    k = radius_general(m, r)
    assert r**k <= m * (r - 1) ** k
    assert r ** (k + 1) > m * (r - 1) ** (k + 1)
    assert radius_general(m, r, cap) == min(k, cap)


@given(st.integers(1, 10**4), st.integers(2, 30))
def test_radius_general_monotone(m, r):
    # grows with the bound, and grows with r (t = r/(r-1) shrinks toward 1)
    assert radius_general(m, r) <= radius_general(m + 1, r)
    assert radius_general(m, r) <= radius_general(m, r + 1)


def test_radius_degree_bounded():
    assert radius_degree_bounded(1) == 0
    assert radius_degree_bounded(4) == 2
    assert radius_degree_bounded(2**6) == 6
    with pytest.raises(ValueError):
        radius_degree_bounded(0)


# -- oracle ---------------------------------------------------------------------


def test_oracle_counts_every_evaluation(f3):
    p = SparsePoly.variable(f3, 2, 0)
    o = EvaluationOracle.from_poly(p)
    o.evaluate((f3.one, f3.one))
    assert o.count == 1
    o.evaluate_many(np.array([[1, 1], [2, 1]], dtype=np.int64))
    assert o.count == 3


def test_oracle_bound_validation(f3):
    p = SparsePoly(f3, 1, {(1,): f3.one, (0,): f3.one})
    with pytest.raises(ValueError):
        EvaluationOracle.from_poly(p, bound=1)
    assert EvaluationOracle.from_poly(p, bound=7).bound == 7
    with pytest.raises(ValueError):
        EvaluationOracle(f3, 1, 0, lambda pts: np.zeros(len(pts), dtype=np.int64))


def test_black_box_oracle_matches_poly(f5):
    p = SparsePoly(f5, 2, {(1, 1): f5.element(2), (0, 0): f5.one})
    # a batch route built from scalar evaluations, hiding the polynomial
    o = EvaluationOracle(
        f5,
        2,
        2,
        lambda rows: np.array(
            [p.evaluate(tuple(f5.element(i) for i in row)).index for row in rows.tolist()],
            dtype=np.int64,
        ),
    )
    pts = [(f5.element(i), f5.element(j)) for i in range(5) for j in range(5)]
    rows = np.array([[x.index for x in pt] for pt in pts], dtype=np.int64)
    assert o.evaluate_many(rows).tolist() == [p.evaluate(x).index for x in pts]
    assert [o.evaluate(x) for x in pts] == [p.evaluate(x) for x in pts]
    assert o.count == 2 * len(pts)


# -- select_radius ------------------------------------------------------------------


def test_select_radius_degree_and_general_agree(f3):
    # S = {1,2}, M = 4: degree rule floor(log2 4) = 2, ratio rule (r=2) also 2
    p = SparsePoly(
        f3, 2, {(0, 0): f3.one, (1, 0): f3.one, (0, 1): f3.one, (1, 1): f3.one}
    )
    dom = RectangularDomain.power(f3, [f3.one, f3.element(2)], 2)
    k, rule = select_radius(EvaluationOracle.from_poly(p), dom, (f3.one, f3.one))
    assert k == 2


def test_select_radius_single_monomial_prefers_general(f4):
    # M = 1 gives radius 0 from the ratio rule; the degree rule cannot apply
    # because deg = 2 is not below |S| = 2
    w, w2 = f4.element(2), f4.element(3)
    p = SparsePoly(f4, 2, {(2, 2): f4.one})
    dom = RectangularDomain.power(f4, [w, w2], 2)
    k, rule = select_radius(EvaluationOracle.from_poly(p), dom, (w, w))
    assert (k, rule) == (0, "ratio-order")


def test_select_radius_zero_domain_rule(f5):
    a1, a2 = f5.element(2), f5.element(3)
    dom = RectangularDomain(f5, [[f5.zero, a1], [f5.zero, a2]])
    # degrees >= 2 disable the degree rule; the zero-domain rule remains
    lin1 = SparsePoly(f5, 2, {(1, 0): f5.one, (0, 0): -a1})
    lin2 = SparsePoly(f5, 2, {(0, 1): f5.one, (0, 0): -a2})
    p = lin1 * lin1 * lin2 * lin2
    oracle = EvaluationOracle.from_poly(p)
    k, rule = select_radius(oracle, dom, (a1, a2))
    assert rule == "zero-domain"
    assert k == 2  # floor(log2 9) = 3, clamped to N = 2
    assert oracle.count == 1  # the origin evaluation was spent


def test_select_radius_zero_domain_literal_m4(f5):
    # (X1^2+1)(X2^2+1): M = 4, per-variable degree 2 blocks the degree rule,
    # value 1 at the origin enables the zero-domain rule with floor(log2 4) = 2
    a1, a2 = f5.element(2), f5.element(3)
    dom = RectangularDomain(f5, [[f5.zero, a1], [f5.zero, a2]])
    quad1 = SparsePoly(f5, 2, {(2, 0): f5.one, (0, 0): f5.one})
    quad2 = SparsePoly(f5, 2, {(0, 2): f5.one, (0, 0): f5.one})
    p = quad1 * quad2
    assert p.monomial_count() == 4
    k, rule = select_radius(EvaluationOracle.from_poly(p), dom, (a1, a2))
    assert (k, rule) == (2, "zero-domain")


def test_degree_bounded_corner_spends_no_origin_evaluation(f5):
    # X1 + 1 at the corner (4, 2, 3) of {0,4}x{0,2}x{0,3}: the degree-bounded
    # rule gives the zero-domain rule's radius, so the origin is not
    # evaluated, and the witness at ball rank 1 costs 2 evaluations
    dom = RectangularDomain(f5, [[f5.zero, f5.element(a)] for a in (4, 2, 3)])
    anchor = dom.zero_paired_vertex()
    p = SparsePoly.variable(f5, 3, 0) + SparsePoly.one(f5, 3)
    oracle = EvaluationOracle.from_poly(p)
    assert select_radius(oracle, dom, anchor) == (1, "degree-bounded")
    assert oracle.count == 0
    rep = find_nonzero_near(p, anchor, dom)
    assert (rep.theorem, rep.distance, rep.evaluations) == ("degree-bounded", 1, 2)
    assert rep.witness == (f5.zero, f5.element(2), f5.element(3))


def test_select_radius_errors(f5):
    dom = RectangularDomain(f5, [[f5.zero, f5.one], [f5.zero, f5.one]])
    oracle = EvaluationOracle(f5, 2, 4, lambda pts: np.ones(len(pts), dtype=np.int64))
    with pytest.raises(ValueError):
        select_radius(oracle, dom, (f5.element(2), f5.one))  # anchor outside
    # black box on a zero-containing domain, anchor not the nonzero corner
    with pytest.raises(ValueError):
        select_radius(oracle, dom, (f5.zero, f5.one))


# -- zero testing ----------------------------------------------------------------------


def test_fermat_polynomial_vanishes(f3):
    p = SparsePoly(f3, 1, {(2,): f3.one, (0,): f3.element(2)})
    oracle = EvaluationOracle.from_poly(p)
    rep = run_zero_test(oracle, [f3.one, f3.element(2)], 1)
    assert rep.verdict == "vanishes"
    assert rep.evaluations <= 2  # budget: max(1, C(1,1)) * 2^1


def test_constant_polynomial_witness(f5):
    p = SparsePoly.constant(f5, 3, f5.element(2))
    oracle = EvaluationOracle.from_poly(p)
    rep = run_zero_test(oracle, [f5.one, f5.element(2)], 3)
    assert rep.verdict == "witness"
    assert rep.distance == 0
    assert rep.evaluations == 1


def test_zero_gf2_single_point():
    f2 = make_field(2)
    p = SparsePoly(f2, 2, {(1, 0): f2.one, (0, 0): f2.one})  # X1 + 1
    oracle = EvaluationOracle.from_poly(p)
    rep = run_zero_test(oracle, [f2.one], 2)
    assert rep.verdict == "vanishes"
    assert rep.evaluations == 1
    assert rep.theorem == "single-point"
    q = SparsePoly.variable(f2, 2, 0)
    rep2 = run_zero_test(EvaluationOracle.from_poly(q), [f2.one], 2)
    assert rep2.verdict == "witness" and rep2.distance == 0


def test_zero_rejects_zero_in_s(f5):
    oracle = EvaluationOracle.from_poly(SparsePoly.one(f5, 1))
    with pytest.raises(ValueError):
        run_zero_test(oracle, [f5.zero, f5.one], 1)


def _random_instance(rng, field, nvars, set_size, vanishing):
    s = [field.element(i) for i in rng.sample(range(1, field.q), set_size)]
    if vanishing:
        h = brute.random_sparse_poly(rng, field, nvars, 3, field.q - 1)
        killer = SparsePoly.one(field, nvars)
        i = rng.randrange(nvars)
        for x in s:
            killer = killer * (
                SparsePoly.variable(field, nvars, i) - SparsePoly.constant(field, nvars, x)
            )
        return h * killer, s
    return brute.random_sparse_poly(rng, field, nvars, 6, field.q + 2), s


def test_verdict_agrees_with_exhaustive_scan():
    rng = random.Random(101)
    fields = [make_field(3), make_field(2, 2), make_field(5), make_field(7), make_field(3, 2)]
    for trial in range(80):
        field = fields[trial % len(fields)]
        nvars = rng.randint(1, 4)
        set_size = rng.randint(2, min(4, field.q - 1))
        p, s = _random_instance(rng, field, nvars, set_size, vanishing=trial % 3 == 0)
        oracle = EvaluationOracle.from_poly(p)
        rep = run_zero_test(oracle, s, nvars)
        dom = RectangularDomain.power(field, s, nvars)
        exhaustive_vanishes = brute.nonzero_count(p, dom) == 0
        assert (rep.verdict == "vanishes") == exhaustive_vanishes
        # evaluation budget with t = (q-1)/(q-2)
        k = radius_general(oracle.bound, field.q - 1)
        budget = max(1, math.comb(nvars, k)) * len(s) ** k
        assert rep.evaluations <= budget


# -- nonzero search --------------------------------------------------------------------


def test_find_nonzero_at_anchor(f5):
    p = SparsePoly.one(f5, 2)
    dom = RectangularDomain.power(f5, [f5.one, f5.element(2)], 2)
    rep = find_nonzero_near(p, (f5.one, f5.one), dom)
    assert rep.verdict == "witness" and rep.distance == 0
    assert rep.witness == (f5.one, f5.one)


def test_find_nonzero_never_vanishing_single_monomial(f4):
    w, w2 = f4.element(2), f4.element(3)
    p = SparsePoly(f4, 2, {(2, 2): f4.one})
    dom = RectangularDomain.power(f4, [w, w2], 2)
    rep = find_nonzero_near(p, (w, w), dom)
    assert rep.verdict == "witness" and rep.distance == 0 and rep.radius == 0


def test_find_nonzero_planted_witness_distance(f7):
    rng = random.Random(7)
    for _ in range(30):
        nvars = rng.randint(1, 5)
        pairs = [rng.sample(range(1, 7), 2) for _ in range(nvars)]
        dom = RectangularDomain(f7, [[f7.element(i) for i in pr] for pr in pairs])
        target = tuple(rng.choice(s) for s in dom.sets)
        # vanishes everywhere except at target
        p = SparsePoly.one(f7, nvars)
        for i in range(nvars):
            other = next(x for x in dom.sets[i] if x != target[i])
            p = p * (
                SparsePoly.variable(f7, nvars, i) - SparsePoly.constant(f7, nvars, other)
            )
        d = rng.randint(0, nvars)
        anchor = tuple(
            next(x for x in dom.sets[i] if x != target[i]) if i < d else target[i]
            for i in range(nvars)
        )
        rep = find_nonzero_near(p, anchor, dom)
        assert rep.verdict == "witness"
        assert rep.distance == d == hamming_distance(anchor, target)
        assert rep.witness == target


def test_find_nonzero_vanishing_verdict_covers_domain(f3):
    # X1^2 - 1 vanishes on {1,2}^2 entirely
    p = SparsePoly(f3, 2, {(2, 0): f3.one, (0, 0): f3.element(2)})
    dom = RectangularDomain.power(f3, [f3.one, f3.element(2)], 2)
    rep = find_nonzero_near(p, (f3.one, f3.element(2)), dom)
    assert rep.verdict == "vanishes"
    assert brute.nonzero_count(p, dom) == 0


def test_find_nonzero_minimum_distance_vs_exhaustive(f9):
    rng = random.Random(77)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        size = rng.randint(2, 4)
        sets = [
            [f9.element(i) for i in rng.sample(range(1, 9), size)] for _ in range(nvars)
        ]
        dom = RectangularDomain(f9, sets)
        p = brute.random_sparse_poly(rng, f9, nvars, 5, 9)
        anchor = tuple(rng.choice(s) for s in dom.sets)
        expected = brute.nearest_nonzero_distance(p, dom, anchor)
        rep = find_nonzero_near(p, anchor, dom)
        if expected is None:
            assert rep.verdict == "vanishes"
        else:
            assert rep.verdict == "witness"
            assert rep.distance == expected


def test_find_nonzero_degree_rule_on_zero_containing_domain(f5):
    # the degree rule tolerates zero inside the domain as long as the anchor
    # has no zero coordinates
    rng = random.Random(15)
    dom = RectangularDomain(f5, [[f5.zero, f5.one, f5.element(2)]] * 2)
    for _ in range(20):
        raw = brute.random_sparse_poly(rng, f5, 2, 5, 6)
        p = raw.reduce_mod_domain(dom)
        if p.is_zero():
            continue
        anchor = (f5.element(rng.choice((1, 2))), f5.element(rng.choice((1, 2))))
        rep = find_nonzero_near(p, anchor, dom)
        assert rep.theorem == "degree-bounded"
        expected = brute.nearest_nonzero_distance(p, dom, anchor)
        assert rep.distance == expected


# -- shell-tensor scan against the row path --------------------------------------


def _both_routes(monkeypatch, p, dom, anchor, radius):
    """(witness, count) from from_poly's oracle, which must take _scan_shells,
    and from a black box wrapping the same evaluate_many, which cannot."""
    calls = []
    shells = tester._scan_shells
    monkeypatch.setattr(tester, "_scan_shells", lambda *a: calls.append(a) or shells(*a))
    explicit = EvaluationOracle.from_poly(p)
    got = tester._scan_ball(explicit, dom, anchor, radius)
    assert len(calls) == 1
    box = EvaluationOracle(p.field, p.nvars, explicit.bound, lambda rows: p.evaluate_many(rows))
    want = tester._scan_ball(box, dom, anchor, radius)
    assert len(calls) == 1
    return (got, explicit.count), (want, box.count)


def _uniform_instance(rng, f, n, ragged=False):
    """A domain whose movable coordinates share a radix r (any radix when
    ragged), an anchor, and a polynomial with exponents 0, 1, q-1, q and
    2q+1, often made to vanish near the anchor or on the whole domain."""
    r = rng.randint(1, min(4, f.q - 1))
    sets = []
    for _ in range(n):
        if rng.random() < 0.2:
            sets.append(rng.sample(range(f.q), 1))
        elif r == 1 and rng.random() < 0.5:
            sets.append([0, rng.randrange(1, f.q)])
        else:
            size = rng.randint(2, min(f.q, 5)) if ragged else r + 1
            sets.append(rng.sample(range(f.q), size))  # 0 included at times
    dom = RectangularDomain(f, [[f.element(i) for i in a] for a in sets])
    anchor = tuple(f.element(rng.choice(a)) for a in sets)
    powers = [0, 1, f.q - 1, f.q, 2 * f.q + 1]
    terms = {
        tuple(rng.choice(powers) for _ in range(n)): f.element(rng.randrange(1, f.q))
        for _ in range(rng.randint(1, 5))
    }
    p = SparsePoly(f, n, terms)
    for i in rng.sample(range(n), rng.randint(0, min(n, 3))):
        # vanish where x_i is unchanged, pushing the witness outward
        p = p * (SparsePoly.variable(f, n, i) - SparsePoly.constant(f, n, anchor[i]))
    if rng.random() < 0.15:
        i = rng.randrange(n)
        for a in dom.sets[i]:
            p = p * (SparsePoly.variable(f, n, i) - SparsePoly.constant(f, n, a))
    return p, dom, anchor


@pytest.mark.parametrize("work", [1 << 16, 40], ids=["wide-blocks", "split-subsets"])
@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (2, 3), (3, 3)])
def test_shell_scan_matches_row_scan(monkeypatch, p, k, work):
    # a 40-element block splits every subset of more than 40 // terms points
    # on its leading digits
    monkeypatch.setattr(tester, "_WORK_ELEMS", work)
    f = make_field(p, k)
    rng = random.Random(f"shells/{p}/{k}")
    found = 0
    for _ in range(25):
        poly, dom, anchor = _uniform_instance(rng, f, rng.randint(1, 5))
        if max(len(a) - 1 for a in dom.sets) * len(poly.terms) > work:
            continue
        for radius in range(dom.nvars + 1):
            (got, count), (want, box_count) = _both_routes(monkeypatch, poly, dom, anchor, radius)
            assert got == want
            assert count == box_count
            found += got is not None
    assert found


@pytest.mark.parametrize("rank", [2047, 2048, 2049])
@pytest.mark.parametrize("p,k", [(7, 1), (3, 3)])
def test_shell_scan_bills_the_witness_rank(monkeypatch, p, k, rank):
    # 3^8 points, two alternatives per coordinate; the polynomial's first
    # nonzero in ball order is the point of the given rank: it vanishes
    # where a coordinate the point changes is unchanged or takes an
    # earlier alternative
    f = make_field(p, k)
    rng = random.Random(rank)
    n = 8
    sets = [[f.element(i) for i in rng.sample(range(f.q), 3)] for _ in range(n)]
    dom = RectangularDomain(f, sets)
    anchor = tuple(rng.choice(a) for a in dom.sets)
    target = next(islice(enumerate_ball(anchor, n, dom), rank, None))
    poly = SparsePoly.one(f, n)
    for i, (a, c, x) in enumerate(zip(dom.sets, anchor, target)):
        if x != c:
            alternatives = [y for y in a if y != c]
            for y in [c] + alternatives[: alternatives.index(x)]:
                poly = poly * (SparsePoly.variable(f, n, i) - SparsePoly.constant(f, n, y))
    (got, count), (want, box_count) = _both_routes(monkeypatch, poly, dom, anchor, n)
    assert got == want == target
    assert count == box_count == rank + 1


@pytest.mark.parametrize("p,k", [(2, 1), (7, 1), (3, 3)])
def test_shell_scan_of_the_zero_polynomial(monkeypatch, p, k):
    # no terms at all: every point is evaluated and none is nonzero
    f = make_field(p, k)
    dom = RectangularDomain.power(f, list(f.elements())[: min(f.q, 3)], 4)
    poly = SparsePoly.zero(f, 4)
    (got, count), (want, box_count) = _both_routes(monkeypatch, poly, dom, dom.sets[0][:1] * 4, 3)
    assert got is want is None
    assert count == box_count == vol(min(f.q, 3), 4, 3)


def test_shell_scan_of_a_huge_ball_stops_at_its_witness(monkeypatch):
    # 5^40 points, 0 in every set; X_j - c_j is first nonzero at distance 1
    f = make_field(5)
    n, j = 40, 17
    dom = RectangularDomain.power(f, list(f.elements()), n)
    rng = random.Random(40)
    anchor = tuple(f.element(rng.randrange(f.q)) for _ in range(n))
    poly = SparsePoly.variable(f, n, j) - SparsePoly.constant(f, n, anchor[j])
    start = time.perf_counter()
    (got, count), (want, box_count) = _both_routes(monkeypatch, poly, dom, anchor, n)
    assert time.perf_counter() - start < 2.0
    assert got == want and hamming_distance(got, anchor) == 1
    # the anchor, 4 alternatives at each position before j, then the first at j
    assert count == box_count == 1 + 4 * j + 1


@pytest.mark.parametrize("nterms", [30, 250])
def test_shell_scan_of_a_wide_radix_stays_within_its_blocks(monkeypatch, nterms):
    # GF(2^12), 16 sets of 1024 elements: 1023 alternatives per coordinate.
    # 60 terms take the kernel and 500 the row path (r * terms above
    # _WORK_ELEMS); either way no table over all positions and
    # alternatives is built, and the witness at distance 1, about 5,000
    # points in, comes about as fast as from a black box
    f = make_field(2, 12)
    n, j = 16, 5
    rng = random.Random(nterms)
    dom = RectangularDomain(f, [[f.element(i) for i in rng.sample(range(1, f.q), 1024)]] * n)
    anchor = tuple(rng.choice(a) for a in dom.sets)
    terms = {}
    while len(terms) < nterms:
        terms[tuple(rng.randrange(4) for _ in range(n))] = f.element(rng.randrange(1, f.q))
    poly = SparsePoly(f, n, terms)
    poly = poly * (SparsePoly.variable(f, n, j) - SparsePoly.constant(f, n, anchor[j]))
    poly._log_terms()  # built once per polynomial, outside the timings
    calls = []
    shells = tester._scan_shells
    monkeypatch.setattr(tester, "_scan_shells", lambda *a: calls.append(a) or shells(*a))
    explicit = EvaluationOracle.from_poly(poly)
    box = EvaluationOracle(f, n, explicit.bound, lambda rows: poly.evaluate_many(rows))
    seconds, peaks, found = [], [], []
    for oracle in (explicit, box):
        tracemalloc.start()
        start = time.perf_counter()
        found.append(tester._scan_ball(oracle, dom, anchor, 2))
        seconds.append(time.perf_counter() - start)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert len(calls) == (len(poly.terms) * 1023 <= tester._WORK_ELEMS) == (nterms == 30)
    assert found[0] == found[1] and hamming_distance(found[0], anchor) == 1
    alternatives = [x for x in dom.sets[j] if x != anchor[j]]
    assert explicit.count == box.count == 1 + 1023 * j + alternatives.index(found[0][j]) + 1
    # a table over all 16 x 1023 steps would take 7.5 MiB at 60 terms
    assert peaks[0] < 6 * 2**20
    assert seconds[0] < 3 * seconds[1] + 0.05


def test_shell_scan_of_radix_1_keeps_its_steps_within_the_work_limit(monkeypatch):
    # {1, 2}^40 over GF(7): one alternative a coordinate, so a subset is
    # one point and a block of points holds rho times as many steps; the
    # scan's own subset cap keeps piece_sums' (terms, subsets, rho, r)
    # steps within _WORK_ELEMS
    f = make_field(7)
    n = 40
    rng = random.Random(40)
    dom = RectangularDomain.power(f, [f.one, f.element(2)], n)
    g = {tuple(rng.randrange(4) for _ in range(n)): f.element(rng.randrange(1, 7)) for _ in range(50)}
    # X1^6 - 1 vanishes on {1, 2}, so the whole ball is scanned
    poly = SparsePoly(f, n, g) * (SparsePoly.variable(f, n, 0) ** 6 - SparsePoly.one(f, n))
    steps = []
    sums = tester.piece_sums

    def recorded(factor, table, start, pos, lead, mod=None):
        steps.append(factor.shape[0] * pos.shape[0] * (pos.shape[1] - len(lead)) * table.shape[1])
        return sums(factor, table, start, pos, lead, mod)

    monkeypatch.setattr(tester, "piece_sums", recorded)
    oracle = EvaluationOracle.from_poly(poly)
    assert tester._scan_ball(oracle, dom, (f.one,) * n, 3) is None
    assert oracle.count == vol(2, n, 3)
    assert tester._WORK_ELEMS // 2 < max(steps) <= tester._WORK_ELEMS


def test_wide_domain_scans_stay_within_the_work_limit():
    # N = 4000 over GF(3) on {1,2}^N, radius 1: the row route decodes
    # blocks of _WORK_ELEMS // N rows, not 2048 rows of 4000 coordinates
    # (about 190 MiB per scan), for a black box and for a system
    f = make_field(3)
    n = 4000
    dom = RectangularDomain.power(f, [f.one, f.element(2)], n)
    anchor = (f.one,) * n
    # X1^2 - 1 vanishes on {1, 2}; a lone monomial is never zero there
    square = SparsePoly(f, n, {(2,) + (0,) * (n - 1): f.one, (0,) * n: f.element(2)})
    box = EvaluationOracle(f, n, 2, lambda rows: square.evaluate_many(rows))
    system = PolySystem([SparsePoly.variable(f, n, 0)])
    runs = [lambda: run_zero_test(box, dom.sets[0], n), lambda: solve_near(system, anchor, dom)]
    for run, verdict in zip(runs, ["vanishes", "no-solution"]):
        tracemalloc.start()
        rep = run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (rep.verdict, rep.radius, rep.evaluations) == (verdict, 1, 1 + n)
        assert peak < 16 * 2**20


# -- billing ---------------------------------------------------------------------


def _first_hit(hit, anchor, radius, dom):
    """The first point of enumerate_ball where hit holds and its 1-based
    position, or (None, the ball's point count)."""
    count = 0
    for point in enumerate_ball(anchor, radius, dom):
        count += 1
        if hit(point):
            return point, count
    return None, count


def _poly_search(oracle, dom, anchor):
    """A search at select_radius's radius, or over the whole domain when no
    rule applies; a {0, a_i} corner anchor costs one origin evaluation."""
    try:
        radius, rule = select_radius(oracle, dom, anchor)
    except ValueError:
        radius, rule = dom.nvars, "none"
    return tester._search(oracle, dom, anchor, radius, rule, ("vanishes", "witness"), 0)


def _system_instance(rng, f):
    """1-2 polynomials and an anchor on a zero-free ragged domain, or on
    {0, a_i}^N with every term vanishing at the origin."""
    n = rng.randint(1, 4)
    zero_domain = rng.random() < 0.4
    if zero_domain:
        sets = [[0, rng.randrange(1, f.q)] for _ in range(n)]
    else:
        sets = [rng.sample(range(1, f.q), rng.randint(1, min(f.q - 1, 4))) for _ in range(n)]
    dom = RectangularDomain(f, [[f.element(i) for i in a] for a in sets])
    polys = []
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [rng.randrange(f.q + 1) for _ in range(n)]
            if zero_domain and not any(exps):
                exps[rng.randrange(n)] = 1
            terms[tuple(exps)] = f.element(rng.randrange(1, f.q))
        polys.append(SparsePoly(f, n, terms))
    anchor = tuple(a[-1] if zero_domain else rng.choice(a) for a in dom.sets)
    return PolySystem(polys), dom, anchor, zero_domain


def test_billing_does_not_depend_on_block_sizes(monkeypatch):
    # every route bills what a point-by-point scan in enumerate_ball order
    # pays, plus the origin evaluation of the zero-domain rules, whatever
    # the row block (_CHUNK) and the work array (_WORK_ELEMS)
    rng = random.Random("billing")
    blocks = [(chunk, work) for chunk in (1, 7, 2048) for work in (40, 1 << 16)]
    theorems = set()
    for p, k in [(5, 1), (7, 1), (3, 2), (2, 3)]:
        f = make_field(p, k)
        for i in range(12):
            # uniform, ragged, or {0, a_i}^N with the anchor at the corner
            poly, dom, anchor = _uniform_instance(rng, f, rng.randint(2, 4), ragged=i % 3 == 1)
            if i % 3 == 2:
                dom = RectangularDomain(f, [[f.zero, f.element(rng.randrange(1, f.q))]] * dom.nvars)
                anchor = dom.zero_paired_vertex()
                poly = poly + SparsePoly.constant(f, dom.nvars, f.element(rng.randrange(1, f.q)))
            system, sdom, sanchor, zero_domain = _system_instance(rng, f)
            got = {}
            for chunk, work in blocks:
                monkeypatch.setattr(tester, "_CHUNK", chunk)
                monkeypatch.setattr(tester, "_WORK_ELEMS", work)
                monkeypatch.setattr(poly_module, "_WORK_ELEMS", work)
                explicit = EvaluationOracle.from_poly(poly)
                box = EvaluationOracle(f, dom.nvars, explicit.bound, lambda rows: poly.evaluate_many(rows))
                solve = solve_near_zero_domain(system, sanchor) if zero_domain else solve_near(system, sanchor, sdom)
                for name, rep in [
                    ("explicit", _poly_search(explicit, dom, anchor)),
                    ("box", _poly_search(box, dom, anchor)),
                    ("system", solve),
                ]:
                    got.setdefault(name, set()).add(
                        (rep.verdict, rep.witness, rep.distance, rep.radius, rep.evaluations)
                    )
                    theorems.add(rep.theorem)
            origin = dom.zero_paired_vertex() == anchor
            for name in ("explicit", "box"):
                [(_, witness, _, radius, evaluations)] = got[name]
                want, count = _first_hit(lambda x: poly.evaluate(x).index != 0, anchor, radius, dom)
                assert (witness, evaluations) == (want, count + origin)
            [(_, witness, _, radius, evaluations)] = got["system"]
            want, count = _first_hit(system.is_solution, sanchor, radius, sdom)
            assert (witness, evaluations) == (want, count + zero_domain)
    assert {"zero-domain", "ratio-order", "indicator-zero-domain", "indicator-ratio-order"} <= theorems
