import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridball import brute
from gridball.domain import RectangularDomain, hamming_distance
from gridball.gf import make_field
from gridball.poly import SparsePoly
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
