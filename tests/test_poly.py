import json
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gridball.poly as poly_module
from gridball.domain import RectangularDomain
from gridball.gf import make_field, subgroup_of_order
from gridball.poly import SparsePoly

from conftest import naive_evaluate


def _random_poly(rng, field, nvars, max_terms=6, max_exp=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[e] = field.element(rng.randrange(1, field.q))
    return SparsePoly(field, nvars, terms)


# -- counting -----------------------------------------------------------------


def test_monomial_count_zero(f5):
    assert SparsePoly.zero(f5, 3).monomial_count() == 0


def test_monomial_count_binomial_power():
    # (X+1)^m has m+1 monomials when the characteristic exceeds m
    f101 = make_field(101)
    m = 7
    p = SparsePoly(f101, 1, {(1,): f101.one, (0,): f101.one}) ** m
    assert p.monomial_count() == m + 1


def test_monomial_count_product_of_linears(f3):
    n = 5
    p = SparsePoly.one(f3, n)
    for i in range(n):
        p = p * (SparsePoly.variable(f3, n, i) + SparsePoly.one(f3, n))
    assert p.monomial_count() == 2**n


# -- evaluation -----------------------------------------------------------------


def test_evaluate_constant_one(f5):
    p = SparsePoly.one(f5, 4)
    assert p.evaluate((f5.element(2), f5.element(0), f5.element(4), f5.element(1))).index == 1


def test_evaluate_paper_style_example(f3):
    # X1^2 X2 + 2 at (2, 1): 4 + 2 = 6 = 0 mod 3
    p = SparsePoly(f3, 2, {(2, 1): f3.one, (0, 0): f3.element(2)})
    assert p.evaluate((f3.element(2), f3.element(1))).index == 0


def test_evaluate_against_naive_reference(f9):
    rng = random.Random(11)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        p = _random_poly(rng, f9, nvars)
        x = tuple(f9.element(rng.randrange(f9.q)) for _ in range(nvars))
        assert p.evaluate(x) == naive_evaluate(p, x)


@pytest.mark.parametrize("p,k", [(7, 1), (2, 8), (3, 3), (5, 2)])
@pytest.mark.parametrize("work", [poly_module._WORK_ELEMS, 7], ids=["wide-blocks", "one-term-blocks"])
def test_evaluate_many_matches_pointwise(p, k, work, monkeypatch):
    # exponents that fold to 0, 1, q-1 and 4 mod q-1, and one past int64;
    # points with zero coordinates; with `work` = 7 every term is a block
    monkeypatch.setattr(poly_module, "_WORK_ELEMS", work)
    f = make_field(p, k)
    rng = random.Random(5)
    exps = [0, 1, f.q - 1, 2 * (f.q - 1), f.q + 3, 10**30]
    terms = {}
    for i in range(3):
        for e in exps:
            mono = [rng.choice(exps) for _ in range(3)]
            mono[i] = e
            terms[tuple(mono)] = f.element(rng.randrange(1, f.q))
    poly = SparsePoly(f, 3, terms)
    pts = [tuple(f.element(rng.choice([0, rng.randrange(f.q)])) for _ in range(3)) for _ in range(60)]
    pts += [(f.zero,) * 3, (f.one,) * 3]
    rows = np.array([[x.index for x in pt] for pt in pts], dtype=np.int64)
    assert poly.evaluate_many(rows).tolist() == [poly.evaluate(x).index for x in pts]


def test_evaluate_many_exact_past_float64():
    # 2^15 variables over GF(3^12), each to the power q-2: the sums of
    # e_i log x_i pass 2^53, where a float64 product would round
    f = make_field(3, 12)
    n = 1 << 15
    order = f.q - 1
    poly = SparsePoly(f, n, {(order - 1,) * n: f.element(7)})
    logs = order - 1 - np.random.default_rng(2).integers(0, 1000, size=(3, n))
    want = [f._exp[(f._log[7] + (order - 1) * sum(row)) % order] for row in logs.tolist()]
    assert poly.evaluate_many(f._exp_arr[logs]).tolist() == want


def test_evaluate_validates_input(f5, f3):
    p = SparsePoly.one(f5, 2)
    with pytest.raises(ValueError):
        p.evaluate((f5.one,))
    with pytest.raises(ValueError):
        p.evaluate((f3.one, f3.one))


# -- ring operations --------------------------------------------------------------


def test_add_negation_cancels(f7):
    rng = random.Random(3)
    p = _random_poly(rng, f7, 3)
    assert (p + (-p)).is_zero()


def test_sub_and_scalar_mul(f5):
    p = SparsePoly.variable(f5, 1, 0)
    q = p.scalar_mul(f5.element(3))
    assert q.coefficient((1,)).index == 3
    assert (q - q).is_zero()


def test_substitute_basic(f5):
    # X1*X2 with X1 := a gives a*X2 in one variable
    p = SparsePoly(f5, 2, {(1, 1): f5.one})
    a = f5.element(3)
    q = p.substitute(0, a)
    assert q.nvars == 1
    assert q.terms == {(1,): a}


def test_substitute_commutes_with_evaluation(f9):
    rng = random.Random(17)
    for _ in range(40):
        nvars = rng.randint(2, 4)
        p = _random_poly(rng, f9, nvars)
        i = rng.randrange(nvars)
        a = f9.element(rng.randrange(f9.q))
        rest = tuple(f9.element(rng.randrange(f9.q)) for _ in range(nvars - 1))
        full = rest[:i] + (a,) + rest[i:]
        assert p.substitute(i, a).evaluate(rest) == p.evaluate(full)


def test_mul_evaluate_homomorphism_full_grid(f5):
    rng = random.Random(23)
    pts = [(f5.element(i), f5.element(j)) for i in range(5) for j in range(5)]
    for _ in range(100):
        p = _random_poly(rng, f5, 2, max_terms=4)
        q = _random_poly(rng, f5, 2, max_terms=4)
        pq = p * q
        for x in pts:
            assert pq.evaluate(x) == p.evaluate(x) * q.evaluate(x)


def test_pow_matches_repeated_mul(f7):
    rng = random.Random(29)
    p = _random_poly(rng, f7, 2, max_terms=3, max_exp=3)
    assert p**0 == SparsePoly.one(f7, 2)
    assert p**3 == p * p * p
    with pytest.raises(ValueError):
        p ** (-1)


def test_incompatible_operands_rejected(f5, f7):
    with pytest.raises(ValueError):
        SparsePoly.one(f5, 2) + SparsePoly.one(f5, 3)
    with pytest.raises(ValueError):
        SparsePoly.one(f5, 2) * SparsePoly.one(f7, 2)


# -- subgroup reduction ------------------------------------------------------------------


@pytest.mark.parametrize("p,k", [(2, 2), (7, 1), (13, 1), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_reduce_mod_domain_on_a_subgroup_reads_exponents_mod_its_order(p, k):
    # on H^N, H the subgroup of order d, X^d = 1: the normal form replaces
    # every exponent e by e mod d and sums the coefficients that collide,
    # so it never has more monomials than the input
    f = make_field(p, k)
    rng = random.Random(f"subgroup/{p}/{k}")
    for d in (d for d in range(1, f.q) if (f.q - 1) % d == 0):
        dom = RectangularDomain.power(f, subgroup_of_order(f, d), rng.randint(1, 3))
        for _ in range(4):
            poly = _random_poly(rng, f, dom.nvars, max_terms=8, max_exp=3 * f.q)
            want: dict = {}
            for exps, c in poly.terms.items():
                e = tuple(x % d for x in exps)
                want[e] = want.get(e, f.zero) + c
            r = poly.reduce_mod_domain(dom)
            assert r == SparsePoly(f, dom.nvars, want)
            assert r.monomial_count() <= poly.monomial_count()


# -- domain reduction --------------------------------------------------------------------


def test_reduce_mod_domain_fixed_point(f5):
    dom = RectangularDomain(f5, [[f5.element(1), f5.element(2)]] * 2)
    p = SparsePoly(f5, 2, {(1, 1): f5.element(2), (0, 1): f5.one})
    assert p.reduce_mod_domain(dom) == p


def test_reduce_mod_domain_worked_example(f4):
    # prod X_i^2 on {w, w^2}^2 reduces to (X1+1)(X2+1) with 4 monomials
    w, w2 = f4.element(2), f4.element(3)
    dom = RectangularDomain.power(f4, [w, w2], 2)
    p = SparsePoly(f4, 2, {(2, 2): f4.one})
    r = p.reduce_mod_domain(dom)
    expected = SparsePoly(
        f4, 2, {(0, 0): f4.one, (1, 0): f4.one, (0, 1): f4.one, (1, 1): f4.one}
    )
    assert r == expected
    assert r.monomial_count() == 4


def test_reduce_mod_domain_agrees_on_grid_and_is_idempotent(f5):
    rng = random.Random(31)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        sets = []
        for _ in range(nvars):
            size = rng.randint(1, 4)
            sets.append([f5.element(i) for i in rng.sample(range(5), size)])
        dom = RectangularDomain(f5, sets)
        p = _random_poly(rng, f5, nvars, max_terms=5, max_exp=7)
        r = p.reduce_mod_domain(dom)
        for x in product(*dom.sets):
            assert r.evaluate(x) == p.evaluate(x)
        for i in range(nvars):
            assert r.degree_in_variable(i) < len(dom.sets[i])
        assert r.reduce_mod_domain(dom) == r


def test_reduce_mod_domain_agreement_on_4096_point_grid(f9):
    # full-envelope exhaustive agreement, vectorized over the whole grid
    from gridball import brute

    rng = random.Random(43)
    sets = [[f9.element(i) for i in rng.sample(range(9), 8)] for _ in range(4)]
    dom = RectangularDomain(f9, sets)
    assert dom.size == 4096
    p = _random_poly(rng, f9, 4, max_terms=12, max_exp=14)
    r = p.reduce_mod_domain(dom)
    assert (brute.evaluate_on_grid(r, dom) == brute.evaluate_on_grid(p, dom)).all()
    assert all(r.degree_in_variable(i) < 8 for i in range(4))


@pytest.mark.parametrize("with_zero", [True, False], ids=["set-with-0", "set-without-0"])
@pytest.mark.parametrize("p,k", [(7, 1), (2, 8), (3, 3), (5, 2)])
def test_reduce_mod_domain_folds_exponents(p, k, with_zero):
    # X^e for exponents at and past every fold boundary, one past int64;
    # q-1 and 2(q-1) must fold to q-1, not 0, on a set that holds 0
    from gridball import brute

    f = make_field(p, k)
    rng = random.Random(17)
    nonzero = rng.sample(range(1, f.q), 4)
    a = [f.element(i) for i in ([0] + nonzero[:3] if with_zero else nonzero)]
    b = [f.element(i) for i in rng.sample(range(f.q), 3)]
    dom = RectangularDomain(f, [a, b])
    order = f.q - 1
    exps = [0, 1, len(a) - 1, len(a), f.q - 2, order, f.q, 2 * order, 2 * order + 1, 10**30]
    for e in exps:
        x_e = SparsePoly.monomial(f, (e, 0), f.one)
        r = x_e.reduce_mod_domain(dom)
        folded = SparsePoly.monomial(f, (poly_module._fold(e, order), 0), f.one)
        assert r == folded.reduce_mod_domain(dom), e
        assert (brute.evaluate_on_grid(r, dom) == brute.evaluate_on_grid(x_e, dom)).all(), e
    terms = {(ea, eb): f.element(rng.randrange(1, f.q)) for ea in exps for eb in exps[::3]}
    poly = SparsePoly(f, 2, terms)
    r = poly.reduce_mod_domain(dom)
    assert (brute.evaluate_on_grid(r, dom) == brute.evaluate_on_grid(poly, dom)).all()
    assert r.degree_in_variable(0) < len(a) and r.degree_in_variable(1) < len(b)
    power = poly_module._PowerReduction(f, a)
    power.rep(10**30)
    assert len(power._cache) <= f.q


def test_reduce_mod_domain_validates(f5, f7):
    dom = RectangularDomain(f7, [[f7.one]])
    with pytest.raises(ValueError):
        SparsePoly.one(f5, 1).reduce_mod_domain(dom)


# -- degrees -------------------------------------------------------------------------------


def test_degree_in_variable(f3):
    assert SparsePoly.one(f3, 2).degree_in_variable(0) == 0
    p = SparsePoly(f3, 2, {(2, 1): f3.one})
    assert p.degree_in_variable(0) == 2
    assert p.degree_in_variable(1) == 1
    assert SparsePoly.zero(f3, 2).degree_in_variable(1) == -1
    with pytest.raises(ValueError):
        p.degree_in_variable(2)


# -- serialization ------------------------------------------------------------------------


def test_text_round_trip_examples(f4):
    p = SparsePoly(
        f4, 2, {(0, 0): f4.one, (1, 0): f4.one, (0, 1): f4.one, (1, 1): f4.one}
    )
    text = p.to_text()
    assert text == "1+1*x2+1*x1+1*x1*x2"
    assert SparsePoly.from_text(f4, text, 2) == p
    assert SparsePoly.zero(f4, 2).to_text() == "0"


def test_text_round_trip_random(f9):
    rng = random.Random(37)
    for _ in range(50):
        p = _random_poly(rng, f9, rng.randint(1, 4))
        back = SparsePoly.from_text(f9, p.to_text(), p.nvars)
        assert back == p
        assert back.to_text() == p.to_text()


def test_from_text_variants(f5):
    p = SparsePoly.from_text(f5, "2*x1^2*x2 + 1", 2)
    assert p.terms == {(2, 1): f5.element(2), (0, 0): f5.one}
    # bare variable means coefficient 1; nvars inferred from the largest index
    q = SparsePoly.from_text(f5, "x3")
    assert q.nvars == 3 and q.terms == {(0, 0, 1): f5.one}
    for bad in ("", "1+", "2**x1", "x0", "5*x1", "y1"):
        with pytest.raises(ValueError):
            SparsePoly.from_text(f5, bad, 2)


def test_json_round_trip(f9):
    rng = random.Random(41)
    for _ in range(30):
        p = _random_poly(rng, f9, rng.randint(1, 3))
        blob = json.dumps(p.to_json_dict(), sort_keys=True)
        back = SparsePoly.from_json_dict(json.loads(blob))
        assert back == p
        assert json.dumps(back.to_json_dict(), sort_keys=True) == blob


def test_from_json_validates(f5):
    with pytest.raises(ValueError):
        SparsePoly.from_json_dict(
            {"field": "GF(5)", "nvars": 1, "terms": [{"coeff": 9, "exps": [0]}]}
        )
    with pytest.raises(ValueError):
        SparsePoly.from_json_dict(
            {"field": "GF(7)", "nvars": 1, "terms": []}, field=f5
        )


# -- property tests ---------------------------------------------------------------------

_F5 = make_field(5)
_terms2 = st.dictionaries(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), st.integers(1, 4), max_size=6
)


def _build(terms):
    return SparsePoly(_F5, 2, {e: _F5.element(c) for e, c in terms.items()})


@given(_terms2, _terms2, st.integers(0, 4), st.integers(0, 4))
def test_product_evaluation_homomorphism(t1, t2, x0, x1):
    p, q = _build(t1), _build(t2)
    x = (_F5.element(x0), _F5.element(x1))
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


@given(_terms2, _terms2)
def test_addition_commutes(t1, t2):
    p, q = _build(t1), _build(t2)
    assert p + q == q + p
