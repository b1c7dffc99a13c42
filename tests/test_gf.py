import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridball.gf import (
    FieldSpec,
    is_prime,
    make_field,
    max_ratio_order,
    mul_order,
    parse_field_name,
    subgroup_of_order,
)

ALL_SMALL_ORDERS = [
    (p, k)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    for k in (1, 2, 3, 4, 5, 6)
    if p**k <= 64
]


def test_prime_field_elements(f3):
    assert f3.q == 3 and f3.p == 3 and f3.k == 1
    assert [x.index for x in f3.elements()] == [0, 1, 2]
    assert (f3.element(2) + f3.element(2)).index == 1
    assert (f3.element(2) * f3.element(2)).index == 1


def test_gf4_modulus_is_the_unique_irreducible(f4):
    # X^2 + X + 1 is the only irreducible quadratic over GF(2)
    assert f4.modulus == (1, 1, 1)


def test_gf9_modulus_and_encoding(f9):
    # lexicographically smallest irreducible (constant term first): X^2 + 1
    assert f9.modulus == (1, 0, 1)
    # index p encodes X, whose square is -1 = 2
    x = f9.element(3)
    assert (x * x).index == 2


def test_gf9_exp_log_bijection_full_scan(f9):
    assert sorted(f9._exp) == list(range(1, 9))
    assert all(f9._log[f9._exp[j]] == j for j in range(8))
    assert all(f9._exp[f9._log[v]] == v for v in range(1, 9))


def test_make_field_errors():
    with pytest.raises(ValueError):
        make_field(4)  # not prime
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(3, 0)
    with pytest.raises(ValueError):
        make_field(2, 21)  # exceeds the 2^20 cap


def test_make_field_is_cached():
    assert make_field(5) is make_field(5)
    assert make_field(2, 2) is make_field(2, 2)


def test_parse_field_name():
    assert parse_field_name("GF(9)") is make_field(3, 2)
    assert parse_field_name("GF(3^2)") is make_field(3, 2)
    assert parse_field_name(" GF( 7 ) ") is make_field(7)
    for bad in ("GF(6)", "GF(12)", "F(4)", "GF()"):
        with pytest.raises(ValueError):
            parse_field_name(bad)


@pytest.mark.parametrize("name", [123, None, 1.5, True, ["GF(3)"], {"GF": 3}])
def test_parse_field_name_rejects_non_strings(name):
    with pytest.raises(ValueError, match="must be a string"):
        parse_field_name(name)


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse_field_name("GF(2305843009213693951)"),  # 2^61 - 1, a prime
        lambda: parse_field_name("GF(2305843009213693951^1)"),
        lambda: parse_field_name("GF(3^50000000)"),
        lambda: make_field(2**61 - 1),
        lambda: make_field(3, 50_000_000),
    ],
    ids=["prime-order", "prime-power-1", "huge-exponent", "make-prime", "make-exponent"],
)
def test_huge_orders_fail_before_factoring(make):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds cap"):
        make()
    assert time.perf_counter() - start < 1.0


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# orders at or past the cap; every legal field below builds in well under
# a second (GF(2^20), the slowest, is left out)
_HUGE = st.integers(2**20 - 8, 10**30) | st.sampled_from([2**61 - 1, 3**13, 10**4000])
_FIELD_NAMES = st.one_of(
    _JSON,
    st.builds("GF({})".format, _HUGE),
    st.builds("GF({}^{})".format, st.integers(-3, 13), _HUGE),
    st.builds("GF({}^{})".format, _HUGE, st.integers(-3, 3)),
    st.builds(" GF( {}^{} ) ".format, st.integers(-3, 13), st.integers(-3, 6)),
    st.text(alphabet="GF()^0123456789- ", max_size=12),
)


@given(_FIELD_NAMES)
@settings(deadline=None, max_examples=300)
def test_field_names_yield_a_field_or_value_error(name):
    # whatever JSON value sits in "field": a field or ValueError, fast
    start = time.perf_counter()
    try:
        f = parse_field_name(name)
    except ValueError:
        pass
    else:
        assert isinstance(f, FieldSpec) and f.q <= 2**20
        assert parse_field_name(f.name) is f
    assert time.perf_counter() - start < 2.0


def test_element_arithmetic(f5):
    a, b = f5.element(3), f5.element(4)
    assert (a + b).index == 2
    assert (a - b).index == 4
    assert (a * b).index == 2
    assert (a / b).index == 2  # 3 * 4^-1 = 3 * 4 = 12 = 2
    assert (-a).index == 2
    assert (a ** -1 * a).index == 1
    with pytest.raises(ZeroDivisionError):
        a / f5.zero


def test_cross_field_operations_rejected(f3, f5):
    with pytest.raises(ValueError):
        f3.one + f5.one


def test_mul_order_examples(f4, f5):
    assert mul_order(f4.one) == 1
    omega = f4.element(2)
    assert mul_order(omega) == 3
    assert mul_order(f5.element(2)) == 4
    with pytest.raises(ValueError):
        mul_order(f4.zero)


@pytest.mark.parametrize("p,k", ALL_SMALL_ORDERS)
def test_mul_order_divides_group_order(p, k):
    f = make_field(p, k)
    for i in range(1, f.q):
        assert (f.q - 1) % mul_order(f.element(i)) == 0


def test_max_ratio_order_examples(f4, f5):
    # singletons: only ratio is 1, the floor of 2 applies
    assert max_ratio_order([[f5.element(3)], [f5.element(2)]]) == 2
    assert max_ratio_order([[f5.element(i) for i in (1, 2, 3, 4)]]) == 4
    assert max_ratio_order([[f4.element(2), f4.element(3)]]) == 3
    with pytest.raises(ValueError):
        max_ratio_order([[]])
    with pytest.raises(ValueError):
        max_ratio_order([[f5.zero, f5.one]])


def test_subgroup_examples(f4, f7):
    assert {x.index for x in subgroup_of_order(f7, 1)} == {1}
    assert {x.index for x in subgroup_of_order(f4, 3)} == {1, 2, 3}
    assert {x.index for x in subgroup_of_order(f7, 3)} == {1, 2, 4}
    with pytest.raises(ValueError):
        subgroup_of_order(f7, 4)  # 4 does not divide 6


@pytest.mark.parametrize("p,k", ALL_SMALL_ORDERS)
def test_subgroups_closed_and_sized(p, k):
    f = make_field(p, k)
    for d in range(1, f.q):
        if (f.q - 1) % d:
            continue
        sub = subgroup_of_order(f, d)
        assert len(sub) == d
        for a in sub:
            assert a.inverse() in sub
            for b in sub:
                assert a * b in sub


@pytest.mark.parametrize("p,k", ALL_SMALL_ORDERS)
def test_field_axioms_exhaustive(p, k):
    """Full associativity/commutativity/distributivity/inverse tables."""
    f = make_field(p, k)
    q = f.q
    idx = np.arange(q, dtype=np.int64)
    add = f.vec_add(idx[:, None], idx[None, :])
    mul = f.vec_mul(idx[:, None], idx[None, :])
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    assert np.array_equal(add[0], idx)
    assert np.array_equal(mul[1], idx)
    assert np.all(mul[0] == 0)
    # associativity: (x op y) op z == x op (y op z)
    for t in (add, mul):
        lhs = t[t[:, :, None], idx[None, None, :]]
        rhs = t[idx[:, None, None], t[None, :, :]]
        assert np.array_equal(lhs, rhs)
    # distributivity: x * (y + z) == x*y + x*z
    lhs = f.vec_mul(idx[:, None, None], add[None, :, :])
    rhs = f.vec_add(mul[:, :, None], mul[:, None, :])
    assert np.array_equal(lhs, rhs)
    # additive inverses exist and multiplicative inverses for nonzero
    assert np.all((add == 0).sum(axis=1) == 1)
    assert np.all((mul[1:] == 1).sum(axis=1) == 1)


@pytest.mark.parametrize(
    "p,k", [(3, 2), (2, 8), (2, 12), (3, 3), (5, 2), (7, 3), (3, 12), (1048573, 1)]
)
def test_vec_ops_match_scalar_ops(p, k):
    f = make_field(p, k)
    rngN = 50
    rs = np.random.RandomState(7)
    a = rs.randint(0, f.q, rngN)
    b = rs.randint(0, f.q, rngN)
    a[0], b[0] = f.q - 1, f.q - 1  # every digit p - 1, the largest digit sums
    assert np.array_equal(
        f.vec_add(a, b), np.array([f.add_index(x, y) for x, y in zip(a, b)])
    )
    # addition is digit-wise mod p on the coefficient vectors
    def digits(x):
        return [int(x) // p**i % p for i in range(k)]

    def undigits(ds):
        return sum(d % p * p**i for i, d in enumerate(ds))

    digitwise = [undigits([u + v for u, v in zip(digits(x), digits(y))]) for x, y in zip(a, b)]
    assert f.vec_add(a, b).tolist() == digitwise
    assert [f.add_index(int(x), int(y)) for x, y in zip(a, b)] == digitwise
    negs = [f.neg_index(int(x)) for x in a]
    assert negs == [undigits([-u for u in digits(x)]) for x in a]
    assert [f.add_index(int(x), n) for x, n in zip(a, negs)] == [0] * rngN
    assert np.array_equal(
        f.vec_mul(a, b), np.array([f.mul_index(x, y) for x, y in zip(a, b)])
    )
    for e in (0, 1, 2, 5, 8, 9, 17, f.q - 1, 2 * (f.q - 1)):
        assert np.array_equal(
            f.vec_pow(a, e), np.array([f.pow_index(x, e) for x in a])
        )


@pytest.mark.parametrize("p,k", [(2, 8), (7, 1), (3, 3), (5, 2), (3, 12)])
def test_vec_sum_matches_scalar_sums(p, k):
    # GF(3^12) packs 5 bits per digit: past 15 addends vec_sum sums in groups
    f = make_field(p, k)
    rs = np.random.RandomState(11)
    for terms in (0, 1, 15, 16, 40, 300):
        a = rs.randint(0, f.q, (9, terms))
        a[0] = f.q - 1  # every digit p - 1, the largest digit sums
        want = [reduce(f.add_index, row, 0) for row in a.tolist()]
        assert f.vec_sum(a).tolist() == want
        # the same sums from the exp table in addend form, zero addends for 0
        addends = np.where(a == 0, 0, f._exp_addends[f._log[a] % (f.q - 1)])
        assert f.sum_addends(addends).tolist() == want


def test_pow_index_square_and_multiply(f7):
    for base in range(7):
        for e in range(0, 10):
            assert f7.pow_index(base, e) == pow(base, e, 7)


@pytest.mark.parametrize("p,k", [(7, 1), (2, 8), (3, 3)])
def test_scalar_operations_return_python_ints(p, k):
    # the tables are int64 arrays; an np.int64 that reached a report would
    # make json.dumps raise
    f = make_field(p, k)
    elems = range(1, f.q)
    for a in (0, 1, f.q - 1, f.generator_index):
        for b in (0, 1, 2, f.q - 1):
            assert type(f.add_index(a, b)) is int
            assert type(f.mul_index(a, b)) is int
            assert type(f.pow_index(a, b)) is int
        assert type(f.neg_index(a)) is int
    assert all(type(f.inv_index(a)) is int for a in elems)
    assert all(type(mul_order(f.element(a))) is int for a in elems)
    assert type(max_ratio_order([[f.element(a) for a in elems]])) is int
    for d in (1, f.q - 1):
        assert all(type(x.index) is int for x in subgroup_of_order(f, d))


def test_tables_are_stored_once():
    # exp and log are one int64 array each: GF(2^16) retains 1 MiB, and
    # Python list copies of both would add 5 MiB
    tracemalloc.start()
    try:
        field = FieldSpec(2, 16)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert field.q == 1 << 16
    assert retained <= 2 << 20


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0)
