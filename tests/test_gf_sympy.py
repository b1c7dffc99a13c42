"""Differential check of field construction against sympy's GF(p)[X] arithmetic.

Covers every extension field (k >= 2) of order at most 4096.  sympy lists
polynomial coefficients high degree first; gridball indices are base-p
digits, low degree first.
"""

import random
from itertools import product

import pytest

from gridball.gf import is_prime, make_field, mul_order

galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ

EXTENSION_FIELDS = [
    (p, k) for p in range(2, 65) if is_prime(p) for k in range(2, 13) if p**k <= 4096
]


def _sympy_poly(index, p, k):
    return galoistools.gf_strip([index // p**i % p for i in reversed(range(k))])


@pytest.mark.parametrize("p,k", EXTENSION_FIELDS)
def test_field_matches_sympy(p, k):
    f = make_field(p, k)
    modulus = list(reversed(f.modulus))
    assert galoistools.gf_irreducible_p(modulus, p, ZZ)
    # every candidate before the modulus, in constant-term-first order, is reducible
    for low in product(range(p), repeat=k):
        if (*low, 1) == f.modulus:
            break
        assert not galoistools.gf_irreducible_p([1, *reversed(low)], p, ZZ)

    g = _sympy_poly(f.generator_index, p, k)
    for j in random.Random(p * 100 + k).sample(range(f.q - 1), min(64, f.q - 1)):
        product_poly = galoistools.gf_rem(
            galoistools.gf_mul(_sympy_poly(f._exp[j], p, k), g, p, ZZ), modulus, p, ZZ
        )
        assert product_poly == _sympy_poly(f._exp[(j + 1) % (f.q - 1)], p, k)

    # the generator is the smallest index of full multiplicative order
    assert mul_order(f.generator) == f.q - 1
    assert all(mul_order(f.element(i)) < f.q - 1 for i in range(2, f.generator_index))
