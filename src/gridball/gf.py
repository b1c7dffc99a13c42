"""Exact arithmetic in finite fields GF(p^k), desk scale (order capped at 2^20).

An element is identified by its canonical index in {0, .., q-1}: the base-p
encoding of its coefficient vector over GF(p) in the polynomial basis, low
degree first.  Index 0 is the zero element, index 1 the one element, and for
extension fields index p is the image of X modulo the field's irreducible.

Multiplication runs on precomputed exp/log tables keyed by a fixed generator
of the multiplicative group (the smallest-index element of full order).  Each
table is one int64 array, stored once: the vectorized operations index it
with arrays, and the scalar ones read it with .item(), so a scalar result is
always a Python int.
Addition is digit-wise mod p on the index, in one of three regimes: XOR for
p = 2, a sum mod p for k = 1, and for odd p with k > 1 a plain integer sum of
packed indices, each base-p digit in its own bit field where it cannot carry,
reduced digit by digit mod p by FieldSpec._unpack.  The reducing polynomial
is the lexicographically smallest monic irreducible of degree k over GF(p),
coefficients compared constant term first, so indices are portable across
runs and implementations.

Construction works on k x k matrices over GF(p): multiplication by an
element is a polynomial in the companion matrix of the modulus.  The modulus
search runs Rabin's test on companion matrices, the generator test takes
matrix powers, and the exp table is filled by doubling, one matrix product
per power of two.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_ORDER = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Matrices over GF(p), used only to construct a field.  Multiplication by an
# element a = sum a_i X^i is the k x k matrix sum a_i C^i, where C is the
# companion matrix of the modulus; column vectors are coefficient vectors, low
# degree first.  Entries stay below p, so int64 products cannot overflow.


def _companion(low: Sequence[int], p: int) -> np.ndarray:
    """Matrix of multiplication by X modulo the monic X^k + sum low_i X^i."""
    k = len(low)
    c = np.zeros((k, k), dtype=np.int64)
    c[1:, :-1] = np.eye(k - 1, dtype=np.int64)
    c[:, -1] = [(-x) % p for x in low]
    return c


def _mat_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    r = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            r = r @ m % p
        m = m @ m % p
        e >>= 1
    return r


def _invertible(m: np.ndarray, p: int) -> bool:
    """Whether a square matrix is invertible mod p, by Gaussian elimination."""
    m = m % p
    for col in range(len(m)):
        nonzero = np.flatnonzero(m[col:, col])
        if nonzero.size == 0:
            return False
        piv = col + nonzero[0]
        m[[col, piv]] = m[[piv, col]]
        scale = m[col + 1 :, col] * pow(int(m[col, col]), -1, p) % p
        m[col + 1 :] = (m[col + 1 :] - np.outer(scale, m[col])) % p
    return True


def _canonical_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Candidate coefficient tuples (c_0, .., c_{k-1}) are compared constant
    term first; the leading coefficient is fixed to 1.  Candidates with
    c_0 = 0 are divisible by X and skipped.  The rest get Rabin's test on
    the companion matrix C: C^(p^k) == C, and C^(p^(k/l)) - C invertible
    for every prime l dividing k.
    """
    if k == 1:
        return (0, 1)
    for low in product(range(1, p), *[range(p)] * (k - 1)):
        c = _companion(low, p)
        frobenius = [c]  # C^(p^j) for j = 0 .. k
        for _ in range(k):
            frobenius.append(_mat_pow(frobenius[-1], p, p))
        if np.array_equal(frobenius[k], c) and all(
            _invertible(frobenius[k // ell] - c, p) for ell in _prime_factors(k)
        ):
            return (*low, 1)
    raise AssertionError(f"no irreducible of degree {k} over GF({p})")


# ---------------------------------------------------------------------------


class FieldElement:
    """An element of a FieldSpec, identified by its canonical index."""

    __slots__ = ("field", "index")

    def __init__(self, field: "FieldSpec", index: int):
        self.field = field
        self.index = index

    def __repr__(self) -> str:
        return f"{self.field.name}[{self.index}]"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field is other.field and self.index == other.index

    def __hash__(self) -> int:
        return hash((id(self.field), self.index))

    def __bool__(self) -> bool:
        return self.index != 0

    def __int__(self) -> int:
        return self.index

    def _check(self, other: "FieldElement") -> None:
        if self.field is not other.field:
            raise ValueError("elements from different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.add_index(self.index, other.index))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        f = self.field
        return FieldElement(f, f.add_index(self.index, f.neg_index(other.index)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field.neg_index(self.index))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.mul_index(self.index, other.index))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        f = self.field
        return FieldElement(f, f.mul_index(self.index, f.inv_index(other.index)))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow_index(self.index, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_index(self.index))


class FieldSpec:
    """Immutable description of GF(p^k) with its arithmetic tables.

    Construct via make_field(); instances are cached so identity comparison
    of specs (and of their elements) is sound.  All operations are read-only
    after construction and safe for concurrent use.
    """

    __slots__ = (
        "p",
        "k",
        "q",
        "modulus",
        "generator_index",
        "_exp",
        "_log",
        "_digit_fields",
        "_packed_arr",
        "_exp_addends",
    )

    def __init__(self, p: int, k: int):
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        # the cap comes first: a huge p stalls is_prime, and a huge k p**k
        if p > MAX_ORDER or k >= MAX_ORDER.bit_length() or p**k > MAX_ORDER:
            raise ValueError(f"field order {p}^{k} exceeds cap {MAX_ORDER}")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        q = p**k
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _canonical_modulus(p, k)
        self._build_tables()

    # -- construction ---------------------------------------------------------

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        place = p ** np.arange(k, dtype=np.int64)
        c = _companion(self.modulus[:-1], p)
        c_powers = np.array([_mat_pow(c, i, p) for i in range(k)])

        def matrix(index: int) -> np.ndarray:
            return np.tensordot(index // place % p, c_powers, 1) % p

        one = np.eye(k, dtype=np.int64)
        factors = _prime_factors(q - 1)
        gen = 1
        for cand in range(2, q):
            m = matrix(cand)
            if all(not np.array_equal(_mat_pow(m, (q - 1) // ell, p), one) for ell in factors):
                gen = cand
                break
        self.generator_index = gen
        # coefficient columns of g^0 .. g^(q-2), filled by doubling:
        # the block g^n .. g^(2n-1) is the matrix of g^n times the first n
        cols = np.zeros((k, q - 1), dtype=np.int64)
        cols[0, 0] = 1
        m, n = matrix(gen), 1
        while n < q - 1:
            step = min(n, q - 1 - n)
            cols[:, n : n + step] = m @ cols[:, :step] % p
            m = m @ m % p
            n += step
        exp = place @ cols
        log = np.zeros(q, dtype=np.int64)  # log[0] is a placeholder, never valid
        log[exp] = np.arange(q - 1)
        self._exp = exp
        self._log = log
        # the packed form of each index: base-p digit j, of place value p^j,
        # in the bit field of 63 // k bits that starts at bit 63 // k * j
        self._digit_fields = [(63 // k * j, p**j) for j in range(k)]
        if p > 2 and k > 1:
            index = np.arange(q, dtype=np.int64)
            self._packed_arr = sum(
                (index // place % p) << shift for shift, place in self._digit_fields
            )
            self._exp_addends = self._packed_arr[exp]
        else:
            self._packed_arr = None
            self._exp_addends = exp

    def _unpack(self, s: int | np.ndarray) -> int | np.ndarray:
        """Index of a packed digit-wise sum, each bit field reduced mod p.

        Works alike on a Python int and on an int64 array; every field must
        still hold its digit sum, see sum_addends.
        """
        p, mask = self.p, (1 << 63 // self.k) - 1
        out = 0
        for shift, place in self._digit_fields:
            out += ((s >> shift) & mask) % p * place
        return out

    # -- index arithmetic -----------------------------------------------------

    @property
    def name(self) -> str:
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"

    def add_index(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        return self._unpack(self._packed_arr.item(a) + self._packed_arr.item(b))

    def neg_index(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.k == 1:
            return -a % self.p
        return self._unpack((self.p - 1) * self._packed_arr.item(a))

    def mul_index(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp.item((self._log.item(a) + self._log.item(b)) % (self.q - 1))

    def inv_index(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by the zero element")
        return self._exp.item(-self._log.item(a) % (self.q - 1))

    def pow_index(self, a: int, e: int) -> int:
        """Square-and-multiply power of an index; negative e inverts first."""
        if e < 0:
            a, e = self.inv_index(a), -e
        if a == 0:
            return 1 if e == 0 else 0
        r = 1
        while e:
            if e & 1:
                r = self.mul_index(r, a)
            a = self.mul_index(a, a)
            e >>= 1
        return r

    # -- vectorized index arithmetic (numpy arrays of indices) ----------------

    def vec_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        return self._unpack(self._packed_arr[a] + self._packed_arr[b])

    def vec_sum(self, a: np.ndarray) -> np.ndarray:
        """Field sum of an index array along its last axis, see sum_addends."""
        return self.sum_addends(a if self._packed_arr is None else self._packed_arr[a])

    def sum_addends(self, a: np.ndarray) -> np.ndarray:
        """Field sum along the last axis of addends, indices of the sum.

        Three regimes: for p = 2 addends are indices, summed by XOR; for
        k = 1 they are indices, summed mod p; for odd p with k > 1 they are
        packed indices (_packed_arr), added as integers and unpacked.
        _exp_addends is the exp table as addends, and 0 is the zero addend
        in every regime.
        """
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=-1)
        if self.k == 1:
            return a.sum(axis=-1) % self.p
        # a group of up to `group` packed addends cannot carry from one
        # digit's bit field into the next; longer sums go group by group
        group = ((1 << 63 // self.k) - 1) // (self.p - 1)
        n = a.shape[-1]
        if n > group:
            padded = np.zeros(a.shape[:-1] + (n + -n % group,), dtype=np.int64)
            padded[..., :n] = a
            return self.vec_sum(self.sum_addends(padded.reshape(a.shape[:-1] + (-1, group))))
        return self._unpack(a.sum(axis=-1))

    def vec_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        prod = self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def vec_pow(self, a: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            raise ValueError("vectorized power requires e >= 0")
        if e == 0:
            return np.ones_like(a)
        er = e % (self.q - 1)
        powed = self._exp[(self._log[a] * er) % (self.q - 1)]
        return np.where(a == 0, 0, powed)

    # -- elements --------------------------------------------------------------

    def element(self, index: int) -> FieldElement:
        if not 0 <= index < self.q:
            raise ValueError(f"index {index} out of range for {self.name}")
        return FieldElement(self, index)

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    @property
    def generator(self) -> FieldElement:
        return FieldElement(self, self.generator_index)

    def elements(self) -> Iterator[FieldElement]:
        return (FieldElement(self, i) for i in range(self.q))

    def nonzero_elements(self) -> Iterator[FieldElement]:
        return (FieldElement(self, i) for i in range(1, self.q))

    def __repr__(self) -> str:
        return f"FieldSpec({self.name})"


_field_cache: dict[tuple[int, int], FieldSpec] = {}


def make_field(p: int, k: int = 1) -> FieldSpec:
    """Return the canonical GF(p^k); repeated calls return the same object."""
    key = (p, k)
    spec = _field_cache.get(key)
    if spec is None:
        spec = FieldSpec(p, k)
        _field_cache[key] = spec
    return spec


def json_int(value: object, what: str) -> int:
    """A JSON integer as an int; floats, booleans and strings are rejected."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def parse_field_name(name: str) -> FieldSpec:
    """Parse "GF(q)" or "GF(p^k)" into a field, factoring q when needed.

    Anything else, a non-string included, raises ValueError, and so does an
    order past MAX_ORDER, before any factoring or power is computed.
    """
    if not isinstance(name, str):
        raise ValueError(f"field must be a string GF(q) or GF(p^k), got {type(name).__name__}")
    s = name.strip()
    if not (s.startswith("GF(") and s.endswith(")")):
        raise ValueError(f"bad field name {name!r}, expected GF(q) or GF(p^k)")
    body = s[3:-1].strip()
    if "^" in body:
        ps, ks = body.split("^", 1)
        p, k = int(ps), int(ks)
    else:
        q = int(body)
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds cap {MAX_ORDER}")
        facs = _prime_factors(q)
        if len(facs) != 1:
            raise ValueError(f"{q} is not a prime power")
        p = facs[0]
        k = 0
        while q > 1:
            if q % p:
                raise ValueError(f"{body} is not a prime power")
            q //= p
            k += 1
    return make_field(p, k)


def mul_order(x: FieldElement) -> int:
    """Multiplicative order of a nonzero element; divides q-1."""
    if x.index == 0:
        raise ValueError("the zero element has no multiplicative order")
    f = x.field
    return (f.q - 1) // math.gcd(f.q - 1, f._log.item(x.index))


def max_ratio_order(sets: Iterable[Iterable[FieldElement]]) -> int:
    """Largest multiplicative order among ratios u/v of same-set elements.

    Floored at 2, so the result is always a valid logarithm base parameter
    even when every set is a singleton (where the only ratio is 1).
    """
    r = 2
    for a in sets:
        elems = list(a)
        if not elems:
            raise ValueError("empty coordinate set")
        f = elems[0].field
        logs = []
        for x in elems:
            if x.index == 0:
                raise ValueError("ratio orders require zero-free sets")
            logs.append(f._log.item(x.index))
        n = f.q - 1
        for i in range(len(logs)):
            for j in range(i + 1, len(logs)):
                r = max(r, n // math.gcd(n, (logs[i] - logs[j]) % n))
    return r


def subgroup_of_order(spec: FieldSpec, d: int) -> set[FieldElement]:
    """The unique multiplicative subgroup of order d (d must divide q-1)."""
    if d < 1 or (spec.q - 1) % d != 0:
        raise ValueError(f"{d} does not divide q-1 = {spec.q - 1}")
    step = (spec.q - 1) // d
    return {FieldElement(spec, spec._exp.item(step * j)) for j in range(d)}
