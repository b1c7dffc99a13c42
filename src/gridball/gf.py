"""Exact arithmetic in finite fields GF(p^k), desk scale (order capped at 2^20).

An element is identified by its canonical index in {0, .., q-1}: the base-p
encoding of its coefficient vector over GF(p) in the polynomial basis, low
degree first.  Index 0 is the zero element, index 1 the one element, and for
extension fields index p is the image of X modulo the field's irreducible.

Multiplication runs on precomputed exp/log tables keyed by a fixed generator
of the multiplicative group (the smallest-index element of full order);
addition is digitwise mod-p arithmetic on the index.  The reducing polynomial
is the lexicographically smallest monic irreducible of degree k over GF(p),
coefficients compared constant term first, so indices are portable across
runs and implementations.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_ORDER = 1 << 20

# Full q*q addition tables are only worth the memory for small fields.
_ADD_TABLE_LIMIT = 256


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
# Dense univariate polynomials over GF(p), used only to bootstrap the tables.
# Coefficient lists are low-degree first and normalized (no trailing zeros).


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    # m must be monic
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        c = r[-1]
        shift = len(r) - 1 - dm
        if c:
            for j, mj in enumerate(m):
                r[shift + j] = (r[shift + j] - c * mj) % p
        r.pop()
    return _poly_trim(r)


def _poly_powmod(a: Sequence[int], e: int, m: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(a, m, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        # make b monic before reducing
        inv = pow(b[-1], p - 2, p)
        b = [(c * inv) % p for c in b]
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin's irreducibility test for a monic polynomial over GF(p)."""
    k = len(f) - 1
    if k < 1:
        return False
    x = [0, 1]
    # x^(p^k) == x (mod f)
    if _poly_powmod(x, p**k, f, p) != _poly_mod(x, f, p):
        return False
    for ell in _prime_factors(k):
        h = _poly_powmod(x, p ** (k // ell), f, p)
        diff = list(h)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(list(f), _poly_trim(diff), p)
        if len(g) - 1 >= 1:
            return False
    return True


def _canonical_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Candidate coefficient tuples (c_0, .., c_{k-1}) are compared constant
    term first; the leading coefficient is fixed to 1.
    """
    if k == 1:
        return (0, 1)
    for low in product(range(p), repeat=k):
        f = list(low) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
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
        "_add_table",
        "_exp_arr",
        "_log_arr",
    )

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        q = p**k
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds cap {MAX_ORDER}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _canonical_modulus(p, k)
        self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _index_to_vec(self, idx: int) -> list[int]:
        v = []
        for _ in range(self.k):
            idx, d = divmod(idx, self.p)
            v.append(d)
        return v

    def _vec_to_index(self, v: Sequence[int]) -> int:
        idx = 0
        for d in reversed(v):
            idx = idx * self.p + d
        return idx

    def _mul_raw(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        prod = _poly_mul(self._index_to_vec(a), self._index_to_vec(b), self.p)
        return self._vec_to_index(_poly_mod(prod, self.modulus, self.p))

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _build_tables(self) -> None:
        q = self.q
        factors = _prime_factors(q - 1) if q > 2 else []
        gen = 1
        for cand in range(2, q):
            if all(self._pow_raw(cand, (q - 1) // ell) != 1 for ell in factors):
                gen = cand
                break
        self.generator_index = gen
        exp = [1] * (q - 1)
        for j in range(1, q - 1):
            exp[j] = self._mul_raw(exp[j - 1], gen)
        log = [0] * q  # log[0] is a placeholder, never valid
        for j, v in enumerate(exp):
            log[v] = j
        self._exp = exp
        self._log = log
        self._exp_arr = np.array(exp, dtype=np.int64)
        self._log_arr = np.array(log, dtype=np.int64)
        if q <= _ADD_TABLE_LIMIT:
            self._add_table = [
                [self._add_slow(a, b) for b in range(q)] for a in range(q)
            ]
        else:
            self._add_table = None

    def _add_slow(self, a: int, b: int) -> int:
        # in characteristic 2 an index is a GF(2) coefficient bit-vector
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        out, pw = 0, 1
        for _ in range(self.k):
            out += ((a + b) % self.p) * pw
            a //= self.p
            b //= self.p
            pw *= self.p
        return out

    # -- index arithmetic -----------------------------------------------------

    @property
    def name(self) -> str:
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"

    def add_index(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_slow(a, b)

    def neg_index(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.k == 1:
            return (-a) % self.p
        out, pw = 0, 1
        for _ in range(self.k):
            out += ((self.p - a % self.p) % self.p) * pw
            a //= self.p
            pw *= self.p
        return out

    def mul_index(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv_index(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by the zero element")
        return self._exp[(-self._log[a]) % (self.q - 1)]

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
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        pw = 1
        for _ in range(self.k):
            out += ((a // pw + b // pw) % self.p) * pw
            pw *= self.p
        return out

    def vec_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        prod = self._exp_arr[(self._log_arr[a] + self._log_arr[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def vec_pow(self, a: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            raise ValueError("vectorized power requires e >= 0")
        if e == 0:
            return np.ones_like(a)
        er = e % (self.q - 1)
        if er == 0:
            # a != 0 gives 1, a == 0 stays 0
            return np.where(a == 0, 0, 1)
        powed = self._exp_arr[(self._log_arr[a] * er) % (self.q - 1)]
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


def parse_field_name(name: str) -> FieldSpec:
    """Parse "GF(q)" or "GF(p^k)" into a field, factoring q when needed."""
    s = name.strip()
    if not (s.startswith("GF(") and s.endswith(")")):
        raise ValueError(f"bad field name {name!r}, expected GF(q) or GF(p^k)")
    body = s[3:-1].strip()
    if "^" in body:
        ps, ks = body.split("^", 1)
        p, k = int(ps), int(ks)
    else:
        q = int(body)
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
    return (f.q - 1) // math.gcd(f.q - 1, f._log[x.index])


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
            logs.append(f._log[x.index])
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
    return {FieldElement(spec, spec._exp[(step * j) % (spec.q - 1)]) for j in range(d)}
