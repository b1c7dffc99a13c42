"""Sparse multivariate polynomials over a finite field.

A polynomial is a map from exponent vectors (tuples of length nvars) to
nonzero coefficients; zero coefficients are never stored, so the number of
monomials is exactly ``len(terms)``.  Values are immutable: every operation
returns a new polynomial, and instances are safe to share between threads.

Two interchange formats round-trip bit-exactly:

  text:  terms "c*x1^e1*x2^e2" joined by "+", coefficients as canonical
         indices, terms sorted by exponent vector ("0" for the zero poly)
  JSON:  {"field": "GF(p^k)", "nvars": N,
          "terms": [{"coeff": c, "exps": [e1, .., eN]}, ..]}
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence, TYPE_CHECKING

import numpy as np

from gridball.gf import FieldElement, FieldSpec, json_int, parse_field_name

if TYPE_CHECKING:
    from gridball.domain import RectangularDomain

Exponents = tuple[int, ...]

_TERM_VAR = re.compile(r"^x(\d+)(?:\^(\d+))?$")

# most elements in one points x terms work array of evaluate_many
_WORK_ELEMS = 1 << 16


class SparsePoly:
    """Sparse polynomial in ``nvars`` variables over ``field``.

    ``terms`` maps exponent tuples to nonzero FieldElement coefficients;
    treat it as read-only.
    """

    __slots__ = ("field", "nvars", "terms", "_log_form")

    def __init__(self, field: FieldSpec, nvars: int, terms: Mapping[Exponents, FieldElement]):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        clean: dict[Exponents, FieldElement] = {}
        for exps, c in terms.items():
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has length != {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if c.field is not field:
                raise ValueError("coefficient from a different field")
            if c.index != 0:
                clean[tuple(exps)] = c
        self.field = field
        self.nvars = nvars
        self.terms = clean
        self._log_form = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec, nvars: int) -> "SparsePoly":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: FieldSpec, nvars: int, c: FieldElement) -> "SparsePoly":
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, field: FieldSpec, nvars: int) -> "SparsePoly":
        return cls.constant(field, nvars, field.one)

    @classmethod
    def variable(cls, field: FieldSpec, nvars: int, i: int) -> "SparsePoly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {exps: field.one})

    @classmethod
    def monomial(cls, field: FieldSpec, exps: Sequence[int], coeff: FieldElement) -> "SparsePoly":
        return cls(field, len(exps), {tuple(exps): coeff})

    # -- basic queries ----------------------------------------------------------

    def monomial_count(self) -> int:
        """Number of monomials with nonzero coefficient (0 for the zero poly)."""
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Sequence[int]) -> FieldElement:
        return self.terms.get(tuple(exps), self.field.zero)

    def degree_in_variable(self, i: int) -> int:
        """Largest exponent of variable i; -1 for the zero polynomial."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (
            self.field is other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"SparsePoly({self.field.name}, {self.to_text()!r})"

    # -- evaluation ---------------------------------------------------------------

    def _check_point(self, x: Sequence[FieldElement]) -> None:
        if len(x) != self.nvars:
            raise ValueError(f"point has {len(x)} coordinates, expected {self.nvars}")
        for xi in x:
            if xi.field is not self.field:
                raise ValueError("point coordinate from a different field")

    def evaluate(self, x: Sequence[FieldElement]) -> FieldElement:
        """Exact value at a point (exponentiation by square-and-multiply)."""
        self._check_point(x)
        f = self.field
        acc = 0
        for exps, c in self.terms.items():
            t = c.index
            for xi, e in zip(x, exps):
                if e and t:
                    t = f.mul_index(t, f.pow_index(xi.index, e))
            acc = f.add_index(acc, t)
        return FieldElement(f, acc)

    def _log_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exponents and supports (nvars x terms) and coefficient logs, built once.

        Each exponent is folded by _fold in Python integers, which keeps x^e
        for every x, zero included.  The exponents are float64 when every
        sum of evaluate_many's matrix product stays below 2^53, so the
        product is exact and runs on BLAS.
        """
        if self._log_form is None:
            f = self.field
            order = f.q - 1
            dtype = np.float64 if self.nvars * order * order < 1 << 53 else np.int64
            exps = np.array(
                [[_fold(e, order) for e in ex] for ex in self.terms],
                dtype=dtype,
            ).reshape(len(self.terms), self.nvars)
            exps = np.ascontiguousarray(exps.T)
            log_coeffs = np.array([f._log[c.index] for c in self.terms.values()], dtype=np.int64)
            self._log_form = (exps, (exps > 0).astype(np.float32), log_coeffs)
        return self._log_form

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Values at an (n, nvars) int64 array of canonical indices.

        Works in the log domain: a term's log is log c + sum e_i log x_i
        mod (q-1), one matrix product for all points and a block of terms.
        Terms whose support meets a zero coordinate are zeroed, the rest
        gathered through exp as addends and summed with sum_addends.  Each
        points x terms array holds at most _WORK_ELEMS elements.
        """
        if points.ndim != 2 or points.shape[1] != self.nvars:
            raise ValueError(f"expected shape (n, {self.nvars})")
        f = self.field
        order = f.q - 1
        exps, support, log_coeffs = self._log_terms()
        logs = f._log_arr[points].astype(exps.dtype)
        zero = points == 0
        zero = zero.astype(np.float32) if zero.any() else None
        step = max(1, _WORK_ELEMS // max(1, len(points)))
        sums = []
        for lo in range(0, len(log_coeffs), step):
            hi = lo + step
            # one points x terms int64 array at a time: term logs, then values
            zeroed = None if zero is None else zero @ support[:, lo:hi] > 0
            vals = (logs @ exps[:, lo:hi]).astype(np.int64)
            vals += log_coeffs[lo:hi]
            vals -= vals // order * order  # faster than % on int64
            # indices are in range, and mode="clip" keeps take from buffering
            np.take(f._exp_addends, vals, out=vals, mode="clip")
            if zeroed is not None:
                vals[zeroed] = 0
            sums.append(f.sum_addends(vals))
        if len(sums) < 2:
            return sums[0] if sums else np.zeros(len(points), dtype=np.int64)
        return f.vec_sum(np.stack(sums, axis=-1))

    # -- ring operations -------------------------------------------------------------

    def _check_compatible(self, other: "SparsePoly") -> None:
        if self.field is not other.field:
            raise ValueError("polynomials over different fields")
        if self.nvars != other.nvars:
            raise ValueError("polynomials with different variable counts")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        f = self.field
        out = {e: c.index for e, c in self.terms.items()}
        for e, c in other.terms.items():
            out[e] = f.add_index(out.get(e, 0), c.index)
        return SparsePoly(f, self.nvars, {e: FieldElement(f, v) for e, v in out.items()})

    def __neg__(self) -> "SparsePoly":
        f = self.field
        return SparsePoly(
            f, self.nvars, {e: FieldElement(f, f.neg_index(c.index)) for e, c in self.terms.items()}
        )

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        f = self.field
        out: dict[Exponents, int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = f.add_index(out.get(e, 0), f.mul_index(ca.index, cb.index))
        return SparsePoly(f, self.nvars, {e: FieldElement(f, v) for e, v in out.items()})

    def scalar_mul(self, c: FieldElement) -> "SparsePoly":
        f = self.field
        if c.field is not f:
            raise ValueError("scalar from a different field")
        return SparsePoly(
            f, self.nvars, {e: FieldElement(f, f.mul_index(v.index, c.index)) for e, v in self.terms.items()}
        )

    def __pow__(self, e: int) -> "SparsePoly":
        if e < 0:
            raise ValueError("polynomial power requires e >= 0")
        result = SparsePoly.one(self.field, self.nvars)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def substitute(self, i: int, a: FieldElement) -> "SparsePoly":
        """Fix variable i to the value a, returning an (nvars-1)-variable poly."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        if a.field is not self.field:
            raise ValueError("value from a different field")
        f = self.field
        out: dict[Exponents, int] = {}
        for exps, c in self.terms.items():
            v = f.mul_index(c.index, f.pow_index(a.index, exps[i]))
            e = exps[:i] + exps[i + 1 :]
            out[e] = f.add_index(out.get(e, 0), v)
        return SparsePoly(f, self.nvars - 1, {e: FieldElement(f, v) for e, v in out.items()})

    # -- reductions ---------------------------------------------------------------------

    def reduce_mod_domain(self, domain: "RectangularDomain") -> "SparsePoly":
        """Normal form modulo the vanishing ideal of a rectangular domain.

        Divides by the basis {prod_(a in A_i) (X_i - a)}; because the leading
        monomials X_i^|A_i| are pairwise coprime the remainder is the unique
        polynomial with deg_{X_i} < |A_i| that agrees with self on every
        point of the domain.  Exponents are folded below q first (see
        _PowerReduction), so a variable costs O(q * |A_i|) field operations
        however large its exponents are.
        """
        if domain.field is not self.field:
            raise ValueError("domain over a different field")
        if domain.nvars != self.nvars:
            raise ValueError("domain with a different variable count")
        f = self.field
        reps = [_PowerReduction(f, domain.sets[i]) for i in range(self.nvars)]
        out: dict[Exponents, int] = {}
        for exps, c in self.terms.items():
            # one term expands as an outer product of its variables' normal
            # forms: its prefixes never repeat and a product of nonzero
            # indices is nonzero, so fields add only where terms merge
            partial = [((), c.index)]
            for i, e in enumerate(exps):
                vec = [(j, rc) for j, rc in enumerate(reps[i].rep(e)) if rc]
                partial = [(key + (j,), f.mul_index(pc, rc)) for key, pc in partial for j, rc in vec]
            for key, v in partial:
                out[key] = f.add_index(out.get(key, 0), v)
        return SparsePoly(f, self.nvars, {e: FieldElement(f, v) for e, v in out.items()})

    # -- serialization ----------------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, FieldElement]]:
        return sorted(self.terms.items(), key=lambda t: t[0])

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = [str(c.index)]
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            parts.append("*".join(factors))
        return "+".join(parts)

    @classmethod
    def from_text(cls, field: FieldSpec, text: str, nvars: int | None = None) -> "SparsePoly":
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        raw: list[tuple[dict[int, int], int]] = []
        max_var = 0
        for term in s.split("+"):
            if not term:
                raise ValueError(f"empty term in {text!r}")
            coeff = None
            exps: dict[int, int] = {}
            for factor in term.split("*"):
                m = _TERM_VAR.match(factor)
                if m:
                    v = int(m.group(1))
                    if v < 1:
                        raise ValueError(f"variable index must be >= 1 in {factor!r}")
                    e = int(m.group(2)) if m.group(2) else 1
                    exps[v - 1] = exps.get(v - 1, 0) + e
                    max_var = max(max_var, v)
                else:
                    try:
                        c = int(factor)
                    except ValueError:
                        raise ValueError(f"bad factor {factor!r} in {text!r}") from None
                    if coeff is not None:
                        raise ValueError(f"multiple coefficients in term {term!r}")
                    coeff = c
            raw.append((exps, 1 if coeff is None else coeff))
        n = max_var if nvars is None else nvars
        if max_var > n:
            raise ValueError(f"term uses x{max_var} but nvars={n}")
        f = field
        out: dict[Exponents, int] = {}
        for exps, c in raw:
            if not 0 <= c < f.q:
                raise ValueError(f"coefficient {c} out of range for {f.name}")
            key = tuple(exps.get(i, 0) for i in range(n))
            out[key] = f.add_index(out.get(key, 0), c)
        return cls(f, n, {e: FieldElement(f, v) for e, v in out.items()})

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.name,
            "nvars": self.nvars,
            "terms": [
                {"coeff": c.index, "exps": list(e)} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict, field: FieldSpec | None = None) -> "SparsePoly":
        f = field if field is not None else parse_field_name(data["field"])
        if f.name != data["field"]:
            raise ValueError(f"field mismatch: {f.name} vs {data['field']}")
        nvars = json_int(data["nvars"], "nvars")
        out: dict[Exponents, int] = {}
        for t in data["terms"]:
            exps = tuple(json_int(e, "exponent") for e in t["exps"])
            c = json_int(t["coeff"], "coefficient")
            if not 0 <= c < f.q:
                raise ValueError(f"coefficient {c} out of range for {f.name}")
            out[exps] = f.add_index(out.get(exps, 0), c)
        return cls(f, nvars, {e: FieldElement(f, v) for e, v in out.items()})


def _fold(e: int, order: int) -> int:
    """The exponent in [0, order] with x^_fold(e) = x^e for every field x.

    order is q - 1.  A multiple of q - 1 folds to q - 1, never to 0, since
    0^(q-1) = 0 but 0^0 = 1.
    """
    return (e - 1) % order + 1 if e else 0


class _PowerReduction:
    """Reduction of univariate powers X^e modulo prod_(a in A) (X - a).

    rep(e) is the dense coefficient-index vector (length |A|) of the normal
    form of X^e.  It folds e first, since X^e and X^_fold(e) agree on the
    whole field, then steps X^|A|, X^(|A|+1), .. up to the folded exponent
    and caches every step, so the cache never holds more than q vectors.
    """

    def __init__(self, field: FieldSpec, elems: Sequence[FieldElement]):
        self.field = field
        d = len(elems)
        if d == 0:
            raise ValueError("empty coordinate set")
        self.d = d
        # expand prod (X - a) as dense index coefficients, low degree first
        g = [1]
        for a in elems:
            na = field.neg_index(a.index)
            nxt = [0] * (len(g) + 1)
            for i, ci in enumerate(g):
                nxt[i] = field.add_index(nxt[i], field.mul_index(ci, na))
                nxt[i + 1] = field.add_index(nxt[i + 1], ci)
            g = nxt
        # X^d == -(low part of g)
        self.xd_rem = [field.neg_index(g[j]) for j in range(d)]
        self._cache: list[list[int]] = [
            [1 if j == e else 0 for j in range(d)] for e in range(d)
        ]

    def rep(self, e: int) -> list[int]:
        f = self.field
        d = self.d
        e = _fold(e, f.q - 1)
        while len(self._cache) <= e:
            prev = self._cache[-1]
            top = prev[d - 1]
            nxt = [0] + prev[: d - 1]
            if top:
                nxt = [
                    f.add_index(nxt[j], f.mul_index(top, self.xd_rem[j]))
                    for j in range(d)
                ]
            self._cache.append(nxt)
        return self._cache[e]
