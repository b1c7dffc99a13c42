"""Rectangular domains, Hamming distance, ball enumeration, and ball volumes.

A rectangular domain is a product A_1 x .. x A_N of nonempty subsets of a
finite field, one per coordinate.  Domains are immutable; ball enumeration
yields freshly built points.

JSON format: {"field": "GF(p^k)", "sets": [[indices], ..]}.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from gridball.gf import FieldElement, FieldSpec, parse_field_name

Point = tuple[FieldElement, ...]


class RectangularDomain:
    """Product of per-coordinate element sets over one field."""

    __slots__ = ("field", "sets", "contains_zero", "is_power")

    def __init__(self, field: FieldSpec, sets: Iterable[Iterable[FieldElement]]):
        norm = []
        for i, a in enumerate(sets):
            elems = list(a)
            if not elems:
                raise ValueError(f"coordinate set {i + 1} is empty")
            for x in elems:
                if x.field is not field:
                    raise ValueError("element from a different field")
            indices = sorted({x.index for x in elems})
            norm.append(tuple(FieldElement(field, j) for j in indices))
        self.field = field
        self.sets = tuple(norm)
        self.contains_zero = any(a[0].index == 0 for a in self.sets)
        first = self.sets[0] if self.sets else ()
        self.is_power = all(a == first for a in self.sets)

    @classmethod
    def power(cls, field: FieldSpec, s: Iterable[FieldElement], nvars: int) -> "RectangularDomain":
        elems = list(s)
        return cls(field, [elems] * nvars)

    @property
    def nvars(self) -> int:
        return len(self.sets)

    @property
    def size(self) -> int:
        n = 1
        for a in self.sets:
            n *= len(a)
        return n

    def contains(self, point: Sequence[FieldElement]) -> bool:
        if len(point) != self.nvars:
            return False
        return all(x in a for x, a in zip(point, self.sets))

    def points(self) -> Iterator[Point]:
        return product(*self.sets)

    def zero_paired_vertex(self) -> Point | None:
        """The all-nonzero corner when every A_i = {0, a_i}, else None."""
        vertex = []
        for a in self.sets:
            if len(a) != 2 or a[0].index != 0:
                return None
            vertex.append(a[1])
        return tuple(vertex)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RectangularDomain):
            return NotImplemented
        return self.field is other.field and self.sets == other.sets

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(str(x.index) for x in a) + "}" for a in self.sets)
        return f"RectangularDomain({self.field.name}, {inner})"

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.name,
            "sets": [[x.index for x in a] for a in self.sets],
        }

    @classmethod
    def from_json_dict(cls, data: dict, field: FieldSpec | None = None) -> "RectangularDomain":
        f = field if field is not None else parse_field_name(data["field"])
        if f.name != data["field"]:
            raise ValueError(f"field mismatch: {f.name} vs {data['field']}")
        return cls(f, [[f.element(int(i)) for i in a] for a in data["sets"]])


def hamming_distance(a: Sequence, b: Sequence) -> int:
    """Number of coordinates where a and b differ."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def enumerate_ball(
    center: Sequence[FieldElement], radius: int, domain: RectangularDomain
) -> Iterator[Point]:
    """Lazily yield the domain points within Hamming radius of the center.

    Each point appears exactly once.  Order: radius 0 first, then radius 1,
    and so on; within a radius, changed-position subsets in lexicographic
    order and replacement values in canonical element order.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    center = tuple(center)
    if not domain.contains(center):
        raise ValueError("center is not a point of the domain")
    n = domain.nvars
    yield center
    alternatives = [
        tuple(x for x in domain.sets[i] if x != center[i]) for i in range(n)
    ]
    for rho in range(1, min(radius, n) + 1):
        for positions in combinations(range(n), rho):
            for repl in product(*(alternatives[i] for i in positions)):
                point = list(center)
                for i, x in zip(positions, repl):
                    point[i] = x
                yield tuple(point)


def vol(s: int, n: int, k: float) -> int:
    """Points of an n-long, s-ary Hamming ball of radius floor(k), exactly.

    vol(s, n, k) = sum_{i=0}^{floor(k)} C(n, i) (s-1)^i as a big integer.
    """
    if s < 1 or n < 0 or k < 0:
        raise ValueError("vol requires s >= 1, n >= 0, k >= 0")
    kk = min(math.floor(k), n)
    return sum(math.comb(n, i) * (s - 1) ** i for i in range(kk + 1))


def entropy(s: int, x: float) -> float:
    """s-ary entropy H_s(x) on [0, 1], with H_s(0) = H_s(1) = 0.

    Interior values are x*log_s(s-1) - x*log_s(x) - (1-x)*log_s(1-x).  Note
    some write-ups carry a plus sign on the last term, which would make the
    function negative on (0, 1); this is the standard nonnegative form.
    """
    if s < 2:
        raise ValueError("entropy requires alphabet size >= 2")
    if not 0.0 <= x <= 1.0:
        raise ValueError("entropy argument must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    ln_s = math.log(s)
    return (
        x * math.log(s - 1) / ln_s
        - x * math.log(x) / ln_s
        - (1.0 - x) * math.log(1.0 - x) / ln_s
    )
