"""Rectangular domains, Hamming distance, ball enumeration, and ball volumes.

A rectangular domain is a product A_1 x .. x A_N of nonempty subsets of a
finite field, one per coordinate.  Domains are immutable.  A Hamming ball
comes as int64 arrays of canonical indices, in blocks of at most a given
number of rows that never span two shells (ball_chunks), or as FieldElement
tuples in the same order (enumerate_ball); when every movable coordinate
has the same number of alternatives, also as product sub-grids in that
order (shell_pieces, piece_sums, piece_point).

JSON format: {"field": "GF(p^k)", "sets": [[indices], ..]}.
"""

from __future__ import annotations

import math
from itertools import combinations, islice, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from gridball.gf import FieldElement, FieldSpec, json_int, parse_field_name

Point = tuple[FieldElement, ...]

# ball points decoded at a time for enumerate_ball
_TUPLE_CHUNK = 256


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
        return cls(f, [[f.element(json_int(i, "set index")) for i in a] for a in data["sets"]])


def hamming_distance(a: Sequence, b: Sequence) -> int:
    """Number of coordinates where a and b differ."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def alternatives(center: Sequence[FieldElement], domain: RectangularDomain) -> list[list[int]]:
    """Per coordinate, the indices of the set's values other than the
    center's, in canonical order: the replacement values of a ball."""
    return [[x.index for x in a if x != c] for a, c in zip(domain.sets, center)]


def ball_chunks(
    center: Sequence[FieldElement], radius: int, domain: RectangularDomain, size: int
) -> Iterator[np.ndarray]:
    """The points of the Hamming ball around the center as int64 index arrays.

    Yields (rows, N) arrays of canonical indices, 1 <= rows <= size, with
    each point exactly once; a block never spans two shells, so the center
    comes alone.  Order: radius 0 first, then radius 1, and so on; within a
    radius, changed-position subsets in lexicographic order and replacement
    values in canonical element order, the last changed position fastest.
    shell_pieces gives the same order as sub-grids when every movable
    coordinate has the same number of alternatives; the shell scan in tester
    relies on the two agreeing.

    A shell is built by decoding point ranks.  Its position subsets come in
    batches of at most `size`; np.searchsorted over their cumulative point
    counts gives each point its subset, and the mixed-radix digits of its
    rank in the subset pick its values from one padded table of
    alternatives.  Counts saturate at size + 1, and a subset with more
    points than that is decoded on its own, from an exact offset, so memory
    stays O(size * N) however large the ball.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    center = tuple(center)
    if not domain.contains(center):
        raise ValueError("center is not a point of the domain")
    n = domain.nvars
    base = np.array([x.index for x in center], dtype=np.int64)
    alts = alternatives(center, domain)
    radix = np.array([len(a) for a in alts], dtype=np.int64)
    width = max(1, max(radix, default=0))
    table = np.zeros((n, width), dtype=np.int64)
    for i, a in enumerate(alts):
        table[i, : len(a)] = a
    flat_table = table.reshape(-1)
    # a subset that contains a single-valued coordinate has no points
    movable = [i for i in range(n) if alts[i]]

    def points(pos: np.ndarray, rank: np.ndarray, start: Sequence[int]) -> np.ndarray:
        # rows of the points whose changed positions are pos ((m, rho), a
        # subset per point, or (rho,), one subset for all) and whose
        # replacement digits are start + rank in those positions' radix
        rows = np.empty((len(rank), n), dtype=np.int64)
        rows[:] = base
        flat = rows.reshape(-1)
        row_starts = np.arange(0, rows.size, n)
        rad = radix[pos]
        carry = rank
        for t in range(pos.shape[-1] - 1, -1, -1):
            carry, digit = np.divmod(carry + start[t], rad[..., t])
            flat[row_starts + pos[..., t]] = flat_table[pos[..., t] * width + digit]
        return rows

    def ranked(pos, counts, ends, lo, hi) -> Iterator[np.ndarray]:
        # cumulative ranks lo..hi-1 of a batch, none of them in a big subset
        for x in range(lo, hi, size):
            at = np.arange(x, min(x + size, hi))
            sub = np.searchsorted(ends, at, side="right")
            yield points(pos[sub], at - (ends[sub] - counts[sub]), [0] * pos.shape[1])

    def big(pos) -> Iterator[np.ndarray]:
        # one subset with more than `size` points, from exact Python offsets
        rad = radix[pos].tolist()
        total = math.prod(rad)
        for offset in range(0, total, size):
            start, rest = [], offset
            for r in reversed(rad):
                rest, d = divmod(rest, r)
                start.append(d)
            yield points(pos, np.arange(min(size, total - offset)), start[::-1])

    yield base[None, :]
    for rho in range(1, min(radius, len(movable)) + 1):
        subsets = combinations(movable, rho)
        while batch := list(islice(subsets, size)):
            pos = np.array(batch, dtype=np.int64)
            counts = np.ones(len(batch), dtype=np.int64)
            for t in range(rho):
                counts = np.minimum(counts * radix[pos[:, t]], size + 1)
            ends = np.cumsum(counts)
            x = 0
            for j in np.flatnonzero(counts > size).tolist():
                yield from ranked(pos, counts, ends, x, int(ends[j] - counts[j]))
                yield from big(pos[j])
                x = int(ends[j])
            yield from ranked(pos, counts, ends, x, int(ends[-1]))


def shell_pieces(m: int, r: int, radius: int, block: int) -> Iterator[tuple[np.ndarray, tuple]]:
    """The ball's sub-grids in ball_chunks order, at most `block` points each.

    For m movable coordinates with r alternatives each, and r <= block.  A
    piece is (pos, lead): a (subsets, rho) array of changed positions (0..m-1,
    in lexicographic order), and the replacement digits fixed for their
    leading positions; its points run over the rows of pos, then over the
    remaining digits with the last position fastest.  Whole subsets are
    batched while their points (r^rho each) and their digit choices
    (rho * r each) fit a block, one subset at least; a subset of more
    points is split on its leading digits, iterated lazily.
    """
    yield np.zeros((1, 0), dtype=np.int64), ()
    for rho in range(1, min(radius, m) + 1):
        subsets = combinations(range(m), rho)
        if r**rho <= block:
            while batch := list(islice(subsets, max(1, block // max(r**rho, rho * r)))):
                yield np.array(batch, dtype=np.int64), ()
            continue
        tail = 0
        while r ** (tail + 1) <= block:
            tail += 1
        for s in subsets:
            pos = np.array([s], dtype=np.int64)
            for lead in product(range(r), repeat=rho - tail):
                yield pos, lead


def piece_sums(
    factor: np.ndarray,
    table: np.ndarray,
    start: np.ndarray,
    pos: np.ndarray,
    lead: np.ndarray,
    mod: int | None = None,
) -> np.ndarray:
    """(terms, points) sums start + sum_j factor[:, p_j] * table[p_j, digit_j]
    over the points of a shell_pieces piece (pos, lead), in ball order.

    factor is (terms, positions) and table (positions, r); each product is
    reduced mod `mod` when one is given.  The steps are built for the
    piece's own positions only, so they fit the piece's block.  The lead
    digits add one sum per term; each tail position then puts its r values
    outside the sums built so far, which leaves the last position fastest.
    """
    def steps(cols: np.ndarray, digits: np.ndarray) -> np.ndarray:
        out = factor[:, cols] * table[cols, digits]
        return out if mod is None else out % mod

    nlead = len(lead)
    tail = pos[:, nlead:, None]
    # (terms, subsets, tail positions, r): every step of the piece at once
    tail_steps = steps(tail, np.arange(table.shape[1]))
    out = (start + steps(pos[0, :nlead], lead).sum(axis=1))[:, None, None]
    for j in range(tail.shape[1] - 1, -1, -1):
        out = np.add(tail_steps[:, :, j, :, None], out[:, :, None, :], order="C")
        out = out.reshape(*out.shape[:2], out.shape[2] * out.shape[3])
    return out.reshape(len(start), out.shape[1] * out.shape[2])


def piece_point(pos: np.ndarray, lead: np.ndarray, r: int, k: int) -> tuple[list, list]:
    """Changed positions and replacement digits of the k-th point of a
    shell_pieces piece (pos, lead) with r alternatives per position."""
    tail = pos.shape[1] - len(lead)
    sub, rank = divmod(k, r**tail)
    digits = [int(d) for d in np.unravel_index(rank, (r,) * tail)]
    return pos[sub].tolist(), [int(d) for d in lead] + digits


def enumerate_ball(
    center: Sequence[FieldElement], radius: int, domain: RectangularDomain
) -> Iterator[Point]:
    """Lazily yield the domain points within Hamming radius of the center,
    as FieldElement tuples, in ball_chunks order."""
    field = domain.field
    for chunk in ball_chunks(center, radius, domain, _TUPLE_CHUNK):
        for row in chunk.tolist():
            yield tuple(FieldElement(field, i) for i in row)


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
