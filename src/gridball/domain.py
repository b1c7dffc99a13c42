"""Rectangular domains, Hamming distance, ball enumeration, and ball volumes.

A rectangular domain is a product A_1 x .. x A_N of nonempty subsets of a
finite field, one per coordinate.  Domains are immutable.  The order of a
Hamming ball is written once, in shell_pieces, as product sub-grids of at
most a given number of points.  ball_chunks decodes each piece into int64
rows of canonical indices, and enumerate_ball those rows into FieldElement
tuples; when every movable coordinate has the same number of
alternatives, piece_sums and piece_point work on a piece without rows.

JSON format: {"field": "GF(p^k)", "sets": [[indices], ..]}.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, chain, combinations, islice, product
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
    Each block is one piece of shell_pieces, which alone writes that order:
    the mixed-radix digits of each subset's points pick their values from
    one padded table of alternatives, so memory stays O(size * N) however
    large the ball.
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
    # a subset that contains a single-valued coordinate has no points
    movable = [i for i in range(n) if alts[i]]
    radix = [len(alts[i]) for i in movable]
    width = max(radix, default=1)
    # the movable coordinates' alternatives, padded to one width, flat
    table = np.array([alts[i] + [0] * (width - len(alts[i])) for i in movable], dtype=np.int64)
    table = table.reshape(-1)
    column = np.array(movable, dtype=np.int64)
    rad = np.array(radix, dtype=np.int64)
    for pos, lead in shell_pieces(radix, radius, size):
        pos_rad = rad[pos]
        counts = pos_rad[:, len(lead) :].prod(axis=1)
        sub = np.repeat(np.arange(len(pos)), counts)
        # each point's rank in its subset: the digits of its tail positions
        rank = np.arange(len(sub)) - (np.cumsum(counts) - counts)[sub]
        rows = np.empty((len(sub), n), dtype=np.int64)
        rows[:] = base
        flat = rows.reshape(-1)
        row_starts = np.arange(0, rows.size, n)
        for t in range(pos.shape[1] - 1, len(lead) - 1, -1):
            rank, digit = np.divmod(rank, pos_rad[sub, t])
            p = pos[sub, t]
            flat[row_starts + column[p]] = table[p * width + digit]
        for p, d in zip(pos[0].tolist(), lead):
            rows[:, column[p]] = table[p * width + d]
        yield rows


def shell_pieces(
    radix: Sequence[int], radius: int, block: int
) -> Iterator[tuple[np.ndarray, tuple]]:
    """The ball's sub-grids in ball order, at most `block` points each.

    radix lists each movable coordinate's number of alternatives (>= 1);
    the numbers may differ.  A piece is (pos, lead): a (subsets, rho) array
    of changed positions (indices into radix, in lexicographic order), and
    the replacement digits fixed for their leading positions; its points
    run over the rows of pos, then over the remaining digits, each over its
    position's radix, the last position fastest.  Whole subsets are batched
    while their points fit a block; a subset of more points is split on its
    leading digits, iterated lazily.
    """
    yield np.zeros((1, 0), dtype=np.int64), ()
    # radices clipped at block + 1: a float product is exact up to block,
    # and one past float range (60 or more wide positions) saturates as inf
    clipped = np.minimum(np.array(radix, dtype=np.float64), block + 1)
    uniform = len(set(radix)) <= 1
    for rho in range(1, min(radius, len(radix)) + 1):
        subsets = combinations(range(len(radix)), rho)
        batch: list[tuple[int, ...]] = []
        while (more := list(islice(subsets, block))) or batch:
            batch += more
            pos = np.fromiter(chain.from_iterable(batch), np.int64, len(batch) * rho)
            pos = pos.reshape(len(batch), rho)
            # points per subset, saturated at block + 1; uniform radices
            # need no product, which keeps small shells cheap
            if uniform:
                counts = [min(radix[0] ** rho, block + 1)] * len(batch)
            else:
                counts = np.minimum(clipped[pos].prod(axis=1), block + 1)
                counts = counts.astype(np.int64).tolist()
            ends = [0, *accumulate(counts)]
            i = 0
            while i < len(batch):
                if ends[i + 1] - ends[i] <= block:
                    j = bisect_right(ends, ends[i] + block, i + 1) - 1
                    if j == len(batch) and ends[j] - ends[i] < block and len(more) == block:
                        break  # the piece may take subsets of the next batch
                    yield pos[i:j], ()
                    i = j
                    continue
                r = [radix[p] for p in batch[i]]
                lead, tail_points = rho, 1
                while lead and tail_points * r[lead - 1] <= block:
                    lead -= 1
                    tail_points *= r[lead]
                for digits in product(*map(range, r[:lead])):
                    yield pos[i : i + 1], digits
                i += 1
            del batch[:i]


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
