"""Seeded query corpora for the benchmark workloads, with brute-force references.

A corpus is a short list of CLI queries, one per *slot*.  A slot fixes the
shape of its instance (field, domain sizes, term counts, witness distance),
so the work a query does is the same for every seed; the seed picks the
field elements, coefficients and anchors.  Each query runs equally often,
so with seven slots the median of a run's query times falls mid-way
through one slot's samples, and the 90th percentile inside those of the
costliest slot.  On every workload the two costliest slots share one shape,
so the 90th percentile measures that shape whichever of the two the seed
makes the slower.

References come from `gridball.brute` (full-grid tensors), never from the
search code under test.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from gridball import brute
from gridball.domain import RectangularDomain, enumerate_ball, vol
from gridball.gf import FieldSpec, make_field, max_ratio_order, subgroup_of_order
from gridball.poly import SparsePoly


@dataclass
class Query:
    """One CLI call, and the brute-force scan that builds its reference.

    The reference has check(exit code, report) -> error message or None, and
    needed(report) -> ball points the search needs, or None for no search.
    """

    argv: list[str]
    reference: Callable[[], _GridRef | _ReduceRef]


def log_floor(bound: int, r: int) -> int:
    """Largest k with r^k <= bound * (r-1)^k, by exact integer comparison.

    A copy of the rule in gridball.tester, so that the corpus shapes do not
    move when the code under test changes.
    """
    k, rk, mk = 0, r, r - 1
    while rk <= bound * mk:
        k, rk, mk = k + 1, rk * r, mk * (r - 1)
    return k


def _nonzero(rng: random.Random, f: FieldSpec) -> int:
    return rng.randrange(1, f.q)


def _rand_poly(
    rng: random.Random, f: FieldSpec, n: int, terms: int, max_exps: list[int], low: int = 0
) -> SparsePoly:
    """Exactly `terms` monomials with exponent i drawn from [low, max_exps[i]].

    A variable with max_exps[i] = 0 is left out.  With low = 1 every term
    raises the same number of variables to a power, so evaluation costs the
    same whatever the seed.
    """
    out = {}
    while len(out) < terms:
        exps = tuple(rng.randint(min(low, m), m) for m in max_exps)
        out[exps] = f.element(_nonzero(rng, f))
    return SparsePoly(f, n, out)


def _linear(f: FieldSpec, n: int, i: int, a) -> SparsePoly:
    """X_i - a."""
    return SparsePoly.variable(f, n, i) - SparsePoly.constant(f, n, a)


def _rand_sets(rng: random.Random, f: FieldSpec, sizes: list[int]) -> list[list]:
    return [[f.element(i) for i in rng.sample(range(1, f.q), s)] for s in sizes]


class _Files:
    """Writes each query's input files into the corpus directory."""

    def __init__(self, root: str):
        self.root = root
        self.count = 0

    def argv(self, command: str, *extra: str, **inputs: dict) -> list[str]:
        """CLI arguments for one query; each input becomes --kind FILE."""
        argv = [command]
        for kind, data in inputs.items():
            path = os.path.join(self.root, f"q{self.count:02d}.{kind}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, sort_keys=True)
            argv += [f"--{kind}", path]
        self.count += 1
        return argv + list(extra)


class _GridRef:
    """Brute-force truth for a ball search: which grid points are hits.

    A hit is a nonzero of the polynomial, or a solution of the system.
    """

    def __init__(self, domain: RectangularDomain, hits: np.ndarray, anchor, hit: str, miss: str):
        self.domain = domain
        self.hits = hits
        self.hit, self.miss = hit, miss
        self.pos = [{x.index: j for j, x in enumerate(a)} for a in domain.sets]
        self.anchor_pos = np.array([self.pos[i][x.index] for i, x in enumerate(anchor)])
        self.anchor = tuple(anchor)
        found = np.argwhere(hits)
        self.min_distance = (
            None if found.shape[0] == 0 else int((found != self.anchor_pos).sum(axis=1).min())
        )

    def _positions(self, indices: list[int]) -> tuple[int, ...] | None:
        if len(indices) != len(self.pos):
            return None
        try:
            return tuple(self.pos[i][x] for i, x in enumerate(indices))
        except KeyError:
            return None

    def check(self, code: int, report: dict) -> str | None:
        """Verdict, witness and minimal distance against the full-grid scan."""
        hit, miss = self.hit, self.miss
        expected = miss if self.min_distance is None else hit
        if report.get("verdict") != expected:
            return f"verdict {report.get('verdict')!r}, brute force says {expected!r}"
        if code != (1 if expected == hit else 0):
            return f"exit code {code} does not match verdict {expected!r}"
        if expected == miss:
            return None
        pos = self._positions(report.get("witness") or [])
        if pos is None:
            return f"witness {report.get('witness')} is not a domain point"
        if not self.hits[pos]:
            return f"witness {report['witness']} is not a {hit}"
        distance = int((np.array(pos) != self.anchor_pos).sum())
        if report.get("distance") != distance or distance != self.min_distance:
            return (
                f"witness distance {distance} (reported {report.get('distance')}), "
                f"brute-force minimum {self.min_distance}"
            )
        return None

    def needed(self, report: dict) -> int:
        """Rank + 1 of the first hit in enumerate_ball order, else the ball volume."""
        count = 0
        for point in enumerate_ball(self.anchor, report["radius"], self.domain):
            count += 1
            if self.hits[tuple(self.pos[i][x.index] for i, x in enumerate(point))]:
                break
        return count


def _poly_ref(poly: SparsePoly, domain: RectangularDomain, anchor) -> _GridRef:
    return _GridRef(domain, brute.evaluate_on_grid(poly, domain) != 0, anchor, "witness", "vanishes")


def _system_ref(polys: list[SparsePoly], domain: RectangularDomain, anchor) -> _GridRef:
    hits = np.zeros(tuple(len(a) for a in domain.sets), dtype=bool)
    hits[tuple(brute.solution_positions(polys, domain).T)] = True
    return _GridRef(domain, hits, anchor, "solution", "no-solution")


# -- vanish-scan -------------------------------------------------------------

# (p, k, |S| or None for the order-3 subgroup, N, terms of g, ball volume)
_VANISH_SLOTS = [
    (3, 3, 4, 6, 15, 4**6),
    (5, 2, 4, 6, 15, 4**6),
    (3, 3, 4, 6, 5, 4**6),
    (5, 2, 4, 6, 5, 4**6),
    (5, 2, None, 10, 4, vol(3, 10, 5)),  # partial ball: r = 3, M = 8, radius 5
    (3, 3, 4, 8, 5, 4**8),
    (3, 3, 4, 8, 5, 4**8),
]


def _vanish_scan(rng: random.Random, files: _Files) -> list[Query]:
    queries = []
    for p, k, size, n, gterms, volume in _VANISH_SLOTS:
        f = make_field(p, k)
        m = 2 * gterms
        while True:
            s = (
                sorted(subgroup_of_order(f, 3), key=lambda x: x.index)
                if size is None
                else [f.element(i) for i in sorted(rng.sample(range(1, f.q), size))]
            )
            if vol(len(s), n, min(log_floor(m, max_ratio_order([s])), n)) == volume:
                break
        # g * (X_i^(q-1) - 1) vanishes on every nonzero point; g's exponents
        # stay below q-1, so the product has exactly 2 * |g| monomials
        g = _rand_poly(rng, f, n, gterms, [min(6, f.q - 2)] * n, low=1)
        i = rng.randrange(n)
        exps = tuple(f.q - 1 if j == i else 0 for j in range(n))
        poly = g * (SparsePoly.monomial(f, exps, f.one) - SparsePoly.one(f, n))
        domain = RectangularDomain.power(f, s, n)
        argv = files.argv("test-zero", poly=poly.to_json_dict(), domain=domain.to_json_dict())
        queries.append(Query(argv, partial(_poly_ref, poly, domain, (s[0],) * n)))
    return queries


# -- witness-near --------------------------------------------------------------

_WITNESS_SIZES = [4, 3, 5, 4, 3, 4, 5, 3]

# (k of GF(2^k), witness distance d or None for a vanishing query, log2 |h|,
#  which d coordinates carry the (X_i - a_i) factors).  The costliest slots,
#  where the 90th percentile falls, are 128-term scans over three chunks;
#  the GF(2^12) witness slot below them spends most of its time in radius
#  selection.
_WITNESS_SLOTS = [
    (8, 0, 2, "first"),
    (8, 2, 1, "first"),
    (8, 4, 3, "last"),
    (8, 4, 3, "last"),
    (8, None, 2, None),
    (12, 3, 1, "last"),
    (12, None, 2, None),
]


def _witness_near(rng: random.Random, files: _Files) -> list[Query]:
    queries = []
    n = len(_WITNESS_SIZES)
    for k, d, hbits, where in _WITNESS_SLOTS:
        f = make_field(2, k)
        if d is None:
            # every set is the order-3 subgroup and X_i^3 - 1 = prod (X_i - a)
            # over it: the polynomial vanishes, and only the ratio-order
            # radius (r = 3) applies
            sub = sorted(subgroup_of_order(f, 3), key=lambda x: x.index)
            sets = [sub] * n
            anchor = tuple(rng.choice(sub) for _ in range(n))
            i = rng.randrange(n)
            planted = SparsePoly.monomial(
                f, tuple(3 if j == i else 0 for j in range(n)), f.one
            ) - SparsePoly.one(f, n)
            free = list(range(n))
        else:
            # ratio order q-1 fixes the (unused, clamped) ratio-order radius
            # computation's length whatever the seed
            while True:
                sets = _rand_sets(rng, f, _WITNESS_SIZES)
                if max_ratio_order(sets) == f.q - 1:
                    break
            anchor = tuple(rng.choice(a) for a in sets)
            t = list(range(d)) if where == "first" else list(range(n - d, n))
            planted = SparsePoly.one(f, n)
            for i in t:
                planted = planted * _linear(f, n, i, anchor[i])
            free = [i for i in range(n) if i not in t]
        # h uses only the free coordinates with degrees below |A_i|, and is
        # nonzero at the anchor, so the nearest nonzero is at distance d
        max_exps = [len(sets[i]) - 1 if i in free else 0 for i in range(n)]
        while True:
            h = _rand_poly(rng, f, n, 2**hbits, max_exps, low=1)
            if h.evaluate(anchor).index != 0:
                break
        poly = planted * h.scalar_mul(f.element(_nonzero(rng, f)))
        domain = RectangularDomain(f, sets)
        argv = files.argv(
            "find-nonzero",
            "--anchor", ",".join(str(x.index) for x in anchor),
            poly=poly.to_json_dict(),
            domain=domain.to_json_dict(),
        )
        queries.append(Query(argv, partial(_poly_ref, poly, domain, anchor)))
    return queries


# -- solve-indicator -------------------------------------------------------------

# (p, k, polys, terms per poly, kind); solvable polys gain a constant term;
# zero-free domains are 3^8 grids whose ratio order is q-1, {0, a_i} domains
# have 10 coordinates
_SOLVE_SLOTS = [
    (7, 1, 2, 3, "solvable"),
    (7, 1, 3, 3, "unsolvable"),
    (13, 1, 2, 3, "solvable"),
    (2, 6, 3, 3, "unsolvable"),
    (2, 6, 3, 3, "unsolvable"),
    (7, 1, 3, 3, "zero-domain"),
    (2, 6, 2, 3, "zero-domain"),
]


def _solve_indicator(rng: random.Random, files: _Files) -> list[Query]:
    queries = []
    for p, k, npolys, terms, kind in _SOLVE_SLOTS:
        f = make_field(p, k)
        if kind == "zero-domain":
            n = 10
            anchor = tuple(f.element(_nonzero(rng, f)) for _ in range(n))
            sets = [[f.zero, a] for a in anchor]
            # no constant terms, so the origin solves the system
            polys = []
            while len(polys) < npolys:
                g = _rand_poly(rng, f, n, terms, [2] * n)
                if (0,) * n not in g.terms:
                    polys.append(g)
        else:
            n = 8
            while True:
                sets = _rand_sets(rng, f, [3] * n)
                if max_ratio_order(sets) == f.q - 1:
                    break
            anchor = tuple(rng.choice(a) for a in sets)
            if kind == "solvable":
                # h - h(z) with h free of constants and h(z) != 0 has exactly
                # terms + 1 monomials and vanishes at z, 3 steps from the anchor
                z = list(anchor)
                for i in rng.sample(range(n), 3):
                    z[i] = rng.choice([x for x in sets[i] if x != anchor[i]])
                polys = []
                while len(polys) < npolys:
                    h = _rand_poly(rng, f, n, terms, [3] * n, low=1)
                    if h.evaluate(z).index != 0:
                        polys.append(h - SparsePoly.constant(f, n, h.evaluate(z)))
            else:
                polys = [_rand_poly(rng, f, n, terms, [3] * n, low=1) for _ in range(npolys)]
                # X_1 - b with b outside A_1 has no zero on the domain
                b = rng.choice([i for i in range(1, f.q) if f.element(i) not in sets[0]])
                polys[0] = _linear(f, n, 0, f.element(b))
        domain = RectangularDomain(f, sets)
        system = {
            "field": f.name,
            "polys": [g.to_json_dict() for g in polys],
            "domain": domain.to_json_dict(),
            "anchor": [x.index for x in anchor],
        }
        argv = files.argv("solve-system", system=system)
        queries.append(Query(argv, partial(_system_ref, polys, domain, anchor)))
    return queries


# -- reduce-normal-form ------------------------------------------------------------

# (p, k, coordinate set sizes, terms, largest exponent)
_REDUCE_SLOTS = [
    (7, 1, [3, 5, 2, 4], 6, 2000),
    (11, 1, [4, 2, 6, 3, 5], 5, 5000),
    (3, 2, [3, 4, 2, 5], 6, 8000),
    (7, 1, [2, 3, 4, 5, 3, 2], 4, 10000),
    (11, 1, [5, 3, 4, 2], 6, 12000),
    (7, 1, [4, 3, 5, 2, 3, 2], 6, 20000),
    (7, 1, [4, 3, 5, 2, 3, 2], 6, 20000),
]


class _ReduceRef:
    """The input's values on the grid; a normal form must match them."""

    def __init__(self, poly: SparsePoly, domain: RectangularDomain):
        self.domain = domain
        self.values = brute.evaluate_on_grid(poly, domain)

    def needed(self, report: dict) -> None:
        return None

    def check(self, code: int, report: dict) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            out = SparsePoly.from_json_dict(report["reduced"]["poly"])
        except (KeyError, TypeError, ValueError) as exc:
            return f"unreadable reduced polynomial: {exc}"
        for i, a in enumerate(self.domain.sets):
            if out.nvars != self.domain.nvars or out.degree_in_variable(i) >= len(a):
                return f"degree in X_{i + 1} is not below |A_{i + 1}| = {len(a)}"
        if not np.array_equal(brute.evaluate_on_grid(out, self.domain), self.values):
            return "reduced polynomial disagrees with the input on the domain"
        return None


def _reduce_normal_form(rng: random.Random, files: _Files) -> list[Query]:
    queries = []
    for p, k, sizes, terms, emax in _REDUCE_SLOTS:
        f = make_field(p, k)
        n = len(sizes)
        domain = RectangularDomain(f, _rand_sets(rng, f, sizes))
        # X_i reaches exponent emax in term i mod terms, so every slot builds
        # power caches of the same length whatever the seed
        rows = [[rng.randint(0, emax) for _ in range(n)] for _ in range(terms)]
        for i in range(n):
            rows[i % terms][i] = emax
        poly = SparsePoly(f, n, {tuple(e): f.element(_nonzero(rng, f)) for e in rows})
        argv = files.argv("reduce", poly=poly.to_json_dict(), domain=domain.to_json_dict())
        queries.append(Query(argv, partial(_ReduceRef, poly, domain)))
    return queries


# every field a workload's queries are parsed in; setup_s builds these cold
FIELDS = {
    "vanish-scan": sorted({(p, k) for p, k, *_ in _VANISH_SLOTS}),
    "witness-near": sorted({(2, k) for k, *_ in _WITNESS_SLOTS}),
    "solve-indicator": sorted({(p, k) for p, k, *_ in _SOLVE_SLOTS}),
    "reduce-normal-form": sorted({(p, k) for p, k, *_ in _REDUCE_SLOTS}),
}

_BUILDERS = {
    "vanish-scan": _vanish_scan,
    "witness-near": _witness_near,
    "solve-indicator": _solve_indicator,
    "reduce-normal-form": _reduce_normal_form,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, root: str) -> list[Query]:
    """Write the workload's input files under root and return its queries."""
    os.makedirs(root, exist_ok=True)
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"), _Files(root))
