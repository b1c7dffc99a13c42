"""Layer kernel sweep: fixed-size calls into single layers, outside the CLI.

Each kernel is timed over repeated calls and reported as the median per-call
time divided by the work it did, in nanoseconds.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import numpy as np

from gridball.domain import RectangularDomain
from gridball.gf import make_field
from gridball.poly import SparsePoly
from gridball.tester import radius_general

import corpus

_MIN_SECONDS = 0.2
_MIN_CALLS = 5


def _median_call_s(fn) -> float:
    times = []
    start = perf_counter()
    while len(times) < _MIN_CALLS or perf_counter() - start < _MIN_SECONDS:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def sweep(seed: int) -> dict[str, float]:
    rng = random.Random(f"kernels/{seed}")
    gen = np.random.default_rng(rng.randrange(2**32))
    out = {}

    # vec_add: p = 2 loops over k base-2 digits where XOR would do; odd p, k > 1
    for name, (p, k) in (("p2k8", (2, 8)), ("p3k3", (3, 3))):
        f = make_field(p, k)
        a, b = gen.integers(0, f.q, size=(2, 1 << 16))
        out[f"kernel.vec_add.{name}.ns_per_elem"] = _median_call_s(lambda: f.vec_add(a, b)) / a.size * 1e9

    # evaluate_many on an index array, so no point conversion is included
    f = make_field(3, 3)
    points = gen.integers(1, f.q, size=(4096, 8))
    for terms in (2, 30, 300):
        p = corpus._rand_poly(rng, f, 8, terms, [f.q - 2] * 8)
        per_call = _median_call_s(lambda: p.evaluate_many(points))
        out[f"kernel.evaluate_many.t{terms}.ns_per_term_point"] = per_call / (terms * len(points)) * 1e9

    # radius_general at the m_hat of a 2-poly, 3-term system over GF(2^6)
    # (r = 63); per loop step, each on integers of growing size
    m_hat = (1 + 3**63) ** 2
    steps = radius_general(m_hat, 63)
    out["kernel.radius_general.ns_per_elem"] = _median_call_s(lambda: radius_general(m_hat, 63)) / steps * 1e9

    # reduce_mod_domain: per cached power X^e, e up to 5000 in each variable
    f = make_field(7)
    sizes = [3, 5, 2, 4]
    domain = RectangularDomain(
        f, [[f.element(i) for i in rng.sample(range(1, f.q), s)] for s in sizes]
    )
    emax = 5000
    poly = SparsePoly(
        f, 4, {tuple(emax if j == i else rng.randint(0, emax) for j in range(4)): f.one for i in range(4)}
    )
    out["kernel.reduce_mod_domain.ns_per_elem"] = (
        _median_call_s(lambda: poly.reduce_mod_domain(domain)) / (emax * len(sizes)) * 1e9
    )
    return out
