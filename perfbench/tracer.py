"""Per-layer spans recorded from outside the program.

The public functions of each layer are wrapped where their callers look
them up, for the length of a `patched()` block; outside it the program runs
unmodified.  Each wrapped call is a span: its time goes to the span's name,
and is subtracted from the enclosing span's self time.  Everything runs in
one thread, so a plain stack gives the nesting.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from itertools import islice
from time import perf_counter

import gridball.cli as cli
import gridball.solver as solver
import gridball.tester as tester
from gridball.gf import FieldSpec
from gridball.poly import SparsePoly

# ball points fetched per enumerate_ball span; at most this many minus one
# points are enumerated ahead of an early exit
_BLOCK = 64


class Tracer:
    def __init__(self):
        self.time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span name, seconds spent in child spans]

    def _enter(self, name: str) -> float:
        self._stack.append([name, 0.0])
        return perf_counter()

    def _exit(self, start: float) -> None:
        dt = perf_counter() - start
        name, child = self._stack.pop()
        self.time[name] += dt
        self.self_time[name] += dt - child
        if self._stack:
            self._stack[-1][1] += dt

    def wrap(self, name, fn, tally=None):
        """fn as a span; tally(count, parent span, args, result) adds counts."""

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            start = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(start)
            self.count[name + ".calls"] += 1
            if tally is not None:
                tally(self.count, parent, args, out)
            return out

        return traced

    def wrap_generator(self, name, fn):
        """A generator function whose next() calls are spans, in blocks."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            consumed = 0
            try:
                while True:
                    start = self._enter(name)
                    try:
                        block = list(islice(it, _BLOCK))
                    finally:
                        self._exit(start)
                    for point in block:
                        consumed += 1
                        yield point
                    if len(block) < _BLOCK:
                        return
            finally:
                self.count[name + ".points"] += consumed

        return traced


def _tally_size(name):
    def tally(count, parent, args, out):
        count[name + ".elems"] += out.size

    return tally


def _tally_evaluate_many(count, parent, args, out):
    count["poly.evaluate_many.points"] += out.size
    count["poly.evaluate_many.term_points"] += out.size * len(args[0].terms)
    if parent == "solver.indicator":
        count["solver.indicator.poly_points"] += out.size


def _tally_reduce(count, parent, args, out):
    count["poly.reduce_mod_domain.terms_in"] += len(args[0].terms)
    count["poly.reduce_mod_domain.terms_out"] += len(out.terms)


def _tally_indicator(count, parent, args, out):
    count["solver.indicator.points"] += len(args[1])


@contextmanager
def patched(tracer: Tracer):
    """Route every layer call through the tracer while the block runs."""
    from_json = vars(SparsePoly)["from_json_dict"]
    plain = [
        (FieldSpec, "vec_add", "gf.vec_add", _tally_size("gf.vec_add")),
        (FieldSpec, "vec_mul", "gf.vec_mul", _tally_size("gf.vec_mul")),
        (FieldSpec, "vec_pow", "gf.vec_pow", _tally_size("gf.vec_pow")),
        (SparsePoly, "evaluate_many", "poly.evaluate_many", _tally_evaluate_many),
        (SparsePoly, "reduce_mod_domain", "poly.reduce_mod_domain", _tally_reduce),
        (tester, "select_radius", "tester.select_radius", None),
        (tester, "radius_general", "tester.radius_general", None),
        (solver, "radius_general", "tester.radius_general", None),
        (cli, "radius_general", "tester.radius_general", None),
        (cli, "test_zero_on_power_domain", "tester.search", None),
        (cli, "find_nonzero_near", "tester.search", None),
        (cli, "solve_near", "solver.solve", None),
        (cli, "solve_near_zero_domain", "solver.solve", None),
        (solver, "system_radius", "solver.system_radius", None),
        (solver, "_indicator_many", "solver.indicator", _tally_indicator),
        (cli, "main", "cli", None),
    ]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in plain]
    saved.append((tester, "enumerate_ball", tester.enumerate_ball))
    saved.append((SparsePoly, "from_json_dict", from_json))
    try:
        for owner, attr, name, tally in plain:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), tally))
        tester.enumerate_ball = tracer.wrap_generator("domain.enumerate_ball", tester.enumerate_ball)
        SparsePoly.from_json_dict = classmethod(tracer.wrap("poly.from_json_dict", from_json.__func__))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
