"""Query loop of one benchmark run, in a process of its own.

Usage: python3 worker.py SPEC.json RESULT.json, with gridball importable.

One client, closed loop: each query is one in-process call to
gridball.cli.main, made only after the previous one returned.  The corpus is
run in whole passes, first once untimed (warm-up, and the reference bytes
for the determinism check), then timed until both the time budget and the
minimum query count are reached.  Every call's exit code and stdout are kept
per query, as distinct outputs with counts, so every pass is also a
determinism check: the parent process fails any call whose bytes differ from
the query's first.

Each pass runs on one CPU, the next pass on the next of the CPUs the
process may use (with tracing on, each plain pass and the traced pass after
it).  Within a pass the reference kernel (speed.py) runs before each query
and after the last, on the same CPU; the fastest of those runs is the pass's
kernel time, by which the parent process scales the pass's query times.

Between passes, at even steps of the time budget, the set-up probe
(probe.py) runs SETUP_PROBES times in fresh processes, free to run on any
CPU, with the reference kernel timed just before and after it, so that set-up is
sampled across the whole run rather than in one burst.  Probe time is not
counted against the budget.

With tracing on, timed passes alternate between the plain program and the
traced one, and the layer kernel sweep follows.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from time import perf_counter

import gridball.cli as cli
from gridball.gf import make_field

import kernels
import speed
import tracer

PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 30
PROBE_KERNEL_RUNS = 3


class Runs:
    """Distinct (exit code, stdout) outputs of each query, with counts."""

    def __init__(self, n: int):
        self.outputs: list[dict[tuple, int]] = [{} for _ in range(n)]
        self.attempted = 0

    def call(self, i: int, argv: list[str]) -> float:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed query, reported, not fatal
                code, out = None, io.StringIO(traceback.format_exc())
            elapsed = perf_counter() - start
        key = (code, out.getvalue())
        self.outputs[i][key] = self.outputs[i].get(key, 0) + 1
        self.attempted += 1
        return elapsed

    def to_json(self) -> list[list[dict]]:
        return [
            [{"code": c, "text": t, "count": n} for (c, t), n in outs.items()]
            for outs in self.outputs
        ]


def _kernel_s(runs: int) -> float:
    return min(speed.kernel_s() for _ in range(runs))


def _probe(fields: list[list[int]]) -> dict:
    """One set-up probe, with the fastest reference kernel run around it."""
    before = _kernel_s(PROBE_KERNEL_RUNS)
    done = subprocess.run(
        [sys.executable, PROBE, *(f"{p}^{k}" for p, k in fields)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    probe = json.loads(done.stdout)
    probe["kernel_s"] = min(before, _kernel_s(PROBE_KERNEL_RUNS))
    return probe


def _pass(runs: Runs, argvs: list[list[str]]) -> tuple[list[float], float]:
    """Each query's seconds in one pass over the corpus, and the pass's
    kernel time: the fastest reference kernel run before each query and
    after the last."""
    times, kernel = [], [speed.kernel_s()]
    for i, argv in enumerate(argvs):
        times.append(runs.call(i, argv))
        kernel.append(speed.kernel_s())
    return times, min(kernel)


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    argvs, seconds = spec["argv"], spec["seconds"]
    for p, k in spec["fields"]:
        make_field(p, k)
    runs = Runs(len(argvs))
    for i, argv in enumerate(argvs):
        runs.call(i, argv)

    # per pass, each query's seconds, in corpus order, and the kernel time
    times: list[list[float]] = []
    traced_times: list[list[float]] = []
    kernel: list[float] = []
    traced_kernel: list[float] = []
    probes: list[dict] = []
    trace = tracer.Tracer() if spec["trace"] else None
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    query_s = 0.0
    while (
        query_s < seconds
        or len(times) * len(argvs) < spec["min_queries"]
        or (trace is not None and (len(traced_times) < 2 or len(traced_times) < len(times)))
        or len(probes) < SETUP_PROBES
    ):
        if cpus:
            # a plain pass and the traced pass after it share a CPU
            turn = len(traced_times) if trace is not None else len(times)
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        if trace is not None and len(traced_times) < len(times):
            with tracer.patched(trace):
                pass_times, pass_kernel = _pass(runs, argvs)
            traced_times.append(pass_times)
            traced_kernel.append(pass_kernel)
        else:
            pass_times, pass_kernel = _pass(runs, argvs)
            times.append(pass_times)
            kernel.append(pass_kernel)
        query_s += sum(pass_times)
        if len(probes) < SETUP_PROBES and query_s >= len(probes) * seconds / SETUP_PROBES:
            if cpus:
                # a probe is a fresh process, free to run on any CPU (pinned
                # to one, numpy's import starts fewer threads and runs faster
                # than a user's would)
                os.sched_setaffinity(0, set(cpus))
            probes.append(_probe(spec["fields"]))
    if cpus:
        os.sched_setaffinity(0, set(cpus))

    result = {
        "times": times,
        "kernel_s": kernel,
        "probes": probes,
        "attempted": runs.attempted,
        "outputs": runs.to_json(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace is not None:
        result.update(
            traced_times=traced_times,
            traced_kernel_s=traced_kernel,
            span_s=trace.time,
            self_s=trace.self_time,
            counts=trace.count,
            kernels=kernels.sweep(spec["seed"]),
        )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
