"""Time-to-verdict benchmark for the gridball CLI.

Usage, from the root of a gridball checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists): vanish-scan (test-zero),
witness-near (find-nonzero), solve-indicator (solve-system) and
reduce-normal-form (reduce).  A run

1. writes the workload's seeded corpus of input files under .bench_build/,
   and builds every reference answer with gridball.brute before timing;
2. runs the queries in a worker process (see worker.py): one client, one
   query at a time, each an in-process call to gridball.cli.main, in whole
   passes over the corpus;
3. measures set-up (cold `import gridball` plus cold make_field of the
   workload's fields) in fresh processes spread through the run, and takes
   the median;
4. checks every report against its reference, and that repeated runs of a
   query print the same bytes.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the query loop alternates plain and traced passes and the metrics
are the per-layer ones (tracer.py), plus the layer kernel sweep
(kernels.py).  The line before it records the machine, the environment and
the number of timed queries behind the percentiles.

End-to-end metrics: query_s_p50 and query_s_p90 (per cli.main call),
queries_per_s, setup_s, peak_rss_mb of the worker, and ok_frac, the share
of calls that passed every check (1 - failed / attempted; a metric that
reads 0 on a correct program cannot carry a relative bound).  Billed
evaluations per query are the per-layer tester.evaluations, since
reduce-normal-form bills none.

Every time is scaled to a fixed machine speed (speed.py): a call's wall
time times REFERENCE_S over the reference kernel's time in the same pass on
the same CPU, and a set-up probe's by the kernel timed around it.  On a
shared host a core's speed swings by up to 1.5x for tens of seconds, with
other tenants' load; the scaling cancels most of that, while a change to
gridball's own cost moves the figures as it moves the wall times.  The info line before the result gives
the unscaled wall-time percentiles and the median kernel time.

Each query runs once per pass, and its time is the median of its scaled
runs.  query_s_p50 and query_s_p90 are the percentiles over all timed calls,
each call counted at its query's time; queries_per_s is the number of
queries over the sum of their times.

Per-layer `.s` values and counts are means per traced call; tester.* ratios
are over the corpus's search queries.

Exit status 0 when the run completed (failed queries are reported, not
hidden); 2 outside a gridball checkout; 1 when a step of the benchmark
itself failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(".bench_build", "perfbench")
MIN_QUERIES = 100  # so that at least ten samples lie beyond the 90th percentile
WORKER_TIMEOUT_S = 150

SEARCH_COMMANDS = ("test-zero", "find-nonzero", "solve-system")


def _commit(root: str) -> str:
    """HEAD of the checkout's git directory, read without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(root),
        "platform": platform.platform(),
    }


def _run_python(args: list[str], env: dict, timeout: float) -> str:
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )
    if done.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout


def _query_s(passes: list[list[float]], kernel: list[float]) -> list[float]:
    """Each query's median time over the passes, each pass scaled by its
    reference kernel time."""
    return [
        statistics.median(speed.scaled(t, k) for t, k in zip(column, kernel))
        for column in zip(*passes)
    ]


def _setup_s(probes: list[dict], *keys: str) -> float:
    """Median over the probes of the summed set-up times, scaled like the
    queries."""
    return statistics.median(
        speed.scaled(sum(p[k] for k in keys), p["kernel_s"]) for p in probes
    )


def _percentiles(per_query: list[float], passes: int) -> tuple[float, float]:
    """Median and 90th percentile over all timed calls, each call counted at
    its query's time."""
    calls = per_query * passes
    return statistics.median(calls), statistics.quantiles(calls, n=10)[8]


def _failures(result: dict, refs: list) -> tuple[int, list[str], list[dict | None]]:
    """Failed calls, their messages, and each query's report if it passed.

    A call fails when it raised, printed no readable report, disagrees with
    the reference, or printed other bytes than the query's first call.
    """
    failed, messages, reports = 0, [], []
    for i, (outputs, ref) in enumerate(zip(result["outputs"], refs)):
        report = None
        for j, out in enumerate(outputs):
            error = None
            if j > 0:
                error = "report bytes differ from the query's first run"
            elif out["code"] is None:
                error = "raised: " + out["text"].strip().splitlines()[-1]
            else:
                try:
                    report = json.loads(out["text"])
                except json.JSONDecodeError:
                    error = f"no JSON report (exit code {out['code']})"
                else:
                    error = ref.check(out["code"], report)
            if error is not None:
                failed += out["count"]
                messages.append(f"query {i}: {error}")
                if j == 0:
                    report = None
        reports.append(report)
    return failed, messages, reports


def _end_to_end(result: dict, failed: int) -> dict:
    query_s = _query_s(result["times"], result["kernel_s"])
    p50, p90 = _percentiles(query_s, len(result["times"]))
    return {
        "query_s_p50": (p50, "s"),
        "query_s_p90": (p90, "s"),
        "queries_per_s": (len(query_s) / sum(query_s), "1/s"),
        "setup_s": (_setup_s(result["probes"], "import_s", "make_field_s"), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_frac": (1 - failed / result["attempted"], "ratio"),
    }


def _per_layer(result: dict, reference_s: float, argvs: list, refs: list, reports: list) -> dict:
    n = len(result["traced_times"]) * len(argvs)
    span, self_s, count = result["span_s"], result["self_s"], result["counts"]

    def per_query(table: dict, key: str) -> float:
        return table.get(key, 0.0) / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    # evaluations billed and needed, over the corpus's search queries (each
    # runs once per pass, so this is also the mean over traced calls)
    billed = needed = searches = 0
    for argv, ref, report in zip(argvs, refs, reports):
        if argv[0] in SEARCH_COMMANDS and report is not None:
            searches += 1
            billed += report["evaluations"]
            needed += ref.needed(report)

    m = {
        "gf.make_field.s": (_setup_s(result["probes"], "make_field_s"), "s"),
        "brute.reference_s": (reference_s, "s"),
        "trace.overhead_frac": (
            sum(_query_s(result["traced_times"], result["traced_kernel_s"]))
            / sum(_query_s(result["times"], result["kernel_s"])) - 1,
            "ratio",
        ),
        "cli.self_s": (per_query(self_s, "cli"), "s"),
        "poly.evaluate_many.self_s": (per_query(self_s, "poly.evaluate_many"), "s"),
        "tester.evaluations": (ratio(billed, searches), "count"),
        "tester.needed_points": (ratio(needed, searches), "count"),
        "tester.useful_frac": (ratio(needed, billed), "ratio"),
        "solver.indicator.polys_per_point": (
            ratio(count.get("solver.indicator.poly_points", 0), count.get("solver.indicator.points", 0)),
            "ratio",
        ),
    }
    for name in (
        "gf.vec_add", "gf.vec_mul", "gf.vec_pow", "domain.enumerate_ball",
        "poly.evaluate_many", "poly.reduce_mod_domain", "poly.from_json_dict",
        "tester.select_radius", "tester.radius_general", "tester.search",
        "solver.solve", "solver.system_radius", "solver.indicator",
    ):
        m[name + ".s"] = (per_query(span, name), "s")
    for key in (
        "gf.vec_add.elems", "gf.vec_mul.elems", "gf.vec_pow.elems",
        "domain.enumerate_ball.points", "poly.evaluate_many.calls",
        "poly.evaluate_many.points", "poly.evaluate_many.term_points",
        "poly.reduce_mod_domain.terms_in", "poly.reduce_mod_domain.terms_out",
        "tester.radius_general.calls", "solver.indicator.points",
    ):
        m[key] = (per_query(count, key), "count")
    for key, value in result["kernels"].items():
        m[key] = (value, "ns")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM ends the run as an exception does: subprocess.run kills the
    # worker and waits for it, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gridball", "cli.py")):
        print("error: run from the root of a gridball checkout (no src/gridball)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import corpus

    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {corpus.WORKLOADS}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    work = os.path.join(root, WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        queries = corpus.build(args.workload, args.seed, work)
        start = perf_counter()
        refs = [q.reference() for q in queries]
        reference_s = perf_counter() - start

        spec_path = os.path.join(work, "spec.json")
        result_path = os.path.join(work, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "argv": [q.argv for q in queries],
                    "fields": corpus.FIELDS[args.workload],
                    "seconds": args.seconds,
                    "min_queries": 0 if args.trace else MIN_QUERIES,
                    "seed": args.seed,
                    "trace": bool(args.trace),
                },
                fh,
            )
        _run_python([os.path.join(HERE, "worker.py"), spec_path, result_path], env, WORKER_TIMEOUT_S)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: benchmark step failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, messages, reports = _failures(result, refs)
    for line in messages[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        metrics = _per_layer(result, reference_s, [q.argv for q in queries], refs, reports)
    else:
        metrics = _end_to_end(result, failed)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "timed_queries": sum(map(len, result["times"])),
        "traced_queries": sum(map(len, result.get("traced_times", []))),
        "setup_probes": len(result["probes"]),
        "wall_query_s_p50_p90": _percentiles(
            [statistics.median(c) for c in zip(*result["times"])], len(result["times"])
        ),
        "kernel_s_median": statistics.median(result["kernel_s"]),
        "env": environment(root),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
