"""Record one point of the BENCH trajectory: every workload over several seeds.

Usage, from the root of a gridball checkout:

    python3 perfbench/record.py --label NAME

Runs perfbench/run.py on each workload in BENCHMARK.json with seeds
1 .. SEEDS (trace off), then once more with seed 1 and the trace on, and
writes perfbench/results/BENCH_<label>.json.  For each end-to-end metric it
stores the values, their median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, which
must stay within the metric's bound for the benchmark to be steady.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 900
SEEDS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    wall = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return info, result, wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"label": args.label, "run_seconds": bench["run_seconds"], "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in range(1, SEEDS + 1):
            info, result, wall = _run(w, seed, bench["run_seconds"], 0)
            out["env"] = info["env"]
            runs.append({
                "seed": seed, "wall_s": wall, "timed_queries": info["timed_queries"],
                "wall_query_s_p50_p90": info["wall_query_s_p50_p90"],
                "kernel_s_median": info["kernel_s_median"],
                "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"],
            })
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "values": vals,
            }
            print(f"{w:20s} {name:16s} median {med:.6g}  spread {spread:.4f}  bound {bounds[name]}",
                  file=sys.stderr)
        _, traced, wall = _run(w, 1, bench["run_seconds"], 1)
        runs.append({"seed": 1, "trace": 1, "wall_s": wall,
                     "correct": traced["correct"], "failed": traced["failed"]})
        out["workloads"][w] = {
            "end_to_end": summary,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "runs": runs,
        }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
