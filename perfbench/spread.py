"""Run the benchmark over several seeds; print each metric's median and spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--baseline FILE]

For each workload of BENCHMARK.json, one after another, it runs ``run.py``
with seeds 1..RUNS and ``run_seconds`` from BENCHMARK.json, then one traced
run.  The spread of a metric is (Q3 - Q1) / median of its values, with
``statistics.quantiles(values, n=4)``.  The table shows every end-to-end
metric with its bound and whether the spread is below a third of it, and
names every failing check.  ``--baseline`` also writes all of it, the
per-layer values of the traced run and the python, numpy and scipy
versions to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), [ln.split()[1] for ln in lines if ln.strip().startswith("FAIL ")]


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--baseline", type=Path, help="write the results to this JSON file")
    args = parser.parse_args()

    out = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "runs": RUNS,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        results, failing = [], set()
        for seed in range(1, RUNS + 1):
            res, fails = _run(workload, seed, bench["run_seconds"], 0)
            results.append(res)
            failing.update(fails)
        entry = {
            "attempted": results[0]["attempted"],
            "failed": results[0]["failed"],
            "correct": all(r["correct"] for r in results),
            "failing_checks": sorted(failing),
            "end_to_end": {},
            "per_layer": {},
        }
        print(f"{workload}: {RUNS} runs, failed {entry['failed']} of {entry['attempted']} checks "
              f"{entry['failing_checks']}")
        for m in bench["end_to_end"]:
            st = _stats([r["metrics"][m["name"]]["value"] for r in results])
            entry["end_to_end"][m["name"]] = st
            ok = "ok" if st["spread"] < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:<16} median {st['median']:<12.6g} {m['unit']:<6} spread {st['spread']:.4f}"
                  f"  bound {m['bound']}  {ok}")
        res, _ = _run(workload, 1, bench["run_seconds"], 1)
        entry["per_layer"] = {name: metric["value"] for name, metric in res["metrics"].items()}
        print(f"  traced run: trace.overhead_s {entry['per_layer']['trace.overhead_s']}")
        out["workloads"][workload] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
