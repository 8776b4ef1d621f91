"""Benchmark of the rdflb CLI: run one workload, check its outputs, print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Every repetition runs in a fresh interpreter (``worker.py``), one at a time,
with ``--jobs 1`` on every curve call and one thread for the BLAS and
OpenMP pools.

``--trace 0`` measures for ``--seconds``: first ``SETUP_SAMPLES`` import-only
interpreters, then as many whole repetitions of the workload as fit (at
least one).  It reports ``wall_s`` (the median repetition) and ``setup_s``
(the median over every interpreter started), both in seconds at the
reference CPU speed of ``speed.py``, the median ``peak_rss_mb``, then
``fail_frac`` and ``bound_gap_rel``.  The report also prints the medians
of the plain wall times.

``--trace 1`` runs one untraced and one traced repetition and reports the
per-layer metrics of the traced one (see ``tracing.py``), with
``trace.overhead_s`` = traced ``wall_s`` - untraced ``wall_s``.

Both modes check every output (see ``checks.py``), print each failed check
by name, and end with one JSON line: ``correct``, ``attempted``,
``failed``, ``metrics``.  ``--smoke`` runs every workload at a tiny size and
skips the recorded reference table, which holds full-size values only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import KNOWN_DEFECTS, Checks, check_rep
from tracing import layer_metrics, metric_units
from workloads import WORKLOAD_NAMES, steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 12
# the whole run has to end within 180 s
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
    "bound_gap_rel": "ratio",
}


class Runner:
    """Starts worker interpreters for one workload, each in its own output directory."""

    def __init__(self, workload: str, deadline: float):
        self.work = HERE / ".work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.deadline = deadline
        self.count = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def spawn(self, work_steps: list[dict] | None, trace: bool = False) -> tuple[Path, dict]:
        """Run one worker to completion; ``work_steps=None`` only times the import."""
        rep_dir = self.work / f"rep{self.count}"
        self.count += 1
        rep_dir.mkdir()
        spec = rep_dir / "spec.json"
        spec.write_text(json.dumps({"steps": work_steps, "trace": trace}), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec)],
            cwd=rep_dir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(self.deadline - time.monotonic(), 1.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        return rep_dir, json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))


def _timed(runner: Runner, work_steps: list[dict], seconds: float) -> tuple[list, dict]:
    begin = time.monotonic()
    setup = [runner.spawn(None)[1] for _ in range(SETUP_SAMPLES)]
    reps: list[tuple[Path, dict]] = []
    last = 0.0
    # a repetition starts only if it should end within `seconds`; the first always runs
    while not reps or time.monotonic() - begin + last <= seconds:
        t = time.monotonic()
        reps.append(runner.spawn(work_steps))
        last = time.monotonic() - t
    setup += [res for _, res in reps]
    metrics = {
        "wall_s": statistics.median(res["wall_s"] for _, res in reps),
        "setup_s": statistics.median(res["setup_s"] for res in setup),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for _, res in reps),
        # reported, not emitted: the same medians in plain wall time
        "plain wall_s": statistics.median(res["wall_raw_s"] for _, res in reps),
        "plain setup_s": statistics.median(res["setup_raw_s"] for res in setup),
    }
    return reps, metrics


def _traced(runner: Runner, work_steps: list[dict]) -> tuple[list, dict]:
    base = runner.spawn(work_steps)
    traced = runner.spawn(work_steps, trace=True)
    metrics = layer_metrics(traced[0] / traced[1]["spans"])
    metrics["trace.overhead_s"] = traced[1]["wall_s"] - base[1]["wall_s"]
    return [base, traced], metrics


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run the workload, print the report and return the result object."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    reference = None
    if not smoke:
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)[workload]
    runner = Runner(workload, deadline)
    work_steps = steps(workload, seed, smoke)
    runner.spawn(None)  # warm-up: writes bytecode caches and fills the page cache
    reps, metrics = _traced(runner, work_steps) if trace else _timed(runner, work_steps, seconds)

    checks = Checks()
    gaps = [check_rep(checks, rep_dir, res["outputs"], reference) for rep_dir, res in reps]
    failures = checks.failures()
    units = metric_units() if trace else END_TO_END_UNITS
    if not trace:
        metrics["fail_frac"] = checks.fail_frac
        metrics["bound_gap_rel"] = statistics.fmean(gaps[0])

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  repetitions {len(reps)}")
    for name, unit in units.items():
        print(f"  {name:<52} {metrics[name]:>14.6g} {unit}")
    for name in ("plain wall_s", "plain setup_s"):
        if name in metrics:
            print(f"  {name:<52} {metrics[name]:>14.6g} s")
    print(f"  checks: {len(failures)} failed of {checks.attempted} attempted"
          + ("" if trace else "; fail_frac = (failed + 1) / (attempted + 1)"))
    for name, detail in failures.items():
        known = f" [known defect: {KNOWN_DEFECTS[name][0]}]" if checks.known(name) else ""
        print(f"  FAIL {name} -- {detail}{known}")
    return {
        "correct": all(checks.known(name) for name in failures),
        "attempted": checks.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, no reference table")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rdflb" / "__init__.py").is_file():
        print(f"error: no rdflb package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
