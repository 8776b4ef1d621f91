"""One repetition of a workload, in a fresh interpreter.

Usage: ``python3 worker.py SPEC.json`` with the working directory set to
the repetition's output directory.  The spec holds ``steps`` (from
``workloads.steps``, or null to time the import only) and ``trace``.
The worker writes ``result.json`` next to its outputs:

* ``setup_s``: time to import rdflb and its CLI, numpy and scipy included,
  in seconds at the reference CPU speed (``speed.py``); ``setup_raw_s``
  is the plain wall time;
* ``wall_s``: from the first step to the last output written, at the
  reference speed; ``wall_raw_s`` is the plain wall time;
* ``peak_rss_mb``: peak resident memory of this process;
* ``outputs``: per step, the exit code and captured output, or the
  cross-route bound value;
* with ``trace``, the span file written by ``tracing.Recorder``.
"""

import contextlib
import io
import json
import resource
import sys
import traceback

from speed import SpeedSampler


def _run_step(step, cli, gauss) -> dict:
    out = {"name": step["name"], "kind": step["kind"], "argv": step.get("argv")}
    try:
        if step["kind"] == "cli":
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    out["exit"] = cli.main(step["argv"])
                except SystemExit as exc:
                    out["exit"] = exc.code
            out["stdout"] = stdout.getvalue()
            out["stderr"] = stderr.getvalue()
        else:
            inp = gauss.GaussBoundInput(step["n"], step["rate"], rm=step["rm"])
            ub = gauss.upper_bound_bounded(inp)
            out["n"] = step["n"]
            out["value"] = ub.value
            out["degenerate"] = ub.degenerate
    except Exception:  # a failed step is reported by the checks, not fatal to the run
        out["error"] = traceback.format_exc()
    return out


def main() -> int:
    with SpeedSampler() as setup:
        from rdflb import cli, gauss

    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"setup_s": setup.scaled(), "setup_raw_s": setup.wall}
    if spec["steps"] is not None:
        recorder = None
        if spec["trace"]:
            from tracing import Recorder

            recorder = Recorder.install()
        with SpeedSampler() as work:
            result["outputs"] = [_run_step(step, cli, gauss) for step in spec["steps"]]
        result["wall_s"], result["wall_raw_s"] = work.scaled(), work.wall
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None:
            recorder.dump("spans.npz")
            result["spans"] = "spans.npz"
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
