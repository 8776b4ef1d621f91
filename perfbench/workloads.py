"""The benchmark's workloads: the steps each one runs, at full and smoke size.

A step is a JSON-ready dict handed to a fresh worker interpreter:

* ``{"kind": "cli", "name": ..., "argv": [...]}`` calls ``rdflb.cli.main``
  with ``argv``; a ``curve`` step writes ``<name>.csv`` in the work
  directory, a ``validate`` step has its standard output captured.
* ``{"kind": "gauss_bounded", "name": ..., "n": ..., "rate": ..., "rm": ...}``
  calls ``gauss.upper_bound_bounded`` directly, the cross-route reference
  for the unbounded Gaussian upper bound.

Only ``validate`` takes randomness, and its ``--seed`` comes from the
benchmark's ``--seed``; the curve workloads are fixed configurations, so
every seed gives them the same inputs.
"""

from __future__ import annotations

WORKLOAD_NAMES = ("gauss-curve", "bss-curve", "bns-curve", "validate")


def _curve(name: str, family: str, *args: str) -> dict:
    argv = ["curve", family, *args, "--jobs", "1", "--out", f"{name}.csv"]
    return {"kind": "cli", "name": name, "argv": argv}


def _validate(name: str, *args: str) -> dict:
    return {"kind": "cli", "name": name, "argv": ["validate", *args]}


def steps(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The steps of ``workload``; ``smoke`` shrinks the inputs (gauss-curve drops its alpha=2 variant)."""
    s = str(seed % 2**32)
    if workload == "gauss-curve":
        # n=64 is also the cheapest blocklength: the converse costs more at small n
        alpha = [] if smoke else ["--alpha", "2"]
        return [
            _curve("curve", "gauss", "--rate", "0.5", "--eps", "0.005", *alpha, "--unbounded", "--n", "64:64:64"),
            {"kind": "gauss_bounded", "name": "bounded_rm200_n64", "n": 64, "rate": 0.5, "rm": 200.0},
        ]
    if workload == "bss-curve":
        ns = "200:400:200" if smoke else "20000:60000:20000"
        return [_curve("curve", "bss", "--rate", "0.5", "--eps", "0.01", "--ref-rate", "0.45",
                       "--legacy-eps", "0.0485", "--n", ns)]
    if workload == "bns-curve":
        ns = "20:40:20" if smoke else "200:600:200"
        dn = "20:20:20" if smoke else "200:200:200"
        return [
            _curve("curve", "bns", "--p", "0.25", "--rate", "0.3", "--eps", "0.01",
                   "--ref-rate", "0.25", "--n", ns),
            _curve("degen_bns", "bns", "--p", "0.5", "--rate", "0.5", "--eps", "0.01",
                   "--ref-rate", "0.45", "--n", dn),
            _curve("degen_bss", "bss", "--rate", "0.5", "--eps", "0.01", "--ref-rate", "0.45", "--n", dn),
        ]
    if workload == "validate":
        bss_n, bss_trials = ("8", "2000") if smoke else ("16", "20000")
        bns_n, bns_trials = ("10", "20000") if smoke else ("20", "100000")
        return [
            _validate("validate_bss", "bss", "--n", bss_n, "--rate", "0.5", "--trials", bss_trials,
                      "--codebooks", "1", "--seed", s),
            _validate("validate_bns", "bns", "--p", "0.25", "--n", bns_n, "--rate", "0.3",
                      "--trials", bns_trials, "--seed", s),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOAD_NAMES)}")
