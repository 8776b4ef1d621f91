"""Correctness checks on a workload's outputs; each check is one attempt.

A check is named, and fails if it fails in any repetition of the run, so
the number attempted does not depend on how many repetitions fit in the
run.  The checks:

* ``exit:<step>``: the CLI call (or library call) returned 0 without raising;
* ``finite:<step>:n=<n>``: every cell of the CSV row is finite;
* ``flags:<step>:n=<n>``: the row carries no ``cross_*`` or ``*_degenerate`` flag;
* ``order:<step>:n=<n>:<lower><=<upper>``: a lower bound is at most each
  upper bound of its own codebook class;
* gauss only, ``above_dstar:...``: a lower bound is at least D* - 1e-12, and
  ``alpha_vs_unbounded:...``: the bounded-codebook converse is at least the
  unbounded one - 1e-9;
* ``cross_route:gauss:n=<n>``: the bounded upper bound at rm = 200 equals the
  unbounded one to 1e-6 relative (the tier-1 tolerance);
* ``p_half:<column>:n=<n>``: bns at p = 1/2 equals bss to 1e-9;
* ``validate:<step>:<key>``: every ``*pass`` line of ``rdflb validate`` is true;
* ``ref:<step>:n=<n>:<column>``: the CSV value matches the table recorded in
  ``reference.json`` to ``REF_REL_GAP`` of that bound's gap to D*.
"""

from __future__ import annotations

import math
from pathlib import Path

# A check that fails at the commit the reference was recorded at: its cause,
# and the largest measured error still taken for that defect (it read
# 5.05e-6 there).  It still counts in `failed` and `fail_frac`; the run's
# `correct` flag turns false for any other failure, and for this one once
# its error grows past the limit.
KNOWN_DEFECTS = {
    "cross_route:gauss:n=64": (
        "the unbounded Gaussian upper bound is ~5e-6 relative too low at n=64: "
        "gauss._quantile_deep returns its bracket midpoint, not the converged point",
        1e-5,
    ),
}

# Reference tolerance, as a share of the bound's gap to D*.  It admits the
# known 3e-6 correction of the unbounded upper bound at n=64 (gap 0.085)
# and catches a bound that moves by 0.1% of its gap.
REF_REL_GAP = 1e-3
# Floor for values with no gap (the asymptote column): CSV cells carry 10
# significant digits.
REF_REL_VALUE = 1e-9
CROSS_ROUTE_REL = 1e-6
P_HALF_ABS = 1e-9
# `rdflb validate` pass lines expected per source family
VALIDATE_PASS_KEYS = {
    "bss": ("sandwich_pass", "identity_pass", "thm4_pass", "pass"),
    "bns": ("sandwich_pass", "pass"),
}


class Checks:
    """Named pass/fail results; a name seen twice fails if either failed, with the larger error."""

    def __init__(self):
        self.results: dict[str, tuple[bool, str, float]] = {}

    def check(self, name: str, ok: bool, detail: str = "", error: float = math.nan) -> None:
        """``error`` is the measured error, which ``known`` compares with ``KNOWN_DEFECTS``."""
        prev = self.results.get(name)
        if prev is None or (prev[0] and not ok) or (not ok and error > prev[2]):
            self.results[name] = (bool(ok), detail, error)

    @property
    def attempted(self) -> int:
        return len(self.results)

    def failures(self) -> dict[str, str]:
        return {name: detail for name, (ok, detail, _) in self.results.items() if not ok}

    def known(self, name: str) -> bool:
        """Whether a failed check is a known defect, at no more than its recorded size."""
        return name in KNOWN_DEFECTS and self.results[name][2] <= KNOWN_DEFECTS[name][1]

    @property
    def fail_frac(self) -> float:
        """(failed + 1) / (attempted + 1): never 0, and every extra failure raises it."""
        return (len(self.failures()) + 1) / (self.attempted + 1)


def read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    """Header and rows (cell strings keyed by column) of an ``rdflb curve`` CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _num(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def value_columns(header: list[str]) -> list[str]:
    return [c for c in header if c not in ("n", "flags")]


def ref_key(step: str, n: str, column: str) -> str:
    """The key of one CSV value in ``reference.json``."""
    return f"{step}:n={n}:{column}"


def _bound_pairs(header: list[str]) -> list[tuple[str, list[str]]]:
    """(lower column, upper columns of the same codebook class) per class.

    gauss columns carry a class suffix (``lower_a2``, ``upper_os_0.005_a2``);
    the binary families have one ``lower`` and every upper in its class.
    """
    uppers = [c for c in header if c.startswith("upper_")]
    return [(lo, [u for u in uppers if u.endswith(lo[len("lower"):])])
            for lo in header if lo.startswith("lower")]


def _parse_validate(text: str) -> dict[str, str]:
    return dict(ln.split("=", 1) for ln in text.splitlines() if "=" in ln)


def check_rep(checks: Checks, rep_dir: Path, outputs: list[dict], reference: dict[str, float] | None) -> list[float]:
    """Run every check on one repetition; returns its per-row (min upper - lower) / D*."""
    gaps: list[float] = []
    tables: dict[str, list[dict[str, str]]] = {}
    bounded: dict[int, float] = {}
    seen_refs: set[str] = set()
    for out in outputs:
        name = out["name"]
        if "error" in out:
            checks.check(f"exit:{name}", False, out["error"].strip().splitlines()[-1])
            continue
        if out["kind"] == "gauss_bounded":
            checks.check(f"exit:{name}", math.isfinite(out["value"]) and not out["degenerate"],
                         f"value {out['value']!r}, degenerate {out['degenerate']}")
            bounded[out["n"]] = out["value"]
            continue
        checks.check(f"exit:{name}", out["exit"] == 0, f"exit code {out['exit']}: {out['stderr'].strip()}")
        command, family = out["argv"][:2]
        if command == "validate":
            _check_validate(checks, name, family, _parse_validate(out["stdout"]), gaps)
            continue
        if out["exit"] != 0:
            continue
        header, rows = read_csv(rep_dir / f"{name}.csv")
        tables[name] = rows
        gauss = any(c.endswith("_unbounded") for c in header)
        for row in rows:
            n = row["n"]
            vals = {c: _num(row[c]) for c in value_columns(header)}
            bad = [c for c, v in vals.items() if not math.isfinite(v)]
            checks.check(f"finite:{name}:n={n}", not bad, f"non-finite cells {bad}")
            flags = [f for f in row.get("flags", "").split(";") if f.startswith("cross_") or f.endswith("_degenerate")]
            checks.check(f"flags:{name}:n={n}", not flags, f"flags {flags}")
            for lo, ups in _bound_pairs(header):
                for up in ups:
                    checks.check(f"order:{name}:n={n}:{lo}<={up}", vals[lo] <= vals[up] + 1e-12,
                                 f"{lo}={vals[lo]!r} > {up}={vals[up]!r}")
                if ups:
                    gaps.append((min(vals[u] for u in ups) - vals[lo]) / vals["asymptote"])
                if gauss:
                    checks.check(f"above_dstar:{name}:n={n}:{lo}", vals[lo] >= vals["asymptote"] - 1e-12,
                                 f"{lo}={vals[lo]!r} < D*={vals['asymptote']!r}")
                    if lo != "lower_unbounded" and "lower_unbounded" in vals:
                        checks.check(f"alpha_vs_unbounded:{name}:n={n}:{lo}",
                                     vals[lo] >= vals["lower_unbounded"] - 1e-9,
                                     f"{lo}={vals[lo]!r} < lower_unbounded={vals['lower_unbounded']!r}")
            if reference is not None:
                for c, v in vals.items():
                    key = ref_key(name, n, c)
                    seen_refs.add(key)
                    _check_reference(checks, key, v, reference, ref_key(name, n, "asymptote"))
    for n, value in bounded.items():
        rows = [r for r in tables.get("curve", []) if int(r["n"]) == n]
        unb = _num(rows[0]["upper_os_0.005_unbounded"]) if rows else math.nan
        rel = abs(value - unb) / abs(unb)
        checks.check(f"cross_route:gauss:n={n}", rel <= CROSS_ROUTE_REL,
                     f"bounded(rm=200)={value!r} vs unbounded={unb!r}: relative {rel:.3g} > {CROSS_ROUTE_REL:g}",
                     error=rel)
    if "degen_bns" in tables and "degen_bss" in tables:
        for bns_row, bss_row in zip(tables["degen_bns"], tables["degen_bss"]):
            for c in ("lower", "upper_os_0.01", "upper_rr_0.45"):
                a, b = _num(bns_row[c]), _num(bss_row[c])
                checks.check(f"p_half:{c}:n={bns_row['n']}", abs(a - b) <= P_HALF_ABS,
                             f"bns(p=1/2)={a!r} vs bss={b!r}")
    if reference is not None:
        for key in reference.keys() - seen_refs:
            checks.check(f"ref:{key}", False, "value missing from the output")
    return gaps


def _check_reference(checks: Checks, key: str, value: float, reference: dict[str, float], dstar_key: str) -> None:
    ref = reference.get(key)
    if ref is None:
        checks.check(f"ref:{key}", False, "no recorded reference value")
        return
    tol = REF_REL_GAP * abs(ref - reference[dstar_key]) + REF_REL_VALUE * abs(ref)
    checks.check(f"ref:{key}", abs(value - ref) <= tol, f"{value!r} vs reference {ref!r} (tolerance {tol:.3g})")


def _check_validate(checks: Checks, name: str, family: str, fields: dict[str, str], gaps: list[float]) -> None:
    for key in sorted(set(VALIDATE_PASS_KEYS[family]) | {k for k in fields if k.endswith("pass")}):
        checks.check(f"validate:{name}:{key}", fields.get(key) == "true", f"{key}={fields.get(key)}")
    nums = {k: _num(fields.get(k, "nan")) for k in ("asymptote", "lower", "mc_mean", "mc_stderr", "upper_os")}
    bad = [k for k, v in nums.items() if not math.isfinite(v)]
    checks.check(f"finite:{name}", not bad, f"non-finite fields {bad}")
    if not bad:
        gaps.append((nums["upper_os"] - nums["lower"]) / nums["asymptote"])
