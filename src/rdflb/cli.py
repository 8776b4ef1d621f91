"""Command-line front end: bound curves as CSV, validation runs, SVG plots.

Exit codes: 0 success, 1 a validate check failed, 2 usage, input or file
error, 3 compute budget exceeded.  Every error is reported once, by main.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import bns, bss, gauss
from .ratedistortion import (
    BinaryNonSymmetricSource,
    BinarySymmetricSource,
    GaussianSource,
    solve,
)
from .simulate import (
    _ENUM_LIMIT,
    BudgetError,
    Codebook,
    ExperimentConfig,
    _chunk_rng,
    _region_sums,
    mc_mean_distortion,
)
from .special import binary_entropy, inverse_binary_entropy


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _parse_n_range(spec: str) -> list[int]:
    try:
        a, b, c = (int(s) for s in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad n range {spec!r}, expected start:stop:step") from exc
    if c < 1 or a < 1:
        raise ValueError(f"bad n range {spec!r}: need start >= 1 and step >= 1")
    return list(range(a, b + 1, c))


def _read_config(path: str) -> dict[str, str]:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def _curve_row(task: dict) -> tuple[dict, list[str]]:
    """One CSV row; separated out so rows can run in worker processes.

    The row's keys, in insertion order, are the CSV's columns.

    A bound that rejects its input (ValueError) is re-raised with the row's n.
    """
    try:
        return _curve_cells(task)
    except ValueError as exc:
        raise ValueError(f"n={task['n']}: {exc}") from exc


def _cell(row: dict, flags: list[str], key: str, upper: float, lower: float, degenerate: bool = False) -> None:
    """Store one upper-bound cell, flagged if degenerate or else if the lower bound crosses it."""
    row[key] = upper
    if degenerate:
        flags.append(f"{key}_degenerate")
    elif lower > upper + 1e-9:
        flags.append(f"cross_{key}")


def _curve_cells(task: dict) -> tuple[dict, list[str]]:
    n = task["n"]
    fam = task["family"]
    rate = task["rate"]
    row = {"n": n, "asymptote": task["dstar"]}
    flags: list[str] = []
    if fam == "gauss":
        for tag, rm in task["variants"]:
            inp = gauss.GaussBoundInput(n, rate, task["sigma2"], rm=rm, delta=task["delta"])
            lo = gauss.lower_bound(inp)
            row[f"lower_{tag}"] = lo
            for eps in task["eps"]:
                inp_e = gauss.GaussBoundInput(n, rate, task["sigma2"], rm=rm, eps=eps, delta=task["delta"])
                ub = gauss.upper_bound_bounded(inp_e) if rm is not None else gauss.upper_bound_unbounded(inp_e)
                _cell(row, flags, f"upper_os_{eps:g}_{tag}", ub.value, lo, ub.degenerate)
        return row, flags
    if fam == "bss":
        lo = bss.lower_bound(n, rate)
    else:
        lo = bns.lower_bound(n, rate, task["p"])
    row["lower"] = lo
    for eps in task["eps"]:
        r = bss.upper_bound_os(n, rate, eps) if fam == "bss" else bns.upper_bound_os(n, rate, task["p"], eps)
        _cell(row, flags, f"upper_os_{eps:g}", r.value, lo, r.degenerate)
    for r0 in task["ref_rate"]:
        if fam == "bss":
            v = bss.upper_bound_rr(n, rate, r0)
        else:
            d0 = inverse_binary_entropy(binary_entropy(task["p"]) - r0)
            v = bns.upper_bound_rr(n, rate, task["p"], d0)
        _cell(row, flags, f"upper_rr_{r0:g}", v, lo)
    if task["legacy_eps"] is not None:
        for r0 in task["ref_rate"]:
            row[f"upper_legacy_{r0:g}"] = bss.upper_bound_legacy(n, rate, r0, task["legacy_eps"])
    return row, flags


def cmd_curve(args) -> int:
    ns = _parse_n_range(args.n)
    if not ns:
        raise ValueError("empty n range")
    if args.family == "bns" and args.p is None:
        raise ValueError("bns needs --p")
    if args.legacy_eps is not None and args.family != "bss":
        raise ValueError("--legacy-eps applies to the bss family only")
    if args.legacy_eps is not None and not args.ref_rate:
        raise ValueError("--legacy-eps needs --ref-rate")
    if args.family != "gauss" and (args.alpha or args.unbounded):
        raise ValueError("--alpha/--unbounded apply to the gauss family only")
    if args.alpha and min(args.alpha) <= 0:
        raise ValueError(f"--alpha must be > 0, got {min(args.alpha):g}")

    if args.family == "bss":
        source = BinarySymmetricSource()
    elif args.family == "bns":
        source = BinaryNonSymmetricSource(args.p)
    else:
        source = GaussianSource(args.sigma2)
    task_base = {
        "family": args.family,
        "rate": args.rate,
        "p": args.p,
        "sigma2": args.sigma2,
        "delta": args.delta,
        "eps": args.eps or [],
        "ref_rate": args.ref_rate or [],
        "legacy_eps": args.legacy_eps,
        "dstar": solve(source, args.rate).dstar,
    }

    tasks = []
    for n in ns:
        t = dict(task_base, n=n)
        if args.family == "gauss":
            variants = [(f"a{a:g}", math.sqrt(a * n)) for a in (args.alpha or [])]
            if args.unbounded or not variants:
                variants.append(("unbounded", None))
            t["variants"] = variants
        tasks.append(t)

    jobs = args.jobs or os.cpu_count() or 1
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_curve_row, tasks))
    else:
        results = [_curve_row(t) for t in tasks]

    cols = list(results[0][0])
    any_flags = any(flags for _, flags in results)
    params = (
        f"family={args.family} rate={args.rate} n={args.n} p={args.p} sigma2={args.sigma2} "
        f"eps={args.eps} ref_rate={args.ref_rate} alpha={args.alpha} unbounded={args.unbounded} "
        f"legacy_eps={args.legacy_eps} delta={args.delta}"
    )
    lines = [f"# params: {params}"]
    header = ",".join(cols + (["flags"] if any_flags else []))
    lines.append(header)
    for row, flags in results:
        vals = [_fmt(row[c]) if c != "n" else str(row["n"]) for c in cols]
        if any_flags:
            vals.append(";".join(flags))
        lines.append(",".join(vals))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    if args.family == "bns" and args.p is None:
        raise ValueError("bns needs --p")
    if args.codebooks < 1:
        raise ValueError("--codebooks must be >= 1")
    source = BinarySymmetricSource() if args.family == "bss" else BinaryNonSymmetricSource(args.p)
    # only bss enumerates codebooks exactly; bns runs the Monte Carlo alone
    if args.family == "bss" and args.n > _ENUM_LIMIT:
        raise BudgetError(f"n={args.n} exceeds the exact-enumeration budget ({_ENUM_LIMIT})")
    sol = solve(source, args.rate)
    eps = 0.01
    if args.family == "bss":
        lower = bss.lower_bound(args.n, args.rate)
        upper = bss.upper_bound_os(args.n, args.rate, eps).value
    else:
        lower = bns.lower_bound(args.n, args.rate, args.p)
        upper = bns.upper_bound_os(args.n, args.rate, args.p, eps).value
    cfg = ExperimentConfig(source, args.n, args.rate, args.trials, args.seed)
    mean, se = mc_mean_distortion(cfg)
    lines = [
        f"source={args.family}",
        f"n={args.n}",
        f"rate={_fmt(args.rate)}",
        f"trials={args.trials}",
        f"seed={args.seed}",
        f"eps={_fmt(eps)}",
        f"asymptote={_fmt(sol.dstar)}",
        f"lower={_fmt(lower)}",
        f"mc_mean={_fmt(mean)}",
        f"mc_stderr={_fmt(se)}",
        f"upper_os={_fmt(upper)}",
    ]
    sandwich = lower <= mean + 3.0 * se and mean <= upper + 3.0 * se
    lines.append(f"sandwich_pass={'true' if sandwich else 'false'}")
    ok = sandwich
    if args.family == "bss":
        q = cfg.codebook_size
        rng = _chunk_rng(args.seed, 2**32)
        worst_id = 0.0
        worst_margin = math.inf
        for _ in range(args.codebooks):
            cb = Codebook(args.n, (rng.random((q, args.n)) < 0.5).astype(np.uint8))
            ed, dr, pe = _region_sums(source, cb, args.rate)
            worst_id = max(worst_id, abs(ed - sol.dstar - sol.lambda_hat_nats / args.n * dr))
            worst_margin = min(worst_margin, dr - pe)
        id_ok = worst_id <= 1e-10
        thm4_ok = worst_margin >= -1e-12
        lines.append(f"identity_max_residual={_fmt(worst_id)}")
        lines.append(f"thm4_margin={_fmt(worst_margin)}")
        lines.append(f"identity_pass={'true' if id_ok else 'false'}")
        lines.append(f"thm4_pass={'true' if thm4_ok else 'false'}")
        ok = ok and id_ok and thm4_ok
    lines.append(f"pass={'true' if ok else 'false'}")
    print("\n".join(lines))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def cmd_plot(args) -> int:
    from . import svg

    with open(args.csv, encoding="utf-8") as fh:
        rows = [line.rstrip("\n") for line in fh if not line.startswith("#") and line.strip()]
    if len(rows) < 2:
        raise ValueError("CSV has no data rows")
    header = rows[0].split(",")
    if header[0] != "n":
        raise ValueError("first column must be n")
    xs: list[float] = []
    series: dict[str, list[float]] = {c: [] for c in header[1:] if c != "flags"}
    try:
        for r in rows[1:]:
            parts = r.split(",")
            if len(parts) != len(header):
                raise ValueError(f"row has {len(parts)} fields, header has {len(header)}")
            xs.append(float(parts[0]))
            for c, v in zip(header[1:], parts[1:]):
                if c != "flags":
                    series[c].append(float(v))
    except ValueError as exc:
        raise ValueError(f"malformed CSV: {exc}") from exc
    svg_text = svg.render(xs, series)  # before open, so a refused plot leaves no file
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg_text)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _boolean(s: str) -> bool:
    words = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    if s.lower() not in words:
        raise ValueError(f"expected one of 1/true/yes/0/false/no, got {s!r}")
    return words[s.lower()]


# config keys accepted by `curve` and their parsers; lists are whitespace
# separated inside the value
_CONFIG_CONVERT = {
    "p": float,
    "sigma2": float,
    "rate": float,
    "delta": float,
    "legacy_eps": float,
    "jobs": int,
    "n": str,
    "out": str,
    "eps": lambda s: [float(v) for v in s.split()],
    "ref_rate": lambda s: [float(v) for v in s.split()],
    "alpha": lambda s: [float(v) for v in s.split()],
    "unbounded": _boolean,
}


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    parser = argparse.ArgumentParser(prog="rdflb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cur = sub.add_parser("curve", help="sweep bounds over n and write CSV")
    cur.add_argument("family", choices=["bss", "bns", "gauss"])
    cur.add_argument("--config", help="key = value defaults file (flags win)")
    cur.add_argument("--p", type=float, help="P(bit = 1) for the bns family")
    cur.add_argument("--sigma2", type=float, default=1.0, help="Gaussian variance")
    cur.add_argument("--rate", type=float, help="rate in bits/symbol")
    cur.add_argument("--n", help="blocklength range start:stop:step")
    cur.add_argument("--eps", type=float, nargs="+", help="ordered-statistics eps values")
    cur.add_argument("--ref-rate", type=float, nargs="+", help="reference rates R0")
    cur.add_argument("--alpha", type=float, nargs="+", help="codeword bound rm^2 = alpha n (gauss)")
    cur.add_argument("--unbounded", action="store_true", help="include the unbounded gauss curve")
    cur.add_argument("--legacy-eps", type=float, help="rate slack for the legacy bound (bss)")
    cur.add_argument("--delta", type=float, default=0.5, help="source ball margin (gauss)")
    cur.add_argument("--jobs", type=int, help="parallel row workers (default: cores)")
    cur.add_argument("--out", help="output CSV path")
    cur.set_defaults(func=cmd_curve)

    val = sub.add_parser("validate", help="run the MC sandwich / identity checks")
    val.add_argument("family", choices=["bss", "bns"])
    val.add_argument("--p", type=float, help="P(bit = 1) for the bns family")
    val.add_argument("--n", type=int, required=True)
    val.add_argument("--rate", type=float, required=True)
    val.add_argument("--trials", type=int, default=100_000)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--codebooks", type=int, default=100, help="random codebooks for the identity check")
    val.set_defaults(func=cmd_validate)

    plo = sub.add_parser("plot", help="render a curve CSV as a single SVG")
    plo.add_argument("csv", help="input CSV from `rdflb curve`")
    plo.add_argument("--out", required=True, help="output SVG path")
    plo.set_defaults(func=cmd_plot)
    return parser, cur


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    cfg_path = None
    for i, a in enumerate(argv):
        if a == "--config" and i + 1 < len(argv):
            cfg_path = argv[i + 1]
        elif a.startswith("--config="):
            cfg_path = a.split("=", 1)[1]
    parser, curve_parser = _build_parser()
    try:
        if cfg_path is not None:
            defaults = {}
            for key, raw in _read_config(cfg_path).items():
                if key not in _CONFIG_CONVERT:
                    raise ValueError(f"unknown config key: {key}")
                try:
                    defaults[key] = _CONFIG_CONVERT[key](raw)
                except ValueError as exc:
                    raise ValueError(f"config key {key}: {exc}") from exc
            curve_parser.set_defaults(**defaults)
        args = parser.parse_args(argv)
        if args.command == "curve":
            missing = [k for k in ("rate", "n", "out") if getattr(args, k) is None]
            if missing:
                raise ValueError(f"missing required option(s): {', '.join('--' + m for m in missing)}")
        return args.func(args)
    except (BudgetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetError) else 2


if __name__ == "__main__":
    sys.exit(main())
