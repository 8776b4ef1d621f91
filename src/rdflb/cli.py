"""Command-line front end: bound curves as CSV and validation runs.

A row's bounds, and the two that validate checks, come from ``_bounds``
with their column and side.  A bound prints to 10 significant digits on its
valid side, a lower bound rounded down and an upper bound up; the asymptote
and the Monte-Carlo and identity values are rounded to nearest.

Exit codes: 0 success, 1 a validate check failed, 2 usage, input or file
error, 3 compute budget exceeded.  Every error is reported once, by main.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal

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
    _check_mc_budget,
    _chunk_rng,
    _region_sums,
    mc_mean_distortion,
)
from .special import binary_entropy, inverse_binary_entropy

_DIRECTED = {"lower": Context(prec=10, rounding=ROUND_FLOOR), "upper": Context(prec=10, rounding=ROUND_CEILING)}


def _fmt(v: float, side: str | None = None) -> str:
    """``v`` to 10 significant digits: down for a lower bound, up for an upper one, else nearest."""
    if side is not None:  # Decimal(v) is exact, and .10g prints the 10 directed digits back unchanged
        v = float(_DIRECTED[side].plus(Decimal(v)))
    return f"{v:.10g}"


def _parse_n_range(spec: str) -> list[int]:
    try:
        a, b, c = (int(s) for s in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad n range {spec!r}, expected start:stop:step") from exc
    if c < 1 or a < 1:
        raise ValueError(f"bad n range {spec!r}: need start >= 1 and step >= 1")
    return list(range(a, b + 1, c))


def _source(args):
    if args.family == "bns" and args.p is None:
        raise ValueError("bns needs --p")
    if args.family != "bns" and args.p is not None:
        raise ValueError("--p applies to the bns family only")
    if args.family == "bss":
        return BinarySymmetricSource()
    if args.family == "bns":
        return BinaryNonSymmetricSource(args.p)
    return GaussianSource(args.sigma2)


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def _bounds(args, n: int):
    """Yield (column, side, value, degenerate) for every bound of row ``n`` of ``args``.

    Each codebook class's lower bound comes before its upper bounds.  bss
    rows call the bss functions, which are bns at p = 1/2.
    """
    rate, p = args.rate, args.p
    if args.family == "gauss":
        variants = [(f"a{a:g}", math.sqrt(a * n)) for a in args.alpha or []]
        if args.unbounded or not variants:
            variants.append(("unbounded", None))
        for tag, rm in variants:
            inp = gauss.GaussBoundInput(n, rate, args.sigma2, rm=rm, delta=args.delta)
            yield f"lower_{tag}", "lower", gauss.lower_bound(inp), False
            upper_os = gauss.upper_bound_unbounded if rm is None else gauss.upper_bound_bounded
            for eps in args.eps or []:
                r = upper_os(dataclasses.replace(inp, eps=eps))
                yield f"upper_os_{eps:g}_{tag}", "upper", r.value, r.degenerate
        return
    sym = args.family == "bss"
    yield "lower", "lower", bss.lower_bound(n, rate) if sym else bns.lower_bound(n, rate, p), False
    for eps in args.eps or []:
        r = bss.upper_bound_os(n, rate, eps) if sym else bns.upper_bound_os(n, rate, p, eps)
        yield f"upper_os_{eps:g}", "upper", r.value, r.degenerate
    for r0 in args.ref_rate or []:
        d0 = None if sym else inverse_binary_entropy(binary_entropy(p) - r0)
        v = bss.upper_bound_rr(n, rate, r0) if sym else bns.upper_bound_rr(n, rate, p, d0)
        yield f"upper_rr_{r0:g}", "upper", v, False
    if args.legacy_eps is not None:
        for r0 in args.ref_rate:
            yield f"upper_legacy_{r0:g}", "upper", bss.upper_bound_legacy(n, rate, r0, args.legacy_eps), False


def _curve_row(args, dstar: float, n: int) -> tuple[dict, list[str]]:
    """One CSV row (run in a worker process when --jobs > 1): printed cells by column, and flags.

    An upper bound is flagged if degenerate, or else if it lies more than 1e-9
    below its class's lower bound.  Two bounds that print as one column raise
    ValueError, and a ValueError is re-raised with the row's n.
    """
    row = {"n": str(n), "asymptote": _fmt(dstar)}
    flags: list[str] = []
    try:
        for col, side, value, degenerate in _bounds(args, n):
            if col in row:
                raise ValueError(f"two bounds print as column {col}")
            row[col] = _fmt(value, side)
            if side == "lower":
                lower = value
            elif degenerate:
                flags.append(f"{col}_degenerate")
            elif lower > value + 1e-9:
                flags.append(f"cross_{col}")
    except ValueError as exc:
        raise ValueError(f"n={n}: {exc}") from exc
    return row, flags


def cmd_curve(args) -> int:
    ns = _parse_n_range(args.n)
    if not ns:
        raise ValueError("empty n range")
    if args.legacy_eps is not None and args.family != "bss":
        raise ValueError("--legacy-eps applies to the bss family only")
    if args.legacy_eps is not None and not args.ref_rate:
        raise ValueError("--legacy-eps needs --ref-rate")
    if args.family == "gauss" and args.ref_rate:
        raise ValueError("--ref-rate applies to the bss and bns families only")
    if args.ref_rate and not all(0 < r0 < args.rate for r0 in args.ref_rate):
        raise ValueError("--ref-rate must lie in (0, rate)")
    if args.family != "gauss" and (args.alpha or args.unbounded):
        raise ValueError("--alpha/--unbounded apply to the gauss family only")
    if args.alpha and min(args.alpha) <= 0:
        raise ValueError(f"--alpha must be > 0, got {min(args.alpha):g}")
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")

    row_at = functools.partial(_curve_row, args, solve(_source(args), args.rate).dstar)
    jobs = args.jobs or os.cpu_count() or 1
    if jobs > 1 and len(ns) > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial curve never loads multiprocessing
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(row_at, ns))
    else:
        results = [row_at(n) for n in ns]

    if any(flags for _, flags in results):
        for row, flags in results:
            row["flags"] = ";".join(flags)
    # the namespace holds the family and the curve options in parser order, after the subcommand
    params = " ".join(f"{k}={v}" for k, v in vars(args).items() if k not in ("command", "jobs", "out", "func"))
    lines = [f"# params: {params}", ",".join(results[0][0])] + [",".join(row.values()) for row, _ in results]
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    source = _source(args)
    if args.codebooks < 1:
        raise ValueError("--codebooks must be >= 1")
    # only bss enumerates codebooks exactly; bns runs the Monte Carlo alone
    if args.family == "bss" and args.n > _ENUM_LIMIT:
        raise BudgetError(f"n={args.n} exceeds the exact-enumeration budget ({_ENUM_LIMIT})")
    sol = solve(source, args.rate)
    cfg = ExperimentConfig(source, args.n, args.rate, args.trials, args.seed)
    _check_mc_budget(cfg)  # before the bounds, so an over-budget run is refused at once
    (_, lower_side, lower, _), (_, upper_side, upper, _) = _bounds(args, args.n)
    mean, se = mc_mean_distortion(cfg)
    lines = [
        f"source={args.family}",
        f"n={args.n}",
        f"rate={_fmt(args.rate)}",
        f"trials={args.trials}",
        f"seed={args.seed}",
        f"eps={_fmt(args.eps[0])}",
        f"asymptote={_fmt(sol.dstar)}",
        f"lower={_fmt(lower, lower_side)}",
        f"mc_mean={_fmt(mean)}",
        f"mc_stderr={_fmt(se)}",
        f"upper_os={_fmt(upper, upper_side)}",
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
# argument plumbing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rdflb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cur = sub.add_parser("curve", help="sweep bounds over n and write CSV")
    cur.add_argument("family", choices=["bss", "bns", "gauss"])
    cur.add_argument("--rate", type=float, required=True, help="rate in bits/symbol")
    cur.add_argument("--n", required=True, help="blocklength range start:stop:step")
    cur.add_argument("--p", type=float, help="P(bit = 1) for the bns family")
    cur.add_argument("--sigma2", type=float, default=1.0, help="Gaussian variance")
    cur.add_argument("--eps", type=float, nargs="+", help="ordered-statistics eps values")
    cur.add_argument("--ref-rate", type=float, nargs="+", help="reference rates R0")
    cur.add_argument("--alpha", type=float, nargs="+", help="codeword bound rm^2 = alpha n (gauss)")
    cur.add_argument("--unbounded", action="store_true", help="include the unbounded gauss curve")
    cur.add_argument("--legacy-eps", type=float, help="rate slack for the legacy bound (bss)")
    cur.add_argument("--delta", type=float, default=0.5, help="source ball margin (gauss)")
    cur.add_argument("--jobs", type=int, help="parallel row workers (default: cores)")
    cur.add_argument("--out", required=True, help="output CSV path")
    cur.set_defaults(func=cmd_curve)

    val = sub.add_parser("validate", help="run the MC sandwich / identity checks")
    val.add_argument("family", choices=["bss", "bns"])
    val.add_argument("--p", type=float, help="P(bit = 1) for the bns family")
    val.add_argument("--n", type=int, required=True)
    val.add_argument("--rate", type=float, required=True)
    val.add_argument("--trials", type=int, default=100_000)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--codebooks", type=int, default=100, help="random codebooks for the identity check")
    # the curve options that _bounds reads: one OS bound at eps = 0.01, no RR or legacy bound
    val.set_defaults(func=cmd_validate, eps=[0.01], ref_rate=None, legacy_eps=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BudgetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetError) else 2


if __name__ == "__main__":
    sys.exit(main())
