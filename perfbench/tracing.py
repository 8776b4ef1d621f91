"""Layer-boundary spans for the traced run, kept in memory and written at exit.

``Recorder.install()`` replaces each public layer function named in
``LAYERS`` with a timing wrapper.  The rdflb modules bind these names with
``from .x import f``, so the wrapper is put into every rdflb module
namespace that holds the original function object, not only into the
defining module.  Each call records a span (name, start, end, parent span)
and, for the functions in ``COUNTERS``, adds the size of its input to a
counter.  ``layer_metrics`` turns a written span file into the per-layer
metrics: ``calls``, ``s`` (inclusive time of the outermost spans of a
name), ``self_s`` (span time minus the time of its child spans) and the
counters.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

# qualified name (module.function) -> stats reported for it
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.main": ("s",),
    "gauss.lower_bound": ("calls", "s"),
    "gauss.upper_bound_unbounded": ("calls", "s"),
    "gauss.upper_bound_bounded": ("calls", "s"),
    "geometry.log_shell_mass_batch": ("calls", "rows", "self_s"),
    "geometry.log_vol_diff_vec": ("calls", "rows", "self_s"),
    "special.log_cone_area": ("calls", "lanes", "self_s"),
    "special.noncentral_chi2_log_cdf": ("calls", "self_s"),
    "special.log_reg_gamma_lower": ("calls", "lanes", "self_s"),
    "special.reg_gamma_lower": ("calls", "lanes", "self_s"),
    "special.reg_gamma_upper": ("calls", "lanes", "self_s"),
    "special.log_reg_inc_beta": ("calls", "lanes", "self_s"),
    "special.inverse_binary_entropy": ("calls", "s"),
    "bss.lower_bound": ("calls", "s"),
    "bss.upper_bound_os": ("calls", "s"),
    "bss.upper_bound_rr": ("calls", "s"),
    "bss.upper_bound_legacy": ("calls", "s"),
    "bss.hamming_ball_threshold": ("calls", "self_s"),
    "bns.lower_bound": ("calls", "s"),
    "bns.upper_bound_os": ("calls", "s"),
    "bns.upper_bound_rr": ("calls", "s"),
    "logdomain.log_binomial": ("calls", "self_s"),
    "logdomain.logsumexp": ("calls", "self_s"),
    "logdomain.log_diff": ("calls",),
    "ratedistortion.solve": ("calls", "s"),
    "quadrature.find_root": ("calls",),
    "simulate.exact_distortion": ("calls", "s"),
    "simulate.delta_residue": ("calls", "s"),
    "simulate.duality_error_prob": ("calls", "s"),
    "simulate.mc_mean_distortion": ("calls", "s"),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _size(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


def _enum_pairs(args, kwargs) -> int:
    cb = _arg(args, kwargs, 1, "cb")
    return 2**cb.n * cb.size


def _mc_pair_bits(args, kwargs) -> int:
    cfg = _arg(args, kwargs, 0, "cfg")
    return cfg.trials * cfg.codebook_size * cfg.n


# qualified name -> (counter metric, input size of one call)
COUNTERS = {
    "geometry.log_shell_mass_batch": ("geometry.log_shell_mass_batch.rows",
                                      lambda a, k: _size(_arg(a, k, 1, "lo"))),
    "geometry.log_vol_diff_vec": ("geometry.log_vol_diff_vec.rows",
                                  lambda a, k: _size(_arg(a, k, 1, "r0"), _arg(a, k, 3, "r1"))),
    "special.log_cone_area": ("special.log_cone_area.lanes", lambda a, k: _size(_arg(a, k, 1, "theta"))),
    "special.log_reg_gamma_lower": ("special.log_reg_gamma_lower.lanes",
                                    lambda a, k: _size(_arg(a, k, 0, "a"), _arg(a, k, 1, "x"))),
    "special.reg_gamma_lower": ("special.reg_gamma_lower.lanes",
                                lambda a, k: _size(_arg(a, k, 0, "a"), _arg(a, k, 1, "x"))),
    "special.reg_gamma_upper": ("special.reg_gamma_upper.lanes",
                                lambda a, k: _size(_arg(a, k, 0, "a"), _arg(a, k, 1, "x"))),
    "special.log_reg_inc_beta": ("special.log_reg_inc_beta.lanes", lambda a, k: _size(_arg(a, k, 2, "x"))),
    # computed work: every (source word, codeword) pair of a full enumeration
    "simulate.exact_distortion": ("simulate.enum_pairs", _enum_pairs),
    "simulate.delta_residue": ("simulate.enum_pairs", _enum_pairs),
    "simulate.duality_error_prob": ("simulate.enum_pairs", _enum_pairs),
    # computed work: trials x Q x n bit comparisons of the Monte Carlo
    "simulate.mc_mean_distortion": ("simulate.mc_pair_bits", _mc_pair_bits),
}

_UNITS = {"calls": "count", "rows": "count", "lanes": "count", "s": "s", "self_s": "s"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {f"{q}.{stat}": _UNITS[stat] for q, stats in LAYERS.items() for stat in stats}
    units.update({
        "cli.overhead_s": "s",
        "special.noncentral_chi2_log_cdf.calls_per_upper": "ratio",
        "simulate.enum_pairs": "count",
        "simulate.mc_pair_bits": "count",
        "trace.spans": "count",
        "trace.overhead_s": "s",
    })
    return units


class Recorder:
    """Spans and counters of one traced worker process."""

    def __init__(self):
        self.qualnames = list(LAYERS)
        self.names = array("H")
        self.parents = array("l")
        self.nested = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.active = [0] * len(self.qualnames)
        self.counts = {metric: 0 for metric, _ in COUNTERS.values()}

    @classmethod
    def install(cls) -> "Recorder":
        """Wrap every function in ``LAYERS`` wherever an rdflb module binds it."""
        rec = cls()
        modules = [m for name, m in sorted(sys.modules.items()) if name == "rdflb" or name.startswith("rdflb.")]
        for name_id, qual in enumerate(rec.qualnames):
            mod_name, func_name = qual.split(".")
            orig = getattr(sys.modules[f"rdflb.{mod_name}"], func_name)
            wrapper = rec._wrap(name_id, orig, COUNTERS.get(qual))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
        return rec

    def _wrap(self, name_id, fn, counter):
        names, parents, nested, starts, ends = self.names, self.parents, self.nested, self.starts, self.ends
        stack, active, counts = self.stack, self.active, self.counts
        clock = time.perf_counter
        metric, size = counter if counter else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if metric is not None:
                counts[metric] += size(args, kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            nested.append(active[name_id] > 0)
            active[name_id] += 1
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[name_id] -= 1

        return wrapper

    def dump(self, path) -> None:
        """Write the spans and counters (an ``.npz`` file)."""
        np.savez(
            path,
            qualnames=np.array(self.qualnames),
            names=np.frombuffer(self.names, dtype=np.uint16),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            nested=np.frombuffer(self.nested, dtype=np.int8).astype(bool),
            starts=np.frombuffer(self.starts),
            ends=np.frombuffer(self.ends),
            counts=json.dumps(self.counts),
        )


def layer_metrics(path) -> dict[str, float]:
    """Per-layer metrics from a span file written by ``Recorder.dump``."""
    with np.load(path) as f:
        qualnames = list(f["qualnames"])
        names, parents, nested = f["names"], f["parents"], f["nested"]
        dur = f["ends"] - f["starts"]
        counts = json.loads(str(f["counts"]))
    k = len(qualnames)
    has_parent = parents >= 0
    child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time
    stat = {
        "calls": np.bincount(names, minlength=k),
        "s": np.bincount(names, weights=np.where(nested, 0.0, dur), minlength=k),
        "self_s": np.bincount(names, weights=self_time, minlength=k),
    }
    out: dict[str, float] = {}
    for i, qual in enumerate(qualnames):
        for s in LAYERS[qual]:
            out[f"{qual}.{s}"] = counts[f"{qual}.{s}"] if s in ("rows", "lanes") else stat[s][i].item()
    main = qualnames.index("cli.main")
    out["cli.overhead_s"] = stat["self_s"][main].item()
    uppers = out["gauss.upper_bound_unbounded.calls"]
    ncx2 = stat["calls"][qualnames.index("special.noncentral_chi2_log_cdf")].item()
    out["special.noncentral_chi2_log_cdf.calls_per_upper"] = ncx2 / uppers if uppers else 0.0
    out["simulate.enum_pairs"] = counts["simulate.enum_pairs"]
    out["simulate.mc_pair_bits"] = counts["simulate.mc_pair_bits"]
    out["trace.spans"] = int(dur.size)
    return out
