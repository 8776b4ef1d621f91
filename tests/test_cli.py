import csv
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from rdflb import bns, bss, cli, gauss
from rdflb.cli import _fmt, main
from rdflb.ratedistortion import BinaryNonSymmetricSource, GaussianSource, solve
from rdflb.special import binary_entropy, inverse_binary_entropy

P, RATE, EPS, REF_RATE = 0.25, 0.3, 0.01, 0.25
BNS_CURVE = ["curve", "bns", "--p", str(P), "--rate", str(RATE), "--eps", str(EPS),
             "--ref-rate", str(REF_RATE), "--n", "40:80:40", "--jobs", "1"]


def test_curve_bns_cells_match_direct_calls(tmp_path):
    out = tmp_path / "bns.csv"
    assert main(BNS_CURVE + ["--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# params: family=bns")
    rows = list(csv.DictReader(lines[1:]))
    assert [row["n"] for row in rows] == ["40", "80"]
    dstar = solve(BinaryNonSymmetricSource(P), RATE).dstar
    d0 = inverse_binary_entropy(binary_entropy(P) - REF_RATE)
    for row in rows:
        n = int(row["n"])
        assert row == {
            "n": str(n),
            "asymptote": _fmt(dstar),
            "lower": _fmt(bns.lower_bound(n, RATE, P), "lower"),
            "upper_os_0.01": _fmt(bns.upper_bound_os(n, RATE, P, EPS).value, "upper"),
            "upper_rr_0.25": _fmt(bns.upper_bound_rr(n, RATE, P, d0), "upper"),
        }


def test_curve_bns_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(BNS_CURVE + ["--out", str(a)]) == 0
    assert main(BNS_CURVE + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_curve_bns_text_at_the_benchmark_configuration(tmp_path):
    out = tmp_path / "bns.csv"
    argv = ["curve", "bns", "--p", "0.25", "--rate", "0.3", "--eps", "0.01", "--ref-rate", "0.25",
            "--n", "200:600:200", "--jobs", "1", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text(encoding="utf-8") == (
        "# params: family=bns rate=0.3 n=200:600:200 p=0.25 sigma2=1.0 eps=[0.01] ref_rate=[0.25] "
        "alpha=None unbounded=False legacy_eps=None delta=0.5\n"
        "n,asymptote,lower,upper_os_0.01,upper_rr_0.25\n"
        "200,0.113801878,0.1145638338,0.1293690737,0.222527401\n"
        "400,0.113801878,0.1141747393,0.1238564763,0.1850302642\n"
        "600,0.113801878,0.114037479,0.1219265926,0.1648603298\n"
    )


def test_curve_bss_text_at_the_benchmark_configuration(tmp_path):
    out = tmp_path / "bss.csv"
    argv = ["curve", "bss", "--rate", "0.5", "--eps", "0.01", "--ref-rate", "0.45", "--legacy-eps", "0.0485",
            "--n", "20000:60000:20000", "--jobs", "1", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text(encoding="utf-8") == (
        "# params: family=bss rate=0.5 n=20000:60000:20000 p=None sigma2=1.0 eps=[0.01] ref_rate=[0.45] "
        "alpha=None unbounded=False legacy_eps=0.0485 delta=0.5\n"
        "n,asymptote,lower,upper_os_0.01,upper_rr_0.45,upper_legacy_0.45\n"
        "20000,0.1100278644,0.1101380312,0.1140980001,0.127304806,0.127304807\n"
        "40000,0.1100278644,0.1100893219,0.11402375,0.127304806,0.127304806\n"
        "60000,0.1100278644,0.110068668,0.1139825001,0.127304806,0.127304806\n"
    )


def test_curve_header_names_every_curve_option_in_parser_order(tmp_path):
    out = tmp_path / "bss.csv"
    argv = ["curve", "bss", "--rate", "0.5", "--eps", "0.01", "--n", "100:100:100", "--jobs", "1", "--out", str(out)]
    assert main(argv) == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("# params: family=bss rate=0.5 n=100:100:100 p=None ")
    want = [k for k in vars(cli._build_parser().parse_args(argv)) if k not in ("command", "jobs", "out", "func")]
    assert re.findall(r"(\w+)=", header) == want


def test_fmt_rounds_a_bound_toward_its_valid_side():
    assert (_fmt(0.1, "lower"), _fmt(0.1), _fmt(0.1, "upper")) == ("0.1", "0.1", "0.1000000001")
    rng = random.Random(0)
    for v in (math.exp(rng.uniform(-30.0, 5.0)) for _ in range(2000)):
        lo, hi = _fmt(v, "lower"), _fmt(v, "upper")
        assert Fraction(lo) <= Fraction(v) <= Fraction(hi)
        assert _fmt(v) in (lo, hi)  # the same text style as nearest rounding


def _record_bounds(monkeypatch) -> list[tuple]:
    """Make cli._bounds also append every (column, side, value, degenerate) it yields to the returned list."""
    seen, real = [], cli._bounds

    def record(*args):
        for bound in real(*args):
            seen.append(bound)
            yield bound

    monkeypatch.setattr(cli, "_bounds", record)
    return seen


def _on_valid_side(printed: str, side: str, value: float) -> bool:
    return Fraction(printed) <= Fraction(value) if side == "lower" else Fraction(printed) >= Fraction(value)


# the benchmark's curve steps, and a small-n Gaussian sweep over two eps and three classes
SIDE_CURVES = {
    "gauss": ["gauss", "--rate", "0.5", "--eps", "0.005", "--alpha", "2", "--unbounded", "--n", "64:64:64"],
    "gauss_small_n": ["gauss", "--rate", "0.5", "--eps", "0.005", "0.1", "--alpha", "0.5", "2", "--unbounded",
                      "--n", "8:40:16"],
    "bss": ["bss", "--rate", "0.5", "--eps", "0.01", "--ref-rate", "0.45", "--legacy-eps", "0.0485",
            "--n", "20000:60000:20000"],
    "bns": ["bns", "--p", "0.25", "--rate", "0.3", "--eps", "0.01", "--ref-rate", "0.25", "--n", "200:600:200"],
    "degen_bns": ["bns", "--p", "0.5", "--rate", "0.5", "--eps", "0.01", "--ref-rate", "0.45", "--n", "200:200:200"],
    "degen_bss": ["bss", "--rate", "0.5", "--eps", "0.01", "--ref-rate", "0.45", "--n", "200:200:200"],
}


@pytest.mark.parametrize("argv", SIDE_CURVES.values(), ids=SIDE_CURVES.keys())
def test_curve_prints_every_bound_on_its_valid_side(tmp_path, monkeypatch, argv):
    seen = _record_bounds(monkeypatch)
    out = tmp_path / "curve.csv"
    assert main(["curve", *argv, "--jobs", "1", "--out", str(out)]) == 0
    rows = csv.DictReader(out.read_text(encoding="utf-8").splitlines()[1:])
    printed = [(col, text) for row in rows for col, text in row.items() if col not in ("n", "asymptote", "flags")]
    assert [col for col, _ in printed] == [col for col, *_ in seen]
    for (col, text), (_, side, value, _) in zip(printed, seen):
        assert side == col.split("_")[0]
        assert _on_valid_side(text, side, value), (col, text, value)
        assert float(text) == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize("family,source,n,rate", [
    ("bss", [], "16", "0.5"),
    ("bns", ["--p", "0.25"], "20", "0.3"),
], ids=["bss", "bns"])
def test_validate_prints_the_curve_cells_on_their_valid_side(tmp_path, monkeypatch, capsys, family, source, n, rate):
    seen = _record_bounds(monkeypatch)
    assert main(["validate", family, *source, "--n", n, "--rate", rate, "--trials", "2000", "--codebooks", "1"]) == 0
    printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    (_, _, lower, _), (_, _, upper, _) = seen
    assert _on_valid_side(printed["lower"], "lower", lower)
    assert _on_valid_side(printed["upper_os"], "upper", upper)
    out = tmp_path / "curve.csv"
    argv = ["curve", family, *source, "--rate", rate, "--eps", "0.01", "--n", f"{n}:{n}:1", "--jobs", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    (row,) = csv.DictReader(out.read_text(encoding="utf-8").splitlines()[1:])
    assert (row["lower"], row["upper_os_0.01"]) == (printed["lower"], printed["upper_os"])


LEGACY_CURVE = ["curve", "bss", "--rate", "0.5", "--eps", "0.01", "--ref-rate", "0.45", "--legacy-eps", "0.0485",
                "--n", "100:100:100", "--jobs", "1"]


@pytest.mark.parametrize("bound,fake,flag", [
    ("upper_bound_os", SimpleNamespace(value=0.0, degenerate=False), "cross_upper_os_0.01"),
    ("upper_bound_os", SimpleNamespace(value=0.0, degenerate=True), "upper_os_0.01_degenerate"),
    ("upper_bound_rr", 0.0, "cross_upper_rr_0.45"),
    ("upper_bound_legacy", 0.0, "cross_upper_legacy_0.45"),
], ids=["os_cross", "os_degenerate", "rr_cross", "legacy_cross"])
def test_every_upper_column_is_flagged_by_one_rule(tmp_path, monkeypatch, bound, fake, flag):
    out = tmp_path / "bss.csv"
    assert main(LEGACY_CURVE + ["--out", str(out)]) == 0
    assert "flags" not in out.read_text(encoding="utf-8").splitlines()[1]
    monkeypatch.setattr(bss, bound, lambda *a, **k: fake)
    assert main(LEGACY_CURVE + ["--out", str(out)]) == 0
    (row,) = csv.DictReader(out.read_text(encoding="utf-8").splitlines()[1:])
    assert row["flags"] == flag


def test_curve_bns_at_n_one(tmp_path):
    # the rearrangement walk at n = 1 subtracts two log multiplicities that
    # differ in their last bit; log_diff must not raise on that
    out = tmp_path / "bns1.csv"
    argv = ["curve", "bns", "--p", str(P), "--rate", str(RATE), "--eps", str(EPS),
            "--n", "1:1:1", "--jobs", "1", "--out", str(out)]
    assert main(argv) == 0
    (row,) = csv.DictReader(out.read_text(encoding="utf-8").splitlines()[1:])
    assert float(row["lower"]) >= float(row["asymptote"])


@pytest.mark.parametrize("argv", [
    ["curve", "bns", "--rate", "0.3", "--eps", "0.01", "--n", "40:80:40"],
    ["curve", "bns", "--p", "0.25", "--rate", "0.3", "--eps", "0.01", "--n", "80:40:40"],
    ["curve", "bns", "--p", "1.5", "--rate", "0.3", "--eps", "0.01", "--n", "40:40:40"],
    ["curve", "bss", "--rate", "0.5", "--eps", "0.01", "--n", "4:8:4", "--legacy-eps", "0.1"],
], ids=["bns_without_p", "empty_n_range", "bns_p_out_of_range", "legacy_eps_without_ref_rate"])
def test_curve_usage_errors_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main(argv + ["--jobs", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--n", "2:2:2"], "error: n=2: codebook size must be at least 3"),
    (["--n", "8:8:8", "--alpha", "0"], "error: --alpha must be > 0"),
    (["--n", "8:8:8", "--alpha", "2", "-1"], "error: --alpha must be > 0"),
    (["--n", "8:8:8", "--ref-rate", "0.3"], "error: --ref-rate applies to the bss and bns families only"),
], ids=["codebook_below_three", "alpha_zero", "alpha_negative", "ref_rate"])
def test_curve_gauss_input_errors_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    argv = ["curve", "gauss", "--rate", "0.5", "--eps", "0.005", *argv, "--jobs", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert not out.exists()


def test_curve_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(BNS_CURVE + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.parent.exists()


BSS_ROW = ["curve", "bss", "--rate", "0.5", "--n", "100:100:100", "--jobs", "1"]


@pytest.mark.parametrize("argv,message", [
    (BNS_CURVE + ["--jobs", "0"], "error: --jobs must be >= 1, got 0\n"),
    (BNS_CURVE + ["--jobs", "-3"], "error: --jobs must be >= 1, got -3\n"),
    (BNS_CURVE + ["--ref-rate", "0.9"], "error: --ref-rate must lie in (0, rate)\n"),
    (BNS_CURVE + ["--ref-rate", "0.3"], "error: --ref-rate must lie in (0, rate)\n"),
    (BSS_ROW + ["--eps", "0.01", "--ref-rate", "0.5"], "error: --ref-rate must lie in (0, rate)\n"),
    (BSS_ROW + ["--eps", "0.01", "0.01000001"], "error: n=100: two bounds print as column upper_os_0.01\n"),
], ids=["jobs_zero", "jobs_negative", "bns_ref_rate_above_rate", "bns_ref_rate_at_rate", "bss_ref_rate_at_rate",
        "eps_printing_as_one_column"])
def test_curve_option_errors_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_curve_refuses_the_config_flag(tmp_path, capsys):
    cfg, out = tmp_path / "curve.cfg", tmp_path / "x.csv"
    cfg.write_text(f"rate = {RATE}\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(BNS_CURVE + ["--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2 and "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--rate", "--n", "--out"])
def test_curve_without_a_required_flag_exits_2(tmp_path, capsys, flag):
    argv = BNS_CURVE + ["--out", str(tmp_path / "x.csv")]
    i = argv.index(flag)
    with pytest.raises(SystemExit) as exc:
        main(argv[:i] + argv[i + 2:])
    assert exc.value.code == 2 and f"required: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


GAUSS_CURVE = ["curve", "gauss", "--rate", "0.5", "--eps", "0.005", "--alpha", "2", "--unbounded", "--n", "16:32:16"]


def _assert_gauss_cells(rows, rate: float, eps: float, sigma2: float = 1.0, delta: float = 0.5):
    """Assert that each row holds the cold direct calls for the alpha = 2 and unbounded classes."""
    dstar = solve(GaussianSource(sigma2), rate).dstar
    for row in rows:
        n = int(row["n"])
        want = {"n": str(n), "asymptote": _fmt(dstar)}
        for tag, rm in (("a2", math.sqrt(2.0 * n)), ("unbounded", None)):
            gauss._class_table.cache_clear()
            gauss._lane_table.cache_clear()
            inp = gauss.GaussBoundInput(n, rate, sigma2, rm=rm, eps=eps, delta=delta)
            upper = gauss.upper_bound_unbounded(inp) if rm is None else gauss.upper_bound_bounded(inp)
            want[f"lower_{tag}"] = _fmt(gauss.lower_bound(inp), "lower")
            want[f"upper_os_{eps:g}_{tag}"] = _fmt(upper.value, "upper")
        assert row == want


def test_curve_gauss_cells_match_direct_calls(tmp_path):
    # the CLI runs the alpha = 2 class first, and the unbounded one reads
    # its shared norm lanes; every cell must still be the cold value
    one, two = tmp_path / "jobs1.csv", tmp_path / "jobs2.csv"
    assert main(GAUSS_CURVE + ["--jobs", "1", "--out", str(one)]) == 0
    assert main(GAUSS_CURVE + ["--jobs", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    rows = list(csv.DictReader(one.read_text(encoding="utf-8").splitlines()[1:]))
    assert [row["n"] for row in rows] == ["16", "32"]
    _assert_gauss_cells(rows, 0.5, 0.005)


def test_curve_gauss_reads_sigma2_and_delta(tmp_path):
    out = tmp_path / "gauss.csv"
    argv = ["curve", "gauss", "--sigma2", "2", "--delta", "0.4", "--rate", "0.5", "--eps", "0.005", "--alpha", "2",
            "--unbounded", "--n", "8:8:8", "--jobs", "1", "--out", str(out)]
    assert main(argv) == 0
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()[1:]))
    assert [row["n"] for row in rows] == ["8"]
    _assert_gauss_cells(rows, 0.5, 0.005, sigma2=2.0, delta=0.4)


def _loaded_at_import(*modules):
    """The modules among ``modules`` that a fresh ``import rdflb, rdflb.cli`` loads."""
    code = f"import sys, rdflb, rdflb.cli; print(' '.join(m for m in {modules!r} if m in sys.modules))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_loads_no_heavy_scipy_modules():
    # rdflb imports only scipy.special; the optimizers, integrators and
    # distributions stay out of every CLI start (tests may use them as oracles)
    assert _loaded_at_import("scipy.optimize", "scipy.integrate", "scipy.stats") == ""


def test_import_loads_no_multiprocessing():
    # only a curve with --jobs > 1 and more than one row starts a process pool
    assert _loaded_at_import("multiprocessing", "concurrent.futures.process") == ""


VALIDATE_BSS = ["validate", "bss", "--n", "8", "--rate", "0.5", "--trials", "2000", "--codebooks", "2"]


def test_validate_passes_and_is_byte_identical_across_runs(capsys):
    assert main(VALIDATE_BSS + ["--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(VALIDATE_BSS + ["--seed", "1"]) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[-1] == "pass=true"


def test_validate_failed_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(bss, "upper_bound_os", lambda *a, **k: SimpleNamespace(value=0.0, degenerate=False))
    assert main(VALIDATE_BSS + ["--seed", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "sandwich_pass=false" in out and out[-1] == "pass=false"


def test_validate_bns_beyond_the_enumeration_limit_runs_the_monte_carlo(capsys):
    # bns validate enumerates nothing, so n > 24 is inside its budget
    assert main(["validate", "bns", "--p", "0.25", "--n", "30", "--rate", "0.3", "--trials", "1000"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "pass=true"


def test_validate_bns_with_multiword_codewords(capsys):
    # n = 70 draws and compares codewords of two uint64 words each
    assert main(["validate", "bns", "--p", "0.25", "--n", "70", "--rate", "0.1", "--trials", "200"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "pass=true"


def test_validate_accepts_negative_seed(capsys):
    assert main(VALIDATE_BSS + ["--seed", "-1"]) == 0
    assert "seed=-1" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("argv,code", [
    (["validate", "bns", "--n", "8", "--rate", "0.3", "--trials", "10"], 2),
    (["validate", "bns", "--p", "1.5", "--n", "8", "--rate", "0.3", "--trials", "10"], 2),
    (VALIDATE_BSS[:-1] + ["0"], 2),
    (["validate", "bss", "--n", "25", "--rate", "0.5", "--trials", "10"], 3),
], ids=["bns_without_p", "bns_p_out_of_range", "zero_codebooks", "n_over_enumeration_budget"])
def test_validate_errors_exit_with_their_code(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["curve", "bss", "--p", "0.3", "--rate", "0.5", "--eps", "0.01", "--n", "8:8:8"],
    ["curve", "gauss", "--p", "0.3", "--rate", "0.5", "--eps", "0.005", "--n", "8:8:8"],
    ["validate", "bss", "--p", "0.3", "--n", "8", "--rate", "0.5", "--trials", "10"],
], ids=["curve_bss_flag", "curve_gauss_flag", "validate_bss_flag"])
def test_p_outside_the_bns_family_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    if argv[0] == "curve":
        argv = argv + ["--jobs", "1", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --p applies to the bns family only\n" and captured.out == ""
    assert not out.exists()


def test_validate_refuses_a_fractional_nr_past_the_double_range_at_once(monkeypatch, capsys):
    # nR = 1200.6: 2.0**nR overflows a double, and the MC budget refuses the run before any bound runs
    monkeypatch.setattr("rdflb.cli._bounds", lambda *args: pytest.fail("bounds ran before the budget check"))
    assert main(["validate", "bns", "--p", "0.25", "--n", "2001", "--rate", "0.6", "--trials", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Q*trials*n = 2**") and captured.err.count("\n") == 1
    assert "exceeds the MC budget" in captured.err


# the benchmark's validate steps at seed 1, whole
BENCH_VALIDATE = {
    "bns": (["--p", "0.25", "--n", "20", "--rate", "0.3", "--trials", "100000"], """\
source=bns
n=20
rate=0.3
trials=100000
seed=1
eps=0.01
asymptote=0.113801878
lower=0.1211031641
mc_mean=0.155028
mc_stderr=0.0002102573048
upper_os=0.2194941939
sandwich_pass=true
pass=true
"""),
    "bss": (["--n", "16", "--rate", "0.5", "--trials", "20000", "--codebooks", "1"], """\
source=bss
n=16
rate=0.5
trials=20000
seed=1
eps=0.01
asymptote=0.1100278644
lower=0.1496582031
mc_mean=0.162228125
mc_stderr=0.0003154784797
upper_os=0.2525000001
sandwich_pass=true
identity_max_residual=1.249000903e-16
thm4_margin=1.428989967
identity_pass=true
thm4_pass=true
pass=true
"""),
}


@pytest.mark.parametrize("family", BENCH_VALIDATE)
def test_validate_prints_the_pinned_benchmark_run(capsys, family):
    argv, want = BENCH_VALIDATE[family]
    assert main(["validate", family, *argv, "--seed", "1"]) == 0
    assert capsys.readouterr().out == want
