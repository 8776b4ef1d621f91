"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repository root.

They start worker interpreters and take about two minutes.
"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import Checks, check_rep  # noqa: E402
from run import RUN_DEADLINE_S, Runner  # noqa: E402
from speed import INTERVAL_S, REF_CHUNK_S, SpeedSampler  # noqa: E402
from workloads import WORKLOAD_NAMES, steps  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke():
    """The result line and report of every workload at smoke size, untraced and traced."""
    out = {}
    for workload in WORKLOAD_NAMES:
        for trace in ("0", "1"):
            proc = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--smoke")
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.splitlines()[-1]), proc.stdout
    return out


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_emits_every_metric(smoke, workload, trace, section):
    result, _ = smoke[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_known_defect_is_the_only_failure(smoke):
    for (workload, _), (result, report) in smoke.items():
        fails = [ln.split()[1] for ln in report.splitlines() if ln.strip().startswith("FAIL ")]
        expected = ["cross_route:gauss:n=64"] if workload == "gauss-curve" else []
        assert fails == expected, report
        assert result["correct"] and result["failed"] == len(expected)


def test_known_defect_only_up_to_its_recorded_size():
    name = "cross_route:gauss:n=64"
    for error, known in ((5.05e-6, True), (2e-5, False), (math.nan, False)):
        checks = Checks()
        checks.check(name, False, "relative error", error=error)
        assert checks.known(name) is known
    checks = Checks()
    checks.check("cross_route:gauss:n=128", False, "relative error", error=5.05e-6)
    assert not checks.known("cross_route:gauss:n=128")


def test_wrappers_sit_at_the_layer_boundary(smoke):
    bss_layers = smoke["bss-curve", "1"][0]["metrics"]
    assert bss_layers["special.log_cone_area.calls"]["value"] == 0
    assert bss_layers["logdomain.log_binomial.calls"]["value"] > 0
    gauss_layers = smoke["gauss-curve", "1"][0]["metrics"]
    assert gauss_layers["special.log_cone_area.calls"]["value"] > 0
    assert gauss_layers["special.log_cone_area.lanes"]["value"] >= gauss_layers["special.log_cone_area.calls"]["value"]


def test_speed_scaling_weights_samples_by_wall_time():
    sampler = SpeedSampler()
    sampler.wall = 2.0
    # half the samples at the reference speed, half at twice that speed
    sampler.samples = [REF_CHUNK_S, REF_CHUNK_S / 2]
    assert sampler.scaled() == pytest.approx(3.0)


def test_speed_sampler_samples_while_active():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        end = time.perf_counter() + 10 * INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 5
    assert 0 < sampler.wall < 10 * INTERVAL_S + 0.01
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_perturbed_reference_raises_fail_frac():
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["bss-curve"]
    runner = Runner("bss-curve", time.monotonic() + RUN_DEADLINE_S)
    rep_dir, res = runner.spawn(steps("bss-curve", seed=1))
    clean = Checks()
    check_rep(clean, rep_dir, res["outputs"], reference)
    assert clean.failures() == {}

    key = "curve:n=20000:lower"
    gap = reference[key] - reference["curve:n=20000:asymptote"]
    perturbed = Checks()
    check_rep(perturbed, rep_dir, res["outputs"], dict(reference, **{key: reference[key] + 0.01 * gap}))
    assert list(perturbed.failures()) == [f"ref:{key}"]
    assert perturbed.attempted == clean.attempted
    assert perturbed.fail_frac > clean.fail_frac


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "bss-curve", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
