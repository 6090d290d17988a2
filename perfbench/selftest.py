"""Tests of the benchmark itself, on the smoke size of every workload.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py so that the repository's own test suite does
not collect it; it takes about two minutes.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import speed
import workloads
from run import topmost_import_seconds

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def _lines(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details), json.loads(result)


def _assert_contract(result: dict, spec_metrics: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_timed_run_emits_every_end_to_end_metric(workload):
    details, result = _lines(_bench(ROOT, workload, trace=0))
    _assert_contract(result, SPEC["end_to_end"])
    for name in ("setup_s", "wall_s", "work_per_s", "peak_rss_mb", "ok_rate"):
        assert result["metrics"][name]["value"] > 0
    assert details["seed"] == 3 and details["nproc"] >= 1
    assert {"python", "numpy", "scipy", "loadavg_before", "loadavg_after"} <= set(details)
    assert all(run.get("sha256") for run in details["cli_runs"])
    # every timed process sampled the host's speed, so its times are in reference seconds
    assert all(run["probes"] >= 1 and run["wall_ref_s"] > 0 for run in details["cli_runs"])


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_traced_run_self_times_add_up_to_its_wall_time(workload):
    details, result = _lines(_bench(ROOT, workload, trace=1))
    _assert_contract(result, SPEC["per_layer"])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    spans = details["spans"]
    roots = [span for span in spans if span["parent"] is None]
    assert len(roots) == len(workloads.build(workload, 3, 1, smoke=True).commands)
    assert all(span["workload"] == workload and span["self_s"] >= -1e-9 for span in spans)
    wall = details["traced_wall_s"]
    assert sum(span["self_s"] for span in spans) == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert metrics["trace.wall_s"] == pytest.approx(wall)
    assert metrics["trace.wall_s"] - metrics["trace.overhead_s"] == pytest.approx(metrics["trace.untraced_wall_s"])


def test_traced_bounds_counts_links_by_suite():
    _, result = _lines(_bench(ROOT, "bounds", trace=1))
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    for suite, links in workloads.SMOKE_GRID.links.items():
        assert metrics[f"inequalities.{suite}.links"] == links
    assert metrics["reporting.rows"] == workloads.SMOKE_GRID.total


def test_default_bounds_grid_matches_its_link_counts_and_digest(tmp_path):
    command = workloads.bounds_command(workloads.FULL_GRID)
    csv = tmp_path / "bounds.csv"
    proc = subprocess.run([sys.executable, "-m", "driftlab.cli", *command.argv, "--out", str(csv)],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=600)
    result = workloads.CliResult(proc.returncode, proc.stdout, str(csv), workloads.file_sha256(csv))
    assert workloads.verify(command, result) == []


def test_refuses_a_directory_without_driftlab_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "check", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probe_log_skips_a_line_cut_short(tmp_path):
    log = tmp_path / "timing.json.123"
    log.write_text("0.0015\n0.0017\n0.00")
    assert speed.read_log(log) == [0.0015, 0.0017]


def test_reference_seconds_scale_with_the_probe():
    assert speed.scale(speed.PROBE_REF_S) == pytest.approx(1.0)
    assert speed.scale(2 * speed.PROBE_REF_S) == pytest.approx(0.5)
    assert speed.scale(0.0) == 1.0


def test_outermost_import_times_skip_nested_lines():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.linalg",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy.stats._a",
        "import time:        70 |         70 |       numpy.fft",
        "import time:        10 |        130 |     scipy.stats._b",
        "import time:         5 |        435 |   driftlab.stats",
        "import time:         5 |        440 | driftlab",
    ])
    assert topmost_import_seconds(log, "numpy") == pytest.approx(370e-6)
    assert topmost_import_seconds(log, "scipy.stats") == pytest.approx(130e-6)
    assert topmost_import_seconds(log, "driftlab") == pytest.approx(440e-6)


def _result(stdout: str, returncode: int = 0) -> workloads.CliResult:
    return workloads.CliResult(returncode, stdout, None, None)


def test_oracles_reject_wrong_outputs():
    short = workloads.build("simulate-short", 3, 2, smoke=True).commands[0]
    assert short.check(_result("counterexample-n15: hits 2000/2000 within horizon 15")) == []
    assert short.check(_result("counterexample-n15: hits 1990/2000 within horizon 15"))

    long = workloads.build("simulate-long", 3, 2, smoke=True).commands[0]
    assert long.check(_result("needle-n50: hits 0/8 within horizon 2500")) == []
    assert long.check(_result("needle-n50: hits 1/8 within horizon 2500"))

    onesided, twosided, _, needle = workloads.build("check", 3, 2, smoke=True).commands
    assert onesided.check(_result("  overall: pass")) == []
    assert onesided.check(_result("  overall: fail", 1))
    assert twosided.check(_result("  overall: fail", 1)) == []
    assert twosided.check(_result("  overall: fail", 0))
    assert needle.check(_result("  overall: inconclusive", 1)) == []
    assert needle.check(_result("  overall: fail", 1))

    bounds = workloads.build("bounds", 3, 2, smoke=True).commands[0]
    total = workloads.SMOKE_GRID.total
    assert bounds.check(_result(f"bounds suite all: {total} links checked, 0 failures")) == []
    assert bounds.check(_result(f"bounds suite all: {total - 1} links checked, 0 failures"))
    assert bounds.check(_result(f"bounds suite all: {total} links checked, 1 failures", 1))
