"""Byte-identity of the CLI's CSVs.

Each CSV below is pinned by its sha256. A change that declares a new
random-stream layout (ROADMAP item 5) updates these digests in the same
change; any other change must leave them as they are.
"""

import hashlib
from pathlib import Path

import pytest

from driftlab.cli import main

SMOKE_GRID = ["--n-max", "30", "--m-max", "30", "--mu-max", "5", "--phi-max", "10",
              "--lambda-max", "8", "--j-max", "16"]

GOLDEN = {
    "simulate-counterexample-n15": (
        ["simulate", "--preset", "counterexample-n15"],
        "6d4ddcd91fbd4f128d81aac22dd0ed5caa9de2a35f6a3fd4b147da1f68a4a3ff",
    ),
    "simulate-counterexample-n10": (
        ["simulate", "--preset", "counterexample-n10"],
        "b93773809c1b6a6850ccb93ced562dc59e0605aa02271c87a866a8dd433d09fc",
    ),
    "simulate-geometric-walk-l30": (
        ["simulate", "--preset", "geometric-walk-l30"],
        "9de6cd0630632bea1d89b25acd9764fc45e0d1ec412d5575dbf650b9afa20292",
    ),
    "check-counterexample-onesided": (
        ["check", "--preset", "counterexample-onesided"],
        "7d67aa44faa6b26c55e891c1ac6afbeb8b7273a89cdb5ef311e4831acc00af07",
    ),
    "check-counterexample-twosided": (
        ["check", "--preset", "counterexample-twosided"],
        "acfb2ce4cac80b25d1438ef01215bc169de6f275664077bfa4222817f72fb9b4",
    ),
    "check-geometric-walk-twosided": (
        ["check", "--preset", "geometric-walk-twosided"],
        "43231a6320d9e7f067ad8cef6f970e44379360d09d130581545a565448f4d7dc",
    ),
    "check-needle-n50-twosided": (
        ["check", "--preset", "needle-n50-twosided"],
        "7b50ebeaf946c90e489bcec2f9696f3fda430c49069536d8232a5d1c02fd6657",
    ),
    "jump-table-counterexample-twosided": (
        ["check", "--preset", "counterexample-twosided", "--jump-table"],
        "43fe870f5ba409f4d977e0c0ec6ff9e4ca83e23aeafb97d5815b671a738c122f",
    ),
    "scaling-geometric-walk": (
        ["scaling", "--preset", "geometric-walk-scaling", "--trials", "300"],
        "55b9cf097a1c65b09d8e07687a98b6ac764050a19e159d74f4157fa936caae0e",
    ),
    "scaling-counterexample": (
        ["scaling", "--preset", "counterexample-scaling", "--trials", "300"],
        "cab423ebab740e59fcae421050b6e4e5019afd412e24d43e10eec0cd84c5d66a",
    ),
    "constants": (
        ["constants", "--eps", "0.2", "--delta", "1", "--ell", "30"],
        "651c5bbae86e2b9ef26a69d20807a460e16388a8f9cbb2b2f86399b5db644c82",
    ),
    "simulate-readme-config": (
        ["simulate", "--config", "example.ini"],
        "c5889923c9b4b94482f0fd2859bffd946e518ea507ba02e6d7cffe4b88fe3430",
    ),
    "bounds-smoke-grid": (
        ["bounds", "--suite", "all", *SMOKE_GRID],
        "c21497c945266aaf42ad293c9a812b7882413d82d1702acf780bc32c37bc0288",
    ),
}


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_digest(name, tmp_path, capsys, monkeypatch):
    argv, digest = GOLDEN[name]
    # example.ini is the example config file of README's configuration section
    example = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "example.ini").write_text(example)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.csv"
    # --jump-table takes the path itself; every other command writes --out
    argv = [*argv, str(out)] if argv[-1] == "--jump-table" else [*argv, "--out", str(out)]
    assert main(argv) in (0, 1)
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
