"""Byte-identity of the CLI's CSVs.

Each CSV below is pinned by its sha256. A change that declares a new
random-stream layout (`Process.stream_layout`, written to the CSV provenance)
or another output change updates these digests in the same change and says
why in CHANGES.md; any other change must leave them as they are.
"""

import hashlib
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from driftlab.cli import main
from helpers import PEA_PRIME_CHECK_INI, hit_probability_within, needle_step_exact

#: simulate configs whose trials hit, written next to example.ini; each
#: budget reaches the 2e6 trial-steps at which run_trials starts its pool
CONFIGS = {
    "needle-hits.ini": "[experiment]\nname = needle-n20-hits\n[process]\nkind = needle\nn = 20\n"
                       "[window]\na = 2\nb = 5\n[budget]\ntrials = 100\nmax_steps = 20000\nmaster_seed = 2\n"
                       "[run]\nhorizon = 20000\n",
    # hits near 5e4 generations, in one automaton block of 10^5: each is timed
    # on a piece whose bounds the lockstep pass found apart
    "needle-late-hits.ini": "[experiment]\nname = needle-n50-late-hits\n[process]\nkind = needle\nn = 50\n"
                            "[window]\na = 11\nb = 20\n[budget]\ntrials = 20\nmax_steps = 100000\nmaster_seed = 3\n"
                            "[run]\nhorizon = 100000\n",
    "walk-delta1-hits.ini": "[experiment]\nname = geometric-walk-delta1-hits\n[process]\nkind = geometric-walk\n"
                            "eps = 0.2\ndelta = 1\nstart = 10\n[window]\nb = 10\n"
                            "[budget]\ntrials = 200\nmax_steps = 10000\nmaster_seed = 11\n[run]\nhorizon = 10000\n",
    # delta = 0.3: a heavier-tailed law, 302 magnitudes a side
    "walk-delta0.3-hits.ini": "[experiment]\nname = geometric-walk-delta0.3-hits\n[process]\nkind = geometric-walk\n"
                              "eps = 0.2\ndelta = 0.3\nstart = 10\n[window]\nb = 10\n"
                              "[budget]\ntrials = 200\nmax_steps = 10000\nmaster_seed = 11\n[run]\nhorizon = 10000\n",
    # PEA' has no exact step law, so its check harvests steps: the empirical path
    "pea-prime-check.ini": PEA_PRIME_CHECK_INI,
}

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
        "3f2044b9c4545694cf3baeeec677e262043e8cef230fe2d21fca822db32e2483",
    ),
    "check-counterexample-onesided": (
        ["check", "--preset", "counterexample-onesided"],
        "0f0e7b492d2b62a105b9bba83dd720132b6e6b76f8d2e74bfe3c53c43a7e5fa6",
    ),
    "check-counterexample-twosided": (
        ["check", "--preset", "counterexample-twosided"],
        "2b96bfb5ef5b49b11541f13d3699a185725f5661ca385f66ddbe5788a20a6904",
    ),
    "check-geometric-walk-twosided": (
        ["check", "--preset", "geometric-walk-twosided"],
        "28ee2f2bda9f8e357b4e2943dba06df67f4144f5453cd0fe0781486b23e21f05",
    ),
    # exact in every window state from the needle's step laws (no harvested samples);
    # an exact check's CSV omits the budget and run keys, which it does not use
    "check-needle-n50-twosided": (
        ["check", "--preset", "needle-n50-twosided"],
        "0f8ac6e23d8b85c4b1cd65b3a639aa5647ccdb4c3bf147df7f24b792a814db9a",
    ),
    "check-pea-prime-empirical": (
        ["check", "--config", "pea-prime-check.ini"],
        "c16a2a7b94918f7ae56100a76c66d3a8e80d494182bb1bb6203bf3d8a386d74b",
    ),
    "jump-table-counterexample-twosided": (
        ["check", "--preset", "counterexample-twosided", "--jump-table"],
        "d509a788f47f7230e3ec80667dbfb18c98f720ff81ad3c549bb9121a0e30396c",
    ),
    "scaling-geometric-walk": (
        ["scaling", "--preset", "geometric-walk-scaling", "--trials", "300"],
        "f8a5d63366dcf2fe76d85c1f4747f88a46874bfa594dced540dcac71da1401ea",
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
        "d6354c988b06cb15b5552d16e0a426a79b26e6136c29d90c02e93643c2c6e834",
    ),
    "bounds-smoke-grid": (
        ["bounds", "--suite", "all", *SMOKE_GRID],
        "c21497c945266aaf42ad293c9a812b7882413d82d1702acf780bc32c37bc0288",
    ),
    # the CSV does not depend on the worker count
    "bounds-smoke-grid-one-worker": (
        ["bounds", "--suite", "all", *SMOKE_GRID, "--threads", "1"],
        "c21497c945266aaf42ad293c9a812b7882413d82d1702acf780bc32c37bc0288",
    ),
    "bounds-smoke-grid-two-workers": (
        ["bounds", "--suite", "all", *SMOKE_GRID, "--threads", "2"],
        "c21497c945266aaf42ad293c9a812b7882413d82d1702acf780bc32c37bc0288",
    ),
    # n = 1125, 1500 and 2000 lie above EXACT_LIMIT and take the log-gamma branch
    "bounds-comma-lambda-log-gamma": (
        ["bounds", "--suite", "comma-lambda", "--n-max", "2000", "--lambda-max", "4", "--j-max", "8"],
        "e841409db6dc4219f666e6096217cfa5a1f6ef6bc4572945c1af85a4a384a9dc",
    ),
    # 40 sum links have q^k >= 2^1000 and take the geometric-series branch
    "bounds-matching-huge-powers": (
        ["bounds", "--suite", "matching", "--m-max", "80", "--j-max", "2"],
        "6f2d01687553612248c7c333a47fd0aa8caeed24bbf8e7191d87535c698f1db6",
    ),
    # hits, on one worker and on the pool, give the same CSV
    "simulate-needle-hits-threads-1": (
        ["simulate", "--config", "needle-hits.ini", "--threads", "1"],
        "6a706659640e4987751eb3da0461534040394be873d15af6419dfcd2c4776542",
    ),
    "simulate-needle-hits-threads-2": (
        ["simulate", "--config", "needle-hits.ini", "--threads", "2"],
        "6a706659640e4987751eb3da0461534040394be873d15af6419dfcd2c4776542",
    ),
    "simulate-needle-late-hits-threads-1": (
        ["simulate", "--config", "needle-late-hits.ini", "--threads", "1"],
        "f5570820aa4ead310d8dcbaa347d0b4d7fed9c915cc391d95945b9a97389ea23",
    ),
    "simulate-needle-late-hits-threads-2": (
        ["simulate", "--config", "needle-late-hits.ini", "--threads", "2"],
        "f5570820aa4ead310d8dcbaa347d0b4d7fed9c915cc391d95945b9a97389ea23",
    ),
    "simulate-walk-delta1-hits-threads-1": (
        ["simulate", "--config", "walk-delta1-hits.ini", "--threads", "1"],
        "0eab4b319b7470992d5bfc83191b6c5d69c98e0f4fb76c721a10637bf7119d79",
    ),
    "simulate-walk-delta1-hits-threads-2": (
        ["simulate", "--config", "walk-delta1-hits.ini", "--threads", "2"],
        "0eab4b319b7470992d5bfc83191b6c5d69c98e0f4fb76c721a10637bf7119d79",
    ),
    "simulate-walk-delta0.3-hits-threads-1": (
        ["simulate", "--config", "walk-delta0.3-hits.ini", "--threads", "1"],
        "f90d50bb1198f1fff1a9b934b94ad5175fcba812c84ce2daddc0e9c4e1bf92c5",
    ),
    "simulate-walk-delta0.3-hits-threads-2": (
        ["simulate", "--config", "walk-delta0.3-hits.ini", "--threads", "2"],
        "f90d50bb1198f1fff1a9b934b94ad5175fcba812c84ce2daddc0e9c4e1bf92c5",
    ),
}


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_digest(name, tmp_path, capsys, monkeypatch):
    argv, digest = GOLDEN[name]
    # example.ini is the example config file of README's configuration section
    example = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "example.ini").write_text(example)
    for file, text in CONFIGS.items():
        (tmp_path / file).write_text(text)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.csv"
    # --jump-table takes the path itself; every other command writes --out
    argv = [*argv, str(out)] if argv[-1] == "--jump-table" else [*argv, "--out", str(out)]
    assert main(argv) in (0, 1)
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def needle_hit_probability(n, a, b, horizon):
    """P(the needle at rate 1/n is at or below a within `horizon` generations),
    from Bin(n, 1/2) conditioned on d >= b as run_trials redraws its starts.
    The live states a < d <= n carry their law from `needle_step_exact`, and
    one absorbing column gathers the hits, so nothing is read as 1 - survival;
    the matrix is raised to the horizon by repeated squaring."""
    live = range(math.floor(a) + 1, n + 1)
    size = len(live) + 1
    matrix = np.zeros((size, size))
    matrix[-1, -1] = 1.0
    for row, d in enumerate(live):
        law, denominator = needle_step_exact(n, d)
        for step, weight in law.items():
            column = d + step - live.start if d + step in live else -1
            matrix[row, column] += float(Fraction(weight, denominator))
    power, result = matrix, np.eye(size)
    while horizon:
        if horizon & 1:
            result = result @ power
        power, horizon = power @ power, horizon >> 1
    starts = np.array([math.comb(n, d) if d >= b else 0 for d in live], dtype=float)
    return float(starts @ result[:-1, -1] / starts.sum())


def binomial_tail_ok(hits, trials, p, level=1e-3):
    """True when `hits` lies in the two-sided level interval of Bin(trials, p):
    neither P(X <= hits) nor P(X >= hits) is below level / 2."""
    pmf = [math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1)]
    return sum(pmf[:hits + 1]) >= level / 2 and sum(pmf[hits:]) >= level / 2


def golden_hits(config, tmp_path, capsys, monkeypatch):
    """(hits, trials) of the simulate golden run from `config`."""
    (tmp_path / config).write_text(CONFIGS[config])
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", config, "--out", "out.csv"]) == 0
    capsys.readouterr()
    summary = (tmp_path / "out.csv").read_text().splitlines()[-1]
    fields = dict(item.split("=") for item in summary.removeprefix("# summary: ").split())
    return int(fields["hits"]), int(fields["trials"])


@pytest.mark.parametrize("config, n, a, b, horizon, exact", [
    ("needle-hits.ini", 20, 2, 5, 20_000, 0.85607),
    ("needle-late-hits.ini", 50, 11, 20, 100_000, 0.74650),
])
def test_needle_golden_hits_agree_with_the_exact_probability(config, n, a, b, horizon, exact, tmp_path, capsys,
                                                             monkeypatch):
    """The hit count of each needle golden lies in the 99.9% binomial interval
    of its exact hit probability."""
    p = needle_hit_probability(n, a, b, horizon)
    assert p == pytest.approx(exact, abs=5e-6)
    hits, trials = golden_hits(config, tmp_path, capsys, monkeypatch)
    assert binomial_tail_ok(hits, trials, p), (hits, trials, p)


@pytest.mark.parametrize("config, delta, exact", [
    ("walk-delta1-hits.ini", 1.0, 0.47789),
    ("walk-delta0.3-hits.ini", 0.3, 0.85076),
])
def test_walk_golden_hits_agree_with_the_exact_probability(config, delta, exact, tmp_path, capsys, monkeypatch):
    """The hit count of each walk golden (eps 0.2, start 10, target 0, 10,000
    steps) lies in the 99.9% binomial interval of its exact hit probability,
    which the DP brackets to within 1e-9."""
    low, high = hit_probability_within(0.2, delta, 10, 10_000)
    assert high - low < 1e-9 and low == pytest.approx(exact, abs=5e-6)
    hits, trials = golden_hits(config, tmp_path, capsys, monkeypatch)
    assert binomial_tail_ok(hits, trials, low) and binomial_tail_ok(hits, trials, high), (hits, trials, low)
