"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from helpers import brute_expectation, random_discrete_distribution, random_nondecreasing_step_function

import driftlab as dl
from driftlab.cli import main
from driftlab.rng import generator
from driftlab.stats import wilson_interval

mp.mp.dps = 50


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def read_rows(path):
    import csv

    rows = []
    header = None
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        for record in reader:
            if header is None:
                header = record
            else:
                rows.append(dict(zip(header, record)))
    return rows


def test_criterion_1_counterexample_reproduction(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "counterexample-n15.csv"
    assert main(["simulate", "--preset", "counterexample-n15", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 10_000
    hits = sum(1 for r in rows if r["hit_time"] != "")
    point = hits / len(rows)
    oracle = float((1 - mp.e**-15) ** 15)
    assert oracle == pytest.approx(1 - 4.59e-6, abs=2e-7)
    assert point >= 0.999
    assert main(["check", "--preset", "counterexample-onesided"]) == 0
    assert main(["check", "--preset", "counterexample-twosided"]) != 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"point {point:.6f} >= 0.999 (oracle {oracle:.8f}); one-sided exit 0, "
              f"two-sided exit nonzero; {elapsed:.2f}s")


def test_criterion_2_corrected_theorem_witness(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "geometric-scaling.csv"
    assert main(["scaling", "--preset", "geometric-walk-scaling", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [float(r["ell"]) for r in rows] == [10.0, 20.0, 30.0, 40.0]
    points = [float(r["point"]) for r in rows]
    assert points == sorted(points, reverse=True), "escape probability must be non-increasing in ell"
    for r in rows:
        assert float(r["trials"]) == 200
        if float(r["ell"]) >= 30:
            assert int(r["hits"]) == 0
        half_width = (float(r["ci_high"]) - float(r["ci_low"])) / 2
        assert float(r["point"]) + 3 * half_width <= float(r["escape_bound"])
        assert r["condition"] == "two-sided condition: PASS"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(2, f"points {points} non-increasing, 0 hits for ell >= 30, "
              f"all within the certified bound; {elapsed:.2f}s")


def test_criterion_3_lemma_oracle_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(715)
    checked = 0
    for _ in range(1000):
        x_min = float(rng.integers(-10, 11))
        values, probs = random_discrete_distribution(rng, x_min=x_min)
        f = random_nondecreasing_step_function(rng, x_min=values[0])
        tail = _empirical_tail(values, probs)
        bound = dl.lemma_tail_bound(dl.LemmaInput(x_min=float(values[0]), tail=tail, f=f, terms=25))
        assert bound >= brute_expectation(values, probs, f) - 1e-9
        checked += 1
    # constant case: X degenerate at x_min with constant f attains equality
    const = dl.lemma_tail_bound(
        dl.LemmaInput(x_min=2.0, tail=lambda i: 1.0 if i == 0 else 0.0, f=lambda x: 7.25, terms=4)
    )
    assert const == pytest.approx(7.25, rel=1e-14)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"{checked} random pairs dominated by the tail-sum bound, "
              f"constant case tight; {elapsed:.2f}s")


def _empirical_tail(values, probs):
    def tail(i):
        return float(probs[values >= values[0] + i - 1e-12].sum())

    return tail


def test_criterion_4_mgf_bound_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(929)
    checked = 0
    for _ in range(100):
        delta = float(rng.uniform(0.1, 3.0))
        eps_cap = (1.0 + delta) / delta
        eps = float(rng.uniform(0.05, 0.9) * eps_cap)
        walk = dl.GeometricDriftWalk(eps, delta)
        # r = 2 certifies the two-sided condition whenever delta <= 1; the
        # walk's exact tail needs r = 1 + delta beyond that
        r = max(2.0, 1.0 + delta)
        check = dl.mgf_bound_check(walk.jump_table(), delta=delta, r=r)
        assert check.verdict, (delta, eps)
        assert check.estimate == pytest.approx(2.0 + delta, rel=1e-9)
        # the criterion's literal inequality at r = 2 holds for every delta
        assert check.estimate <= 2.0 * (4.0 + delta + 2.0 / delta)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(4, f"{checked} geometric tables: exact exponential moment 2+delta within "
              f"r*(4+delta+2/delta); {elapsed:.2f}s")


def test_criterion_5_constants_regression():
    constants = dl.derive_constants(eps=1.0, delta=1.0, r=2.0, ell=123.0)
    gamma_ref = mp.log(mp.mpf(3) / 2)
    c_ref = 2 * (4 + 1 + 2) / gamma_ref**2
    lam_ref = min(gamma_ref, 1 / (2 * c_ref))
    p_ref = 2 / lam_ref
    assert constants.gamma == pytest.approx(float(gamma_ref), rel=1e-9)
    assert constants.c_bound == pytest.approx(float(c_ref), rel=1e-9)
    assert constants.lam == pytest.approx(float(lam_ref), rel=1e-9)
    assert constants.p_ell == pytest.approx(float(p_ref), rel=1e-9)
    # printed reference digits
    assert constants.gamma == pytest.approx(0.405465, abs=1e-6)
    assert constants.c_bound == pytest.approx(85.16, abs=0.005)
    assert constants.lam == pytest.approx(5.872e-3, abs=1e-6)
    assert constants.p_ell == pytest.approx(340.6, abs=0.05)
    report(5, "gamma, c_bound, lambda, p_ell match 50-digit references to 1e-9 relative")


def test_criterion_6_inequality_sweeps(tmp_path):
    start = time.perf_counter()
    suites = {
        "mutation": ["--n-max", "200"],
        "matching": ["--m-max", "200", "--j-max", "64"],
        "diversity": ["--mu-max", "20", "--phi-max", "50", "--j-max", "20"],
        "comma-lambda": ["--n-max", "10000", "--lambda-max", "64", "--j-max", "64"],
    }
    for suite, grid in suites.items():
        out = tmp_path / f"{suite}.csv"
        code = main(["bounds", "--suite", suite, *grid, "--out", str(out)])
        assert code == 0, f"suite {suite} reported failures"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, f"four sweep suites with zero failures, exit 0; {elapsed:.2f}s")


def test_criterion_7_pea_prime_behavior():
    rng = np.random.default_rng(41)
    # (a) selection distribution over random valid fitness vectors
    for _ in range(10_000):
        mu = int(rng.integers(2, 13))
        fitnesses = np.sort(0.5 + 0.5 * rng.random(mu))[::-1]
        q = dl.pea_prime_selection(fitnesses)
        assert abs(float(q.sum()) - 1.0) <= 1e-12
        assert (q >= -1e-15).all()
        # (b) expected counts bounded by 2 and conserving mu exactly
        audit = dl.pea_prime_expected_selections(fitnesses)
        assert audit.premise_ok
        assert audit.sum_is_population_size
        assert all(e <= 2.0 + 1e-12 for e in audit.expected)

    # (c) Monte Carlo selection counts over 10^6 generations, mu=2, n=50
    process = dl.pea_prime(50, 2)
    gen_rng = generator(6180)
    state = process.initial_state(gen_rng)
    observed = np.zeros(2)
    expected = np.zeros(2)
    variance = np.zeros(2)
    generations = 1_000_000
    for _ in range(generations):
        weights = process.selection_weights(state)
        q1 = float(weights[0])
        state, counts = process.generation(state, gen_rng)
        observed += counts
        expected += (1.0 + q1, 1.0 - q1)
        variance += (q1 * (1.0 - q1), q1 * (1.0 - q1))
    for i in range(2):
        slack = 4.0 * math.sqrt(variance[i])
        assert abs(observed[i] - expected[i]) <= slack, (
            f"S_{i + 1}: observed {observed[i]}, expected {expected[i]}, slack {slack}"
        )

    # (d) the plain-selection anomaly: both draws pick the weak individual
    anomaly = dl.pea(1000, 2)
    state = (999, 500)
    both_second = 0
    trials = 20_000
    anomaly_rng = generator(112)
    for _ in range(trials):
        _, counts = anomaly.generation(state, anomaly_rng)
        if counts[1] == 2:
            both_second += 1
    exact = (500.0 / 1499.0) ** 2
    assert exact == pytest.approx(0.1113, abs=2e-4)
    lo, hi = wilson_interval(both_second, trials)
    assert lo <= exact <= hi
    report(7, f"selection distributions exact, E(S) bounded by 2 with exact conservation, "
              f"10^6-generation counts within 4 SE, anomaly frequency {both_second / trials:.4f} "
              f"brackets {exact:.4f}")


def test_criterion_8_determinism_across_thread_counts(tmp_path):
    files = {}
    for threads in ("1", "4"):
        sim = tmp_path / f"sim-t{threads}.csv"
        scal = tmp_path / f"scal-t{threads}.csv"
        assert main(["simulate", "--preset", "counterexample-n15", "--threads", threads, "--out", str(sim)]) == 0
        assert main(["scaling", "--preset", "geometric-walk-scaling", "--threads", threads, "--out", str(scal)]) == 0
        files[threads] = (sim.read_bytes(), scal.read_bytes())
    assert files["1"][0] == files["4"][0]
    assert files["1"][1] == files["4"][1]
    report(8, "criterion 1 and 2 CSVs byte-identical across thread counts")
