"""Each process's exact step laws against independent oracles.

The bit-string EAs' transitions are compared with enumerations of every flip
mask in exact rational arithmetic, and at n = 1000 with exact integer sums;
the state-independent laws with the laws built from their parameters
(`helpers.single_law`).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import driftlab as dl
from driftlab.jumps import NORMALIZATION_TOL
from driftlab.processes import _FACTORIES
from helpers import comma_lambda_step_oracle, needle_step_exact, needle_step_oracle, single_law


def as_dict(law):
    """{step: P} of a one-row LawTable."""
    return dict(zip(law.values.tolist(), law.probs[0].tolist()))


def steps(process, d):
    """{step: P} out of distance d, from transitions(d)."""
    first, probs = process.transitions(d)
    return {float(first - d + i): p for i, p in enumerate(probs.tolist())}


def assert_is_a_law(probs):
    """transitions(d) is never validated as `LawTable.law` validates a law, so check it here."""
    assert np.all(probs >= 0.0) and abs(float(probs.sum()) - 1.0) <= NORMALIZATION_TOL


def assert_law_matches(process, d, oracle, rel=1e-12):
    """Every step out of d that transitions(d) or the oracle gives a probability
    agrees to `rel`; a step the oracle rules out has probability exactly 0."""
    assert_is_a_law(process.transitions(d)[1])
    lib = steps(process, d)
    for step in set(lib) | {float(k) for k in oracle}:
        exact = float(oracle.get(int(step), 0))
        assert lib.get(step, 0.0) == pytest.approx(exact, rel=rel, abs=0.0), step


@pytest.mark.parametrize("n", range(2, 11))
def test_needle_law_matches_flip_mask_enumeration(n):
    process = dl.NeedleOneOneEA(n)
    for d in range(n + 1):
        assert_law_matches(process, d, needle_step_oracle(n, d, Fraction(1, n)))


def test_needle_law_at_another_rate():
    rate = 0.3
    process = dl.NeedleOneOneEA(8, rate)
    for d in range(9):
        assert_law_matches(process, d, needle_step_oracle(8, d, Fraction(rate)))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("lam", [1, 2, 3])
def test_comma_lambda_law_matches_offspring_tuple_enumeration(n, lam):
    process = dl.OneCommaLambdaEA(n, lam)
    for d in range(n + 1):
        assert_law_matches(process, d, comma_lambda_step_oracle(n, d, lam, Fraction(1, n)))


@pytest.mark.parametrize("n", [1000, 10_000])
def test_large_n_laws_build_without_overflow(n):
    for process in (dl.NeedleOneOneEA(n), dl.NeedleOneOneEA(n, 0.5), dl.OneCommaLambdaEA(n, 4)):
        for d in (1, n // 2, n - 1, n):
            first, probs = process.transitions(d)
            assert_is_a_law(probs)
            assert all(math.isfinite(p) for p in probs.tolist())
            # the successors are distances
            assert 0 <= first and first + probs.size - 1 <= n


@pytest.mark.parametrize("d", [1, 375, 999])
def test_n1000_laws_match_exact_sums(d):
    n = 1000
    exact, denominator = needle_step_exact(n, d)
    # the best of two offspring: P(best - d >= k) = S_k^2 with S_k = P(step >= k)
    tails, running = {}, 0
    for k in sorted(exact, reverse=True):
        running += exact[k]
        tails[k] = running
    best_of_two = {k: tails[k] ** 2 - tails.get(k + 1, 0) ** 2 for k in exact}
    cases = (
        (dl.NeedleOneOneEA(n), exact, denominator),
        (dl.OneCommaLambdaEA(n, 2), best_of_two, denominator**2),
    )
    for process, numerators, scale in cases:
        lib = steps(process, d)
        checked = 0
        for k, numerator in numerators.items():
            value = numerator / scale  # int / int is correctly rounded
            if value >= 1e-300:
                assert lib.get(float(k), 0.0) == pytest.approx(value, rel=1e-12), k
                checked += 1
        assert checked >= 90


def test_state_independent_laws_are_one_row_tables():
    processes = {
        "counterexample": dl.CounterexampleChain(10),
        "geometric-walk": dl.GeometricDriftWalk(0.2, 1.0),
        "constant": dl.ConstantWalk(-1.0, 5.0),
    }
    # `scaling` checks each member of a family from its one exact law, so every
    # registered kind with a family parameter must be among these
    families = {kind for kind, factory in _FACTORIES.items() if getattr(factory, "family_param", None)}
    assert families <= set(processes)
    for window in (dl.DriftWindow(0.0, 5.0), dl.DriftWindow(3.0, 11.0)):
        for process in processes.values():
            table = process.law_table(window)
            assert table.states == (None,) and as_dict(table) == as_dict(single_law(process))
    # a mutation chain's law depends on its state, so it has a row per state above a
    for process in (dl.NeedleOneOneEA(10), dl.OneCommaLambdaEA(10, 2)):
        assert process.law_table(dl.DriftWindow(3.0, 11.0)).states == tuple(float(d) for d in range(4, 11))


def test_pea_has_no_exact_law():
    for process in (dl.pea(10, 2), dl.pea_prime(10, 2)):
        assert process.law_table(dl.DriftWindow(0.0, 5.0)) is None
