import math
import statistics

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from driftlab.stats import Z95, mean_t_interval, t_quantile_975, wilson_interval


def score_interval_by_root_finding(hits, trials, z=Z95):
    """Independent Wilson oracle: invert the score test numerically."""
    p_hat = hits / trials

    def score(p):
        return (p_hat - p) / np.sqrt(p * (1 - p) / trials)

    lo = 0.0 if hits == 0 else brentq(lambda p: score(p) - z, 1e-12, p_hat)
    hi = 1.0 if hits == trials else brentq(lambda p: score(p) + z, max(p_hat, 1e-12), 1 - 1e-12)
    return lo, hi


def test_z95_is_the_normal_quantile_bit_for_bit():
    assert Z95 == statistics.NormalDist().inv_cdf(0.975)


@pytest.mark.parametrize("hits,trials", [(0, 200), (1, 10), (5, 10), (9, 10), (50, 100), (999, 1000)])
def test_wilson_matches_score_test_inversion(hits, trials):
    lo, hi = wilson_interval(hits, trials)
    ref_lo, ref_hi = score_interval_by_root_finding(hits, trials)
    assert lo == pytest.approx(ref_lo, abs=1e-9)
    assert hi == pytest.approx(ref_hi, abs=1e-9)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=500))
def test_wilson_contains_point_estimate(hits, trials):
    hits = min(hits, trials)
    lo, hi = wilson_interval(hits, trials)
    p = hits / trials
    assert 0.0 <= lo <= p + 1e-12
    assert p - 1e-12 <= hi <= 1.0


def test_wilson_zero_hits_has_positive_upper_limit():
    lo, hi = wilson_interval(0, 200)
    assert lo == 0.0
    assert 0.0 < hi < 0.02


def test_wilson_rejects_bad_input():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


# every n up to 5000 (the needle preset's drift check keeps 843 samples) and a few large n
T_INTERVAL_SIZES = [*range(2, 5001), 10_000, 65_537, 100_001, 1_000_000]


def test_mean_t_interval_against_scipy():
    from scipy import stats as sstats

    x = np.random.default_rng(3).normal(2.0, 1.5, size=max(T_INTERVAL_SIZES))
    for n in T_INTERVAL_SIZES:
        mean, lo, hi = mean_t_interval(x[:n])
        se = float(x[:n].std(ddof=1)) / math.sqrt(n)
        half = float(sstats.t.ppf(0.975, n - 1)) * se
        assert (mean, lo, hi) == (float(x[:n].mean()), mean - half, mean + half), n


@pytest.mark.parametrize("df", [1, 2, 5, 30, 842, 100_000])
def test_t_quantile_against_mpmath(df):
    # t_quantile_975 is the quantile mean_t_interval uses; scipy's t.ppf is one oracle
    from scipy import stats as sstats

    quantile = t_quantile_975(df)
    assert quantile == float(sstats.t.ppf(0.975, df))
    # and mpmath the other: P(T <= t) = 1 - I_{df/(df+t^2)}(df/2, 1/2) / 2 for
    # t > 0; solve P(T <= t) = 0.975
    with mpmath.workdps(40):
        def upper_tail(t):
            tail = mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, df / (df + t * t), regularized=True) / 2
            return tail - mpmath.mpf("0.025")

        exact = mpmath.findroot(upper_tail, mpmath.mpf(quantile))
        assert abs(upper_tail(exact)) < mpmath.mpf(10) ** -35
        assert float(abs(quantile / exact - 1)) <= 1e-15


def test_mean_t_interval_needs_two_samples():
    with pytest.raises(ValueError):
        mean_t_interval([1.0])
