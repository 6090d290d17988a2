"""Interval estimators shared by the simulation and condition reports."""

import math

import numpy as np

#: two-sided 95% normal quantile used by the Wilson score interval: the double
#: that statistics.NormalDist().inv_cdf(0.975) returns, without importing statistics
Z95 = 1.9599639845400536


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Chosen over the Wald interval because the experiments here live at
    proportions very close to 0 or 1, where Wald collapses.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits must lie in [0, trials], got {hits}/{trials}")
    p = hits / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (Z95 / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    # the interval always contains the point estimate; pin the exact endpoints
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return lo, hi


def t_quantile_975(df: int) -> float:
    """The 0.975 quantile of Student's t distribution with df degrees of freedom.

    It is scipy.special.stdtrit, the function scipy.stats.t.ppf evaluates, so
    the quantile is scipy's without importing scipy.stats. scipy.special is
    imported here, on first use, and not with this module: it takes longer to
    import than numpy and driftlab together, and only the empirical condition
    check reaches this function.
    """
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.975))


def mean_t_interval(samples) -> tuple[float, float, float]:
    """Sample mean with a two-sided 95% t-interval: (mean, low, high).

    The quantile is t_quantile_975(n - 1), so the interval is scipy's.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples for a t-interval")
    mean = float(x.mean())
    se = float(x.std(ddof=1)) / math.sqrt(n)
    half = t_quantile_975(n - 1) * se
    return mean, mean - half, mean + half
