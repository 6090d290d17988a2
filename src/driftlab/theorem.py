"""Derivation of every constant in the escape-bound argument, the tail-sum
bound on expectations of non-decreasing functions, and the exponential-moment
check that links the jump-tail condition to those constants.

All probability products are evaluated in natural-log space with a single
final exponentiation, so window lengths where e^{-λℓ} underflows double
precision still produce correct bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .conditions import TWO_SIDED, ConditionParams, check_conditions_exact
from .inequalities import InequalityResult
from .jumps import JumpDistribution

_LN2 = math.log(2.0)


def _moment_constants(delta: float, r: float) -> tuple[float, float]:
    """(gamma, d_bound) = (ln(1 + delta/2), r*(4 + delta + 2/delta))."""
    return math.log1p(delta / 2.0), r * (4.0 + delta + 2.0 / delta)


@dataclass(frozen=True)
class TheoremConstants:
    """Constants of the escape-bound derivation for one (eps, delta, r, ell).

    horizon is the largest time bound whose escape probability the argument
    certifies to stay below prob_target; it is found by exact inversion of the
    product e^{-λℓ} · L · D̄ · p̄ <= prob_target rather than by picking an
    unspecified small constant. c_star reports log2(horizon) · r / ell so the
    horizon can be read in the form 2^{c* ℓ / r}; at small ℓ the inversion
    gives horizon < 1 and c_star goes negative, which is the honest statement
    that these explicit constants certify nothing at that scale.
    """

    eps: float
    delta: float
    r: float
    ell: float
    prob_target: float
    gamma: float
    c_bound: float
    lam: float
    p_ell: float
    d_bound: float
    log2_horizon: float
    horizon: float
    c_star: float
    escape_bound: float

    def __post_init__(self):
        if not 0.0 < self.lam <= self.gamma:
            raise ValueError("lambda must satisfy 0 < lambda <= gamma")
        if self.c_bound <= 0.0 or self.d_bound < 1.0:
            raise ValueError("need c_bound > 0 and d_bound >= 1")

    def derivation_trace(self) -> list[tuple[str, str, float]]:
        """Rows (symbol, formula, value) for the human-readable trace."""
        return [
            ("eps", "input drift lower bound", self.eps),
            ("delta", "input tail decay parameter", self.delta),
            ("r", "input tail constant", self.r),
            ("ell", "input window length b - a", self.ell),
            ("prob_target", "input escape probability target", self.prob_target),
            ("gamma", "ln(1 + delta/2)", self.gamma),
            ("c_bound", "r*(4 + delta + 2/delta) / gamma^2", self.c_bound),
            ("lambda", "min(gamma, eps / (2*c_bound))", self.lam),
            ("p_ell", "2 / (lambda*eps)", self.p_ell),
            ("d_bound", "r*(4 + delta + 2/delta)", self.d_bound),
            ("log2_horizon", "log2(prob_target) + (lambda*ell - ln(d_bound*p_ell))/ln(2)", self.log2_horizon),
            ("horizon", "2^log2_horizon, largest L with e^(-lambda*ell)*L*d_bound*p_ell <= prob_target", self.horizon),
            ("c_star", "log2(horizon) * r / ell", self.c_star),
            ("escape_bound", "min(1, e^(-lambda*ell) * horizon * d_bound * p_ell)", self.escape_bound),
        ]


def derive_constants(
    eps: float, delta: float, r: float, ell: float, prob_target: float = 0.5
) -> TheoremConstants:
    """Compute the full constant chain for given condition parameters."""
    # written so that NaN fails each comparison
    if not (0 < eps < math.inf and 0 < delta < math.inf):
        raise ValueError(f"need finite eps > 0 and delta > 0, got eps={eps}, delta={delta}")
    if not 1.0 <= r < math.inf:
        raise ValueError(f"r must be >= 1 and finite, got {r}")
    if not 0 < ell < math.inf:
        raise ValueError(f"ell must be positive and finite, got {ell}")
    if not 0.0 < prob_target < 1.0:
        raise ValueError(f"prob_target must lie in (0, 1), got {prob_target}")
    gamma, d_bound = _moment_constants(delta, r)
    # at the edges of the double range D̄ overflows or γ² underflows, so λ·ε reaches 0
    c_bound = d_bound / (gamma * gamma) if gamma * gamma > 0.0 else math.inf
    lam = min(gamma, eps / (2.0 * c_bound))
    if lam * eps == 0.0:
        raise ValueError(
            f"eps={eps}, delta={delta} and r={r} lie beyond the double range of the constants: "
            "lambda*eps underflows to 0, so p_ell = 2/(lambda*eps) is undefined"
        )
    p_ell = 2.0 / (lam * eps)
    ln_horizon = math.log(prob_target) + lam * ell - math.log(d_bound) - math.log(p_ell)
    log2_horizon = ln_horizon / _LN2
    horizon = math.exp(ln_horizon) if ln_horizon < 709.0 else math.inf
    c_star = log2_horizon * r / ell
    escape_bound = hajek_escape_bound(lam, ell, horizon, d_bound, p_ell, ln_horizon=ln_horizon)
    return TheoremConstants(
        eps=eps,
        delta=delta,
        r=r,
        ell=ell,
        prob_target=prob_target,
        gamma=gamma,
        c_bound=c_bound,
        lam=lam,
        p_ell=p_ell,
        d_bound=d_bound,
        log2_horizon=log2_horizon,
        horizon=horizon,
        c_star=c_star,
        escape_bound=escape_bound,
    )


def hajek_escape_bound(
    lam: float,
    ell: float,
    horizon: float,
    d_bound: float,
    p_ell: float,
    ln_horizon: Optional[float] = None,
) -> float:
    """min(1, e^{-lam*ell} * horizon * d_bound * p_ell), evaluated in log space.

    Upper-bounds the probability of reaching the target within `horizon` steps
    when the drift condition holds with the supplied constants. horizon = 0
    gives 0; pass ln_horizon for horizons beyond double range.
    """
    if lam <= 0 or ell <= 0 or d_bound <= 0 or p_ell <= 0:
        raise ValueError("lam, ell, d_bound and p_ell must be positive")
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if horizon == 0:
        return 0.0
    if ln_horizon is None:
        ln_horizon = math.log(horizon)
    ln_value = -lam * ell + ln_horizon + math.log(d_bound) + math.log(p_ell)
    if ln_value >= 0.0:
        return 1.0
    return math.exp(ln_value)


@dataclass(frozen=True)
class LemmaInput:
    """Inputs of the tail-sum upper bound on E(f(X)).

    tail(i) must be P(X >= x_min + i) for integer i >= 0, non-increasing with
    tail(0) = 1; f must be non-decreasing. The infinite series is truncated
    after `terms` terms and `remainder_bound` must dominate the tail of the
    series; presets use closed geometric forms for it.
    """

    x_min: float
    tail: Callable[[int], float]
    f: Callable[[float], float]
    terms: int
    remainder_bound: float = 0.0

    def __post_init__(self):
        if self.terms < 1:
            raise ValueError(f"terms must be >= 1, got {self.terms}")
        if not math.isfinite(self.remainder_bound) or self.remainder_bound < 0:
            raise ValueError(
                f"remainder_bound must be finite and non-negative, got {self.remainder_bound}; "
                "a divergent series configuration is rejected"
            )


def lemma_tail_bound(inp: LemmaInput) -> float:
    """Upper bound sum_{i>=0} f(x_min + i + 1) * P(X >= x_min + i) on E(f(X)).

    Valid for any random variable X with minimum x_min and any non-negative
    non-decreasing f (the intended f(x) = e^{gamma x} in particular). The sum
    replaces interval probabilities with the larger upper-tail probabilities,
    which only preserves the direction for non-negative multipliers; negative
    f values are therefore rejected. Monotonicity of tail and f is
    spot-checked on the evaluated points.
    """
    tail_prev = inp.tail(0)
    if abs(tail_prev - 1.0) > 1e-12:
        raise ValueError(f"tail(0) must equal 1, got {tail_prev!r}")
    total = 0.0
    f_prev = None
    for i in range(inp.terms):
        t_i = inp.tail(i)
        if t_i > tail_prev + 1e-12:
            raise ValueError(f"tail must be non-increasing, violated at i={i}")
        tail_prev = t_i
        f_i = inp.f(inp.x_min + i + 1)
        if f_i < 0.0:
            raise ValueError(
                f"f must be non-negative for the tail-sum bound to dominate the "
                f"expectation; got f({inp.x_min + i + 1}) = {f_i}"
            )
        if f_prev is not None and f_i < f_prev - 1e-12:
            raise ValueError(f"f must be non-decreasing, violated at i={i}")
        f_prev = f_i
        total += f_i * t_i
    return total + inp.remainder_bound


def mgf_bound_check(law: JumpDistribution, delta: float, r: float) -> InequalityResult:
    """The link E(e^{gamma |step|}) <= r*(4 + delta + 2/delta) at gamma = ln(1 + delta/2),
    with the moment computed exactly from a step law.

    The comparison is only asserted under the two-sided tail condition, so a
    law whose two-sided check fails for (delta, r) is rejected.
    """
    # drift plays no role here; any positive eps makes the params valid
    params = ConditionParams(eps=1.0, delta=delta, r=r)
    gamma, bound = _moment_constants(delta, r)
    report = check_conditions_exact(law, params, TWO_SIDED)
    if report.tail_failures():
        worst = report.tail_failures()[0]
        raise ValueError(
            f"two-sided tail condition fails at j={worst.j} "
            f"(tail {worst.tail!r} > bound {worst.bound!r}); "
            "the exponential-moment bound is not asserted in that case"
        )
    moment = law.abs_mgf(gamma)
    return InequalityResult(
        "mgf-vs-moment-bound", {"delta": delta, "r": r, "gamma": gamma}, moment, bound, moment <= bound
    )
