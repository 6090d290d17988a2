"""Checks of the drift condition and the exponential jump-tail condition.

Two tail variants are implemented: the two-sided form bounds P(|step| >= j)
and the one-sided form bounds only P(step <= -j), the jumps toward the target.
The one-sided form is strictly weaker; the counterexample chain passes it while
failing the two-sided form, which is exactly the difference the laboratory
exists to exhibit.

Both conditions are conditional on the current state, and their domains
differ: drift is required in every state strictly inside the window
(a < X < b), the tail bound in every state above the target threshold (a < X).
A process with exact step laws (`Process.step_law`) is checked exactly in every
such state by `check_conditions_exact`; a process whose law does not depend on
its state goes through the same check with its one law. The check reads every
input as one `LawTable`: the needle's and the (1,λ) EA's laws are built as one
table by `step_laws`, a single law is a one-row table, and (x, law) pairs are
stacked on the union of their values. Each state's drift is `np.dot` over its
own support, and every tail of every state comes from one sort of the grid's
magnitudes, one suffix sum along the rows and one searchsorted, with the bits
that each law's own one-row table gives. Only processes without an exact law
(PEA and PEA', whose state is a multiset) are checked empirically, from steps
pooled over free-running trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .jumps import JumpDistribution, LawTable
from .rng import trial_generators
from .stats import mean_t_interval, wilson_interval

TWO_SIDED = "two_sided"
ONE_SIDED = "one_sided"
VARIANTS = (TWO_SIDED, ONE_SIDED)

MIN_SAMPLES = 100
#: absorbed initial states a harvest draws in a row before it gives up
_FRESH_STATE_ATTEMPTS = 100

# Exact tables hold floats, and designed witness processes sit exactly on the
# bound (tail == r/(1+delta)^j), so exact-mode comparisons allow relative
# rounding dust; anything beyond this is a genuine violation.
FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class ConditionParams:
    """Parameters (ε, δ, r) of the drift and tail conditions.

    j_max is the largest tail index checked on the regular grid; exact tables
    additionally get checked at every support magnitude beyond it. Bound
    comparisons run in log space, so indices past the underflow point of
    r/(1+δ)^j still resolve correctly.
    """

    eps: float
    delta: float
    r: float
    j_max: int = 64

    def __post_init__(self):
        # written so that NaN fails each comparison
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not 1.0 <= self.r < math.inf:
            raise ValueError(f"r must be >= 1 and finite, got {self.r}")
        if self.j_max < 1:
            raise ValueError(f"j_max must be >= 1, got {self.j_max}")

    def log_bound(self, j):
        """log of r / (1+delta)^j, at a float j or elementwise on an array of them."""
        return math.log(self.r) - j * math.log1p(self.delta)

    def bound(self, j: float) -> float:
        """r / (1+delta)^j; underflows to 0.0 for very large j."""
        try:
            return math.exp(self.log_bound(j))
        except OverflowError:
            return math.inf


class TailCheck(NamedTuple):
    """Verdict for one tail index j."""

    j: float
    tail: float
    bound: float
    verdict: str
    count: Optional[int] = None
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None


@dataclass(frozen=True)
class ConditionReport:
    variant: str
    mode: str  # "exact" or "empirical"
    params: ConditionParams
    drift: float
    drift_verdict: str
    tails: tuple[TailCheck, ...]
    drift_ci: Optional[tuple[float, float]] = None
    n_drift_samples: Optional[int] = None
    #: exact mode with per-state laws: the potential of the state with the least drift
    drift_state: Optional[float] = None
    #: exact mode: the (state, j) whose tail comes closest to its bound, and that
    #: closeness log(tail) - log(bound); the state is None for a single law
    tail_state: Optional[float] = None
    tail_j: Optional[float] = None
    tail_log_margin: Optional[float] = None

    def tail_failures(self) -> list[TailCheck]:
        return [t for t in self.tails if t.verdict == "fail"]

    def overall(self) -> str:
        if self.drift_verdict == "fail" or self.tail_failures():
            return "fail"
        if self.drift_verdict == "pass":
            return "pass"
        return "inconclusive"


def _require_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def step_laws(process, window):
    """What check_conditions_exact checks `process` with on `window`.

    None when the process has no exact step law; its one law when that does not
    depend on the state; otherwise the LawTable of the laws out of every state
    whose potential x lies above window.a, which the process's `law_table`
    builds in one pass: one grid of integer steps trimmed to the union of the
    states' supports, and one row of probabilities per state.
    """
    states = process.states()
    if states is None:
        return process.step_law(None)
    return process.law_table([s for s in states if process.potential(s) > window.a])


def check_conditions_exact(
    laws, params: ConditionParams, variant: str = TWO_SIDED, window=None
) -> ConditionReport:
    """Check both conditions exactly from step laws.

    `laws` is one JumpDistribution, the law of every state; (x, law) pairs,
    the law of the step out of each state whose potential x lies above
    window.a; or a LawTable of such states, as step_laws gives. A single law
    is a one-row table and pairs are stacked into one on the union of their
    values. Drift is the exact expectation over each state's own support,
    required in every state with x < window.b. Tails are the table's suffix
    sums (`LawTable.tails`), required in every state and compared strictly
    against r/(1+delta)^j in log space. Checked indices are the grid 0..j_max
    plus every support magnitude beyond it, so isolated huge jumps are never
    missed; each index's row holds the largest tail over the states. The
    report names the state with the least drift and the (state, j) whose tail
    comes closest to its bound.
    """
    _require_variant(variant)
    if isinstance(laws, JumpDistribution):
        table = LawTable.stack([(None, laws)])
    else:
        if window is None:
            raise ValueError("per-state step laws need the window they are checked on")
        table = laws if isinstance(laws, LawTable) else LawTable.stack(list(laws))
        if any(not x > window.a for x in table.states):
            raise ValueError(f"per-state step laws must lie above the target threshold a={window.a}")
    drift, drift_state = math.inf, None
    for row, x in enumerate(table.states):
        if (x is None or x < window.b) and (row_drift := table.drift(row)) < drift:
            drift, drift_state = row_drift, x
    if drift == math.inf:
        raise ValueError(f"no state of the process lies strictly inside the window ({window.a}, {window.b})")
    drift_ok = drift >= params.eps or math.isclose(drift, params.eps, rel_tol=FLOAT_SLACK)
    beyond = {m for m in table.support_magnitudes().tolist() if m > params.j_max}
    js = np.array(sorted(set(range(params.j_max + 1)) | beyond), dtype=float)
    # tails[state, index]
    tails = table.tails(js, variant == ONE_SIDED)
    largest = tails.max(axis=0)
    log_bounds = params.log_bound(js)
    with np.errstate(divide="ignore"):
        # log is monotone, so no state exceeds an index's bound when its largest tail does not
        log_largest = np.log(largest)
    binding = {}
    # the first j, then the first state, whose tail comes closest to its bound
    if largest[k := int(np.argmax(log_largest - log_bounds))] > 0.0:
        j = float(js[k])
        binding = dict(tail_log_margin=math.log(largest[k]) - params.log_bound(j), tail_j=j,
                       tail_state=table.states[int(np.argmax(tails[:, k]))])
    return ConditionReport(
        variant=variant,
        mode="exact",
        params=params,
        drift=drift,
        drift_verdict="pass" if drift_ok else "fail",
        tails=tuple(
            TailCheck(j, tail, params.bound(j), "pass" if ok else "fail")
            for j, tail, ok in zip(js.tolist(), largest.tolist(), (log_largest <= log_bounds + FLOAT_SLACK).tolist())
        ),
        drift_state=drift_state,
        **binding,
    )


def check_conditions_empirical(
    drift_samples,
    tail_samples,
    params: ConditionParams,
    variant: str = TWO_SIDED,
) -> ConditionReport:
    """Check both conditions statistically from harvested step samples.

    The drift verdict uses a 95% t-interval around the sample mean; each tail
    verdict uses the Wilson interval of the exceedance frequency. A verdict is
    only "pass" or "fail" when the whole interval lies on one side of the
    bound. Indices with zero observed exceedances are always "inconclusive":
    the absence of observed large jumps cannot certify an exponential tail.
    """
    _require_variant(variant)
    drift_arr = np.asarray(drift_samples, dtype=float)
    tail_arr = np.asarray(tail_samples, dtype=float)
    if drift_arr.size < MIN_SAMPLES or tail_arr.size < MIN_SAMPLES:
        raise ValueError(
            f"need at least {MIN_SAMPLES} drift and tail samples, got {drift_arr.size} drift "
            f"and {tail_arr.size} tail samples; raise trials or max_steps"
        )
    mean, lo, hi = mean_t_interval(drift_arr)
    if lo >= params.eps:
        drift_verdict = "pass"
    elif hi < params.eps:
        drift_verdict = "fail"
    else:
        drift_verdict = "inconclusive"

    magnitudes = np.abs(tail_arr) if variant == TWO_SIDED else -tail_arr
    n = magnitudes.size
    # a set, not np.unique, whose first call imports numpy.ma
    indices = sorted(
        set(range(params.j_max + 1))
        | {m for m in set(magnitudes.tolist()) if m > params.j_max}
    )
    tails = []
    for j in indices:
        count = int(np.count_nonzero(magnitudes >= j))
        w_lo, w_hi = wilson_interval(count, n)
        log_bound = params.log_bound(j)
        if count == 0:
            verdict = "inconclusive"
        elif math.log(w_hi) <= log_bound:
            verdict = "pass"
        elif w_lo > 0.0 and math.log(w_lo) > log_bound:
            verdict = "fail"
        else:
            verdict = "inconclusive"
        tails.append(
            TailCheck(float(j), count / n, params.bound(j), verdict, count, w_lo, w_hi)
        )
    return ConditionReport(
        variant=variant,
        mode="empirical",
        params=params,
        drift=mean,
        drift_verdict=drift_verdict,
        tails=tuple(tails),
        drift_ci=(lo, hi),
        n_drift_samples=int(drift_arr.size),
    )


def harvest_step_samples(
    process,
    window,
    trials: int,
    steps_per_trial: int,
    master_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Collect step samples (X_{t+1} - X_t) from free-running trajectories.

    Trajectories restart from a fresh initial state whenever the process
    reports an absorbing state, so absorbed self-loops never pollute the
    samples. Returns (drift_samples, tail_samples) filtered to their
    conditioning domains a < X < b and a < X.
    """
    if trials < 1 or steps_per_trial < 1:
        raise ValueError("trials and steps_per_trial must be positive")
    drift_samples: list[float] = []
    tail_samples: list[float] = []
    a, b = window.a, window.b
    for _, rng in trial_generators(master_seed, 0, trials):
        state = process.initial_state(rng)
        for _ in range(steps_per_trial):
            if process.absorbed(state):
                state = _fresh_state(process, rng)
            x = process.potential(state)
            state = process.step(state, rng)
            dx = process.potential(state) - x
            if a < x < b:
                drift_samples.append(dx)
            if a < x:
                tail_samples.append(dx)
    return np.asarray(drift_samples), np.asarray(tail_samples)


def _fresh_state(process, rng):
    for _ in range(_FRESH_STATE_ATTEMPTS):
        state = process.initial_state(rng)
        if not process.absorbed(state):
            return state
    raise RuntimeError(f"process {process.name} keeps starting in absorbing states")
