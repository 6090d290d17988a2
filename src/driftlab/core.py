"""Seeded simulation of stochastic processes over a drift window.

A trial starts at a potential at or above the window's start threshold b (a
random start below b is drawn again) and runs until the potential first drops
to the target threshold a or the step budget is exhausted. Trials are pure
functions of (process, window, seed), so they can be distributed across
workers without affecting results.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional

from .rng import check_seed_args, trial_generators
from .stats import wilson_interval


@dataclass(frozen=True)
class DriftWindow:
    """Potential interval [a, b]: a is the target threshold, b the start threshold."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"drift window requires a < b, got a={self.a}, b={self.b}")

    @property
    def ell(self) -> float:
        return self.b - self.a


class TrialOutcome(NamedTuple):
    """Per-trial record used for aggregation and CSV rows."""

    index: int
    start_potential: float
    hit_time: Optional[int]

    @property
    def truncated(self) -> bool:
        """True when the step budget ran out before the target was hit."""
        return self.hit_time is None


@dataclass(frozen=True)
class HittingEstimate:
    """Fraction of trials that hit the target within the horizon, with 95% Wilson CI,
    and the per-trial outcomes it counts."""

    hits: int
    trials: int
    point: float
    ci_low: float
    ci_high: float
    outcomes: tuple[TrialOutcome, ...] = field(repr=False)

    def __post_init__(self):
        if not 0.0 <= self.ci_low <= self.point <= self.ci_high <= 1.0:
            raise ValueError("estimate must satisfy 0 <= ci_low <= point <= ci_high <= 1")


#: trial-steps below which run_trials stays serial. With one-pass seeding a
#: counterexample-n15 trial (15 steps) costs about 8 µs in-process on a 2-vCPU
#: host, 2.3 µs of it seeding, so this is about a second of serial work on such
#: trials; re-measure it before changing it.
SERIAL_TRIAL_STEPS = 2_000_000

#: initial states a trial draws at most before it gives up on a start at or above b
START_ATTEMPTS = 1000


def _run_trial(process, window: DriftWindow, max_steps: int, rng, index: int) -> TrialOutcome:
    """Simulate trial `index`, whose generator is `rng`, until the potential
    first reaches <= window.a.

    The start is drawn from the initial law conditioned on potential >= b: a
    start below b is drawn again from the trial's own generator, at most
    START_ATTEMPTS times in all. A trial whose first start lies at or above b
    draws nothing extra.
    """
    for _ in range(START_ATTEMPTS):
        state = process.initial_state(rng)
        x0 = process.potential(state)
        if x0 >= window.b:
            return TrialOutcome(index, x0, process.hitting_time(state, rng, window.a, max_steps))
    raise ValueError(
        f"initial potential {x0} is below the start threshold b={window.b}; "
        "the window does not match the process configuration"
    )


def _run_chunk(args) -> list[TrialOutcome]:
    process, window, max_steps, master_seed, lo, hi = args
    return [_run_trial(process, window, max_steps, rng, i) for i, rng in trial_generators(master_seed, lo, hi)]


def run_trials(
    process,
    window: DriftWindow,
    trials: int,
    max_steps: int,
    master_seed: int,
    workers: int = 1,
) -> list[TrialOutcome]:
    """Run independent trials with per-index seeds; output is ordered by index.

    The worker count never changes the outcomes: trial i always uses
    trial_seed(master_seed, i). Rejects trials < 1, max_steps < 1 and a
    master_seed outside [0, 2**64) before any work starts, and processes that
    start below the start threshold b in START_ATTEMPTS draws in a row, such as
    a deterministic start below b (a misconfigured experiment, not a hit).
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    check_seed_args(master_seed, 0)
    workers = max(1, int(workers))
    if workers == 1 or trials < 4 * workers or trials * max_steps < SERIAL_TRIAL_STEPS:
        return _run_chunk((process, window, max_steps, master_seed, 0, trials))
    n_chunks = min(trials, 4 * workers)
    bounds = [round(k * trials / n_chunks) for k in range(n_chunks + 1)]
    tasks = [
        (process, window, max_steps, master_seed, lo, hi)
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    return [outcome for chunk in ordered_map(_run_chunk, tasks, workers) for outcome in chunk]


def ordered_map(fn, tasks: Iterable, workers: int) -> Iterator:
    """Yield fn(task) for each task, in the order of `tasks`.

    With workers > 1 the calls run in a pool of that many processes, and at
    most 2 * workers of them are submitted and not yet yielded, so the results
    held at once stay bounded however many tasks there are. fn and the tasks
    are pickled, so fn must be a module-level function.
    """
    if workers <= 1:
        yield from map(fn, tasks)
        return
    # On Linux before Python 3.14 the default start method is fork, which spares
    # each worker the ~0.5 s import of numpy and scipy.special (-X importtime on
    # a 2-CPU host); from 3.14 it is forkserver, and each worker imports them again.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        try:
            for task in tasks:
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, task))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def estimate_hitting_probability(
    process,
    window: DriftWindow,
    trials: int,
    horizon: int,
    master_seed: int,
    workers: int = 1,
) -> HittingEstimate:
    """Estimate P(hit the target within `horizon` steps) over `trials` trials.

    Each trial is simulated for exactly `horizon` steps: hitting later than the
    horizon cannot be observed and does not count. run_trials checks the inputs.
    """
    outcomes = run_trials(process, window, trials, horizon, master_seed, workers)
    hits = sum(1 for o in outcomes if o.hit_time is not None)
    lo, hi = wilson_interval(hits, trials)
    return HittingEstimate(hits, trials, hits / trials, lo, hi, tuple(outcomes))


def default_workers() -> int:
    """The CPUs this process may run on (its affinity mask, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
