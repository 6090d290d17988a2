"""Seeded simulation of stochastic processes over a drift window.

A trial starts at a potential at or above the window's start threshold b (a
random start below b is drawn again) and runs until the potential first drops
to the target threshold a or the step budget is exhausted. Trials are pure
functions of (process, window, seed), so they can be distributed across
workers without affecting results.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat
from typing import Iterable, Iterator, NamedTuple, NoReturn, Optional

from .rng import check_seed_args, trial_generators, trial_uniforms
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


class TrialOutcomes(Sequence):
    """The outcomes of trials first, first + 1, ... kept as two columns: their
    start potentials and their hit times (None where the budget ran out). It
    reads as a sequence of TrialOutcome, a slice of it as a list of them, and
    equals any sequence of equal ones; its columns are all that it pickles, the
    start column run-length encoded by object, so that an unpickled column
    repeats one float object per run, as the column of a serial batched run
    repeats its one start."""

    __slots__ = ("first", "starts", "hit_times")

    def __init__(self, first: int, starts: list[float], hit_times: list[Optional[int]]):
        self.first, self.starts, self.hit_times = first, starts, hit_times

    def __len__(self) -> int:
        return len(self.hit_times)

    def __getitem__(self, i: int | slice) -> TrialOutcome | list[TrialOutcome]:
        if isinstance(i, slice):
            return list(map(self.__getitem__, range(len(self))[i]))
        return TrialOutcome(self.first + range(len(self))[i], self.starts[i], self.hit_times[i])

    def __iter__(self) -> Iterator[TrialOutcome]:
        return map(TrialOutcome._make, zip(range(self.first, self.first + len(self)), self.starts, self.hit_times))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    def __getstate__(self):
        runs = [(run[0], len(run)) for run in (list(group) for _, group in groupby(self.starts, key=id))]
        return self.first, runs, self.hit_times

    def __setstate__(self, state):
        first, runs, hit_times = state
        self.__init__(first, list(chain.from_iterable(repeat(x, count) for x, count in runs)), hit_times)


@dataclass(frozen=True)
class HittingEstimate:
    """Fraction of trials that hit the target within the horizon, with 95% Wilson CI,
    and the trial outcomes it counts."""

    hits: int
    trials: int
    point: float
    ci_low: float
    ci_high: float
    outcomes: TrialOutcomes = field(repr=False, hash=False)

    def __post_init__(self):
        if not 0.0 <= self.ci_low <= self.point <= self.ci_high <= 1.0:
            raise ValueError("estimate must satisfy 0 <= ci_low <= point <= ci_high <= 1")


#: trial-steps below which run_trials stays serial on the stepped path, where a
#: trial seeds its own generator; simulate-long's 2.2M long needle and walk
#: trial-steps go to the pool. Two workers broke even with one at about 350k
#: steps of the geometric walk (8 trials, in-process, 2-vCPU host) and ran
#: 2.2M in 0.6 times the serial time. Re-measure it before changing it.
SERIAL_TRIAL_STEPS = 2_000_000
#: the same cutoff on the batched path (a process with batch_hitting_times), in
#: the doubles its trials read (trials * batch_doubles) whatever the budget: two
#: workers broke even with one at about 300k doubles at n = 10, 15 and 25
#: (in-process, 2-vCPU host), so simulate-short's 300k doubles gain nothing
#: from the pool and stay serial
SERIAL_BATCH_STEPS = 4_000_000

#: initial states a trial draws at most before it gives up on a start at or above b
START_ATTEMPTS = 1000

#: doubles read at once on the batch path; bounds the block of trials held at once
BATCH_DOUBLES = 1 << 16


def _start_error(x0: float, window: DriftWindow) -> ValueError:
    return ValueError(
        f"initial potential {x0} is below the start threshold b={window.b}; "
        "the window does not match the process configuration"
    )


def _run_trial(process, window: DriftWindow, max_steps: int, rng) -> tuple[float, Optional[int]]:
    """The start potential and hit time of the trial whose generator is `rng`,
    simulated until the potential first reaches <= window.a.

    The start is drawn from the initial law conditioned on potential >= b: a
    start below b is drawn again from the trial's own generator, at most
    START_ATTEMPTS times in all. A trial whose first start lies at or above b
    draws nothing extra.
    """
    for _ in range(START_ATTEMPTS):
        state = process.initial_state(rng)
        x0 = process.potential(state)
        if x0 >= window.b:
            return x0, process.hitting_time(state, rng, window.a, max_steps)
    raise _start_error(x0, window)


def _run_batch(process, window: DriftWindow, max_steps: int, master_seed: int, lo: int, hi: int) -> TrialOutcomes:
    """Trials [lo, hi) of a process with a batched hitting-time hook. Its start
    draws nothing, so it is resolved once, and each trial's doubles are read a
    block of trials at a time."""
    state = process.initial_state(None)
    x0 = process.potential(state)
    if x0 < window.b:
        raise _start_error(x0, window)
    k = process.batch_doubles(state, window.a, max_steps)
    block = max(1, BATCH_DOUBLES // max(1, k))
    hit_times = []
    for start in range(lo, hi, block):
        stop = min(start + block, hi)
        hit_times += process.batch_hitting_times(state, trial_uniforms(master_seed, start, stop, k), window.a)
    return TrialOutcomes(lo, [x0] * (hi - lo), hit_times)


def _run_chunk(args) -> TrialOutcomes:
    process, window, max_steps, master_seed, lo, hi = args
    if hasattr(process, "batch_hitting_times"):
        return _run_batch(*args)
    trials = [_run_trial(process, window, max_steps, rng) for _, rng in trial_generators(master_seed, lo, hi)]
    return TrialOutcomes(lo, *map(list, zip(*trials)))


def run_trials(
    process,
    window: DriftWindow,
    trials: int,
    max_steps: int,
    master_seed: int,
    workers: int = 1,
) -> TrialOutcomes:
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
    batched = hasattr(process, "batch_hitting_times")
    per_trial = process.batch_doubles(process.initial_state(None), window.a, max_steps) if batched else max_steps
    serial = trials * per_trial < (SERIAL_BATCH_STEPS if batched else SERIAL_TRIAL_STEPS)
    if workers == 1 or trials < 4 * workers or serial:
        return _run_chunk((process, window, max_steps, master_seed, 0, trials))
    n_chunks = min(trials, 4 * workers)
    bounds = [round(k * trials / n_chunks) for k in range(n_chunks + 1)]
    tasks = [
        (process, window, max_steps, master_seed, lo, hi)
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    # filled in place, so the columns take no more room than a serial run's
    starts, hit_times = [None] * trials, [None] * trials
    for chunk in ordered_map(_run_chunk, tasks, workers):
        starts[chunk.first:chunk.first + len(chunk)] = chunk.starts
        hit_times[chunk.first:chunk.first + len(chunk)] = chunk.hit_times
    return TrialOutcomes(0, starts, hit_times)


def ordered_map(fn, tasks: Iterable, workers: int) -> Iterator:
    """Yield fn(task) for each task, in the order of `tasks`.

    With workers > 1 the caller forks workers - 1 children, and task i goes to
    worker i % workers, worker 0 being the caller, which runs its own tasks
    inline as their turn comes. fn and the tasks reach the children by fork, so
    neither is pickled. Each child runs its tasks in order and sends each
    result, pickled, over its own pipe; a full pipe blocks it, so it holds at
    most one finished result that the caller has not read, however many tasks
    there are. An exception that a child's task raises is raised again in the
    caller, and a child that ends without sending its result raises
    RuntimeError. Every child is killed and reaped when the generator ends,
    raises or is closed. Where os.fork does not exist, the calls run serially.
    """
    tasks = list(tasks)
    workers = min(workers, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        yield from map(fn, tasks)
        return
    import signal  # here: serial commands never need it

    children = []
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                # the child shares the caller's loaded modules and its numpy
                # and driftlab imports, which a spawned process would redo
                _serve(fn, tasks[w::workers], write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        for i, task in enumerate(tasks):
            yield fn(task) if i % workers == 0 else _receive(*children[i % workers - 1])
    finally:
        for pid, results in children:
            os.kill(pid, signal.SIGKILL)
            results.close()
            os.waitpid(pid, 0)


def _serve(fn, tasks: list, write_fd: int) -> NoReturn:
    """A forked child of ordered_map: send (True, fn(task)) for each task in
    turn, or (False, the exception) for the first that raises or whose result
    does not pickle, then leave by os._exit, so that nothing of the caller's
    (its stdio buffers, its exit hooks, the generator's finally) runs again in
    the child."""
    code = 1
    try:
        with open(write_fd, "wb") as pipe:
            for task in tasks:
                try:
                    message, failed = pickle.dumps((True, fn(task))), False
                except Exception as exc:
                    message, failed = pickle.dumps((False, exc)), True
                pipe.write(message)
                pipe.flush()
                if failed:
                    break
        code = 0
    finally:
        os._exit(code)


def _receive(pid: int, results):
    """The next result that child `pid` sends over its pipe `results`; its
    exception raised again if its task raised one."""
    try:
        ok, value = pickle.load(results)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError(f"worker process {pid} ended without sending its result") from None
    if not ok:
        raise value
    return value


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
    hits = trials - outcomes.hit_times.count(None)
    lo, hi = wilson_interval(hits, trials)
    return HittingEstimate(hits, trials, hits / trials, lo, hi, outcomes)


def default_workers() -> int:
    """The CPUs this process may run on (its affinity mask, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
