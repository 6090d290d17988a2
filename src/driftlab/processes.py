"""Process zoo: the absorbing counterexample chain, the signed-geometric drift
walk, and evolutionary algorithms lumped to their potential chains.

Every process is immutable after construction and steps via pure functions of
(state, generator), so trials parallelize safely. `step_law(state)` gives the
exact law of the potential's step out of a state: the walk, the counterexample
chain and the constant walk have one law for every state, and the needle and
(1,λ) EA lumped chains have one per state of their finite state space
(`states()`), built only when asked for; their `law_table(states)` builds the
laws of many states as one `LawTable` in one pass, each binomial pmf once and
each row as `step_law` builds it. PEA and PEA′, whose state is a multiset of
counts, have no exact law and are checked empirically.

A trial's generator belongs to the trial alone, and the trial loop re-seeds
the same generator for the next trial, so a process must not keep it past its
trial. `hitting_time` may draw its doubles in blocks, ahead of need: what
matters is that the doubles it uses are the ones the `step` loop would use, in
the same order. The walk and the needle replay numpy's own geometric and
binomial algorithms on such blocks. The counterexample chain, whose start
draws nothing, has a batched hook instead (`batch_doubles`,
`batch_hitting_times`) that takes the doubles of a block of trials at once
from `rng.trial_uniforms`; every other process steps. A long needle trial
advances whole blocks of generations through `_NeedleAutomaton`, whose states
are lists indexed by cells of [0, 1) cut at the exact thresholds of numpy's
binomial inversion. What the automaton does not hold goes to its sink, and
the step loop replays that block. Each process builds an automaton once per
(n, p, floor(a)), before the first block of the first trial whose budget of
generations would pay for the build; a trial with a smaller budget keeps the
step loop. The automaton's cell and the walk's magnitude come from a
`_BucketSearch`: one table lookup per double, exact on numpy's doubles, in
place of a binary search.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import itertools
import math
import operator
import struct
from abc import ABC, abstractmethod

import numpy as np

from .jumps import JumpDistribution, LawTable

_LN8 = math.log(8.0)
#: steps (walk) or generations (needle) in a trial's first block; each further
#: block is twice as long up to the cap, so short trials draw little ahead
#: and long ones hold a bounded block
_FIRST_BLOCK = 64
_MAX_BLOCK = 1 << 14
#: the largest double Generator.random returns
_MAX_UNIFORM = 1.0 - 2.0**-53


def _block_sizes():
    size = _FIRST_BLOCK
    while size < _MAX_BLOCK:
        yield size
        size *= 2
    yield from itertools.repeat(_MAX_BLOCK)


#: a bucket table has about this many buckets per edge, rounded up to a power of
#: two, and at most 2**_MAX_BUCKET_BITS (int32 entries, so at most 256 KB)
_BUCKETS_PER_EDGE = 128
_MAX_BUCKET_BITS = 16


class _BucketSearch:
    """np.searchsorted(edges, u, side) by one table lookup per double, exact for
    every double u in [0, 1), so for every double Generator.random returns.

    [0, 1) is cut into 2**B buckets of equal width. u · 2**B is exact, so its
    integer part is u's bucket. The search is monotone in u, so where it agrees
    at a bucket's first double and its last the bucket holds no edge, and the
    table holds the search's one value there. Every other bucket holds -1, and
    the few doubles that land in one are searched. This is Chen & Asau's (1974)
    guide table, made exact on numpy's doubles.

    The table comes from the edges, which lie in [0, 1], with no search. An
    edge counts in the search of every double from bucket `counted` on and of
    none below bucket `clear`; where the two differ, the edge splits bucket
    `clear`. On the right an edge counts from itself on, so one at a bucket's
    first double splits nothing; on the left it counts past itself, so one at
    a bucket's last double splits nothing.
    """

    def __init__(self, edges: np.ndarray, side: str):
        self.edges = edges
        self.side = side
        bits = min(_MAX_BUCKET_BITS, (len(edges) * _BUCKETS_PER_EDGE - 1).bit_length())
        size = 1 << bits
        self.scale = float(size)
        scaled = edges * self.scale  # exact: the scale is a power of two
        if side == "right":
            counted, clear = np.ceil(scaled), np.floor(scaled)
        else:
            counted, clear = np.floor(scaled) + 1.0, np.floor(np.nextafter(edges, np.inf) * self.scale)
        counts = np.bincount(np.minimum(counted, size).astype(np.intp), minlength=size + 1)
        self.table = np.cumsum(counts[:size], dtype=np.int32)
        split = clear[(counted > clear) & (clear < size)]
        self.table[split.astype(np.intp)] = -1

    def __call__(self, u: np.ndarray) -> np.ndarray:
        found = self.table.take((u * self.scale).astype(np.intp))
        searched = np.flatnonzero(found < 0)
        found[searched] = np.searchsorted(self.edges, u[searched], self.side)
        return found


class Process(ABC):
    """A stochastic process with a real-valued potential."""

    name = "process"
    #: reports flag any non-identity potential scale (e.g. log-transformed)
    potential_scale = "identity"
    #: constructor parameter that sets the window length ell of a scaling family
    #: (the window is [0, ell]); None when the process has no such family
    family_param = None

    @abstractmethod
    def initial_state(self, rng: np.random.Generator):
        ...

    def potential(self, state) -> float:
        """The state itself, for every process whose state is its potential."""
        return float(state)

    @abstractmethod
    def step(self, state, rng: np.random.Generator):
        ...

    def hitting_time(self, state, rng: np.random.Generator, a: float, max_steps: int) -> int | None:
        """First t in 1..max_steps at which the potential after t steps from
        `state` is <= a, or None when there is none; max_steps >= 1."""
        for t in range(1, max_steps + 1):
            state = self.step(state, rng)
            if self.potential(state) <= a:
                return t
        return None

    def step_law(self, state) -> JumpDistribution | None:
        """Exact law of the potential's step out of `state`, or None when the
        process has none. A process whose law does not depend on the state
        returns that one law for any state, None included."""
        return None

    def states(self) -> range | None:
        """Every state, in increasing potential, when step_law depends on the
        state, and then `law_table(states)` gives the laws of those states as
        one `LawTable`; None when it does not or when there is no exact law."""
        return None

    def absorbed(self, state) -> bool:
        """True once the state can never move again; sample harvesting restarts here."""
        return False


class ConstantWalk(Process):
    """Deterministic walk with a fixed step, for forced-path experiments and tests."""

    name = "constant"

    def __init__(self, step_size: float, start: float):
        if not (math.isfinite(step_size) and math.isfinite(start)):
            raise ValueError(f"need a finite step_size and start, got step_size={step_size}, start={start}")
        self.step_size = float(step_size)
        self.start = float(start)

    def initial_state(self, rng):
        return self.start

    def step(self, state, rng):
        return state + self.step_size

    def step_law(self, state=None):
        return JumpDistribution(np.array([self.step_size]), np.array([1.0]))


class CounterexampleChain(Process):
    """Integer chain on ]0, n] with unit steps toward 0 and a rare huge jump away.

    Inside ]0, n] the chain moves +ceil(2*e^n) with probability e^{-n} and -1
    otherwise, which gives one-step drift of at least 1 away from the target,
    yet almost every run walks straight down to 0 in n steps. Outside ]0, n]
    the chain freezes. The up-jump is rounded up so states stay integral;
    rounding up only strengthens the drift. n is capped at 25 so every
    reachable state fits a 64-bit signed integer.
    """

    name = "counterexample"
    family_param = "n"

    def __init__(self, n: int):
        if n != int(n) or not 2 <= n <= 25:
            raise ValueError(f"n must be an integer in [2, 25], got {n}")
        self.n = int(n)
        self.up_prob = math.exp(-self.n)
        self.up_jump = math.ceil(2.0 * math.exp(self.n))

    def initial_state(self, rng):
        return self.n

    def absorbed(self, state) -> bool:
        return not 0 < state <= self.n

    def step(self, state, rng):
        if self.absorbed(state):
            return state
        if rng.random() < self.up_prob:
            return state + self.up_jump
        return state - 1

    def batch_doubles(self, state, a: float, max_steps: int) -> int:
        """Doubles each trial from `state` is given: enough to walk down to the
        target or out of ]0, n], at most max_steps; none where the chain is
        frozen. A trial uses them up to its first up-jump.

        Until an up-jump the chain steps down by one, one double per step: k
        steps reach state - k, which is <= a from k = ceil(state - a) =
        state - floor(a) on, and leaves ]0, n] at k = state. Clamping a to
        [0, state] stops at the exit when a < 0 and keeps the floor finite.
        """
        if self.absorbed(state):
            return 0
        return min(max_steps, max(1, state - math.floor(min(max(a, 0.0), state))))

    def batch_hitting_times(self, state, uniforms: np.ndarray, a: float) -> list[int | None]:
        """hitting_time from `state` for each row of `uniforms`, a trial's first
        batch_doubles(state, a, max_steps) doubles, with that max_steps."""
        if self.absorbed(state):
            return [1 if self.potential(state) <= a else None] * len(uniforms)
        steps = uniforms.shape[1]
        jumps = uniforms < self.up_prob
        t = jumps.argmax(axis=1)
        jumped = jumps[np.arange(len(t)), t]
        # a jump lands above n, where the chain freezes; with no jump the chain
        # walks down to state - steps. Its states stay below 2**53, so their
        # comparison with a as doubles is the potential's.
        landed = np.where(jumped, state - t + self.up_jump, state - steps)
        times = np.where(landed <= a, np.where(jumped, t + 1, steps), 0)
        return [time or None for time in times.tolist()]

    def step_law(self, state=None):
        """Exact transition law on the live region ]0, n], where a check's window lies."""
        return JumpDistribution(
            np.array([-1.0, float(self.up_jump)]),
            np.array([1.0 - self.up_prob, self.up_prob]),
        )


class GeometricDriftWalk(Process):
    """Walk with signed geometric jumps P(step = ±j) = c_± (1+δ)^{-j} for j >= 1.

    The weights are pinned by normalization and the requested mean step:

        c_+ + c_- = δ,        c_+ - c_- = ε δ² / (1+δ),

    so the drift is exactly ε and the two-sided tail is exactly
    P(|step| >= j) = (c_+ + c_-) (1+δ)^{-(j-1)} / δ = (1+δ)^{1-j}. The
    exponential-tail condition therefore holds with constant r = 1 + δ at this
    δ, for every j >= 0.
    """

    name = "geometric-walk"
    family_param = "start"

    def __init__(self, eps: float, delta: float, start: float = 0.0):
        if not (0 < eps < math.inf and 0 < delta < math.inf):
            raise ValueError(f"need finite eps > 0 and delta > 0, got eps={eps}, delta={delta}")
        if not math.isfinite(start):
            raise ValueError(f"need a finite start, got {start}")
        c_sum = delta
        c_diff = eps * delta * delta / (1.0 + delta)
        if c_diff > c_sum:
            raise ValueError(
                f"infeasible (eps={eps}, delta={delta}): the demanded drift exceeds "
                f"what geometric tails allow; need eps <= (1+delta)/delta = {(1 + delta) / delta}"
            )
        self.eps = float(eps)
        self.delta = float(delta)
        self.start = float(start)
        self.c_plus = (c_sum + c_diff) / 2.0
        self.c_minus = (c_sum - c_diff) / 2.0
        self.r = 1.0 + self.delta
        self._p_up = self.c_plus / delta
        self._p_geom = delta / (1.0 + delta)

    def initial_state(self, rng):
        return self.start

    def step(self, state, rng):
        magnitude = rng.geometric(self._p_geom)
        if rng.random() < self._p_up:
            return state + magnitude
        return state - magnitude

    def hitting_time(self, state, rng, a, max_steps):
        # numpy draws a geometric with p >= 1/3 by searching its cdf with one
        # double, and by inversion of an exponential below that
        if self._p_geom < 1.0 / 3.0:
            return super().hitting_time(state, rng, a, max_steps)
        magnitudes = self._magnitude_search
        position = float(state)
        t = 0
        for size in _block_sizes():
            size = min(size, max_steps - t)
            u = rng.random(2 * size)
            magnitude = magnitudes(u[0::2]) + 1.0
            path = np.empty(size + 1)
            path[0] = position
            path[1:] = np.where(u[1::2] < self._p_up, magnitude, -magnitude)
            # cumsum adds left to right, one step at a time, as the step loop does
            np.cumsum(path, out=path)
            hit = int(np.argmax(path[1:] <= a))
            if path[hit + 1] <= a:
                return t + hit + 1
            position = path[-1]
            t += size
            if t == max_steps:
                return None

    @functools.cached_property
    def _search_cdf(self) -> np.ndarray:
        """The partial sums numpy's random_geometric_search compares its double
        with, in its float arithmetic; a double u draws the first X with u <= sum X."""
        q = 1.0 - self._p_geom
        prod = total = self._p_geom
        sums = [total]
        # until every double random() returns is covered, or the sum stalls: from
        # there on numpy would search forever
        while total < _MAX_UNIFORM:
            prod *= q
            if total + prod == total:
                break
            total += prod
            sums.append(total)
        return np.array(sums)

    @functools.cached_property
    def _magnitude_search(self) -> _BucketSearch:
        return _BucketSearch(self._search_cdf, "left")

    def step_law(self, state=None) -> JumpDistribution:
        """Table truncated once the omitted mass drops below 1e-16.

        The cap also covers the exponential-moment tail at gamma = ln(1+delta/2),
        which converges slower than the probability mass, so table-based moment
        sums stay accurate to roughly 1e-16 as well.
        """
        gamma_rate = math.log1p(self.delta) - math.log1p(self.delta / 2.0)
        log_tol = math.log(1e-16)
        j_cap = max(
            64,
            math.ceil(-log_tol / math.log1p(self.delta)) + 1,
            math.ceil(-log_tol / gamma_rate) + 1,
        )
        j = np.arange(1, j_cap + 1, dtype=float)
        weights = (1.0 + self.delta) ** (-j)
        values = np.concatenate([-j[::-1], j])
        probs = np.concatenate([self.c_minus * weights[::-1], self.c_plus * weights])
        return JumpDistribution(values, probs)


class _InversionTables(dict):
    """k -> (px, bound) of numpy's random_binomial_inversion for Binomial(k, p),
    each built on first use: px[X] = P(X) in numpy's float arithmetic, and a
    draw past bound starts over with a fresh double."""

    def __init__(self, p: float):
        super().__init__()
        self.p = p

    def __missing__(self, k: int) -> tuple[tuple[float, ...], int]:
        p = self.p
        q = 1.0 - p
        kp = k * p
        bound = int(min(k, kp + 10.0 * math.sqrt(kp * q + 1)))
        px = [math.exp(k * math.log(q))]
        for x in range(1, bound + 1):
            px.append(((k - x + 1) * p * px[-1]) / (x * q))
        table = self[k] = (tuple(px), bound)
        return table


def _inversion_tail(u: float, px: tuple, bound: int, draw) -> int:
    """The X numpy's random_binomial_inversion returns for a first double u > px[0]."""
    x = 0
    while u > px[x]:
        x += 1
        if x > bound:
            x = 0
            u = draw()
        else:
            u -= px[x - 1]
    return x


_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<q")
#: bit pattern of 1.0; the bit patterns of non-negative doubles order as the doubles do
_ONE_BITS = _BITS.unpack(_DOUBLE.pack(1.0))[0]


def _inversion_thresholds(px: tuple, bound: int, cap: int) -> list[float]:
    """[T(1), ..., T(cap)]: T(x) is the least double u from which
    random_binomial_inversion, with u as its first double, returns X >= x or
    starts over, which counts as X >= every x; 1.0 when no double below 1 does.

    Float subtraction is monotone, so X(u) is non-decreasing in u and a
    bisection on the bit patterns of doubles, bracketed from the float sum of
    px[:x], finds T(x) exactly by replaying _inversion_tail.
    """
    no_double = iter(()).__next__

    def reaches(bits):
        try:
            return _inversion_tail(_DOUBLE.unpack(_BITS.pack(bits))[0], px, bound, no_double) >= x
        except StopIteration:  # it would start over with a fresh double
            return True

    thresholds = []
    below = 0  # a bit pattern whose double returns X < x: 0.0 returns 0
    total = 0.0
    for x in range(1, cap + 1):
        total += px[x - 1] if x <= bound + 1 else 0.0
        guess = max(_BITS.unpack(_DOUBLE.pack(min(total, 1.0)))[0], below + 1)
        at = _least_true(reaches, below, _ONE_BITS, guess)
        thresholds.append(_DOUBLE.unpack(_BITS.pack(at))[0])
        below = at - 1
    return thresholds


def _least_true(pred, lo: int, hi: int, guess: int) -> int:
    """The least i in (lo, hi] with pred(i), where pred is monotone, false at lo
    and taken as true at hi: gallop from guess in lo < guess <= hi, then bisect."""
    step = 1
    if guess == hi or pred(guess):
        hi = guess
        while hi - step > lo and pred(hi - step):
            hi -= step
            step *= 2
        lo = max(lo, hi - step)
    else:
        lo = guess
        while lo + step < hi and not pred(lo + step):
            lo += step
            step *= 2
        hi = min(hi, lo + step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


#: a needle automaton caps its draws where P(Binomial(n - 1, p) >= cap) is at most
#: this, so a block of _MAX_BLOCK generations reaches the cap with at most about 1% chance
_CAP_TAIL = 3e-7
#: the most list entries (states times cells, 8 bytes each) an automaton may have
_MAX_AUTOMATON_ENTRIES = 1 << 21
#: generations of budget per automaton entry from which a trial builds the
#: automaton before its first block. On a 2-vCPU host a build took 7-8 ms for
#: n = 50's bound of 289k entries and about 50 ms for n = 133's 2.09M, 23-25 ns
#: an entry, and a generation on the automaton saved 0.21 us, so a trial that
#: runs its whole budget breaks even at about 0.12 generations an entry. The
#: margin covers trials that hit early: such a trial wastes at most one build
#: per process and key, at most about 50 ms at the 2**21-entry cap.
_STEPS_PER_ENTRY = 0.25
#: automata by (n, p, floor_a), built in the process that first needs one; the
#: oldest goes once _MAX_AUTOMATA are held
_AUTOMATA: dict = {}
_MAX_AUTOMATA = 4


def _draw_cap(px: tuple) -> int:
    """The least c with P(X >= c) <= _CAP_TAIL for X drawn from the inversion table px."""
    tail = 0.0
    for c in range(len(px) - 1, -1, -1):
        tail += px[c]
        if tail > _CAP_TAIL:
            return c + 1
    return 0


class _NeedleAutomaton:
    """The needle's generations as a finite automaton over cells of [0, 1).

    A generation at distance d < n draws Bin(d, p) from one double, then
    Bin(n - d, p) from the next. The thresholds of every count the automaton
    draws cut [0, 1) into cells, and on each cell every draw returns one X. A
    phase-A state d is about to draw the down count and a phase-B state
    (d - X, n - d) the up count; each is a list indexed by cell whose entries
    are the next states, and a phase-A list ends with its d. A hit (d <= floor_a),
    d = n (whose generation draws one double), a draw of `cap` or more and a
    start-over go to the sink, which maps every cell to itself.
    """

    def __init__(self, n: int, p: float, floor_a: int):
        tables = _InversionTables(p)
        cap = _draw_cap(tables[n - 1][0])
        live = range(floor_a + 1, n)
        thresholds = {k: _inversion_thresholds(*tables[k], cap) for k in {*live, *(n - d for d in live)}}
        boundaries = sorted({t for ts in thresholds.values() for t in ts if t < 1.0})
        lowers = [0.0, *boundaries]
        # counts[k][c]: the X that Bin(k, p) returns on cell c, or cap for any more
        counts = {k: np.searchsorted(ts, lowers, side="right").tolist() for k, ts in thresholds.items()}
        self.boundaries = np.array(boundaries)
        self._cells = _BucketSearch(self.boundaries, "right")
        self.sink = sink = []
        sink.extend([sink] * len(lowers))
        phase_a = {d: [] for d in live}
        for d, row in phase_a.items():
            after_down = [sink] * (cap + 1)
            for x in set(counts[d]) - {cap}:
                after_up = [phase_a.get(d - x + y, sink) for y in range(cap)] + [sink]
                after_down[x] = list(map(after_up.__getitem__, counts[n - d]))
            row.extend(map(after_down.__getitem__, counts[d]))
            row.append(d)
        self.starts = [phase_a.get(d, sink) for d in range(n + 1)]

    def advance(self, d: int, u: np.ndarray) -> int | None:
        """The distance after len(u) // 2 generations from d on the doubles u,
        or None when they reach the sink."""
        cells = self._cells(u).tolist()
        end = functools.reduce(operator.getitem, cells, self.starts[d])
        return None if end is self.sink else end[-1]


def _needle_automaton(key: tuple) -> _NeedleAutomaton:
    """The automaton for key = (n, p, floor_a), built and kept on first use."""
    if key not in _AUTOMATA:
        if len(_AUTOMATA) == _MAX_AUTOMATA:
            del _AUTOMATA[next(iter(_AUTOMATA))]
        _AUTOMATA[key] = _NeedleAutomaton(*key)
    return _AUTOMATA[key]


def _binomial_pmf(k: int, p: float) -> np.ndarray:
    """P(Binomial(k, p) = i) for i = 0..k.

    The ratio recurrence runs outwards from a mode, whose term starts at 1, and
    the terms are normalized at the end: nothing overflows at any k, and each
    term keeps its relative accuracy until it underflows below the smallest
    double.
    """
    mode = min(k, math.floor((k + 1) * p))
    odds = p / (1.0 - p)
    i = np.arange(k + 1, dtype=float)
    pmf = np.ones(k + 1)
    # away from the mode, P(i+1)/P(i) = (k-i) p / ((i+1) q) and
    # P(i-1)/P(i) = i q / ((k-i+1) p) are at most 1
    pmf[mode + 1:] = np.cumprod((k - i[mode:k]) / (i[mode:k] + 1.0) * odds)
    pmf[:mode] = np.cumprod(i[mode:0:-1] / ((k - i[mode:0:-1] + 1.0) * odds))[::-1]
    return pmf / pmf.sum()


class _TrimmedBinomials(dict):
    """k -> (first, terms): the terms P(Binomial(k, p) = first + i) that do not
    underflow to 0 at either end, computed once per k."""

    def __init__(self, p: float):
        super().__init__()
        self.p = p

    def __missing__(self, k: int) -> tuple[int, np.ndarray]:
        pmf = _binomial_pmf(k, self.p)
        nonzero = np.flatnonzero(pmf)
        first, last = int(nonzero[0]), int(nonzero[-1])
        self[k] = entry = (first, pmf[first:last + 1])
        return entry


def _mutation_step(n: int, d: int, binomials: _TrimmedBinomials) -> tuple[int, np.ndarray]:
    """(lo, probs) with probs[i] = P(Binomial(n-d, p) - Binomial(d, p) = lo + i):
    the change of the distance d to a fixed bit string of length n under standard
    bit mutation at rate p, from `binomials` at that p. Terms that underflow to 0
    at either end are cut off."""
    u0, up = binomials[n - d]
    w0, down = binomials[d]
    return u0 - (w0 + down.size - 1), np.convolve(up, down[::-1])


class _BitMutation(Process):
    """A process on bit strings of length n under standard bit mutation, which
    flips each bit independently at mutation_rate (default 1/n)."""

    def __init__(self, n: int, mutation_rate: float | None = None):
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        self.n = int(n)
        self.mutation_rate = 1.0 / self.n if mutation_rate is None else float(mutation_rate)
        if not 0.0 < self.mutation_rate < 1.0:
            raise ValueError(f"mutation_rate must be in (0, 1), got {self.mutation_rate}")

    def _mutate(self, count: int, rng) -> int:
        """The new count of marked bits after mutation: Binomial(count, rate)
        drawn first are unmarked, then Binomial(n - count, rate) are marked."""
        down = rng.binomial(count, self.mutation_rate)
        up = rng.binomial(self.n - count, self.mutation_rate)
        return count - down + up


class _MutationChain(_BitMutation):
    """A bit-string EA under standard bit mutation, lumped to a count d in 0..n
    of bits that differ from a target string; the potential is d. Runs start
    from a uniform random bitstring, i.e. d0 ~ Binomial(n, 1/2).

    A subclass gives the law out of d as integer steps from lo (`_law_row`),
    built from the binomial pmfs it is handed, so one state's law and a table
    of many do the same arithmetic."""

    def initial_state(self, rng):
        return int(rng.binomial(self.n, 0.5))

    def states(self) -> range:
        return range(self.n + 1)

    @abstractmethod
    def _law_row(self, d: int, binomials: _TrimmedBinomials) -> tuple[int, np.ndarray]:
        """(lo, probs) with probs[i] = P(step = lo + i) out of distance d."""

    def step_law(self, state) -> JumpDistribution:
        lo, probs = self._law_row(state, _TrimmedBinomials(self.mutation_rate))
        return JumpDistribution(np.arange(lo, lo + probs.size, dtype=float), probs)

    def law_table(self, states) -> LawTable:
        """The laws of `states` in one pass: each binomial pmf is computed once,
        for every state that needs it, and each row as step_law computes it."""
        binomials = _TrimmedBinomials(self.mutation_rate)
        return LawTable.from_rows([self.potential(d) for d in states], [self._law_row(d, binomials) for d in states])


class NeedleOneOneEA(_MutationChain):
    """(1+1) EA on a single-optimum plateau, lumped to the Hamming distance chain.

    All non-optimal points share one fitness value, so every offspring is
    accepted and the distance d to the optimum evolves as

        d' = d - Binomial(d, rate) + Binomial(n - d, rate),

    the exact image of standard bit mutation under exchangeability of bit
    positions. The optimum itself is kept once reached.
    """

    name = "needle"

    def absorbed(self, state) -> bool:
        return state == 0

    def _law_row(self, d, binomials):
        if d == 0:
            return 0, np.array([1.0])
        return _mutation_step(self.n, d, binomials)

    @functools.cached_property
    def _inversion_tables(self) -> _InversionTables:
        return _InversionTables(self.mutation_rate)

    def step(self, state, rng):
        if state == 0:
            return 0
        return self._mutate(state, rng)

    def hitting_time(self, state, rng, a, max_steps):
        p = self.mutation_rate
        # numpy draws Binomial(k, p) by inversion when p <= 1/2 and k p <= 30
        if not (p <= 0.5 and p * self.n <= 30.0):
            return super().hitting_time(state, rng, a, max_steps)
        # every potential is >= 0, and once at 0 the chain stays there
        if not self.potential(0) <= a:
            return None
        if state == 0:
            return 1
        n = self.n
        floor_a = math.floor(a) if a < n else n
        key = (n, p, floor_a)
        automaton = _AUTOMATA.get(key)
        if automaton is None and max_steps >= self._automaton_build_at(floor_a):
            automaton = _needle_automaton(key)
        d, t = state, 0
        for size in _block_sizes():
            u = rng.random(2 * min(size, max_steps - t))
            end = None if automaton is None else automaton.advance(d, u)
            if end is None:
                d, t = self._replay(d, t, u.tolist(), rng, a, max_steps)
                if d <= a:
                    return t
            else:
                d, t = end, t + u.size // 2
            if t == max_steps:
                return None

    def _automaton_build_at(self, floor_a: int) -> float:
        """The least budget of generations with which a trial builds its
        automaton, or math.inf when the automaton would be too large or empty."""
        n = self.n
        cap = _draw_cap(self._inversion_tables[n - 1][0])
        # a bound on the automaton's list entries: states times cells
        entries = (n - 1 - floor_a) * (cap + 2) * ((n - 1) * cap + 2)
        if floor_a >= n - 1 or entries > _MAX_AUTOMATON_ENTRIES:
            return math.inf
        return entries * _STEPS_PER_ENTRY

    def _replay(self, d, t, block, rng, a, max_steps):
        """(d, t) after stepping generations from distance d after t generations
        on the doubles of `block`, and on rng.random() past its end, until the
        block is used up, the target is hit or the budget ends."""
        n = self.n
        tables = self._inversion_tables
        doubles = iter(block)
        left = doubles.__length_hint__
        draw = itertools.chain(doubles, iter(rng.random, None)).__next__
        # a generation draws two doubles, or one at d = n, or more to start over
        while (count := min((left() + 1) // 2, max_steps - t)) > 0:
            for t in range(t + 1, t + count + 1):
                # down ~ Binomial(d, p), then up ~ Binomial(n - d, p); numpy returns
                # Binomial(0, p) = 0 without a draw. Most draws stop at X = 0.
                k = n - d
                px, bound = tables[d]
                u = draw()
                if u > px[0]:
                    d -= _inversion_tail(u, px, bound, draw)
                if k:
                    px, bound = tables[k]
                    u = draw()
                    if u > px[0]:
                        d += _inversion_tail(u, px, bound, draw)
                if d <= a:
                    return d, t
        return d, t


class OneCommaLambdaEA(_MutationChain):
    """(1,λ) EA on a one-count objective, lumped to the zero-bit count chain.

    Each generation draws λ offspring by standard bit mutation and promotes the
    best offspring, never the parent. Tie-breaking among equally good offspring
    is uniform in the bitstring picture and has no effect on the count chain.
    """

    name = "one-comma-lambda"

    def __init__(self, n: int, lambda_offspring: int, mutation_rate: float | None = None):
        super().__init__(n, mutation_rate)
        if lambda_offspring < 1:
            raise ValueError(f"lambda_offspring must be >= 1, got {lambda_offspring}")
        self.lambda_offspring = int(lambda_offspring)

    def step(self, state, rng):
        return self.generation(state, rng)[0]

    def generation(self, state, rng) -> tuple[int, bool]:
        """One generation; also reports whether any offspring was an exact copy."""
        best = None
        saw_copy = False
        for _ in range(self.lambda_offspring):
            down = rng.binomial(state, self.mutation_rate)
            up = rng.binomial(self.n - state, self.mutation_rate)
            if down == 0 and up == 0:
                saw_copy = True
            candidate = state - down + up
            if best is None or candidate < best:
                best = candidate
        return int(best), saw_copy

    def _law_row(self, d, binomials):
        """One offspring's count is Y = d - Binomial(d, p) + Binomial(n-d, p), and
        the best of λ has P(best >= k) = S_k^λ with S_k = P(Y >= k). Its pmf
        S_k^λ - S_{k+1}^λ is taken as P(Y = k) * sum_{i<λ} S_k^i S_{k+1}^{λ-1-i},
        which has no cancellation."""
        lo, probs = _mutation_step(self.n, d, binomials)
        tail = np.cumsum(probs[::-1])[::-1]
        beyond = np.append(tail[1:], 0.0)
        # powers = sum_{i<m} tail^i beyond^(m-1-i), built up from m = 1
        powers, beyond_power = np.ones_like(tail), np.ones_like(tail)
        for _ in range(self.lambda_offspring - 1):
            beyond_power = beyond_power * beyond
            powers = tail * powers + beyond_power
        return lo, probs * powers


def pea_prime_selection(fitnesses) -> np.ndarray:
    """Selection distribution that discounts the best individual by 1/μ and
    spreads that mass evenly over the rest.

    Requires positive finite fitnesses sorted non-increasingly. The best
    individual's share f_1/f_tot is at least 1/μ (the maximum is at least the
    mean), so all entries are non-negative and the vector sums to one.
    """
    f = np.asarray(fitnesses, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise ValueError("need a 1-d fitness vector with at least two entries")
    if not np.all((f > 0) & (f < np.inf)):
        raise ValueError("fitnesses must be positive and finite")
    if np.any(np.diff(f) > 0):
        raise ValueError("fitnesses must be sorted non-increasingly")
    return np.array(_pea_prime_weights(f.tolist(), float(f.sum())))


def _pea_prime_weights(fitnesses, f_tot: float) -> list[float]:
    """PEA′ weights as Python floats: each share f/f_tot, the best's less 1/μ and
    every other's plus 1/(μ(μ-1)), over the total f_tot that the caller sums."""
    mu = len(fitnesses)
    return [fitnesses[0] / f_tot - 1.0 / mu] + [f / f_tot + 1.0 / (mu * (mu - 1)) for f in fitnesses[1:]]


class FitnessProportionalEA(_BitMutation):
    """Generational μ-population EA with proportional selection on a one-count
    objective, lumped to the sorted vector of per-individual one-counts.

    The potential is log_8 of sum_i 8^{count_i}, evaluated with log-sum-exp so
    that counts near n never overflow. Condition checks on this process
    therefore operate on the log-potential scale.

    With force_best_mutation the generation mutates the current best first and
    draws the remaining μ-1 parents from the reweighted distribution of
    pea_prime_selection; otherwise all μ parents are plain proportional draws.
    """

    potential_scale = "log8"

    def __init__(self, n: int, mu: int, force_best_mutation: bool, mutation_rate: float | None = None):
        super().__init__(n, mutation_rate)
        if mu < 2:
            raise ValueError(f"mu must be >= 2, got {mu}")
        self.mu = int(mu)
        self.force_best_mutation = bool(force_best_mutation)
        self.name = "pea-prime" if force_best_mutation else "pea"

    def initial_state(self, rng):
        counts = [int(rng.binomial(self.n, 0.5)) for _ in range(self.mu)]
        return tuple(sorted(counts, reverse=True))

    def potential(self, state) -> float:
        """log_8 of sum_i 8^{count_i} via log-sum-exp."""
        counts = np.asarray(state, dtype=float)
        m = counts.max()
        return float(m + math.log(np.exp((counts - m) * _LN8).sum()) / _LN8)

    def selection_weights(self, state) -> np.ndarray:
        return np.array(self._weights(state))

    def _weights(self, state) -> list[float]:
        """The selection weights as Python floats: uniform on an all-zero state,
        else the shares c/f_tot, and for PEA′ those of _pea_prime_weights. The
        counts are integers, so f_tot is exact, and each weight has the bits of
        numpy's elementwise formulation."""
        mu = self.mu
        f_tot = float(sum(state))
        if f_tot <= 0.0:
            return [1.0 / mu] * mu
        if not self.force_best_mutation:
            return [c / f_tot for c in state]
        return _pea_prime_weights(state, f_tot)

    def generation(self, state, rng) -> tuple[tuple, np.ndarray]:
        """One generation; returns the sorted offspring counts and how often each
        parent index (in sorted order) was selected for mutation."""
        selected = np.zeros(self.mu, dtype=np.int64)
        offspring = []
        draws = self.mu
        if self.force_best_mutation:
            selected[0] += 1
            offspring.append(self._mutate(state[0], rng))
            draws -= 1
        # accumulate adds left to right as np.cumsum does, and bisect_left is
        # searchsorted's side="left", on Python floats
        cdf = list(itertools.accumulate(self._weights(state)))
        for _ in range(draws):
            idx = min(bisect.bisect_left(cdf, rng.random()), self.mu - 1)
            selected[idx] += 1
            offspring.append(self._mutate(state[idx], rng))
        return tuple(sorted(offspring, reverse=True)), selected

    def step(self, state, rng):
        return self.generation(state, rng)[0]


def pea(n: int, mu: int) -> FitnessProportionalEA:
    return FitnessProportionalEA(n, mu, force_best_mutation=False)


def pea_prime(n: int, mu: int) -> FitnessProportionalEA:
    return FitnessProportionalEA(n, mu, force_best_mutation=True)


_FACTORIES = {
    "constant": ConstantWalk,
    "counterexample": CounterexampleChain,
    "geometric-walk": GeometricDriftWalk,
    "needle": NeedleOneOneEA,
    "one-comma-lambda": OneCommaLambdaEA,
    "pea": pea,
    "pea-prime": pea_prime,
}


def _factory(kind: str):
    try:
        return _FACTORIES[kind]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise ValueError(f"unknown process kind {kind!r}; known kinds: {known}") from None


def make_process(kind: str, **params) -> Process:
    """Build a registered process by name; used by the CLI and preset registry."""
    factory = _factory(kind)
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as exc:
        raise ValueError(f"process kind {kind!r}: {exc}") from None
    return factory(**params)


def param_types(kind: str) -> dict[str, type]:
    """How each constructor parameter of `kind` is read from text: int for an
    `int` annotation, float for any other."""
    signature = inspect.signature(_factory(kind), eval_str=True)
    return {name: int if p.annotation is int else float for name, p in signature.parameters.items()}


def family_param(kind: str) -> str:
    """Name of the parameter that sets the window length of `kind`'s scaling family."""
    name = getattr(_factory(kind), "family_param", None)
    if name is None:
        raise ValueError(f"process kind {kind!r} has no scaling family parameterization")
    return name
