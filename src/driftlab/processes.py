"""Process zoo: the absorbing counterexample chain, the signed-geometric drift
walk, and evolutionary algorithms lumped to their potential chains.

Every process is immutable after construction and steps via pure functions of
(state, generator), so trials parallelize safely. `law_table(window)` gives
the exact laws of the potential's step that a check on a window reads, as one
`LawTable`: the walk, the counterexample chain and the constant walk have one
law for every state, a one-row table. The needle and (1,λ) EA lumped chains
state their law once, as `transitions(d)`, and have a row per state above the
window's target, built only when asked for, each binomial pmf once per
process. PEA and PEA′, whose state is a multiset of counts, have no exact law
and are checked empirically.

A trial's generator belongs to the trial alone: each stepped trial gets a
fresh `generator(trial_seed(m, i))`, and a process must not keep it past its
trial. `hitting_time` may draw its doubles in blocks, ahead of need: what
matters is that the doubles it uses are the ones the `step` loop would use, in
the same order. Every process with an exact law steps on it (`stream_layout`
2): a step reads one double and inverts the law's cumulative sums, the law
`law_table` gives the checks. The walk inverts its one law on a block of
doubles at once; the needle and the (1,λ) EA invert `transitions(d)`, and a
long trial runs on an `_Automaton`: its doubles become cells of [0, 1), cut
at every live state's cumulative sums, in blocks that grow eightfold from 64
generations to 2**18. Where every cell's successor is monotone in d, the
pieces of a long block advance in lockstep from the lowest live state and
from n, and a piece whose two bounds meet off the sink ends there from any
start. Only the other pieces, and short blocks whole, are chased, one list
lookup per generation, and a hit is timed on its piece's cells. Each chain
builds an automaton once per floor(a), before the first block of the first
trial whose budget of generations would pay for the build; a trial with a
smaller budget keeps the step loop. The automaton's cell
and the walk's step come from a `_BucketSearch`: one table lookup per double,
exact on numpy's doubles, in place of a binary search. The counterexample
chain, whose start draws nothing, has a batched hook instead (`batch_doubles`,
`batch_hitting_times`) that takes the doubles of a block of trials at once
from `rng.trial_uniforms`.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import itertools
import math
import operator
from abc import ABC, abstractmethod

import numpy as np

from .jumps import MAX_TAIL_INDEX, LawTable

_LN8 = math.log(8.0)
#: steps (walk) or generations (needle) in a trial's first block; each further
#: block is `growth` times as long up to the cap, so short trials draw little
#: ahead and long ones hold a bounded block
_FIRST_BLOCK = 64
_MAX_BLOCK = 1 << 14


def _block_sizes(cap: int = _MAX_BLOCK, growth: int = 2):
    size = _FIRST_BLOCK
    while size < cap:
        yield size
        size *= growth
    yield from itertools.repeat(cap)


#: a bucket table has about this many buckets per edge, rounded up to a power of
#: two, and at most 2**_MAX_BUCKET_BITS (int32 entries, so at most 256 KB)
_BUCKETS_PER_EDGE = 128
_MAX_BUCKET_BITS = 16


class _BucketSearch:
    """np.searchsorted(edges, u, "right") by one table lookup per double, exact
    for every double u in [0, 1), so for every double Generator.random returns.

    [0, 1) is cut into 2**B buckets of equal width. u · 2**B is exact, so its
    integer part is u's bucket. The search is monotone in u, so where it agrees
    at a bucket's first double and its last the bucket holds no edge, and the
    table holds the search's one value there. Every other bucket holds -1, and
    the few doubles that land in one are searched. This is Chen & Asau's (1974)
    guide table, made exact on numpy's doubles.

    The table comes from the edges, which are at least 0, with no search. An
    edge e counts in the search of every double from bucket ceil(e * 2**B) on
    and of none below bucket floor(e * 2**B); where the two differ, the edge
    splits the lower one. So an edge at a bucket's first double splits
    nothing, and one at 1 or above counts for no double.
    """

    def __init__(self, edges: np.ndarray):
        self.edges = edges
        bits = min(_MAX_BUCKET_BITS, (len(edges) * _BUCKETS_PER_EDGE - 1).bit_length())
        size = 1 << bits
        self.scale = float(size)
        scaled = edges * self.scale  # exact: the scale is a power of two
        counted, clear = np.ceil(scaled), np.floor(scaled)
        counts = np.bincount(np.minimum(counted, size).astype(np.intp), minlength=size + 1)
        self.table = np.cumsum(counts[:size], dtype=np.int32)
        split = clear[(counted > clear) & (clear < size)]
        self.table[split.astype(np.intp)] = -1

    def __call__(self, u: np.ndarray) -> np.ndarray:
        found = self.table.take((u * self.scale).astype(np.intp))
        searched = np.flatnonzero(found < 0)
        found[searched] = np.searchsorted(self.edges, u[searched], "right")
        return found


class Process(ABC):
    """A stochastic process with a real-valued potential."""

    name = "process"
    #: reports flag any non-identity potential scale (e.g. log-transformed)
    potential_scale = "identity"
    #: how trials turn their doubles into steps; simulate and scaling CSVs name
    #: any layout other than the first, numpy's own samplers or a process's
    #: own use of its doubles; 2 is one double per step on the exact law
    stream_layout = 1
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

    def law_table(self, window) -> LawTable | None:
        """The exact step laws a check on `window` reads, or None when the
        process has none, as here: a law the same out of every state is one
        row, state None."""
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

    def law_table(self, window):
        return LawTable.law([self.step_size], [1.0])


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

    def law_table(self, window):
        """The one exact transition law of the live region ]0, n], on a window
        whose condition domains hold no frozen state."""
        if window.a < 0 or window.b > self.n + 1:
            raise ValueError(f"the counterexample chain is frozen at 0 and above n={self.n}, so its step law "
                             f"needs a >= 0 and b <= {self.n + 1}; got a={window.a}, b={window.b}")
        return LawTable.law([-1.0, float(self.up_jump)], [1.0 - self.up_prob, self.up_prob])


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
    #: one double per step, inverted on the one exact law of `law_table`
    stream_layout = 2

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
        # past this magnitude the exponential-moment tail at gamma = ln(1+delta/2),
        # which converges slower than the mass, is below 1e-16
        reach = -math.log(1e-16) / (math.log1p(delta) - math.log1p(delta / 2.0))
        if not reach < MAX_TAIL_INDEX:
            raise ValueError(f"delta={delta} needs a step law of about {reach:.3g} magnitudes, more than "
                             f"the {MAX_TAIL_INDEX} the walk keeps; raise delta")
        self.eps = float(eps)
        self.delta = float(delta)
        self.start = float(start)
        self.c_plus = (c_sum + c_diff) / 2.0
        self.c_minus = (c_sum - c_diff) / 2.0
        self.r = 1.0 + self.delta
        self.j_cap = max(64, math.ceil(reach) + 1)

    def initial_state(self, rng):
        return self.start

    def step(self, state, rng):
        steps, edges = self._inverse_cdf
        return state + steps[bisect.bisect_right(edges, rng.random())]

    def hitting_time(self, state, rng, a, max_steps):
        steps, search = self._step_search
        position = float(state)
        t = 0
        for size in _block_sizes():
            size = min(size, max_steps - t)
            path = np.empty(size + 1)
            path[0] = position
            path[1:] = steps.take(search(rng.random(size)))
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
    def _law(self) -> LawTable:
        j = np.arange(1, self.j_cap + 1, dtype=float)
        weights = (1.0 + self.delta) ** (-j)
        return LawTable.law(np.concatenate([-j[::-1], j]),
                            np.concatenate([self.c_minus * weights[::-1], self.c_plus * weights]))

    @functools.cached_property
    def _inverse_cdf(self) -> tuple[list[float], list[float]]:
        """(steps, edges) of the one law: a double u moves the walk by
        steps[bisect_right(edges, u)]."""
        return self._law.values.tolist(), _inverse_cdf_edges(self._law.probs[0])

    @functools.cached_property
    def _step_search(self) -> tuple[np.ndarray, _BucketSearch]:
        """The law's steps, and the bucket table of its edges for a block of doubles."""
        return self._law.values, _BucketSearch(np.array(self._inverse_cdf[1]))

    def law_table(self, window) -> LawTable:
        """The one law of every state, the one `step` draws from, truncated at
        j_cap magnitudes, where the omitted mass and the exponential-moment tail
        at gamma = ln(1+delta/2) drop below 1e-16, so table-based moment sums
        stay accurate to roughly 1e-16 as well. A small delta needs about
        74/delta magnitudes; past MAX_TAIL_INDEX of them the constructor refuses
        it."""
        return self._law


def _inverse_cdf_edges(probs: np.ndarray) -> list[float]:
    """The edges of a law's inverse cdf: a double u in [0, 1) draws outcome
    bisect_right(edges, u). Below the modal outcome the edges are the sums of
    the probabilities from the left, and past it 1 less the sums from the right,
    so what the rounded sums miss of 1 goes to the modal outcome. Each edge is
    rounded to the nearest k * 2**-53, the doubles Generator.random returns, so
    an outcome far in either tail gets the doubles of its own probability to
    within one: none where its tail is below half of one."""
    mode = int(np.argmax(probs))
    edges = np.concatenate([np.cumsum(probs[:mode]), 1.0 - np.cumsum(probs[:mode:-1])[::-1]])
    return (np.rint(edges * 2.0**53) / 2.0**53).tolist()


class _Lazy(dict):
    """key -> build(key), each built on first use and kept."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


#: the most entries an automaton's bound may reach, list and table entries
#: together, so that n = 127 at a = 0 still builds, as when only the list
#: entries counted (bound 4.11M; 382k list and 385k table entries, built in
#: 32 to 56 ms on a 2-vCPU host)
_MAX_AUTOMATON_ENTRIES = 1 << 22
#: a trial builds the automaton before its first block when its budget of
#: generations is at least _BUILD_STEPS + _STEPS_PER_ENTRY * (a bound on the
#: automaton's entries). In one window on a 2-vCPU host a needle's build,
#: laws and bucket table included, took 0.47 ms at n = 8, 2.0 ms at n = 20,
#: 5.8 ms at n = 50, 24 ms at n = 100 and 45 ms at n = 127 (a = 0, rate 1/n;
#: up to twice that under load), and a generation on the automaton (15 to
#: 30 ns) saved about 0.25 us against the step loop. So a trial that runs its
#: whole budget pays for the build 1.5 to 6 times over, which covers trials
#: that hit early: such a trial wastes at most one build per process and
#: floor(a).
_BUILD_STEPS = 8000
_STEPS_PER_ENTRY = 0.25
#: generations in the longest block of a trial on an automaton; the blocks
#: grow _AUTOMATON_GROWTH-fold from _FIRST_BLOCK, so a trial that hits draws
#: at most _FIRST_BLOCK generations or nine times its hit time. A block's
#: doubles are drawn and bucketed _MAX_BLOCK at a time, and only their int32
#: cells are kept.
_AUTOMATON_BLOCK = 1 << 18
_AUTOMATON_GROWTH = 8
#: generations in a piece of a block that the lockstep pass bounds, at first
#: and at most. A pass costs a numpy add and take per generation of a piece,
#: together about 1.6 us on a 2-vCPU host whatever the number of pieces, so a
#: block is cut only when it has at least _MIN_PIECES pieces; a shorter one is
#: chased whole, at about 25 ns a generation. A pass in which fewer than three
#: quarters of the pieces meet doubles the automaton's piece, and past
#: _MAX_PIECE the automaton is only chased: on 2**18 generations a pass over
#: pieces of 1024 costs about 12 ns a generation, so with a quarter of them
#: chased it saves little.
_PIECE = 256
_MAX_PIECE = 1024
_MIN_PIECES = 128


class _Automaton:
    """A mutation chain's generations as a finite automaton over cells of [0, 1).

    A generation at distance d reads one double u and moves to first +
    bisect_right(edges, u) of the chain's `_inverse_cdfs`. The edges of every
    live state d > floor_a cut [0, 1) into cells, on each of which every live
    state moves to one successor. A successor at or below floor_a, a hit, is
    the sink, which maps every cell to itself. The automaton holds its
    transitions twice: as lists, a live state being a list indexed by cell
    whose entries are the next states and which ends with its d, and as one
    dense table over (row, cell), row 0 the sink and row r the distance
    floor_a + r, whose entries are the next rows times the number of cells.

    When every cell's successor row is monotone in the row, a block of at
    least _MIN_PIECES pieces of `piece` generations is cut into them, and all
    pieces advance together through the dense table, from the lowest live
    state and from n. By monotone coupling (Propp & Wilson 1996) every start
    lies between the two bounds, so a piece whose bounds meet off the sink
    ends in that state from any start, and never hits. Only the other pieces
    are chased through the lists, from the state the piece before left; a
    shorter block is chased whole. Bounds meet less often the faster the
    chain leaves their starts, so the pass doubles `piece` when fewer than
    three quarters of its pieces meet, and sets it to 0, for no more passes,
    past _MAX_PIECE. `piece` changes how fast a block runs, never where it
    ends.
    """

    def __init__(self, chain: _MutationChain, floor_a: int):
        laws = chain._inverse_cdfs
        live = range(floor_a + 1, chain.n + 1)
        boundaries = np.array(sorted({e for d in live for e in laws[d][1] if 0.0 < e < 1.0}))
        lowers = np.append(0.0, boundaries)
        self._cells = _BucketSearch(boundaries)
        self.floor_a = floor_a
        self.sink = sink = []
        sink.extend([sink] * lowers.size)
        rows = [sink] + [[] for _ in live]
        nexts = np.zeros((len(rows), lowers.size), dtype=np.intp)
        for r, d in enumerate(live, 1):
            first, edges = laws[d]
            nexts[r] = np.maximum(np.searchsorted(edges, lowers, "right") + (first - floor_a), 0)
            rows[r].extend(map(rows.__getitem__, nexts[r].tolist()))
            rows[r].append(d)
        self.starts = [rows[max(d - floor_a, 0)] for d in range(chain.n + 1)]
        self.monotone = bool((nexts[1:] >= nexts[:-1]).all())
        self.piece = _PIECE if self.monotone else 0
        self._width = lowers.size
        self._next = (nexts * self._width).ravel()

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The cells of rng's next `size` doubles, drawn _MAX_BLOCK at a time."""
        cells = np.empty(size, dtype=np.int32)
        for lo in range(0, size, _MAX_BLOCK):
            cells[lo:lo + _MAX_BLOCK] = self._cells(rng.random(min(_MAX_BLOCK, size - lo)))
        return cells

    def advance(self, d: int, cells: np.ndarray) -> tuple[int | None, int]:
        """(d', len(cells)) with d' the distance after the generations of
        `cells` from the live distance d, or (None, t) when the t-th of them
        hits."""
        piece = self.piece
        if piece and cells.size >= _MIN_PIECES * piece:
            ends = self._piece_ends(cells[:cells.size - cells.size % piece].reshape(-1, piece))
            if 4 * np.count_nonzero(ends) < 3 * ends.size:
                self.piece = 2 * piece if piece < _MAX_PIECE else 0
        else:
            # chased whole, _MAX_BLOCK generations at a time
            piece = _MAX_BLOCK
            ends = np.zeros(cells.size // piece, dtype=np.intp)
        row = self.starts[d]
        # each piece whose bounds did not meet, then the generations past the last piece
        for k in [*np.flatnonzero(ends == 0).tolist(), ends.size]:
            if k > 0 and ends[k - 1]:
                row = self.starts[ends[k - 1]]
            span = cells[k * piece:(k + 1) * piece].tolist()
            end = functools.reduce(operator.getitem, span, row)
            if end is self.sink:
                # the hit's time, from the piece's cells
                for t, cell in enumerate(span, k * piece + 1):
                    row = row[cell]
                    if row is self.sink:
                        return None, t
            row = end
        return row[-1], cells.size

    def _piece_ends(self, pieces: np.ndarray) -> np.ndarray:
        """For each row of cells of `pieces`, the distance it ends in from
        every live start, or 0 when its two bounds do not meet off the sink."""
        # the rows of the lowest live state and of n, times the width
        bounds = np.repeat([[self._width], [self._next.size - self._width]], len(pieces), axis=1)
        for cells in pieces.T:
            bounds = self._next.take(bounds + cells)
        lower, upper = bounds // self._width
        return np.where((lower == upper) & (lower > 0), lower + self.floor_a, 0)


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


def _trimmed_binomial(k: int, p: float) -> tuple[int, np.ndarray]:
    """(first, terms): the terms P(Binomial(k, p) = first + i) that do not
    underflow to 0 at either end."""
    pmf = _binomial_pmf(k, p)
    nonzero = np.flatnonzero(pmf)
    return int(nonzero[0]), pmf[nonzero[0]:nonzero[-1] + 1]


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

    A subclass states its law once, as `transitions(d)`, from the process's
    binomial pmfs, which are computed once per k. The chain steps on that law:
    a generation reads one double and inverts its cumulative sums, and a long
    trial advances block by block on the chain's `_Automaton`, built once per
    floor(a).
    """

    #: one double per generation, inverted on the exact law of `transitions`
    stream_layout = 2

    def initial_state(self, rng):
        return int(rng.binomial(self.n, 0.5))

    @functools.cached_property
    def _binomials(self) -> _Lazy:
        return _Lazy(lambda k: _trimmed_binomial(k, self.mutation_rate))

    @functools.cached_property
    def _inverse_cdfs(self) -> _Lazy:
        """d -> (first, edges): a double u moves d to first + bisect_right(edges, u)."""
        def inverse_cdf(d):
            first, probs = self.transitions(d)
            return first, _inverse_cdf_edges(probs)
        return _Lazy(inverse_cdf)

    @functools.cached_property
    def _automata(self) -> _Lazy:
        return _Lazy(lambda floor_a: _Automaton(self, floor_a))

    def _mutated(self, d: int) -> tuple[int, np.ndarray]:
        """(first, probs) with probs[i] = P(d + Binomial(n-d, p) - Binomial(d, p) = first + i):
        the distance d to a fixed bit string after standard bit mutation. Terms
        that underflow to 0 at either end are cut off."""
        u0, up = self._binomials[self.n - d]
        w0, down = self._binomials[d]
        return d + u0 - (w0 + down.size - 1), np.convolve(up, down[::-1])

    @abstractmethod
    def transitions(self, d: int) -> tuple[int, np.ndarray]:
        """(first, probs): out of distance d the chain moves to first + i with
        probability probs[i]."""

    def law_table(self, window) -> LawTable:
        """The laws out of every state d > window.a, each row the steps
        first - d + i of transitions(d)."""
        states = [d for d in range(self.n + 1) if d > window.a]
        rows = [(first - d, probs) for d, (first, probs) in zip(states, map(self.transitions, states))]
        return LawTable.from_rows([self.potential(d) for d in states], rows)

    def step(self, state, rng):
        first, edges = self._inverse_cdfs[state]
        return first + bisect.bisect_right(edges, rng.random())

    def hitting_time(self, state, rng, a, max_steps):
        # every potential is >= 0
        if not self.potential(0) <= a:
            return None
        floor_a = math.floor(a) if a < self.n else self.n
        d, t = state, 0
        if d > floor_a and max_steps >= self._automaton_build_at(floor_a):
            automaton = self._automata[floor_a]
            for size in _block_sizes(_AUTOMATON_BLOCK, _AUTOMATON_GROWTH):
                d, size = automaton.advance(d, automaton.draw(rng, min(size, max_steps - t)))
                t += size
                if d is None:
                    return t
                if t == max_steps:
                    return None
        laws = self._inverse_cdfs
        for size in _block_sizes():
            for t, x in enumerate(rng.random(min(size, max_steps - t)).tolist(), t + 1):
                first, edges = laws[d]
                d = first + bisect.bisect_right(edges, x)
                if d <= a:
                    return t
            if t == max_steps:
                return None

    def _automaton_build_at(self, floor_a: int) -> float:
        """The least budget of generations with which a trial builds its
        automaton, or math.inf when the automaton would be too large or empty.

        Each of the live states' laws has at most n edges, so the automaton
        has at most live * n + 1 cells, live * (live * n + 2) list entries and
        (live + 1) * (live * n + 1) table entries.
        """
        live = self.n - floor_a
        entries = live * (live * self.n + 2) + (live + 1) * (live * self.n + 1)
        if live < 1 or entries > _MAX_AUTOMATON_ENTRIES:
            return math.inf
        return _BUILD_STEPS + entries * _STEPS_PER_ENTRY


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

    def transitions(self, d):
        if d == 0:
            return 0, np.array([1.0])
        return self._mutated(d)


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

    def transitions(self, d):
        """One offspring's count is Y = d - Binomial(d, p) + Binomial(n-d, p), and
        the best of λ has P(best >= k) = S_k^λ with S_k = P(Y >= k). Its pmf
        S_k^λ - S_{k+1}^λ is taken as P(Y = k) * sum_{i<λ} S_k^i S_{k+1}^{λ-1-i},
        which has no cancellation."""
        first, probs = self._mutated(d)
        tail = np.cumsum(probs[::-1])[::-1]
        beyond = np.append(tail[1:], 0.0)
        # powers = sum_{i<m} tail^i beyond^(m-1-i), built up from m = 1
        powers, beyond_power = np.ones_like(tail), np.ones_like(tail)
        for _ in range(self.lambda_offspring - 1):
            beyond_power = beyond_power * beyond
            powers = tail * powers + beyond_power
        return first, probs * powers


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
