"""The mutation chains' sampler and automaton against the step rule and the exact law.

The needle and the (1,λ) EA step on `transitions(d)`: a generation reads one
double u and moves distance d to first + bisect_right(edges, u), where
(first, probs) = `transitions(d)` and the edges are the law's cumulative sums
from the left below its modal successor and 1 less the sums from the right
past it, each rounded to the nearest multiple of 2**-53. Every double of a
cell of the automaton must give `step`'s successor, the doubles that draw each
successor must carry its exact probability (the walk's one law too), and the
dense table must hold the lists. A piece that the lockstep pass ends must end
there from every start, a table that is not monotone must never take that
pass, whole trials must equal the step loop on the same doubles, and the
automaton must be built only where it pays.
"""

import bisect
import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest

import driftlab as dl
from driftlab import processes
from driftlab.cli import main
from driftlab.processes import _AUTOMATON_BLOCK, _PIECE, _MAX_PIECE
from driftlab.rng import generator, trial_seed
from helpers import MAX_UNIFORM, PrescribedDoubles, needle_step_exact


def chain(kind, n, p=None, lam=None):
    """The needle, or the (1,λ) EA with λ = lam, on n bits at rate p (1/n by default)."""
    if kind == "needle":
        return dl.NeedleOneOneEA(n, mutation_rate=p)
    return dl.OneCommaLambdaEA(n, lam, mutation_rate=p)


def key(process, floor_a):
    """What the `builds` fixture records of an automaton."""
    return process.name, process.n, process.mutation_rate, floor_a


#: (kind, n, rate, λ, floor(a)) of the automata whose every cell is checked
KEYS = [("needle", 50, 1 / 50, None, 0), ("needle", 12, 1 / 12, None, 3), ("needle", 20, 0.3, None, 2),
        ("needle", 30, 0.7, None, 5), ("comma", 20, 1 / 20, 2, 3), ("comma", 30, 1 / 30, 4, 5),
        ("comma", 12, 1 / 12, 1, 2), ("comma", 16, 0.3, 3, 4)]


def step_rule(process, d, u):
    """The distance after one generation from d on the double u, read from
    `transitions(d)` by the rule, not from the process's own tables: each edge
    rounded to the nearest multiple of 2**-53."""
    first, probs = process.transitions(d)
    probs = probs.tolist()
    mode = probs.index(max(probs))
    edges = [*itertools.accumulate(probs[:mode]),
             *reversed([1.0 - s for s in itertools.accumulate(reversed(probs[mode + 1:]))])]
    return first + bisect.bisect_right([round(e * 2**53) / 2**53 for e in edges], u)


class OneDouble:
    """A stand-in for a generator that serves the one double u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def successor(automaton, d, cell):
    """The automaton's next distance from d on `cell`, or None for the sink."""
    row = automaton.starts[d][cell]
    return None if row is automaton.sink else row[-1]


def chase(automaton, d, cells):
    """The distance after `cells` from d through the lists, or None for the sink."""
    row = functools.reduce(operator.getitem, cells, automaton.starts[d])
    return None if row is automaton.sink else row[-1]


@pytest.fixture
def builds(monkeypatch):
    """The `key` of every automaton built while the test runs."""
    built = []

    class Counted(processes._Automaton):
        def __init__(self, process, floor_a):
            built.append(key(process, floor_a))
            super().__init__(process, floor_a)

    monkeypatch.setattr(processes, "_Automaton", Counted)
    return built


@pytest.fixture
def advances(monkeypatch):
    """Every automaton block's result, in order: (distance, generations), or
    (None, t) for a hit on the block's t-th generation."""
    results = []
    advance = processes._Automaton.advance

    def spy(self, d, cells):
        results.append(advance(self, d, cells))
        return results[-1]

    monkeypatch.setattr(processes._Automaton, "advance", spy)
    return results


@pytest.fixture
def lockstep(monkeypatch):
    """The number of pieces of every lockstep pass, in order."""
    passes = []
    piece_ends = processes._Automaton._piece_ends

    def spy(self, pieces):
        passes.append(len(pieces))
        return piece_ends(self, pieces)

    monkeypatch.setattr(processes._Automaton, "_piece_ends", spy)
    return passes


#: generations in a block of the trials that shrink it: four pieces
SMALL_BLOCK = 4 * _PIECE


@pytest.fixture
def small_blocks(monkeypatch):
    """Every block of a trial on the automaton is SMALL_BLOCK generations, and
    is cut into pieces."""
    monkeypatch.setattr(processes, "_FIRST_BLOCK", SMALL_BLOCK)
    monkeypatch.setattr(processes, "_AUTOMATON_BLOCK", SMALL_BLOCK)
    monkeypatch.setattr(processes, "_MIN_PIECES", SMALL_BLOCK // _PIECE)


def successor_masses(edges):
    """The mass each successor gets: Generator.random returns k * 2**-53, so
    the doubles that draw a successor are an interval of k."""
    ks = [0, *(min(math.ceil(e * 2.0**53), 2**53) for e in edges), 2**53]
    return [Fraction(hi - lo, 2**53) for lo, hi in itertools.pairwise(ks)]


def comma_step_exact(n, d, lam):
    """{step: probability} of the (1,λ) EA at rate 1/n in rationals: one
    offspring's step is the needle's at d, and the best of λ has
    P(best >= k) = P(Y >= k)^λ."""
    law, denominator = needle_step_exact(n, d)
    steps = sorted(law)
    tails = list(itertools.accumulate(Fraction(law[k], denominator) for k in reversed(steps)))[::-1] + [0]
    return {k: tails[i] ** lam - tails[i + 1] ** lam for i, k in enumerate(steps)}


def walk_step_exact(j_cap):
    """{step: probability} of the walk at eps 0.2 and delta 1 in rationals:
    c_+ = 11/20 and c_- = 9/20, each times 2^-j, out to j_cap."""
    return {sign * j: Fraction(c, 20 * 2**j) for j in range(1, j_cap + 1) for sign, c in ((1, 11), (-1, 9))}


def assert_masses_exact(first, edges, exact):
    """Each successor first + i draws the doubles of its exact probability
    exact(first + i) to within 1e-15, and one whose exact tail, from it away
    from the modal successor, is below 2^-55 draws none. The modal successor
    takes what the float law's rounded sums miss of 1, a few ulps."""
    masses = successor_masses(edges)
    probs = [exact(first + i) for i in range(len(masses))]
    mode = masses.index(max(masses))
    for outward in (range(mode - 1, -1, -1), range(mode + 1, len(masses))):
        # the tail of successor i away from the mode is the sum from i out
        tails = itertools.accumulate(probs[i] for i in reversed(outward))
        for i, tail in zip(reversed(outward), tails):
            if tail < Fraction(1, 2**55):
                assert masses[i] == 0, (first + i, float(probs[i]))
    assert max(abs(float(mass - p)) for mass, p in zip(masses, probs)) < 1e-15


class TestStep:
    @pytest.mark.parametrize("kind, n, p, lam", [("needle", 12, 1 / 12, None), ("needle", 30, 0.7, None),
                                                 ("comma", 12, 1 / 12, 1), ("comma", 20, 0.3, 4)])
    def test_step_is_the_rule(self, kind, n, p, lam):
        process = chain(kind, n, p, lam)
        doubles = [0.0, MAX_UNIFORM, *np.random.default_rng(3).random(200).tolist()]
        for d in range(n + 1):
            for u in doubles:
                assert process.step(d, OneDouble(u)) == step_rule(process, d, u), (d, u)

    def test_the_optimum_is_kept(self):
        needle = dl.NeedleOneOneEA(10)
        assert {needle.step(0, OneDouble(u)) for u in (0.0, 0.5, MAX_UNIFORM)} == {0}

    @pytest.mark.parametrize("kind, lam", [("needle", None), ("comma", 3)])
    def test_the_doubles_of_each_successor_carry_its_exact_probability(self, kind, lam):
        """At n = 50 and rate 1/n, against the law in rationals. What the
        rounded sums miss of 1 goes to the modal successor, so a far successor
        gets no double: from d = 8 the needle reaches 50 with probability
        3.7e-72, and from d = 45 it reaches 0 with probability 3.2e-77."""
        n = 50
        process = chain(kind, n, lam=lam)
        for d in range(1, n + 1):
            first, edges = process._inverse_cdfs[d]
            if kind == "needle":
                law, denominator = needle_step_exact(n, d)
                law = {step: Fraction(weight, denominator) for step, weight in law.items()}
            else:
                law = comma_step_exact(n, d, lam)
            assert_masses_exact(first, edges, lambda successor: law.get(successor - d, 0))
            # no double draws a successor outside the law's reach
            assert first >= 0 and first + len(edges) <= n
        needle = dl.NeedleOneOneEA(n)
        first, edges = needle._inverse_cdfs[8]
        assert successor_masses(edges)[n - first] == 0
        first, edges = needle._inverse_cdfs[45]
        assert first == 0 and successor_masses(edges)[0] == 0

    def test_the_walk_doubles_carry_each_step_exact_probability(self):
        walk = dl.GeometricDriftWalk(0.2, 1.0)
        steps, edges = walk._inverse_cdf
        law = walk_step_exact(walk.j_cap)
        assert_masses_exact(0, edges, lambda i: law[steps[i]])
        # 2^-j falls below half an ulp of 1 from j = 55 on: no double draws +j_cap
        assert successor_masses(edges)[-1] == 0


class TestCells:
    @pytest.mark.parametrize("kind, n, p, lam, floor_a", KEYS)
    def test_every_cell_at_both_ends_gives_the_step(self, kind, n, p, lam, floor_a):
        """The first double of every cell and the double just below the next
        edge, for every live state: the automaton's next distance is the
        step's, or the sink exactly when the step hits."""
        process = chain(kind, n, p, lam)
        automaton = processes._Automaton(process, floor_a)
        edges = automaton._cells.edges.tolist()
        firsts = [0.0, *edges]
        lasts = [math.nextafter(e, 0.0) for e in edges] + [MAX_UNIFORM]
        # the cell search puts each end in its own cell
        assert automaton._cells(np.array(firsts)).tolist() == list(range(len(firsts)))
        assert automaton._cells(np.array(lasts[1:])).tolist() == list(range(1, len(lasts)))
        sinks = 0
        for d in range(floor_a + 1, n + 1):
            for cell, ends in enumerate(zip(firsts, lasts)):
                for u in ends:
                    after = process.step(d, OneDouble(u))
                    assert after == step_rule(process, d, u)
                    expected = None if after <= floor_a else after
                    assert successor(automaton, d, cell) == expected, (d, cell, u)
                    sinks += expected is None
        assert sinks

    @pytest.mark.parametrize("kind, n, p, lam, floor_a", KEYS)
    def test_the_table_holds_the_lists(self, kind, n, p, lam, floor_a):
        """Row 0 of the dense table is the sink and row r the distance
        floor_a + r; its entry on a cell is the next row times the number of
        cells."""
        automaton = processes._Automaton(chain(kind, n, p, lam), floor_a)
        width = len(automaton.sink)
        table = automaton._next.reshape(-1, width)
        assert table.shape == (n - floor_a + 1, width) and not table[0].any()
        for d in range(floor_a + 1, n + 1):
            rows = [0 if s is None else s - floor_a for s in (successor(automaton, d, c) for c in range(width))]
            assert table[d - floor_a].tolist() == [row * width for row in rows], d

    @pytest.mark.parametrize("kind, lam", [("needle", None), ("comma", 2)])
    def test_start_states_at_or_below_the_target_are_the_sink(self, kind, lam):
        automaton = processes._Automaton(chain(kind, 12, lam=lam), 3)
        assert all(automaton.starts[d] is automaton.sink for d in range(4))
        assert automaton.advance(12, np.zeros(0, dtype=np.int32)) == (12, 0)

    @pytest.mark.parametrize("kind, n, p, lam, floor_a", KEYS)
    def test_the_bound_holds_every_entry(self, kind, n, p, lam, floor_a):
        process = chain(kind, n, p, lam)
        automaton = processes._Automaton(process, floor_a)
        entries = (n - floor_a) * (len(automaton.sink) + 1) + automaton._next.size
        bound = (process._automaton_build_at(floor_a) - processes._BUILD_STEPS) / processes._STEPS_PER_ENTRY
        assert entries <= bound


#: (kind, n, rate, λ, floor(a)) of chains whose tables are not monotone: at
#: rates of one half and above, more bits flip than stay
NOT_MONOTONE = [("needle", 20, 0.9, None, 2), ("needle", 12, 0.9, None, 3), ("needle", 50, 0.5, None, 20),
                ("needle", 30, 0.7, None, 5), ("comma", 12, 0.6, 3, 0), ("comma", 20, 0.6, 3, 2)]
MONOTONE = [key for key in KEYS if key not in NOT_MONOTONE]


def monotone(automaton, n, floor_a):
    """True when on every cell the lists' successor, the sink counted as
    below every distance, does not fall as the state rises from the sink to n."""
    for cell in range(len(automaton.sink)):
        successors = [floor_a] + [floor_a if s is None else s
                                  for s in (successor(automaton, d, cell) for d in range(floor_a + 1, n + 1))]
        if any(x > y for x, y in itertools.pairwise(successors)):
            return False
    return True


def sinking(automaton):
    """The first double of the last cell on which the lowest live state goes
    to the sink."""
    lowest = automaton.starts[automaton.floor_a + 1]
    cell = max(c for c, row in enumerate(lowest[:-1]) if row is automaton.sink)
    return 0.0 if cell == 0 else float(automaton._cells.edges[cell - 1])


class TestLockstep:
    @pytest.mark.parametrize("kind, n, p, lam, floor_a", KEYS + [key for key in NOT_MONOTONE if key not in KEYS])
    def test_the_check_reads_every_cell(self, kind, n, p, lam, floor_a):
        automaton = processes._Automaton(chain(kind, n, p, lam), floor_a)
        assert automaton.monotone is monotone(automaton, n, floor_a)
        assert automaton.monotone is ((kind, n, p, lam, floor_a) in MONOTONE)

    @pytest.mark.parametrize("kind, n, p, lam, floor_a", MONOTONE)
    def test_a_piece_whose_bounds_meet_ends_there_from_every_start(self, kind, n, p, lam, floor_a):
        """The lockstep pass ends a piece exactly when the chase from the
        lowest live state and the chase from n end in one state off the sink,
        and then the chase from every live state ends there too."""
        automaton = processes._Automaton(chain(kind, n, p, lam), floor_a)
        pieces = automaton.draw(np.random.default_rng(5), 64 * _PIECE).reshape(64, _PIECE)
        ends = automaton._piece_ends(pieces).tolist()
        for piece, end in zip(pieces.tolist(), ends):
            finals = [chase(automaton, d, piece) for d in range(floor_a + 1, n + 1)]
            met = finals[0] == finals[-1] and finals[0] is not None
            assert end == (finals[0] if met else 0)
            assert not end or set(finals) == {end}

    @pytest.mark.parametrize("kind, lam", [("needle", None), ("comma", 2)])
    def test_most_pieces_of_a_trial_that_does_not_hit_meet(self, kind, lam):
        """At n = 50 and floor(a) = 0, where the chain stays far from the
        target, the bounds of all but a few pieces meet."""
        automaton = processes._Automaton(chain(kind, N, lam=lam), 0)
        ends = automaton._piece_ends(automaton.draw(np.random.default_rng(6), 1 << 18).reshape(-1, _PIECE))
        assert np.count_nonzero(ends) >= 0.95 * ends.size

    def test_bounds_that_meet_do_not_bind_a_table_that_is_not_monotone(self):
        """The needle at rate 1/2 has one law out of every state, but its
        rounded edges differ from state to state: on some cell the lowest
        live state and n move to one state and another live state does not,
        so the lockstep pass would end a piece of that cell wrongly."""
        automaton = processes._Automaton(chain("needle", 50, 0.5), 20)
        misled = [cell for cell in range(len(automaton.sink)) if automaton._piece_ends(np.array([[cell]]))[0]
                  and len({chase(automaton, d, [cell]) for d in range(21, 51)}) > 1]
        assert misled and not automaton.monotone

    @pytest.mark.parametrize("kind, n, p, lam, floor_a", NOT_MONOTONE)
    def test_a_table_that_is_not_monotone_is_only_chased(self, kind, n, p, lam, floor_a, small_blocks, lockstep,
                                                         monkeypatch):
        monkeypatch.setattr(processes, "_BUILD_STEPS", 0)
        monkeypatch.setattr(processes, "_STEPS_PER_ENTRY", 0.0)
        process = chain(kind, n, p, lam)
        assert not process._automata[floor_a].monotone and process._automata[floor_a].piece == 0
        hits = seeded_trials_match(process, floor_a + 0.5, (1, 3 * _PIECE + 1, 5000))
        assert any(hits) and lockstep == []

    def test_pieces_grow_until_most_bounds_meet(self, lockstep):
        """At n = 127 the bounds of few pieces of 256 generations meet, and of
        most pieces of 512; every block ends where the lists take it."""
        n = 127
        automaton = processes._Automaton(chain("needle", n), 0)
        rng = np.random.default_rng(7)
        d = 63
        for size in (processes._MIN_PIECES * _PIECE, processes._MIN_PIECES * _PIECE, 1 << 17):
            cells = automaton.draw(rng, size)
            assert automaton.advance(d, cells) == (chase(automaton, d, cells.tolist()), size)
            d = chase(automaton, d, cells.tolist())
        # the second block has half as many pieces as the pass needs
        assert lockstep == [processes._MIN_PIECES, (1 << 17) // (2 * _PIECE)]
        assert automaton.piece == 2 * _PIECE


def step_loop_hit_time(process, state, a, max_steps, doubles):
    """First generation t in 1..max_steps after which `step`, from `state` on
    `doubles`, is at or below a, or None."""
    rng = PrescribedDoubles(doubles, length=max(len(doubles), max_steps))
    for t in range(1, max_steps + 1):
        state = process.step(state, rng)
        if state <= a:
            return t
    return None


def seeded_trials_match(process, a, budgets, trials=30, master_seed=8):
    """hitting_time on each of `trials` seeded trials with each budget equals
    the step loop on the trial's doubles after its start. Returns the step
    loop's hit times with the largest budget."""
    hits = []
    for index in range(trials):
        rng = generator(trial_seed(master_seed, index))
        state = process.initial_state(rng)
        hit = step_loop_hit_time(process, state, a, max(budgets), rng.random(max(budgets)).tolist())
        for budget in budgets:
            rng = generator(trial_seed(master_seed, index))
            process.initial_state(rng)
            expected = hit if hit is not None and hit <= budget else None
            assert process.hitting_time(state, rng, a, budget) == expected, (index, budget)
        hits.append(hit)
    return hits


def assert_crafted_trial(process, prefix, state, a, max_steps, seed=0):
    """hitting_time on a stream that starts with `prefix` equals the step
    loop's hit time on the same doubles."""
    stub = PrescribedDoubles(prefix, seed, length=max(1 << 17, max_steps))
    expected = step_loop_hit_time(process, state, a, max_steps, stub.doubles)
    assert process.hitting_time(state, stub, a, max_steps) == expected
    return expected


def hit_at(process, state, t, seed=0):
    """Doubles on which the chain from `state` first reaches 0 on generation t:
    seeded doubles, on which it stays live, then 0.0, which draws every
    state's least successor, until the hit."""
    doubles = np.random.default_rng(seed).random(t).tolist()
    states = [state]
    for u in doubles:
        states.append(process.step(states[-1], OneDouble(u)))
    assert min(states) > 0
    for p in range(t - 1, -1, -1):
        d, zeros = states[p], 0
        while d > 0 and p + zeros < t:
            d, zeros = process.step(d, OneDouble(0.0)), zeros + 1
        if d == 0 and p + zeros == t:
            return doubles[:p] + [0.0] * zeros
    raise AssertionError(f"no stream from {state} reaches 0 on generation {t}")


#: the chains of the crafted and budget trials, on 50 bits at rate 1/50
N = 50
CHAINS = [pytest.param(("needle", N), id="needle"), pytest.param(("comma", N, None, 2), id="comma")]


@pytest.fixture(params=CHAINS)
def process(request):
    return chain(*request.param)


#: the blocks of a trial on the automaton before its first of _AUTOMATON_BLOCK
#: generations: each eight times the one before, from 64
RAMP = [64, 512, 4096, 32768]


class TestTrials:
    @pytest.fixture(autouse=True)
    def on_the_automaton(self, monkeypatch):
        """Every trial here builds its automaton first, whatever its budget."""
        monkeypatch.setattr(processes, "_BUILD_STEPS", 0)
        monkeypatch.setattr(processes, "_STEPS_PER_ENTRY", 0.0)

    def test_blocks_grow_eightfold_to_the_longest(self, process, advances, lockstep):
        """Blocks of fewer than _MIN_PIECES pieces are chased whole; of a
        trial's four blocks before the longest, only the last is cut."""
        budget = sum(RAMP) + _AUTOMATON_BLOCK + 416
        assert assert_crafted_trial(process, [], 25, 0.0, budget) is None
        assert [size for _, size in advances] == RAMP + [_AUTOMATON_BLOCK, 416]
        assert lockstep == [RAMP[-1] // _PIECE, _AUTOMATON_BLOCK // _PIECE]
        assert process._automata[0].piece == _PIECE

    def test_an_early_hit_draws_one_short_block(self, process, advances, lockstep):
        t = 100
        assert assert_crafted_trial(process, hit_at(process, 25, t), 25, 0.0, 10**6) == t
        assert advances[0][1] == RAMP[0] and advances[1:] == [(None, t - RAMP[0])] and lockstep == []

    @pytest.mark.parametrize("t, state", [
        (1, 1), (_PIECE, 25), (_PIECE + 1, 25), (3 * _PIECE, 25), (SMALL_BLOCK, 25), (SMALL_BLOCK + 1, 25),
        (SMALL_BLOCK + _PIECE + 7, 25), (2 * SMALL_BLOCK, 25),
    ], ids=["block-first", "piece-last", "piece-first", "last-piece-last", "block-last", "next-block-first",
            "tail-last", "second-block-last"])
    def test_hits_on_the_ends_of_pieces_and_blocks(self, process, small_blocks, advances, lockstep, t, state):
        """Blocks of four pieces; a budget of 2 * SMALL_BLOCK + _PIECE + 7
        leaves a last block of one piece and a tail of seven generations."""
        prefix = hit_at(process, state, t)
        for budget in (t, 2 * SMALL_BLOCK + _PIECE + 7):
            advances.clear()
            assert assert_crafted_trial(process, prefix, state, 0.0, budget) == t
            blocks, within = divmod(t - 1, SMALL_BLOCK)
            assert [size for _, size in advances] == [SMALL_BLOCK] * blocks + [within + 1]
            assert [d is None for d, _ in advances] == [False] * blocks + [True]
        assert t == 1 or assert_crafted_trial(process, prefix, state, 0.0, t - 1) is None
        assert lockstep

    @pytest.mark.parametrize("t", [sum(RAMP) + _AUTOMATON_BLOCK, sum(RAMP) + _AUTOMATON_BLOCK + 1],
                             ids=["block-last", "next-block-first"])
    def test_hits_on_the_ends_of_full_blocks(self, advances, lockstep, t):
        needle = chain("needle", N)
        assert assert_crafted_trial(needle, hit_at(needle, 25, t), 25, 0.0, t) == t
        assert [size for _, size in advances] == RAMP + [_AUTOMATON_BLOCK] + [1] * (t - sum(RAMP) - _AUTOMATON_BLOCK)
        assert [d is None for d, _ in advances] == [False] * (len(advances) - 1) + [True]
        assert lockstep == [RAMP[-1] // _PIECE, _AUTOMATON_BLOCK // _PIECE]

    def test_a_lower_bound_in_the_sink_keeps_the_chain_live(self, process, small_blocks, lockstep, monkeypatch):
        """Every piece starts on a double on which the lowest live state hits
        and the chain from 25 does not, so no piece's bounds meet and every
        piece is chased. Each pass doubles the piece, and after the pass over
        pieces of _MAX_PIECE the last block is chased whole."""
        monkeypatch.setattr(processes, "_MIN_PIECES", 1)
        double = sinking(process._automata[0])
        doubles = np.random.default_rng(4).random(4 * SMALL_BLOCK)
        doubles[::_PIECE] = double
        assert assert_crafted_trial(process, doubles.tolist(), 25, 0.0, 4 * SMALL_BLOCK) is None
        assert _MAX_PIECE == SMALL_BLOCK and lockstep == [4, 2, 1]
        assert process._automata[0].piece == 0

    def test_a_start_at_or_below_the_target_keeps_the_step_loop(self, process, builds, advances):
        for state in (0, 3):
            assert_crafted_trial(process, [], state, 3.5, 5000, seed=state)
        assert builds == [] and advances == []

    @pytest.mark.parametrize("process, a", [(("needle", N), 11.0), (("comma", N, None, 2), 2.0)],
                             indirect=["process"], ids=["needle", "comma"])
    def test_a_late_hit_is_timed_on_its_piece(self, process, a, builds, advances, lockstep):
        # hits near 1e4 generations or later, in the blocks that are cut into pieces
        late = 0
        for seed in range(6):
            advances.clear()
            if hit := assert_crafted_trial(process, [], 20, a, 100_000, seed=seed):
                before = sum(size for _, size in advances[:-1])
                assert advances[-1] == (None, hit - before)
                late += before >= sum(RAMP[:-1])
        assert late and lockstep

    @pytest.mark.parametrize("kind, n, p, lam, floor_a, hits", [
        ("needle", 8, None, None, 0, True), ("needle", 8, None, None, 3, True),
        ("needle", 20, None, None, 0, False), ("needle", 20, None, None, 3, True),
        ("needle", 50, None, None, 0, False), ("needle", 50, None, None, 3, False),
        ("needle", 100, None, None, 0, False), ("needle", 100, None, None, 3, False),
        ("comma", 8, None, 2, 0, True), ("comma", 8, None, 2, 3, True),
        ("comma", 20, None, 2, 0, True), ("comma", 20, None, 2, 3, True),
        ("comma", 50, None, 2, 0, False), ("comma", 50, None, 2, 3, True),
        ("needle", 12, 1 / 12, None, 3, True), ("needle", 20, 0.3, None, 2, True),
        ("needle", 50, 1 / 50, None, 20, True), ("comma", 20, 1 / 20, 2, 2, True),
        ("comma", 30, 1 / 30, 4, 1, True), ("comma", 12, 1 / 12, 1, 3, True),
    ])
    def test_seeded_trials_equal_the_step_loop(self, small_blocks, builds, lockstep, kind, n, p, lam, floor_a, hits):
        """Budgets of one generation, of one piece and one more, and of four
        blocks and a fifth of three pieces and 136 generations. A chain far
        from its target hits in none of the 30 trials, the others in some."""
        process = chain(kind, n, p, lam)
        hit_times = seeded_trials_match(process, floor_a + 0.5, (1, _PIECE, _PIECE + 1, 5000))
        assert any(hit_times) is hits
        assert builds == [key(process, floor_a)] and lockstep


class TestWhenBuilt:
    def test_needle_check_builds_no_automaton(self, builds, capsys):
        assert main(["check", "--preset", "needle-n50-twosided"]) == 0
        assert builds == []

    def test_trials_with_one_key_share_one_automaton(self, process, builds):
        for index in range(2):
            rng = generator(trial_seed(9, index))
            process.hitting_time(process.initial_state(rng), rng, 0.0, 200_000)
        assert builds == [key(process, 0)] and list(process._automata) == [0]

    def test_each_process_keeps_its_own_automata(self, builds):
        needles = dl.NeedleOneOneEA(12), dl.NeedleOneOneEA(12)
        for needle in needles:
            for floor_a in (0, 3, 0):
                needle._automata[floor_a]
        assert builds == [key(needles[0], 0), key(needles[0], 3)] * 2
        assert [list(needle._automata) for needle in needles] == [[0, 3]] * 2

    def test_short_trials_and_large_n_keep_the_step_loop(self, builds):
        window = dl.DriftWindow(400.0, 450.0)
        dl.run_trials(dl.NeedleOneOneEA(1000), window, trials=3, max_steps=2000, master_seed=1)
        dl.run_trials(dl.OneCommaLambdaEA(1000, 2), window, trials=3, max_steps=2000, master_seed=1)
        dl.run_trials(dl.NeedleOneOneEA(50), dl.DriftWindow(0.0, 1.0), trials=3, max_steps=1000, master_seed=1)
        assert builds == []

    def test_a_budget_that_pays_for_the_build_starts_on_the_automaton(self, process, builds, advances):
        budget = math.ceil(process._automaton_build_at(0))
        rng = generator(trial_seed(5, 0))
        process.hitting_time(25, rng, 0.0, budget)
        assert builds == [key(process, 0)]
        assert isinstance(advances[0][0], int)

    def test_a_budget_one_generation_short_builds_nothing(self, process, builds, advances):
        budget = math.ceil(process._automaton_build_at(0)) - 1
        rng = generator(trial_seed(5, 0))
        process.hitting_time(25, rng, 0.0, budget)
        assert builds == [] and advances == []

    def test_pooled_workers_build_their_own_and_agree(self, builds, monkeypatch):
        # the caller is worker 0 and builds the automaton for its own chunks, once;
        # the forked child builds its own, which this process does not record
        monkeypatch.setattr(dl.core, "SERIAL_WORK", 0)
        needle = dl.NeedleOneOneEA(N)
        args = needle, dl.DriftWindow(0.0, 1.0), 8, 80_000
        pooled = dl.run_trials(*args, master_seed=6, workers=2)
        assert builds == [key(needle, 0)]
        serial = dl.run_trials(*args, master_seed=6, workers=1)
        assert builds == [key(needle, 0)]
        assert pooled == serial and pooled.hit_times == [None] * 8

    @pytest.mark.parametrize("process, window, budget", [
        (("needle", 20), (2.0, 5.0), 20_000), (("comma", N, None, 2), (2.0, 20.0), 80_000),
    ], indirect=["process"], ids=["needle", "comma"])
    def test_pooled_runs_with_hits_equal_serial_ones(self, process, window, budget, builds, monkeypatch):
        monkeypatch.setattr(dl.core, "SERIAL_WORK", 0)
        args = process, dl.DriftWindow(*window), 16, budget
        pooled = dl.run_trials(*args, master_seed=2, workers=2)
        serial = dl.run_trials(*args, master_seed=2, workers=1)
        assert pooled == serial and None in serial.hit_times and any(serial.hit_times)
        assert builds == [key(process, 2)]
