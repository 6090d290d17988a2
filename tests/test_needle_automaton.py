"""The mutation chains' sampler and automaton against the step rule and the exact law.

The needle and the (1,λ) EA step on `transitions(d)`: a generation reads one
double u and moves distance d to first + bisect_right(edges, u), where
(first, probs) = `transitions(d)` and the edges are the law's cumulative sums
from the left below its modal successor and 1 less the sums from the right
past it, each rounded to the nearest multiple of 2**-53. Every double of a cell of the automaton must give `step`'s successor,
the doubles that draw each successor must carry its exact probability (the
walk's one law too), whole trials must equal the step loop on the same
doubles, and the automaton must be built only where it pays.
"""

import bisect
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import driftlab as dl
from driftlab import processes
from driftlab.cli import main
from driftlab.processes import _FIRST_BLOCK
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
    """Every automaton block's result, in order: a distance, or None for the sink."""
    results = []
    advance = processes._Automaton.advance

    def spy(self, d, u):
        results.append(advance(self, d, u))
        return results[-1]

    monkeypatch.setattr(processes._Automaton, "advance", spy)
    return results


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

    @pytest.mark.parametrize("kind, lam", [("needle", None), ("comma", 2)])
    def test_start_states_at_or_below_the_target_are_the_sink(self, kind, lam):
        automaton = processes._Automaton(chain(kind, 12, lam=lam), 3)
        for d in (0, 3):
            assert automaton.advance(d, np.zeros(4)) is None
        assert automaton.advance(12, np.zeros(0)) == 12

    @pytest.mark.parametrize("kind, n, p, lam, floor_a", KEYS)
    def test_the_bound_holds_every_entry(self, kind, n, p, lam, floor_a):
        process = chain(kind, n, p, lam)
        automaton = processes._Automaton(process, floor_a)
        entries = (n - floor_a) * (len(automaton.sink) + 1)
        bound = (process._automaton_build_at(floor_a) - processes._BUILD_STEPS) / processes._STEPS_PER_ENTRY
        assert entries <= bound


def step_loop_hit_time(process, state, a, max_steps, doubles):
    """First generation t in 1..max_steps after which `step`, from `state` on
    `doubles`, is at or below a, or None."""
    rng = PrescribedDoubles(doubles)
    for t in range(1, max_steps + 1):
        state = process.step(state, rng)
        if state <= a:
            return t
    return None


def assert_crafted_trial(process, prefix, state, a, max_steps, seed=0):
    """hitting_time on a stream that starts with `prefix` equals the step
    loop's hit time on the same doubles."""
    stub = PrescribedDoubles(prefix, seed)
    expected = step_loop_hit_time(process, state, a, max_steps, stub.doubles)
    assert process.hitting_time(state, stub, a, max_steps) == expected
    return expected


def stay(process, d):
    """The least double on which a generation from d stays at d."""
    first, edges = process._inverse_cdfs[d]
    return 0.0 if d == first else edges[d - first - 1]


#: the chains of the crafted and budget trials, on 50 bits at rate 1/50
N = 50
CHAINS = [pytest.param(("needle", N), id="needle"), pytest.param(("comma", N, None, 2), id="comma")]


@pytest.fixture(params=CHAINS)
def process(request):
    return chain(*request.param)


class TestTrials:
    @pytest.fixture(autouse=True)
    def on_the_automaton(self, monkeypatch):
        """Every trial here builds its automaton first, whatever its budget."""
        monkeypatch.setattr(processes, "_BUILD_STEPS", 0)
        monkeypatch.setattr(processes, "_STEPS_PER_ENTRY", 0.0)

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_a_hit_on_a_block_last_generation(self, process, builds, advances, blocks):
        # blocks of _FIRST_BLOCK, 2 * _FIRST_BLOCK, ... generations; 0.0 draws
        # the least successor of all, from 12 a hit at 11
        last = _FIRST_BLOCK * (2**blocks - 1)
        prefix = [stay(process, 12)] * (last - 1) + [0.0]
        assert process.step(12, OneDouble(0.0)) <= 11 < process.step(12, OneDouble(prefix[0]))
        assert assert_crafted_trial(process, prefix, 12, 11.0, 3000) == last
        assert assert_crafted_trial(process, prefix, 12, 11.0, last) == last
        assert assert_crafted_trial(process, prefix, 12, 11.0, last - 1) is None
        assert advances[blocks - 1] is None and all(advances[:blocks - 1])

    def test_a_hit_on_a_block_first_generation(self, process, builds, advances):
        prefix = [stay(process, 12)] * _FIRST_BLOCK + [0.0]
        assert assert_crafted_trial(process, prefix, 12, 11.0, 3000) == _FIRST_BLOCK + 1
        assert advances == [12, None]

    @pytest.mark.parametrize("process, a", [(("needle", N), 11.0), (("comma", N, None, 2), 2.0)],
                             indirect=["process"], ids=["needle", "comma"])
    def test_the_sink_replays_its_block_to_the_hit(self, process, a, builds, advances):
        # hits near 1e4 generations or later fall in the middle of a full block past the ramp
        late = 0
        for seed in range(6):
            advances.clear()
            if assert_crafted_trial(process, [], 20, a, 100_000, seed=seed):
                late += advances[-1] is None and len(advances) > 6
        assert late

    @pytest.mark.parametrize("kind, n, p, lam, floor_a", [
        ("needle", 12, 1 / 12, None, 3), ("needle", 20, 0.3, None, 2), ("needle", 30, 0.7, None, 5),
        ("needle", 50, 1 / 50, None, 20), ("comma", 20, 1 / 20, 2, 2), ("comma", 30, 1 / 30, 4, 1),
        ("comma", 12, 1 / 12, 1, 3),
    ])
    def test_seeded_trials_equal_the_step_loop(self, builds, kind, n, p, lam, floor_a):
        process = chain(kind, n, p, lam)
        a = floor_a + 0.5
        hits = []
        for index in range(30):
            rng = generator(trial_seed(8, index))
            state = process.initial_state(rng)
            # the trial's doubles after its start
            doubles = rng.random(5000).tolist()
            for budget in (1, _FIRST_BLOCK, 3 * _FIRST_BLOCK + 1, 5000):
                rng = generator(trial_seed(8, index))
                process.initial_state(rng)
                expected = step_loop_hit_time(process, state, a, budget, doubles)
                assert process.hitting_time(state, rng, a, budget) == expected, (index, budget)
            hits.append(expected)
        assert any(hits) and builds == [key(process, floor_a)]


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
        assert isinstance(advances[0], int)

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
