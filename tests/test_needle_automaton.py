"""The needle's sampler and its automaton against the step rule and the exact law.

A generation reads one double u and moves distance d to first +
min(bisect_right(cdf, u), len(cdf) - 1), where (first, probs) =
`transitions(d)` and cdf is the cumulative sum of probs. Every double of a
cell of the automaton must give `step`'s successor, the doubles that draw each
successor must carry its exact probability, whole trials must equal the step
loop on the same doubles, and the automaton must be built only where it pays.
"""

import bisect
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import driftlab as dl
from driftlab import processes
from driftlab.cli import main
from driftlab.processes import _FIRST_BLOCK, _MAX_UNIFORM
from driftlab.rng import generator, trial_seed
from helpers import PrescribedDoubles, needle_step_exact

#: (n, rate, floor(a)) of the automata whose every cell is checked
KEYS = [(50, 1 / 50, 0), (12, 1 / 12, 3), (20, 0.3, 2), (30, 0.7, 5)]


def step_rule(needle, d, u):
    """The distance after one generation from d on the double u, read from
    `transitions(d)` by the rule, not from the process's own tables."""
    first, probs = needle.transitions(d)
    cdf = np.cumsum(probs).tolist()
    return first + min(bisect.bisect_right(cdf, u), len(cdf) - 1)


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
    """A fresh automaton cache, emptied again after the test; the list collects
    the key of every automaton built."""
    built = []

    class Counted(processes._NeedleAutomaton):
        def __init__(self, needle, floor_a):
            built.append((needle.n, needle.mutation_rate, floor_a))
            super().__init__(needle, floor_a)

    monkeypatch.setattr(processes, "_NeedleAutomaton", Counted)
    processes._needle_automaton.cache_clear()
    yield built
    processes._needle_automaton.cache_clear()


@pytest.fixture
def advances(monkeypatch):
    """Every automaton block's result, in order: a distance, or None for the sink."""
    results = []
    advance = processes._NeedleAutomaton.advance

    def spy(self, d, u):
        results.append(advance(self, d, u))
        return results[-1]

    monkeypatch.setattr(processes._NeedleAutomaton, "advance", spy)
    return results


class TestStep:
    @pytest.mark.parametrize("n, p", [(12, 1 / 12), (30, 0.7)])
    def test_step_is_the_rule(self, n, p):
        needle = dl.NeedleOneOneEA(n, mutation_rate=p)
        doubles = [0.0, _MAX_UNIFORM, *np.random.default_rng(3).random(200).tolist()]
        for d in range(n + 1):
            for u in doubles:
                assert needle.step(d, OneDouble(u)) == step_rule(needle, d, u), (d, u)

    def test_the_optimum_is_kept(self):
        needle = dl.NeedleOneOneEA(10)
        assert {needle.step(0, OneDouble(u)) for u in (0.0, 0.5, _MAX_UNIFORM)} == {0}

    def test_the_doubles_of_each_successor_carry_its_exact_probability(self):
        """Generator.random returns k * 2**-53, so the doubles that draw a
        successor are an interval of k, and their count * 2**-53 is the mass
        the sampler gives it; against the law in rationals at rate 1/n. The
        float law and its rounded sums are a few ulps off, and what the sums
        miss of 1 goes to the last successor: at n = 50 the worst is the last
        successor from d = 8, 5.6e-16 for a probability of 3.7e-72."""
        n = 50
        needle = dl.NeedleOneOneEA(n)
        worst = 0.0
        for d in range(1, n + 1):
            first, edges = needle._inverse_cdfs[d]
            law, denominator = needle_step_exact(n, d)
            ks = [0, *(math.ceil(e * 2.0**53) for e in edges), 2**53]
            ks = [min(max(k, 0), 2**53) for k in ks]
            for i in range(len(ks) - 1):
                mass = Fraction(ks[i + 1] - ks[i], 2**53)
                worst = max(worst, abs(float(mass - Fraction(law.get(first + i - d, 0), denominator))))
            # no double draws a successor outside the law's reach
            assert first >= 0 and first + len(edges) <= n
        assert worst < 1e-15


class TestCells:
    @pytest.mark.parametrize("n, p, floor_a", KEYS)
    def test_every_cell_at_both_ends_gives_the_step(self, n, p, floor_a):
        """The first double of every cell and the double just below the next
        edge, for every live state: the automaton's next distance is the
        step's, or the sink exactly when the step hits."""
        needle = dl.NeedleOneOneEA(n, mutation_rate=p)
        automaton = processes._NeedleAutomaton(needle, floor_a)
        edges = automaton._cells.edges.tolist()
        firsts = [0.0, *edges]
        lasts = [math.nextafter(e, 0.0) for e in edges] + [_MAX_UNIFORM]
        # the cell search puts each end in its own cell
        assert automaton._cells(np.array(firsts)).tolist() == list(range(len(firsts)))
        assert automaton._cells(np.array(lasts[1:])).tolist() == list(range(1, len(lasts)))
        sinks = 0
        for d in range(floor_a + 1, n + 1):
            for cell, ends in enumerate(zip(firsts, lasts)):
                for u in ends:
                    after = needle.step(d, OneDouble(u))
                    assert after == step_rule(needle, d, u)
                    expected = None if after <= floor_a else after
                    assert successor(automaton, d, cell) == expected, (d, cell, u)
                    sinks += expected is None
        assert sinks

    def test_start_states_at_or_below_the_target_are_the_sink(self):
        automaton = processes._NeedleAutomaton(dl.NeedleOneOneEA(12), 3)
        for d in (0, 3):
            assert automaton.advance(d, np.zeros(4)) is None
        assert automaton.advance(12, np.zeros(0)) == 12

    @pytest.mark.parametrize("n, p, floor_a", KEYS)
    def test_the_bound_holds_every_entry(self, n, p, floor_a):
        automaton = processes._NeedleAutomaton(dl.NeedleOneOneEA(n, mutation_rate=p), floor_a)
        entries = (n - floor_a) * (len(automaton.sink) + 1)
        build_at = dl.NeedleOneOneEA(n, mutation_rate=p)._automaton_build_at(floor_a)
        bound = (build_at - processes._BUILD_STEPS) / processes._STEPS_PER_ENTRY
        assert entries <= bound


def step_loop_hit_time(needle, state, a, max_steps, doubles):
    """First generation t in 1..max_steps after which `step`, from `state` on
    `doubles`, is at or below a, or None."""
    rng = PrescribedDoubles(doubles)
    for t in range(1, max_steps + 1):
        state = needle.step(state, rng)
        if state <= a:
            return t
    return None


def assert_crafted_trial(needle, prefix, state, a, max_steps, seed=0):
    """hitting_time on a stream that starts with `prefix` equals the step
    loop's hit time on the same doubles."""
    stub = PrescribedDoubles(prefix, seed)
    expected = step_loop_hit_time(needle, state, a, max_steps, stub.doubles)
    assert needle.hitting_time(state, stub, a, max_steps) == expected
    return expected


def stay(needle, d):
    """The least double on which a generation from d stays at d."""
    first, edges = needle._inverse_cdfs[d]
    return 0.0 if d == first else edges[d - first - 1]


N, P = 50, 1 / 50


class TestTrials:
    @pytest.fixture(autouse=True)
    def on_the_automaton(self, monkeypatch):
        """Every trial here builds its automaton first, whatever its budget."""
        monkeypatch.setattr(processes, "_BUILD_STEPS", 0)
        monkeypatch.setattr(processes, "_STEPS_PER_ENTRY", 0.0)

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_a_hit_on_a_block_last_generation(self, builds, advances, blocks):
        # blocks of _FIRST_BLOCK, 2 * _FIRST_BLOCK, ... generations; 0.0 draws
        # the fewest flips of all, from 12 a hit at 11
        needle = dl.NeedleOneOneEA(N)
        last = _FIRST_BLOCK * (2**blocks - 1)
        prefix = [stay(needle, 12)] * (last - 1) + [0.0]
        assert needle.step(12, OneDouble(0.0)) <= 11 < needle.step(12, OneDouble(prefix[0]))
        assert assert_crafted_trial(needle, prefix, 12, 11.0, 3000) == last
        assert assert_crafted_trial(needle, prefix, 12, 11.0, last) == last
        assert assert_crafted_trial(needle, prefix, 12, 11.0, last - 1) is None
        assert advances[blocks - 1] is None and all(advances[:blocks - 1])

    def test_a_hit_on_a_block_first_generation(self, builds, advances):
        needle = dl.NeedleOneOneEA(N)
        prefix = [stay(needle, 12)] * _FIRST_BLOCK + [0.0]
        assert assert_crafted_trial(needle, prefix, 12, 11.0, 3000) == _FIRST_BLOCK + 1
        assert advances == [12, None]

    def test_the_sink_replays_its_block_to_the_hit(self, builds, advances):
        # hits near 5e4 generations fall in the middle of a full block past the ramp
        needle = dl.NeedleOneOneEA(N)
        late = 0
        for seed in range(6):
            advances.clear()
            if assert_crafted_trial(needle, [], 20, 11.0, 100_000, seed=seed):
                late += advances[-1] is None and len(advances) > 6
        assert late

    @pytest.mark.parametrize("n, p, floor_a", [(12, 1 / 12, 3), (20, 0.3, 2), (30, 0.7, 5), (50, 1 / 50, 20)])
    def test_seeded_trials_equal_the_step_loop(self, builds, n, p, floor_a):
        needle = dl.NeedleOneOneEA(n, mutation_rate=p)
        a = floor_a + 0.5
        hits = []
        for index in range(30):
            rng = generator(trial_seed(8, index))
            state = needle.initial_state(rng)
            # the trial's doubles after its start
            doubles = rng.random(5000).tolist()
            for budget in (1, _FIRST_BLOCK, 3 * _FIRST_BLOCK + 1, 5000):
                rng = generator(trial_seed(8, index))
                needle.initial_state(rng)
                expected = step_loop_hit_time(needle, state, a, budget, doubles)
                assert needle.hitting_time(state, rng, a, budget) == expected, (index, budget)
            hits.append(expected)
        assert any(hits) and builds == [(n, p, floor_a)]


class TestWhenBuilt:
    def test_import_builds_no_automaton(self):
        code = "import driftlab.cli, driftlab.processes as p; print(p._needle_automaton.cache_info().currsize)"
        # the child imports this checkout's driftlab, whatever the shell exports
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"

    def test_needle_check_builds_no_automaton(self, builds, capsys):
        assert main(["check", "--preset", "needle-n50-twosided"]) == 0
        assert builds == [] and processes._needle_automaton.cache_info().currsize == 0

    def test_trials_with_one_key_share_one_automaton(self, builds):
        needle = dl.NeedleOneOneEA(20)
        for index in range(2):
            rng = generator(trial_seed(9, index))
            needle.hitting_time(needle.initial_state(rng), rng, 0.0, 20_000)
        assert builds == [(20, 1 / 20, 0)]
        assert processes._needle_automaton.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_short_trials_and_large_n_keep_the_step_loop(self, builds):
        window = dl.DriftWindow(400.0, 450.0)
        dl.run_trials(dl.NeedleOneOneEA(1000), window, trials=3, max_steps=2000, master_seed=1)
        dl.run_trials(dl.NeedleOneOneEA(50), dl.DriftWindow(0.0, 1.0), trials=3, max_steps=1000, master_seed=1)
        assert builds == []

    def test_a_budget_that_pays_for_the_build_starts_on_the_automaton(self, builds, advances):
        needle = dl.NeedleOneOneEA(N)
        budget = math.ceil(needle._automaton_build_at(0))
        rng = generator(trial_seed(5, 0))
        needle.hitting_time(25, rng, 0.0, budget)
        assert builds == [(N, P, 0)]
        assert isinstance(advances[0], int)

    def test_a_budget_one_generation_short_builds_nothing(self, builds, advances):
        needle = dl.NeedleOneOneEA(N)
        budget = math.ceil(needle._automaton_build_at(0)) - 1
        rng = generator(trial_seed(5, 0))
        needle.hitting_time(25, rng, 0.0, budget)
        assert builds == [] and advances == []

    def test_pooled_workers_build_their_own_and_agree(self, builds, monkeypatch):
        # the caller is worker 0 and builds the automaton for its own chunks, once;
        # the forked child builds its own, which this process does not record
        monkeypatch.setattr(dl.core, "SERIAL_WORK", 0)
        args = dl.NeedleOneOneEA(N), dl.DriftWindow(0.0, 1.0), 8, 80_000
        pooled = dl.run_trials(*args, master_seed=6, workers=2)
        assert builds == [(N, P, 0)]
        serial = dl.run_trials(*args, master_seed=6, workers=1)
        assert builds == [(N, P, 0)]
        assert pooled == serial and pooled.hit_times == [None] * 8

    def test_pooled_runs_with_hits_equal_serial_ones(self, builds, monkeypatch):
        monkeypatch.setattr(dl.core, "SERIAL_WORK", 0)
        args = dl.NeedleOneOneEA(20), dl.DriftWindow(2.0, 5.0), 16, 20_000
        pooled = dl.run_trials(*args, master_seed=2, workers=2)
        serial = dl.run_trials(*args, master_seed=2, workers=1)
        assert pooled == serial and None in serial.hit_times and any(serial.hit_times)
        assert builds == [(20, 1 / 20, 2)]

    def test_the_cache_keeps_a_few_automata(self, builds):
        for n in range(6, 12):
            processes._needle_automaton(n, 1 / n, 0)
        assert processes._needle_automaton.cache_info().currsize == 4
        # the last one built is kept, and the first one is built again
        processes._needle_automaton(11, 1 / 11, 0)
        processes._needle_automaton(6, 1 / 6, 0)
        assert builds == [(n, 1 / n, 0) for n in range(6, 12)] + [(6, 1 / 6, 0)]
