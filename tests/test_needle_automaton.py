"""The needle's automaton against an independent replay of numpy's sampler.

`helpers.binomial_inversion` transliterates numpy's binomial inversion, with
its own px recurrence and start-over, and `helpers.needle_hit_time` steps the
needle on it. The thresholds that cut [0, 1) into the automaton's cells, its
one-generation transitions and whole trials on crafted streams must all agree
with that replay, and the automaton must be built only where it pays.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftlab as dl
from driftlab import processes
from driftlab.cli import main
from driftlab.processes import _FIRST_BLOCK, _MAX_UNIFORM
from driftlab.rng import generator, trial_seed
from helpers import PrescribedDoubles, binomial_inversion, needle_generation, needle_hit_time


def first_draw(k, p, u):
    """X from the first double u, or math.inf when u makes numpy start over."""
    try:
        return binomial_inversion(k, p, iter([u]))
    except StopIteration:
        return math.inf


def thresholds(k, p, cap):
    return processes._inversion_thresholds(*processes._InversionTables(p)[k], cap)


def cap_of(n, p):
    return processes._draw_cap(processes._InversionTables(p)[n - 1][0])


@pytest.fixture
def builds(monkeypatch):
    """A fresh automaton cache, emptied again after the test; the list collects
    the key of every automaton built."""
    built = []

    class Counted(processes._NeedleAutomaton):
        def __init__(self, n, p, floor_a):
            built.append((n, p, floor_a))
            super().__init__(n, p, floor_a)

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


class TestOracle:
    @pytest.mark.parametrize("n, p, a", [(50, 1 / 50, 11.0), (10, 0.3, 2.0), (20, 1 / 20, 0.0)])
    def test_oracle_paths_equal_numpy_steps(self, n, p, a):
        needle = dl.NeedleOneOneEA(n, mutation_rate=p)
        for index in range(20):
            rng = generator(trial_seed(4, index))
            d = needle.initial_state(rng)
            doubles = iter(rng.random(5000).tolist())
            rng = generator(trial_seed(4, index))
            assert needle.initial_state(rng) == d
            oracle = d
            for _ in range(1000):
                d = needle.step(d, rng)
                oracle = needle_generation(n, p, oracle, doubles)
                assert oracle == d

    def test_a_start_over_draws_a_fresh_double(self):
        # at k = 25, bound = 12 and the largest double overruns it
        assert first_draw(25, 1 / 50, _MAX_UNIFORM) == math.inf
        assert binomial_inversion(25, 1 / 50, iter([_MAX_UNIFORM, 0.0])) == 0


class TestThresholds:
    @pytest.mark.parametrize("n, p", [(50, 1 / 50), (10, 0.3)])
    def test_every_threshold_is_the_least_double_that_reaches_its_count(self, n, p):
        checked = 0
        for k in range(1, n + 1):
            bound = processes._InversionTables(p)[k][1]
            # every count up to the bound and the start-over beyond it
            for x, t in enumerate(thresholds(k, p, bound + 1), 1):
                if t < 1.0:
                    assert first_draw(k, p, t) >= x, (k, x)
                    assert first_draw(k, p, math.nextafter(t, 0.0)) < x, (k, x)
                    checked += 1
                else:
                    assert first_draw(k, p, _MAX_UNIFORM) < x, (k, x)
        assert checked > 5 * n

    def test_a_smaller_cap_gives_a_prefix(self):
        assert thresholds(30, 1 / 50, 4) == thresholds(30, 1 / 50, 12)[:4]


class TestTransitions:
    @pytest.mark.parametrize("n, p, floor_a", [(10, 0.3, 2), (12, 1 / 12, 0)])
    def test_one_generation_per_pair_of_cells(self, n, p, floor_a):
        """Every state and every pair of cells, at both ends of each cell: the
        automaton's next distance is the oracle's, or it goes to the sink
        exactly when the generation hits, reaches n, draws cap or more or
        starts over."""
        automaton = processes._NeedleAutomaton(n, p, floor_a)
        cap = cap_of(n, p)
        edges = automaton.boundaries.tolist()
        ends = sorted({0.0, *edges, *(math.nextafter(b, 0.0) for b in edges), _MAX_UNIFORM})
        sinks = 0
        for d in range(floor_a + 1, n):
            for down in ends:
                x = first_draw(d, p, down)
                for up in ends:
                    y = first_draw(n - d, p, up)
                    end = automaton.advance(d, np.array([down, up]))
                    after = d - x + y if max(x, y) < cap else None
                    if after is None or after <= floor_a or after == n:
                        assert end is None, (d, down, up)
                        sinks += 1
                    else:
                        assert end == after == needle_generation(n, p, d, iter([down, up])), (d, down, up)
        assert sinks

    def test_start_states_outside_the_automaton_are_the_sink(self):
        automaton = processes._NeedleAutomaton(12, 1 / 12, 3)
        for d in (0, 3, 12):
            assert automaton.advance(d, np.zeros(4)) is None
        assert automaton.advance(4, np.zeros(4)) == 4


N, P = 50, 1 / 50


def assert_crafted_trial(prefix, state, a, max_steps, n=N, p=P, seed=0):
    """hitting_time on a stream that starts with `prefix` equals the oracle's
    hit time on the same doubles."""
    stub = PrescribedDoubles(prefix, seed)
    expected = needle_hit_time(n, p, state, a, max_steps, iter(stub.doubles))
    assert dl.NeedleOneOneEA(n, mutation_rate=p).hitting_time(state, stub, a, max_steps) == expected
    return expected


def still(generations):
    """Doubles for generations in which no bit flips: 0.0 draws X = 0 at every count."""
    return [0.0] * (2 * generations)


class TestCraftedStreams:
    @pytest.fixture(autouse=True)
    def on_the_automaton(self, monkeypatch):
        """Every trial here builds its automaton first, whatever its budget."""
        monkeypatch.setattr(processes, "_STEPS_PER_ENTRY", 0.0)

    def test_a_start_over_double(self, builds, advances):
        prefix = still(10) + [_MAX_UNIFORM]
        for seed in range(5):
            assert_crafted_trial(prefix, 25, 11.0, 3000, seed=seed)
        assert advances[0] is None and any(advances[1:])

    def test_a_draw_above_the_cap(self, builds, advances):
        t_cap = thresholds(25, P, cap_of(N, P))[-1]
        assert first_draw(25, P, t_cap) >= cap_of(N, P)
        for seed in range(5):
            assert_crafted_trial(still(10) + [t_cap, 0.0], 25, 11.0, 3000, seed=seed)
            # the double just below draws cap - 1 flips, which the automaton holds
            assert_crafted_trial(still(10) + [math.nextafter(t_cap, 0.0), 0.0], 25, 11.0, 3000, seed=seed)
        assert None in advances

    def test_distance_n(self, builds, advances):
        # one up-flip from n - 1 reaches n, whose generation draws one double
        assert first_draw(1, P, 0.99) == 1
        for seed in range(5):
            assert_crafted_trial(still(3) + [0.0, 0.99], N - 1, 11.0, 3000, seed=seed)
            assert_crafted_trial([], N, 11.0, 3000, seed=seed)
        assert None in advances and any(advances)

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_a_hit_on_a_block_last_generation(self, builds, advances, blocks):
        # blocks of _FIRST_BLOCK then 2 * _FIRST_BLOCK generations; one down-flip from 12 hits 11
        last = _FIRST_BLOCK * (2**blocks - 1)
        prefix = still(last - 1) + [thresholds(12, P, 1)[0], 0.0]
        assert first_draw(12, P, prefix[-2]) == 1
        assert assert_crafted_trial(prefix, 12, 11.0, 3000) == last
        assert assert_crafted_trial(prefix, 12, 11.0, last) == last
        assert assert_crafted_trial(prefix, 12, 11.0, last - 1) is None
        assert advances[blocks - 1] is None and all(advances[:blocks - 1])

    def test_a_sink_then_more_automaton_blocks(self, builds, advances):
        t_cap = thresholds(25, P, cap_of(N, P))[-1]
        for seed in range(3):
            advances.clear()
            assert_crafted_trial(still(10) + [t_cap, 0.0], 25, 0.0, 20_000, seed=seed)
            assert advances[0] is None and len(advances) > 4 and all(advances[1:])

    def test_a_high_rate_with_starts_over(self, builds):
        # at p = 0.3 and n = 10 the automaton holds every count; only start-overs sink
        for seed in range(10):
            assert_crafted_trial(still(5) + [_MAX_UNIFORM], 7, 2.0, 2000, n=10, p=0.3, seed=seed)


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

    def test_the_cache_keeps_a_few_automata(self, builds):
        for n in range(6, 12):
            processes._needle_automaton(n, 1 / n, 0)
        assert processes._needle_automaton.cache_info().currsize == 4
        # the last one built is kept, and the first one is built again
        processes._needle_automaton(11, 1 / 11, 0)
        processes._needle_automaton(6, 1 / 6, 0)
        assert builds == [(n, 1 / n, 0) for n in range(6, 12)] + [(6, 1 / 6, 0)]
