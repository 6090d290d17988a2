"""Each process's hitting_time against its own step loop.

The walk, the needle and the (1,λ) EA draw their doubles in blocks and invert
their own law's cdf on each, and the counterexample chain reads a block of
trials' doubles at once through its batched hook. Every hit time must equal
the first passage of the path that `step` draws from the same generator.
"""

import math

import numpy as np
import pytest

import driftlab as dl
from driftlab.processes import _FIRST_BLOCK
from driftlab.rng import generator, trial_seed
from helpers import replay_potentials

SEEDS = range(200)


def first_passage(path, a, max_steps):
    return next((t for t, x in enumerate(path[1 : max_steps + 1], 1) if x <= a), None)


def assert_hit_times_match(process, a, max_steps, state=None, seeds=SEEDS, master_seed=0):
    """hitting_time equals the step loop's first passage for every seed, also
    when the budget ends exactly at the hit or one step before it. Returns the
    hit times, so a caller can check that its case happened."""
    hits = []
    for index in seeds:
        path = replay_potentials(process, master_seed, index, max_steps, state)
        expected = first_passage(path, a, max_steps)
        budgets = {max_steps: expected}
        if expected is not None:
            budgets[expected] = expected
            if expected > 1:
                budgets[expected - 1] = None
        for budget, hit in budgets.items():
            rng = generator(trial_seed(master_seed, index))
            start = process.initial_state(rng) if state is None else state
            assert process.hitting_time(start, rng, a, budget) == hit, (index, budget)
        hits.append(expected)
    return hits


def assert_batch_hit_times_match(process, a, max_steps, state=None, seeds=SEEDS, master_seed=0):
    """assert_hit_times_match for a process with a batched hook: for each budget
    there, batch_hitting_times over the trials' first batch_doubles doubles
    equals every trial's first passage at that budget."""
    start = process.initial_state(None) if state is None else state
    paths = [replay_potentials(process, master_seed, index, max_steps, state) for index in seeds]
    hits = [first_passage(path, a, max_steps) for path in paths]
    budgets = {max_steps} | {hit for hit in hits if hit} | {hit - 1 for hit in hits if hit and hit > 1}
    for budget in sorted(budgets):
        k = process.batch_doubles(start, a, budget)
        uniforms = np.array([generator(trial_seed(master_seed, index)).random(k) for index in seeds])
        expected = [first_passage(path, a, budget) for path in paths]
        assert process.batch_hitting_times(start, uniforms, a) == expected, budget
    return hits


# budgets one step either side of the first block and of the first two blocks
WALK_BUDGETS = [1, _FIRST_BLOCK - 1, _FIRST_BLOCK, _FIRST_BLOCK + 1, 3 * _FIRST_BLOCK - 1,
                3 * _FIRST_BLOCK, 3 * _FIRST_BLOCK + 1]


class TestGeometricDriftWalk:
    @pytest.mark.parametrize("delta", [0.3, 1.0])
    @pytest.mark.parametrize("max_steps", WALK_BUDGETS)
    def test_budgets_around_the_blocks(self, max_steps, delta):
        hits = assert_hit_times_match(dl.GeometricDriftWalk(0.2, delta, start=6.0), 0.0, max_steps)
        assert any(hits)

    def test_long_budget_with_hits_and_misses(self):
        hits = assert_hit_times_match(dl.GeometricDriftWalk(0.2, 1.0, start=10.0), 0.0, 2000)
        assert None in hits and any(h > 3 * _FIRST_BLOCK for h in hits if h)

    def test_hit_on_the_first_step(self):
        hits = assert_hit_times_match(dl.GeometricDriftWalk(0.2, 1.0, start=0.5), 0.0, 50)
        assert 1 in hits

    @pytest.mark.parametrize("delta", [0.5, 3.0])
    def test_other_deltas(self, delta):
        hits = assert_hit_times_match(dl.GeometricDriftWalk(0.3, delta, start=4.0), 0.5, 300)
        assert any(hits)

    def test_fractional_start_and_target(self):
        assert_hit_times_match(dl.GeometricDriftWalk(0.2, 1.0, start=0.1), -2.7, 300)

    @pytest.mark.parametrize("delta", [0.3, 0.49])
    def test_long_budget_below_one_half(self, delta):
        # heavier tails: hundreds of magnitudes a side, past 3 * _FIRST_BLOCK steps
        hits = assert_hit_times_match(dl.GeometricDriftWalk(0.2, delta, start=5.0), 0.0, 2000)
        assert None in hits and any(h > 3 * _FIRST_BLOCK for h in hits if h)


class TestNeedleOneOneEA:
    # the needle's first block is _FIRST_BLOCK generations of one double each
    @pytest.mark.parametrize("max_steps", [1, _FIRST_BLOCK // 2, _FIRST_BLOCK - 1, _FIRST_BLOCK, _FIRST_BLOCK + 1,
                                           3 * _FIRST_BLOCK, 3 * _FIRST_BLOCK + 1])
    def test_budgets_around_the_blocks(self, max_steps):
        assert_hit_times_match(dl.NeedleOneOneEA(10), 3.0, max_steps)

    def test_from_the_initial_state(self):
        hits = assert_hit_times_match(dl.NeedleOneOneEA(20), 4.0, 1000)
        assert None in hits and any(hits)

    def test_from_distance_n(self):
        hits = assert_hit_times_match(dl.NeedleOneOneEA(12), 11.0, 200, state=12)
        assert 1 in hits

    def test_at_half_distance_the_two_counts_are_equal(self):
        hits = assert_hit_times_match(dl.NeedleOneOneEA(16), 5.0, 400, state=8)
        assert any(hits)

    def test_reaching_the_optimum(self):
        hits = assert_hit_times_match(dl.NeedleOneOneEA(6), 0.0, 400, state=3)
        assert any(hits)

    def test_start_at_the_optimum(self):
        assert assert_hit_times_match(dl.NeedleOneOneEA(6), 0.0, 10, state=0, seeds=range(5)) == [1] * 5

    def test_target_below_zero_is_never_hit(self):
        assert set(assert_hit_times_match(dl.NeedleOneOneEA(6), -1.0, 50, state=1)) == {None}

    def test_high_mutation_rate(self):
        assert_hit_times_match(dl.NeedleOneOneEA(10, mutation_rate=0.3), 2.0, 200)

    def test_every_rate_takes_the_one_sampler(self):
        # rates at and past one half, and n p past 30, where numpy's binomial
        # would switch algorithms
        hits = assert_hit_times_match(dl.NeedleOneOneEA(200, mutation_rate=0.4), 90.0, 100, seeds=range(50))
        assert any(hits)
        hits = assert_hit_times_match(dl.NeedleOneOneEA(62, mutation_rate=0.5), 28.0, 100, state=62, seeds=range(50))
        assert any(hits)
        hits = assert_hit_times_match(dl.NeedleOneOneEA(20, mutation_rate=0.8), 6.0, 100, seeds=range(50))
        assert any(hits)


class TestOneCommaLambdaEA:
    @pytest.mark.parametrize("max_steps", [1, _FIRST_BLOCK - 1, _FIRST_BLOCK, _FIRST_BLOCK + 1, 3 * _FIRST_BLOCK + 1])
    def test_budgets_around_the_blocks(self, max_steps):
        assert_hit_times_match(dl.OneCommaLambdaEA(12, 2), 2.0, max_steps, seeds=range(50))

    def test_from_the_initial_state(self):
        hits = assert_hit_times_match(dl.OneCommaLambdaEA(20, 2), 1.0, 400, seeds=range(50))
        assert None in hits and any(hits)

    def test_the_optimum_is_left(self):
        # unlike the needle, the comma EA can leave distance 0
        process = dl.OneCommaLambdaEA(8, 1)
        first, probs = process.transitions(0)
        assert first == 0 and probs.size > 1
        hits = assert_hit_times_match(process, 0.0, 10, state=0, seeds=range(50))
        assert 1 in hits and any(hit != 1 for hit in hits)

    def test_target_below_zero_is_never_hit(self):
        assert set(assert_hit_times_match(dl.OneCommaLambdaEA(6, 3), -1.0, 50, state=1, seeds=range(20))) == {None}


class RandomOnly:
    """A generator with nothing but random(), which counts the doubles it
    serves: any other sampler raises."""

    def __init__(self, seed):
        self._rng = generator(seed)
        self.served = 0

    def random(self, size=None):
        self.served += 1 if size is None else size
        return self._rng.random(size)


@pytest.mark.parametrize("process", [dl.GeometricDriftWalk(0.2, 1.0, start=5.0), dl.NeedleOneOneEA(20),
                                     dl.OneCommaLambdaEA(20, 3)], ids=lambda process: process.name)
def test_processes_with_an_exact_law_draw_only_doubles(process):
    """`step` and `hitting_time` read nothing but doubles, one per step."""
    state = process.start if hasattr(process, "start") else 10
    rng = RandomOnly(1)
    for _ in range(200):
        state = process.step(state, rng)
    assert rng.served == 200 and process.stream_layout == 2
    process.hitting_time(state, RandomOnly(2), 0.0, 100_000)


class TestCounterexampleChain:
    @pytest.mark.parametrize("max_steps", [1, 2, 3, 10])
    def test_budgets(self, max_steps):
        # at n = 2 the up-jump has probability e^-2, so jumps are frequent
        hits = assert_batch_hit_times_match(dl.CounterexampleChain(2), 0.0, max_steps)
        assert None in hits

    def test_target_inside_the_chain(self):
        hits = assert_batch_hit_times_match(dl.CounterexampleChain(3), 1.5, 20)
        assert 2 in hits and None in hits

    def test_target_below_zero(self):
        assert set(assert_batch_hit_times_match(dl.CounterexampleChain(2), -1.0, 10)) == {None}

    def test_frozen_states(self):
        chain = dl.CounterexampleChain(4)
        assert assert_batch_hit_times_match(chain, 0.0, 5, state=0, seeds=range(5)) == [1] * 5
        assert assert_batch_hit_times_match(chain, 0.0, 5, state=-2, seeds=range(5)) == [1] * 5
        assert assert_batch_hit_times_match(chain, 0.0, 5, state=5, seeds=range(5)) == [None] * 5

    def test_target_at_the_jump(self):
        chain = dl.CounterexampleChain(2)
        # a jump from 2 lands at up_jump + 2
        assert set(assert_batch_hit_times_match(chain, float(chain.up_jump + 1), 5, state=2)) == {1, None}
        assert set(assert_batch_hit_times_match(chain, float(chain.up_jump + 2), 5, state=2)) == {1}

    @pytest.mark.parametrize("n, a, max_steps", [
        (6, 2.5, 20),    # fractional target: the hit is at state 2
        (6, 6.0, 20),    # target at the start: one double, hit or jump
        (6, 9.5, 20),    # target above the start: still one double
        (6, -0.5, 20),   # target below 0: the chain leaves at 0 unhit
        (8, 0.0, 5),     # budget below n
        (8, 3.0, 1),     # a one-step budget
        # 25 - a rounds down to 24.0 in floats, yet the chain first reaches a at 0
        (25, math.nextafter(1.0, 0.0), 30),
    ])
    def test_closed_form_step_count(self, n, a, max_steps):
        assert_batch_hit_times_match(dl.CounterexampleChain(n), a, max_steps, seeds=range(400))

    def test_pool_chunks_off_the_seed_blocks_equal_the_serial_run(self, monkeypatch):
        # the chain at n = 2 reads two doubles a trial, so the serial run spans
        # three blocks of trials and each of the 4 * workers chunks starts off a
        # block boundary; a cutoff that the run's 2 * trials doubles reach
        # engages the pool
        pools, ordered_map = [], dl.core.ordered_map
        monkeypatch.setattr(dl.core, "ordered_map", lambda *args: pools.append(args[2]) or ordered_map(*args))
        process, window = dl.CounterexampleChain(2), dl.DriftWindow(0.0, 2.0)
        trials = 2 * (dl.core.BATCH_DOUBLES // 2) + 13
        monkeypatch.setattr(dl.core, "SERIAL_WORK", 2 * trials)
        max_steps = 30
        serial = dl.run_trials(process, window, trials, max_steps, master_seed=5)
        assert dl.run_trials(process, window, trials, max_steps, master_seed=5, workers=2) == serial
        assert pools == [2]
