import math
import os
import pickle
import signal
import tracemalloc

import pytest
from helpers import hit_probability_within, replay_potentials

import driftlab as dl


def test_window_invariants():
    win = dl.DriftWindow(0.0, 10.0)
    assert win.ell == 10.0
    with pytest.raises(ValueError):
        dl.DriftWindow(5.0, 5.0)
    with pytest.raises(ValueError):
        dl.DriftWindow(7.0, 2.0)


def test_budget_validation(monkeypatch):
    win = dl.DriftWindow(0.0, 5.0)
    walk = dl.ConstantWalk(-1.0, 5.0)
    for trials, max_steps, seed in [(0, 10, 1), (10, 0, 1), (10, 10, -1), (10, 10, 2**64)]:
        with pytest.raises(ValueError):
            dl.run_trials(walk, win, trials, max_steps, master_seed=seed)
    # a pool-sized budget rejects a bad seed before it starts the pool
    def no_pool(*args):
        raise AssertionError("the worker pool started")

    monkeypatch.setattr(dl.core, "ordered_map", no_pool)
    with pytest.raises(ValueError, match="master_seed"):
        dl.run_trials(walk, win, 8, dl.core.SERIAL_TRIAL_STEPS, master_seed=-1, workers=2)


def test_constant_zero_step_truncates():
    # a process that never moves exhausts the budget without hitting
    win = dl.DriftWindow(0.0, 5.0)
    (outcome,) = dl.run_trials(dl.ConstantWalk(0.0, 5.0), win, 1, 50, master_seed=1)
    assert outcome.truncated and outcome.hit_time is None


def test_forced_descent_hits_at_window_length():
    win = dl.DriftWindow(0.0, 5.0)
    (outcome,) = dl.run_trials(dl.ConstantWalk(-1.0, 5.0), win, 1, 100, master_seed=1)
    assert outcome.hit_time == 5 and not outcome.truncated
    assert outcome.start_potential == 5.0


def test_run_trials_rejects_zero_budget_and_low_start():
    win = dl.DriftWindow(0.0, 5.0)
    with pytest.raises(ValueError):
        dl.run_trials(dl.ConstantWalk(-1.0, 5.0), win, 1, 0, master_seed=1)
    with pytest.raises(ValueError):
        dl.run_trials(dl.ConstantWalk(-1.0, 3.0), win, 1, 10, master_seed=1)


def test_counterexample_hits_in_exactly_n_steps_for_almost_every_seed():
    n = 10
    process = dl.CounterexampleChain(n)
    win = dl.DriftWindow(0.0, float(n))
    hit_times = [o.hit_time for o in dl.run_trials(process, win, 200, 100, master_seed=0)]
    hits = [t for t in hit_times if t is not None]
    # hits can only happen via n consecutive unit steps
    assert set(hits) == {n}
    assert len(hits) >= 198


def test_stopping_correctness_no_early_crossing():
    # each outcome stops exactly at the first crossing of its replayed path
    process = dl.GeometricDriftWalk(0.2, 1.0, start=6.0)
    win = dl.DriftWindow(0.0, 6.0)
    outcomes = dl.run_trials(process, win, 300, 40, master_seed=3)
    assert any(o.hit_time is not None for o in outcomes)
    for outcome in outcomes:
        path = replay_potentials(process, 3, outcome.index, 40)
        crossings = [t for t, x in enumerate(path) if x <= win.a]
        assert outcome.hit_time == (crossings[0] if crossings else None)
        assert outcome.start_potential == path[0]


def test_estimator_deterministic_walks():
    win = dl.DriftWindow(0.0, 5.0)
    est = dl.estimate_hitting_probability(dl.ConstantWalk(-1.0, 5.0), win, 100, horizon=5, master_seed=11)
    assert est.point == 1.0 and est.hits == 100
    assert [o.hit_time for o in est.outcomes] == [5] * 100
    again = dl.estimate_hitting_probability(dl.ConstantWalk(-1.0, 5.0), win, 100, horizon=5, master_seed=11)
    assert again == est and hash(again) == hash(est)
    est = dl.estimate_hitting_probability(dl.ConstantWalk(1.0, 5.0), win, 100, horizon=1000, master_seed=11)
    assert est.point == 0.0 and est.hits == 0


def test_estimator_counterexample_matches_closed_form():
    n = 15
    process = dl.CounterexampleChain(n)
    win = dl.DriftWindow(0.0, float(n))
    est = dl.estimate_hitting_probability(process, win, 2000, horizon=n, master_seed=5)
    oracle = (1.0 - math.exp(-n)) ** n
    assert est.point >= 0.999
    assert est.ci_low <= oracle <= est.ci_high or est.point == 1.0


def test_estimator_validation():
    win = dl.DriftWindow(0.0, 5.0)
    with pytest.raises(ValueError):
        dl.estimate_hitting_probability(dl.ConstantWalk(-1.0, 5.0), win, 10, horizon=0, master_seed=1)


def test_monotone_horizon_on_shared_seed_set():
    process = dl.GeometricDriftWalk(0.2, 1.0, start=5.0)
    win = dl.DriftWindow(0.0, 5.0)
    points = []
    for horizon in (1, 2, 5, 10, 50):
        points.append(dl.estimate_hitting_probability(process, win, 300, horizon, master_seed=99).point)
    assert points == sorted(points)


def test_empirical_hit_probability_matches_dp_oracle():
    eps, delta, ell, horizon = 0.2, 1.0, 6, 12
    exact = hit_probability_within(eps, delta, ell, horizon)
    process = dl.GeometricDriftWalk(eps, delta, start=float(ell))
    win = dl.DriftWindow(0.0, float(ell))
    est = dl.estimate_hitting_probability(process, win, 4000, horizon=horizon, master_seed=20260809)
    assert est.ci_low <= exact <= est.ci_high


def test_run_trials_deterministic_and_order_stable():
    process = dl.CounterexampleChain(8)
    win = dl.DriftWindow(0.0, 8.0)
    a = dl.run_trials(process, win, 500, 20, master_seed=77)
    b = dl.run_trials(process, win, 500, 20, master_seed=77)
    assert a == b
    assert [o.index for o in a] == list(range(500))


def test_run_trials_worker_count_does_not_change_results():
    # enough work to actually engage the pool
    process = dl.GeometricDriftWalk(0.2, 1.0, start=30.0)
    win = dl.DriftWindow(0.0, 30.0)
    serial = dl.run_trials(process, win, 180, 12_000, master_seed=13, workers=1)
    parallel = dl.run_trials(process, win, 180, 12_000, master_seed=13, workers=3)
    assert serial == parallel


class PoolStarted(Exception):
    pass


def test_batched_trials_stay_serial_whatever_the_budget(monkeypatch):
    # the batched path counts the doubles its trials read, which the chain's n
    # caps however large the budget
    def no_pool(*args):
        raise PoolStarted

    monkeypatch.setattr(dl.core, "ordered_map", no_pool)
    process, win = dl.CounterexampleChain(10), dl.DriftWindow(0.0, 10.0)
    outcomes = dl.run_trials(process, win, 1000, 10**12, master_seed=3, workers=2)
    assert [o.index for o in outcomes] == list(range(1000))
    # simulate-short: 20,000 trials of counterexample-n15, 300k doubles
    chain15, win15 = dl.CounterexampleChain(15), dl.DriftWindow(0.0, 15.0)
    assert len(dl.run_trials(chain15, win15, 20_000, 15, master_seed=3, workers=2)) == 20_000
    # the pool starts once the trials' doubles reach the cutoff
    trials = -(-dl.core.SERIAL_BATCH_STEPS // 10)
    with pytest.raises(PoolStarted):
        dl.run_trials(process, win, trials, 10**12, master_seed=3, workers=2)


def test_trial_outcomes_read_as_a_sequence_of_trial_outcomes():
    outcomes = dl.core.TrialOutcomes(7, [3.0, 2.5, 4.0], [None, 12, 1])
    rows = [dl.core.TrialOutcome(7, 3.0, None), dl.core.TrialOutcome(8, 2.5, 12), dl.core.TrialOutcome(9, 4.0, 1)]
    assert len(outcomes) == 3 and list(outcomes) == rows
    assert [outcomes[i] for i in (0, 1, 2, -1, -2, -3)] == rows + rows[::-1]
    assert type(outcomes[-1]) is dl.core.TrialOutcome and outcomes[0].truncated
    for i in (3, -4):
        with pytest.raises(IndexError):
            outcomes[i]
    assert outcomes == rows and rows == outcomes and outcomes == tuple(rows)
    assert outcomes != rows[:2] and rows[:2] != outcomes and outcomes != rows[:2] + [rows[1]]
    assert outcomes != dl.core.TrialOutcomes(6, [3.0, 2.5, 4.0], [None, 12, 1]) and outcomes != 3


def test_trial_outcomes_slice_as_lists():
    outcomes = dl.run_trials(dl.GeometricDriftWalk(0.2, 1.0, 3.0), dl.DriftWindow(0.0, 3.0), 6, 50, master_seed=3)
    rows = list(outcomes)
    slices = [slice(0, 2), slice(-4, -1), slice(-2, None), slice(None, None, 2), slice(None, None, -1),
              slice(5, 0, -2), slice(-1, -7, -3), slice(2, 2), slice(4, 1), slice(10, 20), slice(None, -6)]
    for s in slices:
        assert outcomes[s] == rows[s], s
    assert outcomes[2:2] == [] and outcomes[:] == rows and outcomes[1:3][0].index == 1


def test_trial_outcomes_pickle_as_their_columns():
    outcomes = dl.core.TrialOutcomes(7, [3.0, 2.5], [None, 12])
    loaded = pickle.loads(pickle.dumps(outcomes))
    assert type(loaded) is dl.core.TrialOutcomes and loaded == outcomes
    assert (loaded.first, loaded.starts, loaded.hit_times) == (7, [3.0, 2.5], [None, 12])


def test_trial_outcomes_unpickle_one_start_object_per_run():
    x0, other = 10.0, 2.5
    outcomes = dl.core.TrialOutcomes(3, [x0] * 5 + [other, other, x0], [1, None, 2, 3, None, 4, 5, None])
    loaded = pickle.loads(pickle.dumps(outcomes))
    assert loaded == outcomes and loaded.starts == outcomes.starts and loaded.first == 3
    assert len({id(x) for x in loaded.starts}) == 3


def test_a_pooled_batched_run_holds_no_more_than_a_serial_one(monkeypatch):
    # the pool's chunks unpickle their start column as one float object per run,
    # so the joined column repeats a few objects, as the serial column repeats one
    monkeypatch.setattr(dl.core, "SERIAL_BATCH_STEPS", 0)
    process, win = dl.CounterexampleChain(10), dl.DriftWindow(0.0, 10.0)
    outcomes, held = {}, {}
    for workers in (1, 2):
        tracemalloc.start()
        try:
            outcomes[workers] = dl.run_trials(process, win, 200_000, 10, master_seed=1, workers=workers)
            held[workers] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    serial, pooled = outcomes[1], outcomes[2]
    assert (pooled.first, pooled.starts, pooled.hit_times) == (serial.first, serial.starts, serial.hit_times)
    assert held[2] <= 1.2 * held[1], held


def test_pooled_stepped_trials_equal_the_serial_run_across_chunks(monkeypatch):
    # 37 trials make 8 chunks of 4 or 5 trials; from 3 above the target, against
    # drift 0.2, the walk hits within 60 steps in some trials and not in others
    monkeypatch.setattr(dl.core, "SERIAL_TRIAL_STEPS", 0)
    pools, ordered_map = [], dl.core.ordered_map
    monkeypatch.setattr(dl.core, "ordered_map", lambda *args: pools.append(args[2]) or ordered_map(*args))
    process, win = dl.GeometricDriftWalk(0.2, 1.0, start=3.0), dl.DriftWindow(0.0, 3.0)
    serial = dl.run_trials(process, win, 37, 60, master_seed=8)
    pooled = dl.run_trials(process, win, 37, 60, master_seed=8, workers=2)
    assert pools == [2] and pooled == serial and pooled.first == 0
    assert [o.index for o in pooled] == list(range(37))
    assert None in pooled.hit_times and any(hit is not None for hit in pooled.hit_times)


def test_ordered_map_keeps_task_order_with_more_workers_than_cores():
    # later tasks are cheaper, so they finish first; results still come in task order
    tasks = list(range(3000, 0, -100))
    assert list(dl.core.ordered_map(math.factorial, tasks, workers=3)) == [math.factorial(n) for n in tasks]
    assert list(dl.core.ordered_map(math.factorial, tasks, workers=1)) == [math.factorial(n) for n in tasks]
    assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def caller():
    return os.getpid()


class TestOrderedMapPool:
    """ordered_map's fork pool: the caller is worker 0, and task i goes to worker i % workers."""

    def test_a_childs_exception_reaches_the_caller(self, caller):
        # tasks 1 and 3 go to the child
        def fail_in_child(x):
            if os.getpid() != caller:
                raise ValueError(f"task {x} failed in a child")
            return x

        with pytest.raises(ValueError, match=r"^task 1 failed in a child$"):
            list(dl.core.ordered_map(fail_in_child, range(4), workers=2))
        assert_no_child_left()

    def test_a_result_that_does_not_pickle_raises_in_the_caller(self):
        # task 1's result, a local function, goes to the caller by pickle
        results = dl.core.ordered_map(lambda x: (lambda: x), range(2), workers=2)
        assert next(results)() == 0
        with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
            next(results)
        assert_no_child_left()

    def test_the_callers_own_exception_leaves_no_child(self):
        # task 2 is the caller's second, after the child's first result
        def fail_at_2(x):
            if x == 2:
                raise ValueError("task 2 failed")
            return x

        results = dl.core.ordered_map(fail_at_2, range(6), workers=2)
        assert next(results) == 0 and next(results) == 1
        with pytest.raises(ValueError, match="task 2 failed"):
            next(results)
        assert_no_child_left()

    def test_closing_after_the_first_result_leaves_no_child(self):
        results = dl.core.ordered_map(math.factorial, range(2000, 2100), workers=3)
        assert next(results) == math.factorial(2000)
        results.close()
        assert_no_child_left()

    def test_a_child_that_dies_unsent_raises_runtime_error(self, caller):
        def die_in_child(x):
            if os.getpid() != caller:
                os._exit(3)
            return x

        def timed_out(signum, frame):
            raise TimeoutError("ordered_map waits on a dead child")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(30)
        try:
            with pytest.raises(RuntimeError, match="ended without sending its result"):
                list(dl.core.ordered_map(die_in_child, range(4), workers=2))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_left()

    def test_without_fork_a_pooled_run_is_the_serial_run(self, monkeypatch):
        monkeypatch.setattr(dl.core, "SERIAL_TRIAL_STEPS", 0)
        process, win = dl.GeometricDriftWalk(0.2, 1.0, start=3.0), dl.DriftWindow(0.0, 3.0)
        serial = dl.run_trials(process, win, 37, 60, master_seed=8)
        monkeypatch.delattr(os, "fork")
        assert dl.run_trials(process, win, 37, 60, master_seed=8, workers=2) == serial
        assert_no_child_left()


def test_default_workers_honours_the_cpu_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert dl.core.default_workers() == 1


def test_default_workers_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert dl.core.default_workers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert dl.core.default_workers() == 1
