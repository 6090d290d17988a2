import math
import os

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


def test_ordered_map_keeps_task_order_with_more_workers_than_cores():
    # later tasks are cheaper, so they finish first; results still come in task order
    tasks = list(range(3000, 0, -100))
    assert list(dl.core.ordered_map(math.factorial, tasks, workers=3)) == [math.factorial(n) for n in tasks]
    assert list(dl.core.ordered_map(math.factorial, tasks, workers=1)) == [math.factorial(n) for n in tasks]


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
