import math

import numpy as np
import pytest

import driftlab as dl
from driftlab.conditions import ONE_SIDED, TWO_SIDED
from driftlab.jumps import MAX_TAIL_INDEX, LawTable
from driftlab.rng import generator, trial_seed
from helpers import Int32Probe, replay_potentials, sample_steps, tail_reach

#: a window on which the counterexample chain at n = 10 has its one law
LIVE = dl.DriftWindow(0.0, 10.0)


@pytest.fixture(scope="module")
def counterexample_table():
    return dl.CounterexampleChain(10).law_table(LIVE)


@pytest.fixture(scope="module")
def walk_law():
    return dl.GeometricDriftWalk(0.2, 1.0).law_table(LIVE)


class TestExactChecks:
    def test_counterexample_passes_one_sided(self, counterexample_table):
        params = dl.ConditionParams(eps=1.0, delta=1.0, r=2.0)
        report = dl.check_conditions_exact(counterexample_table, params, ONE_SIDED)
        assert report.drift_verdict == "pass"
        assert not report.tail_failures()
        assert report.overall() == "pass"
        # j = 1: 1 - e^-10 <= 2/2 = 1 ; j >= 2: zero one-sided tail
        by_j = {t.j: t for t in report.tails}
        assert by_j[1.0].tail == pytest.approx(1 - math.exp(-10), rel=1e-12)
        assert by_j[2.0].tail == 0.0

    def test_counterexample_fails_two_sided_at_the_jump(self, counterexample_table):
        params = dl.ConditionParams(eps=1.0, delta=1.0, r=2.0)
        report = dl.check_conditions_exact(counterexample_table, params, TWO_SIDED)
        assert report.overall() == "fail"
        failed_js = {t.j for t in report.tail_failures()}
        # the bound underflows long before the actual jump size
        assert 44053.0 in failed_js
        big = next(t for t in report.tails if t.j == 44053.0)
        assert big.tail == pytest.approx(math.exp(-10), rel=1e-12)
        assert big.bound == 0.0  # 2 / 2^44053 underflows; comparison ran in log space
        # first failing index: 2/2^j < e^-10 from j = 16 onward
        assert min(failed_js) == 16.0

    def test_geometric_walk_passes_two_sided(self, walk_law):
        params = dl.ConditionParams(eps=0.2, delta=1.0, r=2.0)
        report = dl.check_conditions_exact(walk_law, params, TWO_SIDED)
        assert report.overall() == "pass"
        assert all(t.verdict == "pass" for t in report.tails)

    def test_j_zero_always_passes_with_r_at_least_one(self, walk_law):
        params = dl.ConditionParams(eps=0.2, delta=1.0, r=1.0)
        report = dl.check_conditions_exact(walk_law, params, TWO_SIDED)
        assert report.tails[0].j == 0.0
        assert report.tails[0].verdict == "pass"

    def test_one_sided_implied_by_two_sided(self, counterexample_table, walk_law):
        params = dl.ConditionParams(eps=0.2, delta=1.0, r=2.0)
        for table in (counterexample_table, walk_law):
            two = dl.check_conditions_exact(table, params, TWO_SIDED)
            one = dl.check_conditions_exact(table, params, ONE_SIDED)
            one_by_j = {t.j: t.verdict for t in one.tails}
            for t in two.tails:
                if t.verdict == "pass":
                    assert one_by_j[t.j] == "pass"

    @pytest.mark.parametrize(
        "values,probs",
        [
            ([-3.0, -1.0, 0.0, 2.0, 5.0], [0.0, 0.2, 0.3, 0.5, 0.0]),
            ([1.0, 2.5], [0.5, 0.5]),
            ([-4.0, -0.5], [0.75, 0.25]),
            ([0.0], [1.0]),
            ([-7.0, 0.0, 7.0], [1e-300, 0.5, 0.5 - 1e-300]),
        ],
    )
    def test_a_tail_is_zero_exactly_past_its_reach(self, values, probs):
        # the reference check skips a law once j passes its reach, so that must be where its tail becomes 0.0
        law = LawTable.law(values, probs)
        for variant in (TWO_SIDED, ONE_SIDED):
            reach = tail_reach(law.values, law.probs[0], variant)
            js = np.array([*np.arange(0.0, 9.0, 0.25), reach, np.nextafter(reach, math.inf)])
            for j, tail in zip(js.tolist(), law.tails(js, variant == ONE_SIDED)[0].tolist()):
                assert (tail == 0.0) == (j > reach), (variant, j)

    def test_mismatched_or_empty_arrays_rejected(self):
        for values, probs in (([-1.0, 1.0], [1.0]), ([], []), ([[0.0]], [[1.0]])):
            with pytest.raises(ValueError, match="matching non-empty 1-d arrays"):
                LawTable.law(values, probs)

    def test_unsorted_values_rejected(self):
        for values in ([1.0, -1.0], [0.0, 0.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                LawTable.law(values, [0.5, 0.5])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LawTable.law([-1.0, 0.0, 1.0], [0.6, -0.1, 0.5])

    def test_non_normalized_table_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            LawTable.law(np.array([-1.0, 1.0]), np.array([0.6, 0.5]))

    def test_drift_failure_detected(self):
        table = LawTable.law(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        params = dl.ConditionParams(eps=0.1, delta=1.0, r=2.0)
        report = dl.check_conditions_exact(table, params)
        assert report.drift_verdict == "fail"
        assert report.overall() == "fail"


class TestEmpiricalChecks:
    def test_point_mass_at_eps(self):
        samples = np.full(100_000, 0.25)
        params = dl.ConditionParams(eps=0.25, delta=1.0, r=2.0)
        report = dl.check_conditions_empirical(samples, samples, params, TWO_SIDED)
        assert report.drift_verdict == "pass"
        # every tail with j > eps has zero exceedances -> inconclusive, never fail
        assert not report.tail_failures()
        assert {t.verdict for t in report.tails if t.j >= 1} == {"inconclusive"}

    def test_zero_observations_inconclusive_not_pass(self):
        samples = np.zeros(500)
        samples[:250] = 0.5
        params = dl.ConditionParams(eps=0.1, delta=1.0, r=2.0, j_max=8)
        report = dl.check_conditions_empirical(samples, samples, params, TWO_SIDED)
        for t in report.tails:
            if t.count == 0:
                assert t.verdict == "inconclusive"

    def test_agrees_with_exact_mode_where_margins_are_wide(self, walk_law):
        params = dl.ConditionParams(eps=0.2, delta=1.0, r=2.0, j_max=32)
        exact = dl.check_conditions_exact(walk_law, params, TWO_SIDED)
        rng = generator(2024)
        samples = sample_steps(walk_law, rng, 1_000_000)
        emp = dl.check_conditions_empirical(samples, samples, params, TWO_SIDED)
        exact_by_j = {t.j: t for t in exact.tails}
        for t in emp.tails:
            if t.verdict == "inconclusive" or t.count is None:
                continue
            ref = exact_by_j.get(t.j)
            if ref is None:
                continue
            half = (t.ci_high - t.ci_low) / 2
            if abs(ref.tail - ref.bound) > 5 * half:
                assert t.verdict == ref.verdict

    def test_counterexample_large_jump_fails_when_observed(self):
        table = dl.CounterexampleChain(10).law_table(LIVE)
        rng = generator(8)  # seed with at least one up-jump among 1e5 draws
        samples = sample_steps(table, rng, 100_000)
        n_jumps = int((samples > 1).sum())
        assert n_jumps >= 1  # expected count is about 4.5
        params = dl.ConditionParams(eps=1.0, delta=1.0, r=2.0)
        report = dl.check_conditions_empirical(samples, samples, params, TWO_SIDED)
        failed_js = {t.j for t in report.tail_failures()}
        assert 44053.0 in failed_js
        assert report.overall() == "fail"
        # the same samples pass the one-sided check (no fails; drift may be
        # inconclusive because the jump inflates the variance)
        one = dl.check_conditions_empirical(samples, samples, params, ONE_SIDED)
        assert not one.tail_failures()

    def test_sample_floor_enforced(self):
        params = dl.ConditionParams(eps=0.1, delta=1.0, r=2.0)
        with pytest.raises(ValueError, match="at least 100"):
            dl.check_conditions_empirical([0.1] * 99, [0.1] * 1000, params)
        with pytest.raises(ValueError, match="at least 100"):
            dl.check_conditions_empirical([], [], params)

    def test_variant_validation(self):
        params = dl.ConditionParams(eps=0.1, delta=1.0, r=2.0)
        with pytest.raises(ValueError, match="variant"):
            dl.check_conditions_empirical([0.1] * 200, [0.1] * 200, params, "sideways")


class TestHarvesting:
    def test_conditioning_domains(self):
        process = dl.GeometricDriftWalk(0.2, 1.0, start=8.0)
        window = dl.DriftWindow(2.0, 8.0)
        drift_s, tail_s = dl.harvest_step_samples(process, window, trials=20, steps_per_trial=200, master_seed=3)
        # drift samples only from inside the window, tail samples from above a;
        # the walk is state-independent so both should be plentiful
        assert len(tail_s) >= len(drift_s) >= 100

    def test_restarts_keep_absorbed_states_out(self):
        process = dl.CounterexampleChain(5)
        window = dl.DriftWindow(0.0, 5.0)
        drift_s, tail_s = dl.harvest_step_samples(process, window, trials=50, steps_per_trial=100, master_seed=9)
        # absorbed self-loops would contribute zero steps; the live chain never steps by 0
        assert not (np.asarray(tail_s) == 0.0).any()
        assert len(drift_s) >= 100

    @pytest.mark.parametrize("master", [0, 2**64 - 1])
    def test_harvest_is_the_step_loop_on_each_trials_own_generator(self, master):
        # every trial leaves a 32-bit half buffered, which would change the
        # next trial's start if it reached it
        process, window, trials, steps = Int32Probe(), dl.DriftWindow(0.0, 10.0), 6, 50
        rng = generator(trial_seed(master, 0))
        process.initial_state(rng)
        for _ in range(steps):
            process.step(0.0, rng)
        assert rng.bit_generator.state["has_uint32"] == 1
        drift, tail = [], []
        for i in range(trials):
            path = replay_potentials(process, master, i, steps)
            for x, y in zip(path, path[1:]):
                if window.a < x < window.b:
                    drift.append(y - x)
                if window.a < x:
                    tail.append(y - x)
        drift_s, tail_s = dl.harvest_step_samples(process, window, trials, steps, master)
        assert drift_s.tolist() == drift and tail_s.tolist() == tail
        assert drift and len(tail) > len(drift)

    def test_harvest_refuses_a_bad_seed_with_trial_seeds_message(self):
        for master in (-1, 2**64):
            with pytest.raises(ValueError) as expected:
                trial_seed(master, 0)
            with pytest.raises(ValueError) as got:
                dl.harvest_step_samples(Int32Probe(), dl.DriftWindow(0.0, 10.0), 2, 5, master)
            assert str(got.value) == str(expected.value)

    def test_condition_params_validation(self):
        with pytest.raises(ValueError):
            dl.ConditionParams(eps=0.0, delta=1.0, r=2.0)
        with pytest.raises(ValueError):
            dl.ConditionParams(eps=0.1, delta=-1.0, r=2.0)
        with pytest.raises(ValueError):
            dl.ConditionParams(eps=0.1, delta=1.0, r=0.5)
        with pytest.raises(ValueError):
            dl.ConditionParams(eps=0.1, delta=1.0, r=2.0, j_max=0)

    def test_j_max_past_what_a_check_can_hold_rejected(self):
        # a check holds a TailCheck per index 0..j_max
        assert dl.ConditionParams(eps=0.1, delta=1.0, r=2.0, j_max=MAX_TAIL_INDEX).j_max == MAX_TAIL_INDEX
        with pytest.raises(ValueError, match="j_max"):
            dl.ConditionParams(eps=0.1, delta=1.0, r=2.0, j_max=100_000_000_000)


class TestPerStateChecks:
    params = dl.ConditionParams(eps=0.25, delta=1.0, r=2.0)
    window = dl.DriftWindow(10.0, 16.0)

    def test_needle_checked_in_every_window_state(self):
        laws = dl.NeedleOneOneEA(50).law_table(self.window)
        report = dl.check_conditions_exact(laws, self.params, TWO_SIDED, self.window)
        assert report.mode == "exact" and report.overall() == "pass"
        # drift (n - 2d)/n falls with d, so state 15 is the least inside (10, 16)
        assert report.drift_state == 15.0
        assert report.drift == pytest.approx(0.4, rel=1e-12)
        # at d = n every flip moves down, so |step| >= 1 unless nothing flips
        assert (report.tail_state, report.tail_j) == (50.0, 1.0)
        assert report.tail_log_margin == pytest.approx(math.log(1 - 0.98**50), rel=1e-12)
        assert report.tails[1].tail == pytest.approx(1 - 0.98**50, rel=1e-12)

    def test_a_state_cannot_hide_behind_the_average(self):
        laws = [LawTable.law([-1.0, 1.0], probs, x) for probs, x in
                [([0.25, 0.75], 11.0), ([0.5, 0.5], 12.0), ([0.25, 0.75], 13.0), ([0.25, 0.75], 14.0)]]
        # the average drift over the four states is 0.375 >= eps, but state 12 has none
        report = dl.check_conditions_exact(LawTable.stack(laws), self.params, TWO_SIDED, self.window)
        assert report.drift_verdict == "fail" and report.drift_state == 12.0

    def test_drift_only_inside_the_window_tails_above_it(self):
        good = LawTable.law([-1.0, 1.0], [0.25, 0.75], 11.0)
        weak = LawTable.law([-1.0, 1.0], [0.5, 0.5], 16.0)
        heavy = LawTable.law([-40.0, 1.0], [0.01, 0.99], 16.0)
        # state 16 is not inside (10, 16): its weak drift is not required, its tails are
        report = dl.check_conditions_exact(LawTable.stack([good, weak]), self.params, TWO_SIDED, self.window)
        assert report.overall() == "pass" and report.drift_state == 11.0
        report = dl.check_conditions_exact(LawTable.stack([good, heavy]), self.params, TWO_SIDED, self.window)
        assert report.overall() == "fail" and report.tail_state == 16.0
        assert {t.j for t in report.tail_failures()} >= {40.0}

    def test_one_law_in_every_state_gives_the_single_law_rows(self, counterexample_table):
        params = dl.ConditionParams(eps=1.0, delta=1.0, r=2.0)
        window = dl.DriftWindow(0.0, 10.0)
        single = dl.check_conditions_exact(counterexample_table, params, TWO_SIDED)
        laws = [LawTable.law(counterexample_table.values, counterexample_table.probs[0], float(x)) for x in range(1, 11)]
        per_state = dl.check_conditions_exact(LawTable.stack(laws), params, TWO_SIDED, window)
        assert per_state.tails == single.tails
        assert per_state.overall() == single.overall() == "fail"
        assert single.drift_state is None and single.tail_state is None
        assert per_state.tail_j == single.tail_j == 44053.0

    def test_bad_per_state_input_rejected(self):
        with pytest.raises(ValueError, match="window"):
            dl.check_conditions_exact(LawTable.law([1.0], [1.0], 11.0), self.params)
        with pytest.raises(ValueError, match="above the target threshold"):
            dl.check_conditions_exact(LawTable.law([1.0], [1.0], 10.0), self.params, TWO_SIDED, self.window)
        with pytest.raises(ValueError, match="strictly inside"):
            dl.check_conditions_exact(LawTable.law([1.0], [1.0], 16.0), self.params, TWO_SIDED, self.window)

    def test_a_check_builds_its_laws_once_and_trials_once_a_state(self, monkeypatch):
        built = []
        original = dl.NeedleOneOneEA.transitions
        monkeypatch.setattr(dl.NeedleOneOneEA, "transitions", lambda self, d: built.append(d) or original(self, d))
        process = dl.NeedleOneOneEA(20)
        laws = process.law_table(dl.DriftWindow(2.0, 5.0))
        assert built == list(range(3, 21))
        dl.check_conditions_exact(laws, self.params, TWO_SIDED, dl.DriftWindow(2.0, 5.0))
        assert built == list(range(3, 21))
        # trials step on the same law, read once for each state they visit
        built.clear()
        dl.run_trials(process, dl.DriftWindow(2.0, 5.0), 20, 100, master_seed=1)
        assert built and len(built) == len(set(built))
