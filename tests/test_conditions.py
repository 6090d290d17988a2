import math

import numpy as np
import pytest

import driftlab as dl
from driftlab.conditions import ONE_SIDED, TWO_SIDED
from driftlab.rng import generator


@pytest.fixture(scope="module")
def counterexample_table():
    return dl.CounterexampleChain(10).jump_table()


@pytest.fixture(scope="module")
def walk():
    return dl.GeometricDriftWalk(0.2, 1.0)


class TestExactChecks:
    def test_counterexample_passes_one_sided(self, counterexample_table):
        params = dl.ConditionParams(eps=1.0, delta=1.0, r=2.0)
        report = dl.check_conditions_exact(counterexample_table, params, ONE_SIDED)
        assert report.drift_verdict == "pass"
        assert not report.tail_failures()
        assert report.passed()
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

    def test_geometric_walk_passes_two_sided(self, walk):
        params = dl.ConditionParams(eps=0.2, delta=1.0, r=2.0)
        report = dl.check_conditions_exact(walk.jump_table(), params, TWO_SIDED)
        assert report.passed()
        assert all(t.verdict == "pass" for t in report.tails)

    def test_j_zero_always_passes_with_r_at_least_one(self, walk):
        params = dl.ConditionParams(eps=0.2, delta=1.0, r=1.0)
        report = dl.check_conditions_exact(walk.jump_table(), params, TWO_SIDED)
        assert report.tails[0].j == 0.0
        assert report.tails[0].verdict == "pass"

    def test_one_sided_implied_by_two_sided(self, counterexample_table, walk):
        params = dl.ConditionParams(eps=0.2, delta=1.0, r=2.0)
        for table in (counterexample_table, walk.jump_table()):
            two = dl.check_conditions_exact(table, params, TWO_SIDED)
            one = dl.check_conditions_exact(table, params, ONE_SIDED)
            one_by_j = {t.j: t.verdict for t in one.tails}
            for t in two.tails:
                if t.verdict == "pass":
                    assert one_by_j[t.j] == "pass"

    def test_non_normalized_table_rejected(self):
        bad = dl.JumpDistribution.__new__(dl.JumpDistribution)
        object.__setattr__(bad, "values", np.array([-1.0, 1.0]))
        object.__setattr__(bad, "probs", np.array([0.6, 0.5]))
        params = dl.ConditionParams(eps=0.1, delta=1.0, r=2.0)
        with pytest.raises(ValueError, match="not normalized"):
            dl.check_conditions_exact(bad, params)

    def test_drift_failure_detected(self):
        table = dl.JumpDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
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

    def test_agrees_with_exact_mode_where_margins_are_wide(self, walk):
        params = dl.ConditionParams(eps=0.2, delta=1.0, r=2.0, j_max=32)
        exact = dl.check_conditions_exact(walk.jump_table(), params, TWO_SIDED)
        rng = generator(2024)
        samples = walk.jump_table().sample(rng, 1_000_000)
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
        table = dl.CounterexampleChain(10).jump_table()
        rng = generator(8)  # seed with at least one up-jump among 1e5 draws
        samples = table.sample(rng, 100_000)
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

    def test_condition_params_validation(self):
        with pytest.raises(ValueError):
            dl.ConditionParams(eps=0.0, delta=1.0, r=2.0)
        with pytest.raises(ValueError):
            dl.ConditionParams(eps=0.1, delta=-1.0, r=2.0)
        with pytest.raises(ValueError):
            dl.ConditionParams(eps=0.1, delta=1.0, r=0.5)
        with pytest.raises(ValueError):
            dl.ConditionParams(eps=0.1, delta=1.0, r=2.0, j_max=0)
