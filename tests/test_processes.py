import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

import driftlab as dl
from driftlab.rng import generator
from helpers import geometric_step_pmf, replay_potentials


class TestCounterexampleChain:
    def test_config_derived_values(self):
        ce = dl.CounterexampleChain(10)
        # ceil(2 e^10) evaluated with a high-precision calculator
        assert ce.up_jump == 44053
        assert ce.up_prob == pytest.approx(4.5399929762484854e-05, rel=1e-14)

    def test_bounds_on_n(self):
        for bad in (1, 26, 0, -3):
            with pytest.raises(ValueError):
                dl.CounterexampleChain(bad)
        dl.CounterexampleChain(2)
        dl.CounterexampleChain(25)

    def test_drift_at_least_one_for_every_n(self):
        for n in range(2, 26):
            table = dl.CounterexampleChain(n).step_law(None)
            expected = math.exp(-n) * math.ceil(2 * math.exp(n)) - (1 - math.exp(-n))
            assert table.drift() == pytest.approx(expected, rel=1e-12)
            assert table.drift() >= 1.0

    def test_one_sided_tail_is_unit_steps_only(self):
        table = dl.CounterexampleChain(10).step_law(None)
        assert table.tail_down(1) == pytest.approx(1 - math.exp(-10), rel=1e-14)
        assert table.tail_down(2) == 0.0
        assert table.tail_down(50) == 0.0

    def test_two_sided_tail_concentrates_on_the_big_jump(self):
        table = dl.CounterexampleChain(10).step_law(None)
        p = math.exp(-10)
        for j in (2, 100, 44053):
            assert table.tail_abs(j) == pytest.approx(p, rel=1e-14)
        assert table.tail_abs(44054) == 0.0

    def test_trajectories_never_step_down_by_two(self):
        process = dl.CounterexampleChain(6)
        for index in range(100):
            diffs = np.diff(replay_potentials(process, 0, index, 50))
            assert all(d == -1.0 or d == process.up_jump or d == 0.0 for d in diffs)
            assert not any(d <= -2 for d in diffs)

    def test_absorbing_outside_live_region(self):
        process = dl.CounterexampleChain(5)
        rng = generator(0)
        assert process.step(0, rng) == 0
        assert process.step(-3, rng) == -3
        assert process.step(6 + process.up_jump, rng) == 6 + process.up_jump
        assert process.absorbed(0) and process.absorbed(99999)
        assert not process.absorbed(3)


class TestGeometricDriftWalk:
    def test_weights_solved_from_series_sums(self):
        # independent oracle: for delta=1, sum (1/2)^j = 1 and sum j (1/2)^j = 2,
        # so c_+ + c_- = 1 and c_+ - c_- = 0.2 / 2 = 0.1
        w = dl.GeometricDriftWalk(0.2, 1.0)
        assert w.c_plus == pytest.approx(0.55, rel=1e-14)
        assert w.c_minus == pytest.approx(0.45, rel=1e-14)
        assert w.r == 2.0

    def test_table_is_normalized_with_exact_drift(self):
        for eps, delta in [(0.2, 1.0), (0.5, 0.3), (1.0, 2.5), (0.05, 0.1)]:
            walk = dl.GeometricDriftWalk(eps, delta)
            table = walk.step_law(None)
            assert abs(float(table.probs.sum()) - 1.0) < 1e-12
            assert table.drift() == pytest.approx(eps, rel=1e-9)

    @pytest.mark.parametrize("delta", [0.3, 1.0, 2.0])
    def test_closed_form_tail_matches_term_summation(self, delta):
        walk = dl.GeometricDriftWalk(0.1, delta)
        pmf, j_cap = geometric_step_pmf(0.1, delta, j_cap=4000)
        mags = np.abs(np.arange(-j_cap, j_cap + 1))
        law = walk.step_law(None)
        for j in range(0, 61):
            brute = float(pmf[mags >= j].sum())
            # closed form: P(|step| >= j) = (1+delta)^(1-j) for j >= 1
            assert brute == pytest.approx(1.0 if j == 0 else (1.0 + delta) ** (1 - j), rel=1e-12)
            assert law.tail_abs(j) == pytest.approx(brute, rel=1e-9)

    def test_tail_condition_holds_exactly_with_r_one_plus_delta(self):
        walk = dl.GeometricDriftWalk(0.3, 0.7)
        pmf, j_cap = geometric_step_pmf(0.3, 0.7, j_cap=4000)
        mags = np.abs(np.arange(-j_cap, j_cap + 1))
        for j in range(0, 65):
            bound = walk.r / (1.0 + walk.delta) ** j
            assert float(pmf[mags >= j].sum()) <= bound * (1 + 1e-12)

    def test_infeasible_drift_rejected_with_diagnostic(self):
        with pytest.raises(ValueError, match="geometric tails allow"):
            dl.GeometricDriftWalk(2.1, 1.0)  # max drift at delta=1 is (1+1)/1 = 2
        with pytest.raises(ValueError):
            dl.GeometricDriftWalk(-0.1, 1.0)
        with pytest.raises(ValueError):
            dl.GeometricDriftWalk(0.2, 0.0)

    def test_pure_upward_walk_never_hits(self):
        # eps = (1+delta)/delta makes c_minus zero
        walk = dl.GeometricDriftWalk(2.0, 1.0, start=5.0)
        assert walk.c_minus == pytest.approx(0.0, abs=1e-15)
        est = dl.estimate_hitting_probability(walk, dl.DriftWindow(0.0, 5.0), 200, horizon=50, master_seed=4)
        assert est.hits == 0

    def test_sampler_matches_exact_table_chi_square(self):
        walk = dl.GeometricDriftWalk(0.2, 1.0)
        rng = generator(314159)
        samples = np.array([walk.step(0.0, rng) for _ in range(100_000)])
        # bins: -8..-1 and 1..8 individually, magnitudes > 8 pooled per side
        edges = list(range(-8, 0)) + list(range(1, 9))
        observed, expected = [], []
        n = samples.size
        for v in edges:
            observed.append(int((samples == v).sum()))
            weight = walk.c_plus if v > 0 else walk.c_minus
            expected.append(n * weight * (1 + walk.delta) ** (-abs(v)))
        pmf, j_cap = geometric_step_pmf(walk.eps, walk.delta)
        observed.append(int((samples < -8).sum()))
        expected.append(n * pmf[: j_cap - 8].sum())
        observed.append(int((samples > 8).sum()))
        expected.append(n * pmf[j_cap + 9 :].sum())
        stat, p_value = sstats.chisquare(observed, expected)
        assert p_value > 1e-3


class TestNeedleEA:
    def test_single_flip_probability_matches_binomial(self):
        # at distance n every flip is a wrong-bit flip, so the step size equals
        # the flip count and P(one flip) = C(10,1) (1/10) (9/10)^9 = 0.38742...
        process = dl.NeedleOneOneEA(10)
        rng = generator(7)
        moves = np.array([10 - process.step(10, rng) for _ in range(60_000)])
        freq = float((moves == 1).mean())
        expected = sstats.binom.pmf(1, 10, 0.1)
        assert expected == pytest.approx(0.387420489, rel=1e-9)
        lo, hi = dl.wilson_interval(int((moves == 1).sum()), moves.size)
        assert lo <= expected <= hi

    def test_step_law_matches_binomial_convolution(self):
        n, d = 10, 4
        process = dl.NeedleOneOneEA(n)
        rng = generator(21)
        deltas = np.array([process.step(d, rng) - d for _ in range(60_000)])
        # exact law: (up flips) - (down flips) with independent binomials
        down = sstats.binom.pmf(np.arange(d + 1), d, 1 / n)
        up = sstats.binom.pmf(np.arange(n - d + 1), n - d, 1 / n)
        exact = {}
        for w, pw in enumerate(down):
            for r, pr in enumerate(up):
                exact[r - w] = exact.get(r - w, 0.0) + pw * pr
        for k in (-2, -1, 0, 1, 2):
            count = int((deltas == k).sum())
            lo, hi = dl.wilson_interval(count, deltas.size)
            assert lo - 1e-12 <= exact[k] <= hi + 1e-12

    def test_two_sided_tail_dominated_by_mutation_bound(self):
        # P(|step| >= j) <= C(n,j) n^-j <= 2 (1/2)^j on the plateau
        process = dl.NeedleOneOneEA(50)
        rng = generator(5)
        d = 25
        deltas = []
        for _ in range(40_000):
            nxt = process.step(d, rng)
            deltas.append(nxt - d)
        mags = np.abs(np.array(deltas))
        for j in range(1, 6):
            count = int((mags >= j).sum())
            _, hi = dl.wilson_interval(count, mags.size)
            assert hi <= 2.0 * 0.5**j

    def test_optimum_is_kept(self):
        process = dl.NeedleOneOneEA(10)
        rng = generator(0)
        assert process.step(0, rng) == 0
        assert process.absorbed(0)

    def test_uniform_start(self):
        process = dl.NeedleOneOneEA(40)
        starts = [process.initial_state(generator(s)) for s in range(4000)]
        assert np.mean(starts) == pytest.approx(20.0, abs=0.5)


class TestOneCommaLambdaEA:
    def test_lambda_one_accepts_every_offspring(self):
        process = dl.OneCommaLambdaEA(20, 1)
        rng = generator(3)
        # the chain equals a single mutation per step: its mean matches the
        # unconditional mutation drift (n - 2k)/n at k
        k = 5
        moves = [process.step(k, rng) - k for _ in range(20_000)]
        assert np.mean(moves) == pytest.approx((20 - 2 * k) / 20, abs=0.02)

    def test_copy_event_matches_closed_form(self):
        n, lam = 100, 2
        process = dl.OneCommaLambdaEA(n, lam)
        closed = 1.0 - (1.0 - 0.99**100) ** 2
        rng = generator(11)
        hits = sum(process.generation(50, rng)[1] for _ in range(20_000))
        lo, hi = dl.wilson_interval(int(hits), 20_000)
        assert lo <= closed <= hi

    def test_copy_probability_floor(self):
        # an offspring that copies its parent keeps the count, so the best never
        # worsens with probability at least 1 - (1 - (1-1/n)^n)^lambda, which is
        # at least 1 - (1 - 1/(2e))^lambda for n >= 2
        for n in (2, 3, 10, 1000):
            for lam in (1, 2, 8, 64):
                floor = 1.0 - (1.0 - 1.0 / (2.0 * math.e)) ** lam
                law = dl.OneCommaLambdaEA(n, lam).step_law(n // 2)
                assert float(law.probs[law.values <= 0].sum()) >= floor - 1e-12

    def test_best_offspring_selected(self):
        process = dl.OneCommaLambdaEA(30, 8)
        rng = generator(9)
        # with 8 offspring the next parent can never exceed the worst mutation,
        # and the generation returns the minimum offspring count
        for _ in range(200):
            new, _ = process.generation(15, rng)
            assert 0 <= new <= 30

    def test_validation(self):
        with pytest.raises(ValueError):
            dl.OneCommaLambdaEA(1, 2)
        with pytest.raises(ValueError):
            dl.OneCommaLambdaEA(10, 0)


class TestPeaSelection:
    def test_uniform_fitnesses_mu_four(self):
        q = dl.pea_prime_selection([2.0, 2.0, 2.0, 2.0])
        assert q[0] == pytest.approx(0.0, abs=1e-15)
        for v in q[1:]:
            assert v == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert q.sum() == pytest.approx(1.0, abs=1e-15)

    def test_mu_two_example(self):
        q = dl.pea_prime_selection([3.0, 1.0])
        assert q[0] == pytest.approx(0.25, rel=1e-14)
        assert q[1] == pytest.approx(0.75, rel=1e-14)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=12)
    )
    @settings(max_examples=200)
    def test_distribution_property(self, values):
        fitnesses = sorted(values, reverse=True)
        q = dl.pea_prime_selection(fitnesses)
        assert abs(q.sum() - 1.0) < 1e-12
        assert (q >= -1e-15).all()

    def test_rejections(self):
        with pytest.raises(ValueError):
            dl.pea_prime_selection([1.0, 2.0])  # unsorted
        with pytest.raises(ValueError):
            dl.pea_prime_selection([1.0, 0.0])  # non-positive
        with pytest.raises(ValueError):
            dl.pea_prime_selection([1.0])  # too short


class TestFitnessProportionalEA:
    def test_log_potential_matches_direct_computation(self):
        process = dl.pea(20, 2)
        for v1 in range(0, 21):
            for v2 in range(0, v1 + 1):
                direct = math.log(8.0**v1 + 8.0**v2, 8)
                assert process.potential((v1, v2)) == pytest.approx(direct, rel=1e-10)

    def test_potential_bracket(self):
        process = dl.pea(1000, 4)
        state = (900, 850, 800, 10)
        pot = process.potential(state)
        assert max(state) <= pot <= max(state) + math.log(4, 8) + 1e-12

    def test_prime_always_mutates_best_first(self):
        process = dl.pea_prime(50, 3)
        rng = generator(17)
        for _ in range(100):
            _, counts = process.generation((30, 20, 10), rng)
            assert counts[0] >= 1
            assert counts.sum() == 3

    def test_plain_pea_selects_proportionally(self):
        process = dl.pea(1000, 2)
        state = (999, 500)
        rng = generator(23)
        both_second = 0
        trials = 20_000
        for _ in range(trials):
            _, counts = process.generation(state, rng)
            if counts[1] == 2:
                both_second += 1
        expected = (500.0 / 1499.0) ** 2
        lo, hi = dl.wilson_interval(both_second, trials)
        assert lo <= expected <= hi
        assert expected == pytest.approx(0.1113, abs=2e-4)

    def test_expected_selection_closed_form_holds_in_simulation(self):
        # E(S_1) = 1 + (mu-1) f_1/f_tot - (mu-1)/mu for the reweighted scheme
        process = dl.pea_prime(40, 2)
        state = (30, 20)
        rng = generator(31)
        total = np.zeros(2)
        trials = 30_000
        for _ in range(trials):
            _, counts = process.generation(state, rng)
            total += counts
        f_tot = sum(state)
        expected_s1 = 1 + 1 * state[0] / f_tot - 1 / 2
        expected_s2 = 1 * state[1] / f_tot + 1 / 2
        assert total[0] / trials == pytest.approx(expected_s1, abs=0.01)
        assert total[1] / trials == pytest.approx(expected_s2, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            dl.pea(10, 1)
        with pytest.raises(ValueError):
            dl.pea_prime(1, 2)


def test_make_process_registry():
    assert isinstance(dl.make_process("counterexample", n=10), dl.CounterexampleChain)
    assert isinstance(dl.make_process("geometric-walk", eps=0.2, delta=1.0), dl.GeometricDriftWalk)
    assert isinstance(dl.make_process("needle", n=10), dl.NeedleOneOneEA)
    assert isinstance(dl.make_process("one-comma-lambda", n=10, lambda_offspring=2), dl.OneCommaLambdaEA)
    assert dl.make_process("pea", n=10, mu=2).force_best_mutation is False
    assert dl.make_process("pea-prime", n=10, mu=2).force_best_mutation is True
    with pytest.raises(ValueError, match="unknown process kind"):
        dl.make_process("nope")
