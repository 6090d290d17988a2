import math

import mpmath as mp
import numpy as np
import pytest
from helpers import brute_expectation, random_discrete_distribution, random_nondecreasing_step_function

import driftlab as dl

mp.mp.dps = 50


class TestLemmaTailBound:
    def test_constant_variable_is_tight(self):
        # X identically x_min and constant f: the bound equals the expectation
        inp = dl.LemmaInput(x_min=0.0, tail=lambda i: 1.0 if i == 0 else 0.0, f=lambda x: 3.5, terms=5)
        assert dl.lemma_tail_bound(inp) == pytest.approx(3.5, rel=1e-14)

    def test_uniform_on_two_points(self):
        # X uniform on {0, 1}, f(x) = x: bound = f(1) * 1 + f(2) * 1/2 = 2 >= E = 1/2
        inp = dl.LemmaInput(
            x_min=0.0,
            tail=lambda i: 1.0 if i == 0 else (0.5 if i == 1 else 0.0),
            f=lambda x: x,
            terms=3,
        )
        bound = dl.lemma_tail_bound(inp)
        assert bound == pytest.approx(2.0, rel=1e-14)
        assert bound >= 0.5

    def test_geometric_tail_exponential_f_closed_form(self):
        # tails 2^-i with f = e^{gamma x}, gamma = ln 1.5: series sums to
        # 1.5 / (1 - 0.75) = 6 exactly
        gamma = math.log(1.5)
        terms = 220
        remainder = 6.0 * 0.75**terms
        inp = dl.LemmaInput(
            x_min=0.0,
            tail=lambda i: 0.5**i,
            f=lambda x: math.exp(gamma * x),
            terms=terms,
            remainder_bound=remainder,
        )
        bound = dl.lemma_tail_bound(inp)
        assert bound == pytest.approx(6.0, rel=1e-12)
        # the induced pmf p_i = 2^-(i+1) has E(f) = 2 <= 6
        brute = sum(1.5**i * 0.5 ** (i + 1) for i in range(400))
        assert brute == pytest.approx(2.0, rel=1e-12)
        assert bound >= brute

    def test_dominates_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(6021)
        for _ in range(200):
            values, probs = random_discrete_distribution(rng, x_min=float(rng.integers(-5, 6)))
            f = random_nondecreasing_step_function(rng, x_min=values[0])
            tail = _tail_function(values, probs)
            inp = dl.LemmaInput(x_min=float(values[0]), tail=tail, f=f, terms=25)
            assert dl.lemma_tail_bound(inp) >= brute_expectation(values, probs, f) - 1e-9

    def test_divergent_configuration_rejected(self):
        with pytest.raises(ValueError, match="remainder_bound"):
            dl.LemmaInput(x_min=0.0, tail=lambda i: 0.5**i, f=math.exp, terms=10, remainder_bound=math.inf)

    def test_monotonicity_spot_checks(self):
        with pytest.raises(ValueError, match="tail"):
            dl.lemma_tail_bound(
                dl.LemmaInput(x_min=0.0, tail=lambda i: 0.5 if i == 0 else 1.0, f=lambda x: x, terms=3)
            )
        with pytest.raises(ValueError, match="non-negative"):
            dl.lemma_tail_bound(
                dl.LemmaInput(x_min=0.0, tail=lambda i: 1.0 if i == 0 else 0.0, f=lambda x: -x, terms=3)
            )
        with pytest.raises(ValueError, match="non-decreasing"):
            dl.lemma_tail_bound(
                dl.LemmaInput(x_min=0.0, tail=lambda i: 1.0 if i == 0 else 0.0, f=lambda x: 10.0 - x, terms=5)
            )


def _tail_function(values, probs):
    def tail(i):
        threshold = values[0] + i
        return float(probs[values >= threshold - 1e-12].sum())

    return tail


class TestDeriveConstants:
    def test_reference_values_high_precision(self):
        c = dl.derive_constants(eps=1.0, delta=1.0, r=2.0, ell=100.0, prob_target=0.5)
        gamma_ref = mp.log(mp.mpf(3) / 2)
        c_ref = 2 * (4 + 1 + 2) / gamma_ref**2
        lam_ref = min(gamma_ref, 1 / (2 * c_ref))
        p_ref = 2 / lam_ref
        assert c.gamma == pytest.approx(float(gamma_ref), rel=1e-12)
        assert c.c_bound == pytest.approx(float(c_ref), rel=1e-12)
        assert c.lam == pytest.approx(float(lam_ref), rel=1e-12)
        assert c.p_ell == pytest.approx(float(p_ref), rel=1e-12)
        # printed reference digits
        assert c.gamma == pytest.approx(0.405465, abs=1e-6)
        assert c.c_bound == pytest.approx(85.16, abs=0.005)
        assert c.lam == pytest.approx(5.872e-3, abs=1e-6)
        assert c.p_ell == pytest.approx(340.6, abs=0.05)

    def test_lambda_capped_by_gamma(self):
        # large eps pushes eps/(2 c_bound) beyond gamma
        c = dl.derive_constants(eps=100.0, delta=1.0, r=1.0, ell=10.0)
        assert c.lam == pytest.approx(c.gamma, rel=1e-15)

    def test_invariants(self):
        c = dl.derive_constants(eps=0.2, delta=1.0, r=2.0, ell=30.0)
        assert 0 < c.lam <= c.gamma
        assert c.p_ell == pytest.approx(2.0 / (c.lam * 0.2), rel=1e-15)
        assert c.d_bound == pytest.approx(2.0 * 7.0, rel=1e-15)
        assert c.d_bound >= c.r

    def test_lambda_monotone_in_r_and_eps(self):
        lams_r = [dl.derive_constants(1.0, 1.0, r, 10.0).lam for r in (1.0, 1.5, 2.0, 4.0, 8.0)]
        assert lams_r == sorted(lams_r, reverse=True)
        lams_eps = [dl.derive_constants(eps, 1.0, 2.0, 10.0).lam for eps in (0.05, 0.1, 0.5, 1.0, 5.0)]
        assert lams_eps == sorted(lams_eps)

    def test_horizon_monotone_in_ell(self):
        log_horizons = [dl.derive_constants(1.0, 1.0, 2.0, ell).log2_horizon for ell in (10, 100, 1000, 10_000, 100_000)]
        assert log_horizons == sorted(log_horizons)

    def test_escape_bound_equals_target_at_certified_horizon(self):
        for ell in (10.0, 1e4, 1e5):
            c = dl.derive_constants(0.2, 1.0, 2.0, ell, prob_target=0.3)
            if math.isfinite(c.horizon) and c.horizon > 0:
                assert c.escape_bound == pytest.approx(0.3, rel=1e-9)

    def test_huge_ell_stays_in_log_space(self):
        c = dl.derive_constants(1.0, 1.0, 2.0, ell=1e7)
        assert math.isinf(c.horizon)
        assert math.isfinite(c.log2_horizon)
        assert c.c_star == pytest.approx(c.log2_horizon * 2.0 / 1e7, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            dl.derive_constants(0.0, 1.0, 2.0, 10.0)
        with pytest.raises(ValueError):
            dl.derive_constants(1.0, 1.0, 0.5, 10.0)
        with pytest.raises(ValueError):
            dl.derive_constants(1.0, 1.0, 2.0, 10.0, prob_target=1.0)

    @pytest.mark.parametrize("eps,delta,r", [(1.0, 1e308, 2.0), (1.0, 1e-320, 2.0), (1.0, 1.0, 1e308), (1e-320, 1.0, 2.0)])
    def test_inputs_at_the_edges_of_the_double_range_are_refused(self, eps, delta, r):
        # D̄ overflows to inf or γ² underflows, so λ·ε reaches 0 and p_ell would divide by it
        with pytest.raises(ValueError, match=r"eps=.*delta=.*r="):
            dl.derive_constants(eps, delta, r, 10.0)

    def test_derivation_trace_covers_all_symbols(self):
        c = dl.derive_constants(1.0, 1.0, 2.0, 50.0)
        symbols = [row[0] for row in c.derivation_trace()]
        for expected in ("gamma", "c_bound", "lambda", "p_ell", "d_bound", "horizon", "c_star", "escape_bound"):
            assert expected in symbols


class TestHajekEscapeBound:
    def test_zero_horizon(self):
        assert dl.hajek_escape_bound(0.1, 10.0, 0.0, 14.0, 340.0) == 0.0

    def test_negligible_decay_reduces_to_product(self):
        val = dl.hajek_escape_bound(1e-300, 1.0, 2.0, 3.0, 4.0)
        assert val == pytest.approx(min(1.0, 2.0 * 3.0 * 4.0), rel=1e-12) if 2.0 * 3.0 * 4.0 < 1 else val == 1.0

    def test_log_space_matches_direct_evaluation(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            lam = rng.uniform(1e-4, 0.5)
            ell = rng.uniform(1.0, 500.0)
            horizon = rng.uniform(1.0, 1e6)
            d_bound = rng.uniform(1.0, 50.0)
            p_ell = rng.uniform(1.0, 1e4)
            direct = math.exp(-lam * ell) * horizon * d_bound * p_ell
            if direct == 0.0 or math.isinf(direct):
                continue
            mine = dl.hajek_escape_bound(lam, ell, horizon, d_bound, p_ell)
            assert mine == pytest.approx(min(1.0, direct), rel=1e-10)

    def test_reference_log_space_value(self):
        # lambda ~ 5.872e-3, ell = 1e4, L = 1e6, D = 14, p = 340.63
        c = dl.derive_constants(1.0, 1.0, 2.0, 1e4)
        val = dl.hajek_escape_bound(c.lam, 1e4, 1e6, c.d_bound, c.p_ell)
        ref = mp.e ** (-mp.mpf(c.lam) * 10_000 + mp.log(1e6) + mp.log(mp.mpf(c.d_bound) * mp.mpf(c.p_ell)))
        assert val == pytest.approx(float(ref), rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            dl.hajek_escape_bound(0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            dl.hajek_escape_bound(0.1, 1.0, -1.0, 1.0, 1.0)


class TestMgfBoundCheck:
    #: a window on which the walk and the counterexample chain at n = 10 have their one law
    WINDOW = dl.DriftWindow(0.0, 10.0)

    def test_point_mass_at_zero(self):
        table = dl.LawTable.law(np.array([0.0]), np.array([1.0]))
        link = dl.mgf_bound_check(table, delta=1.0, r=2.0)
        assert isinstance(link, dl.InequalityResult)
        assert link.name == "mgf-vs-moment-bound"
        assert link.parameters == {"delta": 1.0, "r": 2.0, "gamma": math.log1p(0.5)}
        assert link.lhs == pytest.approx(1.0, rel=1e-14)
        assert link.holds

    def test_geometric_walk_exact_value(self):
        # closed form: E(e^{gamma |step|}) = 2 + delta at gamma = ln(1 + delta/2)
        for delta in (0.5, 1.0):
            walk = dl.GeometricDriftWalk(0.1, delta)
            link = dl.mgf_bound_check(walk.law_table(self.WINDOW), delta=delta, r=1.0 + delta)
            assert link.lhs == pytest.approx(2.0 + delta, rel=1e-10)
            assert link.rhs == pytest.approx((1 + delta) * (4 + delta + 2 / delta), rel=1e-12)
            assert link.parameters["gamma"] == pytest.approx(math.log1p(delta / 2), rel=1e-15)
            assert link.margin == link.rhs - link.lhs
            assert link.holds

    def test_geometric_walk_below_fourteen(self):
        walk = dl.GeometricDriftWalk(0.2, 1.0)
        link = dl.mgf_bound_check(walk.law_table(self.WINDOW), delta=1.0, r=2.0)
        assert link.lhs <= 14.0
        assert link.holds

    def test_rejects_condition_failures(self):
        table = dl.CounterexampleChain(10).law_table(self.WINDOW)
        with pytest.raises(ValueError, match="not asserted"):
            dl.mgf_bound_check(table, delta=1.0, r=2.0)

    def test_rejects_a_table_of_two_laws(self):
        laws = [dl.LawTable.law([0.0], [1.0], x) for x in (1.0, 2.0)]
        with pytest.raises(ValueError, match="one-row table of one law, got 2 rows"):
            dl.mgf_bound_check(dl.LawTable.stack(laws), delta=1.0, r=2.0)
