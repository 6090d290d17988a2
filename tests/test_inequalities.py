import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import driftlab as dl
from helpers import diversity_fraction_links
from driftlab.inequalities import (
    E_HI,
    E_LO,
    EXACT_LIMIT,
    SWEEPS,
    InequalityResult,
    SweepGrid,
    _matching_sum_links,
    log_spaced_integers,
    matching_ratio_link,
    slab_count,
    sweep_comma_lambda,
    sweep_diversity,
    sweep_matching,
    sweep_mutation,
)

mp.mp.dps = 50


def test_certified_e_bounds_bracket_e():
    # the bracket is far tighter than double precision; compare at 50 digits
    e_ref = mp.e
    assert mp.mpf(E_LO.numerator) / E_LO.denominator < e_ref
    assert mp.mpf(E_HI.numerator) / E_HI.denominator > e_ref
    assert float(E_HI - E_LO) < 1e-30


class TestMutationChain:
    def test_example_n10_j3(self):
        links = dl.mutation_tail_chain(10, 3)
        assert len(links) == 2
        first, second = links
        assert first.lhs == pytest.approx(0.12, rel=1e-12)
        assert first.rhs == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert second.rhs == pytest.approx(0.25, rel=1e-12)
        assert first.holds and second.holds

    def test_boundary_equality_at_j_one(self):
        for n in (2, 10, 137):
            first, second = dl.mutation_tail_chain(n, 1)
            assert first.lhs == pytest.approx(first.rhs, rel=1e-12)
            assert second.lhs == pytest.approx(second.rhs, rel=1e-12)
            assert first.holds and second.holds

    def test_large_n_log_space(self):
        for link in dl.mutation_tail_chain(5000, 20):
            assert link.holds
        for link in dl.mutation_tail_chain(10_000, 1):
            assert link.holds

    def test_deep_factorials_underflow_but_verify_exactly(self):
        links = dl.mutation_tail_chain(200, 200)
        assert all(l.holds for l in links)

    def test_validation(self):
        with pytest.raises(ValueError):
            dl.mutation_tail_chain(10, 11)
        with pytest.raises(ValueError):
            dl.mutation_tail_chain(10, 0)
        with pytest.raises(ValueError):
            dl.mutation_tail_chain(10_001, 5)


class TestMatchingChain:
    def test_example_m10_h5_j3(self):
        links = dl.matching_jump_bound(10, 5, 3)
        sum_link, largest_link, ratio_link = links
        # sum_{i=3}^{7} 10^-i
        expected_sum = sum(10.0**-i for i in range(3, 8))
        assert sum_link.lhs == pytest.approx(expected_sum, rel=1e-12)
        assert sum_link.rhs == pytest.approx(10.0 * 0.1**3, rel=1e-12)
        assert largest_link.rhs == pytest.approx(10.0**-2, rel=1e-12)
        # 2h = m makes the simplification an equality
        assert largest_link.lhs == pytest.approx(largest_link.rhs, rel=1e-12)
        assert all(l.holds for l in links)

    def test_ratio_link_j_zero_trivial(self):
        link = matching_ratio_link(5, 0)
        assert link.lhs == 1.0
        assert link.rhs == 22.0
        assert link.holds

    def test_ratio_link_tightest_point(self):
        # e / 4 = 0.67957... <= 22/32 = 0.6875
        link = matching_ratio_link(2, 5)
        assert link.lhs == pytest.approx(math.e / 4.0, rel=1e-12)
        assert link.rhs == pytest.approx(0.6875, rel=1e-15)
        assert link.holds
        # locate the minimum relative margin over the sweep grid
        best = None
        for m in range(2, 101):
            for j in range(0, 65):
                lk = matching_ratio_link(m, j)
                rel_margin = (lk.rhs - lk.lhs) / lk.rhs
                if best is None or rel_margin < best[0] - 1e-15:
                    best = (rel_margin, m, j)
        rel, m, j = best
        assert (m, j) == (2, 5)
        assert rel == pytest.approx(1.0 - 8.0 * math.e / 22.0, rel=1e-9)

    def test_empty_summation_range(self):
        links = dl.matching_jump_bound(10, 5, 6)
        assert links[0].lhs == 0.0
        assert links[0].holds
        assert "empty" in links[0].note

    def test_rejects_2h_above_m(self):
        with pytest.raises(ValueError, match="2h"):
            dl.matching_jump_bound(10, 6, 3)

    def test_sharper_geometric_margin_reported(self):
        links = dl.matching_jump_bound(20, 4, 3)
        assert "sharper geometric bound" in links[0].note

    def test_sum_links_match_a_fraction_sum(self):
        # every m <= 40 at j <= 25, empty ranges included; m = 78..81 at j <= 2 reach
        # q^k >= 2^1000, where the left side is the geometric bound x^j / (1 - x)
        cases = [(m, range(26)) for m in range(2, 41)] + [(m, range(3)) for m in range(78, 82)]
        branches = {"empty": 0, "float": 0, "geometric": 0}
        for m, j_values in cases:
            q = m * m
            for h in range(1, m // 2 + 1):
                x = Fraction(2 * h, q)
                powers = [x**i for i in range(m + 1)]
                x_float = 2 * h / q
                links = _matching_sum_links(m, range(h, h + 1), j_values)
                assert len(links) == 2 * len(j_values)
                for j, sum_link, largest_link in zip(j_values, links[::2], links[1::2]):
                    total = sum(powers[j : m - j + 1], Fraction(0))
                    x_j = x_float**j
                    k = m - 2 * j
                    if k < 0:
                        branch, lhs = "empty", 0.0
                    else:
                        numerator = total * q**k / x**j
                        assert numerator.denominator == 1
                        if q**k < 2**1000:
                            branch, lhs = "float", x_j * float(numerator.numerator) / float(q**k)
                        else:
                            branch, lhs = "geometric", x_j / (1 - x_float)
                    branches[branch] += 1
                    assert sum_link.lhs.hex() == lhs.hex()
                    assert sum_link.rhs.hex() == (m * x_j).hex()
                    assert sum_link.holds is (total <= m * x**j)
                    assert largest_link.lhs == sum_link.rhs
                    assert largest_link.rhs == pytest.approx(float(Fraction(m) ** (1 - j)), rel=1e-15)
                    assert largest_link.holds is (m * x**j <= Fraction(m) ** (1 - j))
        assert all(branches.values()), branches

    def test_ratio_link_matches_the_fraction_form(self):
        # 22/2^j underflows to 0 near j = 1080; j runs past it
        for m in range(2, 61):
            for j in range(1101):
                lhs = min(Fraction(1), E_HI * Fraction(m) ** (3 - j))
                rhs = Fraction(22, 2**j)
                link = matching_ratio_link(m, j)
                assert (link.lhs.hex(), link.rhs.hex(), link.holds) == (float(lhs).hex(), float(rhs).hex(), lhs <= rhs)
        assert matching_ratio_link(2, 1100).rhs == 0.0 and matching_ratio_link(2, 1100).holds


class TestDiversityChain:
    def test_single_term_phi_zero(self):
        links = dl.diversity_bound(3, 0, 4)
        finite, infinite, reindex = links
        assert finite.lhs == pytest.approx(1.0 / (3 * math.factorial(4)), rel=1e-12)
        assert reindex.lhs == reindex.rhs
        assert all(l.holds for l in links)

    def test_example_mu5_phi3_j2(self):
        links = dl.diversity_bound(5, 3, 2)
        finite = links[0]
        expected = (Fraction(1, 2) + Fraction(1, 6) + Fraction(1, 24) + Fraction(1, 120)) / 5
        assert finite.lhs == pytest.approx(float(expected), rel=1e-12)
        # series identity oracle: sum_{k>=0} 1/(k+2)! = e - 2
        series_value = float((mp.e - 2) / 5)
        assert finite.lhs <= series_value
        assert finite.rhs == pytest.approx(series_value, rel=1e-6)
        assert all(l.holds for l in links)

    def test_reindexing_identity_exhaustive(self):
        for phi in range(0, 51):
            for j in range(1, 21):
                links = dl.diversity_bound(1, phi, j)
                assert links[2].holds
                assert links[2].lhs == links[2].rhs

    def test_sides_are_the_rounded_exact_rationals(self):
        # each side is float(exact sum / mu), rounded once from the exact rational
        for mu, phi, j in [(1, 0, 1), (3, 7, 5), (7, 12, 20), (20, 50, 9)]:
            finite = sum(Fraction(1, math.factorial(k + j)) for k in range(phi + 1))
            first, _, reindex = dl.diversity_bound(mu, phi, j)
            assert first.lhs == float(finite / mu)
            assert reindex.lhs == reindex.rhs == float(finite / mu)

    def test_links_equal_the_fraction_formulation(self):
        # every phi <= 50 and j <= 20 of the sweep: each side is float(exact side / mu)
        for phi in range(51):
            for j in range(1, 21):
                reference = diversity_fraction_links(phi, j)
                for mu in (1, 2, 3, 7, 20):
                    links = dl.diversity_bound(mu, phi, j)
                    assert [(l.name, l.lhs.hex(), l.rhs.hex(), l.holds, l.note) for l in links] == [
                        (name, float(lhs / mu).hex(), float(rhs / mu).hex(), holds, note)
                        for name, lhs, rhs, holds, note in reference
                    ]
                    assert all(l.parameters == {"mu": mu, "phi": phi, "j": j} for l in links)

    def test_validation(self):
        with pytest.raises(ValueError):
            dl.diversity_bound(0, 3, 2)
        with pytest.raises(ValueError):
            dl.diversity_bound(3, -1, 2)
        with pytest.raises(ValueError):
            dl.diversity_bound(3, 3, 0)


class TestCommaLambdaChain:
    def test_self_loop_premise_tightest_at_n_two(self):
        links = dl.comma_lambda_bounds(2, 1, 0)
        premise = next(l for l in links if l.name == "comma-lambda-self-loop-premise")
        assert premise.rhs == pytest.approx(0.25, rel=1e-12)  # (1 - 1/2)^2
        assert premise.lhs == pytest.approx(1.0 / (2.0 * math.e), rel=1e-12)
        assert premise.holds

    def test_trivial_lambda_one_j_zero(self):
        links = dl.comma_lambda_bounds(10, 1, 0)
        assert all(l.holds for l in links)

    def test_full_chain_n100_lambda7_j5(self):
        links = dl.comma_lambda_bounds(100, 7, 5)
        assert len(links) == 5
        assert all(l.holds for l in links)

    def test_large_n_float_branch(self):
        links = dl.comma_lambda_bounds(10_000, 64, 64)
        assert all(l.holds for l in links)

    def test_validation(self):
        with pytest.raises(ValueError):
            dl.comma_lambda_bounds(1, 1, 0)
        with pytest.raises(ValueError):
            dl.comma_lambda_bounds(10, 0, 0)
        with pytest.raises(ValueError):
            dl.comma_lambda_bounds(10, 1, 11)


def link_bits(links):
    """Links with their float sides as hex, so that every bit and the sign of zero compare."""
    return [(l.name, l.parameters, l.lhs.hex(), l.rhs.hex(), l.holds, l.note) for l in links]


def premise_ok(links):
    return not any(link.note.startswith("premise-fail") for link in links)


class TestExpectedSelections:
    def test_uniform_fitnesses(self):
        links = dl.pea_prime_expected_selections([2.0, 2.0, 2.0])
        assert [l.name for l in links] == ["pea-prime-expected-selections"] * 3 + ["selection-count-conservation"]
        assert [l.parameters for l in links] == [{"mu": 3, "i": 1}, {"mu": 3, "i": 2}, {"mu": 3, "i": 3}, {"mu": 3}]
        assert [l.lhs for l in links[:-1]] == pytest.approx([1.0, 1.0, 1.0])
        assert all(l.rhs == 2.0 for l in links[:-1])
        assert premise_ok(links)
        assert links[-1].holds and (links[-1].lhs, links[-1].rhs) == (3.0, 3.0)
        assert links[-1].note == "exact rational equality"
        assert all(l.holds for l in links)

    def test_worked_example_mu2(self):
        links = dl.pea_prime_expected_selections([1.2, 0.8])
        assert links[0].lhs == pytest.approx(1.1, rel=1e-12)
        assert links[1].lhs == pytest.approx(0.9, rel=1e-12)
        assert links[-1].holds

    def test_premise_failure_is_distinct(self):
        links = dl.pea_prime_expected_selections([10.0, 1.0, 1.0])
        assert not premise_ok(links)
        # every per-individual link carries the note, and it names the failing share
        assert all(l.note.startswith("premise-fail: f_1/f_tot = ") for l in links[:-1])
        assert all("> 2/mu" in l.note for l in links[:-1])
        # E(S_1) = 1 + 2 * 10/12 - 2/3 = 2: the link holds; only its note marks the failed premise
        assert links[0].lhs == 2.0 and links[0].holds
        # conservation holds regardless of the premises
        assert links[-1].holds and not links[-1].note.startswith("premise-fail")

    @given(
        st.integers(min_value=2, max_value=10),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150)
    def test_bounds_hold_under_premises(self, mu, rnd):
        # values in [1/2, 1] guarantee every share is at most 2/mu
        values = sorted((0.5 + 0.5 * rnd.random() for _ in range(mu)), reverse=True)
        links = dl.pea_prime_expected_selections(values)
        assert len(links) == mu + 1
        assert premise_ok(links)
        assert links[-1].holds
        assert all(l.lhs <= 2.0 + 1e-12 and l.holds for l in links[:-1])

    def test_validation(self):
        with pytest.raises(ValueError):
            dl.pea_prime_expected_selections([1.0])
        with pytest.raises(ValueError):
            dl.pea_prime_expected_selections([1.0, 2.0])
        with pytest.raises(ValueError):
            dl.pea_prime_expected_selections([1.0, 0.0])


class TestInequalityResult:
    def test_is_a_named_tuple_record(self):
        link = dl.InequalityResult("a", {"n": 2}, 1.0, 2.0, True)
        assert link._fields == ("name", "parameters", "lhs", "rhs", "holds", "note")
        assert link.note == "" and link.margin == 1.0
        assert link == dl.InequalityResult("a", {"n": 2}, 1.0, 2.0, True, "")
        assert link != dl.InequalityResult("a", {"n": 2}, 1.0, 2.0, True, "other")
        assert link == ("a", {"n": 2}, 1.0, 2.0, True, "")
        assert repr(link) == "InequalityResult(name='a', parameters={'n': 2}, lhs=1.0, rhs=2.0, holds=True, note='')"
        changed = link._replace(rhs=0.5, holds=False)
        assert changed == dl.InequalityResult("a", {"n": 2}, 1.0, 0.5, False) and link.rhs == 2.0
        with pytest.raises(AttributeError):
            link.lhs = 3.0
        with pytest.raises(AttributeError):
            del link.note
        assert dl.InequalityResult(name="b", parameters={}, lhs=0.0, rhs=0.0, holds=True, note="x").note == "x"


#: the bench's smoke grid: every sweep checks thousands of links on it
SMOKE_GRID = SweepGrid(n_max=30, m_max=30, mu_max=5, phi_max=10, lambda_max=8, j_max=16)
#: each single-point chain function at a few points, both of its arithmetic branches included
CHAIN_CALLS = [
    *((dl.mutation_tail_chain, args) for args in [(1, 1), (10, 3), (EXACT_LIMIT + 1, 5)]),
    *((dl.matching_jump_bound, args) for args in [(2, 1, 0), (10, 5, 3), (10, 2, 6), (300, 10, 2)]),
    *((matching_ratio_link, args) for args in [(2, 0), (2, 3), (7, 9)]),
    *((dl.diversity_bound, args) for args in [(1, 0, 1), (5, 3, 2), (3, 40, 7)]),
    *((dl.comma_lambda_bounds, args) for args in [(2, 1, 0), (100, 7, 5), (EXACT_LIMIT + 1, 3, 2)]),
    (dl.pea_prime_expected_selections, ([3.0, 2.0, 1.0],)),
]


def assert_well_formed(links):
    """Each link is an InequalityResult of six fields, equal to the one its own
    constructor builds, with float sides, a bool verdict and str texts, as the
    CSV formatting reads them."""
    assert links
    for link in links:
        assert type(link) is InequalityResult and len(link) == 6, link
        assert link == InequalityResult(*link)
        name, parameters, lhs, rhs, holds, note = link
        assert (type(name), type(parameters), type(lhs), type(rhs), type(holds), type(note)) == (
            str, dict, float, float, bool, str), link


class TestLinkRecords:
    @pytest.mark.parametrize("suite", sorted(SWEEPS))
    def test_every_sweep_builds_well_formed_links(self, suite):
        assert_well_formed(list(SWEEPS[suite](SMOKE_GRID)))

    @pytest.mark.parametrize("chain, args", CHAIN_CALLS)
    def test_every_chain_function_builds_well_formed_links(self, chain, args):
        links = chain(*args)
        assert_well_formed(links if isinstance(links, list) else [links])


class TestSweeps:
    def test_mutation_sweep_small(self):
        results = list(sweep_mutation(SweepGrid(n_max=40)))
        assert results and all(r.holds for r in results)

    def test_matching_sweep_small(self):
        results = list(sweep_matching(SweepGrid(m_max=24, j_max=16)))
        assert results and all(r.holds for r in results)

    def test_diversity_sweep_small(self):
        results = list(sweep_diversity(SweepGrid(mu_max=4, phi_max=10, j_max=6)))
        assert results and all(r.holds for r in results)

    def test_diversity_sweep_caps_tail_index_at_twenty(self):
        results = list(sweep_diversity(SweepGrid(mu_max=1, phi_max=0, j_max=64)))
        assert len(results) == 3 * 20
        assert max(r.parameters["j"] for r in results) == 20

    def test_comma_lambda_sweep_small(self):
        results = list(sweep_comma_lambda(SweepGrid(n_max=128, lambda_max=8, j_max=16)))
        assert results and all(r.holds for r in results)

    @pytest.mark.parametrize("suite", sorted(SWEEPS))
    def test_sweep_is_its_slabs_in_order(self, suite):
        grid = SweepGrid(n_max=37, m_max=12, mu_max=3, phi_max=4, lambda_max=9, j_max=7)
        whole = list(SWEEPS[suite](grid))
        count = slab_count(suite, grid)
        slabs = [link for k in range(count) for link in SWEEPS[suite](grid, slab=k)]
        assert count > 1 and whole and slabs == whole
        assert list(SWEEPS[suite](grid, slab=count)) == []

    def test_sweeps_equal_their_chain_functions(self):
        grid = SweepGrid(n_max=12, m_max=11, mu_max=3, phi_max=4, j_max=7)
        matching = []
        for m in range(2, grid.m_max + 1):
            matching += [matching_ratio_link(m, j) for j in range(grid.j_max + 1)]
            for h in range(1, m // 2 + 1):
                for j in range(grid.j_max + 1):
                    matching += dl.matching_jump_bound(m, h, j)[:2]
        assert link_bits(sweep_matching(grid)) == link_bits(matching)
        diversity = [
            link
            for phi in range(grid.phi_max + 1)
            for j in range(1, grid.j_max + 1)
            for mu in range(1, grid.mu_max + 1)
            for link in dl.diversity_bound(mu, phi, j)
        ]
        assert link_bits(sweep_diversity(grid)) == link_bits(diversity)
        mutation = [
            link for n in range(1, grid.n_max + 1) for j in range(1, n + 1) for link in dl.mutation_tail_chain(n, j)
        ]
        assert link_bits(sweep_mutation(grid)) == link_bits(mutation)
        # the largest n is above EXACT_LIMIT, where the links are decided in log-gamma floats
        wide = SweepGrid(n_max=1200, lambda_max=3, j_max=5)
        ns = log_spaced_integers(2, wide.n_max)
        assert ns[-2] <= EXACT_LIMIT < ns[-1]
        comma_lambda = [
            link
            for n in ns
            for lam in log_spaced_integers(1, wide.lambda_max)
            for j in range(min(wide.j_max, n) + 1)
            for link in dl.comma_lambda_bounds(n, lam, j)
        ]
        assert link_bits(sweep_comma_lambda(wide)) == link_bits(comma_lambda)
        assert {link.note for link in comma_lambda} >= {"exact integer comparison", "log-gamma comparison"}

    def test_empty_ranges_yield_nothing(self):
        assert list(sweep_mutation(SweepGrid(n_max=0))) == []
        assert list(sweep_diversity(SweepGrid(mu_max=0))) == []

    def test_log_spaced_integers_cover_endpoints(self):
        grid = log_spaced_integers(2, 10_000)
        assert grid[0] == 2 and grid[-1] == 10_000
        assert all(a < b for a, b in zip(grid, grid[1:]))
