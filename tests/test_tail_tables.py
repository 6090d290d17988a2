"""The exact check's tail tables against independent references.

`check_conditions_exact` reads every tail from one `LawTable` of all the
checked states. Here it is compared with `reference_exact_check`, one masked
sum per (state, index) in a Python loop, and bit for bit with
`per_law_exact_check`, each law's own tail table; and each law's tail with the
exact rational sum of the law's float probabilities.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftlab as dl
from driftlab.conditions import ONE_SIDED, TWO_SIDED, step_laws
from driftlab.presets import PRESETS
from helpers import per_law_exact_check, reference_exact_check


def assert_same_report(report, ref):
    """Equal verdicts, drift and binding cell; margins within 1e-12 and each
    tail within 4 ulps, since the table sums its terms in another order."""
    assert report.overall() == ref.overall()
    assert (report.drift, report.drift_verdict, report.drift_state) == (ref.drift, ref.drift_verdict, ref.drift_state)
    assert (report.tail_state, report.tail_j) == (ref.tail_state, ref.tail_j)
    if ref.tail_log_margin is None:
        assert report.tail_log_margin is None
    else:
        assert report.tail_log_margin == pytest.approx(ref.tail_log_margin, rel=0, abs=1e-12)
    assert [(t.j, t.bound, t.verdict) for t in report.tails] == [(t.j, t.bound, t.verdict) for t in ref.tails]
    for got, want in zip(report.tails, ref.tails):
        assert abs(got.tail - want.tail) <= 4 * np.spacing(max(got.tail, want.tail)), got.j


def bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.int64).tolist()


def assert_bit_equal_reports(got, want):
    """Equal verdicts, states and indices, and every float with the same bits."""
    assert (got.drift_verdict, got.drift_state, got.tail_state, got.tail_j) == (
        want.drift_verdict, want.drift_state, want.tail_state, want.tail_j)
    assert bits([got.drift]) == bits([want.drift])
    assert (got.tail_log_margin is None) == (want.tail_log_margin is None)
    if want.tail_log_margin is not None:
        assert bits([got.tail_log_margin]) == bits([want.tail_log_margin])
    assert [(t.j, t.bound, t.verdict) for t in got.tails] == [(t.j, t.bound, t.verdict) for t in want.tails]
    assert bits([t.tail for t in got.tails]) == bits([t.tail for t in want.tails])


def checked_both_ways(laws, params, variant, window):
    """The check's report and the reference's; the report must also be the one
    that each law on its own gives, bit for bit."""
    laws = laws if isinstance(laws, dl.JumpDistribution) else list(laws)
    report = dl.check_conditions_exact(laws, params, variant, window)
    assert_bit_equal_reports(report, per_law_exact_check(laws, params, variant, window))
    return report, reference_exact_check(laws, params, variant, window)


EXACT_PRESETS = [
    name for name, config in PRESETS.items()
    if config.command == "check" and step_laws(config.process(), config.window()) is not None
]


@pytest.mark.parametrize("name", EXACT_PRESETS)
def test_every_exact_check_preset_equals_the_reference(name):
    config = PRESETS[name]
    window = config.window()
    laws = step_laws(config.process(), window)
    assert_same_report(*checked_both_ways(laws, config.condition_params(), config.variant, window))


@pytest.mark.parametrize("name", [name for name, config in PRESETS.items() if config.command == "scaling"])
@pytest.mark.parametrize("variant", [TWO_SIDED, ONE_SIDED])
def test_every_scaling_family_member_equals_the_reference(name, variant):
    config = PRESETS[name]
    for ell in config.ell_values:
        process, window = config.family_member(ell)
        assert_same_report(*checked_both_ways(step_laws(process, window), config.condition_params(), variant, window))


def test_the_needle_at_n_1000_equals_the_reference():
    # 825 laws (d = 176..1000), and every distinct |step| up to the laws' reach is an index
    window = dl.DriftWindow(175.0, 375.0)
    laws = list(step_laws(dl.NeedleOneOneEA(1000), window))
    params = dl.ConditionParams(eps=0.25, delta=1.0, r=2.0)
    report, ref = checked_both_ways(laws, params, TWO_SIDED, window)
    assert len(laws) == 825 and len(report.tails) > params.j_max + 1
    assert report.overall() == ref.overall() == "pass"
    assert (report.tail_state, report.tail_j) == (ref.tail_state, ref.tail_j)
    assert report.tail_log_margin == pytest.approx(ref.tail_log_margin, rel=0, abs=1e-12)


# magnitudes above every drawn j_max, float steps and integer steps
STEPS = st.one_of(
    st.integers(-12, 12).map(float),
    st.floats(-30.0, 30.0, allow_nan=False, allow_subnormal=False),
    st.sampled_from([-4096.5, -700.0, 65.0, 1e4]),
)
WEIGHTS = st.one_of(st.floats(1e-3, 1.0), st.sampled_from([1e-300, 1e-17, 0.5]))


@st.composite
def step_law(draw):
    values = sorted(draw(st.lists(STEPS, min_size=1, max_size=6, unique=True)))
    weights = draw(st.lists(WEIGHTS, min_size=len(values), max_size=len(values)))
    # zero-probability extremes: the support, the reach and the indices ignore them
    if len(values) > 2 and draw(st.booleans()):
        weights[0] = 0.0
    if len(values) > 2 and draw(st.booleans()):
        weights[-1] = 0.0
    total = math.fsum(weights)
    return dl.JumpDistribution(np.array(values), np.array([w / total for w in weights]))


@st.composite
def per_state_laws(draw):
    laws = draw(st.lists(step_law(), min_size=1, max_size=3))
    # repeated states and repeated laws make ties, which go to the first j, then the first state
    picks = draw(st.lists(st.tuples(st.sampled_from([11.0, 12.0, 15.5, 16.0, 40.0]), st.integers(0, len(laws) - 1)),
                          min_size=1, max_size=6))
    return [(11.0, laws[0]), *((x, laws[i]) for x, i in picks)]


PARAMS = st.builds(
    dl.ConditionParams,
    eps=st.sampled_from([0.1, 0.25, 1.0]),
    delta=st.sampled_from([0.5, 1.0, 2.0]),
    r=st.sampled_from([1.0, 2.0, 5.0]),
    j_max=st.sampled_from([1, 4, 8, 64]),
)


@settings(max_examples=300, deadline=None)
@given(pairs=per_state_laws(), params=PARAMS, variant=st.sampled_from([TWO_SIDED, ONE_SIDED]))
def test_drawn_per_state_laws_equal_the_reference(pairs, params, variant):
    assert_same_report(*checked_both_ways(pairs, params, variant, dl.DriftWindow(10.0, 16.0)))


@settings(max_examples=100, deadline=None)
@given(law=step_law(), params=PARAMS, variant=st.sampled_from([TWO_SIDED, ONE_SIDED]))
def test_a_drawn_single_law_equals_the_reference(law, params, variant):
    assert_same_report(*checked_both_ways(law, params, variant, None))


def small_laws():
    for n in range(2, 13):
        needle = dl.NeedleOneOneEA(n)
        yield from (needle.step_law(d) for d in needle.states())
        for lam in (1, 2, 5):
            comma = dl.OneCommaLambdaEA(n, lam)
            yield from (comma.step_law(d) for d in comma.states())
    yield dl.GeometricDriftWalk(0.2, 1.0).step_law(None)
    yield dl.CounterexampleChain(10).step_law(None)


@pytest.mark.parametrize("one_sided", [False, True])
def test_every_table_tail_is_within_k_minus_1_roundoffs_of_the_exact_sum(one_sided):
    # recursive summation of k non-negative floats errs by at most (k-1) 2^-53
    # of their exact sum (Jeannerod and Rump, 2013)
    unit = Fraction(1, 2**53)
    for law in small_laws():
        positive = law.probs > 0
        magnitudes = -law.values[positive] if one_sided else np.abs(law.values[positive])
        terms = [Fraction(p) for p in law.probs[positive].tolist()]
        js = np.array(sorted(set(magnitudes.tolist())))
        if not one_sided:
            # a two-sided tail at j <= 0 is 1.0 by definition, not a sum
            assert law.tails(np.array([-1.5, 0.0]), one_sided).tolist() == [1.0, 1.0]
            js = js[js > 0]
        for j, tail in zip(js.tolist(), law.tails(js, one_sided).tolist()):
            included = [t for t, m in zip(terms, magnitudes.tolist()) if m >= j]
            exact = sum(included, Fraction(0))
            assert abs(Fraction(tail) - exact) <= (len(included) - 1) * unit * exact, (law.values, j)
        reach = float(magnitudes.max())
        assert law.tails(np.array([np.nextafter(reach, math.inf), reach + 1.0]), one_sided).tolist() == [0.0, 0.0]
