"""Law tables against each state's own law.

`step_laws` gives the needle and the (1,λ) EA one `LawTable` for all the
states it checks. Each row must be that state's `step_law` bit for bit, and a
check over the table must give the report that each law on its own gives
(`helpers.per_law_exact_check`), also bit for bit: zeros off a row's support
add +0.0 to its sums and nothing else. `reference_exact_check` stays the
independent oracle, within a few ulps. Single laws and drawn (x, law) pairs
are checked bit for bit in `test_tail_tables.py`.
"""

import numpy as np
import pytest

import driftlab as dl
from driftlab import processes
from driftlab.conditions import ONE_SIDED, TWO_SIDED
from driftlab.jumps import LawTable
from helpers import per_law_exact_check, reference_exact_check
from test_tail_tables import assert_bit_equal_reports, assert_same_report, bits

PROCESSES = [
    *(dl.NeedleOneOneEA(n) for n in (2, 3, 20, 50, 1000)),
    *(dl.OneCommaLambdaEA(50, lam) for lam in (1, 2, 8)),
]
IDS = [f"{p.name}-n{p.n}" + (f"-lambda{p.lambda_offspring}" if p.name == "one-comma-lambda" else "")
       for p in PROCESSES]


def windows(n):
    """Windows below 0 (state 0 in the table), in the middle, and at the top:
    a = n - 1 leaves the one state n, a = n none."""
    return [dl.DriftWindow(-1.0, n / 2), dl.DriftWindow(n / 4, 3 * n / 4), dl.DriftWindow(n - 1.0, n + 1.0)]


@pytest.mark.parametrize("process", PROCESSES, ids=IDS)
def test_every_row_is_its_states_step_law(process):
    table = dl.step_laws(process, dl.DriftWindow(-1.0, process.n))
    assert isinstance(table, LawTable) and table.states == tuple(float(d) for d in process.states())
    assert table.states[0] == 0.0 and np.array_equal(table.values, np.arange(table.values[0], table.values[-1] + 1))
    for row, (x, law) in enumerate(table):
        own = process.step_law(int(x))
        assert bits(law.values) == bits(own.values) and bits(law.probs) == bits(own.probs), x
        # off its own values a row holds exactly 0.0
        off = np.ones(table.values.size, dtype=bool)
        off[table.supports[row]] = False
        assert not table.probs[row, off].any(), x
        assert bits([table.drift(row)]) == bits([own.drift()]), x


@pytest.mark.parametrize("process", PROCESSES, ids=IDS)
@pytest.mark.parametrize("variant", [TWO_SIDED, ONE_SIDED])
def test_a_check_over_the_table_is_the_check_law_by_law(process, variant):
    params = dl.ConditionParams(eps=0.01, delta=1.0, r=2.0, j_max=8)
    for window in windows(process.n):
        table = dl.step_laws(process, window)
        own = [(float(d), process.step_law(d)) for d in process.states() if d > window.a]
        assert table.states == tuple(x for x, _ in own)
        report = dl.check_conditions_exact(table, params, variant, window)
        assert_bit_equal_reports(report, per_law_exact_check(own, params, variant, window))
        # pairs are stacked on the union of their values, which is the same grid
        assert_bit_equal_reports(dl.check_conditions_exact(own, params, variant, window), report)
        if process.n <= 50:
            assert_same_report(report, reference_exact_check(own, params, variant, window))


@pytest.mark.parametrize("process", [dl.NeedleOneOneEA(20), dl.OneCommaLambdaEA(20, 3)], ids=["needle", "comma"])
def test_windows_without_a_state_inside_are_refused(process):
    params = dl.ConditionParams(eps=0.01, delta=1.0, r=2.0)
    # a = n - 1 and b = n leave the state n above a but none inside; a = n leaves no state at all
    for window in (dl.DriftWindow(19.0, 20.0), dl.DriftWindow(20.0, 21.0)):
        table = dl.step_laws(process, window)
        assert len(table) == len(list(table)) == (1 if window.a < 20 else 0)
        with pytest.raises(ValueError, match="strictly inside"):
            dl.check_conditions_exact(table, params, TWO_SIDED, window)


def test_each_binomial_pmf_is_computed_once(monkeypatch):
    ks = []
    original = processes._binomial_pmf
    monkeypatch.setattr(processes, "_binomial_pmf", lambda k, p: ks.append(k) or original(k, p))
    # states 3..20 need Bin(d, p) for d = 3..20 and Bin(20 - d, p) for 20 - d = 0..17
    dl.step_laws(dl.NeedleOneOneEA(20), dl.DriftWindow(2.0, 5.0))
    assert sorted(ks) == list(range(21))
    ks.clear()
    dl.step_laws(dl.OneCommaLambdaEA(20, 4), dl.DriftWindow(-1.0, 5.0))
    assert sorted(ks) == list(range(21))


def test_one_law_is_a_one_row_table():
    law = dl.GeometricDriftWalk(0.2, 1.0).step_law(None)
    table = LawTable.stack([(None, law)])
    assert table.states == (None,) and table.values is law.values and table.probs.shape == (1, law.values.size)
