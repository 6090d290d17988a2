import csv
import io

import pytest
from hypothesis import example, given, strategies as st

import driftlab as dl
from driftlab.cli import _bounds_slab
from driftlab.inequalities import SWEEPS, InequalityResult, SweepGrid, slab_count
from driftlab.conditions import ConditionParams, ConditionReport, TailCheck
from driftlab.reporting import FAIL_LINES, condition_summary, format_cell, format_links, format_rows, format_trials, write_csv


def csv_module_text(rows) -> str:
    """The reference: csv.writer over format_cell, as CSVs were written before format_rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([format_cell(value) for value in row])
    return out.getvalue()


texts = st.one_of(st.text(alphabet=",\"\r\n ab;=", max_size=6), st.text(max_size=4))
floats = st.one_of(
    st.floats(),
    st.integers(-(10**17), 10**17).map(float),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"),
                     1e15 - 1, 1e15, 1e15 + 1, -1e15 + 1, -1e15, -1e15 - 1]),
)
cells = st.one_of(texts, st.integers(), st.booleans(), st.none(), floats)


@given(st.lists(st.lists(cells, max_size=6), max_size=12))
@example([[""]])
@example([[None], [], ["", ""], [","], ['"'], ["\r"], ["\n"]])
# equal floats share one text: 0.0 and -0.0 both print as 0, and nan never equals itself
@example([[0.0, -0.0, float("nan"), float("nan"), 1.0, True, 1], [-0.0, 1.0, 0.5, 0.5]])
def test_format_rows_equals_csv_writer_over_format_cell(rows):
    assert format_rows(rows) == csv_module_text(rows)


def link_rows(results) -> list[tuple]:
    """The rows of inequality links as bounds wrote them before format_links."""
    return [
        (r.name, ";".join(f"{k}={format_cell(v)}" for k, v in r.parameters.items()), r.lhs, r.rhs, r.margin, r.holds)
        for r in results
    ]


def one_line_per_row(results) -> list[str]:
    return [csv_module_text([row]) for row in link_rows(results)]


@pytest.mark.parametrize("suite", sorted(SWEEPS))
def test_bounds_slab_lines_equal_csv_writer_over_link_rows(suite):
    grid = SweepGrid(n_max=40, m_max=14, mu_max=3, phi_max=4, lambda_max=9, j_max=9)
    for slab in range(slab_count(suite, grid)):
        results = list(SWEEPS[suite](grid, slab=slab))
        failures = sum(not r.holds for r in results)
        assert _bounds_slab((suite, grid, slab, True)) == (one_line_per_row(results), len(results), failures)
        # without an output file the links are counted, not formatted
        assert _bounds_slab((suite, grid, slab, False)) == ([], len(results), failures)


names = st.one_of(st.sampled_from(["matching-sum-vs-largest-term", ""]), texts)
links = st.builds(
    InequalityResult,
    names,
    st.dictionaries(st.sampled_from(["n", "j", "a,b", 'q"']), cells, max_size=3),
    floats,
    floats,
    st.booleans(),
)


@given(st.lists(links, max_size=8))
@example([InequalityResult("a,b", {"n": 1}, 1.0, 0.5, False), InequalityResult("c", {"x": '"'}, 0.0, -0.0, True)])
@example([InequalityResult("a", {"n": 2, "flag": True}, 0.5, 1.0, True), InequalityResult("a", {"n": False}, 0.5, 1.0, True)])
@example([InequalityResult("a", {"x": 0.25, "y": 3.0, "z": float("nan")}, 1e-300, 1e300, True)])
@example([InequalityResult("a", {"n": 1}, 1.0, 2.0, True), InequalityResult("a", {"s": "p,q"}, 1.0, 2.0, True)])
@example([InequalityResult("a", {"n": 1}, 1.0, 2.0, True), InequalityResult('say "hi"', {"n": 1}, 1.0, 2.0, True)])
@example([InequalityResult("a", {}, 1.0, 2.0, True), InequalityResult("", {}, 0.0, 0.0, False)])
def test_format_links_equals_csv_writer_over_link_rows(results):
    # a name or parameter with a comma, a quote or a line break falls back to
    # csv.writer; a bool parameter prints as true/false, and float and bool
    # cells never need quotes
    assert format_links(results) == one_line_per_row(results)


def test_format_trials_equals_format_rows_over_outcome_rows():
    # the chain at n = 2 hits 0 or jumps away and misses, and the walk starts
    # at a fractional potential
    chain, walk = dl.CounterexampleChain(2), dl.GeometricDriftWalk(0.2, 1.0, start=2.5)
    runs = [
        dl.run_trials(chain, dl.DriftWindow(0.0, 2.0), 60, 5, 1),
        dl.run_trials(walk, dl.DriftWindow(0.0, 2.5), 60, 30, 1),
    ]
    assert {o.hit_time for o in runs[0]} == {2, None}
    assert None in {o.hit_time for o in runs[1]} and max(o.hit_time or 0 for o in runs[1]) >= 10
    for outcomes in runs:
        rows = [(o.index, o.hit_time, o.truncated, o.start_potential) for o in outcomes]
        assert "".join(format_trials(outcomes)) == format_rows(rows) == csv_module_text(rows)


def test_write_csv_writes_text_blocks_as_they_are(tmp_path):
    out = tmp_path / "mixed.csv"
    rows = [(1, 0.5), "block,1\nblock,2\n", (None, True), ("a,b", 2.0), "block,3\n"]
    write_csv(str(out), {"command": "test"}, ["x", "y"], iter(rows), trailer="# done")
    assert out.read_text() == (
        "# command=test\nx,y\n1,0.5\nblock,1\nblock,2\n,true\n\"a,b\",2\nblock,3\n# done\n"
    )


@pytest.mark.parametrize("failing", [0, FAIL_LINES - 1, FAIL_LINES, FAIL_LINES + 1, 1000])
def test_condition_summary_names_the_first_failures_and_counts_the_rest(failing):
    tails = tuple(TailCheck(float(j), 1.0 if j <= failing else 0.0, 0.5, "fail" if j <= failing else "pass")
                  for j in range(1, failing + 3))
    report = ConditionReport("two_sided", "exact", ConditionParams(1.0, 1.0, 2.0, failing + 2), 1.0, "pass", tails)
    lines = condition_summary(report).splitlines()
    named = [line for line in lines if line.startswith("    FAIL at j=")]
    assert named == [f"    FAIL at j={j}: tail 1 > bound 0.5" for j in range(1, min(failing, FAIL_LINES) + 1)]
    rest = [line for line in lines if line.startswith("    ... and ")]
    if failing > FAIL_LINES:
        assert rest == [f"    ... and {failing - FAIL_LINES} more failing indices, every one in the --out CSV"]
    else:
        assert rest == []
    assert lines[-1] == ("  overall: fail" if failing else "  overall: pass")
