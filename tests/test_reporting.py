import csv
import io

from hypothesis import example, given, strategies as st

from driftlab.reporting import format_cell, format_rows


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
