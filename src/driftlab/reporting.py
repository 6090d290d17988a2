"""CSV emission with embedded provenance and plain-text summary blocks.

Every CSV starts with '# key=value' comment lines holding the full resolved
configuration (master seed included), so any row can be reproduced from the
file alone. Output is UTF-8 with LF line endings and deterministic number
formatting; no timestamps or host details, which keeps reruns byte-identical.
"""

from __future__ import annotations

import csv
import io
import itertools
from typing import Iterable


def format_cell(value) -> str:
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() and abs(value) < 1e15 else repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


#: rows per format_rows call in write_csv, which bounds the text held at once
_ROWS_PER_BATCH = 1024


def format_rows(rows: Iterable) -> str:
    """CSV text of `rows`: one LF-terminated line per row, its cells as format_cell
    gives them, quoted as csv.writer's QUOTE_MINIMAL quotes them.

    The lines are joined directly, and the joined text is kept when no cell holds
    a comma, a quote or a line break and no row is empty or one empty cell, as
    holds for every row driftlab writes. Otherwise csv.writer writes the rows,
    so the quoting never differs from the csv module's.
    """
    floats: dict = {}  # float texts: a batch repeats many floats, and repr is the costly step
    cells = []
    for row in rows:
        texts = []
        for value in row:
            kind = type(value)
            if kind is str:
                text = value
            elif kind is float:
                text = floats.get(value)
                if text is None:
                    text = floats[value] = format_cell(value)
            else:
                text = format_cell(value)
            texts.append(text)
        cells.append(texts)
    lines = [",".join(texts) for texts in cells]
    text = "\n".join(lines + [""])
    if (
        all(lines)
        and text.count(",") == sum(map(len, cells)) - len(cells)
        and text.count("\n") == len(cells)
        and '"' not in text
        and "\r" not in text
    ):
        return text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(cells)
    return out.getvalue()


def write_csv(path: str, provenance: dict, columns: list[str], rows: Iterable, trailer: str = "") -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in provenance.items():
            fh.write(f"# {key}={format_cell(value)}\n")
        fh.write(format_rows([columns]))
        rows = iter(rows)
        while batch := list(itertools.islice(rows, _ROWS_PER_BATCH)):
            fh.write(format_rows(batch))
        if trailer:
            fh.write(trailer if trailer.endswith("\n") else trailer + "\n")


def condition_report_columns() -> list[str]:
    return ["j", "tail", "bound", "verdict", "count", "ci_low", "ci_high"]


def condition_report_rows(report) -> list[tuple]:
    return [
        (t.j, t.tail, t.bound, t.verdict, t.count, t.ci_low, t.ci_high)
        for t in report.tails
    ]


def condition_summary(report) -> str:
    """Human-readable block for one condition report."""
    lines = [
        f"condition check ({report.mode}, {report.variant})",
        f"  params: eps={report.params.eps} delta={report.params.delta} "
        f"r={report.params.r} j_max={report.params.j_max}",
    ]
    if report.drift_ci is not None:
        lo, hi = report.drift_ci
        lines.append(
            f"  drift: {report.drift:.6g} (95% CI [{lo:.6g}, {hi:.6g}]) "
            f"from {report.n_drift_samples} samples -> {report.drift_verdict}"
        )
    elif report.drift_state is None:
        lines.append(f"  drift: {report.drift:.6g} (exact) -> {report.drift_verdict}")
    else:
        lines.append(
            f"  drift: {report.drift:.6g} (exact, least at state {format_cell(report.drift_state)}, "
            f"margin {report.drift - report.params.eps:.6g} over eps) -> {report.drift_verdict}"
        )
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for t in report.tails:
        counts[t.verdict] += 1
    lines.append(
        f"  tails: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['inconclusive']} inconclusive over {len(report.tails)} indices"
    )
    if report.tail_j is not None:
        state = "" if report.tail_state is None else f" at state {format_cell(report.tail_state)}"
        lines.append(
            f"  closest tail: j={format_cell(report.tail_j)}{state}, "
            f"log(tail/bound) = {report.tail_log_margin:.6g}"
        )
    for t in report.tails:
        if t.verdict == "fail":
            lines.append(f"    FAIL at j={format_cell(t.j)}: tail {t.tail:.6g} > bound {t.bound:.6g}")
    lines.append(f"  overall: {report.overall()}")
    return "\n".join(lines)


def constants_trace(constants) -> str:
    rows = constants.derivation_trace()
    sym_w = max(len(sym) for sym, _, _ in rows)
    formula_w = max(len(formula) for _, formula, _ in rows)
    lines = [
        f"{sym:<{sym_w}}  {formula:<{formula_w}}  {format_cell(float(value))}"
        for sym, formula, value in rows
    ]
    return "\n".join(lines)
