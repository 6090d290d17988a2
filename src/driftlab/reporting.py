"""CSV emission with embedded provenance and plain-text summary blocks.

Every CSV starts with '# key=value' comment lines holding the resolved
configuration that the command reads (the master seed included wherever it
draws randomness), so any row can be reproduced from the file alone. Output
is UTF-8 with LF line endings and deterministic number formatting; no
timestamps or host details, which keeps reruns byte-identical.

format_rows writes rows with csv.writer over format_cell's texts; format_links
(bounds) and format_trials (simulate) build the same lines in bulk by hand.
"""

from __future__ import annotations

import csv
import io
import itertools
from typing import Iterable


def format_cell(value) -> str:
    if type(value) is int:  # not a bool, whose type is bool
        return str(value)
    if isinstance(value, float):
        return _float_text(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


#: rows or texts per write in write_csv, which bounds the text held at once
_ROWS_PER_BATCH = 1024


def _float_text(value: float) -> str:
    """A float that is an integer below 10^15 prints as that integer, any other as its repr."""
    return str(int(value)) if value.is_integer() and abs(value) < 1e15 else repr(value)


class _FloatTexts(dict):
    """Texts of floats, each made on first use: a CSV repeats many floats, and
    repr is the costly step. Keys must be floats; an int or a bool would share
    the text of the float it equals."""

    def __missing__(self, value):
        text = self[value] = _float_text(value)
        return text


def format_rows(rows: Iterable) -> str:
    """CSV text of `rows`: csv.writer's LF-terminated lines of the cells as
    format_cell gives them, quoted as its QUOTE_MINIMAL quotes them."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([format_cell(value) for value in row] for row in rows)
    return out.getvalue()


def _parameters_text(parameters: dict) -> str:
    # an int is its own text; a bool prints as true or false
    return ";".join([f"{key}={value if type(value) is int else format_cell(value)}" for key, value in parameters.items()])


_BOOL_TEXT = {value: format_cell(value) for value in (True, False)}
#: the characters for which csv.writer's QUOTE_MINIMAL quotes a cell
_QUOTED = ',"\r\n'


def format_links(results: list) -> list[str]:
    """The CSV lines of inequality links (InequalityResult, whose lhs and rhs are
    floats), one LF-terminated line per link of the cells name, parameters, lhs,
    rhs, margin and holds, quoted as format_rows quotes them. Parameters is the
    link's `key=value` pairs joined by ';', made once per run of links sharing
    one dict, as the links of a chain do. Float and bool cells never need quotes,
    so only the distinct name and parameters texts are searched for the
    characters that do."""
    floats = _FloatTexts()
    lines = []
    texts = {result.name for result in results}
    params, params_text = None, ""
    for name, parameters, lhs, rhs, holds, _ in results:
        if parameters is not params:
            params, params_text = parameters, _parameters_text(parameters)
            texts.add(params_text)
        lines.append(f"{name},{params_text},{floats[lhs]},{floats[rhs]},{floats[rhs - lhs]},{_BOOL_TEXT[holds]}\n")
    joined = "".join(texts)
    if not any(character in joined for character in _QUOTED):
        return lines
    return [
        format_rows([(r.name, _parameters_text(r.parameters), r.lhs, r.rhs, r.margin, r.holds)]) for r in results
    ]


def format_trials(outcomes) -> list[str]:
    """The CSV lines of a run's core.TrialOutcomes, read from its columns: one
    LF-terminated line per trial of the cells index, hit time, truncated and
    start potential (a float, each distinct one formatted once), as format_rows
    writes them. None of these int, bool and float cells needs quotes."""
    starts = map(_FloatTexts().__getitem__, outcomes.starts)
    return [
        f"{index},,true,{x0}\n" if hit is None else f"{index},{hit},false,{x0}\n"
        for index, x0, hit in zip(itertools.count(outcomes.first), starts, outcomes.hit_times)
    ]


def jump_table_rows(law) -> list[tuple]:
    """Rows (j, P(step = +j), P(step = -j)) over the support magnitudes of the
    one-row LawTable `law`."""
    pairs = list(zip(law.values.tolist(), law.probs[0].tolist()))
    up = {v: p for v, p in pairs if v > 0}
    down = {-v: p for v, p in pairs if v < 0}
    zero = sum(p for v, p in pairs if v == 0)
    rows = [(0.0, zero, zero)] if zero else []
    return rows + [(j, up.get(j, 0.0), down.get(j, 0.0)) for j in sorted(set(up) | set(down))]


def write_csv(path: str, provenance: dict, columns: list[str], rows: Iterable, trailer: str = "") -> None:
    """Write the provenance as '# key=value' lines, the header `columns`, then
    `rows`: a row is a sequence of cells, and a str is CSV text that is already
    formatted (as format_rows gives a block of rows, or format_links a line)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in provenance.items():
            fh.write(f"# {key}={format_cell(value)}\n")
        fh.write(format_rows([columns]))
        for kind, items in itertools.groupby(rows, key=type):
            while batch := list(itertools.islice(items, _ROWS_PER_BATCH)):
                fh.write("".join(batch) if kind is str else format_rows(batch))
        if trailer:
            fh.write(trailer if trailer.endswith("\n") else trailer + "\n")


#: failing tail indices that condition_summary names, the first ones; it counts the rest
FAIL_LINES = 10


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
    failures = report.tail_failures()
    for t in failures[:FAIL_LINES]:
        lines.append(f"    FAIL at j={format_cell(t.j)}: tail {t.tail:.6g} > bound {t.bound:.6g}")
    if len(failures) > FAIL_LINES:
        lines.append(f"    ... and {len(failures) - FAIL_LINES} more failing indices, every one in the --out CSV")
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
