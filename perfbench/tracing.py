"""Traced run: spans around each layer of driftlab, recorded from outside the program.

The traced run imports driftlab from the checkout into the benchmark process
and replaces, in every driftlab module namespace (and in module-level dicts
such as `SWEEPS`), the library functions the CLI reaches with wrappers that
record spans. Then it calls `driftlab.cli.main` once per command of the
workload, each call being one root span. Nothing under `src/` changes.

Span model. A span has a name, a start, an end, a parent and the workload.
Repeated calls to one function under one parent span are merged into a single
span that also keeps its call count and its busy time (the sum of the calls'
durations); this keeps 1.4 million sweep steps from becoming 1.4 million
records. A span's self time is its busy time minus the busy time of its child
spans, so the self times of all spans add up to the roots' wall time.

Sweeps are generators that `write_csv` consumes, so the rows iterator handed
to `write_csv` is wrapped (span `cli.rows`: the CLI's row formatting) and each
sweep iterator's `__next__` is wrapped (span `inequalities.<suite>`). Time spent
computing links is therefore inequalities time, not reporting time, and the
self time of `reporting.write_csv` is the cost of writing the CSV alone.

Spans are recorded in the benchmark process only. Pool workers of
`run_trials` inherit the wrappers but their spans are not collected; their
work shows as the busy time of `core.run_trials`, and `core.workers_used`
(CPU of the process and its workers over wall time) shows how many worked.

The traced run also calls the same commands untraced in the same process, and
reports the difference of the wall times as the tracing overhead. A third,
untraced pass without `--out` gives `reporting.out_gap_s`, the time that
writing the CSV adds, which the self time of `reporting.write_csv` should
account for. Per-step process costs and the constants derivation are timed by
fixed-seed loops.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads

IMPORT_PROBES = 3
MICRO_REPEATS = 3
MICRO_SEED = 20260809
#: (process kind, parameters, steps per timing) of the per-step cost loops
STEP_LOOPS = {
    "counterexample": ({"n": 15}, 200_000),
    "needle": ({"n": 50}, 100_000),
    "geometric-walk": ({"eps": 0.2, "delta": 1.0, "start": 30.0}, 100_000),
    "one-comma-lambda": ({"n": 50, "lambda_offspring": 8}, 10_000),
}
#: the geometric witness walk's constants, as `constants` and `scaling` derive them
DERIVE_CONSTANTS_ARGS = (0.2, 1.0, 2.0, 30.0)
DERIVE_CONSTANTS_CALLS = 20_000


class Span:
    """Calls merged under one parent: `calls` counts them (for an iterator, the items
    it yielded) and `busy` sums their durations."""

    __slots__ = ("name", "workload", "parent", "start", "end", "busy", "calls")

    def __init__(self, name: str, workload: str, parent):
        self.name = name
        self.workload = workload
        self.parent = parent
        self.start = None
        self.end = None
        self.busy = 0.0
        self.calls = 0


class Tracer:
    """Spans kept in memory until the run ends, plus counters taken at the same boundaries."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(int)
        self._stack: list[Span] = []
        self._merged: dict = {}

    def enter(self, name: str, merge: bool = True) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = self._merged.get((name, id(parent))) if merge else None
        if span is None:
            span = Span(name, self.workload, parent)
            self.spans.append(span)
            if merge:
                self._merged[(name, id(parent))] = span
        self._stack.append(span)
        return span

    def exit(self, span: Span, start: float, end: float) -> None:
        self._stack.pop()
        if span.start is None:
            span.start = start
        span.end = end
        span.busy += end - start
        span.calls += 1

    def call(self, name: str, fn, args, kwargs):
        # the clock is read before enter() so the bookkeeping counts as this span's time
        start = time.perf_counter()
        span = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(span, start, time.perf_counter())

    def self_times(self) -> dict:
        """Self time of each span, by span identity."""
        child_busy: dict = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_busy[id(span.parent)] += span.busy
        return {id(span): span.busy - child_busy[id(span)] for span in self.spans}

    def by_name(self) -> dict:
        """{name: (self seconds, busy seconds, calls)} summed over spans of that name."""
        selfs = self.self_times()
        totals: dict = defaultdict(lambda: [0.0, 0.0, 0])
        for span in self.spans:
            entry = totals[span.name]
            entry[0] += selfs[id(span)]
            entry[1] += span.busy
            entry[2] += span.calls
        return {name: tuple(entry) for name, entry in totals.items()}

    def records(self) -> list:
        selfs = self.self_times()
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "name": span.name,
                "workload": span.workload,
                "parent": index.get(id(span.parent)),
                "start": span.start,
                "end": span.end,
                "busy_s": span.busy,
                "self_s": selfs[id(span)],
                "calls": span.calls,
            }
            for span in self.spans
        ]


class TracedIterator:
    """Times each `__next__` of an iterator as a span whose call count is the items yielded.

    This is the hot path of the traced `bounds` run (two levels per link), so
    it keeps the span of the last parent instead of looking it up each time.
    """

    def __init__(self, tracer: Tracer, name: str, iterable):
        self._tracer = tracer
        self._stack = tracer._stack
        self._name = name
        self._iterator = iter(iterable)
        self._span = None

    def __iter__(self):
        return self

    def __next__(self):
        start = time.perf_counter()
        stack = self._stack
        parent = stack[-1] if stack else None
        span = self._span
        if span is None or span.parent is not parent:
            span = self._span = self._tracer.enter(self._name)
            stack.pop()
            span.start = start if span.start is None else span.start
        stack.append(span)
        try:
            item = next(self._iterator)
            span.calls += 1
            return item
        finally:
            stack.pop()
            span.end = time.perf_counter()
            span.busy += span.end - start


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _wrappers(tracer: Tracer) -> dict:
    """{original function: traced replacement} for the library calls the CLI makes."""
    from driftlab import conditions, core, inequalities, reporting, rng, stats

    counts = tracer.counts

    def plain(name, fn):
        return _span_wrapper(tracer, name, fn)

    original_run_trials = core.run_trials
    run_trials_signature = inspect.signature(original_run_trials)

    @functools.wraps(original_run_trials)
    def run_trials(*args, **kwargs):
        bound = run_trials_signature.bind(*args, **kwargs)
        cpu, start = _cpu_seconds(), time.perf_counter()
        outcomes = tracer.call("core.run_trials", original_run_trials, args, kwargs)
        counts["core.cpu_s"] += _cpu_seconds() - cpu
        counts["core.wall_s"] += time.perf_counter() - start
        horizon = bound.arguments["max_steps"]
        counts["core.trials"] += bound.arguments["trials"]
        counts["core.steps"] += sum(horizon if o.hit_time is None else o.hit_time for o in outcomes)
        return outcomes

    original_harvest = conditions.harvest_step_samples
    harvest_signature = inspect.signature(original_harvest)

    @functools.wraps(original_harvest)
    def harvest_step_samples(*args, **kwargs):
        bound = harvest_signature.bind(*args, **kwargs)
        drift, tail = tracer.call("conditions.harvest", original_harvest, args, kwargs)
        counts["conditions.harvest_steps"] += bound.arguments["trials"] * bound.arguments["steps_per_trial"]
        counts["conditions.drift_kept"] += len(drift)
        counts["conditions.tail_kept"] += len(tail)
        return drift, tail

    original_write_csv = reporting.write_csv
    write_csv_signature = inspect.signature(original_write_csv)

    @functools.wraps(original_write_csv)
    def write_csv(*args, **kwargs):
        bound = write_csv_signature.bind(*args, **kwargs)
        bound.arguments["rows"] = TracedIterator(tracer, "cli.rows", bound.arguments["rows"])
        result = tracer.call("reporting.write_csv", original_write_csv, bound.args, bound.kwargs)
        counts["reporting.bytes"] += os.path.getsize(bound.arguments["path"])
        return result

    def sweep(suite, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return TracedIterator(tracer, f"inequalities.{suite}", fn(*args, **kwargs))

        return wrapper

    replacements = {
        original_run_trials: run_trials,
        original_harvest: harvest_step_samples,
        original_write_csv: write_csv,
        conditions.check_conditions_exact: plain("conditions.check_exact", conditions.check_conditions_exact),
        conditions.check_conditions_empirical: plain("conditions.check_empirical",
                                                     conditions.check_conditions_empirical),
        stats.mean_t_interval: plain("stats.mean_t_interval", stats.mean_t_interval),
        stats.wilson_interval: plain("stats.wilson", stats.wilson_interval),
        rng.generator: plain("rng.generator", rng.generator),
    }
    for suite, fn in inequalities.SWEEPS.items():
        replacements[fn] = sweep(suite, fn)
    return replacements


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the span wrappers in every loaded driftlab module; undo them on exit."""
    from driftlab import processes

    replacements = {id(fn): wrapper for fn, wrapper in _wrappers(tracer).items()}
    undo = []
    for name, module in list(sys.modules.items()):
        if name != "driftlab" and not name.startswith("driftlab."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                undo.append((module.__dict__, attr, value))
                setattr(module, attr, replacements[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replacements:
                        undo.append((value, key, item))
                        value[key] = replacements[id(item)]
    for cls in vars(processes).values():
        if isinstance(cls, type) and issubclass(cls, processes.Process) and "jump_table" in vars(cls):
            original = vars(cls)["jump_table"]
            undo.append((cls, "jump_table", original))
            setattr(cls, "jump_table", _span_wrapper(tracer, "jumps.jump_table", original))
    try:
        yield
    finally:
        for target, key, value in reversed(undo):
            if isinstance(target, type):
                setattr(target, key, value)
            else:
                target[key] = value


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def _import_driftlab(src: Path):
    sys.path.insert(0, str(src))
    import driftlab.cli

    if not Path(driftlab.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"driftlab was imported from {driftlab.cli.__file__}, not from {src}")
    return driftlab.cli


def _step_us(kind: str, params: dict, steps: int) -> float:
    from driftlab.processes import make_process
    from driftlab.rng import generator

    process = make_process(kind, **params)
    rng = generator(MICRO_SEED)
    state = process.initial_state(rng)
    start = time.perf_counter()
    for _ in range(steps):
        state = process.step(state, rng)
        process.potential(state)
        if process.absorbed(state):
            state = process.initial_state(rng)
    return (time.perf_counter() - start) / steps * 1e6


def _derive_constants_us(calls: int) -> float:
    from driftlab.theorem import derive_constants

    start = time.perf_counter()
    for _ in range(calls):
        derive_constants(*DERIVE_CONSTANTS_ARGS)
    return (time.perf_counter() - start) / calls * 1e6


def _run_in_process(cli, runner, command: workloads.Command, tracer=None, with_out=True) -> float:
    """Call `cli.main` for one command, check its output, and return the call's wall time.

    With a tracer the call is a root span `cli.main`.
    """
    csv = runner.work / "out.csv"
    csv.unlink(missing_ok=True)
    argv = [*command.argv, "--out", csv.name] if with_out else list(command.argv)
    buffer = io.StringIO()
    span = tracer.enter("cli.main", merge=False) if tracer else None
    start = time.perf_counter()
    problems = []
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash of the program is a failed run, not the end of the benchmark
        code = None
        problems.append(traceback.format_exc())
    finally:
        end = time.perf_counter()
        if tracer:
            tracer.exit(span, start, end)
    sha = workloads.file_sha256(csv) if csv.exists() else None
    result = workloads.CliResult(code, buffer.getvalue(), str(csv) if csv.exists() else None, sha)
    problems += workloads.verify(command, result)
    if with_out and not csv.exists():
        problems.append("no CSV written")
    csv.unlink(missing_ok=True)
    runner.account({"label": command.label, "in_process": True, "traced": tracer is not None,
                    "out": with_out, "work_s": end - start, "exit": code, "sha256": sha}, problems)
    return end - start


def traced_run(runner, workload: workloads.Workload, details: dict) -> dict:
    """Per-layer metrics of one workload: {name: (value, unit)}."""
    runner.setup_probe()  # compiles the bytecode cache before anything is timed
    probes = [runner.import_times() for _ in range(IMPORT_PROBES)]
    imports = {key: statistics.median(p[key] for p in probes) for key in probes[0]}

    cli = _import_driftlab(runner.src)
    step_us = {
        kind: statistics.median(_step_us(kind, params, steps) for _ in range(MICRO_REPEATS))
        for kind, (params, steps) in STEP_LOOPS.items()
    }
    derive_us = statistics.median(_derive_constants_us(DERIVE_CONSTANTS_CALLS) for _ in range(MICRO_REPEATS))

    # The untraced runs share the traced run's warm process, so the difference
    # of the two is the cost of tracing and nothing else. The run without
    # --out goes first and also warms the process up.
    tracer = Tracer(workload.name)
    commands = workload.commands
    cwd = os.getcwd()
    os.chdir(runner.work)
    try:
        without_out = sum(_run_in_process(cli, runner, c, with_out=False) for c in commands)
        untraced_wall = sum(_run_in_process(cli, runner, c) for c in commands)
        with instrumented(tracer):
            traced_wall = sum(_run_in_process(cli, runner, c, tracer) for c in commands)
    finally:
        os.chdir(cwd)

    details["spans"] = tracer.records()
    details["traced_wall_s"] = traced_wall
    return layer_metrics(tracer, imports, step_us, derive_us, traced_wall, untraced_wall,
                         untraced_wall - without_out)


def layer_metrics(tracer, imports, step_us, derive_us, traced_wall, untraced_wall, out_gap) -> dict:
    spans = tracer.by_name()
    counts = tracer.counts

    def self_s(name):
        return spans.get(name, (0.0, 0.0, 0))[0]

    def calls(name):
        return spans.get(name, (0.0, 0.0, 0))[2]

    def per_call_us(name):
        _, busy, count = spans.get(name, (0.0, 0.0, 0))
        return busy / count * 1e6 if count else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "import.driftlab_s": (imports["driftlab"], "s"),
        "import.scipy_stats_s": (imports["scipy.stats"], "s"),
        "import.numpy_s": (imports["numpy"], "s"),
        "cli.self_s": (self_s("cli.main") + self_s("cli.rows"), "s"),
        "rng.generators": (calls("rng.generator"), "count"),
        "rng.generator_us": (per_call_us("rng.generator"), "us"),
        "core.trials": (counts["core.trials"], "count"),
        "core.steps": (counts["core.steps"], "count"),
        "core.run_trials_s": (self_s("core.run_trials"), "s"),
        "core.us_per_step": (ratio(self_s("core.run_trials") * 1e6, counts["core.steps"]), "us"),
        "core.workers_used": (ratio(counts["core.cpu_s"], counts["core.wall_s"]), "cpus"),
    }
    for kind, value in step_us.items():
        metrics[f"processes.{kind}.step_us"] = (value, "us")
    metrics.update({
        "conditions.harvest_s": (self_s("conditions.harvest"), "s"),
        "conditions.harvest_steps": (counts["conditions.harvest_steps"], "count"),
        "conditions.drift_kept": (counts["conditions.drift_kept"], "count"),
        "conditions.tail_kept": (counts["conditions.tail_kept"], "count"),
        "conditions.drift_kept_ratio": (
            ratio(counts["conditions.drift_kept"], counts["conditions.harvest_steps"]), "ratio"),
        "conditions.check_exact_s": (self_s("conditions.check_exact"), "s"),
        "conditions.check_empirical_s": (self_s("conditions.check_empirical"), "s"),
        "jumps.jump_table_s": (self_s("jumps.jump_table"), "s"),
        "theorem.derive_constants_us": (derive_us, "us"),
        "stats.mean_t_interval_s": (self_s("stats.mean_t_interval"), "s"),
        "stats.wilson_us": (per_call_us("stats.wilson"), "us"),
    })
    for suite in workloads.SUITES:
        links = calls(f"inequalities.{suite}")
        metrics[f"inequalities.{suite}.links"] = (links, "count")
        metrics[f"inequalities.{suite}.links_per_s"] = (ratio(links, self_s(f"inequalities.{suite}")), "1/s")
    metrics.update({
        "reporting.write_csv_s": (self_s("reporting.write_csv"), "s"),
        "reporting.rows": (calls("cli.rows"), "count"),
        "reporting.bytes": (counts["reporting.bytes"], "bytes"),
        "reporting.rows_per_s": (ratio(calls("cli.rows"), self_s("reporting.write_csv")), "1/s"),
        "reporting.out_gap_s": (out_gap, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    return metrics
