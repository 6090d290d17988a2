"""Command-line harness: named experiments, config files, CSV emission.

Every subcommand's options are one table, `commands()`. argparse builds its
parser from it, and `parse_args` reads a plain argv from it directly.

Exit codes: 0 when every requested check passes, 1 when a check fails,
2 for configuration errors. CSV is the only data output format; each file
embeds its full resolved configuration as '# key=value' header lines.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields, replace
from typing import Any, Callable, NamedTuple, Optional

from . import __version__
from .conditions import TWO_SIDED, check_conditions_empirical, check_conditions_exact, harvest_step_samples, step_laws
from .core import default_workers, estimate_hitting_probability, ordered_map
from .presets import PRESETS, ExperimentConfig, get_preset, load_config
from .reporting import (
    condition_report_columns,
    condition_report_rows,
    condition_summary,
    constants_trace,
    format_cell,
    format_links,
    format_trials,
    write_csv,
)
from .jumps import JumpDistribution
from .theorem import derive_constants, hajek_escape_bound
from .inequalities import SWEEPS, SweepGrid, check_grid, slab_count


def _resolve_config(args) -> ExperimentConfig:
    if args.preset and args.config:
        raise ValueError("give either --preset or --config, not both")
    if args.preset:
        config = get_preset(args.preset)
    elif args.config:
        config = load_config(args.config)
    else:
        raise ValueError("one of --preset or --config is required")
    # the override flags' dests are the ExperimentConfig fields they set
    overrides = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    return replace(config, **{name: value for name, value in overrides.items() if value is not None})


def cmd_simulate(args) -> int:
    config = _resolve_config(args)
    window = config.window()
    horizon, constants = config.resolve_horizon(window.ell)
    certified = None if constants is None else constants.horizon
    if horizon is None:
        certified_note = "" if certified is None else f" (certified horizon {certified!r})"
        raise ValueError(
            f"horizon {config.horizon}{certified_note} at ell={format_cell(window.ell)} "
            f"exceeds max_steps={config.max_steps}"
        )
    estimate = estimate_hitting_probability(
        config.process(), window, config.trials, horizon, config.master_seed, args.threads
    )
    provenance = config.provenance()
    provenance["resolved_horizon"] = horizon
    if certified is not None:
        provenance["certified_horizon"] = certified
    summary = (
        f"# summary: hits={estimate.hits} trials={estimate.trials} point={format_cell(estimate.point)} "
        f"ci_low={format_cell(estimate.ci_low)} ci_high={format_cell(estimate.ci_high)}"
    )
    if args.out:
        write_csv(
            args.out,
            provenance,
            ["trial", "hit_time", "truncated", "x0"],
            format_trials(estimate.outcomes),
            trailer=summary,
        )
    print(
        f"{config.name}: hits {estimate.hits}/{estimate.trials} within horizon {horizon}; "
        f"point {estimate.point:.6g}, 95% Wilson [{estimate.ci_low:.6g}, {estimate.ci_high:.6g}]"
    )
    return 0


def cmd_check(args) -> int:
    config = _resolve_config(args)
    process = config.process()
    window = config.window()
    params = config.condition_params()
    laws = step_laws(process, window)
    provenance = config.provenance()
    if laws is not None:
        # only the empirical check simulates, so only it reads the budget and the run keys
        for key in ("trials", "max_steps", "master_seed", "horizon", "prob_target"):
            del provenance[key]
    if args.jump_table:
        if not isinstance(laws, JumpDistribution):
            raise ValueError(
                f"process {config.process_kind!r} has no state-independent step law; "
                "no exact jump table to export"
            )
        write_csv(args.jump_table, provenance, ["j", "p_up", "p_down"], laws.csv_rows())
    if laws is not None:
        report = check_conditions_exact(laws, params, config.variant, window)
        where = "the one step law" if report.drift_state is None else "the step law of every window state"
        print(f"note: exact check from {where}; trials and max_steps were not used")
    else:
        drift_samples, tail_samples = harvest_step_samples(
            process, window, config.trials, config.max_steps, config.master_seed
        )
        report = check_conditions_empirical(drift_samples, tail_samples, params, config.variant)
    if process.potential_scale != "identity":
        provenance["potential_scale"] = process.potential_scale
        print(f"note: potentials for {config.process_kind!r} are on the {process.potential_scale} scale")
    provenance["mode"] = report.mode
    provenance["drift"] = report.drift
    provenance["drift_verdict"] = report.drift_verdict
    if report.drift_ci is not None:
        provenance["drift_ci_low"], provenance["drift_ci_high"] = report.drift_ci
    if report.drift_state is not None:
        provenance["drift_state"] = report.drift_state
        provenance["tail_state"] = report.tail_state
        provenance["tail_j"] = report.tail_j
        provenance["tail_log_margin"] = report.tail_log_margin
    provenance["overall"] = report.overall()
    if args.out:
        write_csv(args.out, provenance, condition_report_columns(), condition_report_rows(report))
    print(condition_summary(report))
    return 0 if report.overall() == "pass" else 1


def cmd_constants(args) -> int:
    constants = derive_constants(args.eps, args.delta, args.r, args.ell, args.prob_target)
    print(constants_trace(constants))
    if args.out:
        trace = constants.derivation_trace()
        write_csv(
            args.out,
            {"command": "constants"},
            [sym for sym, _, _ in trace],
            [[value for _, _, value in trace]],
        )
    return 0


def _bounds_slab(task) -> tuple[list[str], int, int]:
    """The CSV lines (none unless `out` is set), link count and failure count of
    one slab of a sweep."""
    suite, grid, slab, out = task
    results = list(SWEEPS[suite](grid, slab=slab))
    failures = sum(not result.holds for result in results)
    return format_links(results) if out else [], len(results), failures


def cmd_bounds(args) -> int:
    suites = sorted(SWEEPS) if args.suite == "all" else [args.suite]
    grid = SweepGrid(**{f.name: getattr(args, f.name) for f in fields(SweepGrid)})
    for suite in suites:
        check_grid(suite, grid)
    tasks = [(suite, grid, slab, bool(args.out)) for suite in suites for slab in range(slab_count(suite, grid))]
    failures = 0
    links = 0

    def emit():
        nonlocal failures, links
        for lines, slab_links, slab_failures in ordered_map(_bounds_slab, tasks, args.threads):
            links += slab_links
            failures += slab_failures
            yield from lines

    if args.out:
        provenance = {"command": "bounds", "suite": args.suite, **asdict(grid)}
        write_csv(args.out, provenance, ["name", "parameters", "lhs", "rhs", "margin", "holds"], emit())
    else:
        for _ in emit():
            pass
    print(f"bounds suite {args.suite}: {links} links checked, {failures} failures")
    return 1 if failures else 0


def cmd_scaling(args) -> int:
    config = _resolve_config(args)
    if not config.ell_values:
        raise ValueError("scaling needs ell_values (a comma-separated list in the config)")
    if config.variant != TWO_SIDED:
        raise ValueError(f"scaling checks only the two-sided condition, on which its bound rests; got {config.variant}")
    rows = []
    failures = 0
    unresolved = []
    for ell in config.ell_values:
        process, window = config.family_member(ell)
        horizon, constants = config.resolve_horizon(ell)
        constants = constants or config.constants(ell)
        # every kind with a scaling family has one exact law for all its states
        report = check_conditions_exact(step_laws(process, window), config.condition_params(), TWO_SIDED, window)
        row = {
            "ell": ell,
            "horizon": horizon,
            "certified_horizon": constants.horizon,
            "hits": None,
            "trials": config.trials,
            "point": None,
            "ci_low": None,
            "ci_high": None,
            "escape_bound": None,
            "condition": f"two-sided condition: {report.overall().upper()}",
            "note": "",
        }
        rows.append(row)
        if horizon is None:
            unresolved.append(ell)
            row["note"] = "unresolved: horizon exceeds max_steps"
            continue
        estimate = estimate_hitting_probability(
            process, window, config.trials, horizon, config.master_seed, args.threads
        )
        bound = hajek_escape_bound(constants.lam, ell, horizon, constants.d_bound, constants.p_ell)
        row.update(
            hits=estimate.hits,
            trials=estimate.trials,
            point=estimate.point,
            ci_low=estimate.ci_low,
            ci_high=estimate.ci_high,
            escape_bound=bound,
        )
        if report.overall() == "pass" and estimate.point > bound:
            failures += 1
            row["note"] = "empirical probability exceeds the certified bound"
    if args.out:
        write_csv(args.out, config.provenance(), list(rows[0]), (row.values() for row in rows))
    for row in rows:
        print(
            f"ell={format_cell(row['ell'])} horizon={format_cell(row['horizon'])} "
            f"point={format_cell(row['point'])} bound={format_cell(row['escape_bound'])} [{row['condition']}]"
            + (f" {row['note']}" if row["note"] else "")
        )
    if unresolved:
        print(
            f"warning: budget too small to resolve ell in {unresolved}; "
            f"certified horizons exceed max_steps={config.max_steps}",
            file=sys.stderr,
        )
    return 1 if failures else 0


def cmd_list_presets(args) -> int:
    width = max(len(name) for name in PRESETS)
    for name in sorted(PRESETS):
        cfg = PRESETS[name]
        print(f"{name:<{width}}  {cfg.command:<8}  {cfg.description}")
    return 0


def _worker_count(text: str) -> int:
    if (workers := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {workers}")
    return workers


class Option(NamedTuple):
    """One `--flag value` option of a subcommand, in argparse's terms."""

    flag: str
    dest: str
    type: Optional[Callable[[str], Any]] = None
    default: Any = None
    required: bool = False
    choices: Optional[list] = None
    help: Optional[str] = None


class Command(NamedTuple):
    """One subcommand: its help, the function it runs and its options."""

    help: str
    func: Callable[[argparse.Namespace], int]
    options: tuple[Option, ...] = ()


_OUT = Option("--out", "out", help="CSV output path")


def _common(with_horizon: bool = False, threads_help: str = "worker processes for trials") -> tuple[Option, ...]:
    return (
        Option("--preset", "preset", help="name of a compiled-in experiment"),
        Option("--config", "config", help="path to a sectioned key-value config file"),
        Option("--seed", "master_seed", int, help="override the master seed (unsigned 64-bit)"),
        Option("--trials", "trials", int, help="override the trial count"),
        Option("--threads", "threads", _worker_count, default_workers(), help=threads_help),
        _OUT,
        *([Option("--horizon", "horizon", int, help="override the simulation horizon (steps)")] if with_horizon else []),
    )


def commands() -> dict[str, Command]:
    """Every subcommand with its help, function and options, in help order. Each
    call evaluates the defaults afresh, `default_workers()` included."""
    return {
        "simulate": Command("run trials and report the hitting probability", cmd_simulate, _common(with_horizon=True)),
        "check": Command("check the drift and jump-tail conditions", cmd_check, (
            *_common(threads_help="unused: check runs no trials"),
            Option("--jump-table", "jump_table",
                   help="also export the one step law of a state-independent process as CSV"),
        )),
        "constants": Command("derive the escape-bound constants", cmd_constants, (
            Option("--eps", "eps", float, required=True),
            Option("--delta", "delta", float, required=True),
            Option("--r", "r", float, 2.0),
            Option("--ell", "ell", float, required=True),
            Option("--prob-target", "prob_target", float, 0.5),
            _OUT,
        )),
        "bounds": Command("run an inequality sweep suite", cmd_bounds, (
            Option("--suite", "suite", default="all", choices=sorted(SWEEPS) + ["all"]),
            *(Option("--" + f.name.replace("_", "-"), f.name, int, f.default) for f in fields(SweepGrid)),
            # Workers check and format whole slabs: the default grid takes about 4.7 s
            # on one process and 2.6 s on two (2-CPU host, same bytes). The default
            # stays one process because a tracer or profiler in the calling process,
            # such as the benchmark's traced run, counts only the links it checks.
            Option("--threads", "threads", _worker_count, 1, help="worker processes for the sweeps (default 1)"),
            _OUT,
        )),
        "scaling": Command("run a process family across window lengths", cmd_scaling, _common()),
        "list-presets": Command("list compiled-in experiments", cmd_list_presets),
    }


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, with every subcommand's options from `commands()`."""
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="Drift-analysis laboratory: simulate, check conditions, derive constants, sweep bounds.",
    )
    parser.add_argument("--version", action="version", version=f"driftlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in commands().items():
        p = sub.add_parser(name, help=command.help)
        p.set_defaults(func=command.func)
        for option in command.options:
            settings = option._asdict()
            p.add_argument(settings.pop("flag"), **settings)
    return parser


def _parse_plain(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace argparse gives for a subcommand name followed by `--flag value`
    pairs, each flag one of its exact long flags and no value starting with '-';
    None for any other argv or for a value that argparse would refuse."""
    command = commands().get(argv[0]) if argv and len(argv) % 2 else None
    if command is None:
        return None
    options = {option.flag: option for option in command.options}
    values = {option.dest: option.default for option in command.options}
    for flag, text in zip(argv[1::2], argv[2::2]):
        if (option := options.get(flag)) is None or text.startswith("-"):
            return None
        try:
            value = text if option.type is None else option.type(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if option.choices is not None and value not in option.choices:
            return None
        values[option.dest] = value
    if any(option.required and option.flag not in argv[1::2] for option in command.options):
        return None
    # argparse's attribute order: the subcommand, its options' dests, its defaults
    return argparse.Namespace(command=argv[0], **values, func=command.func)


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed as `build_parser()` parses it. A plain argv (see `_parse_plain`)
    is read straight from the option table, without building a parser, whose
    first gettext lookup imports `locale`; everything else, help, errors and
    `--version` included, goes to argparse."""
    args = _parse_plain(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
