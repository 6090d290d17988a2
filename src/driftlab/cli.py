"""Command-line harness: named experiments, config files, CSV emission.

Exit codes: 0 when every requested check passes, 1 when a check fails,
2 for configuration errors. CSV is the only data output format; each file
embeds its full resolved configuration as '# key=value' header lines.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields, replace

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


def _add_common(parser: argparse.ArgumentParser, with_horizon: bool = False,
                threads_help: str = "worker processes for trials") -> None:
    parser.add_argument("--preset", help="name of a compiled-in experiment")
    parser.add_argument("--config", help="path to a sectioned key-value config file")
    parser.add_argument("--seed", type=int, dest="master_seed", help="override the master seed (unsigned 64-bit)")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument("--threads", type=_worker_count, default=default_workers(), help=threads_help)
    parser.add_argument("--out", help="CSV output path")
    if with_horizon:
        parser.add_argument("--horizon", type=int, help="override the simulation horizon (steps)")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. Every subcommand is there with its name and help; its
    arguments are added when `command` is None or names it, so a parser for
    one command parses that command's argv as the full parser does."""
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="Drift-analysis laboratory: simulate, check conditions, derive constants, sweep bounds.",
    )
    parser.add_argument("--version", action="version", version=f"driftlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run trials and report the hitting probability")
    p.set_defaults(func=cmd_simulate)
    if command in (None, "simulate"):
        _add_common(p, with_horizon=True)

    p = sub.add_parser("check", help="check the drift and jump-tail conditions")
    p.set_defaults(func=cmd_check)
    if command in (None, "check"):
        _add_common(p, threads_help="unused: check runs no trials")
        p.add_argument("--jump-table", dest="jump_table",
                       help="also export the one step law of a state-independent process as CSV")

    p = sub.add_parser("constants", help="derive the escape-bound constants")
    p.set_defaults(func=cmd_constants)
    if command in (None, "constants"):
        p.add_argument("--eps", type=float, required=True)
        p.add_argument("--delta", type=float, required=True)
        p.add_argument("--r", type=float, default=2.0)
        p.add_argument("--ell", type=float, required=True)
        p.add_argument("--prob-target", type=float, default=0.5, dest="prob_target")
        p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("bounds", help="run an inequality sweep suite")
    p.set_defaults(func=cmd_bounds)
    if command in (None, "bounds"):
        p.add_argument("--suite", choices=sorted(SWEEPS) + ["all"], default="all")
        for f in fields(SweepGrid):
            p.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default, dest=f.name)
        # Workers check and format whole slabs: the default grid takes about 4.7 s
        # on one process and 2.6 s on two (2-CPU host, same bytes). The default
        # stays one process because a tracer or profiler in the calling process,
        # such as the benchmark's traced run, counts only the links it checks.
        p.add_argument("--threads", type=_worker_count, default=1, help="worker processes for the sweeps (default 1)")
        p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("scaling", help="run a process family across window lengths")
    p.set_defaults(func=cmd_scaling)
    if command in (None, "scaling"):
        _add_common(p)

    p = sub.add_parser("list-presets", help="list compiled-in experiments")
    p.set_defaults(func=cmd_list_presets)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the parser of the subcommand it invokes. argparse runs the
    subcommand named by the first argument that does not start with '-', since
    the top level's only options take no value. When that argument names no
    subcommand, argparse reports the invalid choice from the names alone."""
    return build_parser(next((arg for arg in argv if not arg.startswith("-")), None)).parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
