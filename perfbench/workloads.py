"""The benchmark's workloads: driftlab CLI command lists, their sizes and their output oracles.

One iteration of a workload runs its commands in order, one CLI process at a
time: a closed loop with a single client. Every command passes
`--threads <nproc>`. Each command is checked by an oracle that knows the right
answer independently of the program's output: an exact probability, an exact
verdict or an exact count. The `bounds` sweeps have no randomness, so the
digest of their CSV is pinned as well. The CSV digests of the random workloads
are recorded but not checked, so a declared change of the random-stream layout
shows up as a digest change rather than as an error.

Why each workload was chosen, so that a later change can tell which workload
exercises its mechanism and which one bypasses it:

simulate-short
    `simulate --preset counterexample-n15` with 20,000 trials at horizon 15.
    A trial is about 21 us, of which about 11 us is building its PCG64
    generator. So per-trial `rng` set-up, the `core` trial loop and
    `reporting` of many small integer rows do the work; `processes` does
    little. 300,000 trial-steps are below the 2e6 at which `run_trials` starts
    its worker pool, so this also shows the silent serial fallback.
simulate-long
    `simulate --config` with generated files for the needle (1+1) EA
    (n = 50, window [0, 1]) and the geometric witness walk (start 300).
    A few trials run to a long explicit horizon and never hit, so the step
    count is fixed. `processes.step` and the worker pool with large chunks do
    the work; per-trial `rng` set-up and CSV output are negligible. It is the
    same `core` layer as simulate-short, used the other way round.
check
    The four `check` presets, with raised `--trials` on the needle. Condition
    harvesting and verdicts (`conditions`), `jumps`, `stats` and the needle's
    `step` do the work. Nothing is simulated through `core.run_trials` and
    nothing goes through `inequalities`. It has no throughput of harvested
    steps on purpose: exact state-indexed checks will replace the harvest,
    and such a rate would then read as a regression. Its work unit is the
    condition check.
bounds
    `bounds --suite all --out` on a grid of 132,755 links: all four suites,
    with matching up to m = 50 and j = 64. `inequalities` and `reporting` do
    all the work, with float-heavy rows (about 15 MB). There is no randomness,
    so no `rng`, `core` or `processes` work. The default grid (1,448,135
    links, 167 MB) takes about 28 s, one sample per run, which on a shared
    host spreads as widely as the largest bound allows; its link counts and
    digest are checked by `selftest.py` instead.

Sizes. Each command is kept short (a few seconds) so that it runs at least
twice per benchmark run; the benchmark reports the median of its runs in
reference seconds (see `run.py` and `speed.py`).
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

WORKLOAD_NAMES = ("simulate-short", "simulate-long", "check", "bounds")

#: exact chance that the n=15 counterexample chain hits 0 within 15 steps
COUNTEREXAMPLE_HIT_PROBABILITY = (1.0 - math.exp(-15)) ** 15
#: the oracle's floor for the simulated point estimate; about 5e-6 of the
#: trials miss, so 20,000 trials miss about 0.1 times where the floor allows 20
MIN_POINT_ESTIMATE = 0.999

SUITES = ("mutation", "matching", "diversity", "comma-lambda")


@dataclass(frozen=True)
class BoundsGrid:
    """Grid flags for `driftlab bounds` with its exact link counts and CSV digest."""

    flags: tuple[str, ...]
    links: dict
    sha256: str

    @property
    def total(self) -> int:
        return sum(self.links.values())


#: the CLI defaults: the acceptance-criterion grid, checked by selftest.py
FULL_GRID = BoundsGrid(
    flags=(),
    links={"mutation": 40_200, "matching": 1_312_935, "diversity": 61_200, "comma-lambda": 33_800},
    sha256="742c3bd7f6f97816e9a88d0b3c179fa21e55516b4e58ab122b451b987d143427",
)
#: the timed grid
BENCH_GRID = BoundsGrid(
    flags=("--n-max", "100", "--m-max", "50", "--mu-max", "10", "--phi-max", "25",
           "--lambda-max", "64", "--j-max", "64"),
    links={"mutation": 10_100, "matching": 84_435, "diversity": 15_600, "comma-lambda": 22_620},
    sha256="a49ab0195c24de7c8469feeaf9f0126489bd6f25a17f51219735963e29c64a1f",
)
SMOKE_GRID = BoundsGrid(
    flags=("--n-max", "30", "--m-max", "30", "--mu-max", "5", "--phi-max", "10",
           "--lambda-max", "8", "--j-max", "16"),
    links={"mutation": 930, "matching": 8_143, "diversity": 2_640, "comma-lambda": 3_500},
    sha256="c21497c945266aaf42ad293c9a812b7882413d82d1702acf780bc32c37bc0288",
)


@dataclass
class CliResult:
    """What one CLI run left behind, as the oracles see it."""

    returncode: int
    stdout: str
    csv_path: Optional[str]
    sha256: Optional[str]


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    `argv` excludes `--out`; the runner adds it. `work` is the number of work
    items the command completes (trials, trial-steps, checks or links).
    """

    label: str
    argv: tuple[str, ...]
    check: Callable[[CliResult], list]
    work: int


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    commands: tuple[Command, ...]
    #: generated input files, by file name, written next to the CLI's working directory
    files: dict = field(default_factory=dict)


def build(name: str, seed: int, nproc: int, smoke: bool = False) -> Workload:
    """The workload `name`, with every input derived from `seed`."""
    rng = random.Random(seed)
    cli_seed = rng.getrandbits(63)
    threads = ("--threads", str(nproc))
    if name == "simulate-short":
        trials = 2_000 if smoke else 20_000
        argv = ("simulate", "--preset", "counterexample-n15", "--trials", str(trials),
                "--seed", str(cli_seed)) + threads
        return Workload(name, "trials", (Command("counterexample-n15", argv, _short_check(trials), trials),))
    if name == "simulate-long":
        # Four trials per worker so run_trials cuts one trial per chunk; at full
        # size the total stays above the 2e6 trial-steps at which the pool starts.
        # Neither process hits: the needle must find the one optimum among 2^50
        # points, and the walk starts 300 above its target against drift 0.2,
        # from where P(ever hit) is about exp(-0.0667 * 300) = 2e-9.
        trials = 4 * nproc
        horizon = (20_000 if smoke else 2_200_000) // trials
        files = {
            "needle.ini": _long_config("needle-n50", "needle", {"n": 50}, (0, 1), trials, horizon, cli_seed),
            "geometric.ini": _long_config(
                "geometric-walk-300", "geometric-walk", {"eps": 0.2, "delta": 1, "start": 300},
                (0, 300), trials, horizon, rng.getrandbits(63),
            ),
        }
        commands = tuple(
            Command(file.split(".")[0], ("simulate", "--config", file) + threads,
                    _long_check(trials), trials * horizon)
            for file in files
        )
        return Workload(name, "trial-steps", commands, files)
    if name == "check":
        needle_trials = 24 if smoke else 48
        seed_flags = ("--seed", str(cli_seed)) + threads
        commands = (
            Command("counterexample-onesided", ("check", "--preset", "counterexample-onesided") + seed_flags,
                    _verdict_check({"pass"}), 1),
            Command("counterexample-twosided", ("check", "--preset", "counterexample-twosided") + seed_flags,
                    _verdict_check({"fail"}), 1),
            Command("geometric-walk-twosided", ("check", "--preset", "geometric-walk-twosided") + seed_flags,
                    _verdict_check({"pass"}), 1),
            Command("needle-n50-twosided",
                    ("check", "--preset", "needle-n50-twosided", "--trials", str(needle_trials)) + seed_flags,
                    _verdict_check({"pass", "inconclusive"}), 1),
        )
        return Workload(name, "checks", commands)
    if name == "bounds":
        grid = SMOKE_GRID if smoke else BENCH_GRID
        return Workload(name, "links", (bounds_command(grid),))
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}")


def bounds_command(grid: BoundsGrid) -> Command:
    return Command("all", ("bounds", "--suite", "all") + grid.flags, _bounds_check(grid), grid.total)


def verify(command: Command, result: CliResult) -> list:
    """The oracle's complaints about one run; output too malformed to parse is one too."""
    try:
        return command.check(result)
    except (ValueError, IndexError, KeyError, OSError) as exc:
        return [f"unreadable output: {exc!r}"]


def _long_config(name, kind, params, window, trials, horizon, master_seed) -> str:
    lines = ["[experiment]", f"name = {name}", "command = simulate", "[process]", f"kind = {kind}"]
    lines += [f"{key} = {value}" for key, value in params.items()]
    lines += ["[window]", f"a = {window[0]}", f"b = {window[1]}",
              "[budget]", f"trials = {trials}", f"max_steps = {horizon}", f"master_seed = {master_seed}",
              "[run]", f"horizon = {horizon}"]
    return "\n".join(lines) + "\n"


def read_csv(path: str):
    """(provenance, header, rows, summary) of a driftlab CSV; rows are lists of cells."""
    provenance, summary, lines = {}, {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# summary:"):
                summary = dict(token.split("=", 1) for token in line[len("# summary:"):].split())
            elif line.startswith("# "):
                key, _, value = line[2:].partition("=")
                provenance[key] = value
            else:
                lines.append(line.split(","))
    return provenance, lines[0], lines[1:], summary


_HITS = re.compile(r"hits (\d+)/(\d+)")
_OVERALL = re.compile(r"overall: (\w+)")
_LINKS = re.compile(r"(\d+) links checked, (\d+) failures")


def _short_check(trials: int):
    def check(result: CliResult) -> list:
        problems = _exit_code(result, 0)
        hits = _parse(_HITS, result.stdout)
        if hits is None or int(hits[1]) != trials:
            return problems + [f"stdout reports no hit count over {trials} trials"]
        point = int(hits[0]) / trials
        if point < MIN_POINT_ESTIMATE:
            problems.append(
                f"point estimate {point} is below {MIN_POINT_ESTIMATE}; "
                f"the exact hit probability is {COUNTEREXAMPLE_HIT_PROBABILITY!r}"
            )
        if result.csv_path:
            _, _, rows, summary = read_csv(result.csv_path)
            if len(rows) != trials:
                problems.append(f"CSV has {len(rows)} rows for {trials} trials")
            if summary.get("hits") != hits[0]:
                problems.append(f"CSV summary hits {summary.get('hits')} differ from stdout {hits[0]}")
        return problems

    return check


def _long_check(trials: int):
    def check(result: CliResult) -> list:
        problems = _exit_code(result, 0)
        hits = _parse(_HITS, result.stdout)
        if hits != ("0", str(trials)):
            problems.append(f"expected 0 hits over {trials} trials, stdout reports {hits}")
        if result.csv_path:
            _, header, rows, summary = read_csv(result.csv_path)
            truncated = header.index("truncated")
            if len(rows) != trials or any(row[truncated] != "true" for row in rows):
                problems.append(f"CSV should hold {trials} truncated trials")
            if summary.get("hits") != "0":
                problems.append(f"CSV summary reports {summary.get('hits')} hits")
        return problems

    return check


def _verdict_check(allowed: set):
    """Exit 0 exactly when the verdict is pass; the verdict must be one of `allowed`."""

    def check(result: CliResult) -> list:
        overall = _parse(_OVERALL, result.stdout)
        verdict = overall[0] if overall else None
        if verdict not in allowed:
            return [f"verdict {verdict!r}, expected one of {sorted(allowed)}"]
        problems = _exit_code(result, 0 if verdict == "pass" else 1)
        if result.csv_path:
            provenance, _, _, _ = read_csv(result.csv_path)
            if provenance.get("overall") != verdict:
                problems.append(f"CSV verdict {provenance.get('overall')!r} differs from stdout {verdict!r}")
        return problems

    return check


def _bounds_check(grid: BoundsGrid):
    def check(result: CliResult) -> list:
        problems = _exit_code(result, 0)
        links = _parse(_LINKS, result.stdout)
        if links != (str(grid.total), "0"):
            problems.append(f"expected {grid.total} links and 0 failures, stdout reports {links}")
        if result.csv_path:
            counts, failures = count_links(result.csv_path)
            if counts != grid.links:
                problems.append(f"per-suite link counts {counts}, expected {grid.links}")
            if failures:
                problems.append(f"{failures} CSV rows do not hold")
            if result.sha256 != grid.sha256:
                problems.append(f"CSV sha256 {result.sha256} differs from the pinned {grid.sha256}")
        return problems

    return check


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def count_links(path: str) -> tuple[dict, int]:
    """Per-suite row counts and the number of rows whose `holds` cell is false."""
    counts = dict.fromkeys(SUITES, 0)
    prefixes = [(suite, (suite + "-").encode()) for suite in SUITES]
    failures = 0
    with open(path, "rb") as fh:
        for line in fh:
            if line.endswith(b",false\n"):
                failures += 1
            for suite, prefix in prefixes:
                if line.startswith(prefix):
                    counts[suite] += 1
                    break
    return counts, failures


def _exit_code(result: CliResult, expected: int) -> list:
    if result.returncode != expected:
        return [f"exit code {result.returncode}, expected {expected}"]
    return []


def _parse(pattern: re.Pattern, text: str):
    match = pattern.search(text)
    return match.groups() if match else None
