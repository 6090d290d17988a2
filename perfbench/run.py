"""driftlab benchmark: cold CLI runs of four workloads, checked and timed.

Usage, from the root of a driftlab checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads and the reasons for them are in `workloads.py`. With `--trace 0` the
benchmark first times a few bare set-ups (interpreter start until
`driftlab.cli` is imported and its parser built), then runs the workload's
command list as CLI processes, one at a time, for about `--seconds` in all,
and reports medians (see `timed_run`). Every timed process runs through
`cli_entry.py`, which samples the host's speed while it runs, and the times
are reported in reference seconds, which the load of other tenants on a
shared host moves far less than seconds (see `speed.py`).
With `--trace 1` it calls the workload's commands in-process three times:
without `--out`, untraced, and with spans around each layer (see
`tracing.py`), and reports per-layer metrics.

Every CLI run's output is checked by the workload's oracle. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the line before it holds the details: seed, versions,
CPU count, load average before and after, and every CLI run with its CSV
digest, raw seconds and probe samples. `--smoke` shrinks every workload to a
few seconds, for tests.

All files the CLI writes go to `.perfbench_work/` in the checkout, which the
benchmark deletes when it ends. It exits with code 2 and prints no result when
the current directory holds no driftlab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: bare set-ups timed per run; setup_s is their median
SETUP_PROBES = 5
#: iterations of the workload's command list per run, at the least
MIN_ITERATIONS = 2
#: a CLI run that takes longer than this is killed and counted as failed
CLI_TIMEOUT_S = 120
WORK_DIR = ".perfbench_work"
ENTRY = Path(__file__).resolve().parent / "cli_entry.py"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run at all; no result is printed."""


class Runner:
    """Starts CLI processes one at a time in the work directory and keeps their records."""

    def __init__(self, root: Path, work: Path):
        self.src = root / "src"
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(self.src), TMPDIR=str(work))
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list) -> dict:
        """Run argv to completion; wall time, exit code, CPU and peak RSS of it and its workers."""
        with open(self.work / "stdout.txt", "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(CLI_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                # wait4 reports the largest RSS of the child and every worker it reaped
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.perf_counter()
            finally:
                timer.cancel()
                timer.join()
                _kill_group(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "start": start,
            "wall_s": end - start,
            "exit": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": (self.work / "stdout.txt").read_text(encoding="utf-8", errors="replace"),
            "stderr": (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace"),
        }

    def spawn_entry(self, args: list) -> tuple:
        """Run cli_entry.py with `args`: (spawn record, its timing file's contents or None).

        The timing's `probe_mean_s` is the mean over the probes of the process
        and of its forked children (see speed.py).
        """
        timing = self.work / "timing.json"
        timing.unlink(missing_ok=True)
        run = self.spawn([sys.executable, str(ENTRY), str(timing), *args])
        child_times = []
        for log in self.work.glob(timing.name + ".*"):
            child_times += speed.read_log(log)
            log.unlink()
        if not timing.exists():
            return run, None
        result = json.loads(timing.read_text())
        result["child_probes"] = len(child_times)
        if child_times:
            result["probe_mean_s"] = (result["probe_s"] + sum(child_times)) / (result["probes"] + len(child_times))
        return run, result

    def setup_probe(self) -> float:
        """Reference seconds from process start until driftlab.cli is imported and its parser built."""
        run, timing = self.spawn_entry(["--setup"])
        if run["exit"] != 0 or timing is None:
            raise BenchError(f"driftlab.cli does not import:\n{run['stderr']}")
        if not Path(timing["module"]).resolve().is_relative_to(self.src.resolve()):
            raise BenchError(f"driftlab was imported from {timing['module']}, not from {self.src}")
        return (timing["done"] - run["start"] - timing["probe_s"]) * speed.scale(timing["probe_mean_s"])

    def import_times(self) -> dict:
        """Cumulative import seconds of driftlab, scipy.stats and numpy, from -X importtime."""
        run = self.spawn([sys.executable, "-X", "importtime", "-c", "import driftlab.cli"])
        if run["exit"] != 0:
            raise BenchError(f"driftlab.cli does not import:\n{run['stderr']}")
        return {package: topmost_import_seconds(run["stderr"], package)
                for package in ("driftlab", "scipy.stats", "numpy")}

    def run_cli(self, command: workloads.Command, with_out: bool = True) -> dict:
        """One cold CLI run of `command`, checked by its oracle."""
        csv = self.work / "out.csv"
        csv.unlink(missing_ok=True)
        run, timing = self.spawn_entry([*command.argv, "--out", csv.name] if with_out else list(command.argv))
        problems = []
        if timing is not None:
            scale = speed.scale(timing["probe_mean_s"])
            work_s = timing["done"] - timing["imported"] - (timing["probe_s"] - timing["probe_import_s"])
            import_s = timing["imported"] - timing["start"] - timing["probe_import_s"]
            probe_s = timing["probe_s"]
        else:
            # a failed run has no main() time; its wall time keeps the rates finite
            problems.append("the CLI did not return from main()")
            scale, work_s, import_s, probe_s = 1.0, run["wall_s"], None, 0.0
        if with_out and not csv.exists():
            problems.append("no CSV written")
        sha = workloads.file_sha256(csv) if csv.exists() else None
        result = workloads.CliResult(run["exit"], run["stdout"], str(csv) if csv.exists() else None, sha)
        problems += workloads.verify(command, result)
        csv.unlink(missing_ok=True)
        record = {
            "label": command.label,
            "out": with_out,
            "wall_s": run["wall_s"],
            "work_s": work_s,
            "import_s": import_s,
            "probe_s": probe_s,
            "probes": timing["probes"] if timing else 0,
            "child_probes": timing["child_probes"] if timing else 0,
            "scale": scale,
            # reference seconds without the probes' own time (see speed.py)
            "wall_ref_s": (run["wall_s"] - probe_s) * scale,
            "work_ref_s": work_s * scale,
            "cpu_s": run["cpu_s"],
            "rss_mb": run["rss_mb"],
            "exit": run["exit"],
            "sha256": sha,
        }
        self.account(record, problems, run["stderr"])
        return record

    def account(self, record: dict, problems: list, stderr: str = "") -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            record["problems"] = problems
            record["stderr_tail"] = stderr[-2000:]
            print(f"check failed: {record['label']}: {'; '.join(problems)}", file=sys.stderr)
        self.records.append(record)


def topmost_import_seconds(importtime_log: str, package: str) -> float:
    """Cumulative seconds of the outermost imports of `package` or its submodules.

    `-X importtime` prints children before their parent, indented two spaces
    per level. Modules imported through importlib (as `from scipy import
    stats` does) get no line of their own, so their submodules' lines are the
    outermost ones.
    """
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or line.endswith("imported package"):
            continue
        _, cumulative, name = line.split("|")
        name = name[1:]
        level = (len(name) - len(name.lstrip())) // 2
        entries.append((level, name.strip(), int(cumulative)))
    total = 0
    ancestors: list = []
    for level, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        inside = name == package or name.startswith(package + ".")
        if inside and not any(flag for _, flag in ancestors):
            total += cumulative
        ancestors.append((level, inside))
    return total / 1e6


def _kill_group(pid: int) -> None:
    """Stop whatever is left of a CLI run's process group, such as orphaned pool workers."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def timed_run(runner: Runner, workload: workloads.Workload, seconds: float) -> dict:
    """End-to-end metrics in reference seconds (see speed.py): medians over the run.

    The set-up probes and the workload's iterations together take about
    `seconds`: iterations stop when the next one would end after that, but
    there are at least MIN_ITERATIONS. Each command's time is the median over
    the iterations, and `wall_s` sums those medians.
    """
    deadline = time.perf_counter() + seconds
    runner.setup_probe()  # compiles the bytecode cache, which users also have warm
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    iterations = []
    while True:
        began = time.perf_counter()
        iterations.append([runner.run_cli(command) for command in workload.commands])
        now = time.perf_counter()
        if len(iterations) >= MIN_ITERATIONS and now + (now - began) > deadline:
            break
    per_command = list(zip(*iterations))

    def summed_medians(key):
        return sum(statistics.median(run[key] for run in runs) for runs in per_command)

    values = {
        "setup_s": statistics.median(setups),
        "wall_s": summed_medians("wall_ref_s"),
        "work_per_s": sum(command.work for command in workload.commands) / summed_medians("work_ref_s"),
        "peak_rss_mb": max(run["rss_mb"] for runs in per_command for run in runs),
        "ok_rate": 1.0 - runner.failed / runner.attempted,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return ""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="driftlab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "driftlab" / "cli.py").is_file():
        print("error: run from the root of a driftlab checkout; src/driftlab is missing", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    workload = workloads.build(args.workload, args.seed, nproc, args.smoke)
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "work_unit": workload.work_unit,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": nproc,
        "loadavg_before": _loadavg(),
    }
    work = root / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    runner = Runner(root, work)
    try:
        for name, text in workload.files.items():
            (work / name).write_text(text, encoding="utf-8")
        if args.trace:
            metrics = tracing.traced_run(runner, workload, details)
        else:
            metrics = timed_run(runner, workload, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details["loadavg_after"] = _loadavg()
    details["cli_runs"] = runner.records
    print(f"{workload.name}: work_per_s counts {workload.work_unit} per second of CLI main() time")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name}  {name:<36} {value:>16.6g} {unit}")
    print(json.dumps(details))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
