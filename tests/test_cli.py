import argparse
import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from driftlab import cli, core
from driftlab.cli import main
from driftlab.core import SERIAL_WORK
from driftlab.inequalities import SWEEPS, InequalityResult
from driftlab.presets import PRESETS, ExperimentConfig, load_config
from helpers import PEA_PRIME_CHECK_INI, config_file_text
from test_golden import GOLDEN


def read_csv(path):
    provenance = {}
    rows = []
    header = None
    trailer = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                if header is None:
                    key, _, value = line[2:].partition("=")
                    provenance[key] = value
                else:
                    trailer.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(dict(zip(header, next(csv.reader(io.StringIO(line))))))
    return provenance, header, rows, trailer


def parsed(parse, argv):
    """(the namespace or the exit code, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exit_info:
            result = exit_info.code
    return result, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def parses_as_the_full_parser(monkeypatch):
    """main() reads a plain argv from the option table without argparse; every
    argv a test here runs must give what the full parser gives: the same
    namespace, or the same exit code and output."""
    lean = cli.parse_args

    def parse_args(argv):
        result, out, err = got = parsed(lean, argv)
        # by repr, where a nan option value equals itself
        assert repr(got) == repr(parsed(cli.build_parser().parse_args, argv)), argv
        sys.stdout.write(out)
        sys.stderr.write(err)
        if not isinstance(result, argparse.Namespace):
            raise SystemExit(result)
        return result

    monkeypatch.setattr(cli, "parse_args", parse_args)


HELP_AND_ERRORS = [
    (["--help"], 0),
    *(([name, "--help"], 0) for name in ("simulate", "check", "constants", "bounds", "scaling", "list-presets")),
    (["no-such-command"], 2),
    (["check", "--preset", "counterexample-onesided", "--no-such-option"], 2),
    (["--no-such-option", "check"], 2),
    (["constants", "--eps", "1"], 2),
]


@pytest.mark.parametrize("argv,code", HELP_AND_ERRORS, ids=[" ".join(argv) for argv, _ in HELP_AND_ERRORS])
def test_help_and_errors_are_the_full_parsers(argv, code):
    full = parsed(cli.build_parser().parse_args, argv)
    assert full[0] == code and (full[1] if code == 0 else full[2])
    assert parsed(cli.parse_args, argv) == full


COMMANDS = cli.commands()
FLAGS = sorted({option.flag for command in COMMANDS.values() for option in command.options})
VALUES = ["", "-1", "0", "3", "nan", "x", *sorted(SWEEPS), "all"]
#: the unwrapped parse_args, taken before the autouse fixture wraps it
LEAN_PARSE_ARGS = cli.parse_args
FLAG_TOKENS = st.one_of(
    st.sampled_from(FLAGS),
    st.sampled_from(FLAGS).map(lambda flag: flag[:max(3, len(flag) - 2)]),  # abbreviations
    st.builds("{}={}".format, st.sampled_from(FLAGS), st.sampled_from(VALUES)),
    st.sampled_from(["-h", "--help", "--version"]),
)
TOKENS = st.one_of(st.sampled_from(list(COMMANDS)), FLAG_TOKENS, st.sampled_from(VALUES))
ARGVS = st.builds(
    lambda head, pairs, tail: [*head, *(token for pair in pairs for token in pair), *tail],
    st.lists(st.sampled_from(list(COMMANDS)) | TOKENS, max_size=1),
    st.lists(st.tuples(FLAG_TOKENS, st.sampled_from(VALUES)), max_size=4),
    st.lists(TOKENS, max_size=2),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=ARGVS)
def test_parse_args_is_the_full_parser_on_any_argv(argv):
    lean = parsed(LEAN_PARSE_ARGS, argv)
    # by repr, where a nan option value equals itself
    assert repr(lean) == repr(parsed(cli.build_parser().parse_args, argv))


def test_a_plain_argv_builds_no_parser_and_imports_no_locale(tmp_path):
    # a fresh interpreter: an argparse parser's first gettext lookup imports locale for good
    code = (
        "import argparse, contextlib, io, json, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import driftlab.cli\n"
        "seen = {}\n"
        "for argv in (['check', '--preset', 'counterexample-onesided', '--seed', '7', '--threads', '2'],\n"
        "             ['simulate', '--preset', 'counterexample-n10', '--trials', '20', '--threads', '1']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = driftlab.cli.main(argv)\n"
        "    seen[argv[0]] = [code, len(built), 'locale' in sys.modules]\n"
        "driftlab.cli.build_parser()\n"
        "seen['build_parser'] = [0, len(built) > 0, 'locale' in sys.modules]\n"
        "print(json.dumps(seen))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, check=True
    )
    seen = json.loads(result.stdout.splitlines()[-1])
    assert seen["check"] == [0, 0, False] and seen["simulate"] == [0, 0, False]
    # the positive control: the full parser is counted and imports locale
    assert seen["build_parser"] == [0, True, True]


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in ("counterexample-n15", "geometric-walk-scaling", "needle-n50-twosided"):
        assert name in out


def test_constants_trace(capsys):
    assert main(["constants", "--eps", "1", "--delta", "1", "--r", "2", "--ell", "100"]) == 0
    out = capsys.readouterr().out
    assert "gamma" in out and "0.4054651081081644" in out
    assert "p_ell" in out


def test_constants_csv(tmp_path):
    out = tmp_path / "constants.csv"
    assert main(
        ["constants", "--eps", "1", "--delta", "1", "--r", "2", "--ell", "100", "--out", str(out)]
    ) == 0
    provenance, header, rows, _ = read_csv(out)
    assert "gamma" in header and len(rows) == 1


def test_simulate_preset_writes_self_describing_csv(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(
        ["simulate", "--preset", "counterexample-n10", "--trials", "300", "--threads", "1", "--out", str(out)]
    )
    assert code == 0
    provenance, header, rows, trailer = read_csv(out)
    assert header == ["trial", "hit_time", "truncated", "x0"]
    assert provenance["master_seed"] == "20260809"
    assert provenance["process.n"] == "10"
    assert len(rows) == 300
    assert trailer and trailer[0].startswith("# summary:")
    # forced descent: single-trial CSV with one row hitting at the window length
    out2 = tmp_path / "one.csv"
    cfg = tmp_path / "walk.ini"
    cfg.write_text(
        "[experiment]\nname = forced\ncommand = simulate\n"
        "[process]\nkind = constant\nstep_size = -1\nstart = 5\n"
        "[window]\na = 0\nb = 5\n"
        "[budget]\ntrials = 1\nmax_steps = 50\nmaster_seed = 3\n"
        "[run]\nhorizon = 10\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    _, _, rows2, _ = read_csv(out2)
    assert len(rows2) == 1
    assert rows2[0]["hit_time"] == "5"


def test_command_provenance_names_the_subcommand_that_ran(tmp_path):
    out = tmp_path / "out.csv"
    assert PRESETS["counterexample-twosided"].command == "check"
    assert main(["simulate", "--preset", "counterexample-twosided", "--trials", "20", "--out", str(out)]) == 0
    assert read_csv(out)[0]["command"] == "simulate"
    assert PRESETS["counterexample-n15"].command == "simulate"
    assert main(["check", "--preset", "counterexample-n15", "--out", str(out)]) == 1
    assert read_csv(out)[0]["command"] == "check"


def test_check_exit_codes():
    assert main(["check", "--preset", "counterexample-onesided"]) == 0
    assert main(["check", "--preset", "counterexample-twosided"]) == 1
    assert main(["check", "--preset", "geometric-walk-twosided"]) == 0


def test_check_needle_preset_passes_exactly(tmp_path, capsys):
    out = tmp_path / "needle.csv"
    assert main(["check", "--preset", "needle-n50-twosided", "--out", str(out)]) == 0
    provenance, _, rows, _ = read_csv(out)
    assert provenance["mode"] == "exact" and provenance["overall"] == "pass"
    assert provenance["drift_state"] == "15"
    assert (provenance["tail_state"], provenance["tail_j"]) == ("50", "1")
    assert float(provenance["tail_log_margin"]) == pytest.approx(-0.4528, abs=1e-4)
    assert all(row["verdict"] == "pass" and row["count"] == "" for row in rows)
    stdout = capsys.readouterr().out
    assert "every window state; trials and max_steps were not used" in stdout
    assert "least at state 15" in stdout and "j=1 at state 50" in stdout


SIMULATION_KEYS = {"trials", "max_steps", "master_seed", "horizon", "prob_target"}


@pytest.mark.parametrize("argv", [["--out"], ["--jump-table"]])
def test_exact_check_provenance_omits_the_simulation_keys(argv, tmp_path):
    out = tmp_path / "check.csv"
    assert main(["check", "--preset", "counterexample-onesided", *argv, str(out)]) == 0
    provenance, _, _, _ = read_csv(out)
    assert provenance["process"] == "counterexample" and not SIMULATION_KEYS & set(provenance)


def test_exact_check_presets_leave_the_simulation_keys_at_their_defaults():
    # an exact check reads none of them, so a preset that set one would state a budget nothing uses
    defaults = {f.name: f.default for f in fields(ExperimentConfig) if f.name in SIMULATION_KEYS}
    checks = [cfg for cfg in PRESETS.values() if cfg.command == "check"]
    exact = [cfg for cfg in checks if cfg.process().law_table(cfg.window()) is not None]
    assert len(exact) == 4
    for cfg in exact:
        assert {key: getattr(cfg, key) for key in defaults} == defaults, cfg.name


def test_empirical_check_provenance_keeps_the_simulation_keys(tmp_path):
    cfg = tmp_path / "pea-prime.ini"
    cfg.write_text(PEA_PRIME_CHECK_INI)
    out = tmp_path / "check.csv"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    provenance, _, _, _ = read_csv(out)
    assert provenance["mode"] == "empirical" and SIMULATION_KEYS <= set(provenance)


def test_geometric_walk_preset_sees_no_hits_at_desk_budget(tmp_path):
    out = tmp_path / "walk.csv"
    assert main(["simulate", "--preset", "geometric-walk-l30", "--out", str(out)]) == 0
    _, _, rows, trailer = read_csv(out)
    assert all(r["hit_time"] == "" for r in rows)
    assert "hits=0" in trailer[0]


def test_log_scale_potential_flagged_in_check_report(tmp_path, capsys):
    cfg = tmp_path / "pea.ini"
    cfg.write_text(
        "[experiment]\nname = pea-check\ncommand = check\n"
        "[process]\nkind = pea-prime\nn = 30\nmu = 2\n"
        "[window]\na = 2\nb = 15.9\n"
        "[conditions]\neps = 0.01\ndelta = 1\nr = 2\nj_max = 16\n"
        "[budget]\ntrials = 40\nmax_steps = 400\nmaster_seed = 6\n"
        "[run]\nvariant = two_sided\n"
    )
    out = tmp_path / "pea.csv"
    code = main(["check", "--config", str(cfg), "--out", str(out)])
    assert code in (0, 1)
    provenance, _, _, _ = read_csv(out)
    assert provenance["potential_scale"] == "log8"
    assert "log8 scale" in capsys.readouterr().out


def test_jump_table_export(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["check", "--preset", "counterexample-onesided", "--jump-table", str(out)]) == 0
    _, header, rows, _ = read_csv(out)
    assert header == ["j", "p_up", "p_down"]
    by_j = {row["j"]: row for row in rows}
    assert float(by_j["1"]["p_down"]) == pytest.approx(1 - 3.059023205018258e-07, rel=1e-9)
    assert float(by_j["6538035"]["p_up"]) == pytest.approx(3.059023205018258e-07, rel=1e-9)
    # state-dependent processes have no exact table to export
    assert main(["check", "--preset", "needle-n50-twosided", "--jump-table", str(tmp_path / "x.csv")]) == 2


def test_check_csv_rows(tmp_path):
    out = tmp_path / "check.csv"
    assert main(["check", "--preset", "counterexample-twosided", "--out", str(out)]) == 1
    provenance, header, rows, _ = read_csv(out)
    assert header == ["j", "tail", "bound", "verdict", "count", "ci_low", "ci_high"]
    assert provenance["overall"] == "fail"
    js = {row["j"] for row in rows}
    assert "6538035" in js  # the huge jump of the n=15 chain appears explicitly


def test_scaling_preset(tmp_path):
    out = tmp_path / "scaling.csv"
    code = main(
        ["scaling", "--preset", "counterexample-scaling", "--trials", "300", "--out", str(out)]
    )
    assert code == 0
    _, header, rows, _ = read_csv(out)
    assert header[0] == "ell"
    assert len(rows) == 3
    for row in rows:
        assert float(row["point"]) > 0.99
        assert row["condition"] == "two-sided condition: FAIL"
        assert row["horizon"] == row["ell"]


def test_scaling_single_ell(tmp_path):
    cfg = tmp_path / "one-ell.ini"
    cfg.write_text(
        "[experiment]\nname = one\ncommand = scaling\n"
        "[process]\nkind = geometric-walk\neps = 0.2\ndelta = 1\n"
        "[conditions]\neps = 0.2\ndelta = 1\nr = 2\n"
        "[budget]\ntrials = 100\nmax_steps = 1000\nmaster_seed = 5\n"
        "[run]\nhorizon = auto\nell_values = 12\n"
    )
    out = tmp_path / "one-ell.csv"
    assert main(["scaling", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows, _ = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["condition"] == "two-sided condition: PASS"


def test_bounds_small_and_empty(tmp_path):
    out = tmp_path / "mutation.csv"
    assert main(["bounds", "--suite", "mutation", "--n-max", "25", "--out", str(out)]) == 0
    _, header, rows, _ = read_csv(out)
    assert header == ["name", "parameters", "lhs", "rhs", "margin", "holds"]
    assert rows and all(r["holds"] == "true" for r in rows)
    # a grid on which the suite checks no link is refused before any output
    empty = tmp_path / "empty.csv"
    assert main(["bounds", "--suite", "mutation", "--n-max", "0", "--out", str(empty)]) == 2
    assert not empty.exists()


def test_bounds_reports_a_failing_link(tmp_path, capsys, monkeypatch):
    def failing_sweep(grid, slab=None):
        yield InequalityResult("always-fails", {"n": 1}, 2.0, 1.0, False)

    # one process: pool workers would not see the patched sweep
    monkeypatch.setitem(SWEEPS, "mutation", failing_sweep)
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--suite", "mutation", "--n-max", "5", "--threads", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().out == "bounds suite mutation: 1 links checked, 1 failures\n"
    _, _, rows, _ = read_csv(out)
    assert rows == [{"name": "always-fails", "parameters": "n=1", "lhs": "2", "rhs": "1", "margin": "-1",
                     "holds": "false"}]
    assert gc.get_freeze_count() == 0


def test_bounds_sweeps_run_on_a_frozen_heap_and_unfreeze_it(tmp_path, monkeypatch):
    frozen = []

    def recording_sweep(grid, slab=None):
        frozen.append(gc.get_freeze_count())
        yield from mutation_sweep(grid, slab)

    mutation_sweep = SWEEPS["mutation"]
    # one process: pool workers would not see the patched sweep
    monkeypatch.setitem(SWEEPS, "mutation", recording_sweep)
    for out in ([], ["--out", str(tmp_path / "bounds.csv")]):
        frozen.clear()
        assert main(["bounds", "--suite", "mutation", "--n-max", "25", "--threads", "1", *out]) == 0
        # the objects made before the command are frozen while every slab is checked
        assert len(frozen) == 3 and min(frozen) > 0
        assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_bounds_unfreezes_the_heap_when_a_sweep_raises(error, monkeypatch, capsys):
    def raising_sweep(grid, slab=None):
        raise error("sweep broke")
        yield

    monkeypatch.setitem(SWEEPS, "mutation", raising_sweep)
    argv = ["bounds", "--suite", "mutation", "--n-max", "5", "--threads", "1"]
    if error is ValueError:
        assert main(argv) == 2
        assert "sweep broke" in _single_error_line(capsys)
    else:
        with pytest.raises(RuntimeError, match="sweep broke"):
            main(argv)
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--lambda-max", "0"], "lambda_max"),
        (["--j-max", "-1"], "j_max"),
        (["--suite", "matching", "--m-max", "1"], "m_max"),
        (["--suite", "diversity", "--mu-max", "0"], "mu_max"),
        (["--suite", "diversity", "--phi-max", "-1"], "phi_max"),
        (["--suite", "diversity", "--j-max", "0"], "j_max"),
        (["--suite", "comma-lambda", "--n-max", "1"], "n_max"),
        # above 10^4 the mutation chain is undefined; the sweep would fail after ~5e7 links
        (["--suite", "mutation", "--n-max", "10001"], "n_max"),
        (["--n-max", "20000"], "n_max"),
    ],
)
def test_bounds_refuses_vacuous_or_impossible_grids(flags, field, tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", *flags, "--out", str(out)]) == 2
    assert field in _single_error_line(capsys)
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_config_errors_exit_two(tmp_path, capsys):
    assert main(["simulate", "--preset", "no-such-preset"]) == 2
    assert main(["simulate"]) == 2  # neither preset nor config
    cfg = tmp_path / "x.ini"
    cfg.write_text("[process]\nkind = counterexample\nn = 10\n")
    assert main(["simulate", "--preset", "counterexample-n10", "--config", str(cfg)]) == 2
    assert main(["check", "--config", str(tmp_path / "missing.ini")]) == 2
    capsys.readouterr()


def test_byte_identical_across_thread_counts(tmp_path):
    args = ["simulate", "--preset", "counterexample-n10", "--trials", "400"]
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    assert main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(args + ["--threads", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_changes_output(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["simulate", "--preset", "counterexample-n10", "--trials", "500"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--seed", "42", "--out", str(out2)]) == 0
    p1, _, _, _ = read_csv(out1)
    p2, _, _, _ = read_csv(out2)
    assert p1["master_seed"] == "20260809"
    assert p2["master_seed"] == "42"


def _single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_non_finite_inputs_exit_two(tmp_path, capsys):
    nan_eps = tmp_path / "nan-eps.ini"
    nan_eps.write_text("[process]\nkind = counterexample\nn = 10\n[window]\nb = 10\n[conditions]\neps = nan\n")
    assert main(["check", "--config", str(nan_eps)]) == 2
    assert "eps" in _single_error_line(capsys)
    inf_ell = tmp_path / "inf-ell.ini"
    inf_ell.write_text(
        "[process]\nkind = geometric-walk\neps = 0.2\ndelta = 1\n"
        "[conditions]\neps = 0.2\ndelta = 1\n[run]\nell_values = inf\n"
    )
    assert main(["scaling", "--config", str(inf_ell)]) == 2
    assert "ell_values" in _single_error_line(capsys)
    valid = {"--eps": "0.2", "--delta": "1", "--ell": "30"}
    for flag, value in [("--eps", "nan"), ("--delta", "inf"), ("--r", "inf"), ("--ell", "-inf"),
                        ("--prob-target", "nan")]:
        argv = [f"{key}={text}" for key, text in (valid | {flag: value}).items()]
        assert main(["constants", *argv]) == 2, flag
        assert value in _single_error_line(capsys), flag
    processes = {
        "geometric-walk": {"eps": "0.2", "delta": "1", "start": "10"},
        "constant": {"step_size": "-1", "start": "10"},
    }
    for kind, key, value in [("geometric-walk", "eps", "nan"), ("geometric-walk", "delta", "inf"),
                             ("geometric-walk", "delta", "nan"), ("geometric-walk", "start", "inf"),
                             ("constant", "step_size", "nan"), ("constant", "start", "inf")]:
        params = processes[kind] | {key: value}
        config = tmp_path / f"{kind}-{key}-{value}.ini"
        config.write_text(f"[process]\nkind = {kind}\n" + "".join(f"{k} = {v}\n" for k, v in params.items())
                          + "[window]\nb = 10\n[conditions]\neps = 0.2\n")
        for command in ("simulate", "check"):
            assert main([command, "--config", str(config)]) == 2, (kind, key, value, command)
            line = _single_error_line(capsys)
            assert key in line and value in line, (kind, key, value, command)


def test_constants_beyond_the_double_range_exit_two(capsys):
    assert main(["constants", "--eps", "1", "--delta", "1e308", "--ell", "10"]) == 2
    line = _single_error_line(capsys)
    assert all(f"{name}=" in line for name in ("eps", "delta", "r"))


def test_horizon_below_one_step_exits_two(capsys):
    assert main(["simulate", "--preset", "counterexample-n10", "--horizon", "0"]) == 2
    assert "horizon" in _single_error_line(capsys)
    assert main(["simulate", "--preset", "counterexample-n10", "--horizon", "-3"]) == 2
    assert "-3" in _single_error_line(capsys)


def test_jump_table_of_per_state_laws_exits_two(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["check", "--preset", "needle-n50-twosided", "--jump-table", str(out)]) == 2
    assert _single_error_line(capsys) == (
        "error: process 'needle' has no state-independent step law; no exact jump table to export")
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_walk_whose_law_would_not_fit_exits_two(command, tmp_path, capsys):
    # at delta = 1e-10 the walk's law needs about 7.4e11 magnitudes, some 5 TiB
    # of floats; a check reads that law and a simulation draws from it
    config = tmp_path / "tiny-delta.ini"
    config.write_text("[process]\nkind = geometric-walk\neps = 0.2\ndelta = 1e-10\nstart = 10\n"
                      "[window]\nb = 10\n[conditions]\neps = 0.2\n")
    assert main([command, "--config", str(config)]) == 2
    assert "delta=1e-10 needs a step law" in _single_error_line(capsys)


def test_check_with_a_huge_j_max_exits_two(tmp_path, capsys):
    # the check would hold a set and a TailCheck per index 0..j_max
    config = tmp_path / "huge-j-max.ini"
    config.write_text("[process]\nkind = counterexample\nn = 10\n[window]\nb = 10\n"
                      "[conditions]\nj_max = 100000000000\n")
    assert main(["check", "--config", str(config)]) == 2
    assert "j_max" in _single_error_line(capsys)


@pytest.mark.parametrize(
    "argv, words",
    [
        (["check", "--preset", "counterexample-twosided", "--seed", "-1"], "master_seed"),
        (["check", "--preset", "needle-n50-twosided", "--seed", str(2**64)], "master_seed"),
        (["check", "--preset", "needle-n50-twosided", "--trials", "-5"], "trials=-5"),
        (["check", "--preset", "geometric-walk-twosided", "--trials", "0"], "trials=0"),
    ],
    ids=["seed-negative", "seed-2^64", "trials-negative", "trials-zero"],
)
def test_out_of_range_budget_exits_two(argv, words, tmp_path, capsys):
    # checked when the config is resolved, so a check that never simulates rejects it too
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert words in _single_error_line(capsys)
    assert not out.exists()


def test_out_of_range_max_steps_in_config_exits_two(tmp_path, capsys):
    config = tmp_path / "x.ini"
    config.write_text("[process]\nkind = needle\nn = 50\n[window]\na = 10\nb = 16\n[budget]\nmax_steps = 0\n")
    out = tmp_path / "out.csv"
    assert main(["check", "--config", str(config), "--out", str(out)]) == 2
    assert "max_steps=0" in _single_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("window, frozen", [("a = -1\nb = 5", "a=-1.0"), ("b = 12", "b=12.0")],
                         ids=["state-0-inside", "above-n-inside"])
def test_a_counterexample_window_over_frozen_states_exits_two(window, frozen, tmp_path, capsys):
    # the chain is frozen at 0 and above n = 10, where its one step law, and its drift of 1, do not hold
    cfg = tmp_path / "frozen.ini"
    cfg.write_text(f"[process]\nkind = counterexample\nn = 10\n[window]\n{window}\n[run]\nvariant = one_sided\n")
    out = tmp_path / "out.csv"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 2
    line = _single_error_line(capsys)
    assert "frozen" in line and frozen in line
    assert not out.exists()


def test_a_window_from_minus_infinity_checks_every_needle_state(tmp_path):
    cfg = tmp_path / "all-states.ini"
    cfg.write_text("[process]\nkind = needle\nn = 20\n[window]\na = -inf\nb = 5\n")
    config = load_config(str(cfg))
    assert config.process().law_table(config.window()).states == tuple(float(d) for d in range(21))
    out = tmp_path / "out.csv"
    # the optimum, state 0, is inside the window and does not move
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 1
    provenance = read_csv(out)[0]
    assert (provenance["drift"], provenance["drift_state"]) == ("0", "0")


def test_malformed_config_files_exit_two(tmp_path, capsys):
    needle = "[process]\nkind = needle\nn = 10\n"
    cases = {
        "unknown-key": (needle + "foo = 1\n", "foo"),
        "no-header": ("kind = needle\n", "section"),
        "duplicate": (needle + "n = 12\n", "already exists"),
        "misspelt-key": (needle + "[budget]\ntrails = 5\n", "trails"),
        "misspelt-run-key": (needle + "[run]\nhorizn = 3\n", "horizn"),
        "unknown-section": (needle + "[extra]\nx = 1\n", "[extra]"),
        "fractional-int": ("[process]\nkind = needle\nn = 20.7\n", "[process] n"),
        "non-numeric": ("[process]\nkind = needle\nn = abc\n", "[process] n"),
        "fractional-horizon": (needle + "[run]\nhorizon = 2.5\n",
                               "[run] horizon: must be an integer, 'auto' or 'window', got '2.5'"),
    }
    for name, (text, words) in cases.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(text)
        assert main(["simulate", "--config", str(path)]) == 2, name
        assert words in _single_error_line(capsys), name


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_round_trips_through_config_file(name, tmp_path):
    preset = PRESETS[name]
    path = tmp_path / f"{name}.ini"
    path.write_text(config_file_text(preset))
    assert load_config(str(path)) == replace(preset, description="")


def test_percent_sign_in_config_value_is_literal(tmp_path):
    cfg = tmp_path / "percent.ini"
    cfg.write_text("[experiment]\nname = 50%\n[process]\nkind = needle\nn = 10\n")
    assert load_config(str(cfg)).name == "50%"


def test_scaling_error_paths_exit_two(tmp_path, capsys):
    needle = tmp_path / "needle.ini"
    needle.write_text("[process]\nkind = needle\nn = 20\n[run]\nell_values = 10\n")
    assert main(["scaling", "--config", str(needle)]) == 2
    assert "no scaling family" in _single_error_line(capsys)
    fractional = tmp_path / "fractional.ini"
    fractional.write_text("[process]\nkind = counterexample\n[run]\nhorizon = window\nell_values = 10,12.5\n")
    assert main(["scaling", "--config", str(fractional), "--trials", "10"]) == 2
    assert "12.5" in _single_error_line(capsys)


def test_scaling_refuses_a_variant_other_than_two_sided(tmp_path, capsys):
    # the escape bound rests on the two-sided condition, which is the one scaling checks
    cfg = tmp_path / "one-sided.ini"
    cfg.write_text(
        "[experiment]\ncommand = scaling\n[process]\nkind = counterexample\n"
        "[run]\nhorizon = window\nvariant = one_sided\nell_values = 10,15\n"
    )
    out = tmp_path / "out.csv"
    assert main(["scaling", "--config", str(cfg), "--trials", "10", "--out", str(out)]) == 2
    assert "one_sided" in _single_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--preset", "counterexample-n10"],
        ["check", "--preset", "counterexample-onesided"],
        ["scaling", "--preset", "counterexample-scaling"],
        ["bounds", "--suite", "mutation", "--n-max", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_threads_below_one_exit_two(argv, threads, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--threads", threads, "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"argument --threads: must be at least 1, got {threads}" in err
    assert not out.exists()


@pytest.fixture
def two_cpus(monkeypatch):
    """A process that may run on two CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.mark.parametrize("command", ["simulate", "check", "scaling", "bounds"])
def test_threads_are_clamped_at_the_cpus_available(command, two_cpus):
    argv = [command] + (["--preset", "counterexample-n10"] if command != "bounds" else [])
    assert cli.parse_args([*argv, "--threads", "1000"]).threads == 2
    assert cli.parse_args([*argv, "--threads", "1"]).threads == 1


def test_bounds_with_a_thousand_threads_uses_the_cpus_available(two_cpus, monkeypatch, capsys):
    # a recording stub in place of the pool, which maps the slabs in this process
    pools = []
    monkeypatch.setattr(cli, "ordered_map", lambda fn, tasks, workers: pools.append(workers) or map(fn, tasks))
    assert main(["bounds", "--suite", "mutation", "--n-max", "5", "--threads", "1000"]) == 0
    assert pools == [2]


def test_simulate_with_a_thousand_threads_uses_the_cpus_available(two_cpus, monkeypatch, tmp_path):
    # every run pools, through a recording stub that maps the chunks in this process
    monkeypatch.setattr(core, "SERIAL_WORK", 0)
    pools = []
    monkeypatch.setattr(core, "ordered_map", lambda fn, tasks, workers: pools.append(workers) or map(fn, tasks))
    argv = ["simulate", "--preset", "counterexample-n10", "--trials", "50"]
    assert main([*argv, "--threads", "1000", "--out", str(tmp_path / "many.csv")]) == 0
    assert pools == [2]
    assert main([*argv, "--threads", "1", "--out", str(tmp_path / "one.csv")]) == 0
    assert pools == [2] and (tmp_path / "many.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


@pytest.mark.parametrize("horizon", ["auto", "window"])
def test_simulate_takes_a_named_horizon(horizon, tmp_path, capsys):
    # counterexample-n10 certifies no step at ell = 10, so auto floors at one step;
    # window runs one step per unit of the window's length
    steps = {"auto": 1, "window": 10}[horizon]
    named, fixed = tmp_path / "named.csv", tmp_path / "fixed.csv"
    argv = ["simulate", "--preset", "counterexample-n10", "--horizon"]
    assert main([*argv, horizon, "--out", str(named)]) == 0
    stdout = capsys.readouterr().out
    assert main([*argv, str(steps), "--out", str(fixed)]) == 0
    assert capsys.readouterr().out == stdout and f"within horizon {steps};" in stdout
    provenance, *table = read_csv(named)
    fixed_provenance, *fixed_table = read_csv(fixed)
    assert table == fixed_table
    assert provenance.pop("horizon") == horizon and fixed_provenance.pop("horizon") == str(steps)
    assert ("certified_horizon" in provenance) == (horizon == "auto")
    provenance.pop("certified_horizon", None)
    assert provenance == fixed_provenance and provenance["resolved_horizon"] == str(steps)


@pytest.mark.parametrize("horizon", ["2.5", "soon", "Auto"])
def test_a_malformed_horizon_flag_exits_two_naming_it(horizon, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--preset", "counterexample-n10", "--horizon", horizon])
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == [f"driftlab simulate: error: argument --horizon: must be an integer, 'auto' or 'window', "
                      f"got {horizon!r}"]


def test_check_help_says_it_ignores_threads(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    assert "unused: check runs no trials" in " ".join(capsys.readouterr().out.split())


def test_check_sample_floor_names_both_counts(tmp_path, capsys):
    # PEA' has no exact law, so its check harvests steps
    cfg = tmp_path / "pea-prime-check.ini"
    cfg.write_text(PEA_PRIME_CHECK_INI)
    assert main(["check", "--config", str(cfg), "--trials", "1"]) == 2
    message = _single_error_line(capsys)
    assert "59 drift" in message and "400 tail" in message
    assert "raise trials or max_steps" in message


def test_random_starts_below_b_are_drawn_again(tmp_path, capsys):
    # n = 20 puts about 0.6% of needle starts below b = 5; trial 2 of seed 7 starts at 4
    cfg = tmp_path / "low.ini"
    cfg.write_text(
        "[experiment]\nname = needle-low-starts\n[process]\nkind = needle\nn = 20\n"
        "[window]\na = 4\nb = 5\n[budget]\ntrials = 100\nmax_steps = 20000\nmaster_seed = 7\n"
        "[run]\nhorizon = 20000\n"
    )
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / f"low-{threads}.csv"
        assert main(["simulate", "--config", str(cfg), "--threads", threads, "--out", str(out)]) == 0
        _, _, rows, _ = read_csv(out)
        assert len(rows) == 100 and all(float(row["x0"]) >= 5 for row in rows)
        digests.add(out.read_bytes())
    assert len(digests) == 1
    # a deterministic start below b never gets above it
    walk = tmp_path / "walk.ini"
    walk.write_text("[process]\nkind = geometric-walk\neps = 0.2\ndelta = 1\nstart = 3\n"
                    "[window]\nb = 5\n[run]\nhorizon = 10\n")
    assert main(["simulate", "--config", str(walk)]) == 2
    assert "initial potential 3.0 is below the start threshold b=5.0" in _single_error_line(capsys)
    # the counterexample chain takes the batch path, which resolves its start once
    chain = tmp_path / "chain.ini"
    chain.write_text("[process]\nkind = counterexample\nn = 6\n[window]\nb = 7\n[run]\nhorizon = 10\n")
    assert main(["simulate", "--config", str(chain)]) == 2
    assert "initial potential 6.0 is below the start threshold b=7.0" in _single_error_line(capsys)


def test_scaling_reports_unresolved_horizon(tmp_path, capsys):
    cfg = tmp_path / "far.ini"
    cfg.write_text(
        "[process]\nkind = geometric-walk\neps = 0.2\ndelta = 1\n"
        "[conditions]\neps = 0.2\ndelta = 1\n"
        "[budget]\ntrials = 10\nmax_steps = 1000\n"
        "[run]\nell_values = 20000\n"
    )
    out = tmp_path / "far.csv"
    assert main(["scaling", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows, _ = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["note"] == "unresolved: horizon exceeds max_steps"
    assert rows[0]["horizon"] == "" and float(rows[0]["certified_horizon"]) > 1000
    assert "warning: budget too small" in capsys.readouterr().err


#: modules a cold CLI start does not need: scipy is for the empirical check
#: only, numpy.ma (which np.unique imports on its first call) for nothing, and
#: an executor's modules for nothing either, as the pool forks its own children
COLD_START_UNNEEDED = ("scipy", "concurrent.futures", "multiprocessing", "numpy.ma")

#: 8 trials of the geometric walk to SERIAL_WORK / 8 steps each, which
#: start 300 above the target against drift 0.2 and never hit: the run pools
POOLED_WALK_INI = (
    "[process]\nkind = geometric-walk\neps = 0.2\ndelta = 1\nstart = 300\n[window]\na = 0\nb = 300\n"
    f"[budget]\ntrials = 8\nmax_steps = {SERIAL_WORK // 8}\n[run]\nhorizon = {SERIAL_WORK // 8}\n"
)


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # a fresh interpreter: other tests import scipy and the pool into this one
    (tmp_path / "pea-prime-check.ini").write_text(PEA_PRIME_CHECK_INI)
    (tmp_path / "walk.ini").write_text(POOLED_WALK_INI)
    code = (
        "import hashlib, json, os, sys\n"
        "import driftlab.cli\n"
        "def loaded(*names):\n    return [name for name in names if name in sys.modules]\n"
        f"seen = {{'import': loaded(*{COLD_START_UNNEEDED!r})}}\n"
        "forks = []\n"
        "os.register_at_fork(before=lambda: forks.append(os.getpid()))\n"
        "driftlab.cli.main(['check', '--preset', 'needle-n50-twosided', '--out', 'needle.csv'])\n"
        "driftlab.cli.main(['simulate', '--preset', 'counterexample-n15', '--out', 'simulate.csv'])\n"
        "driftlab.cli.main(['bounds', '--suite', 'comma-lambda', '--n-max', '30', '--j-max', '4', '--out', 'b.csv'])\n"
        "seen['exact check, simulate and bounds'] = loaded('scipy', 'numpy.ma')\n"
        "seen['serial forks'] = len(forks)\n"
        "os.sched_getaffinity = lambda pid: {0, 1}  # --threads 2 is clamped at the CPUs available\n"
        "seen['pooled exit'] = driftlab.cli.main(['simulate', '--config', 'walk.ini', '--threads', '2'])\n"
        f"seen['pooled simulate'] = loaded(*{COLD_START_UNNEEDED!r})\n"
        "seen['pooled forks'] = len(forks)\n"
        "driftlab.cli.main(['check', '--config', 'pea-prime-check.ini', '--out', 'pea.csv'])\n"
        "seen['empirical check'] = loaded('scipy.special')\n"
        "seen['digest'] = hashlib.sha256(open('pea.csv', 'rb').read()).hexdigest()\n"
        "print(json.dumps(seen))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, check=True
    )
    seen = json.loads(result.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["exact check, simulate and bounds"] == []
    # the pooled walk forks one child and loads no executor
    assert (seen["serial forks"], seen["pooled forks"], seen["pooled exit"], seen["pooled simulate"]) == (0, 1, 0, [])
    # the positive control: the empirical check loads scipy.special, and its CSV is the golden one
    assert seen["empirical check"] == ["scipy.special"]
    assert seen["digest"] == GOLDEN["check-pea-prime-empirical"][1]


def test_a_pooled_start_error_exits_two_with_one_error_line(tmp_path):
    # every chunk of the pooled walk raises the start error, in the caller and
    # in its forked child; a fresh interpreter shows what the child writes too
    (tmp_path / "walk.ini").write_text(POOLED_WALK_INI.replace("start = 300", "start = 3").replace("b = 300", "b = 5"))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, driftlab.cli\nsys.exit(driftlab.cli.main(['simulate', '--config', 'walk.ini', '--threads', '2']))\n"
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.splitlines() == ["error: initial potential 3.0 is below the start threshold b=5.0; "
                                          "the window does not match the process configuration"]
