"""Named experiment configurations and the config-file loader.

Presets are compiled in: they are the executable form of the acceptance
experiments. A configuration file is a flat sectioned key-value text file
(INI syntax) with the same fields, and command-line flags override both.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .core import DriftWindow, SimulationBudget
from .conditions import ConditionParams, VARIANTS
from .processes import Process, family_param, make_process
from .theorem import TheoremConstants, derive_constants

DEFAULT_SEED = 20260809

#: horizon sentinel: derive from the escape-bound constants
AUTO = "auto"
#: horizon sentinel: one step per unit of window length
WINDOW = "window"


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one experiment."""

    name: str
    command: str
    process_kind: str
    process_params: dict = field(default_factory=dict)
    window_a: float = 0.0
    window_b: float = 1.0
    eps: float = 1.0
    delta: float = 1.0
    r: float = 2.0
    j_max: int = 64
    trials: int = 100
    max_steps: int = 1000
    master_seed: int = DEFAULT_SEED
    horizon: Union[int, str] = AUTO
    variant: str = "two_sided"
    prob_target: float = 0.5
    ell_values: tuple[float, ...] = ()
    description: str = ""

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if isinstance(self.horizon, str):
            if self.horizon not in (AUTO, WINDOW):
                raise ValueError(f"horizon must be an integer, {AUTO!r} or {WINDOW!r}")
        elif self.horizon < 1:
            raise ValueError(f"horizon must be at least one step, got {self.horizon}")

    def process(self) -> Process:
        return make_process(self.process_kind, **self.process_params)

    def window(self) -> DriftWindow:
        return DriftWindow(self.window_a, self.window_b)

    def budget(self) -> SimulationBudget:
        return SimulationBudget(self.trials, self.max_steps, self.master_seed)

    def condition_params(self) -> ConditionParams:
        return ConditionParams(self.eps, self.delta, self.r, self.j_max)

    def constants(self, ell: float) -> TheoremConstants:
        return derive_constants(self.eps, self.delta, self.r, ell, self.prob_target)

    def resolve_horizon(self, ell: float) -> tuple[Optional[int], Optional[float]]:
        """(steps to simulate, certified horizon) at window length ell.

        An integer horizon is taken as given, and 'window' runs one step per
        unit of window length. 'auto' inverts the escape-bound product for the
        largest certified horizon, returned as the second value, and floors it
        at one step so the experiment simulates at least one transition. The
        steps are None, never a number, when they exceed max_steps.
        """
        certified = None
        if self.horizon == AUTO:
            certified = self.constants(ell).horizon
            steps = max(1, math.floor(certified)) if math.isfinite(certified) else math.inf
        elif self.horizon == WINDOW:
            steps = max(1, math.ceil(ell))
        else:
            steps = self.horizon
        return (steps if steps <= self.max_steps else None), certified

    def family_member(self, ell: float) -> tuple[Process, DriftWindow]:
        """The configured process family at window length ell, on the window [0, ell]."""
        window = DriftWindow(0.0, float(ell))
        params = {**self.process_params, family_param(self.process_kind): ell}
        return make_process(self.process_kind, **params), window

    def provenance(self) -> dict:
        """Key-value pairs embedded in every CSV this experiment emits."""
        info = {
            "experiment": self.name,
            "command": self.command,
            "process": self.process_kind,
        }
        for key, value in sorted(self.process_params.items()):
            info[f"process.{key}"] = value
        info.update(
            {
                "window_a": self.window_a,
                "window_b": self.window_b,
                "eps": self.eps,
                "delta": self.delta,
                "r": self.r,
                "j_max": self.j_max,
                "trials": self.trials,
                "max_steps": self.max_steps,
                "master_seed": self.master_seed,
                "horizon": self.horizon,
                "variant": self.variant,
                "prob_target": self.prob_target,
            }
        )
        if self.ell_values:
            info["ell_values"] = ",".join(_fmt_number(v) for v in self.ell_values)
        return info


def _fmt_number(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _counterexample_simulate(n: int) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"counterexample-n{n}",
        command="simulate",
        process_kind="counterexample",
        process_params={"n": n},
        window_b=float(n),
        trials=10_000,
        max_steps=100,
        horizon=n,
        description=f"hitting probability of the n={n} counterexample chain within n steps",
    )


def _counterexample_check(name: str, variant: str) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        command="check",
        process_kind="counterexample",
        process_params={"n": 15},
        window_b=15.0,
        variant=variant,
        trials=200,
        max_steps=100,
        description=f"exact {variant.replace('_', '-')} condition check on the n=15 counterexample chain",
    )


PRESETS: dict[str, ExperimentConfig] = {
    cfg.name: cfg
    for cfg in [
        _counterexample_simulate(15),
        _counterexample_simulate(10),
        ExperimentConfig(
            name="geometric-walk-l30",
            command="simulate",
            process_kind="geometric-walk",
            process_params={"eps": 0.2, "delta": 1.0, "start": 30.0},
            window_b=30.0,
            eps=0.2,
            trials=200,
            max_steps=1_000_000,
            description="geometric drift walk over a length-30 window at the certified horizon",
        ),
        _counterexample_check("counterexample-onesided", "one_sided"),
        _counterexample_check("counterexample-twosided", "two_sided"),
        ExperimentConfig(
            name="geometric-walk-twosided",
            command="check",
            process_kind="geometric-walk",
            process_params={"eps": 0.2, "delta": 1.0, "start": 30.0},
            window_b=30.0,
            eps=0.2,
            trials=200,
            description="exact two-sided condition check on the geometric drift walk",
        ),
        ExperimentConfig(
            name="needle-n50-twosided",
            command="check",
            process_kind="needle",
            process_params={"n": 50},
            window_a=10.0,
            window_b=16.0,
            eps=0.25,
            trials=24,
            max_steps=12_000,
            description="empirical two-sided condition check on the n=50 plateau EA inside (10, 16)",
        ),
        ExperimentConfig(
            name="geometric-walk-scaling",
            command="scaling",
            process_kind="geometric-walk",
            process_params={"eps": 0.2, "delta": 1.0},
            eps=0.2,
            trials=200,
            max_steps=1_000_000,
            ell_values=(10.0, 20.0, 30.0, 40.0),
            description="escape probability of the geometric walk across window lengths",
        ),
        ExperimentConfig(
            name="counterexample-scaling",
            command="scaling",
            process_kind="counterexample",
            trials=1000,
            max_steps=100,
            horizon=WINDOW,
            ell_values=(10.0, 15.0, 20.0),
            description="counterexample chain across sizes: hits almost surely despite constant drift",
        ),
    ]
}


def get_preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r}; known presets: {known}") from None


_INT_KEYS = {"n", "mu", "lambda_offspring", "trials", "max_steps", "master_seed", "j_max"}
_FLOAT_KEYS = {"a", "b", "eps", "delta", "r", "start", "mutation_rate", "step_size", "prob_target"}


def _parse_value(key: str, raw: str):
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    try:
        return int(raw)
    except ValueError:
        try:
            return float(raw)
        except ValueError:
            return raw


def load_config(path: str) -> ExperimentConfig:
    """Load an experiment from a sectioned key-value file."""
    # values are plain numbers and names, so '%' is a literal character
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        # the parser's messages span several lines; the CLI reports one
        raise ValueError(f"malformed config file: {' '.join(str(exc).split())}") from None
    if not read:
        raise ValueError(f"config file {path!r} not found or empty")
    fields: dict = {}
    exp = parser["experiment"] if parser.has_section("experiment") else {}
    fields["name"] = exp.get("name", "config")
    fields["command"] = exp.get("command", "simulate")
    if not parser.has_section("process"):
        raise ValueError("config file needs a [process] section with a 'kind' key")
    proc = dict(parser["process"])
    try:
        fields["process_kind"] = proc.pop("kind")
    except KeyError:
        raise ValueError("[process] section must define 'kind'") from None
    fields["process_params"] = {k: _parse_value(k, v) for k, v in proc.items()}
    if parser.has_section("window"):
        win = parser["window"]
        fields["window_a"] = win.getfloat("a", 0.0)
        fields["window_b"] = win.getfloat("b", 1.0)
    if parser.has_section("conditions"):
        cond = parser["conditions"]
        fields["eps"] = cond.getfloat("eps", 1.0)
        fields["delta"] = cond.getfloat("delta", 1.0)
        fields["r"] = cond.getfloat("r", 2.0)
        fields["j_max"] = cond.getint("j_max", 64)
    if parser.has_section("budget"):
        bud = parser["budget"]
        fields["trials"] = bud.getint("trials", 100)
        fields["max_steps"] = bud.getint("max_steps", 1000)
        fields["master_seed"] = bud.getint("master_seed", DEFAULT_SEED)
    if parser.has_section("run"):
        run = parser["run"]
        horizon_raw = run.get("horizon", AUTO)
        fields["horizon"] = horizon_raw if horizon_raw in (AUTO, WINDOW) else int(horizon_raw)
        fields["variant"] = run.get("variant", "two_sided")
        fields["prob_target"] = run.getfloat("prob_target", 0.5)
        ells = run.get("ell_values", "")
        if ells:
            fields["ell_values"] = tuple(float(v) for v in ells.split(","))
    return ExperimentConfig(**fields)


def with_overrides(config: ExperimentConfig, *, seed=None, trials=None, horizon=None) -> ExperimentConfig:
    updates = {}
    if seed is not None:
        updates["master_seed"] = seed
    if trials is not None:
        updates["trials"] = trials
    if horizon is not None:
        updates["horizon"] = horizon
    return replace(config, **updates) if updates else config
