"""Named experiment configurations and the config-file loader.

Presets are compiled in: they are the executable form of the acceptance
experiments. A configuration file is a flat sectioned key-value text file
(INI syntax) with the same fields, and command-line flags override both.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from typing import Optional, Union, get_type_hints

from .core import DriftWindow
from .conditions import ConditionParams, VARIANTS
from .processes import Process, family_param, make_process, param_types
from .theorem import TheoremConstants, derive_constants

DEFAULT_SEED = 20260809

#: horizon sentinel: derive from the escape-bound constants
AUTO = "auto"
#: horizon sentinel: one step per unit of window length
WINDOW = "window"
#: provenance keys that differ from their field names
_PROVENANCE_KEYS = {"name": "experiment", "process_kind": "process"}


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
        # checked here, not only by derive_constants, so scaling stops before its first ell runs
        if not all(0 < ell < math.inf for ell in self.ell_values):
            raise ValueError(f"ell_values must be positive and finite, got {self.ell_values}")

    def process(self) -> Process:
        return make_process(self.process_kind, **self.process_params)

    def window(self) -> DriftWindow:
        return DriftWindow(self.window_a, self.window_b)

    def condition_params(self) -> ConditionParams:
        return ConditionParams(self.eps, self.delta, self.r, self.j_max)

    def constants(self, ell: float) -> TheoremConstants:
        return derive_constants(self.eps, self.delta, self.r, ell, self.prob_target)

    def resolve_horizon(self, ell: float) -> tuple[Optional[int], Optional[TheoremConstants]]:
        """(steps to simulate, derived constants) at window length ell.

        An integer horizon is taken as given, and 'window' runs one step per
        unit of window length. 'auto' derives the constants, returned as the
        second value (None otherwise), inverts the escape-bound product for the
        largest certified horizon and floors it at one step so the experiment
        simulates at least one transition. The steps are None, never a number,
        when they exceed max_steps.
        """
        constants = None
        if self.horizon == AUTO:
            constants = self.constants(ell)
            certified = constants.horizon
            steps = max(1, math.floor(certified)) if math.isfinite(certified) else math.inf
        elif self.horizon == WINDOW:
            steps = max(1, math.ceil(ell))
        else:
            steps = self.horizon
        return (steps if steps <= self.max_steps else None), constants

    def family_member(self, ell: float) -> tuple[Process, DriftWindow]:
        """The configured process family at window length ell, on the window [0, ell]."""
        window = DriftWindow(0.0, float(ell))
        params = {**self.process_params, family_param(self.process_kind): ell}
        return make_process(self.process_kind, **params), window

    def provenance(self) -> dict:
        """Key-value pairs embedded in every CSV this experiment emits, in field order."""
        info = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "process_params":
                info.update((f"process.{key}", v) for key, v in sorted(value.items()))
            elif f.name == "ell_values":
                if value:
                    info["ell_values"] = ",".join(_fmt_number(v) for v in value)
            elif f.name != "description":
                info[_PROVENANCE_KEYS.get(f.name, f.name)] = value
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
            description="exact two-sided condition check in every state of the n=50 plateau EA inside (10, 16)",
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


#: config-file layout: section -> {key -> ExperimentConfig field}. [process]
#: also takes the parameters of its kind's constructor.
_LAYOUT = {
    "experiment": {"name": "name", "command": "command"},
    "process": {"kind": "process_kind"},
    "window": {"a": "window_a", "b": "window_b"},
    "conditions": {"eps": "eps", "delta": "delta", "r": "r", "j_max": "j_max"},
    "budget": {"trials": "trials", "max_steps": "max_steps", "master_seed": "master_seed"},
    "run": {"horizon": "horizon", "variant": "variant", "prob_target": "prob_target", "ell_values": "ell_values"},
}

_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _parse_field(name: str, raw: str):
    if name == "horizon":
        return raw if raw in (AUTO, WINDOW) else int(raw)
    if name == "ell_values":
        return tuple(float(v) for v in raw.split(",")) if raw else ()
    return _FIELD_TYPES[name](raw)


def load_config(path: str) -> ExperimentConfig:
    """Load an experiment from a sectioned key-value file.

    Each value is parsed by the type of its ExperimentConfig field, or of its
    constructor parameter under [process]; a key left out takes the field's
    default. An unknown section or key is an error, so a misspelt key cannot
    silently run the default in its place.
    """
    # values are plain numbers and names, so '%' is a literal character
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        # the parser's messages span several lines; the CLI reports one
        raise ValueError(f"malformed config file: {' '.join(str(exc).split())}") from None
    if not read:
        raise ValueError(f"config file {path!r} not found or empty")
    for section in parser.sections():
        if section not in _LAYOUT:
            raise ValueError(f"unknown config section [{section}]; known sections: {', '.join(_LAYOUT)}")
    if not parser.has_option("process", "kind"):
        raise ValueError("config file needs a [process] section with a 'kind' key")
    process_types = param_types(parser["process"]["kind"])
    process_params: dict = {}
    values = {"name": "config", "command": "simulate", "process_params": process_params}
    for section in parser.sections():
        keys = _LAYOUT[section]
        params = process_types if section == "process" else {}
        for key, raw in parser[section].items():
            if key not in keys and key not in params:
                known = ", ".join(sorted([*keys, *params]))
                raise ValueError(f"unknown key {key!r} in [{section}]; known keys: {known}")
            try:
                if key in params:
                    process_params[key] = params[key](raw)
                else:
                    values[keys[key]] = _parse_field(keys[key], raw)
            except ValueError as exc:
                raise ValueError(f"[{section}] {key}: {exc}") from None
    return ExperimentConfig(**values)
