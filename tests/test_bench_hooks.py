"""The names the benchmark's traced run binds in driftlab still exist.

`perfbench/tracing.py` wraps library functions by name (`harvest_step_samples`,
`check_conditions_empirical`, `mean_t_interval`, `rng.generator`, the sweeps,
...) and times fixed-seed step and constants loops. Renaming or deleting one of
those names breaks the traced benchmark run; this test makes it break here first.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def test_wrappers_bind_every_traced_name():
    tracer = tracing.Tracer("t")
    wrappers = tracing._wrappers(tracer)
    assert wrappers and all(callable(fn) and callable(w) for fn, w in wrappers.items())
    with tracing.instrumented(tracer):
        pass


@pytest.mark.parametrize("kind", sorted(tracing.STEP_LOOPS))
def test_step_loops_run(kind):
    params, _ = tracing.STEP_LOOPS[kind]
    us = tracing._step_us(kind, params, 10)
    assert 0 < us < math.inf


def test_derive_constants_loop_runs():
    assert 0 < tracing._derive_constants_us(1) < math.inf
