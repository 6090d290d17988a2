"""Independent oracles used by the tests.

These deliberately avoid the library's own code paths: hit probabilities come
from dynamic programming over the step distribution, expectations from direct
summation, and high-precision reference values from mpmath.
"""

import numpy as np

from driftlab.rng import generator, trial_seed


def replay_potentials(process, master_seed, index, steps):
    """Potentials of trial `index` over `steps` steps, drawn from the trial's own
    generator as the trial loop draws them but without its stopping rule."""
    rng = generator(trial_seed(master_seed, index))
    state = process.initial_state(rng)
    path = [process.potential(state)]
    for _ in range(steps):
        state = process.step(state, rng)
        path.append(process.potential(state))
    return path


def geometric_step_pmf(eps, delta, j_cap=200):
    """Step pmf of the signed geometric walk as (offsets, probs) arrays."""
    c_sum = delta
    c_diff = eps * delta * delta / (1.0 + delta)
    c_plus, c_minus = (c_sum + c_diff) / 2.0, (c_sum - c_diff) / 2.0
    j = np.arange(1, j_cap + 1, dtype=float)
    w = (1.0 + delta) ** (-j)
    pmf = np.zeros(2 * j_cap + 1)
    pmf[j_cap + np.arange(1, j_cap + 1)] = c_plus * w
    pmf[j_cap - np.arange(1, j_cap + 1)] = c_minus * w
    return pmf, j_cap


def hit_probability_within(eps, delta, ell, horizon, upper=600, j_cap=200):
    """Exact P(walk descends by >= ell within `horizon` steps), by DP convolution.

    Positions above `upper` are clamped onto the top cell, which can only
    overestimate the hit probability; with the defaults the clamping error is
    far below double precision for the horizons used in tests.
    """
    pmf, jc = geometric_step_pmf(eps, delta, j_cap)
    n_pos = ell + upper + 1  # index i <-> position i - ell; pos <= -ell is a hit
    dist = np.zeros(n_pos)
    dist[ell] = 1.0
    hit = 0.0
    for _ in range(horizon):
        full = np.convolve(dist, pmf)  # full[f] <-> position f - jc - ell
        hit += full[: jc + 1].sum()
        nxt = np.zeros(n_pos)
        nxt[1:] = full[jc + 1 : jc + n_pos]
        nxt[-1] += full[jc + n_pos :].sum()
        dist = nxt
    return float(hit)


def brute_expectation(values, probs, f):
    """Direct E(f(X)) for a finite distribution."""
    return float(sum(p * f(v) for v, p in zip(values, probs)))


def random_discrete_distribution(rng, x_min, span=20, max_support=20):
    """Random integer-valued distribution on [x_min, x_min + span - 1]."""
    size = rng.integers(1, max_support + 1)
    points = rng.choice(np.arange(span), size=size, replace=False)
    weights = rng.random(size) + 1e-3
    probs = weights / weights.sum()
    values = x_min + points
    order = np.argsort(values)
    return values[order].astype(float), probs[order]


def random_nondecreasing_step_function(rng, x_min, span=20, scale=5.0):
    """Random non-negative non-decreasing step function on x_min .. x_min + span + 1.

    Non-negativity matters: the tail-sum bound only dominates the expectation
    for non-negative f.
    """
    increments = rng.random(span + 2) * scale
    base = rng.random() * scale
    levels = base + np.concatenate([[0.0], np.cumsum(increments[:-1])])
    xs = x_min + np.arange(span + 2)

    def f(x):
        idx = int(np.searchsorted(xs, x, side="right")) - 1
        idx = min(max(idx, 0), len(levels) - 1)
        return float(levels[idx])

    return f


def config_file_text(config):
    """`config` written key by key in the INI layout README documents, without
    the loader's own tables. Floats are written with repr, so they read back
    exactly; the description has no key and is left out."""
    lines = [
        "[experiment]",
        f"name = {config.name}",
        f"command = {config.command}",
        "[process]",
        f"kind = {config.process_kind}",
        *(f"{key} = {value!r}" for key, value in config.process_params.items()),
        "[window]",
        f"a = {config.window_a!r}",
        f"b = {config.window_b!r}",
        "[conditions]",
        f"eps = {config.eps!r}",
        f"delta = {config.delta!r}",
        f"r = {config.r!r}",
        f"j_max = {config.j_max}",
        "[budget]",
        f"trials = {config.trials}",
        f"max_steps = {config.max_steps}",
        f"master_seed = {config.master_seed}",
        "[run]",
        f"horizon = {config.horizon}",
        f"variant = {config.variant}",
        f"prob_target = {config.prob_target!r}",
    ]
    if config.ell_values:
        lines.append("ell_values = " + ",".join(repr(v) for v in config.ell_values))
    return "\n".join(lines) + "\n"
