"""Independent oracles used by the tests.

These deliberately avoid the library's own code paths: hit probabilities come
from dynamic programming over the step distribution, expectations from direct
summation, step laws of the bit-string EAs from enumerating every flip mask in
exact rational arithmetic, high-precision reference values from mpmath, the
needle's binomial draws from a transliteration of numpy's C sampler, and exact
condition checks from one masked sum per (state, tail index), or, where a check
must match bit for bit, from each law's own tail table.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from driftlab.conditions import FLOAT_SLACK, TWO_SIDED, ConditionReport, TailCheck
from driftlab.inequalities import E_LO
from driftlab.jumps import JumpDistribution
from driftlab.rng import generator, trial_seed

#: a check of PEA', which has no exact step law, so the check harvests steps
PEA_PRIME_CHECK_INI = (
    "[experiment]\nname = pea-prime-check\ncommand = check\n[process]\nkind = pea-prime\nn = 30\nmu = 2\n"
    "[window]\na = 2\nb = 14.5\n[conditions]\neps = 0.01\ndelta = 1\nr = 2\nj_max = 16\n"
    "[budget]\ntrials = 40\nmax_steps = 400\nmaster_seed = 6\n"
)


def replay_potentials(process, master_seed, index, steps, state=None):
    """Potentials of trial `index` over `steps` steps, drawn from the trial's own
    generator as the trial loop draws them but without its stopping rule.

    With `state` given, the path starts there and no initial state is drawn.
    """
    rng = generator(trial_seed(master_seed, index))
    if state is None:
        state = process.initial_state(rng)
    path = [process.potential(state)]
    for _ in range(steps):
        state = process.step(state, rng)
        path.append(process.potential(state))
    return path


def binomial_inversion(n, p, doubles):
    """numpy's random_binomial_inversion(n, p), line by line from numpy's
    distributions.c, taking each double it needs from the iterator `doubles`.
    It keeps its own px recurrence, and past `bound` it starts over with a
    fresh double. numpy's random_binomial takes this branch for n > 0 when
    p <= 1/2 and n p <= 30."""
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    np_ = n * p
    bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
    x = 0
    px = qn
    u = next(doubles)
    while u > px:
        x += 1
        if x > bound:
            x = 0
            px = qn
            u = next(doubles)
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def needle_generation(n, p, d, doubles):
    """The needle's distance after one generation from d on `doubles`: numpy's
    binomial(d, p) down, then binomial(n - d, p) up, where a count of 0 draws
    no double; the optimum d = 0 is kept and draws nothing."""
    if d == 0:
        return 0
    down = binomial_inversion(d, p, doubles)
    up = binomial_inversion(n - d, p, doubles) if n > d else 0
    return d - down + up


def needle_hit_time(n, p, d, a, max_steps, doubles):
    """First generation t in 1..max_steps after which the needle's distance,
    from d, is <= a, or None."""
    for t in range(1, max_steps + 1):
        d = needle_generation(n, p, d, doubles)
        if d <= a:
            return t
    return None


class PrescribedDoubles:
    """A stand-in for numpy's Generator whose random() and random(size) serve
    `doubles` in order, then a seeded PCG64 stream, `length` doubles in all."""

    def __init__(self, doubles, seed=0, length=1 << 17):
        doubles = list(doubles)
        self.doubles = doubles + np.random.default_rng(seed).random(length - len(doubles)).tolist()
        self.used = 0

    def random(self, size=None):
        count = 1 if size is None else size
        if self.used + count > len(self.doubles):
            raise IndexError("the prescribed stream is used up")
        self.used += count
        if size is None:
            return self.doubles[self.used - 1]
        return np.array(self.doubles[self.used - count:self.used])


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


def partial_factorial_sum(j, count):
    """sum_{k=0}^{count-1} 1/(k+j)! as an exact rational via integer Horner.

    With top = j + count - 1 the numerator over top! nests as
    1 + (j+1)(1 + (j+2)(... (1 + top))), built here factor by factor.
    """
    if count < 1:
        return Fraction(0)
    top = j + count - 1
    acc = 1
    for i in range(j + 1, top + 1):
        acc = acc * i + 1
    return Fraction(acc, math.factorial(top))


def diversity_fraction_links(phi, j, truncation=30):
    """The diversity chain at (phi, j) before the common factor 1/mu, in Fractions:
    (name, lhs, rhs, holds, note) per link. The series is cut after
    max(truncation, phi + 1) terms, with the remainder bound (1/t!) t/(t-1) at the
    first index t left out."""
    finite = partial_factorial_sum(j, phi + 1)
    terms = max(truncation, phi + 1)
    tail_start = j + terms
    remainder = Fraction(1, math.factorial(tail_start)) * Fraction(tail_start, tail_start - 1)
    infinite_upper = partial_factorial_sum(j, terms) + remainder
    closed = E_LO / math.factorial(j)
    reversed_sum = sum((Fraction(1, math.factorial(phi - k + j)) for k in range(phi + 1)), Fraction(0))
    return [
        ("diversity-finite-vs-infinite", finite, infinite_upper, finite <= infinite_upper,
         f"truncated after {terms} terms with certified remainder"),
        ("diversity-infinite-vs-closed-form", infinite_upper, closed, infinite_upper <= closed,
         "compared against a certified lower bound on e/j!"),
        ("diversity-reindexing-identity", reversed_sum, finite, reversed_sum == finite, "exact rational equality"),
    ]


def brute_expectation(values, probs, f):
    """Direct E(f(X)) for a finite distribution."""
    return float(sum(p * f(v) for v, p in zip(values, probs)))


def sample_steps(law, rng, size):
    """`size` independent steps drawn from a JumpDistribution."""
    return rng.choice(law.values, size=size, p=law.probs)


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


def bit_mutation_law(n, d, p):
    """{d': P} for one offspring of standard bit mutation at rate p (a Fraction):
    the parent differs from a target string in its first d bits, every one of
    the 2^n flip masks is weighted p^|mask| (1-p)^(n-|mask|) exactly, and d' is
    the number of bits in which the offspring differs from the target."""
    weights = [p**flips * (1 - p) ** (n - flips) for flips in range(n + 1)]
    parent = (1 << d) - 1
    law = {}
    for mask in range(1 << n):
        child = bin(parent ^ mask).count("1")
        law[child] = law.get(child, 0) + weights[bin(mask).count("1")]
    return law


def needle_step_oracle(n, d, p):
    """{step: P} of the (1+1) EA on the needle at distance d: the offspring
    replaces the parent unless it is worse, and every point but the optimum
    (distance 0) has the same fitness."""
    law = {}
    for child, prob in bit_mutation_law(n, d, p).items():
        fitness, parent_fitness = int(child == 0), int(d == 0)
        step = child - d if fitness >= parent_fitness else 0
        law[step] = law.get(step, 0) + prob
    return law


def comma_lambda_step_oracle(n, d, lam, p):
    """{step: P} of the (1,lambda) EA at zero-bit count d: every lambda-tuple of
    independent offspring, the parent replaced by the tuple's best (fewest zero
    bits)."""
    offspring = list(bit_mutation_law(n, d, p).items())
    law = {}
    for group in itertools.product(offspring, repeat=lam):
        best = min(child for child, _ in group)
        law[best - d] = law.get(best - d, 0) + math.prod(prob for _, prob in group)
    return law


def needle_step_exact(n, d):
    """({step: numerator}, n^n): the needle's step law at distance d > 0 with
    rate 1/n in integers. With U ~ Bin(n-d, 1/n) up and W ~ Bin(d, 1/n) down,
    n^n P(U - W = k) is the sum over w of C(n-d, k+w) C(d, w) (n-1)^(n-k-2w),
    taken by Horner's rule in (n-1)^2."""
    up = [math.comb(n - d, u) for u in range(n - d + 1)]
    down = [math.comb(d, w) for w in range(d + 1)]
    square = (n - 1) ** 2
    law = {}
    for k in range(-d, n - d + 1):
        w_lo, w_hi = max(0, -k), min(d, n - d - k)
        acc = 0
        for w in range(w_lo, w_hi + 1):
            acc = acc * square + up[k + w] * down[w]
        law[k] = acc * (n - 1) ** (n - k - 2 * w_hi)
    return law, n**n


def tail_reach(law, variant):
    """The largest j whose tail can be positive: the largest |step|, or for the
    one-sided variant the largest down-step, among steps of positive probability."""
    support = law.values[law.probs > 0]
    lowest, highest = float(support[0]), float(support[-1])
    return max(-lowest, highest) if variant == TWO_SIDED else -lowest


def reference_exact_check(laws, params, variant=TWO_SIDED, window=None):
    """check_conditions_exact's report, from one masked sum over the law's own
    values per (tail index, state) in a Python loop: P(|step| >= j) (1.0 at
    j <= 0) or P(step <= -j). It takes valid input only. The closest (state, j)
    is the first in the order j, then state, with the largest log-margin."""
    pairs = [(None, laws)] if isinstance(laws, JumpDistribution) else list(laws)
    drift, drift_state = math.inf, None
    for x, law in pairs:
        if (x is None or x < window.b) and (law_drift := law.drift()) < drift:
            drift, drift_state = law_drift, x
    drift_ok = drift >= params.eps or math.isclose(drift, params.eps, rel_tol=FLOAT_SLACK)
    indices = sorted(
        set(range(params.j_max + 1))
        | {float(m) for _, law in pairs for m in np.abs(law.values[law.probs > 0]) if m > params.j_max}
    )
    reaches = [tail_reach(law, variant) for _, law in pairs]
    tails = []
    worst = (None, None, None)
    for j in indices:
        log_bound = params.log_bound(j)
        largest, ok = 0.0, True
        for (x, law), reach in zip(pairs, reaches):
            if j > reach:
                continue
            if variant == TWO_SIDED:
                tail = 1.0 if j <= 0 else float(law.probs[np.abs(law.values) >= j].sum())
            else:
                tail = float(law.probs[law.values <= -j].sum())
            if tail <= 0.0:
                continue
            log_tail = math.log(tail)
            ok = ok and log_tail <= log_bound + FLOAT_SLACK
            if worst[0] is None or log_tail - log_bound > worst[0]:
                worst = (log_tail - log_bound, x, float(j))
            largest = max(largest, tail)
        tails.append(TailCheck(float(j), largest, params.bound(j), "pass" if ok else "fail"))
    return ConditionReport(
        variant=variant, mode="exact", params=params, drift=drift, drift_verdict="pass" if drift_ok else "fail",
        tails=tuple(tails), drift_state=drift_state, tail_log_margin=worst[0], tail_state=worst[1], tail_j=worst[2],
    )


def per_law_tails(law, js, one_sided=False):
    """P(|step| >= j), or P(step <= -j), at each j of js from the law's own tail
    table: the magnitudes of its steps of positive probability in a stable
    sort, and their suffix sums added from the largest magnitude down."""
    positive = law.probs > 0
    magnitudes = -law.values[positive] if one_sided else np.abs(law.values[positive])
    order = np.argsort(magnitudes, kind="stable")
    suffix = np.append(np.cumsum(law.probs[positive][order[::-1]])[::-1], 0.0)
    tails = suffix[np.searchsorted(magnitudes[order], js)]
    return tails if one_sided else np.where(js <= 0, 1.0, tails)


def per_law_exact_check(laws, params, variant=TWO_SIDED, window=None):
    """check_conditions_exact's report, from each law on its own: its drift
    `law.drift()`, and every tail from its own tail table (`per_law_tails`).
    These are the sums a table of laws must reproduce bit for bit. It takes
    valid input only."""
    pairs = [(None, laws)] if isinstance(laws, JumpDistribution) else list(laws)
    drift, drift_state = math.inf, None
    for x, law in pairs:
        if (x is None or x < window.b) and (law_drift := law.drift()) < drift:
            drift, drift_state = law_drift, x
    drift_ok = drift >= params.eps or math.isclose(drift, params.eps, rel_tol=FLOAT_SLACK)
    beyond = {float(m) for _, law in pairs for m in np.abs(law.values[law.probs > 0]).tolist() if m > params.j_max}
    js = np.array(sorted(set(range(params.j_max + 1)) | beyond), dtype=float)
    tails = np.array([per_law_tails(law, js, variant != TWO_SIDED) for _, law in pairs])
    largest = tails.max(axis=0)
    log_bounds = params.log_bound(js)
    with np.errstate(divide="ignore"):
        log_largest = np.log(largest)
    binding = {}
    if largest[k := int(np.argmax(log_largest - log_bounds))] > 0.0:
        j = float(js[k])
        binding = dict(tail_log_margin=math.log(largest[k]) - params.log_bound(j), tail_j=j,
                       tail_state=pairs[int(np.argmax(tails[:, k]))][0])
    return ConditionReport(
        variant=variant, mode="exact", params=params, drift=drift, drift_verdict="pass" if drift_ok else "fail",
        tails=tuple(TailCheck(j, tail, params.bound(j), "pass" if log_tail <= log_bound + FLOAT_SLACK else "fail")
                    for j, tail, log_tail, log_bound in zip(js.tolist(), largest.tolist(), log_largest.tolist(),
                                                            log_bounds.tolist())),
        drift_state=drift_state, **binding,
    )
