"""Process zoo: the absorbing counterexample chain, the signed-geometric drift
walk, and evolutionary algorithms lumped to their potential chains.

Every process is immutable after construction and steps via pure functions of
(state, generator), so trials parallelize safely. State-independent processes
expose an exact jump table; the evolutionary algorithms have state-dependent
step laws and are checked empirically instead.
"""

from __future__ import annotations

import inspect
import math
from abc import ABC, abstractmethod

import numpy as np

from .jumps import JumpDistribution

_LN8 = math.log(8.0)


class Process(ABC):
    """A stochastic process with a real-valued potential."""

    name = "process"
    #: reports flag any non-identity potential scale (e.g. log-transformed)
    potential_scale = "identity"
    #: constructor parameter that sets the window length ell of a scaling family
    #: (the window is [0, ell]); None when the process has no such family
    family_param = None

    @abstractmethod
    def initial_state(self, rng: np.random.Generator):
        ...

    @abstractmethod
    def potential(self, state) -> float:
        ...

    @abstractmethod
    def step(self, state, rng: np.random.Generator):
        ...

    def jump_table(self) -> JumpDistribution | None:
        """Exact step distribution when the law is state-independent, else None."""
        return None

    def absorbed(self, state) -> bool:
        """True once the state can never move again; sample harvesting restarts here."""
        return False


class ConstantWalk(Process):
    """Deterministic walk with a fixed step, for forced-path experiments and tests."""

    name = "constant"

    def __init__(self, step_size: float, start: float):
        self.step_size = float(step_size)
        self.start = float(start)

    def initial_state(self, rng):
        return self.start

    def potential(self, state) -> float:
        return float(state)

    def step(self, state, rng):
        return state + self.step_size

    def jump_table(self):
        return JumpDistribution(np.array([self.step_size]), np.array([1.0]))


class CounterexampleChain(Process):
    """Integer chain on ]0, n] with unit steps toward 0 and a rare huge jump away.

    Inside ]0, n] the chain moves +ceil(2*e^n) with probability e^{-n} and -1
    otherwise, which gives one-step drift of at least 1 away from the target,
    yet almost every run walks straight down to 0 in n steps. Outside ]0, n]
    the chain freezes. The up-jump is rounded up so states stay integral;
    rounding up only strengthens the drift. n is capped at 25 so every
    reachable state fits a 64-bit signed integer.
    """

    name = "counterexample"
    family_param = "n"

    def __init__(self, n: int):
        if n != int(n) or not 2 <= n <= 25:
            raise ValueError(f"n must be an integer in [2, 25], got {n}")
        self.n = int(n)
        self.up_prob = math.exp(-self.n)
        self.up_jump = math.ceil(2.0 * math.exp(self.n))

    def initial_state(self, rng):
        return self.n

    def potential(self, state) -> float:
        return float(state)

    def absorbed(self, state) -> bool:
        return not 0 < state <= self.n

    def step(self, state, rng):
        if not 0 < state <= self.n:
            return state
        if rng.random() < self.up_prob:
            return state + self.up_jump
        return state - 1

    def jump_table(self):
        """Exact transition law on the live region ]0, n]."""
        return JumpDistribution(
            np.array([-1.0, float(self.up_jump)]),
            np.array([1.0 - self.up_prob, self.up_prob]),
        )


class GeometricDriftWalk(Process):
    """Walk with signed geometric jumps P(step = ±j) = c_± (1+δ)^{-j} for j >= 1.

    The weights are pinned by normalization and the requested mean step:

        c_+ + c_- = δ,        c_+ - c_- = ε δ² / (1+δ),

    so the drift is exactly ε and the two-sided tail is exactly
    P(|step| >= j) = (c_+ + c_-) (1+δ)^{-(j-1)} / δ = (1+δ)^{1-j}. The
    exponential-tail condition therefore holds with constant r = 1 + δ at this
    δ, for every j >= 0.
    """

    name = "geometric-walk"
    family_param = "start"

    def __init__(self, eps: float, delta: float, start: float = 0.0):
        if eps <= 0 or delta <= 0:
            raise ValueError(f"need eps > 0 and delta > 0, got eps={eps}, delta={delta}")
        c_sum = delta
        c_diff = eps * delta * delta / (1.0 + delta)
        if c_diff > c_sum:
            raise ValueError(
                f"infeasible (eps={eps}, delta={delta}): the demanded drift exceeds "
                f"what geometric tails allow; need eps <= (1+delta)/delta = {(1 + delta) / delta}"
            )
        self.eps = float(eps)
        self.delta = float(delta)
        self.start = float(start)
        self.c_plus = (c_sum + c_diff) / 2.0
        self.c_minus = (c_sum - c_diff) / 2.0
        self.r = 1.0 + self.delta
        self._p_up = self.c_plus / delta
        self._p_geom = delta / (1.0 + delta)

    def initial_state(self, rng):
        return self.start

    def potential(self, state) -> float:
        return float(state)

    def step(self, state, rng):
        magnitude = rng.geometric(self._p_geom)
        if rng.random() < self._p_up:
            return state + magnitude
        return state - magnitude

    def exact_abs_tail(self, j: int) -> float:
        """Closed-form P(|step| >= j)."""
        if j <= 0:
            return 1.0
        return (self.c_plus + self.c_minus) * (1.0 + self.delta) ** (-(j - 1)) / self.delta

    def jump_table(self, mass_tol: float = 1e-16) -> JumpDistribution:
        """Table truncated once the omitted mass drops below mass_tol.

        The cap also covers the exponential-moment tail at gamma = ln(1+delta/2),
        which converges slower than the probability mass, so table-based moment
        sums stay accurate to roughly mass_tol as well.
        """
        gamma_rate = math.log1p(self.delta) - math.log1p(self.delta / 2.0)
        j_cap = max(
            64,
            math.ceil(-math.log(mass_tol) / math.log1p(self.delta)) + 1,
            math.ceil(-math.log(mass_tol) / gamma_rate) + 1,
        )
        j = np.arange(1, j_cap + 1, dtype=float)
        weights = (1.0 + self.delta) ** (-j)
        values = np.concatenate([-j[::-1], j])
        probs = np.concatenate([self.c_minus * weights[::-1], self.c_plus * weights])
        return JumpDistribution(values, probs)


class NeedleOneOneEA(Process):
    """(1+1) EA on a single-optimum plateau, lumped to the Hamming distance chain.

    All non-optimal points share one fitness value, so every offspring is
    accepted and the distance d to the optimum evolves as

        d' = d - Binomial(d, rate) + Binomial(n - d, rate),

    the exact image of standard bit mutation under exchangeability of bit
    positions. The optimum itself is kept once reached. Runs start from a
    uniform random bitstring, i.e. d0 ~ Binomial(n, 1/2).
    """

    name = "needle"

    def __init__(self, n: int, mutation_rate: float | None = None):
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        self.n = int(n)
        self.mutation_rate = 1.0 / self.n if mutation_rate is None else float(mutation_rate)
        if not 0.0 < self.mutation_rate < 1.0:
            raise ValueError(f"mutation_rate must be in (0, 1), got {self.mutation_rate}")

    def initial_state(self, rng):
        return int(rng.binomial(self.n, 0.5))

    def potential(self, state) -> float:
        return float(state)

    def absorbed(self, state) -> bool:
        return state == 0

    def step(self, state, rng):
        if state == 0:
            return 0
        down = rng.binomial(state, self.mutation_rate)
        up = rng.binomial(self.n - state, self.mutation_rate)
        return state - down + up


class OneCommaLambdaEA(Process):
    """(1,λ) EA on a one-count objective, lumped to the zero-bit count chain.

    Each generation draws λ offspring by standard bit mutation and promotes the
    best offspring, never the parent. Tie-breaking among equally good offspring
    is uniform in the bitstring picture and has no effect on the count chain.
    """

    name = "one-comma-lambda"

    def __init__(self, n: int, lambda_offspring: int, mutation_rate: float | None = None):
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        if lambda_offspring < 1:
            raise ValueError(f"lambda_offspring must be >= 1, got {lambda_offspring}")
        self.n = int(n)
        self.lambda_offspring = int(lambda_offspring)
        self.mutation_rate = 1.0 / self.n if mutation_rate is None else float(mutation_rate)
        if not 0.0 < self.mutation_rate < 1.0:
            raise ValueError(f"mutation_rate must be in (0, 1), got {self.mutation_rate}")

    def initial_state(self, rng):
        return int(rng.binomial(self.n, 0.5))

    def potential(self, state) -> float:
        return float(state)

    def step(self, state, rng):
        return self.generation(state, rng)[0]

    def generation(self, state, rng) -> tuple[int, bool]:
        """One generation; also reports whether any offspring was an exact copy."""
        best = None
        saw_copy = False
        for _ in range(self.lambda_offspring):
            down = rng.binomial(state, self.mutation_rate)
            up = rng.binomial(self.n - state, self.mutation_rate)
            if down == 0 and up == 0:
                saw_copy = True
            candidate = state - down + up
            if best is None or candidate < best:
                best = candidate
        return int(best), saw_copy

    def copy_probability(self) -> float:
        """P(at least one offspring is an unmutated copy of the parent)."""
        p_copy = (1.0 - self.mutation_rate) ** self.n
        return 1.0 - (1.0 - p_copy) ** self.lambda_offspring


def pea_prime_selection(fitnesses) -> np.ndarray:
    """Selection distribution that discounts the best individual by 1/μ and
    spreads that mass evenly over the rest.

    Requires positive fitnesses sorted non-increasingly. The best individual's
    share f_1/f_tot is at least 1/μ (the maximum is at least the mean), so all
    entries are non-negative and the vector sums to one.
    """
    f = np.asarray(fitnesses, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise ValueError("need a 1-d fitness vector with at least two entries")
    if np.any(f <= 0):
        raise ValueError("fitnesses must be positive")
    if np.any(np.diff(f) > 0):
        raise ValueError("fitnesses must be sorted non-increasingly")
    return _discount_best(f, float(f.sum()))


def _discount_best(f: np.ndarray, f_tot: float) -> np.ndarray:
    """Proportional shares f/f_tot with 1/μ taken from the first (best) entry
    and spread evenly over the other μ-1."""
    mu = f.size
    q = f / f_tot + 1.0 / (mu * (mu - 1))
    q[0] = f[0] / f_tot - 1.0 / mu
    return q


class FitnessProportionalEA(Process):
    """Generational μ-population EA with proportional selection on a one-count
    objective, lumped to the sorted vector of per-individual one-counts.

    The potential is log_8 of sum_i 8^{count_i}, evaluated with log-sum-exp so
    that counts near n never overflow. Condition checks on this process
    therefore operate on the log-potential scale.

    With force_best_mutation the generation mutates the current best first and
    draws the remaining μ-1 parents from the reweighted distribution of
    pea_prime_selection; otherwise all μ parents are plain proportional draws.
    """

    potential_scale = "log8"

    def __init__(self, n: int, mu: int, force_best_mutation: bool, mutation_rate: float | None = None):
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        if mu < 2:
            raise ValueError(f"mu must be >= 2, got {mu}")
        self.n = int(n)
        self.mu = int(mu)
        self.force_best_mutation = bool(force_best_mutation)
        self.mutation_rate = 1.0 / self.n if mutation_rate is None else float(mutation_rate)
        if not 0.0 < self.mutation_rate < 1.0:
            raise ValueError(f"mutation_rate must be in (0, 1), got {self.mutation_rate}")
        self.name = "pea-prime" if force_best_mutation else "pea"

    def initial_state(self, rng):
        counts = [int(rng.binomial(self.n, 0.5)) for _ in range(self.mu)]
        return tuple(sorted(counts, reverse=True))

    def potential(self, state) -> float:
        """log_8 of sum_i 8^{count_i} via log-sum-exp."""
        counts = np.asarray(state, dtype=float)
        m = counts.max()
        return float(m + math.log(np.exp((counts - m) * _LN8).sum()) / _LN8)

    def selection_weights(self, state) -> np.ndarray:
        f = np.asarray(state, dtype=float)
        f_tot = float(f.sum())
        if f_tot <= 0.0:
            return np.full(self.mu, 1.0 / self.mu)
        if not self.force_best_mutation:
            return f / f_tot
        return _discount_best(f, f_tot)

    def _mutate(self, count: int, rng) -> int:
        down = rng.binomial(count, self.mutation_rate)
        up = rng.binomial(self.n - count, self.mutation_rate)
        return count - down + up

    def generation(self, state, rng) -> tuple[tuple, np.ndarray]:
        """One generation; returns the sorted offspring counts and how often each
        parent index (in sorted order) was selected for mutation."""
        selected = np.zeros(self.mu, dtype=np.int64)
        offspring = []
        draws = self.mu
        if self.force_best_mutation:
            selected[0] += 1
            offspring.append(self._mutate(state[0], rng))
            draws -= 1
        cdf = np.cumsum(self.selection_weights(state))
        for _ in range(draws):
            idx = int(np.searchsorted(cdf, rng.random()))
            idx = min(idx, self.mu - 1)
            selected[idx] += 1
            offspring.append(self._mutate(state[idx], rng))
        return tuple(sorted(offspring, reverse=True)), selected

    def step(self, state, rng):
        return self.generation(state, rng)[0]


def pea(n: int, mu: int) -> FitnessProportionalEA:
    return FitnessProportionalEA(n, mu, force_best_mutation=False)


def pea_prime(n: int, mu: int) -> FitnessProportionalEA:
    return FitnessProportionalEA(n, mu, force_best_mutation=True)


_FACTORIES = {
    "constant": ConstantWalk,
    "counterexample": CounterexampleChain,
    "geometric-walk": GeometricDriftWalk,
    "needle": NeedleOneOneEA,
    "one-comma-lambda": OneCommaLambdaEA,
    "pea": pea,
    "pea-prime": pea_prime,
}


def _factory(kind: str):
    try:
        return _FACTORIES[kind]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise ValueError(f"unknown process kind {kind!r}; known kinds: {known}") from None


def make_process(kind: str, **params) -> Process:
    """Build a registered process by name; used by the CLI and preset registry."""
    factory = _factory(kind)
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as exc:
        raise ValueError(f"process kind {kind!r}: {exc}") from None
    return factory(**params)


def param_types(kind: str) -> dict[str, type]:
    """How each constructor parameter of `kind` is read from text: int for an
    `int` annotation, float for any other."""
    signature = inspect.signature(_factory(kind), eval_str=True)
    return {name: int if p.annotation is int else float for name, p in signature.parameters.items()}


def family_param(kind: str) -> str:
    """Name of the parameter that sets the window length of `kind`'s scaling family."""
    name = getattr(_factory(kind), "family_param", None)
    if name is None:
        raise ValueError(f"process kind {kind!r} has no scaling family parameterization")
    return name
