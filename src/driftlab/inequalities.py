"""Exact verification of the inequality chains behind the revisited applications.

Every chain is split into its individual links; a report never collapses a
multi-link chain into one comparison. Links are decided in exact integer or
rational arithmetic wherever factorials and binomials stay tractable
(transcendental constants enter through certified rational bounds), and in
log-gamma float arithmetic beyond that, where the margins are wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

# Certified rational bounds on e: the truncated series is a lower bound and the
# remainder after 30 terms is below 2/31!.
E_LO = sum(Fraction(1, math.factorial(i)) for i in range(31))
E_HI = E_LO + Fraction(2, math.factorial(31))

#: exact integer threshold below which links are decided in int/Fraction arithmetic
EXACT_LIMIT = 1000
#: the largest n of the mutation chain
MUTATION_N_LIMIT = 10_000
#: grid points per decade of the log-sampled sweep axes
_PER_DECADE = 8


class InequalityResult(NamedTuple):
    """One link lhs <= rhs of a chain, with its margin and verification note."""

    name: str
    parameters: dict
    lhs: float
    rhs: float
    holds: bool
    note: str = ""

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def _log_binom(n: int, j: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)


def _mutation_comparisons(n: int, j: int) -> tuple[bool, bool, str, float, float, float]:
    """Verdicts of C(n,j) n^{-j} <= 1/j! and 1/j! <= 2 (1/2)^j for 0 <= j <= n,
    their note, and the three sides C(n,j) n^{-j}, 1/j! and 2 (1/2)^j as floats."""
    if n <= EXACT_LIMIT:
        holds1 = math.comb(n, j) * math.factorial(j) <= n**j
        holds2 = 2**j <= 2 * math.factorial(j)
        note = "exact integer comparison"
    else:
        holds1 = _log_binom(n, j) - j * math.log(n) <= -math.lgamma(j + 1) + 1e-9
        holds2 = (j - 1) * math.log(2.0) <= math.lgamma(j + 1) + 1e-9
        note = "log-gamma comparison"
    binomial = _safe_exp(_log_binom(n, j) - j * math.log(n))
    inv_factorial = _safe_exp(-math.lgamma(j + 1))
    geometric = _safe_exp((1 - j) * math.log(2.0))
    return holds1, holds2, note, binomial, inv_factorial, geometric


def mutation_tail_chain(n: int, j: int) -> list[InequalityResult]:
    """Links C(n,j) n^{-j} <= 1/j! and 1/j! <= 2 (1/2)^j of the standard-bit-
    mutation tail bound. Both links hold with equality at j = 1."""
    if not 1 <= j <= n <= MUTATION_N_LIMIT:
        raise ValueError(f"need 1 <= j <= n <= 10^4, got n={n}, j={j}")
    params = {"n": n, "j": j}
    holds1, holds2, note, binomial, inv_factorial, geometric = _mutation_comparisons(n, j)
    return [
        InequalityResult(
            "mutation-binomial-vs-factorial",
            params,
            binomial,
            inv_factorial,
            holds1,
            note,
        ),
        InequalityResult(
            "mutation-factorial-vs-geometric",
            params,
            inv_factorial,
            geometric,
            holds2,
            note,
        ),
    ]


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _matching_sum_links(m: int, h: int, j_values: range) -> list[InequalityResult]:
    """Sum link sum_{i=j}^{m-j} x^i <= m x^j (x = 2h/m^2) and the simplification
    m x^j <= m^{-(j-1)} for each j of `j_values`; the sum is empty for j > m/2 and
    then trivially 0. The exact powers (2h)^j and m^j are carried across j."""
    p, q = 2 * h, m * m
    x = p / q
    results = []
    p_j, m_j = p ** j_values.start, m ** j_values.start
    for j in j_values:
        params = {"m": m, "h": h, "j": j}
        x_j = x**j
        upper = m - j
        if j > upper:
            lhs_sum = 0.0
            holds_sum = True
            note = "empty summation range, sum is 0"
        else:
            k = upper - j
            q_k = q**k
            sum_num = (q_k * q - p ** (k + 1)) // (q - p)
            holds_sum = sum_num <= m * q_k
            lhs_sum = x_j * float(sum_num) / float(q_k) if q_k < 2**1000 else x_j / (1 - x)
            sharper = x_j / (1.0 - x)
            note = f"exact integer comparison; sharper geometric bound {sharper!r}"
        rhs_sum = m * x_j
        largest_rhs = m ** (-(j - 1)) if j >= 1 else float(m)
        holds_largest = p_j <= m_j
        p_j *= p
        m_j *= m
        results.append(
            InequalityResult("matching-sum-vs-largest-term", params, lhs_sum, rhs_sum, holds_sum, note)
        )
        results.append(
            InequalityResult(
                "matching-largest-term-vs-power",
                params,
                rhs_sum,
                largest_rhs,
                holds_largest,
                "exact integer comparison",
            )
        )
    return results


def matching_ratio_link(m: int, j: int) -> InequalityResult:
    """Relevant-step ratio link min(1, e m^{3-j}) <= 22 (1/2)^j, valid for every
    j >= 0 once m >= 2; tightest at m = 2 where it reduces to 8e <= 22."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    params = {"m": m, "j": j}
    if j <= 3:
        lhs_frac = min(Fraction(1), E_HI * m ** (3 - j))
    else:
        lhs_frac = min(Fraction(1), E_HI / m ** (j - 3))
    rhs_frac = Fraction(22, 2**j)
    return InequalityResult(
        "matching-ratio-vs-geometric",
        params,
        float(lhs_frac),
        float(rhs_frac),
        lhs_frac <= rhs_frac,
        note="rational comparison with certified upper bound on e",
    )


def matching_jump_bound(m: int, h: int, j: int) -> list[InequalityResult]:
    """Full chain for the augmenting-path jump bound with path length m and at
    most 2h single-step extensions: the geometric sum link, its power-of-m
    simplification, and the relevant-step ratio link.

    Requires 2h <= m; the per-step factor (2h)/m^2 must stay at most 1/m. The
    summation range is empty for j > m/2 and the sum link is then trivial.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if 2 * h > m:
        raise ValueError(f"the bound needs 2h <= m, got 2h={2 * h} > m={m}")
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    results = _matching_sum_links(m, h, range(j, j + 1))
    results.append(matching_ratio_link(m, j))
    return results


def _partial_factorial_sum(j: int, count: int) -> Fraction:
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


_DIVERSITY_TRUNC = 30


def _diversity_terms(phi: int, j: int) -> tuple:
    """The links of the diversity chain at (phi, j) before the common factor 1/mu:
    (name, lhs, rhs, holds, note) with exact rational sides. None of it depends on mu."""
    finite = _partial_factorial_sum(j, phi + 1)
    terms = max(_DIVERSITY_TRUNC, phi + 1)
    tail_start = j + terms
    remainder = Fraction(1, math.factorial(tail_start)) * Fraction(tail_start, tail_start - 1)
    infinite_upper = _partial_factorial_sum(j, terms) + remainder
    closed = E_LO / math.factorial(j)
    reversed_sum = sum(
        (Fraction(1, math.factorial(phi - k + j)) for k in range(phi + 1)), Fraction(0)
    )
    return (
        (
            "diversity-finite-vs-infinite",
            finite,
            infinite_upper,
            finite <= infinite_upper,
            f"truncated after {terms} terms with certified remainder",
        ),
        (
            "diversity-infinite-vs-closed-form",
            infinite_upper,
            closed,
            infinite_upper <= closed,
            "compared against a certified lower bound on e/j!",
        ),
        ("diversity-reindexing-identity", reversed_sum, finite, reversed_sum == finite, "exact rational equality"),
    )


def _diversity_links(terms: tuple, mu: int, phi: int, j: int) -> list[InequalityResult]:
    """The diversity chain at (mu, phi, j) from _diversity_terms(phi, j). Each side
    is the exact rational num/den divided by mu, and num / (den * mu) is its
    correctly rounded float, as float(Fraction(num, den) / mu) is."""
    params = {"mu": mu, "phi": phi, "j": j}
    return [
        InequalityResult(
            name,
            params,
            lhs.numerator / (lhs.denominator * mu),
            rhs.numerator / (rhs.denominator * mu),
            holds,
            note,
        )
        for name, lhs, rhs, holds, note in terms
    ]


def diversity_bound(mu: int, phi: int, j: int) -> list[InequalityResult]:
    """Chain for the population-diversity potential: the finite selection sum,
    its extension to the infinite factorial series, the closed bound e/j!, and
    the reindexing identity over the finite range."""
    if mu < 1 or phi < 0 or j < 1:
        raise ValueError(f"need mu >= 1, phi >= 0, j >= 1, got mu={mu}, phi={phi}, j={j}")
    return _diversity_links(_diversity_terms(phi, j), mu, phi, j)


#: 1 - 1/(2e), the self-loop constant of the offspring-population bound
_SELF_LOOP_C = 1.0 - 0.5 * math.exp(-1.0)


def comma_lambda_bounds(n: int, lambda_offspring: int, j: int) -> list[InequalityResult]:
    """Chain for the single-parent multi-offspring EA: the offspring union
    bound, the factorial and geometric simplifications, the self-loop lower
    bound via (1 - 1/n)^n >= 1/(2e), and the combined ratio link."""
    if n < 2 or lambda_offspring < 1 or not 0 <= j <= n:
        raise ValueError(
            f"need n >= 2, lambda >= 1, 0 <= j <= n, got n={n}, lambda={lambda_offspring}, j={j}"
        )
    lam = lambda_offspring
    params = {"n": n, "lambda": lam, "j": j}
    # lambda cancels from both links, so they are the mutation chain's comparisons:
    # union bound lambda C(n,j) n^-j <= lambda/j!, then lambda/j! <= 2 lambda (1/2)^j
    holds1, holds2, note, binomial, inv_factorial, geometric = _mutation_comparisons(n, j)
    lhs1, rhs1, rhs2 = lam * binomial, lam * inv_factorial, lam * geometric
    results = [
        InequalityResult("comma-lambda-union-vs-factorial", params, lhs1, rhs1, holds1, note),
        InequalityResult(
            "comma-lambda-factorial-vs-geometric", params, rhs1, rhs2, holds2, note
        ),
    ]

    # self-loop premise (1 - 1/n)^n >= 1/(2e)
    stay = (1.0 - 1.0 / n) ** n
    inv_2e = 0.5 * math.exp(-1.0)
    if n <= EXACT_LIMIT:
        holds3 = 2 * E_LO.numerator * (n - 1) ** n >= E_LO.denominator * n**n
        note3 = "exact integer comparison with certified lower bound on e"
    else:
        holds3 = n * math.log1p(-1.0 / n) >= -math.log(2.0) - 1.0 + 1e-12 or stay >= inv_2e
        note3 = "float comparison, margin is a factor approaching 2"
    results.append(
        InequalityResult(
            "comma-lambda-self-loop-premise", params, inv_2e, stay, bool(holds3), note3
        )
    )

    # self-loop probability lower bound 1 - (1 - (1-1/n)^n)^lambda >= 1 - c^lambda
    p_loop = 1.0 - (1.0 - stay) ** lam
    floor = 1.0 - _SELF_LOOP_C**lam
    results.append(
        InequalityResult(
            "comma-lambda-self-loop-floor",
            params,
            floor,
            p_loop,
            floor <= p_loop,
        )
    )

    # combined ratio link: (2 lambda 2^-j) / p_loop <= (2 lambda / (1 - c^lambda)) 2^-j
    lhs5 = rhs2 / p_loop
    rhs5 = rhs2 / floor
    results.append(
        InequalityResult("comma-lambda-ratio-chain", params, lhs5, rhs5, lhs5 <= rhs5)
    )
    return results


@dataclass(frozen=True)
class SelectionAudit:
    """Expected selection counts E(S_i) of the reweighted proportional EA."""

    expected: tuple[float, ...]
    premise_ok: bool
    premise_notes: tuple[str, ...]
    links: tuple[InequalityResult, ...]
    sum_is_population_size: bool


def pea_prime_expected_selections(fitnesses, mu: Optional[int] = None) -> SelectionAudit:
    """Closed-form E(S_i) for the always-mutate-best selection scheme.

    E(S_1) = 1 + (mu-1) f_1/f_tot - (mu-1)/mu and
    E(S_i) = (mu-1) f_i/f_tot + 1/mu for i >= 2; the counts always sum to mu
    exactly. The bound E(S_i) <= 2 is asserted under the premises
    f_i/f_tot <= 2/mu for all i and f_1/f_tot >= 1/mu; premise violations are
    reported as "premise-fail" on the links, distinct from a failed inequality.
    """
    f = [Fraction(float(v)) for v in fitnesses]
    if mu is None:
        mu = len(f)
    if mu != len(f) or mu < 2:
        raise ValueError(f"need a fitness vector of length mu >= 2, got {len(f)} entries")
    if any(v <= 0 for v in f):
        raise ValueError("fitnesses must be positive")
    if any(f[i] < f[i + 1] for i in range(mu - 1)):
        raise ValueError("fitnesses must be sorted non-increasingly")
    f_tot = sum(f)
    shares = [v / f_tot for v in f]
    premise_notes = []
    if shares[0] < Fraction(1, mu):
        premise_notes.append(f"f_1/f_tot = {float(shares[0])!r} < 1/mu")
    for i, s in enumerate(shares):
        if s > Fraction(2, mu):
            premise_notes.append(f"f_{i + 1}/f_tot = {float(s)!r} > 2/mu")
    premise_ok = not premise_notes
    expected = [Fraction(1) + (mu - 1) * shares[0] - Fraction(mu - 1, mu)]
    expected += [(mu - 1) * s + Fraction(1, mu) for s in shares[1:]]
    note = "" if premise_ok else "premise-fail: " + "; ".join(premise_notes)
    links = [
        InequalityResult(
            "pea-prime-expected-selections",
            {"mu": mu, "i": i + 1},
            float(e),
            2.0,
            e <= 2,
            note=note,
        )
        for i, e in enumerate(expected)
    ]
    total = sum(expected)
    links.append(
        InequalityResult(
            "selection-count-conservation",
            {"mu": mu},
            float(total),
            float(mu),
            total == mu,
            note="exact rational equality" if total == mu else "conservation violated",
        )
    )
    return SelectionAudit(
        expected=tuple(float(e) for e in expected),
        premise_ok=premise_ok,
        premise_notes=tuple(premise_notes),
        links=tuple(links),
        sum_is_population_size=total == mu,
    )


@dataclass(frozen=True)
class SweepGrid:
    """Upper ends of the sweep grids; every sweep takes the whole grid and reads
    the fields it needs. n_max bounds both the mutation and the comma-lambda n."""

    n_max: int = 200
    m_max: int = 200
    mu_max: int = 20
    phi_max: int = 50
    lambda_max: int = 64
    j_max: int = 64


def _outer_loop(suite: str, grid: SweepGrid) -> tuple[str, Sequence[int], int]:
    """The grid field that bounds a sweep's outermost loop, the values the loop takes
    on `grid`, and how many of them make one slab."""
    if suite == "mutation":
        return "n_max", range(1, grid.n_max + 1), 10
    if suite == "matching":
        return "m_max", range(2, grid.m_max + 1), 1
    if suite == "diversity":
        return "phi_max", range(0, grid.phi_max + 1), 1
    if suite == "comma-lambda":
        return "n_max", log_spaced_integers(2, grid.n_max), 1
    raise ValueError(f"unknown sweep {suite!r}; known: {', '.join(SWEEPS)}")


def _slab(suite: str, grid: SweepGrid, slab: Optional[int]) -> Sequence[int]:
    """The outer-loop values of slab number `slab`, or all of them for None."""
    _, values, size = _outer_loop(suite, grid)
    return values if slab is None else values[slab * size : (slab + 1) * size]


def slab_count(suite: str, grid: SweepGrid) -> int:
    """Number of slabs of SWEEPS[suite] on `grid`."""
    _, values, size = _outer_loop(suite, grid)
    return -(-len(values) // size)


#: per sweep, the least value of each grid field bounding an inner loop for
#: which that loop is not empty
_INNER_MINIMA = {
    "mutation": {},
    "matching": {"j_max": 0},
    "diversity": {"mu_max": 1, "j_max": 1},
    "comma-lambda": {"lambda_max": 1, "j_max": 0},
}


def check_grid(suite: str, grid: SweepGrid) -> None:
    """Raise ValueError, naming the grid field, when SWEEPS[suite] would check no
    link on `grid` or would reach a mutation link beyond MUTATION_N_LIMIT. The
    sweeps themselves accept any grid and yield nothing for an empty one."""
    field, values, _ = _outer_loop(suite, grid)
    if not values:
        raise ValueError(f"the {suite} sweep checks no links at {field}={getattr(grid, field)}")
    for name, lo in _INNER_MINIMA[suite].items():
        value = getattr(grid, name)
        if value < lo:
            raise ValueError(f"the {suite} sweep checks no links unless {name} >= {lo}, got {name}={value}")
    if suite == "mutation" and grid.n_max > MUTATION_N_LIMIT:
        raise ValueError(f"the mutation sweep needs n_max <= {MUTATION_N_LIMIT}, got n_max={grid.n_max}")


def sweep_mutation(grid: SweepGrid = SweepGrid(), slab: Optional[int] = None) -> Iterator[InequalityResult]:
    """All mutation-chain links for 1 <= j <= n <= n_max; a slab holds a block of n."""
    for n in _slab("mutation", grid, slab):
        for j in range(1, n + 1):
            yield from mutation_tail_chain(n, j)


def sweep_matching(grid: SweepGrid = SweepGrid(), slab: Optional[int] = None) -> Iterator[InequalityResult]:
    """All matching-chain links for 2 <= m <= m_max, 1 <= h <= m/2, 0 <= j <= j_max;
    a slab holds one m.

    The ratio link does not depend on h and is emitted once per (m, j)."""
    j_values = range(0, grid.j_max + 1)
    for m in _slab("matching", grid, slab):
        for j in j_values:
            yield matching_ratio_link(m, j)
        for h in range(1, m // 2 + 1):
            yield from _matching_sum_links(m, h, j_values)


#: the diversity sweep stops at this tail index whatever the grid's j_max
_DIVERSITY_J_CAP = 20


def sweep_diversity(grid: SweepGrid = SweepGrid(), slab: Optional[int] = None) -> Iterator[InequalityResult]:
    """All diversity-chain links for 0 <= phi <= phi_max, 1 <= j <= min(j_max, 20),
    1 <= mu <= mu_max; a slab holds one phi."""
    for phi in _slab("diversity", grid, slab):
        for j in range(1, min(grid.j_max, _DIVERSITY_J_CAP) + 1):
            terms = _diversity_terms(phi, j)
            for mu in range(1, grid.mu_max + 1):
                yield from _diversity_links(terms, mu, phi, j)


def log_spaced_integers(lo: int, hi: int) -> list[int]:
    """Distinct integers covering [lo, hi] roughly uniformly in log space."""
    if lo > hi:
        return []
    count = max(2, int(_PER_DECADE * math.log10(max(hi / lo, 10.0))) + 1)
    grid = np.unique(np.round(np.geomspace(lo, hi, count)).astype(int))
    return [int(v) for v in grid if lo <= v <= hi]


def sweep_comma_lambda(grid: SweepGrid = SweepGrid(), slab: Optional[int] = None) -> Iterator[InequalityResult]:
    """Comma-lambda chain over log-sampled 2 <= n <= n_max and full lambda/j grids;
    a slab holds one n."""
    lambdas = log_spaced_integers(1, grid.lambda_max)
    for n in _slab("comma-lambda", grid, slab):
        for lam in lambdas:
            for j in range(0, min(grid.j_max, n) + 1):
                yield from comma_lambda_bounds(n, lam, j)


SWEEPS = {
    "mutation": sweep_mutation,
    "matching": sweep_matching,
    "diversity": sweep_diversity,
    "comma-lambda": sweep_comma_lambda,
}
"""Each sweep takes the grid and an optional slab number. SWEEPS[suite](grid) is
the in-order concatenation of SWEEPS[suite](grid, slab=k) for k in
range(slab_count(suite, grid)): slabs cut the sweep's outermost loop, so they can
be computed apart and joined in order."""
