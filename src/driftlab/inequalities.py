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
from functools import partial
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

# Certified rational bounds on e: the truncated series is a lower bound and the
# remainder after 30 terms is below 2/31!.
E_LO = sum(Fraction(1, math.factorial(i)) for i in range(31))
E_HI = E_LO + Fraction(2, math.factorial(31))
_E_LO_NUM, _E_LO_DEN = E_LO.numerator, E_LO.denominator
_E_HI_NUM, _E_HI_DEN = E_HI.numerator, E_HI.denominator

#: exact integer threshold below which links are decided in int/Fraction arithmetic
EXACT_LIMIT = 1000
#: the largest n of the mutation chain
MUTATION_N_LIMIT = 10_000
#: q^k from which the matching sum link's left side is x^j/(1 - x), clear of float overflow
_FLOAT_POWER_LIMIT = 2**1000
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


#: InequalityResult from the tuple of its six fields, note included, in one C call.
#: The sweeps build millions of links, and the named tuple's generated __new__, a
#: Python function, takes about half as long again per link. Nothing checks the arity.
_link = partial(tuple.__new__, InequalityResult)


def _mutation_comparisons(n: int, j_values: range) -> tuple[str, list[tuple[bool, bool, float, float, float]]]:
    """The note of the mutation chain at n and, for each j of `j_values` (0 <= j <= n),
    the verdicts of C(n,j) n^{-j} <= 1/j! and 1/j! <= 2 (1/2)^j and the three sides
    C(n,j) n^{-j}, 1/j! and 2 (1/2)^j as floats.

    Up to EXACT_LIMIT the verdicts are exact: C(n,j) j! = n!/(n-j)!, n^j, 2^j and
    j! are carried from the least j up."""
    exact = n <= EXACT_LIMIT
    if exact:
        j = j_values.start
        falling, power, two_j, factorial = math.perm(n, j), n**j, 2**j, math.factorial(j)
    lgamma_n, log_n, log_2 = math.lgamma(n + 1), math.log(n), math.log(2.0)
    rows = []
    for j in j_values:
        lgamma_j = math.lgamma(j + 1)
        log_ratio = lgamma_n - lgamma_j - math.lgamma(n - j + 1) - j * log_n
        if exact:
            holds1, holds2 = falling <= power, two_j <= 2 * factorial
            falling, power, two_j, factorial = falling * (n - j), power * n, two_j * 2, factorial * (j + 1)
        else:
            holds1 = log_ratio <= -lgamma_j + 1e-9
            holds2 = (j - 1) * log_2 <= lgamma_j + 1e-9
        rows.append((holds1, holds2, math.exp(log_ratio), math.exp(-lgamma_j), math.exp((1 - j) * log_2)))
    return "exact integer comparison" if exact else "log-gamma comparison", rows


def _mutation_links(n: int, j_values: range) -> list[InequalityResult]:
    """The mutation chain at n for each j of `j_values`."""
    note, comparisons = _mutation_comparisons(n, j_values)
    results = []
    for j, (holds1, holds2, binomial, inv_factorial, geometric) in zip(j_values, comparisons):
        params = {"n": n, "j": j}
        results += (
            _link(("mutation-binomial-vs-factorial", params, binomial, inv_factorial, holds1, note)),
            _link(("mutation-factorial-vs-geometric", params, inv_factorial, geometric, holds2, note)),
        )
    return results


def mutation_tail_chain(n: int, j: int) -> list[InequalityResult]:
    """Links C(n,j) n^{-j} <= 1/j! and 1/j! <= 2 (1/2)^j of the standard-bit-
    mutation tail bound. Both links hold with equality at j = 1."""
    if not 1 <= j <= n <= MUTATION_N_LIMIT:
        raise ValueError(f"need 1 <= j <= n <= 10^4, got n={n}, j={j}")
    return _mutation_links(n, range(j, j + 1))


def _matching_sum_links(m: int, h_values: range, j_values: range) -> list[InequalityResult]:
    """Sum link sum_{i=j}^{m-j} x^i <= m x^j (x = p/q, p = 2h, q = m^2) and the
    simplification m x^j <= m^{-(j-1)} for each h of `h_values` and j of
    `j_values`; the sum is empty for j > m/2 and then trivially 0.

    With k = m - 2j the sum is x^j S(k)/q^k, S(k) = (q^(k+1) - p^(k+1))/(q - p).
    The exact q^k and S(k) are carried from the largest j down by
    q^(k+2) = q^2 q^k and S(k+2) = q^2 S(k) + q p^(k+1) + p^(k+2), and the exact
    power p^j from the least j up; m^{-(j-1)} and the exact m^j are made once per j."""
    q = m * m
    powers = [(float(m) ** (1 - j), m**j) for j in j_values]
    top = min(j_values.stop - 1, m // 2)
    results = []
    for h in h_values:
        p = 2 * h
        x = p / q
        sums = []  # (S(k), q^k) of the non-empty sums, the least j last
        if top >= j_values.start:
            k = m - 2 * top
            q_k, p_k1 = q**k, p ** (k + 1)
            s_k = (q_k * q - p_k1) // (q - p)
            sums.append((s_k, q_k))
            q2, p2 = q * q, p * p
            for _ in range(top - j_values.start):
                s_k = q2 * s_k + (q + p) * p_k1
                q_k *= q2
                p_k1 *= p2
                sums.append((s_k, q_k))
        p_j = p**j_values.start
        for j, (largest_rhs, m_j) in zip(j_values, powers):
            params = {"m": m, "h": h, "j": j}
            x_j = x**j
            if j <= top:
                s_k, q_k = sums.pop()
                holds_sum = s_k <= m * q_k
                lhs_sum = x_j * float(s_k) / float(q_k) if q_k < _FLOAT_POWER_LIMIT else x_j / (1 - x)
                note = "exact integer comparison; sharper geometric bound x^j/(1-x)"
            else:
                lhs_sum = 0.0
                holds_sum = True
                note = "empty summation range, sum is 0"
            rhs_sum = m * x_j
            results += (
                _link(("matching-sum-vs-largest-term", params, lhs_sum, rhs_sum, holds_sum, note)),
                _link(("matching-largest-term-vs-power", params, rhs_sum, largest_rhs, p_j <= m_j,
                       "exact integer comparison")),
            )
            p_j *= p
    return results


def matching_ratio_link(m: int, j: int) -> InequalityResult:
    """Relevant-step ratio link min(1, e m^{3-j}) <= 22 (1/2)^j, valid for every
    j >= 0 once m >= 2; tightest at m = 2 where it reduces to 8e <= 22.

    The left side is num/den with e at E_HI, decided against 22/2^j by integer
    cross-multiplication; each side is the correctly rounded int/int quotient."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if j <= 3:
        num, den = _E_HI_NUM * m ** (3 - j), _E_HI_DEN
    else:
        num, den = _E_HI_NUM, _E_HI_DEN * m ** (j - 3)
    if num >= den:
        num = den = 1
    return _link((
        "matching-ratio-vs-geometric",
        {"m": m, "j": j},
        num / den,
        22 / 2**j,
        num << j <= 22 * den,
        "rational comparison with certified upper bound on e",
    ))


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
    results = _matching_sum_links(m, range(h, h + 1), range(j, j + 1))
    results.append(matching_ratio_link(m, j))
    return results


_DIVERSITY_TRUNC = 30


def _diversity_links(phi: int, j: int, mus: range) -> list[InequalityResult]:
    """The diversity chain at (mu, phi, j) for each mu of `mus`.

    With top = j + phi, the finite sum_{k=0}^{phi} 1/(k+j)! is finite/top!, where
    integer Horner nests finite = 1 + (j+1)(1 + (j+2)(... (1 + top))). Carried on
    to last = j + terms - 1 it gives the series truncated after `terms` terms,
    partial/last!, whose remainder is below 1/(last! last). The reindexed sum is
    reindexed/top!, the falling products top!/i! summed from i = top down to j.
    Links are decided by integer cross-multiplication, and a side num/den over mu
    is num / (den * mu), the correctly rounded float of the exact rational. Only
    the sides depend on mu."""
    top = j + phi
    terms = max(_DIVERSITY_TRUNC, phi + 1)
    last = j + terms - 1
    finite = 1
    for i in range(j + 1, top + 1):
        finite = finite * i + 1
    partial = finite
    for i in range(top + 1, last + 1):
        partial = partial * i + 1
    reindexed = term = 1
    for i in range(top, j, -1):
        term *= i
        reindexed += term
    top_den = math.factorial(top)
    upper, upper_den = partial * last + 1, math.factorial(last) * last
    closed_den = _E_LO_DEN * math.factorial(j)
    holds_infinite = finite * upper_den <= upper * top_den
    holds_closed = upper * closed_den <= _E_LO_NUM * upper_den
    note = f"truncated after {terms} terms with certified remainder"
    results = []
    for mu in mus:
        params = {"mu": mu, "phi": phi, "j": j}
        finite_side, upper_side = finite / (top_den * mu), upper / (upper_den * mu)
        results += (
            _link(("diversity-finite-vs-infinite", params, finite_side, upper_side, holds_infinite, note)),
            _link(("diversity-infinite-vs-closed-form", params, upper_side, _E_LO_NUM / (closed_den * mu),
                   holds_closed, "compared against a certified lower bound on e/j!")),
            _link(("diversity-reindexing-identity", params, reindexed / (top_den * mu), finite_side,
                   reindexed == finite, "exact rational equality")),
        )
    return results


def diversity_bound(mu: int, phi: int, j: int) -> list[InequalityResult]:
    """Chain for the population-diversity potential: the finite selection sum,
    its extension to the infinite factorial series, the closed bound e/j!, and
    the reindexing identity over the finite range."""
    if mu < 1 or phi < 0 or j < 1:
        raise ValueError(f"need mu >= 1, phi >= 0, j >= 1, got mu={mu}, phi={phi}, j={j}")
    return _diversity_links(phi, j, range(mu, mu + 1))


#: 1 - 1/(2e), the self-loop constant of the offspring-population bound
_SELF_LOOP_C = 1.0 - 0.5 * math.exp(-1.0)


def _comma_lambda_links(n: int, lambdas: Sequence[int], j_values: range) -> list[InequalityResult]:
    """The comma-lambda chain at n for each lambda of `lambdas` and j of `j_values`.
    The mutation comparisons and the self-loop premise depend on n alone, and the
    self-loop probability and its floor on (n, lambda)."""
    note, comparisons = _mutation_comparisons(n, j_values)
    # self-loop premise (1 - 1/n)^n >= 1/(2e)
    stay = (1.0 - 1.0 / n) ** n
    inv_2e = 0.5 * math.exp(-1.0)
    if n <= EXACT_LIMIT:
        holds3 = 2 * _E_LO_NUM * (n - 1) ** n >= _E_LO_DEN * n**n
        note3 = "exact integer comparison with certified lower bound on e"
    else:
        holds3 = n * math.log1p(-1.0 / n) >= -math.log(2.0) - 1.0 + 1e-12 or stay >= inv_2e
        note3 = "float comparison, margin is a factor approaching 2"
    results = []
    for lam in lambdas:
        # self-loop probability lower bound 1 - (1 - (1-1/n)^n)^lambda >= 1 - c^lambda
        p_loop = 1.0 - (1.0 - stay) ** lam
        floor = 1.0 - _SELF_LOOP_C**lam
        holds4 = floor <= p_loop
        for j, (holds1, holds2, binomial, inv_factorial, geometric) in zip(j_values, comparisons):
            params = {"n": n, "lambda": lam, "j": j}
            # lambda cancels from both links, so they are the mutation chain's comparisons:
            # union bound lambda C(n,j) n^-j <= lambda/j!, then lambda/j! <= 2 lambda (1/2)^j
            lhs1, rhs1, rhs2 = lam * binomial, lam * inv_factorial, lam * geometric
            # combined ratio link: (2 lambda 2^-j) / p_loop <= (2 lambda / (1 - c^lambda)) 2^-j
            lhs5, rhs5 = rhs2 / p_loop, rhs2 / floor
            results += (
                _link(("comma-lambda-union-vs-factorial", params, lhs1, rhs1, holds1, note)),
                _link(("comma-lambda-factorial-vs-geometric", params, rhs1, rhs2, holds2, note)),
                _link(("comma-lambda-self-loop-premise", params, inv_2e, stay, holds3, note3)),
                _link(("comma-lambda-self-loop-floor", params, floor, p_loop, holds4, "")),
                _link(("comma-lambda-ratio-chain", params, lhs5, rhs5, lhs5 <= rhs5, "")),
            )
    return results


def comma_lambda_bounds(n: int, lambda_offspring: int, j: int) -> list[InequalityResult]:
    """Chain for the single-parent multi-offspring EA: the offspring union
    bound, the factorial and geometric simplifications, the self-loop lower
    bound via (1 - 1/n)^n >= 1/(2e), and the combined ratio link."""
    if n < 2 or lambda_offspring < 1 or not 0 <= j <= n:
        raise ValueError(
            f"need n >= 2, lambda >= 1, 0 <= j <= n, got n={n}, lambda={lambda_offspring}, j={j}"
        )
    return _comma_lambda_links(n, [lambda_offspring], range(j, j + 1))


def pea_prime_expected_selections(fitnesses) -> list[InequalityResult]:
    """Links E(S_i) <= 2 of the always-mutate-best selection scheme, one per
    individual, then the link that the counts sum to mu = len(fitnesses).

    E(S_1) = 1 + (mu-1) f_1/f_tot - (mu-1)/mu and
    E(S_i) = (mu-1) f_i/f_tot + 1/mu for i >= 2, in exact rationals; the counts
    always sum to mu exactly. The bound E(S_i) <= 2 is asserted under the
    premises f_i/f_tot <= 2/mu for all i and f_1/f_tot >= 1/mu; premise
    violations are reported as a "premise-fail" note on the per-individual
    links, distinct from a failed inequality.
    """
    f = [Fraction(float(v)) for v in fitnesses]
    mu = len(f)
    if mu < 2:
        raise ValueError(f"need a fitness vector of length mu >= 2, got {mu} entries")
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
    expected = [Fraction(1) + (mu - 1) * shares[0] - Fraction(mu - 1, mu)]
    expected += [(mu - 1) * s + Fraction(1, mu) for s in shares[1:]]
    note = "premise-fail: " + "; ".join(premise_notes) if premise_notes else ""
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
    return links


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
        yield from _mutation_links(n, range(1, n + 1))


def sweep_matching(grid: SweepGrid = SweepGrid(), slab: Optional[int] = None) -> Iterator[InequalityResult]:
    """All matching-chain links for 2 <= m <= m_max, 1 <= h <= m/2, 0 <= j <= j_max;
    a slab holds one m.

    The ratio link does not depend on h and is emitted once per (m, j)."""
    j_values = range(0, grid.j_max + 1)
    for m in _slab("matching", grid, slab):
        for j in j_values:
            yield matching_ratio_link(m, j)
        yield from _matching_sum_links(m, range(1, m // 2 + 1), j_values)


#: the diversity sweep stops at this tail index whatever the grid's j_max
_DIVERSITY_J_CAP = 20


def sweep_diversity(grid: SweepGrid = SweepGrid(), slab: Optional[int] = None) -> Iterator[InequalityResult]:
    """All diversity-chain links for 0 <= phi <= phi_max, 1 <= j <= min(j_max, 20),
    1 <= mu <= mu_max; a slab holds one phi."""
    for phi in _slab("diversity", grid, slab):
        for j in range(1, min(grid.j_max, _DIVERSITY_J_CAP) + 1):
            yield from _diversity_links(phi, j, range(1, grid.mu_max + 1))


def log_spaced_integers(lo: int, hi: int) -> list[int]:
    """Distinct integers covering [lo, hi] roughly uniformly in log space."""
    if lo > hi:
        return []
    count = max(2, int(_PER_DECADE * math.log10(max(hi / lo, 10.0))) + 1)
    # not np.unique, whose first call imports numpy.ma
    grid = sorted(set(np.round(np.geomspace(lo, hi, count)).astype(int).tolist()))
    return [v for v in grid if lo <= v <= hi]


def sweep_comma_lambda(grid: SweepGrid = SweepGrid(), slab: Optional[int] = None) -> Iterator[InequalityResult]:
    """Comma-lambda chain over log-sampled 2 <= n <= n_max and full lambda/j grids;
    a slab holds one n."""
    lambdas = log_spaced_integers(1, grid.lambda_max)
    for n in _slab("comma-lambda", grid, slab):
        yield from _comma_lambda_links(n, lambdas, range(0, min(grid.j_max, n) + 1))


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
