"""Exact step distributions: drift, tail sums, and absolute-moment generating
values, for one law (`JumpDistribution`) or for the laws of many states on one
grid of steps (`LawTable`)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: tolerance for a table to count as an exact probability distribution
NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class JumpDistribution:
    """Finite table of signed step sizes with their probabilities.

    `values` is strictly increasing. Tables built from infinite-support laws
    truncate once the omitted mass is far below NORMALIZATION_TOL, so the table
    still validates as an exact distribution. Its tails are those of the
    one-row `LawTable` of it.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        if values.shape != probs.shape or values.ndim != 1 or values.size == 0:
            raise ValueError("values and probs must be matching non-empty 1-d arrays")
        if np.any(np.diff(values) <= 0):
            raise ValueError("values must be strictly increasing")
        if np.any(probs < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"jump table is not normalized: total probability {float(probs.sum())!r}"
            )

    def drift(self) -> float:
        """Exact one-step expectation of the jump."""
        return float(np.dot(self.values, self.probs))

    def tails(self, js: np.ndarray, one_sided: bool = False) -> np.ndarray:
        """P(|step| >= j), or P(step <= -j) when one_sided, at each j of the float
        array js; 1.0 two-sided at j <= 0, and exactly 0.0 past the law's reach."""
        return LawTable.stack([(None, self)]).tails(js, one_sided)[0]

    def abs_mgf(self, gamma: float) -> float:
        """E(exp(gamma * |step|)); may overflow to inf for heavy upper tails."""
        with np.errstate(over="ignore"):
            return float(np.dot(np.exp(gamma * np.abs(self.values)), self.probs))

    def csv_rows(self):
        """Rows (j, P(step = +j), P(step = -j)) over the support magnitudes."""
        up = {float(v): float(p) for v, p in zip(self.values, self.probs) if v > 0}
        down = {float(-v): float(p) for v, p in zip(self.values, self.probs) if v < 0}
        zero = sum(float(p) for v, p in zip(self.values, self.probs) if v == 0)
        rows = []
        if zero:
            rows.append((0.0, zero, zero))
        for j in sorted(set(up) | set(down)):
            rows.append((j, up.get(j, 0.0), down.get(j, 0.0)))
        return rows


@dataclass(frozen=True)
class LawTable:
    """The step laws of several states on one grid of steps.

    `values` is the strictly increasing grid, the union of the laws' values,
    and `probs[i]` is the law out of the state of potential `states[i]` (None
    for the one law of every state), with 0.0 off its own values.
    `supports[i]` indexes a row's own values in the grid, so each drift is
    `np.dot` over that state's own support, the same sum as its
    `JumpDistribution.drift`.

    Tails come from one stable argsort of the grid's magnitudes, one reversed
    cumsum along the rows and one searchsorted of the indices. Each row adds
    its terms from the largest magnitude down, in the order its own law's
    sorted magnitudes give; the zeros of other states' steps only add +0.0, so
    every tail has the bits it has in the row's own one-row table.
    """

    states: tuple
    values: np.ndarray
    probs: np.ndarray
    supports: tuple

    @classmethod
    def from_rows(cls, states, rows) -> LawTable:
        """The table of integer-step laws: row (lo, probs) gives P(step = lo + i) = probs[i].
        The grid is the integers from the least lo to the greatest reach."""
        if not rows:
            return cls.stack([])
        first = min(lo for lo, _ in rows)
        width = max(lo + p.size for lo, p in rows) - first
        probs = np.zeros((len(rows), width))
        supports = tuple(slice(lo - first, lo - first + p.size) for lo, p in rows)
        for row, (support, (_, p)) in enumerate(zip(supports, rows)):
            probs[row, support] = p
        return cls(tuple(states), np.arange(first, first + width, dtype=float), probs, supports)

    @classmethod
    def stack(cls, pairs) -> LawTable:
        """The table of (x, JumpDistribution) pairs, on the union of their values."""
        if not pairs:
            return cls((), np.zeros(0), np.zeros((0, 0)), ())
        if len(pairs) == 1:
            # one law is its own grid
            (x, law), = pairs
            return cls((x,), law.values, law.probs[np.newaxis], (slice(None),))
        # not np.unique, whose first call imports numpy.ma (about 14 ms)
        grid = np.sort(np.concatenate([law.values for _, law in pairs]))
        grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
        probs = np.zeros((len(pairs), grid.size))
        supports = tuple(np.searchsorted(grid, law.values) for _, law in pairs)
        for row, (support, (_, law)) in enumerate(zip(supports, pairs)):
            probs[row, support] = law.probs
        return cls(tuple(x for x, _ in pairs), grid, probs, supports)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        """(x, law) for every row, each law on its own values."""
        for x, support, row in zip(self.states, self.supports, self.probs):
            yield x, JumpDistribution(self.values[support], row[support])

    def drift(self, row: int) -> float:
        """Exact one-step expectation of the jump out of row's state."""
        support = self.supports[row]
        return float(np.dot(self.values[support], self.probs[row, support]))

    def support_magnitudes(self) -> np.ndarray:
        """The |step| of every grid step that some state takes with positive probability."""
        return np.abs(self.values[(self.probs > 0).any(axis=0)])

    def tails(self, js: np.ndarray, one_sided: bool = False) -> np.ndarray:
        """tails[row, k]: P(|step| >= js[k]), or P(step <= -js[k]) when one_sided,
        out of row's state; 1.0 two-sided at j <= 0, and exactly 0.0 past the
        row's reach."""
        magnitudes = -self.values if one_sided else np.abs(self.values)
        order = np.argsort(magnitudes, kind="stable")
        suffix = np.zeros((len(self), order.size + 1))
        # suffix[:, i] sums the terms of sorted magnitude index i and above, largest first
        suffix[:, -2::-1] = np.cumsum(self.probs[:, order[::-1]], axis=1)
        tails = suffix[:, np.searchsorted(magnitudes[order], js)]
        return tails if one_sided else np.where(js <= 0, 1.0, tails)
