"""Exact step laws on one grid of steps (`LawTable`): drift and tail sums for
the laws of many states, or for one law as a one-row table."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: tolerance for a table to count as an exact probability distribution
NORMALIZATION_TOL = 1e-12
#: the largest j_max a check takes and the most magnitudes a truncated law keeps:
#: a check holds arrays over both, which past this exhaust memory
MAX_TAIL_INDEX = 10**6


@dataclass(frozen=True)
class LawTable:
    """The step laws of several states on one grid of steps.

    `values` is the strictly increasing grid, the union of the laws' values,
    and `probs[i]` is the law out of the state of potential `states[i]` (None
    for the one law of every state), with 0.0 off its own values.
    `supports[i]` indexes a row's own values in the grid, so each drift is
    `np.dot` over that state's own support, the same sum as the drift of the
    row's own one-row table. A single law is a one-row table (`law`), and
    iterating a table yields each row as one.

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
    def law(cls, values, probs, state=None) -> LawTable:
        """The one-row table of the law P(step = values[i]) = probs[i] out of the
        state of potential `state` (None for every state); `values` strictly
        increase. A law of infinite support is truncated once the omitted mass is
        far below NORMALIZATION_TOL, so it still validates as an exact law."""
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.shape != probs.shape or values.ndim != 1 or values.size == 0:
            raise ValueError("values and probs must be matching non-empty 1-d arrays")
        if np.any(np.diff(values) <= 0):
            raise ValueError("values must be strictly increasing")
        if np.any(probs < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"jump table is not normalized: total probability {float(probs.sum())!r}")
        return cls((state,), values, probs[np.newaxis], (slice(None),))

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
    def stack(cls, laws) -> LawTable:
        """The table of one-row tables, each with its state, on the union of their values."""
        if not laws:
            return cls((), np.zeros(0), np.zeros((0, 0)), ())
        # not np.unique, whose first call imports numpy.ma (about 14 ms)
        grid = np.sort(np.concatenate([law.values for law in laws]))
        grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
        probs = np.zeros((len(laws), grid.size))
        supports = tuple(np.searchsorted(grid, law.values) for law in laws)
        for row, (support, law) in enumerate(zip(supports, laws)):
            probs[row, support] = law.probs[0]
        return cls(tuple(law.states[0] for law in laws), grid, probs, supports)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        """Every row as the one-row table of its state, on its own values."""
        for x, support, row in zip(self.states, self.supports, self.probs):
            yield LawTable.law(self.values[support], row[support], x)

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
