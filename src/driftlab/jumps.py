"""Exact step distributions: drift, tail sums, and absolute-moment generating values."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: tolerance for a table to count as an exact probability distribution
NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class JumpDistribution:
    """Finite table of signed step sizes with their probabilities.

    `values` is strictly increasing. Tables built from infinite-support laws
    truncate once the omitted mass is far below NORMALIZATION_TOL, so the table
    still validates as an exact distribution.
    """

    values: np.ndarray
    probs: np.ndarray
    #: |values|, which the tail and moment methods read
    magnitudes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "magnitudes", np.abs(values))
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

    def tail_abs(self, j: float) -> float:
        """P(|step| >= j)."""
        if j <= 0:
            return 1.0
        return float(self.probs[self.magnitudes >= j].sum())

    def tail_down(self, j: float) -> float:
        """P(step <= -j), the one-sided tail toward the target."""
        return float(self.probs[self.values <= -j].sum())

    def abs_mgf(self, gamma: float) -> float:
        """E(exp(gamma * |step|)); may overflow to inf for heavy upper tails."""
        with np.errstate(over="ignore"):
            return float(np.dot(np.exp(gamma * self.magnitudes), self.probs))

    def support_magnitudes(self) -> np.ndarray:
        """Sorted distinct |step| values with positive probability."""
        # not np.unique, whose first call imports numpy.ma (about 14 ms)
        support = np.sort(self.magnitudes[self.probs > 0])
        return support[np.concatenate(([True], support[1:] != support[:-1]))]

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
