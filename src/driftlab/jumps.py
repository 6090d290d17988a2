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
    still validates as an exact distribution. Tails and the support are read
    from one tail table per variant, built on the first query: the magnitudes
    of the steps of positive probability (|step|, or -step one-sided) sorted,
    and their suffix sums, smallest terms first, with a trailing 0.0.
    """

    values: np.ndarray
    probs: np.ndarray
    _tail_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def _tail_table(self, one_sided: bool) -> tuple[np.ndarray, np.ndarray]:
        if one_sided not in self._tail_tables:
            positive = self.probs > 0
            magnitudes = -self.values[positive] if one_sided else np.abs(self.values[positive])
            order = np.argsort(magnitudes, kind="stable")
            suffix = np.cumsum(self.probs[positive][order[::-1]])[::-1]
            self._tail_tables[one_sided] = (magnitudes[order], np.append(suffix, 0.0))
        return self._tail_tables[one_sided]

    def tails(self, js: np.ndarray, one_sided: bool = False) -> np.ndarray:
        """P(|step| >= j), or P(step <= -j) when one_sided, at each j of the float
        array js; 1.0 two-sided at j <= 0, and exactly 0.0 past the law's reach."""
        magnitudes, suffix = self._tail_table(one_sided)
        tails = suffix[np.searchsorted(magnitudes, js)]
        return tails if one_sided else np.where(js <= 0, 1.0, tails)

    def abs_mgf(self, gamma: float) -> float:
        """E(exp(gamma * |step|)); may overflow to inf for heavy upper tails."""
        with np.errstate(over="ignore"):
            return float(np.dot(np.exp(gamma * np.abs(self.values)), self.probs))

    def support_magnitudes(self) -> np.ndarray:
        """Sorted distinct |step| values with positive probability."""
        # not np.unique, whose first call imports numpy.ma (about 14 ms)
        support = self._tail_table(False)[0]
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
