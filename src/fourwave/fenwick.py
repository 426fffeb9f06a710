"""Weighted sampling table over nonnegative float weights: a leaf array plus
its prefix sums, which ``np.cumsum`` rebuilds on the first read after a write.

Sampling finds, for a target u in [0, total), the leaf i such that
cumsum(i) <= u < cumsum(i+1); zero-weight leaves are never selected.
Point writes are O(1) and the first read after them costs one O(n) prefix
sum, which at the particle counts used here is cheaper than a tree walk in
numpy.  The prefix sums are exact while every partial sum is representable,
as for dyadic weights (the affine interaction weight on a dyadic grid)
whose total in units of the finest dyadic step stays below 2^53.

The module and class keep their Fenwick names because the benchmark traces
``fourwave.fenwick.FenwickTree.sample_batch`` by that path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FenwickTree"]


class FenwickTree:
    def __init__(self, weights):
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        self.leaf = weights.copy()
        self._cum = None  # prefix sums of leaf; None after a write

    def _sums(self) -> np.ndarray:
        if self._cum is None:
            self._cum = np.cumsum(self.leaf)
        return self._cum

    @property
    def total(self) -> float:
        return self.prefix(len(self.leaf))

    def prefix(self, count: int) -> float:
        """Sum of the first ``count`` leaves."""
        return float(self._sums()[count - 1]) if count > 0 else 0.0

    def set(self, i: int, value: float) -> None:
        if value < 0:
            raise ValueError("weights must be nonnegative")
        self.leaf[i] = value
        self._cum = None

    def sample(self, target: float) -> int:
        """Leaf index whose cumulative-weight interval contains target."""
        return int(np.searchsorted(self._sums(), target, side="right"))

    def sample_batch(self, targets: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`sample` over an array of targets."""
        return np.searchsorted(self._sums(), targets, side="right")
