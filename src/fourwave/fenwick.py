"""Weighted sampling table over nonnegative float weights: a leaf array plus
its prefix sums.

Sampling finds, for a target u in [0, total), the leaf i such that
cumsum(i) <= u < cumsum(i+1); zero-weight leaves are never selected.
An exact table updates its prefix sums in place on a write, an O(n) slice
add (1.6-2.1 us at n = 1600-2000 on a 2-core Xeon, against 9-10 us for a
fresh ``np.cumsum``); a pair write that keeps the total moves only the sums
between its two slots.  A caller asks for ``exact=True`` only where every
partial sum is exact, as ``ParticleState.build`` does for affine weights on
a dyadic grid below 2^53 grid units; the sums then equal a fresh cumsum bit
for bit.  An inexact table (a fractional weight) drops its sums on a write,
and ``np.cumsum`` rebuilds them on the first read after it.  At the
particle counts used here either beats a tree walk in numpy.

A batch of fresh unsorted targets is searched one binary search at a
time, and the search is bound by branch mispredictions: on a 2-core host
at n = 100-1600, 384 targets cost 15-23 us per call, 96 targets 4-6 us
and 15 targets 0.9-1.3 us, two to four times what repeated timings of one
target array show.  The thinning engine therefore samples one window of
candidates per call, not a whole chunk: 32 candidates, or for a
``product:lambda=1`` run 5 of those that pass its screen, about 1.07
calls per accepted event at n = 100-1600.

The module and class keep their Fenwick names because the benchmark traces
``fourwave.fenwick.FenwickTree.sample_batch`` by that path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FenwickTree"]


class FenwickTree:
    def __init__(self, weights, exact: bool = False):
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        self.leaf = weights.copy()
        self.exact = exact
        self._cum = None  # prefix sums of leaf; None after a write to an inexact table

    def copy(self) -> "FenwickTree":
        return FenwickTree(self.leaf, self.exact)

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
        if self.exact and self._cum is not None:
            self._cum[i:] += value - self.leaf[i]
        else:
            self._cum = None
        self.leaf[i] = value

    def set_pair(self, i: int, a: float, j: int, b: float) -> None:
        """``set(i, a)`` and ``set(j, b)``, i != j: an exact table moves the
        sums from the lower slot by its difference and those from the upper
        by both, not at all for a pair that keeps the total."""
        if not (self.exact and self._cum is not None):
            self.set(i, a)
            self.set(j, b)
            return
        if a < 0 or b < 0:
            raise ValueError("weights must be nonnegative")
        (lo, d_lo), (hi, d_hi) = sorted([(i, a - self.leaf[i]), (j, b - self.leaf[j])])
        self._cum[lo:hi] += d_lo
        if d_lo + d_hi:
            self._cum[hi:] += d_lo + d_hi
        self.leaf[i], self.leaf[j] = a, b

    def sample(self, target: float) -> int:
        """Leaf index whose cumulative-weight interval contains target."""
        return int(self._sums().searchsorted(target, side="right"))

    def sample_batch(self, targets: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`sample` over an array of targets."""
        return self._sums().searchsorted(targets, side="right")
