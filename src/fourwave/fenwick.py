"""Fenwick (binary indexed) tree over float weights with O(log n) point
updates and weighted sampling, plus a vectorised batch sampler.

Sampling finds, for a target u in [0, total), the leaf i such that
cumsum(i) <= u < cumsum(i+1); zero-weight leaves are never selected.
Point updates propagate an exact delta, so for weights that are dyadic
rationals (the affine interaction weight on a dyadic grid) the tree stays
bit-exact under any update sequence.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FenwickTree"]


class FenwickTree:
    def __init__(self, weights):
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        self.n = len(weights)
        self.leaf = weights.copy()
        self.tree = np.concatenate([[0.0], weights])
        for j in range(1, self.n + 1):  # O(n) bottom-up build
            p = j + (j & -j)
            if p <= self.n:
                self.tree[p] += self.tree[j]
        self._top = 1
        while self._top * 2 <= self.n:
            self._top *= 2

    @property
    def total(self) -> float:
        return self.prefix(self.n)

    def prefix(self, count: int) -> float:
        """Sum of the first ``count`` leaves."""
        s, j = 0.0, count
        while j > 0:
            s += self.tree[j]
            j &= j - 1
        return s

    def get(self, i: int) -> float:
        return self.leaf[i]

    def set(self, i: int, value: float) -> None:
        if value < 0:
            raise ValueError("weights must be nonnegative")
        delta = value - self.leaf[i]
        if delta == 0.0:
            return
        self.leaf[i] = value
        j = i + 1
        while j <= self.n:
            self.tree[j] += delta
            j += j & -j

    def sample(self, target: float) -> int:
        """Leaf index whose cumulative-weight interval contains target."""
        pos, rem, step = 0, target, self._top
        while step > 0:
            nxt = pos + step
            if nxt <= self.n and self.tree[nxt] <= rem:
                rem -= self.tree[nxt]
                pos = nxt
            step >>= 1
        return pos

    def sample_batch(self, targets: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`sample` over an array of targets."""
        pos = np.zeros(len(targets), dtype=np.int64)
        rem = np.asarray(targets, dtype=float).copy()
        step = self._top
        while step > 0:
            nxt = pos + step
            tval = self.tree[np.minimum(nxt, self.n)]
            ok = (nxt <= self.n) & (tval <= rem)
            pos[ok] = nxt[ok]
            rem[ok] -= tval[ok]
            step >>= 1
        return pos
