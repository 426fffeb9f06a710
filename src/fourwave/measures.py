"""Atomic-measure arithmetic: moments, norms, quantization, weak metric.

Every measure in the package is purely atomic: a finite list of
(position, weight) pairs on the nonnegative half-line.  Two representation
modes exist:

* continuous mode: positions are arbitrary nonnegative floats;
* grid mode: positions are exact integer multiples of a resolution ``h``,
  stored as int64 indices.  The grid is closed under the interaction map
  ``w1 + w2 - w3``, which is what makes every conservation identity exact.

Weights may be signed; signed measures are first-class citizens because the
collision algebra and the Picard iterates need them.  Operations are pure
and instances must be treated as immutable: a measure caches its
weak-metric pairings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import WeightFunction

__all__ = [
    "DiscreteMeasure",
    "moment",
    "tv_norm",
    "weak_distance",
    "quantize",
    "phi_transform",
    "save_measure_csv",
    "site_table",
    "load_measure_csv",
    "WEAK_METRIC_FREQUENCIES",
]

# Test family of the weak-convergence metric, part of the output contract:
# g_k(w) = cos(a_k * w) for even k, sin(a_k * w) for odd k, with
# a_k = (k+1)/8 for k = 0..63 and series weights 2**-(k+1).
WEAK_METRIC_FREQUENCIES = np.array([(k + 1) / 8.0 for k in range(64)])
_WEAK_METRIC_WEIGHTS = np.array([2.0 ** -(k + 1) for k in range(64)])


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic (possibly signed) measure on the half-line.

    ``h`` is None in continuous mode; in grid mode ``idx`` holds the int64
    grid indices and ``positions`` is the derived float view ``idx * h``.
    """

    weights: np.ndarray
    h: float | None = None
    idx: np.ndarray | None = None
    _positions: np.ndarray | None = None

    # --- constructors -------------------------------------------------

    @staticmethod
    def from_points(positions, weights) -> "DiscreteMeasure":
        positions = np.asarray(positions, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if positions.shape != weights.shape:
            raise ValueError("positions and weights must have equal length")
        if positions.size and positions.min() < 0:
            raise ValueError("atom positions must be nonnegative")
        order = np.argsort(positions, kind="stable")
        return DiscreteMeasure(weights[order], None, None, positions[order])

    @staticmethod
    def from_grid(idx, weights, h: float) -> "DiscreteMeasure":
        if h <= 0:
            raise ValueError("grid resolution h must be positive")
        idx = np.asarray(idx, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        if idx.shape != weights.shape:
            raise ValueError("idx and weights must have equal length")
        if idx.size and idx.min() < 0:
            raise ValueError("grid indices must be nonnegative")
        order = np.argsort(idx, kind="stable")
        return DiscreteMeasure(weights[order], h, idx[order], None)

    @staticmethod
    def from_dense(w, h: float) -> "DiscreteMeasure":
        """The grid measure with an atom of weight w[k] at each nonzero
        entry k of a dense weight vector: the inverse of :meth:`dense`."""
        w = np.asarray(w, dtype=float)
        idx = np.flatnonzero(w)
        return DiscreteMeasure.from_grid(idx, w[idx], h)

    @staticmethod
    def delta(position: float, weight: float = 1.0, h: float | None = None) -> "DiscreteMeasure":
        if h is None:
            return DiscreteMeasure.from_points([position], [weight])
        k = int(round(position / h))
        if not math.isclose(k * h, position, rel_tol=0, abs_tol=0):
            raise ValueError(f"position {position!r} is not a multiple of h={h!r}")
        return DiscreteMeasure.from_grid([k], [weight], h)

    @staticmethod
    def zero(h: float | None = None) -> "DiscreteMeasure":
        if h is None:
            return DiscreteMeasure.from_points([], [])
        return DiscreteMeasure.from_grid([], [], h)

    # --- basic views ----------------------------------------------------

    @property
    def positions(self) -> np.ndarray:
        if self.h is not None:
            return self.idx * self.h
        return self._positions

    @property
    def is_grid(self) -> bool:
        return self.h is not None

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def _keys(self) -> np.ndarray:
        """Atom locations in this measure's mode: grid indices or positions."""
        return self.idx if self.is_grid else self._positions

    def _like(self, keys, weights) -> "DiscreteMeasure":
        """A measure in this one's mode and grid with atoms at ``_keys`` values."""
        if self.is_grid:
            return DiscreteMeasure.from_grid(keys, weights, self.h)
        return DiscreteMeasure.from_points(keys, weights)

    def compact(self) -> "DiscreteMeasure":
        """Merge atoms at identical positions and drop zero weights.

        Grid atoms merge on equal index; continuous atoms merge only on
        exact float equality, so distinct physical atoms are never fused.
        """
        if len(self) == 0:
            return self
        uniq, inverse = np.unique(self._keys, return_inverse=True)
        w = np.zeros(len(uniq))
        np.add.at(w, inverse, self.weights)
        keep = w != 0.0
        return self._like(uniq[keep], w[keep])

    def dense(self, m: int) -> np.ndarray:
        """Dense weight vector over grid indices 0 .. m-1, atoms at one index
        summed by ``np.add.at`` in atom order; ValueError in continuous mode."""
        if not self.is_grid:
            raise ValueError("a dense weight vector needs a grid-mode measure")
        w = np.zeros(m)
        np.add.at(w, self.idx, self.weights)
        return w

    # --- arithmetic -----------------------------------------------------

    def _check_compatible(self, other: "DiscreteMeasure") -> None:
        if self.is_grid != other.is_grid or (self.is_grid and self.h != other.h):
            raise ValueError("measures live on incompatible grids")

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        self._check_compatible(other)
        return self._like(np.concatenate([self._keys, other._keys]),
                          np.concatenate([self.weights, other.weights]))

    def __sub__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return self + other.scaled(-1.0)

    def scaled(self, factor: float) -> "DiscreteMeasure":
        return self._like(self._keys, self.weights * factor)

    def restricted(self, wmax: float) -> tuple["DiscreteMeasure", "DiscreteMeasure"]:
        """Split into (part on [0, wmax], part strictly above)."""
        inside = self.positions <= wmax
        keys = self._keys
        return (self._like(keys[inside], self.weights[inside]),
                self._like(keys[~inside], self.weights[~inside]))

    def mass(self) -> float:
        return math.fsum(self.weights)

    @cached_property
    def _weak_pairings(self) -> np.ndarray:
        """<g_k, self> over the weak-metric test family, computed once per
        measure (one compared many times pays for it once); read-only."""
        return _pairings(self.weights, _trig_table(self.positions))


def _trig_table(positions: np.ndarray) -> np.ndarray:
    """g_k(w) for each position w (rows) and test function k (columns),
    computed in place over the phases a_k * w."""
    table = positions[:, None] * WEAK_METRIC_FREQUENCIES[None, :]
    np.cos(table[:, 0::2], out=table[:, 0::2])
    np.sin(table[:, 1::2], out=table[:, 1::2])
    return table


def _pairings(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    pairings = weights @ table  # zeros for no atoms
    pairings.setflags(write=False)
    return pairings


def _prime_weak_pairings(measures) -> None:
    """Cache the weak-metric pairings of measures that have none, from one
    trig table over their distinct positions (distinct by bits: -0.0 gets
    a row apart from 0.0).  A measure's rows, gathered in its atom order,
    hold the values of the table it would build alone, in the same layout,
    so each pairing has the bits of ``_weak_pairings`` computed alone."""
    # cached_property keeps its value in the instance __dict__
    measures = [m for m in measures if "_weak_pairings" not in vars(m)]
    if not measures:
        return
    positions = [m.positions for m in measures]
    keys, rows = np.unique(np.concatenate(positions).view(np.int64), return_inverse=True)
    table = _trig_table(keys.view(np.float64))
    ends = np.cumsum([len(p) for p in positions])
    for m, r in zip(measures, np.split(rows, ends[:-1])):
        vars(m)["_weak_pairings"] = _pairings(m.weights, table[r])


def moment(mu: DiscreteMeasure, f) -> float:
    """Pairing <f, mu> = sum f(w_i) * weight_i with compensated summation.

    ``f`` must be total on the atom positions and accept numpy arrays.
    ``math.fsum`` makes the result exactly rounded, hence invariant under
    any permutation of the atoms.
    """
    if len(mu) == 0:
        return 0.0
    vals = np.asarray(f(mu.positions), dtype=float) * mu.weights
    return math.fsum(vals.tolist())


def tv_norm(mu: DiscreteMeasure) -> float:
    """Total variation of a signed atomic measure (compacts first)."""
    c = mu.compact()
    return math.fsum(np.abs(c.weights).tolist())


def weak_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Series metric compatible with weak convergence, dominated by TV.

    d(mu, nu) = sum_k 2**-(k+1) |<g_k, mu - nu>| over the fixed documented
    trigonometric family (see ``WEAK_METRIC_FREQUENCIES``).  All test
    functions satisfy |g_k| <= 1, hence d <= tv_norm(mu - nu).  The series
    is truncated at k = 63; the discarded tail is bounded by
    2**-64 * (|mu| + |nu|).
    """
    # both pairings evaluated independently: d(mu, mu) == 0 and symmetry
    # hold exactly, not merely to rounding
    terms = np.abs(mu._weak_pairings - nu._weak_pairings)
    return float(np.dot(_WEAK_METRIC_WEIGHTS, terms))


def quantize(mu: DiscreteMeasure, h: float) -> DiscreteMeasure:
    """Snap each atom to the nearest multiple of h (ties to even multiple).

    Weights are untouched and atoms are not merged, so the total mass is
    exactly preserved; per unit mass the energy moves by at most h/2.
    """
    if h <= 0:
        raise ValueError("grid resolution h must be positive")
    idx = np.rint(mu.positions / h).astype(np.int64)
    return DiscreteMeasure.from_grid(idx, mu.weights.copy(), h)


def phi_transform(mu: DiscreteMeasure, weight: WeightFunction) -> DiscreteMeasure:
    """The measure phi * mu: same atoms, weights multiplied by phi(w_i).

    Atoms at which phi vanishes (fractional weight at 0) are removed.
    """
    if len(mu) == 0:
        return mu
    factors = np.asarray(weight(mu.positions), dtype=float)
    keep = factors != 0.0
    return mu._like(mu._keys[keep], mu.weights[keep] * factors[keep])


def site_table(measures) -> tuple[np.ndarray, np.ndarray]:
    """The sites of one or more measures, as :func:`save_measure_csv`
    takes them: the distinct positions' float64 bits as sorted int64 keys
    (so -0.0 is a site apart from 0.0), and each one's ``.17g`` text."""
    keys = np.unique(np.concatenate([m.positions for m in measures]).view(np.int64))
    return keys, _text(keys)


def _text(bits: np.ndarray) -> np.ndarray:
    """``.17g`` text of the float64 values with these int64 bits."""
    return np.array([f"{x:.17g}" for x in bits.view(np.float64).tolist()], dtype=object)


def save_measure_csv(mu: DiscreteMeasure, path, sites=None) -> None:
    """Interchange format: header ``omega,weight``, ascending positions,
    one atom per row, 17 significant digits; grid mode adds ``# h=...``.

    ``sites`` is a :func:`site_table` that holds every position of ``mu``
    (ValueError naming the first one it lacks), and may hold more.  Files
    that share their sites, such as a run's snapshots, then format each
    site once; by default the table is built from ``mu`` alone.  The
    bytes do not depend on the table.  Each distinct weight is formatted
    once per file, keyed by bits as the sites are.
    """
    keys, text = site_table([mu]) if sites is None else sites
    bits = mu.positions.view(np.int64)
    rows = np.searchsorted(keys, bits)
    if len(rows) and (rows.max() == len(keys) or not np.array_equal(keys[rows], bits)):
        known = rows < len(keys)
        known[known] = keys[rows[known]] == bits[known]
        raise ValueError(f"{path}: position {float(mu.positions[~known][0])!r} "
                         f"is not in the site table")
    weights, which = np.unique(mu.weights.view(np.int64), return_inverse=True)
    lines = [f"# h={mu.h:.17g}"] if mu.is_grid else []
    lines.append("omega,weight")
    lines.extend(map(",".join, zip(text[rows].tolist(), _text(weights)[which].tolist())))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_measure_csv(path) -> DiscreteMeasure:
    """Read the interchange format of :func:`save_measure_csv`.

    A body of two-number rows, as the writer makes, converts in one
    ``np.loadtxt`` call; one with blank or ``#`` lines or a malformed row
    (``1_000`` included, which ``float`` takes and ``loadtxt`` does not) is
    read line by line, which names the offending line.  Raises ValueError
    on a missing or foreign ``omega,weight`` header, on a row that is not
    two finite numbers or an ``# h=`` that is not a positive finite number
    (naming ``path:line``), and on a position off the ``# h=`` grid.
    Blank lines and other ``#`` lines are skipped.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    h, rows, linenos = None, None, []

    def numbers(fields, lineno, line):
        try:
            return [float(x) for x in fields]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: expected numbers, got {line!r} ({exc})") from None

    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        body = line.lstrip("#").strip()
        if line.startswith("#") and body.startswith("h="):
            h = numbers([body[2:]], lineno, line)[0]
            if not 0 < h < math.inf:
                raise ValueError(f"{path}:{lineno}: expected a positive finite h, got {line!r}")
        elif not line or line.startswith("#"):
            continue
        elif rows is None:
            if line != "omega,weight":
                raise ValueError(f"{path}:{lineno}: expected header 'omega,weight', got {line!r}")
            # a body of two-number rows converts in one call; one with
            # blank or # lines, or a malformed row, goes on line by line.
            # loadtxt would skip blank lines (and warn on a body of them),
            # so they are kept from it, and the row count is checked
            body = lines[lineno:]
            try:
                table = (np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
                         if body and "" not in body else None)
            except ValueError:
                table = None
            if table is not None and table.shape == (len(body), 2):
                rows, linenos = table, range(lineno + 1, len(lines) + 1)
                break
            rows = []
        else:
            fields = line.split(",")
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(fields)}")
            rows.append(numbers(fields, lineno, line))
            linenos.append(lineno)
    if rows is None:
        raise ValueError(f"{path}: missing header 'omega,weight'")
    table = np.asarray(rows, dtype=float).reshape(-1, 2)
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if len(bad):
        row = lines[linenos[bad[0]] - 1].strip()
        raise ValueError(f"{path}:{linenos[bad[0]]}: expected finite numbers, got {row!r}")
    pos, weights = table.T
    if h is None:
        return DiscreteMeasure.from_points(pos, weights)
    idx = np.rint(pos / h).astype(np.int64)
    off = np.flatnonzero(idx * h != pos)
    if len(off):
        raise ValueError(f"{path}: position {pos[off[0]]!r} is not on the grid h={h!r}")
    return DiscreteMeasure.from_grid(idx, weights, h)
