"""Model interaction kernels and interaction-weight functions.

A model kernel is a nonnegative continuous function K(w1, w2, w3) on the
closed octant, homogeneous of some degree and symmetric in its first two
arguments.  Four parametric families are provided:

* ``product``   K = (w1*w2*w3)**(lam/3)
* ``sum``       K = (w1**lam + w2**lam + w3**lam) / 3
* ``mixed``     K = (w1**p * w2**q * w3**r + w1**q * w2**p * w3**r) / 2
* ``const``     K = c

Every family is expressible as a short sum of rank-one (separable) terms
``coef * w1**e1 * w2**e2 * w3**e3``; the fast grid evaluators in
:mod:`fourwave.collision` and :mod:`fourwave.solver` rely on that
decomposition.  Continuity on the octant holds by construction for all
nonnegative exponents and is not machine-checked.

The structural hypotheses the rest of the package relies on (symmetry,
homogeneity, sub-multiplicative domination by a weight function) each have
a sampling-based checker returning a small report with the worst witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Kernel",
    "WeightFunction",
    "CheckReport",
    "KernelSpecError",
    "parse_kernel",
    "parse_weight",
    "check_symmetry",
    "check_homogeneity",
    "check_submultiplicative",
]

_FAMILIES = ("product", "sum", "mixed", "const")


class KernelSpecError(ValueError):
    """Raised for malformed or out-of-range kernel/weight specifications."""


def _pow(base, exponent: float):
    """base**exponent with the convention 0**0 = 1.

    Keeps kernel evaluation total on the closed octant: exponent-zero
    factors degenerate to the constant 1 instead of producing NaN at 0.
    """
    if exponent == 0.0:
        return np.ones_like(np.asarray(base, dtype=float))
    return np.asarray(base, dtype=float) ** exponent


@dataclass(frozen=True)
class Kernel:
    """Immutable descriptor of one model kernel.

    ``params`` holds the family parameters: ``lam`` for product/sum,
    ``p, q, r`` for mixed, ``c`` for const.  Instances are pure value
    objects, safe to share across threads.
    """

    family: str
    params: tuple

    @property
    def degree(self) -> float:
        """Homogeneity degree: K(s*w) = s**degree * K(w) for s > 0."""
        if self.family == "product" or self.family == "sum":
            return self.params[0]
        if self.family == "mixed":
            return sum(self.params)
        return 0.0

    def rank_one_terms(self) -> list[tuple[float, tuple[float, float, float]]]:
        """Decomposition K = sum of coef * w1**e1 * w2**e2 * w3**e3 terms."""
        if self.family == "product":
            (lam,) = self.params
            e = lam / 3.0
            return [(1.0, (e, e, e))]
        if self.family == "sum":
            (lam,) = self.params
            return [
                (1.0 / 3.0, (lam, 0.0, 0.0)),
                (1.0 / 3.0, (0.0, lam, 0.0)),
                (1.0 / 3.0, (0.0, 0.0, lam)),
            ]
        if self.family == "mixed":
            p, q, r = self.params
            return [(0.5, (p, q, r)), (0.5, (q, p, r))]
        (c,) = self.params
        return [(c, (0.0, 0.0, 0.0))]

    def eval(self, w1, w2, w3):
        """Evaluate K; accepts scalars or broadcastable numpy arrays.

        Total on the closed octant and never negative or NaN there.
        """
        out = 0.0
        for coef, (e1, e2, e3) in self.rank_one_terms():
            out = out + coef * _pow(w1, e1) * _pow(w2, e2) * _pow(w3, e3)
        return out

    def __call__(self, w1, w2, w3):
        return self.eval(w1, w2, w3)

    def spec_string(self) -> str:
        if self.family == "product":
            return f"product:lambda={self.params[0]:g}"
        if self.family == "sum":
            return f"sum:lambda={self.params[0]:g}"
        if self.family == "mixed":
            p, q, r = self.params
            return f"mixed:p={p:g},q={q:g},r={r:g}"
        return f"const:c={self.params[0]:g}"


@dataclass(frozen=True)
class WeightFunction:
    """Interaction weight used for domination bounds and thinning majorants.

    ``affine`` is phi(w) = w + 1 (so phi >= 1 and phi is exactly conserved
    by the interaction, since particle count and total frequency are).
    ``fractional`` is phi(w) = w**(1-gamma) for gamma in (0,1); it vanishes
    at 0, so zero-frequency atoms are inert under fractional majorants.
    """

    variant: str
    gamma: float = 0.0

    def __call__(self, w):
        if self.variant == "affine":
            return np.asarray(w, dtype=float) + 1.0
        return _pow(w, 1.0 - self.gamma)

    @property
    def is_affine(self) -> bool:
        return self.variant == "affine"

    def spec_string(self) -> str:
        if self.variant == "affine":
            return "affine"
        return f"fractional:gamma={self.gamma:g}"


AFFINE = WeightFunction("affine")


@dataclass
class CheckReport:
    """Outcome of a structural hypothesis check over a sample set."""

    name: str
    passed: bool
    worst_residual: float
    witness: tuple | None

    def __str__(self) -> str:
        state = "pass" if self.passed else "FAIL"
        where = ""
        if self.witness is not None:
            pretty = ", ".join(f"{float(v):.6g}" for v in self.witness)
            where = f" worst at ({pretty})"
        return f"{self.name}: {state} (worst residual {self.worst_residual:.3e}{where})"


def _columns(samples) -> np.ndarray:
    """The samples as a (3, N) float array: one row per argument."""
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("samples must be triples")
    return arr.T


def _evaluate(fn, shape, *args) -> np.ndarray:
    return np.broadcast_to(np.asarray(fn(*args), dtype=float), shape)


def _worst(res: np.ndarray) -> tuple[float, int | None]:
    """Largest positive residual and its flat index, the first one in C
    order on ties; NaN residuals never win, and (0.0, None) when none is
    positive."""
    res = np.where(np.isnan(res), -np.inf, res)
    k = int(np.argmax(res))
    return (float(res.flat[k]), k) if res.flat[k] > 0.0 else (0.0, None)


def check_symmetry(kernel, samples: Sequence[tuple]) -> CheckReport:
    """Check K(a,b,c) == K(b,a,c) on the given triples.

    Passes iff the residual is below 1e-12 relative to 1 + |K(a,b,c)| on
    every sample.  ``kernel`` may be a :class:`Kernel` or a bare callable
    that broadcasts over numpy arrays.
    """
    a, b, c = _columns(samples)
    ref = _evaluate(kernel, a.shape, a, b, c)
    res = np.abs(ref - _evaluate(kernel, a.shape, b, a, c)) / (1.0 + np.abs(ref))
    worst, k = _worst(res)
    witness = None if k is None else tuple(samples[k])
    return CheckReport("symmetry", worst <= 1e-12, worst, witness)


def check_homogeneity(kernel, samples: Sequence[tuple], scales: Sequence[float],
                      degree: float | None = None) -> CheckReport:
    """Check K(s*w) == s**degree * K(w) for every sample/scale pair."""
    a, b, c = _columns(samples)
    if any(s <= 0 for s in scales):
        raise ValueError("scales must be strictly positive")
    deg = kernel.degree if degree is None else degree
    s = np.asarray(scales, dtype=float)
    # s**deg per scale as a scalar power: numpy's array power may round
    # differently, and the residual is a cancellation at rounding level
    scaled = np.array([sc ** deg for sc in scales], dtype=float)
    # (N, S): sample-major, the order of a loop over samples then scales
    base = _evaluate(kernel, a.shape, a, b, c)[:, None]
    moved = _evaluate(kernel, (len(a), len(s)), a[:, None] * s, b[:, None] * s, c[:, None] * s)
    res = np.abs(moved - scaled * base) / (scaled * (1.0 + base))
    worst, k = _worst(res)
    witness = None if k is None else (*samples[k // len(s)], scales[k % len(s)])
    return CheckReport("homogeneity", worst <= 1e-10, worst, witness)


def check_submultiplicative(kernel, weight: WeightFunction,
                            samples: Sequence[tuple]) -> CheckReport:
    """Check K(w1,w2,w3) <= phi(w1)*phi(w2)*phi(w3) on the samples.

    The report's residual is the worst ratio K / (phi*phi*phi); a ratio up
    to 1 + 1e-12 is accepted so that exactly-tight kernels pass.  A zero
    bound gives the ratio 0 where K is 0 and inf elsewhere.
    """
    a, b, c = _columns(samples)
    bound = (_evaluate(weight, a.shape, a) * _evaluate(weight, a.shape, b)
             * _evaluate(weight, a.shape, c))
    val = _evaluate(kernel, a.shape, a, b, c)
    zero = bound == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(zero, np.where(val == 0.0, 0.0, np.inf), val / np.where(zero, 1.0, bound))
    worst, k = _worst(ratio)
    witness = None if k is None else tuple(samples[k])
    return CheckReport("sub-multiplicative", worst <= 1.0 + 1e-12, worst, witness)


def _parse_fields(text: str, spec: str) -> dict[str, float]:
    fields: dict[str, float] = {}
    if not text:
        return fields
    for part in text.split(","):
        if "=" not in part:
            raise KernelSpecError(f"malformed field {part!r} in {spec!r} (expected name=value)")
        name, _, raw = part.partition("=")
        name = name.strip()
        try:
            fields[name] = float(raw)
        except ValueError:
            raise KernelSpecError(f"field {name!r} in {spec!r}: {raw!r} is not a number") from None
    return fields


def _require(fields: dict, names: Iterable[str], spec: str) -> list[float]:
    names = list(names)
    unknown = set(fields) - set(names)
    if unknown:
        raise KernelSpecError(f"unknown field {sorted(unknown)[0]!r} in {spec!r}")
    vals = []
    for name in names:
        if name not in fields:
            raise KernelSpecError(f"missing field {name!r} in {spec!r}")
        vals.append(fields[name])
    return vals


def parse_kernel(spec: str) -> Kernel:
    """Parse a kernel specification like ``product:lambda=1``.

    Negative exponents are rejected: kernels must not blow up at zero
    frequency.  Raises :class:`KernelSpecError` naming the offending field.
    """
    family, _, rest = spec.strip().partition(":")
    family = family.strip().lower()
    if family not in _FAMILIES:
        raise KernelSpecError(f"unknown kernel family {family!r} (expected one of {_FAMILIES})")
    fields = _parse_fields(rest.strip(), spec)
    if family in ("product", "sum"):
        (lam,) = _require(fields, ["lambda"], spec)
        if lam < 0:
            raise KernelSpecError(f"field 'lambda' in {spec!r} must be >= 0, got {lam:g}")
        return Kernel(family, (lam,))
    if family == "mixed":
        p, q, r = _require(fields, ["p", "q", "r"], spec)
        for name, v in (("p", p), ("q", q), ("r", r)):
            if v < 0:
                raise KernelSpecError(f"field {name!r} in {spec!r} must be >= 0, got {v:g}")
        return Kernel("mixed", (p, q, r))
    (c,) = _require(fields, ["c"], spec)
    if c < 0:
        raise KernelSpecError(f"field 'c' in {spec!r} must be >= 0, got {c:g}")
    return Kernel("const", (c,))


def parse_weight(spec: str) -> WeightFunction:
    """Parse a weight specification: ``affine`` or ``fractional:gamma=0.5``."""
    variant, _, rest = spec.strip().partition(":")
    variant = variant.strip().lower()
    if variant == "affine":
        if rest.strip():
            raise KernelSpecError(f"weight 'affine' takes no fields, got {rest!r}")
        return AFFINE
    if variant == "fractional":
        (gamma,) = _require(_parse_fields(rest.strip(), spec), ["gamma"], spec)
        if not 0.0 < gamma < 1.0:
            raise KernelSpecError(f"field 'gamma' in {spec!r} must lie in (0,1), got {gamma:g}")
        return WeightFunction("fractional", gamma)
    raise KernelSpecError(f"unknown weight function {variant!r} (expected affine or fractional)")
