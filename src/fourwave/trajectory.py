"""Trajectory containers shared by the particle simulator and the
deterministic solver, plus their on-disk formats.

Moment traces are CSV with header ``t,W,E,phi,phi2,Lambda`` (Lambda column
empty for untruncated runs).  A particle run's accepted jumps are held in
memory as columns: a numpy record array with fields ``time``, ``i``, ``j``,
``l``, ``w_new`` and ``branch`` ("interior", "escape" or "kill"; kill rows
carry ``j = l = -1`` and ``w_new = nan``).  On disk the event log is JSONL,
one record ``{"t", "i", "j", "l", "w_new"}`` per accepted jump, ``w_new``
null for kills.  CSV floats carry 17 significant digits and JSONL floats
Python's shortest round-trip repr, so files round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .measures import DiscreteMeasure

__all__ = ["EVENT_DTYPE", "Trajectory", "MomentRecorder",
           "save_moments_csv", "load_moments_csv", "save_events_jsonl"]

# one row per accepted jump; w_new is the surviving output frequency (the
# catalyst copy for an escape), nan for a kill
EVENT_DTYPE = np.dtype([("time", "f8"), ("i", "i8"), ("j", "i8"), ("l", "i8"),
                        ("w_new", "f8"), ("branch", "U8")])


@dataclass
class Trajectory:
    """Piecewise-constant path summarised on a fixed sample-time grid."""

    sample_times: np.ndarray
    W: np.ndarray
    E: np.ndarray
    phi: np.ndarray
    phi2: np.ndarray
    overflow: np.ndarray | None          # None for untruncated runs
    conserved_phi: np.ndarray | None = None  # <phi, X> + Lambda, single rounding
    energy_idx: np.ndarray | None = None  # exact integer energy (grid particle runs)
    snapshots: list[DiscreteMeasure] | None = None
    events: np.recarray | None = None     # EVENT_DTYPE columns
    initial_idx: np.ndarray | None = None  # slot values for event replay
    n: int | None = None
    h: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def truncated(self) -> bool:
        return self.overflow is not None


class MomentRecorder:
    """Collects moment rows (and optional snapshots) at fixed sample times
    from a piecewise-constant evolution of n unit-weight particles on the
    h-grid.

    The state is supplied by ``read()``, which returns the live grid
    indices, the phi total (None: sum it over the live particles) and the
    scaled overflow n * Lambda (None for an untruncated run).
    """

    def __init__(self, sample_times, n: int, h: float, weight, snapshots: bool = False):
        self.times = np.asarray(sample_times, dtype=float)
        self.n, self.h, self.weight = n, h, weight
        self._ptr = 0
        self._rows = []      # (W, E, phi, phi2, Lambda, <phi, X> + Lambda)
        self._idx_rows = []  # exact integer energy
        self._snaps = [] if snapshots else None

    def advance(self, t_next: float, read) -> None:
        """Record every sample time strictly before ``t_next`` using the
        current (pre-event) state supplied by ``read()``."""
        while self._ptr < len(self.times) and self.times[self._ptr] < t_next:
            self._record(read)
            self._ptr += 1

    def finish(self, read) -> None:
        self.advance(np.inf, read)

    def _record(self, read) -> None:
        live, phi_total, lam_scaled = read()
        n, h = self.n, self.h
        phis = np.asarray(self.weight(live * h), dtype=float)
        if phi_total is None:
            phi_total = float(phis.sum())
        energy = int(live.sum())
        self._rows.append((len(live) / n, energy * h / n, phi_total / n,
                           float(np.sum(phis * phis)) / n,
                           np.nan if lam_scaled is None else lam_scaled / n,
                           (phi_total + (lam_scaled or 0.0)) / n))
        self._idx_rows.append(energy)
        if self._snaps is not None:
            self._snaps.append(
                DiscreteMeasure.from_grid(live, np.full(len(live), 1.0 / n), h).compact())

    def build(self, truncated: bool, **kw) -> Trajectory:
        arr = np.asarray(self._rows, dtype=float).reshape(-1, 6)
        idx = np.asarray(self._idx_rows)
        return Trajectory(
            sample_times=self.times,
            W=arr[:, 0], E=arr[:, 1], phi=arr[:, 2], phi2=arr[:, 3],
            overflow=arr[:, 4].copy() if truncated else None,
            conserved_phi=arr[:, 5].copy(),
            energy_idx=idx if idx.dtype != object else None,
            snapshots=self._snaps, n=self.n, h=self.h,
            **kw,
        )


_MOMENTS_HEADER = "t,W,E,phi,phi2,Lambda"


def save_moments_csv(traj: Trajectory, path) -> None:
    lams = traj.overflow if traj.truncated else [None] * len(traj.sample_times)
    lines = [_MOMENTS_HEADER]
    for t, w, e, p, p2, lam in zip(traj.sample_times, traj.W, traj.E, traj.phi, traj.phi2, lams):
        lam_txt = "" if lam is None else f"{lam:.17g}"
        lines.append(f"{t:.17g},{w:.17g},{e:.17g},{p:.17g},{p2:.17g},{lam_txt}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_moments_csv(path) -> Trajectory:
    """Read a moment trace written by :func:`save_moments_csv`.

    Raises ValueError on a foreign header or on a row that does not have
    exactly six fields.
    """
    rows, lams = [], []
    truncated = False
    with open(path) as fh:
        header = fh.readline().strip()
        if header != _MOMENTS_HEADER:
            raise ValueError(f"{path}: expected header {_MOMENTS_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
            rows.append([float(x) for x in parts[:5]])
            if parts[5]:
                truncated = True
                lams.append(float(parts[5]))
            else:
                lams.append(np.nan)
    arr = np.asarray(rows).reshape(-1, 5)
    return Trajectory(
        sample_times=arr[:, 0], W=arr[:, 1], E=arr[:, 2], phi=arr[:, 3],
        phi2=arr[:, 4], overflow=np.asarray(lams) if truncated else None)


def save_events_jsonl(traj: Trajectory, path) -> None:
    ev = traj.events
    if ev is None:
        raise ValueError("trajectory carries no event log")
    kill = (ev.branch == "kill").tolist()
    with open(path, "w") as fh:
        for t, i, j, l, w, k in zip(ev.time.tolist(), ev.i.tolist(), ev.j.tolist(),
                                    ev.l.tolist(), ev.w_new.tolist(), kill):
            fh.write(json.dumps({"t": t, "i": i, "j": j, "l": l,
                                 "w_new": None if k else w}) + "\n")
