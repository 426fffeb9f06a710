"""Trajectory containers shared by the particle simulator and the
deterministic solver, plus their on-disk formats.

Moment traces are CSV with header ``t,W,E,phi,phi2,Lambda`` (Lambda column
empty for untruncated runs).  Particle event logs are JSONL, one record per
accepted jump.  All floats are written with 17 significant digits so files
round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .measures import DiscreteMeasure

__all__ = ["JumpEvent", "Trajectory", "MomentRecorder",
           "save_moments_csv", "load_moments_csv", "save_events_jsonl"]


@dataclass(frozen=True)
class JumpEvent:
    """One accepted jump: the interacting pair (i, j) and catalyst l.

    ``branch`` is "interior" (output stays in the window), "escape"
    (output credited to the overflow) or "kill" (single particle removed
    by a truncation clock).  ``before`` holds the three input frequencies,
    ``after`` the surviving outputs.
    """

    time: float
    i: int
    j: int
    l: int
    before: tuple
    after: tuple
    branch: str = "interior"

    def json_record(self) -> str:
        w_new = self.after[0] if self.after else None
        return json.dumps({"t": self.time, "i": self.i, "j": self.j,
                           "l": self.l, "w_new": w_new})


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
    count: np.ndarray | None = None
    snapshots: list[DiscreteMeasure] | None = None
    events: list[JumpEvent] | None = None
    initial_idx: np.ndarray | None = None  # slot values for event replay
    n: int | None = None
    h: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def truncated(self) -> bool:
        return self.overflow is not None

    def moment_rows(self):
        lam = self.overflow if self.truncated else [None] * len(self.sample_times)
        return zip(self.sample_times, self.W, self.E, self.phi, self.phi2, lam)


class MomentRecorder:
    """Collects moment rows (and optional snapshots) at fixed sample times
    from a piecewise-constant evolution."""

    def __init__(self, sample_times, snapshots: bool = False):
        self.times = np.asarray(sample_times, dtype=float)
        self._ptr = 0
        self._rows = []
        self._idx_rows = []
        self._snaps = [] if snapshots else None
        # observe() rows: (W, E, phi, phi2, lam, conserved, energy_idx, snapshot)

    def advance(self, t_next: float, observe) -> None:
        """Record every sample time strictly before ``t_next`` using the
        current (pre-event) state supplied by ``observe()``."""
        while self._ptr < len(self.times) and self.times[self._ptr] < t_next:
            self._record(observe)
            self._ptr += 1

    def finish(self, observe) -> None:
        while self._ptr < len(self.times):
            self._record(observe)
            self._ptr += 1

    def _record(self, observe) -> None:
        row = observe()
        self._rows.append(row[:6])
        self._idx_rows.append(row[6])
        if self._snaps is not None:
            self._snaps.append(row[7])

    def build(self, truncated: bool, **kw) -> Trajectory:
        arr = np.asarray(self._rows, dtype=float).reshape(-1, 6)
        idx = np.asarray(self._idx_rows)
        return Trajectory(
            sample_times=self.times,
            W=arr[:, 0], E=arr[:, 1], phi=arr[:, 2], phi2=arr[:, 3],
            overflow=arr[:, 4].copy() if truncated else None,
            conserved_phi=arr[:, 5].copy(),
            energy_idx=idx if idx.dtype != object else None,
            snapshots=self._snaps,
            **kw,
        )


_MOMENTS_HEADER = "t,W,E,phi,phi2,Lambda"


def save_moments_csv(traj: Trajectory, path) -> None:
    lines = [_MOMENTS_HEADER]
    for t, w, e, p, p2, lam in traj.moment_rows():
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
    if traj.events is None:
        raise ValueError("trajectory carries no event log")
    with open(path, "w") as fh:
        for ev in traj.events:
            fh.write(ev.json_record() + "\n")
