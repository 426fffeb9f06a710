"""Trajectory containers shared by the particle simulator and the
deterministic solver, plus their on-disk formats.  Both build them from
moment rows with ``Trajectory.from_rows``, the particle drivers through
``particle.MomentRecorder``; nothing here reads a particle state.

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

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import DiscreteMeasure

__all__ = ["EVENT_DTYPE", "Trajectory", "checked_sample_times", "save_moments_csv",
           "load_moments_csv", "save_events_jsonl"]

# one row per accepted jump; w_new is the surviving output frequency (the
# catalyst copy for an escape), nan for a kill
EVENT_DTYPE = np.dtype([("time", "f8"), ("i", "i8"), ("j", "i8"), ("l", "i8"),
                        ("w_new", "f8"), ("branch", "U8")])


def checked_sample_times(sample_times, t_end: float) -> np.ndarray:
    """The sample times as a float array, 17 evenly spaced times for None;
    ValueError unless they are nondecreasing and lie in [0, t_end]."""
    times = np.linspace(0.0, t_end, 17) if sample_times is None else np.asarray(
        sample_times, dtype=float)
    if len(times) and not (times[0] >= 0.0 and times[-1] <= t_end
                           and np.all(np.diff(times) >= 0.0)):
        raise ValueError(f"sample times must be nondecreasing and lie in [0, t_end={t_end!r}]")
    return times


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

    @classmethod
    def from_rows(cls, times, rows, truncated: bool, **kw) -> "Trajectory":
        """A trajectory from moment rows (W, E, phi, phi2, Lambda, <phi, .> +
        Lambda), one per sample time; Lambda is the ``overflow`` only when
        ``truncated``, and ``kw`` sets the other fields."""
        arr = np.asarray(rows, dtype=float).reshape(-1, 6)
        return cls(sample_times=times, W=arr[:, 0], E=arr[:, 1], phi=arr[:, 2],
                   phi2=arr[:, 3], overflow=arr[:, 4].copy() if truncated else None,
                   conserved_phi=arr[:, 5].copy(), **kw)

    @property
    def truncated(self) -> bool:
        return self.overflow is not None


_MOMENTS_HEADER = "t,W,E,phi,phi2,Lambda"


def save_moments_csv(traj: Trajectory, path) -> None:
    cols = [traj.sample_times, traj.W, traj.E, traj.phi, traj.phi2]
    if traj.truncated:
        cols.append(traj.overflow)
    row = ",".join(["{:.17g}"] * len(cols)) + ("" if traj.truncated else ",")
    lines = [_MOMENTS_HEADER]
    lines.extend(map(row.format, *(np.asarray(c).tolist() for c in cols)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_moments_csv(path) -> Trajectory:
    """Read a moment trace written by :func:`save_moments_csv`.

    Raises ValueError on a foreign header or no rows (naming ``path``), and
    on a row without exactly six fields, a field that is not a finite
    number, or a Lambda field empty where the rows before have one or the
    reverse (naming ``path:line``).  Empty Lambda fields mark an untruncated
    trace; a truncated one gets ``conserved_phi`` = phi + Lambda.
    """
    rows = []
    truncated = False
    with open(path) as fh:
        header = fh.readline().strip()
        if header != _MOMENTS_HEADER:
            raise ValueError(f"{path}: expected header {_MOMENTS_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            parts = line.split(",")
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
            try:
                row = [float(x) for x in (parts if parts[5] else parts[:5])]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: expected numbers, got {line!r} "
                                 f"({exc})") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{lineno}: expected finite numbers, got {line!r}")
            if rows and bool(parts[5]) != truncated:
                raise ValueError(f"{path}:{lineno}: Lambda field {'set' if parts[5] else 'empty'}"
                                 f", unlike the rows before, in {line!r}")
            truncated = bool(parts[5])
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no moment rows after the header")
    arr = np.asarray(rows)
    lam = arr[:, 5] if truncated else None
    return Trajectory(sample_times=arr[:, 0], W=arr[:, 1], E=arr[:, 2], phi=arr[:, 3],
                      phi2=arr[:, 4], overflow=lam,
                      conserved_phi=None if lam is None else arr[:, 3] + lam)


def save_events_jsonl(traj: Trajectory, path) -> None:
    ev = traj.events
    if ev is None:
        raise ValueError("trajectory carries no event log")
    # the bytes of json.dumps: a float's repr, null for a kill's w_new
    w_new = ("null" if k else repr(w) for w, k in zip(ev.w_new.tolist(),
                                                     (ev.branch == "kill").tolist()))
    with open(path, "w") as fh:
        fh.writelines(map('{{"t": {!r}, "i": {}, "j": {}, "l": {}, "w_new": {}}}\n'.format,
                          ev.time.tolist(), ev.i.tolist(), ev.j.tolist(), ev.l.tolist(),
                          w_new))
