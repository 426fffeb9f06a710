import json

import numpy as np
import pytest

from fourwave.kernels import AFFINE, parse_kernel
from fourwave.particle import ParticleState, simulate_truncated
from fourwave.trajectory import (Trajectory, load_moments_csv, save_events_jsonl,
                                 save_moments_csv)


def trace(truncated):
    t = np.linspace(0.0, 1.0, 4)
    return Trajectory(sample_times=t, W=np.full(4, 1.0), E=1.0 + t / 3, phi=2.0 + t / 7,
                      phi2=5.0 - t / 11, overflow=t / 13 if truncated else None)


class TestMomentsCsv:
    @pytest.mark.parametrize("truncated", [False, True])
    def test_round_trip(self, tmp_path, truncated):
        path = tmp_path / "moments.csv"
        traj = trace(truncated)
        save_moments_csv(traj, path)
        back = load_moments_csv(path)
        for name in ("sample_times", "W", "E", "phi", "phi2"):
            assert np.array_equal(getattr(back, name), getattr(traj, name))
        assert back.truncated == truncated
        if truncated:
            assert np.array_equal(back.overflow, traj.overflow)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "moments.csv"
        path.write_text("time,W,E,phi,phi2,Lambda\n0,1,1,2,5,\n")
        with pytest.raises(ValueError, match="header"):
            load_moments_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "moments.csv"
        save_moments_csv(trace(False), path)
        with open(path, "a") as fh:
            fh.write("1.5,1,1,2\n")
        with pytest.raises(ValueError, match=":6: expected 6 fields"):
            load_moments_csv(path)


class TestEventsJsonl:
    def test_round_trip_every_branch(self, tmp_path):
        # a start inside the window with no overflow: one escape feeds the
        # overflow, whose truncation clock then kills
        idx = np.random.default_rng(2).integers(64, 192, size=48)
        st = ParticleState.build(idx, 2.0 ** -6, AFFINE)
        traj = simulate_truncated(st, 3.0, 0.0, parse_kernel("product:lambda=1"), AFFINE,
                                  0.5, seed=13, record_events=True)
        ev = traj.events
        assert set(ev.branch.tolist()) == {"interior", "escape", "kill"}
        path = tmp_path / "events.jsonl"
        save_events_jsonl(traj, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(ev)
        for line, t, i, j, l, w, branch in zip(lines, ev.time.tolist(), ev.i.tolist(),
                                               ev.j.tolist(), ev.l.tolist(),
                                               ev.w_new.tolist(), ev.branch.tolist()):
            rec = json.loads(line)
            assert set(rec) == {"t", "i", "j", "l", "w_new"}
            assert all(type(rec[key]) is int for key in "ijl")
            assert (rec["t"], rec["i"], rec["j"], rec["l"]) == (t, i, j, l)
            if branch == "kill":
                assert rec["j"] == rec["l"] == -1 and rec["w_new"] is None
            else:
                assert rec["w_new"] == w
