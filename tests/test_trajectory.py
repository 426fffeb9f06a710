import numpy as np
import pytest

from fourwave.trajectory import Trajectory, load_moments_csv, save_moments_csv


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
