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

    @pytest.mark.parametrize("field", ["abc", "1..5", ""])
    def test_non_number_named_with_line(self, tmp_path, field):
        path = tmp_path / "moments.csv"
        save_moments_csv(trace(True), path)
        with open(path, "a") as fh:
            fh.write(f"1.5,1,{field},2,5,0.1\n")
        with pytest.raises(ValueError, match=f"{path}:6: expected numbers, got "):
            load_moments_csv(path)

    @pytest.mark.parametrize("truncated", [False, True])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_refused(self, tmp_path, truncated, value):
        for column in range(6 if truncated else 5):
            path = tmp_path / "moments.csv"
            save_moments_csv(trace(truncated), path)
            lines = path.read_text().splitlines()
            fields = lines[2].split(",")
            fields[column] = value
            lines[2] = ",".join(fields)
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=f"{path}:3: expected finite numbers"):
                load_moments_csv(path)

    def test_empty_lambda_marks_untruncated_row(self, tmp_path):
        # empty Lambda fields mark an untruncated trace; one that mixes
        # empty and set fields is refused at its first row that differs
        path = tmp_path / "moments.csv"
        path.write_text("t,W,E,phi,phi2,Lambda\n0,1,1,2,5,\n")
        assert not load_moments_csv(path).truncated
        for body, odd in (("0,1,1,2,5,\n0.5,1,1,2,5,0.25\n", "set"),
                          ("0,1,1,2,5,0.25\n0.5,1,1,2,5,\n", "empty")):
            path.write_text("t,W,E,phi,phi2,Lambda\n" + body)
            with pytest.raises(ValueError, match=f"{path}:3: Lambda field {odd}"):
                load_moments_csv(path)

    def test_header_without_rows_refused(self, tmp_path):
        path = tmp_path / "moments.csv"
        path.write_text("t,W,E,phi,phi2,Lambda\n")
        with pytest.raises(ValueError, match=f"{path}: no moment rows"):
            load_moments_csv(path)

    @pytest.mark.parametrize("truncated", [False, True])
    def test_conserved_phi_of_a_truncated_trace(self, tmp_path, truncated):
        path = tmp_path / "moments.csv"
        save_moments_csv(trace(truncated), path)
        back = load_moments_csv(path)
        if truncated:
            assert np.array_equal(back.conserved_phi, back.phi + back.overflow)
        else:
            assert back.conserved_phi is None


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


class TestWriterBytes:
    """The writers' bytes against local copies of the per-row f-string and
    json.dumps formats they replace."""

    @staticmethod
    def moments_reference(traj):
        lams = traj.overflow if traj.truncated else [None] * len(traj.sample_times)
        lines = ["t,W,E,phi,phi2,Lambda"]
        for t, w, e, p, p2, lam in zip(traj.sample_times, traj.W, traj.E, traj.phi,
                                       traj.phi2, lams):
            lam_txt = "" if lam is None else f"{lam:.17g}"
            lines.append(f"{t:.17g},{w:.17g},{e:.17g},{p:.17g},{p2:.17g},{lam_txt}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def events_reference(traj):
        ev = traj.events
        kill = (ev.branch == "kill").tolist()
        return "".join(json.dumps({"t": t, "i": i, "j": j, "l": l, "w_new": None if k else w})
                       + "\n" for t, i, j, l, w, k in zip(ev.time.tolist(), ev.i.tolist(),
                                                          ev.j.tolist(), ev.l.tolist(),
                                                          ev.w_new.tolist(), kill))

    @pytest.fixture(scope="class")
    def run(self):
        idx = np.random.default_rng(2).integers(64, 192, size=48)
        st = ParticleState.build(idx, 2.0 ** -6, AFFINE)
        return simulate_truncated(st, 3.0, 0.0, parse_kernel("product:lambda=1"), AFFINE,
                                  0.5, seed=13, record_events=True)

    @pytest.mark.parametrize("truncated", [False, True])
    def test_moments(self, tmp_path, truncated):
        path = tmp_path / "moments.csv"
        traj = trace(truncated)
        traj.phi2[1] = 1.0 / 3.0  # 17 significant digits, not a short repr
        save_moments_csv(traj, path)
        assert path.read_text() == self.moments_reference(traj)

    def test_moments_of_a_run(self, tmp_path, run):
        path = tmp_path / "moments.csv"
        save_moments_csv(run, path)
        assert path.read_text() == self.moments_reference(run)

    def test_events_with_kills(self, tmp_path, run):
        assert {"interior", "escape", "kill"} <= set(run.events.branch.tolist())
        path = tmp_path / "events.jsonl"
        save_events_jsonl(run, path)
        assert path.read_text() == self.events_reference(run)
