import json
from pathlib import Path

import numpy as np

from fourwave.cli import main


def read(p: Path) -> bytes:
    return p.read_bytes()


class TestSimulate:
    def test_manifest_and_bit_identical_rerun(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--kernel", "product:lambda=1", "--n", "50",
                "--t-end", "0.2", "--seed", "7", "--h", str(2.0 ** -10),
                "--events"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7
        assert manifest["schema"] == 1 and "version" in manifest
        for name in ["moments_r000.csv", "events_r000.jsonl", "manifest.json"]:
            assert read(out1 / name) == read(out2 / name)

    def test_manifest_replay_with_flag_override(self, tmp_path):
        out1 = tmp_path / "a"
        main(["simulate", "--kernel", "product:lambda=1", "--n", "40",
              "--t-end", "0.2", "--seed", "3", "--h", str(2.0 ** -10),
              "--out", str(out1)])
        out2 = tmp_path / "b"
        assert main(["simulate", "--manifest", str(out1 / "manifest.json"),
                     "--seed", "4", "--out", str(out2)]) == 0
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m2["config"]["seed"] == 4
        assert m2["config"]["n"] == 40

    def test_manifest_replay_bit_identical(self, tmp_path):
        out1 = tmp_path / "a"
        main(["simulate", "--kernel", "product:lambda=1", "--n", "40",
              "--t-end", "0.2", "--seed", "3", "--h", str(2.0 ** -10),
              "--events", "--out", str(out1)])
        out2 = tmp_path / "b"
        assert main(["simulate", "--manifest", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        for name in ["manifest.json", "moments_r000.csv", "events_r000.jsonl"]:
            assert read(out1 / name) == read(out2 / name)

    def test_submultiplicativity_violation_exit3(self, tmp_path, capsys):
        code = main(["simulate", "--kernel", "product:lambda=9", "--n", "32",
                     "--t-end", "0.1", "--seed", "1", "--h", str(2.0 ** -10),
                     "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert "witness" in err or "acceptance probability" in err

    def test_n_too_small_exit2(self, tmp_path, capsys):
        code = main(["simulate", "--kernel", "product:lambda=1", "--n", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "n >= 2" in capsys.readouterr().err

    def test_truncated_run_has_lambda_trace(self, tmp_path):
        out = tmp_path / "tr"
        assert main(["simulate", "--kernel", "product:lambda=1", "--n", "64",
                     "--t-end", "0.3", "--seed", "2", "--h", str(2.0 ** -8),
                     "--bound", "1.0", "--out", str(out)]) == 0
        lines = (out / "moments_r000.csv").read_text().splitlines()
        assert lines[0] == "t,W,E,phi,phi2,Lambda"
        assert all(row.split(",")[5] != "" for row in lines[1:])

    def test_threads_agree_with_serial(self, tmp_path):
        base = ["simulate", "--kernel", "product:lambda=1", "--n", "40",
                "--t-end", "0.2", "--seed", "5", "--h", str(2.0 ** -10),
                "--replicas", "3"]
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(base + ["--threads", "3", "--out", str(out2)]) == 0
        for r in range(3):
            name = f"moments_r{r:03d}.csv"
            assert read(out1 / name) == read(out2 / name)


class TestSolve:
    def test_zero_kernel_final_equals_initial(self, tmp_path):
        # initial mass inside the window, so the overflow coupling is off too
        from fourwave.measures import DiscreteMeasure, save_measure_csv
        mu = DiscreteMeasure.from_grid([16, 48], [0.5, 0.5], 2.0 ** -6)
        ini = tmp_path / "mu0.csv"
        save_measure_csv(mu, ini)
        out = tmp_path / "s"
        assert main(["solve", "--kernel", "const:c=0", "--t-end", "0.5",
                     "--dt", "0.05", "--bound", "2.0", "--initial", str(ini),
                     "--out", str(out)]) == 0
        assert read(out / "initial.csv") == read(out / "final.csv")

    def test_rk4_richardson_table(self, tmp_path):
        out = tmp_path / "r"
        assert main(["solve", "--kernel", "product:lambda=1", "--method", "rk4",
                     "--dt", "0.04", "--t-end", "0.4", "--bound", "4.0",
                     "--richardson", "--out", str(out)]) == 0
        table = json.loads((out / "richardson.json").read_text())
        assert table["expected_ratio"] == 16.0
        assert 10.0 <= table["ratio"] <= 24.0

    def test_conservation_artifacts(self, tmp_path):
        out = tmp_path / "c"
        assert main(["solve", "--kernel", "product:lambda=1", "--dt", "0.02",
                     "--t-end", "0.3", "--bound", "4.0", "--out", str(out)]) == 0
        rep = json.loads((out / "conservation.json").read_text())
        assert rep["schema"] == 1
        assert rep["drift_phi_plus_lambda"] <= 1e-10


class TestCompare:
    def test_reference_vs_itself_and_missing_dir(self, tmp_path, capsys):
        ref = tmp_path / "ref"
        assert main(["solve", "--kernel", "const:c=0", "--t-end", "0.2",
                     "--dt", "0.05", "--bound", "2.0", "--samples", "5",
                     "--out", str(ref)]) == 0
        out = tmp_path / "cmp"
        assert main(["compare", str(ref), str(ref), "--out", str(out)]) == 0
        report = json.loads((out / "convergence.json").read_text())
        assert report["median_err"] == [0.0]
        assert main(["compare", str(tmp_path / "nope"), str(ref)]) == 2
        assert "missing run directory" in capsys.readouterr().err

    def test_three_n_sweep_populates_slope_and_ci(self, tmp_path):
        h = str(2.0 ** -6)
        ref = tmp_path / "ref"
        assert main(["solve", "--kernel", "const:c=0", "--t-end", "0.2",
                     "--dt", "0.05", "--bound", "4.0", "--samples", "4",
                     "--h", h, "--out", str(ref)]) == 0
        dirs = []
        for n in [30, 60, 120]:
            d = tmp_path / f"ens{n}"
            assert main(["simulate", "--kernel", "const:c=0", "--n", str(n),
                         "--t-end", "0.2", "--seed", "21", "--h", h,
                         "--samples", "4", "--replicas", "4", "--snapshots",
                         "--out", str(d)]) == 0
            dirs.append(str(d))
        out = tmp_path / "cmp"
        assert main(["compare", ",".join(dirs), str(ref), "--out", str(out)]) == 0
        report = json.loads((out / "convergence.json").read_text())
        assert report["n"] == [30, 60, 120]
        assert np.isfinite(report["slope"])
        assert report["slope_ci"][0] <= report["slope"] <= report["slope_ci"][1]

    def test_two_ensembles_with_one_n_rejected(self, tmp_path, capsys):
        h = str(2.0 ** -6)
        ref = tmp_path / "ref"
        assert main(["solve", "--kernel", "const:c=0", "--t-end", "0.2",
                     "--dt", "0.05", "--bound", "4.0", "--samples", "3",
                     "--h", h, "--out", str(ref)]) == 0
        dirs = []
        for replicas in ("2", "3"):
            d = tmp_path / f"ens{replicas}"
            assert main(["simulate", "--kernel", "const:c=0", "--n", "20",
                         "--t-end", "0.2", "--seed", replicas, "--h", h,
                         "--samples", "3", "--replicas", replicas, "--snapshots",
                         "--out", str(d)]) == 0
            dirs.append(str(d))
        out = tmp_path / "cmp"
        capsys.readouterr()
        assert main(["compare", ",".join(dirs), str(ref), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and dirs[0] in err and dirs[1] in err
        assert not out.exists()

    def test_particle_ensemble_vs_reference(self, tmp_path):
        h = str(2.0 ** -6)
        ref = tmp_path / "ref"
        assert main(["solve", "--kernel", "product:lambda=1", "--t-end", "0.2",
                     "--dt", "0.02", "--bound", "4.0", "--samples", "5",
                     "--h", h, "--out", str(ref)]) == 0
        ens = tmp_path / "ens"
        assert main(["simulate", "--kernel", "product:lambda=1", "--n", "100",
                     "--t-end", "0.2", "--seed", "11", "--h", h, "--samples", "5",
                     "--replicas", "4", "--snapshots", "--out", str(ens)]) == 0
        out = tmp_path / "cmp"
        assert main(["compare", str(ens), str(ref), "--out", str(out)]) == 0
        report = json.loads((out / "convergence.json").read_text())
        assert report["n"] == [100]
        assert all(e > 0 for e in report["errors"]["100"])


class TestValidate:
    def test_pass_cases(self, capsys):
        assert main(["validate", "--kernel", "product:lambda=1"]) == 0
        # shallow-water application case: degree 3 stays sub-multiplicative
        assert main(["validate", "--kernel", "product:lambda=3"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_fractional_weight_fail(self, capsys):
        # product degree 1 is NOT dominated by the fractional weight with
        # gamma != 2/3
        assert main(["validate", "--kernel", "product:lambda=1",
                     "--weight", "fractional:gamma=0.5"]) == 3

    def test_malformed_spec_exit2(self, capsys):
        assert main(["validate", "--kernel", "product:lambda=oops"]) == 2
        assert "'lambda'" in capsys.readouterr().err
        assert main(["validate", "--kernel", "frob:lambda=1"]) == 2
        assert "unknown kernel family" in capsys.readouterr().err


class TestPicard:
    def test_report(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert main(["picard", "--kernel", "product:lambda=1",
                     "--out", str(out)]) == 0
        data = json.loads((out / "picard.json").read_text())
        assert data["within_sqrt2"] is True
        assert len(data["sup_norms"]) == 21


class TestReport:
    def test_from_moment_trace(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--kernel", "product:lambda=1", "--n", "40",
              "--t-end", "0.2", "--seed", "5", "--h", str(2.0 ** -10),
              "--out", str(sim)])
        assert main(["report", str(sim / "moments_r000.csv")]) == 0
        assert "drift W" in capsys.readouterr().out
        assert main(["report", str(sim / "nothere.csv")]) == 2


class TestOutputRoot:
    def test_env_var_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FOURWAVE_OUTPUT_ROOT", str(tmp_path))
        assert main(["simulate", "--kernel", "const:c=0", "--n", "8",
                     "--t-end", "0.1", "--seed", "9", "--h", "0.25"]) == 0
        assert (tmp_path / "sim-seed9" / "manifest.json").exists()


class TestBoundSchedule:
    def test_window_schedule_diagnostics(self, tmp_path):
        from fourwave.measures import DiscreteMeasure, save_measure_csv
        mu = DiscreteMeasure.from_grid([32, 64], [0.5, 0.5], 2.0 ** -6)
        ini = tmp_path / "mu0.csv"
        save_measure_csv(mu, ini)
        out = tmp_path / "sched"
        assert main(["solve", "--kernel", "product:lambda=1", "--dt", "0.02",
                     "--t-end", "0.3", "--bound-schedule", "1.0,2.0,4.0",
                     "--initial", str(ini), "--out", str(out)]) == 0
        diag = json.loads((out / "overflow_schedule.json").read_text())
        assert set(diag["overflow"]) == {"1", "2", "4"}
        # overflow shrinks as the window grows
        assert diag["overflow"]["4"][-1] <= diag["overflow"]["1"][-1]


class TestManifestValidation:
    def test_unknown_manifest_key_rejected(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        main(["simulate", "--kernel", "const:c=0", "--n", "8", "--t-end", "0.1",
              "--seed", "1", "--h", "0.25", "--out", str(out1)])
        manifest = json.loads((out1 / "manifest.json").read_text())
        manifest["config"]["frobnicate"] = 3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        assert main(["simulate", "--manifest", str(bad),
                     "--out", str(tmp_path / "b")]) == 2
        assert "unknown key 'frobnicate'" in capsys.readouterr().err
