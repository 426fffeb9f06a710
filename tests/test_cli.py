import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from fourwave import cli
from fourwave.cli import main
from fourwave.measures import DiscreteMeasure, load_measure_csv, save_measure_csv
from fourwave.particle import init, truncation_overflow_start


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

    def test_undominated_at_the_smallest_frequency_exit3(self, tmp_path, capsys):
        # K/(phi phi phi) = (w1 w2 w3)^(-1/6) is largest at the grid's h
        out = tmp_path / "x"
        code = main(["simulate", "--kernel", "product:lambda=0.5", "--weight",
                     "fractional:gamma=0.6666666666666666", "--h", "0.125", "--n", "60",
                     "--seed", "7", "--out", str(out)])
        assert code == 3
        assert "= 2.82843 at witness (0.125, 0.125, 0.125)" in capsys.readouterr().err
        assert not out.exists()

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

    def test_lambda0_below_cover_refused(self, tmp_path, capsys):
        # the overflow start must cover the phi-mass outside the window
        # (nu^B >= 0): below it exits 2 naming both values; the cover runs
        argv = ["simulate", "--kernel", "product:lambda=1", "--n", "40", "--t-end", "0.1",
                "--seed", "3", "--h", "0.125", "--bound", "2"]
        cover = truncation_overflow_start(init(40, None, 0.125, 3), 2.0)
        below = cover / 2
        assert cover > 0.0
        err = _refused(argv + ["--lambda0", repr(below)], tmp_path / "below", capsys)
        assert "nu^B < 0" in err and repr(below) in err and repr(cover) in err
        assert main(argv + ["--lambda0", repr(cover), "--out", str(tmp_path / "cover")]) == 0

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

    def test_unreadable_run_refused(self, tmp_path, capsys):
        # each run directory is read through its manifest: one that is no
        # simulate or solve manifest, lacks or mistypes a key, or names a
        # snapshot file that is not there exits 2, naming what is wrong
        h = str(2.0 ** -6)
        ref, ens, bare, pic = (tmp_path / name for name in ("ref", "ens", "bare", "pic"))
        assert main(["solve", "--kernel", "const:c=0", "--t-end", "0.2", "--dt", "0.05",
                     "--samples", "3", "--h", h, "--out", str(ref)]) == 0
        sim = ["simulate", "--kernel", "const:c=0", "--n", "20", "--t-end", "0.2", "--seed", "1",
               "--h", h, "--samples", "3", "--replicas", "2"]
        assert main(sim + ["--snapshots", "--out", str(ens)]) == 0
        assert main(sim + ["--out", str(bare)]) == 0
        assert main(["picard", "--kernel", "product:lambda=1", "--out", str(pic)]) == 0

        def edited(name, edit):
            run = tmp_path / name
            shutil.copytree(ens, run)
            manifest = json.loads((run / "manifest.json").read_text())
            edit(manifest)
            (run / "manifest.json").write_text(json.dumps(manifest))
            return run

        no_config = edited("no-config", lambda m: m.pop("config"))
        no_t_end = edited("no-t-end", lambda m: m["config"].pop("t_end"))
        text = edited("text", lambda m: m["config"].update(samples="17"))
        more = edited("more", lambda m: m["config"].update(samples=4))
        cases = {
            "picard": ([pic], ref, f"{pic / 'manifest.json'} is not a fourwave simulate or "
                                   "solve manifest"),
            "no-config": ([ens], no_config, f"{no_config / 'manifest.json'} is not a fourwave"),
            "no-t-end": ([no_t_end], ref, f"the manifest in {str(no_t_end)!r} sets no 't_end'"),
            "text": ([ens, text], ref, "manifest key 'samples' must be an integer, got '17'"),
            "no-snapshots": ([ens], bare, f"no snapshots in {str(bare)!r}"),
            "missing-file": ([more], ref, f"No such file or directory: "
                                          f"'{more / 'snap_r000_t003.csv'}'"),
        }
        capsys.readouterr()
        for name, (ensembles, reference, named) in cases.items():
            argv = ["compare", ",".join(map(str, ensembles)), str(reference)]
            assert named in _refused(argv, tmp_path / "out", capsys), name

    def test_refusal_names_the_manifest(self, tmp_path, capsys):
        # with several runs on the command line, an unknown key, a mistyped
        # value and a non-finite one each name the manifest at fault
        h = str(2.0 ** -6)
        ref, ens = tmp_path / "ref", tmp_path / "ens"
        assert main(["solve", "--kernel", "const:c=0", "--t-end", "0.2", "--dt", "0.05",
                     "--samples", "3", "--h", h, "--out", str(ref)]) == 0
        assert main(["simulate", "--kernel", "const:c=0", "--n", "20", "--t-end", "0.2",
                     "--seed", "1", "--h", h, "--samples", "3", "--snapshots",
                     "--out", str(ens)]) == 0
        edits = {"frob": ({"frobnicate": 3}, "unknown key 'frobnicate'"),
                 "text": ({"samples": "17"}, "manifest key 'samples' must be an integer"),
                 "nan": ({"t_end": math.nan}, "--t-end must be finite")}
        capsys.readouterr()
        for name, (edit, named) in edits.items():
            run = tmp_path / name
            shutil.copytree(ens, run)
            manifest = json.loads((run / "manifest.json").read_text())
            manifest["config"].update(edit)
            (run / "manifest.json").write_text(json.dumps(manifest))
            err = _refused(["compare", f"{ens},{run}", str(ref)], tmp_path / "out", capsys)
            assert f"{run / 'manifest.json'}: " in err and named in err, name

    def test_simulate_reference_reads_one_replica(self, tmp_path, monkeypatch):
        # a simulate reference contributes its first replica only, and the
        # other replicas' snapshot files are not read
        h = str(2.0 ** -6)
        sim = ["simulate", "--kernel", "product:lambda=1", "--t-end", "0.2", "--seed", "5",
               "--h", h, "--samples", "3", "--replicas", "4", "--snapshots"]
        for n in ("20", "40"):
            assert main(sim + ["--n", n, "--out", str(tmp_path / f"e{n}")]) == 0
        reads = []
        monkeypatch.setattr(cli, "load_measure_csv",
                            lambda path: reads.append(Path(path)) or load_measure_csv(path))
        out = tmp_path / "cmp"
        assert main(["compare", str(tmp_path / "e20"), str(tmp_path / "e40"),
                     "--out", str(out)]) == 0
        assert len(reads) == 4 * 3 + 3
        assert sorted(p.name for p in reads if p.parent.name == "e40") == [
            f"snap_r000_t{k:03d}.csv" for k in range(3)]
        assert json.loads((out / "convergence.json").read_text())["n"] == [20]


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

    def test_off_grid_bound_exit2(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert main(["picard", "--kernel", "product:lambda=1", "--bound", "0.3",
                     "--out", str(out)]) == 2
        assert "multiple of the grid resolution h" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_taken_from_initial(self, tmp_path, capsys):
        h = 2.0 ** -7
        initial = tmp_path / "mu0.csv"
        save_measure_csv(DiscreteMeasure.from_grid([1, 2], [0.5, 0.5], h), initial)
        base = ["picard", "--kernel", "product:lambda=1", "--initial", str(initial)]
        for extra in ([], ["--h", repr(h)]):
            out = tmp_path / f"p{len(extra)}"
            assert main(base + extra + ["--out", str(out)]) == 0
            assert json.loads((out / "manifest.json").read_text())["config"]["h"] == h
        out = tmp_path / "refused"
        assert main(base + ["--h", repr(2.0 ** -6), "--out", str(out)]) == 2
        assert "differs from the grid h=0.0078125" in capsys.readouterr().err
        assert not out.exists()
        # a file without a grid is refused, with or without --h
        initial.write_text("omega,weight\n0.5,1\n")
        for extra in ([], ["--h", repr(h)]):
            assert main(base + extra + ["--out", str(out)]) == 2
            assert "picard requires grid-mode initial data" in capsys.readouterr().err
            assert not out.exists()


class TestPicardReport:
    def test_iterations_evaluated(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert main(["picard", "--kernel", "product:lambda=1",
                     "--out", str(out)]) == 0
        data = json.loads((out / "picard.json").read_text())
        e = data["iterations_evaluated"]
        assert 1 <= e < 20
        # iteration e changed nothing, so every later row is a copy
        assert data["sup_diffs"][e - 1:] == [0.0] * (21 - e)
        assert data["sup_norms"][e - 1:] == [data["sup_norms"][e]] * (22 - e)

    def test_bad_iterations_exit2(self, tmp_path, capsys):
        for count in ("0", "-3"):
            assert main(["picard", "--kernel", "product:lambda=1", "--iterations", count,
                         "--out", str(tmp_path / "p")]) == 2
            err = capsys.readouterr().err
            assert "configuration error: iterations must be at least 1" in err


class TestReport:
    def test_from_moment_trace(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--kernel", "product:lambda=1", "--n", "40",
              "--t-end", "0.2", "--seed", "5", "--h", str(2.0 ** -10),
              "--out", str(sim)])
        assert main(["report", str(sim / "moments_r000.csv")]) == 0
        assert "drift W" in capsys.readouterr().out
        assert main(["report", str(sim / "nothere.csv")]) == 2

    @pytest.mark.parametrize("value, message", [("abc", "expected numbers"),
                                                ("nan", "expected finite numbers"),
                                                ("inf", "expected finite numbers")])
    def test_bad_field_exit2_naming_line(self, tmp_path, capsys, value, message):
        path = tmp_path / "moments.csv"
        path.write_text(f"t,W,E,phi,phi2,Lambda\n0,1,1,2,5,\n0.5,1,{value},2,5,\n")
        out = tmp_path / "out"
        assert main(["report", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}:3: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("body, where", [("", ": no moment rows"),
                                             ("0,1,1,2,5,\n0.5,1,1,2,5,0.25\n", ":3: Lambda")])
    def test_rowless_or_mixed_trace_exit2(self, tmp_path, capsys, body, where):
        path = tmp_path / "moments.csv"
        path.write_text("t,W,E,phi,phi2,Lambda\n" + body)
        out = tmp_path / "out"
        assert main(["report", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {path}{where}")
        assert not out.exists()

    def test_truncated_trace_checks_phi_plus_lambda(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--kernel", "product:lambda=1", "--n", "40", "--bound", "1",
                     "--t-end", "0.2", "--seed", "5", "--h", str(2.0 ** -6),
                     "--out", str(sim)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["report", str(sim / "moments_r000.csv"), "--out", str(out)]) == 0
        assert "drift <phi,.>+Lambda n/a" not in capsys.readouterr().out
        drift = json.loads((out / "conservation.json").read_text())["drift_phi_plus_lambda"]
        assert drift is not None and drift <= 1e-12


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

    def test_richardson_and_lambda0_refused(self, tmp_path, capsys):
        # the schedule writes the largest window's trace: a Richardson table
        # on --bound, or an overflow start it would drop, cannot go with it
        argv = ["solve", "--kernel", "product:lambda=1", "--dt", "0.02",
                "--t-end", "0.1", "--bound-schedule", "1,2"]
        for extra in (["--richardson"], ["--lambda0", "0.5"]):
            out = tmp_path / extra[0].lstrip("-")
            assert main(argv + extra + ["--out", str(out)]) == 2
            assert "--bound-schedule" in capsys.readouterr().err
            assert not out.exists()
        out = tmp_path / "plain"
        assert main(argv + ["--lambda0", "0", "--out", str(out)]) == 0
        assert (out / "overflow_schedule.json").exists()

    def test_differing_bound_refused(self, tmp_path, capsys):
        # the schedule runs its largest window: another --bound would be
        # recorded without being run
        argv = ["solve", "--kernel", "product:lambda=1", "--dt", "0.02",
                "--t-end", "0.1", "--bound-schedule", "1,2"]
        out = tmp_path / "refused"
        assert main(argv + ["--bound", "3", "--out", str(out)]) == 2
        assert "--bound-schedule" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv + ["--bound", "2", "--out", str(tmp_path / "same")]) == 0

    def test_manifest_records_largest_window_and_replays(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--kernel", "sum:lambda=1", "--dt", "0.02", "--t-end", "0.1",
                     "--samples", "3", "--bound-schedule", "2,1", "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["config"]["bound"] == 2.0
        from fourwave.measures import load_measure_csv
        assert 1.0 < load_measure_csv(out1 / "final.csv").positions.max() <= 2.0
        assert main(["solve", "--manifest", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert read(out1 / name) == read(out2 / name), name


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


class TestEventCap:
    def test_truncated_and_untruncated_exit3(self, tmp_path, capsys):
        argv = ["simulate", "--kernel", "product:lambda=1", "--h", "0.015625", "--n", "200",
                "--events", "--max-events", "5"]
        for extra in ([], ["--bound", "2"]):
            assert main(argv + extra + ["--out", str(tmp_path / "x")]) == 3
            assert "cap of 5 records" in capsys.readouterr().err


class TestCounts:
    SIM = ["simulate", "--kernel", "const:c=0", "--n", "8", "--t-end", "0.1", "--h", "0.25"]

    def test_below_one_refused_before_output(self, tmp_path, capsys):
        for argv in (self.SIM + ["--replicas", "0"], self.SIM + ["--samples", "0"],
                     ["solve", "--kernel", "const:c=0", "--samples", "0"]):
            out = tmp_path / "x"
            assert main(argv + ["--out", str(out)]) == 2
            assert "must be at least 1" in capsys.readouterr().err
            assert not out.exists()

    def test_below_one_refused_on_replay(self, tmp_path, capsys):
        assert main(self.SIM + ["--out", str(tmp_path / "a")]) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        manifest["config"]["replicas"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        out = tmp_path / "b"
        assert main(["simulate", "--manifest", str(bad), "--out", str(out)]) == 2
        assert "--replicas must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_max_events_below_one_refused(self, tmp_path, capsys):
        argv = ["simulate", "--kernel", "product:lambda=1", "--h", "0.015625", "--n", "200",
                "--events"]
        for value in ("0", "-1"):
            out = tmp_path / f"flag{value}"
            assert main(argv + ["--max-events", value, "--out", str(out)]) == 2
            assert "--max-events must be at least 1" in capsys.readouterr().err
            assert not out.exists()
        assert main(argv + ["--t-end", "0.1", "--out", str(tmp_path / "a")]) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        manifest["config"]["max_events"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        out = tmp_path / "b"
        assert main(["simulate", "--manifest", str(bad), "--out", str(out)]) == 2
        assert "--max-events must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestNegativeBound:
    """A negative --bound is refused, naming the bound, before any output;
    --bound 0 runs."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--kernel", "product:lambda=1", "--h", "0.015625", "--n", "10",
         "--bound", "-1"],
        ["solve", "--kernel", "product:lambda=1", "--bound", "-0.5"],
        ["solve", "--kernel", "product:lambda=1", "--bound-schedule=-0.5,1"],
        ["picard", "--kernel", "product:lambda=1", "--bound", "-0.0625"],
    ], ids=["simulate", "solve", "solve-schedule", "picard"])
    def test_refused(self, tmp_path, capsys, argv):
        assert "bound must be nonnegative, got -" in _refused(argv, tmp_path / "out", capsys)

    def test_zero_bound_runs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--kernel", "product:lambda=1", "--h", "0.015625",
                     "--n", "10", "--t-end", "0.1", "--bound", "0", "--out", str(out)]) == 0
        assert (out / "moments_r000.csv").exists()


class TestForeignManifest:
    def test_refused(self, tmp_path, capsys):
        main(["simulate", "--kernel", "const:c=0", "--n", "8", "--t-end", "0.1",
              "--h", "0.25", "--out", str(tmp_path / "a")])
        good = json.loads((tmp_path / "a" / "manifest.json").read_text())
        cases = {"sim": ("simulate", {"foo": 1}),
                 "tool": ("simulate", {**good, "tool": "other"}),
                 "config": ("simulate", {**good, "config": [1]}),
                 "command": ("solve", good),
                 "list": ("simulate", [good])}
        for name, (command, data) in cases.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            out = tmp_path / f"out-{name}"
            assert main([command, "--manifest", str(path), "--out", str(out)]) == 2, name
            assert f"is not a fourwave {command} manifest" in capsys.readouterr().err
            assert not out.exists()


class TestMissingInput:
    """A missing input file is a configuration error: exit 2, one line on
    stderr, and no output directory."""

    def test_exit2_without_output(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        ref = tmp_path / "ref"
        assert main(["solve", "--kernel", "const:c=0", "--t-end", "0.1", "--samples", "2",
                     "--out", str(ref)]) == 0
        (tmp_path / "empty").mkdir()
        capsys.readouterr()
        cases = {"simulate": ["simulate", "--manifest", missing + ".json"],
                 "solve": ["solve", "--kernel", "const:c=0", "--initial", missing + ".csv"],
                 "compare": ["compare", str(tmp_path / "empty"), str(ref)]}
        for name, argv in cases.items():
            out = tmp_path / f"out-{name}"
            assert main(argv + ["--out", str(out)]) == 2, name
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and "Traceback" not in err, name
            assert "No such file" in err, name
            assert not out.exists(), name


class TestConfigErrorWritesNothing:
    """A configuration error found only once the run starts is refused
    like one found while reading the flags: exit 2, one line on stderr,
    and no output directory."""

    SIM = ["simulate", "--kernel", "product:lambda=1", "--n", "8"]
    SOLVE = ["solve", "--kernel", "const:c=0"]

    @pytest.mark.parametrize("argv", [
        SIM + ["--h", "0.3"],
        SIM + ["--t-end", "-1"],
        SIM + ["--bound", "1", "--lambda0", "-1"],
        SOLVE + ["--bound", "0.3"],
        SOLVE + ["--dt", "-1"],
    ], ids=["sim-h", "sim-t-end", "sim-lambda0", "solve-bound", "solve-dt"])
    def test_exit2_without_output(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "Traceback" not in err
        assert not out.exists()


def _initial_csv(tmp_path: Path, body: str, h: float | None = 2.0 ** -6) -> str:
    path = tmp_path / "mu0.csv"
    path.write_text((f"# h={h!r}\n" if h else "") + "omega,weight\n" + body)
    return str(path)


def _refused(argv: list[str], out: Path, capsys) -> str:
    """Exit 2, one configuration error line and no output directory."""
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not out.exists()
    return err


class TestNonFiniteRefused:
    """NaN and infinite settings, kernel fields and CSV numbers exit 2
    before any output, naming the field, flag or file line."""

    def test_validate_kernel_fields(self, capsys):
        for spec, field in (("product:lambda=nan", "lambda"), ("product:lambda=inf", "lambda"),
                            ("mixed:p=1,q=nan,r=0", "q")):
            assert main(["validate", "--kernel", spec]) == 2
            captured = capsys.readouterr()
            assert f"field '{field}'" in captured.err and "must be finite" in captured.err
            assert "all checks passed" not in captured.out

    @pytest.mark.parametrize("argv,named", [
        (["simulate", "--kernel", "product:lambda=nan", "--n", "20", "--h", "0.015625"],
         "field 'lambda'"),
        (["simulate", "--kernel", "product:lambda=inf", "--n", "20", "--h", "0.015625"],
         "field 'lambda'"),
        (["solve", "--kernel", "product:lambda=1", "--dt", "nan"], "--dt must be finite"),
        (["solve", "--kernel", "product:lambda=1", "--bound", "2", "--lambda0", "nan"],
         "--lambda0 must be finite"),
        (["simulate", "--kernel", "product:lambda=1", "--n", "20", "--h", "0.015625",
          "--bound", "2", "--lambda0", "nan"], "--lambda0 must be finite"),
        (["picard", "--kernel", "product:lambda=1", "--bound", "inf"], "--bound must be finite"),
        (["picard", "--kernel", "product:lambda=1", "--bound", "nan"], "--bound must be finite"),
        (["picard", "--kernel", "product:lambda=1", "--h", "nan"], "--h must be finite"),
        (["solve", "--kernel", "product:lambda=1", "--bound-schedule", "1,nan"],
         "--bound-schedule entries must be finite"),
        (["simulate", "--kernel", "product:lambda=1", "--n", "20", "--h", "nan"],
         "--h must be finite"),
        (["simulate", "--kernel", "product:lambda=1", "--n", "20", "--t-end", "inf"],
         "--t-end must be finite"),
    ], ids=["sim-lambda-nan", "sim-lambda-inf", "solve-dt", "solve-lambda0", "sim-lambda0",
            "picard-bound-inf", "picard-bound-nan", "picard-h", "solve-schedule", "sim-h",
            "sim-t-end"])
    def test_flags(self, tmp_path, capsys, argv, named):
        assert named in _refused(argv, tmp_path / "out", capsys)

    def test_manifest_values(self, tmp_path, capsys):
        # json reads NaN and Infinity: a manifest is checked like the flags
        runs = {"simulate": ["simulate", "--kernel", "const:c=0", "--n", "8", "--t-end", "0.1",
                             "--h", "0.25", "--bound", "2", "--lambda0", "4"],
                "solve": ["solve", "--kernel", "const:c=0", "--t-end", "0.1", "--samples", "2"]}
        for command, key, value in (("simulate", "lambda0", math.nan),
                                    ("simulate", "h", math.inf), ("solve", "dt", math.nan),
                                    ("solve", "t_end", -math.inf)):
            good = tmp_path / f"good-{command}"
            if not good.exists():
                assert main(runs[command] + ["--out", str(good)]) == 0
            manifest = json.loads((good / "manifest.json").read_text())
            manifest["config"][key] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(manifest))
            err = _refused([command, "--manifest", str(bad)], tmp_path / "out", capsys)
            assert f"--{key.replace('_', '-')} must be finite" in err

    @pytest.mark.parametrize("command", ["simulate", "solve", "picard"])
    @pytest.mark.parametrize("row", ["0.5,inf", "0.5,nan", "nan,0.5"])
    def test_initial_rows(self, tmp_path, capsys, command, row):
        initial = _initial_csv(tmp_path, "0.25,0.5\n" + row + "\n")
        argv = [command, "--kernel", "product:lambda=1", "--initial", initial]
        err = _refused(argv, tmp_path / "out", capsys)
        assert f"mu0.csv:4: expected finite numbers, got '{row}'" in err


class TestInitialRule:
    """``simulate``, ``solve`` and ``picard`` read ``--initial`` under one
    rule: the file's grid is the run's grid, and its weights are
    nonnegative."""

    RUNS = {"simulate": ["simulate", "--kernel", "product:lambda=1", "--n", "50",
                         "--t-end", "0.2", "--seed", "3", "--samples", "3", "--snapshots"],
            "solve": ["solve", "--kernel", "product:lambda=1", "--t-end", "0.2", "--samples", "3"],
            "picard": ["picard", "--kernel", "product:lambda=1", "--bound", "1"]}

    @pytest.mark.parametrize("command", ["simulate", "solve", "picard"])
    def test_refused(self, tmp_path, capsys, command):
        argv = self.RUNS[command] + ["--initial"]
        points = _initial_csv(tmp_path, "0.3,1\n", h=None)
        err = _refused(argv + [points], tmp_path / "out", capsys)
        assert f"{command} requires grid-mode initial data" in err
        other = _initial_csv(tmp_path, "0.25,0.5\n0.5,0.5\n", h=2.0 ** -7)
        err = _refused(argv + [other, "--h", "0.015625"], tmp_path / "out", capsys)
        assert "--h 0.015625 differs from the grid h=0.0078125 of --initial" in err
        negative = _initial_csv(tmp_path, "0.25,0.5\n0.5,-0.25\n")
        err = _refused(argv + [negative], tmp_path / "out", capsys)
        assert "--initial" in err and "weight -0.25 at omega=0.5 is negative" in err

    @pytest.mark.parametrize("command", ["simulate", "solve"])
    def test_file_grid_is_run_grid(self, tmp_path, command):
        h = 2.0 ** -7
        initial = _initial_csv(tmp_path, "0.25,0.5\n0.5,0.5\n", h=h)
        argv = self.RUNS[command] + ["--initial", initial]
        out, replay, flagged = tmp_path / "run", tmp_path / "replay", tmp_path / "flagged"
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["h"] == h
        snap = "snap_r000_t002.csv" if command == "simulate" else "final.csv"
        assert (out / snap).read_text().startswith(f"# h={h!r}\n")
        assert main([command, "--manifest", str(out / "manifest.json"),
                     "--out", str(replay)]) == 0
        assert main(argv + ["--h", repr(h), "--out", str(flagged)]) == 0
        names = sorted(p.name for p in out.iterdir())
        for other in (replay, flagged):
            assert names == sorted(p.name for p in other.iterdir())
            for name in names:
                assert read(out / name) == read(other / name), name

    @pytest.mark.parametrize("command", ["simulate", "solve"])
    def test_manifest_h_differs(self, tmp_path, capsys, command):
        # a manifest's h meets the rule as a flag's does
        assert main(self.RUNS[command] + ["--h", "0.015625", "--out", str(tmp_path / "a")]) == 0
        initial = _initial_csv(tmp_path, "0.25,0.5\n0.5,0.5\n", h=2.0 ** -7)
        argv = [command, "--manifest", str(tmp_path / "a" / "manifest.json"), "--initial", initial]
        err = _refused(argv, tmp_path / "out", capsys)
        assert "--h 0.015625 differs from the grid h=0.0078125 of --initial" in err


class TestManifestKeys:
    def test_manifest_holds_the_parser_flags(self, tmp_path):
        import argparse
        from fourwave.cli import _build_parser
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        runs = {"simulate": ["simulate", "--kernel", "const:c=0", "--n", "8", "--t-end", "0.1",
                             "--h", "0.25"],
                "solve": ["solve", "--kernel", "const:c=0", "--t-end", "0.1", "--samples", "2"],
                "picard": ["picard", "--kernel", "product:lambda=1"]}
        for command, argv in runs.items():
            out = tmp_path / command
            assert main(argv + ["--out", str(out)]) == 0
            flags = {a.dest for a in sub.choices[command]._actions} - {"help", "manifest", "out"}
            assert set(json.loads((out / "manifest.json").read_text())["config"]) == flags


class TestManifestTypes:
    """A manifest value must have its flag's type: a wrong one exits 2
    naming the key, before any output; a JSON int serves a float flag."""

    RUNS = {"simulate": ["simulate", "--kernel", "const:c=0", "--n", "8", "--t-end", "0.1",
                         "--h", "0.25", "--replicas", "2"],
            "solve": ["solve", "--kernel", "const:c=0", "--t-end", "0.1", "--samples", "2"]}

    def edited(self, tmp_path, command, key, value):
        good = tmp_path / f"good-{command}"
        if not good.exists():
            assert main(self.RUNS[command] + ["--out", str(good)]) == 0
        manifest = json.loads((good / "manifest.json").read_text())
        manifest["config"][key] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        return path

    @pytest.mark.parametrize("command, key, value, want", [
        ("simulate", "replicas", "2", "an integer"),
        ("simulate", "replicas", True, "an integer"),
        ("simulate", "n", 8.0, "an integer"),
        ("simulate", "h", "0.25", "a number"),
        pytest.param("simulate", "h", 10 ** 400, "a number", id="simulate-h-int-too-large"),
        ("simulate", "t_end", False, "a number"),
        ("simulate", "kernel", 3, "a string"),
        ("simulate", "events", "yes", "true or false"),
        ("simulate", "snapshots", 1, "true or false"),
        ("solve", "method", "rk5", "one of euler, rk4, if_euler"),
        ("solve", "richardson", "no", "true or false"),
        ("solve", "bound_schedule", [2, 1], "a string"),
    ])
    def test_wrong_type_refused(self, tmp_path, capsys, command, key, value, want):
        bad = self.edited(tmp_path, command, key, value)
        err = _refused([command, "--manifest", str(bad)], tmp_path / "out", capsys)
        assert f"manifest key {key!r} must be {want}, got {value!r}" in err

    def test_wrong_type_refused_under_a_flag(self, tmp_path, capsys):
        # the whole manifest is checked before a flag overrides one of its keys
        bad = self.edited(tmp_path, "simulate", "replicas", "2")
        argv = ["simulate", "--manifest", str(bad), "--replicas", "2"]
        err = _refused(argv, tmp_path / "out", capsys)
        assert "manifest key 'replicas' must be an integer, got '2'" in err

    def test_json_int_for_float_flag(self, tmp_path):
        # "t_end": 1 runs as --t-end 1 does, manifest included
        edited = self.edited(tmp_path, "simulate", "t_end", 1)
        assert main(["simulate", "--manifest", str(edited), "--out", str(tmp_path / "a")]) == 0
        assert main(self.RUNS["simulate"] + ["--t-end", "1", "--out", str(tmp_path / "b")]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name), name


def _same_tree(a: Path, b: Path) -> None:
    """``diff -r``: the same file names, each with the same bytes."""
    names = sorted(p.relative_to(a) for p in a.rglob("*"))
    assert names and names == sorted(p.relative_to(b) for p in b.rglob("*"))
    for name in names:
        if (a / name).is_file():
            assert read(a / name) == read(b / name), name


class TestConsoleChecks:
    """Rows of the CI console-script step, run in-process: each row runs
    its set-up commands, then its checked command twice, once as given and
    once as a replay from the first run's manifest (or as given again, for
    ``compare``), and the two output directories must match byte for byte.
    ``{d}`` in an argument is the test's directory."""

    SIM = ["simulate", "--kernel", "product:lambda=1", "--seed", "7"]
    SHORT = ["--h", "0.015625", "--bound", "4", "--t-end", "0.25", "--samples", "5"]
    # the solve replays take solve's default --bound, 4
    SOLVE = ["solve", "--kernel", "product:lambda=1", "--h", "0.015625", "--t-end", "0.25",
             "--samples", "5"]
    ROWS = {
        # a run whose grid comes from its --initial file, with snapshots
        "initial-replay": ([], SIM + ["--initial", "{d}/mu0.csv", "--n", "200",
                                      "--replicas", "2", "--snapshots"]),
        # --bound 4 ensembles against the --bound 4 solve: convergence.json,
        # bootstrap interval included, must not change
        "compare-rerun": ([("solve", ["solve", "--kernel", "product:lambda=1", *SHORT]),
                           ("ens200", SIM + SHORT + ["--n", "200", "--replicas", "3",
                                                     "--snapshots"]),
                           ("ens400", SIM + SHORT + ["--n", "400", "--replicas", "3",
                                                     "--snapshots"])],
                          ["compare", "{d}/ens200,{d}/ens400", "{d}/solve"]),
        # solve replays, one per stepper and solve mode; no benchmark
        # workload runs the last four
        "solve-replay": ([], ["solve", "--kernel", "product:lambda=1", *SHORT]),
        "solve-if_euler-replay": ([], SOLVE + ["--method", "if_euler"]),
        "solve-euler-replay": ([], SOLVE + ["--method", "euler"]),
        "solve-schedule-replay": ([], SOLVE + ["--bound-schedule", "1,2,4"]),
        "solve-richardson-replay": ([], SOLVE + ["--richardson"]),
    }

    @pytest.mark.parametrize("row", ROWS)
    def test_twice_byte_for_byte(self, tmp_path, row):
        setup, argv = self.ROWS[row]
        (tmp_path / "mu0.csv").write_text("# h=0.015625\nomega,weight\n0.25,0.5\n1,0.5\n")

        def run(args, out):
            assert main([a.format(d=tmp_path) for a in args] + ["--out", str(out)]) == 0

        for name, args in setup:
            run(args, tmp_path / name)
        first, second = tmp_path / "first", tmp_path / "second"
        run(argv, first)
        run(argv if argv[0] == "compare" else [argv[0], "--manifest", str(first / "manifest.json")],
            second)
        _same_tree(first, second)


class TestMeasureFilesWrittenOnce:
    """simulate --snapshots and solve call save_measure_csv once per measure
    file, with the file's path as its second argument (a traced run counts
    the calls and reads that path)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        inner = cli.save_measure_csv
        monkeypatch.setattr(cli, "save_measure_csv",
                            lambda *a, **k: calls.append(Path(a[1])) or inner(*a, **k))
        return calls

    def test_simulate_snapshots(self, tmp_path, calls):
        out = tmp_path / "run"
        assert main([*TestConsoleChecks.SIM, *TestConsoleChecks.SHORT, "--n", "100",
                     "--replicas", "2", "--snapshots", "--out", str(out)]) == 0
        assert sorted(calls) == sorted(out.glob("snap_*.csv")) and len(calls) == 2 * 5

    def test_solve(self, tmp_path, calls):
        out = tmp_path / "solve"
        assert main([*TestConsoleChecks.SOLVE, "--out", str(out)]) == 0
        names = ["initial.csv", "final.csv"] + [f"snap_t{k:03d}.csv" for k in range(5)]
        assert calls == [out / name for name in names]
        assert sorted(out.glob("*.csv")) == sorted([out / "moments.csv", *calls])
