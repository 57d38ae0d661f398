import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spadsim import detection
from spadsim.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, _fidelity_csv, main
from spadsim.config import scenario_to_text
from spadsim.model import Scenario, table_budget
from spadsim.optics import ShadowingWarning


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("SPADSIM_OUTPUT_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    scenario = Scenario(budget=table_budget(), trial_duration=5.0, rng_seed=11)
    path.write_text(scenario_to_text(scenario))
    return str(path)


def read_output(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert len(lines[0]) == len("# manifest: ") + 16
    return lines


class TestSimulate:
    def test_writes_event_csv(self, outdir, config_file, capsys):
        assert main(["simulate", "--config", config_file, "--duration", "0.5"]) == EXIT_OK
        lines = read_output(outdir / "events.csv")
        assert lines[1] == "timestamp_ns,label"
        out = capsys.readouterr().out
        assert "total events:" in out and "fluorescence:" in out

    def test_no_ion_excludes_fluorescence(self, outdir, config_file, capsys):
        main(["simulate", "--config", config_file, "--no-ion", "--duration", "0.5"])
        assert "fluorescence: 0" in capsys.readouterr().out

    def test_deterministic_given_seed(self, outdir, config_file):
        a = outdir / "a.csv"
        b = outdir / "b.csv"
        args = ["simulate", "--config", config_file, "--duration", "0.5", "--seed", "3"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        # manifests differ only through the output path; events are identical
        assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]

    def test_seed_changes_output(self, outdir, config_file):
        a = outdir / "a.csv"
        b = outdir / "b.csv"
        args = ["simulate", "--config", config_file, "--duration", "0.5"]
        main(args + ["--seed", "3", "--out", str(a)])
        main(args + ["--seed", "4", "--out", str(b)])
        assert a.read_text() != b.read_text()

    def test_missing_config_is_input_error(self, outdir, capsys):
        assert main(["simulate", "--config", "/nonexistent.cfg"]) == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err


class TestThreshold:
    def test_check_passes_at_reference_rates(self, outdir, config_file, capsys):
        rc = main(
            ["threshold", "--config", config_file, "--duration", "120", "--check"]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "check: PASS" in out
        lines = read_output(outdir / "threshold_histogram.csv")
        assert lines[1] == "count,freq_ion,freq_empty"

    def test_check_passes_without_config(self, outdir, capsys):
        # without --config the scenario has the reference device's count budget
        assert main(["threshold", "--check"]) == EXIT_OK
        assert "check: PASS" in capsys.readouterr().out

    def test_check_fails_on_weak_signal(self, outdir, tmp_path, capsys):
        cfg = tmp_path / "weak.cfg"
        weak = Scenario(
            budget=table_budget().scaled(0.02), trial_duration=20.0, rng_seed=1
        )
        cfg.write_text(scenario_to_text(weak))
        rc = main(["threshold", "--config", str(cfg), "--check"])
        assert rc == EXIT_CHECK_FAILED
        assert "check: FAIL" in capsys.readouterr().err


class TestFidelity:
    def test_curve_output(self, outdir, config_file, capsys):
        rc = main(
            [
                "fidelity",
                "--config",
                config_file,
                "--targets",
                "0.9,0.99",
                "--trials",
                "300",
                "--max-time-ms",
                "20",
            ]
        )
        assert rc == EXIT_OK
        lines = read_output(outdir / "fidelity_curve.csv")
        assert lines[1] == "target,fidelity,mean_time_ms,wald_bound_ms"
        assert "target 0.99" in capsys.readouterr().out

    def test_config_dead_time_takes_effect(self, tmp_path):
        bodies = []
        for dead_us in (1.0, 20.0):
            cfg = tmp_path / f"dead_{dead_us:g}us.cfg"
            scenario = Scenario(budget=table_budget(), trial_duration=5.0, rng_seed=11, dead_time=dead_us * 1e-6)
            cfg.write_text(scenario_to_text(scenario))
            out = tmp_path / f"curve_{dead_us:g}us.csv"
            argv = ["fidelity", "--config", str(cfg), "--targets", "0.9,0.99", "--trials", "200",
                    "--max-time-ms", "20", "--out", str(out)]
            assert main(argv) == EXIT_OK
            bodies.append(read_output(out)[1:])
        assert bodies[0] != bodies[1]

    def test_runs_without_config(self, outdir):
        assert main(["fidelity", "--trials", "200"]) == EXIT_OK
        assert read_output(outdir / "fidelity_curve.csv")[2].startswith("0.99,")

    def test_projection_takes_seed(self, tmp_path):
        bodies = []
        for seed in ("5", "6"):
            out = tmp_path / f"projection_{seed}.csv"
            assert main(["fidelity", "--projection", "--trials", "200", "--seed", seed, "--out", str(out)]) == EXIT_OK
            bodies.append(read_output(out)[1:])
        assert bodies[0] != bodies[1]

    def test_projection_runs_its_preset_trials(self, outdir):
        assert main(["fidelity", "--projection"]) == EXIT_OK
        omitted = (outdir / "fidelity_projection.csv").read_text()
        assert main(["fidelity", "--projection", "--trials", str(detection.PROJECTED_TRIALS)]) == EXIT_OK
        # an omitted --trials hashes into the manifest like its value
        assert (outdir / "fidelity_projection.csv").read_text() == omitted
        _, curve = detection.projected_scenario_fidelity(seed=detection.PROJECTED_SEED, full_curve=True)
        assert omitted.split("\n", 1)[1] == _fidelity_csv(curve)

    @pytest.mark.parametrize(
        "flag", [["--config", "x.cfg"], ["--targets", "0.9"], ["--sub-bin-us", "10"], ["--max-time-ms", "5"]]
    )
    def test_projection_rejects_curve_flags(self, tmp_path, capsys, flag):
        out = tmp_path / "projection.csv"
        assert main(["fidelity", "--projection", *flag, "--out", str(out)]) == EXIT_INPUT_ERROR
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()

    def test_bad_target_is_input_error(self, outdir, config_file):
        rc = main(["fidelity", "--config", config_file, "--targets", "1.5", "--trials", "10"])
        assert rc == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("projection", [[], ["--projection"]], ids=["curve", "projection"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_is_input_error(self, tmp_path, capsys, projection, trials):
        out = tmp_path / "fidelity.csv"
        assert main(["fidelity", *projection, "--trials", trials, "--out", str(out)]) == EXIT_INPUT_ERROR
        assert f"trials must be >= 1, got {trials}" in capsys.readouterr().err
        assert not out.exists()


class TestCollection:
    def test_check_monotone(self, outdir, capsys):
        with pytest.warns(ShadowingWarning, match="at offsets 80 um"):
            rc = main(["collection", "--offsets-um", "0:80:10", "--check"])
        assert rc == EXIT_OK
        assert "check: PASS" in capsys.readouterr().out
        lines = read_output(outdir / "collection_efficiency.csv")
        assert lines[1] == "offset_um,efficiency,efficiency_no_arc"
        assert len(lines) == 2 + 9

    def test_comma_list(self, outdir):
        with pytest.warns(ShadowingWarning, match="at offsets 80 um"):
            assert main(["collection", "--offsets-um", "0,40,80"]) == EXIT_OK
        assert len(read_output(outdir / "collection_efficiency.csv")) == 2 + 3

    def test_preset_names_its_shadowed_offsets_once(self, outdir):
        with pytest.warns(ShadowingWarning) as record:
            assert main(["collection", "--offsets-um", "0:80:5", "--check"]) == EXIT_OK
        [warning] = record  # one warning for the coated and the uncoated sweep together
        assert "at offsets 75, 80 um;" in str(warning.message)

    def test_unshadowed_offsets_warn_nothing(self, outdir):
        # pyproject.toml turns a ShadowingWarning into an error
        assert main(["collection", "--offsets-um", "0:70:5", "--check"]) == EXIT_OK

    def test_bad_range_spec(self, outdir):
        assert main(["collection", "--offsets-um", "0:80"]) == EXIT_INPUT_ERROR
        assert main(["collection", "--offsets-um", "10:0:5"]) == EXIT_INPUT_ERROR
        assert not (outdir / "collection_efficiency.csv").exists()


class TestArc:
    def test_check_reference_reflectances(self, outdir, capsys):
        rc = main(["arc", "--check"])
        assert rc == EXIT_OK
        assert "check: PASS" in capsys.readouterr().out
        lines = read_output(outdir / "reflectance.csv")
        assert lines[1] == "angle_deg,R_s,R_p,R_unpolarized"

    def test_bare_substrate_higher_reflectance(self, outdir):
        main(["arc", "--angles-deg", "0", "--out", str(outdir / "coated.csv")])
        main(["arc", "--angles-deg", "0", "--bare", "--out", str(outdir / "bare.csv")])
        r_coated = float(read_output(outdir / "coated.csv")[2].split(",")[3])
        r_bare = float(read_output(outdir / "bare.csv")[2].split(",")[3])
        assert r_bare > r_coated


class TestSpot:
    def test_demo_area(self, outdir, capsys):
        assert main(["spot", "--demo"]) == EXIT_OK
        out = capsys.readouterr().out
        area = float(out.split("effective active area:")[1].split("um^2")[0])
        assert area == pytest.approx(60.0, rel=0.1)
        read_output(outdir / "active_area_map.csv")

    def test_missing_input(self, outdir):
        assert main(["spot"]) == EXIT_INPUT_ERROR

    def test_output_loads_as_active_area(self, outdir, tmp_path):
        assert main(["spot", "--demo", "--out", str(tmp_path / "area.csv")]) == EXIT_OK
        cfg = tmp_path / "area.cfg"
        cfg.write_text("geometry.active_area_csv = area.csv\n")
        assert main(["collection", "--config", str(cfg), "--offsets-um", "0"]) == EXIT_OK


class TestBudget:
    def test_demo_recovers_reference_rates(self, outdir, capsys):
        assert main(["budget", "--demo"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ion total: 11.70 kcps" in out
        assert "background: 6.90 kcps" in out
        lines = read_output(outdir / "budget.csv")
        assert lines[1] == "source,rate_kcps,sigma_kcps"

    def test_bad_csv(self, outdir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,toggle,table\n")
        assert main(["budget", str(bad)]) == EXIT_INPUT_ERROR

    def test_flag_other_than_0_or_1_exits_2(self, outdir, tmp_path, capsys):
        bad = tmp_path / "toggles.csv"
        bad.write_text("fluorescence,repump,doppler,dark,rf,rate_kcps,dwell_s\n0,0,0,1,0,1.2,50\n2,0,-3,0,0,1.0,1.0\n")
        assert main(["budget", str(bad)]) == EXIT_INPUT_ERROR
        assert "toggle CSV line 3: source flag '2' is not 0 or 1" in capsys.readouterr().err
        assert not (outdir / "budget.csv").exists()


class TestQEFit:
    def test_demo_check(self, outdir, capsys):
        with pytest.warns(ShadowingWarning) as record:
            rc = main(["qefit", "--demo", "--check", "--seed", "0"])
        assert rc == EXIT_OK
        [warning] = record  # the fit names the offsets; the demo data's sweep does not repeat them
        assert "at offsets 75, 80 um;" in str(warning.message)
        assert "check: PASS" in capsys.readouterr().out
        lines = read_output(outdir / "qe_fit.csv")
        assert lines[1] == "qe,std_error"

    def test_missing_input(self, outdir):
        assert main(["qefit"]) == EXIT_INPUT_ERROR


class TestManifest:
    def test_identical_invocations_identical_manifest(self, outdir, config_file):
        a, b = outdir / "a.csv", outdir / "b.csv"
        main(["collection", "--offsets-um", "0,40", "--out", str(a)])
        main(["collection", "--offsets-um", "0,40", "--out", str(b)])
        # manifests differ only through the output path argument
        assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]

    def test_different_args_different_manifest(self, outdir):
        a, b = outdir / "a.csv", outdir / "b.csv"
        main(["collection", "--offsets-um", "0,40", "--out", str(a)])
        main(["collection", "--offsets-um", "0,50", "--out", str(b)])
        assert a.read_text().splitlines()[0] != b.read_text().splitlines()[0]


class TestFlags:
    # each subcommand offers --config and --seed only where they take effect
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["spot", "--demo"], ["--config", "/nonexistent.cfg"]),
            (["budget", "--demo"], ["--config", "/nonexistent.cfg"]),
            (["budget", "--demo"], ["--seed", "3"]),
            (["collection", "--offsets-um", "0,10"], ["--seed", "3"]),
            (["arc", "--angles-deg", "0"], ["--seed", "3"]),
        ],
        ids=["spot-config", "budget-config", "budget-seed", "collection-seed", "arc-seed"],
    )
    def test_flag_without_effect_is_rejected(self, outdir, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not any(outdir.iterdir())

    def test_output_dir_flag_wins_over_environment(self, outdir, tmp_path):
        flag_dir = tmp_path / "flag"
        assert main(["arc", "--angles-deg", "0", "--output-dir", str(flag_dir)]) == EXIT_OK
        read_output(flag_dir / "reflectance.csv")
        assert not (outdir / "reflectance.csv").exists()


def test_cli_import_leaves_scipy_signal_and_stats_unloaded():
    # scipy.signal, scipy.stats and scipy.special take most of a cold start; the CLI loads them only when used
    src = str(Path(__file__).resolve().parents[1] / "src")
    lazy = ("scipy.signal", "scipy.stats", "scipy.special")
    code = f"import sys, spadsim.cli; print(sorted(m for m in {lazy!r} if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
