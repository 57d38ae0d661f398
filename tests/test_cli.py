import argparse
import hashlib
import os
import re
import signal
import subprocess
import sys
import unittest.mock
import warnings
from pathlib import Path

import numpy as np
import pytest

from spadsim import cli, detection, estimation, optics, simulator
from spadsim.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, _fidelity_csv, main
from spadsim.config import KNOWN_KEYS
from spadsim.model import BUDGET_SOURCES, SOURCE_LABELS, RateBudget, Scenario, table_budget
from spadsim.optics import ShadowingWarning, quarter_disc_map

from reference_tables import scenario_config

# the reference budget at 2%: the threshold fidelity falls far below 0.996
WEAK_BUDGET = RateBudget(**{name: 0.02 * getattr(table_budget(), name) for name in BUDGET_SOURCES})


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("SPADSIM_OUTPUT_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    scenario = Scenario(budget=table_budget(), trial_duration=5.0, rng_seed=11)
    path.write_text(scenario_config(scenario))
    return str(path)


def fresh_table(path, argv, code=EXIT_OK):
    """The bytes main(argv) writes to path when no file is there: path is removed first."""
    path.unlink()
    with warnings.catch_warnings():  # collection and qefit --demo name their shadowed offsets
        warnings.simplefilter("ignore", ShadowingWarning)
        assert main(argv) == code
    return path.read_bytes()


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
        weak = Scenario(budget=WEAK_BUDGET, trial_duration=20.0, rng_seed=1)
        cfg.write_text(scenario_config(weak))
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

    # a fluorescence of 0, or one lost in the sum with the background, leaves no signal to detect
    @pytest.mark.parametrize("rate", ["0", "-0", "1e-300", "5e-324"])
    def test_no_signal_exits_2_naming_the_key(self, outdir, tmp_path, capsys, rate):
        config = tmp_path / "dim.cfg"
        config.write_text(f"budget.fluorescence_kcps = {rate}\n")
        assert main(["fidelity", "--trials", "20", "--targets", "0.9", "--config", str(config)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "error: key 'budget.fluorescence_kcps': scenario has no signal rate above background\n"
        )
        assert list(outdir.iterdir()) == [config]

    def test_config_dead_time_takes_effect(self, tmp_path):
        bodies = []
        for dead_us in (1.0, 20.0):
            cfg = tmp_path / f"dead_{dead_us:g}us.cfg"
            scenario = Scenario(budget=table_budget(), trial_duration=5.0, rng_seed=11, dead_time=dead_us * 1e-6)
            cfg.write_text(scenario_config(scenario))
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

    def test_bad_target_is_input_error(self, outdir, config_file, capsys):
        # the config sets every budget key, and none is named: only the bounds that a rate can pass name them
        rc = main(["fidelity", "--config", config_file, "--targets", "1.5", "--trials", "10"])
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: target_posterior must lie in (0.5, 1)\n"

    def test_repeated_target_is_input_error(self, outdir, capsys):
        # a repeated target would run the same sweep twice and write the same row twice
        assert main(["fidelity", "--targets", "0.99,0.9,0.990", "--trials", "10"]) == EXIT_INPUT_ERROR
        assert "error: --targets: '0.990' repeats an earlier target" in capsys.readouterr().err
        assert not (outdir / "fidelity_curve.csv").exists()

    def test_infinite_max_time_is_input_error(self, outdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fidelity", "--max-time-ms", "inf", "--trials", "10"])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert "argument --max-time-ms: 'inf' is not a finite number" in capsys.readouterr().err
        assert not (outdir / "fidelity_curve.csv").exists()

    @pytest.mark.parametrize("projection", [[], ["--projection"]], ids=["curve", "projection"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_is_input_error(self, tmp_path, capsys, projection, trials):
        out = tmp_path / "fidelity.csv"
        assert main(["fidelity", *projection, "--trials", trials, "--out", str(out)]) == EXIT_INPUT_ERROR
        assert f"trials must be >= 1, got {trials}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, trials", [
        (["fidelity", "--trials", "0"], 0),
        (["fidelity", "--trials", "-3"], -3),
        (["fidelity", "--projection", "--trials", "0"], 0),
    ], ids=["zero", "negative", "projection"])
    def test_trials_below_one_names_the_flag(self, outdir, capsys, argv, trials):
        with unittest.mock.patch.object(detection, "_window_counter", side_effect=AssertionError("drew a window")):
            assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: --trials must be >= 1, got {trials}\n"
        assert not any(outdir.iterdir())


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
        [warning] = record  # one sweep gives both columns
        assert "at offsets 75, 80 um;" in str(warning.message)

    def test_one_sweep_for_both_columns(self, outdir):
        sweep = unittest.mock.Mock(wraps=cli.efficiency_vs_offset)
        with unittest.mock.patch.object(cli, "efficiency_vs_offset", sweep):
            with pytest.warns(ShadowingWarning, match="at offsets 75, 80 um"):
                assert main(["collection", "--offsets-um", "0:80:5"]) == EXIT_OK
        assert sweep.call_count == 1
        header, row = read_output(outdir / "collection_efficiency.csv")[1:3]
        assert (header, row) == ("offset_um,efficiency,efficiency_no_arc", "0,0.00127334,0.00145852")

    def test_unshadowed_offsets_warn_nothing(self, outdir):
        # pyproject.toml turns a ShadowingWarning into an error
        assert main(["collection", "--offsets-um", "0:70:5", "--check"]) == EXIT_OK

    def test_bad_range_spec(self, outdir):
        assert main(["collection", "--offsets-um", "0:80"]) == EXIT_INPUT_ERROR
        assert main(["collection", "--offsets-um", "10:0:5"]) == EXIT_INPUT_ERROR
        assert not (outdir / "collection_efficiency.csv").exists()

    @pytest.mark.parametrize("spec", ["0:inf:5", "0:80:nan", "nan,0,5", "0,-inf"])
    def test_non_finite_range_spec(self, outdir, capsys, spec):
        assert main(["collection", "--offsets-um", spec]) == EXIT_INPUT_ERROR
        assert f"--offsets-um: range {spec!r} holds a value that is not finite" in capsys.readouterr().err
        assert not (outdir / "collection_efficiency.csv").exists()

    @pytest.mark.parametrize("spec", ["1e300", "0,1e6", "0:1e6:1e5"])
    def test_offset_of_1_m_or_more_exits_2_naming_the_flag(self, outdir, capsys, spec):
        # the offset's square used to overflow into "angle of incidence must lie in [0, pi/2)"
        assert main(["collection", "--offsets-um", spec]) == EXIT_INPUT_ERROR
        assert "error: --offsets-um: offsets must be below 1 m in magnitude, got " in capsys.readouterr().err
        assert not any(outdir.iterdir())

    def test_check_fails_on_an_efficiency_that_is_not_finite(self, outdir, capsys):
        sweep = unittest.mock.Mock(return_value=(np.array([1e-3, np.nan, 5e-4]), np.array([2e-3, 1e-3, np.inf])))
        with unittest.mock.patch.object(cli, "efficiency_vs_offset", sweep):
            assert main(["collection", "--offsets-um", "0,10,20", "--check"]) == EXIT_CHECK_FAILED
        assert "check: FAIL: efficiency is not finite at offsets 10, 20 um" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["collection"], ["qefit", "--demo"]], ids=["collection", "qefit"])
    def test_non_finite_area_weight_names_key_and_file(self, outdir, tmp_path, capsys, argv):
        # a NaN weight used to fail deep in the optics: "angle of incidence must lie in [0, pi/2)"
        area = tmp_path / "area_nan.csv"
        area.write_text("# cell_size_um=1, origin_um=0,0\n1,nan\n1,1\n")
        cfg = tmp_path / "area_nan.cfg"
        cfg.write_text("geometry.active_area_csv = area_nan.csv\n")
        assert main([*argv, "--config", str(cfg)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"key 'geometry.active_area_csv': cannot read {area}: " in err
        assert "got nan in grid row 1, column 2" in err
        assert sorted(path.name for path in outdir.iterdir()) == ["area_nan.cfg", "area_nan.csv"]  # no output

    # an active area reaching 1 m or more used to end `collection` in an OverflowError (exit 1)
    @pytest.mark.parametrize("argv", [["collection"], ["qefit", "--demo"]], ids=["collection", "qefit"])
    @pytest.mark.parametrize("lines, named", [
        ("geometry.active_outer_radius_um = 1e300\ngeometry.cell_size_um = 1e298\n",
         "keys 'geometry.active_outer_radius_um', 'geometry.cell_size_um': the grid must lie within 1 m of (0, 0), "
         "got cells reaching 1.01e+294 m"),
        ("geometry.active_area_csv = big.csv\n",
         "key 'geometry.active_area_csv': cannot read {dir}/big.csv: the grid must lie within 1 m of (0, 0), "
         "got cells reaching 2e+292 m"),
    ], ids=["quarter-disc", "csv"])
    def test_area_past_1m_exits_2_naming_key(self, outdir, tmp_path, capsys, argv, lines, named):
        (tmp_path / "big.csv").write_text("# cell_size_um=1e298, origin_um=0,0\n1,1\n1,1\n")
        cfg = tmp_path / "big.cfg"
        cfg.write_text(lines)
        assert main([*argv, "--config", str(cfg)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {named.format(dir=tmp_path)}\n"
        assert sorted(path.name for path in outdir.iterdir()) == ["big.cfg", "big.csv"]  # no output

    def test_substrate_index_of_real_part_0_exits_2(self, outdir, tmp_path, capsys):
        # it used to exit 0 with R = 1 and efficiencies of 6.5e-21
        cfg = tmp_path / "index_0.cfg"
        cfg.write_text("stack.substrate_index = 0\n")
        assert main(["collection", "--config", str(cfg)]) == EXIT_INPUT_ERROR
        assert "substrate_index must have real part > 0, got 0j" in capsys.readouterr().err
        assert sorted(path.name for path in outdir.iterdir()) == ["index_0.cfg"]  # no output

    # |r|^2 is no power reflectance from an absorbing incident medium: it used to exit 0 with that table
    @pytest.mark.parametrize("argv", [["arc"], ["collection"]], ids=["arc", "collection"])
    def test_lossy_ambient_index_exits_2_naming_key(self, outdir, tmp_path, capsys, argv):
        cfg = tmp_path / "ambient_lossy.cfg"
        cfg.write_text("stack.ambient_index = 1.33+0.01j\n")
        assert main([*argv, "--config", str(cfg)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "error: key 'stack.ambient_index': "
            "ambient_index must be real (a lossless incident medium), got (1.33+0.01j)\n"
        )
        assert sorted(path.name for path in outdir.iterdir()) == ["ambient_lossy.cfg"]  # no output

    # each range is checked by the object its key sets, and the error names the key: the first eight
    # used to give the field's message alone, and the last three let `arc` exit 0
    @pytest.mark.parametrize("case", [
        ("collection", "stack.substrate_index = 0", "substrate_index must have real part > 0, got 0j"),
        ("collection", "stack.wavelength_nm = -370", "wavelength must be > 0 and finite, got -3.7e-07"),
        ("collection", "stack.layers = 29 -2.0", "layer 1 index must have real part > 0, got (-2+0j)"),
        ("collection", "geometry.emission = foo", "unknown emission pattern 'foo'"),
        ("collection", "emitter.saturation_fraction = 2", "saturation_fraction must lie in [0, 1], got 2.0"),
        ("collection", "budget.dark_kcps = -1", "rate dark_counts must be >= 0 and finite, got -1000.0"),
        ("collection", "trial.duration_s = 0", "trial_duration must be > 0 and finite, got 0.0"),
        ("collection", "deadtime.dead_time_us = -0.5", "dead_time must be >= 0 and finite, got -5e-07"),
        ("arc", "stack.ambient_index = 1e-300", "ambient_index must square to a number > 0, got 1e-300"),
        ("arc", "geometry.active_outer_radius_um = 1e-9", "active area map has zero total response"),
        ("arc", "geometry.active_area_csv = zero.csv", "active area map has zero total response"),
    ], ids=lambda case: case[1].split(" = ")[0])
    def test_out_of_range_key_exits_2_naming_it(self, outdir, tmp_path, capsys, case):
        subcommand, line, named = case
        (tmp_path / "zero.csv").write_text("# cell_size_um=1, origin_um=0,0\n0,0\n0,0\n")
        (tmp_path / "bad.cfg").write_text(line + "\n")
        assert main([subcommand, "--config", str(tmp_path / "bad.cfg")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: key '{line.split(' = ')[0]}': {named}\n"
        assert sorted(path.name for path in outdir.iterdir()) == ["bad.cfg", "zero.csv"]  # no output


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

    @pytest.mark.parametrize("line", ["stack.substrate_index = 3.5", "stack.ambient_index = 1.5"],
                             ids=["substrate", "ambient"])
    def test_bare_takes_the_scenario_substrate_and_ambient(self, outdir, tmp_path, line):
        # --bare drops the coating's layers only: the config's substrate and ambient still hold
        config = tmp_path / "bare.cfg"
        config.write_text(line + "\n")
        bodies = []
        for extra in ([], ["--config", str(config)]):
            assert main(["arc", "--bare", "--angles-deg", "0,30", *extra, "--out", str(outdir / "t.csv")]) == EXIT_OK
            bodies.append(read_output(outdir / "t.csv")[1:])
        assert bodies[0] != bodies[1]

    def test_one_transfer_matrix_for_the_table(self, outdir):
        # every transfer matrix, whether the table's own or one behind stack_reflectance
        rows = unittest.mock.Mock(wraps=optics._reflectance_rows)
        with unittest.mock.patch.object(optics, "_reflectance_rows", rows), \
                unittest.mock.patch.object(cli, "_reflectance_rows", rows):
            assert main(["arc"]) == EXIT_OK
        assert rows.call_count == 1  # the s and p rows give all three columns

    def test_grazing_angle_exits_2_naming_the_flag(self, outdir, capsys):
        # below 90 deg, but its sine rounds to 1: R used to be written as nan
        assert main(["arc", "--angles-deg", "0,89.9999999"]) == EXIT_INPUT_ERROR
        assert ("error: --angles-deg: angle of incidence 1.5707963250495673 rad grazes the surface"
                in capsys.readouterr().err)
        assert not any(outdir.iterdir())

    def test_non_finite_range_spec(self, outdir, capsys):
        assert main(["arc", "--angles-deg", "0:inf:5"]) == EXIT_INPUT_ERROR
        assert "--angles-deg: range '0:inf:5' holds a value that is not finite" in capsys.readouterr().err
        assert not (outdir / "reflectance.csv").exists()


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

    def test_non_finite_cell_exits_2(self, outdir, tmp_path, capsys):
        scan = tmp_path / "scan.csv"
        scan.write_text("# step_nm=800, dwell_ms=500, dark_kcps=1.2\n1,2,3\n4,nan,6\n")
        assert main(["spot", str(scan)]) == EXIT_INPUT_ERROR
        assert "counts must be finite, got nan in grid row 2, column 2" in capsys.readouterr().err
        assert not (outdir / "active_area_map.csv").exists()

    @pytest.mark.parametrize("step_nm", ["1e300", "inf", "nan", "4e8"])
    def test_step_past_1m_exits_2_naming_it(self, outdir, tmp_path, capsys, step_nm):
        # a 2 x 3 grid of 4e8 nm cells reaches 1.2 m; the map built from the scan would be refused
        # for reaching past 1 m, in words that named neither the CSV nor its step
        scan = tmp_path / "scan.csv"
        scan.write_text(f"# step_nm={step_nm}, dwell_ms=500, dark_kcps=1.2\n600,5000,9000\n600,8000,12000\n")
        assert main(["spot", str(scan)]) == EXIT_INPUT_ERROR
        assert f"error: spot-scan CSV: step_nm={step_nm} puts its 2 x 3 grid" in capsys.readouterr().err
        assert not (outdir / "active_area_map.csv").exists()


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

    @pytest.mark.parametrize(
        "row, message",
        [
            ("nan,50", "measured_rate must be finite and >= 0, got nan"),
            ("2.0,inf", "dwell must be finite and > 0, got inf"),
        ],
        ids=["rate-nan", "dwell-inf"],
    )
    def test_non_finite_rate_or_dwell_exits_2(self, outdir, tmp_path, capsys, row, message):
        toggles = tmp_path / "toggles.csv"
        toggles.write_text(
            "fluorescence,repump,doppler,dark,rf,rate_kcps,dwell_s\n0,0,0,1,0,1.2,50\n"
            f"0,0,0,1,1,{row}\n0,0,1,1,1,3,50\n0,1,1,1,1,4,50\n1,1,1,1,1,8,50\n"
        )
        assert main(["budget", str(toggles)]) == EXIT_INPUT_ERROR
        assert f"toggle CSV line 3: {message}" in capsys.readouterr().err
        assert not (outdir / "budget.csv").exists()


class TestQEFit:
    def test_demo_check(self, outdir, capsys):
        with pytest.warns(ShadowingWarning) as record:
            rc = main(["qefit", "--demo", "--check", "--seed", "0"])
        assert rc == EXIT_OK
        [warning] = record  # one sweep serves the demo data and the fit
        assert "at offsets 75, 80 um;" in str(warning.message)
        assert "check: PASS" in capsys.readouterr().out
        lines = read_output(outdir / "qe_fit.csv")
        assert lines[1] == "qe,std_error"

    def test_missing_input(self, outdir):
        assert main(["qefit"]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("line", ["emitter.saturation_fraction = 1e-300", "emitter.gamma_over_2pi_mhz = 5e-324"])
    def test_expected_rates_that_underflow_exit_2(self, outdir, tmp_path, capsys, line):
        config = tmp_path / "faint.cfg"
        config.write_text(line + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShadowingWarning)
            assert main(["qefit", "--demo", "--config", str(config)]) == EXIT_INPUT_ERROR
        assert "have a sum of squares that underflows to 0" in capsys.readouterr().err
        assert not (outdir / "qe_fit.csv").exists()

    def test_non_finite_rate_exits_2(self, outdir, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("offset_um,rate_kcps\n0,nan\n10,2.0\n")
        assert main(["qefit", str(data)]) == EXIT_INPUT_ERROR
        assert "expected and measured rates must be finite, got 65076.9 and nan /s at point 1" in capsys.readouterr().err
        assert not (outdir / "qe_fit.csv").exists()

    def test_non_finite_offset_exits_2(self, outdir, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("offset_um,rate_kcps\n0,1.0\ninf,2.0\n")
        assert main(["qefit", str(data)]) == EXIT_INPUT_ERROR
        assert "offsets must be finite, got inf m at point 2" in capsys.readouterr().err
        assert not (outdir / "qe_fit.csv").exists()

    def test_offset_of_1_m_or_more_exits_2_naming_the_csv(self, outdir, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("offset_um,rate_kcps\n0,1.0\n1e300,2.0\n")
        assert main(["qefit", str(data)]) == EXIT_INPUT_ERROR
        assert (f"error: data CSV {data}: offsets must be below 1 m in magnitude, got 1e+294 m at point 2"
                in capsys.readouterr().err)
        assert not (outdir / "qe_fit.csv").exists()

    @pytest.mark.parametrize("demo", [True, False], ids=["demo", "csv"])
    def test_one_collection_sweep_per_run(self, outdir, tmp_path, demo):
        # the demo data and the fit share one forward model, so one offset sweep
        data = tmp_path / "data.csv"
        data.write_text("offset_um,rate_kcps\n0,3.7\n20,3.1\n40,2.0\n")
        argv = ["qefit", "--demo"] if demo else ["qefit", str(data)]
        sweep = unittest.mock.Mock(wraps=estimation.efficiency_vs_offset)
        with unittest.mock.patch.object(estimation, "efficiency_vs_offset", sweep):
            with warnings.catch_warnings():  # the demo names its shadowed offsets
                warnings.simplefilter("ignore", ShadowingWarning)
                assert main(argv) == EXIT_OK
        assert sweep.call_count == 1

    def test_demo_draws_from_config_seed_unless_overridden(self, tmp_path):
        def body(seed, *argv):
            config = tmp_path / f"seed{seed}.cfg"
            config.write_text(scenario_config(Scenario(budget=table_budget(), rng_seed=seed)))
            out = tmp_path / "qe_fit.csv"
            with pytest.warns(ShadowingWarning):
                assert main(["qefit", "--demo", "--config", str(config), *argv, "--out", str(out)]) == EXIT_OK
            return read_output(out)[1:]

        assert body(1) != body(2)
        assert body(1, "--seed", "2") == body(2)


class TestPinnedOutputs:
    # sha256 of the body under the manifest line of a 1 s `simulate` event CSV, of the
    # default `threshold`, of a 500- and a 3000-trial `fidelity`, of the 20000-trial
    # `fidelity --projection` (24 and 158 chunks of trials, which the sweep's stopping pass
    # takes several to a slice), of the Fig. 6 presets `collection` and `arc`, coated and
    # `--bare` (which take no seed), of `qefit --demo`, of the Fig. 3 preset `spot --demo`
    # and of the Table 1 preset `budget --demo` (no seed).
    # The `--bare` row is the transfer matrix with no layer. A faster path must keep these
    # bytes; a declared change of the random stream or of the optics updates them.
    @pytest.mark.parametrize("argv, seed, digest", [
        (["simulate", "--duration", "1"], 1, "9438d0e2e2ebb5172957aa05c097d03b3a4a6752560a50691210d8594a45a547"),
        (["simulate", "--duration", "1"], 4242, "85c1292f961ab528032b7925296f0eb6ad9bdd8d4b9b31b68f548a7e653002d8"),
        (["threshold"], 1, "6026f0db577c6a51985395ecc8c8780454edbb9723d996c1fcb99581e1b505b0"),
        (["threshold"], 4242, "8a77d5242817d0e34222bbc1b410b2be91b09fb9b8816f36440a1f11c676a00a"),
        (["fidelity", "--trials", "500"], 1, "f8c7b2234b64ef9d3e49ccd8a3bc83e8271187d3e7951c36285a060051e674d7"),
        (["fidelity", "--trials", "500"], 4242, "80bc77c8fb5242e0a1a3b95dcb1ccb3da02ec6b6c623f5786f3c79a0c82cc0b4"),
        (["fidelity", "--trials", "3000"], 1, "b79ea7fd80564eb0c57aa150a041663b645801eb2efe0c4f5aa21d5742051e3a"),
        (["fidelity", "--trials", "3000"], 4242, "7e5fa8229a619f38a6c81fc2e0c472c08cf1caf360574f01b52eb3418ead2597"),
        (["fidelity", "--projection"], 1, "4f6d284e80d387fd1f0993ccefa76a01dbfee637de7dada0fd7865d41fb68e2b"),
        (["fidelity", "--projection"], 4242, "3fbaa2ff32752131b7ce775c84355943d9bf0eeb3ab077927ce8cbe7069be946"),
        (["collection"], None, "43f1d2511584aa2022bc30fe0ebe8474689413a693fee8761412e3228a46ea48"),
        (["arc"], None, "689163aa47e7014b44add7114d171d4a9d280ed4fdac1e186041abab0ce3b814"),
        (["arc", "--bare"], None, "994abc5aab07543993374dbcbd65b44bf97c1e33a53f640ede2f29dad259aa52"),
        (["qefit", "--demo"], 1, "1d43553b26b0f554ad4fb035cc8ef6d0138314baa37a3bf549c34955b17df654"),
        (["qefit", "--demo"], 4242, "5943e12fd5770a3ec544057f943dfebf2ccd67156fa7f6611432dd4b48a7c418"),
        (["spot", "--demo"], 1, "c3d7496e5e1b7b65e4ff180bf5ea859b67e4eb5a0b32a457afdfa65683ea0835"),
        (["spot", "--demo"], 4242, "25ae8c59a3e0f88e69c42ac7cf12ab9a2f6bfcba0243decca3250f8bcd9f94d2"),
        (["budget", "--demo"], None, "819422de3df0497d87b0dec7468ab2d50f8f50431b021ec386bf8a753dadfcc8"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_fixed_seed_body_is_pinned(self, outdir, argv, seed, digest):
        out = outdir / "out.csv"
        seeded = [] if seed is None else ["--seed", str(seed)]
        with warnings.catch_warnings():  # collection and qefit --demo name their shadowed offsets
            warnings.simplefilter("ignore", ShadowingWarning)
            assert main([*argv, *seeded, "--out", str(out)]) == EXIT_OK
        body = out.read_text().split("\n", 1)[1]
        assert hashlib.sha256(body.encode()).hexdigest() == digest


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


class TestOutputRules:
    # every subcommand writes one manifest-headed table; the manifest hashes the
    # arguments and the subcommand's input text, and these values are pinned
    @pytest.mark.parametrize("argv, manifest", [
        (["simulate", "--duration", "0.01"], "6011dfb65bc5d4ce"),
        (["threshold", "--duration", "1"], "b9a126564d77fe4b"),
        (["fidelity", "--trials", "20"], "122b4b0e32244726"),
        (["fidelity", "--projection", "--trials", "20"], "8f315d2a2b685bac"),
        (["collection", "--offsets-um", "0,40"], "48f722e3b3c250d7"),
        (["arc", "--angles-deg", "0"], "016cf4cdb4b06261"),
        (["spot", "--demo"], "d5e1ce8046c94b70"),
        (["budget", "--demo"], "3866b5823593e7ce"),
        (["qefit", "--demo"], "f81f789387432f7e"),
    ], ids=lambda v: "-".join(v).replace("--", "") if isinstance(v, list) else None)
    def test_manifest_line_is_pinned(self, tmp_path, monkeypatch, argv, manifest):
        monkeypatch.delenv("SPADSIM_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():  # qefit --demo names its shadowed offsets
            warnings.simplefilter("ignore", ShadowingWarning)
            assert main([*argv, "--out", "out/table.csv"]) == EXIT_OK
        assert read_output(tmp_path / "out" / "table.csv")[0] == f"# manifest: {manifest}"

    # the --output-dir default is read from the environment at each call and hashes as its value
    @pytest.mark.parametrize("env, argv, path, manifest", [
        ("results", ["budget", "--demo"], "results/budget.csv", "2816fdfc3f0acdc5"),
        ("results", ["budget", "--demo", "--out", "x/b.csv"], "x/b.csv", "dae7d6441a72fc6d"),
        (None, ["arc", "--output-dir", ""], "reflectance.csv", "294f5c2096ac7302"),
    ], ids=["budget-environment", "budget-environment-out", "arc-empty-output-dir"])
    def test_manifest_line_with_output_dir_is_pinned(self, tmp_path, monkeypatch, env, argv, path, manifest):
        if env is None:
            monkeypatch.delenv("SPADSIM_OUTPUT_DIR", raising=False)
        else:
            monkeypatch.setenv("SPADSIM_OUTPUT_DIR", env)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_OK
        assert read_output(tmp_path / path)[0] == f"# manifest: {manifest}"

    # a manifest hashes the arguments and the text of each input the run reads: the data a
    # --demo run makes from its arguments are no input, so only qefit's config text joins them
    @pytest.mark.parametrize("argv, config", [
        (["spot", "--demo", "--seed", "3"], None),
        (["budget", "--demo"], None),
        (["qefit", "--demo"], ""),
        (["qefit", "--demo", "--seed", "3"], "trial.seed = 5\n"),
    ], ids=["spot", "budget", "qefit", "qefit-config"])
    def test_demo_manifest_hashes_arguments_and_config_alone(self, outdir, argv, config):
        if config:
            (outdir / "c.cfg").write_text(config)
            argv = [*argv, "--config", str(outdir / "c.cfg")]
        with warnings.catch_warnings():  # qefit --demo names its shadowed offsets
            warnings.simplefilter("ignore", ShadowingWarning)
            assert main([*argv, "--out", str(outdir / "t.csv")]) == EXIT_OK
        args = cli.build_parser().parse_args([*argv, "--out", str(outdir / "t.csv")])
        args.output_dir = str(outdir)
        assert read_output(outdir / "t.csv")[0] == f"# manifest: {cli._manifest_hash(argv[0], args, config or '')}"

    # the CSV at a path is an input: the same path and arguments with other text write another manifest
    @pytest.mark.parametrize("subcommand, table, edit", [
        ("spot", "# step_nm=800, dwell_ms=500, dark_kcps=1.2\n600,5000,9000\n600,8000,12000\n", ("12000", "12001")),
        ("budget", "fluorescence,repump,doppler,dark,rf,rate_kcps,dwell_s\n0,0,0,1,0,1.2,50\n0,0,0,1,1,2,50\n"
                   "0,0,1,1,1,3,50\n0,1,1,1,1,4,50\n1,1,1,1,1,8,50\n", (",8,50", ",8.5,50")),
        ("qefit", "offset_um,rate_kcps\n0,3.7\n20,3.1\n40,2.0\n", ("2.0", "2.1")),
    ])
    def test_csv_input_text_is_hashed(self, outdir, subcommand, table, edit):
        data = outdir / "data.csv"
        manifests = []
        for text in (table, table.replace(*edit)):
            data.write_text(text)
            assert main([subcommand, str(data), "--out", str(outdir / "t.csv")]) == EXIT_OK
            manifests.append(read_output(outdir / "t.csv")[0])
        assert manifests[0] != manifests[1]

    @pytest.mark.parametrize("argv, name, summary, failure, earlier", [
        # both criteria fail; the first is named
        (["threshold", "--config", "weak.cfg"], "threshold_histogram.csv", "optimal threshold:",
         "threshold fidelity 0.7244 < 0.996", None),
        (["arc", "--config", "thick.cfg", "--angles-deg", "0"], "reflectance.csv", "angle   0.0 deg:",
         "coated normal-incidence R 0.586 outside 0.10 +/- 0.03", None),
        (["qefit", "off.csv"], "qe_fit.csv", "quantum efficiency:", "fitted QE 0.783 outside 0.24 +/- 0.03", None),
        # written over a longer table, the table holds exactly what a run with no earlier table writes
        (["arc", "--config", "thick.cfg", "--angles-deg", "0"], "reflectance.csv", "angle   0.0 deg:",
         "coated normal-incidence R 0.586 outside 0.10 +/- 0.03", "x" * 100_000),
    ], ids=["threshold", "arc", "qefit", "arc-over-longer"])
    def test_failed_check_keeps_table_and_summary(self, outdir, tmp_path, monkeypatch, capsys, argv, name, summary,
                                                   failure, earlier):
        weak = Scenario(budget=WEAK_BUDGET, trial_duration=20.0, rng_seed=1)
        (tmp_path / "weak.cfg").write_text(scenario_config(weak))
        (tmp_path / "thick.cfg").write_text("stack.layers = 80 2.1 ; 10 1.47\n")
        (tmp_path / "off.csv").write_text("offset_um,rate_kcps\n0,50\n20,40\n40,30\n60,20\n")
        monkeypatch.chdir(tmp_path)
        if earlier is not None:
            (outdir / name).write_text(earlier)
        assert main([*argv, "--check"]) == EXIT_CHECK_FAILED
        out, err = capsys.readouterr()
        assert len(read_output(outdir / name)) > 2
        assert out.splitlines()[0] == f"wrote {outdir / name}"
        assert summary in out and "check: PASS" not in out
        assert err.splitlines() == [f"check: FAIL: {failure}"]
        if earlier is not None:
            assert (outdir / name).read_bytes() == fresh_table(outdir / name, argv + ["--check"], EXIT_CHECK_FAILED)

    # an existing table is overwritten in place and cut to its new length: a re-run that writes a
    # shorter table leaves the bytes of a run with no earlier table
    @pytest.mark.parametrize("longer, argv", [
        (["collection", "--offsets-um", "0:80:1"], ["collection"]),
        (["arc", "--angles-deg", "0:60:1"], ["arc"]),
        (["simulate", "--duration", "0.1"], ["simulate", "--duration", "0.01"]),
    ], ids=["collection", "arc", "simulate"])
    def test_rerun_over_a_longer_table_writes_a_fresh_table(self, outdir, longer, argv):
        with warnings.catch_warnings():  # collection names its shadowed offsets
            warnings.simplefilter("ignore", ShadowingWarning)
            assert main(longer) == EXIT_OK
            (table,) = outdir.iterdir()
            size = table.stat().st_size
            assert main(argv) == EXIT_OK
            assert table.stat().st_size < size
            assert table.read_bytes() == fresh_table(table, argv)

    # --out follows a symlink, also one whose target is gone: the link stays, and its target takes the table
    def test_out_through_a_symlink_writes_its_target(self, outdir, tmp_path):
        target = tmp_path / "tables" / "reflectance.csv"
        target.parent.mkdir()
        target.write_text("x" * 100_000)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["arc", "--out", str(link)]) == EXIT_OK
        assert link.is_symlink() and link.readlink() == target
        assert target.read_bytes() == fresh_table(target, ["arc", "--out", str(link)])
        assert link.is_symlink() and link.readlink() == target

    # a device or a pipe takes the table and is never cut to its length
    def test_out_to_a_device_exits_0(self, outdir, capsys):
        assert main(["arc", "--out", os.devnull]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == f"wrote {os.devnull}"
        assert not any(outdir.iterdir())

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd to name a pipe by")
    def test_out_to_a_pipe_writes_the_table(self, outdir):
        read_end, write_end = os.pipe()
        with os.fdopen(read_end, "rb") as pipe, os.fdopen(write_end, "wb") as writer:
            assert main(["arc", "--angles-deg", "0", "--out", f"/dev/fd/{writer.fileno()}"]) == EXIT_OK
            writer.close()
            piped = pipe.read()
        assert main(["arc", "--angles-deg", "0", "--out", str(outdir / "file.csv")]) == EXIT_OK
        manifest, body = piped.split(b"\n", 1)  # the manifest hashes --out, so it differs from the file's
        assert manifest.startswith(b"# manifest: ")
        assert body == (outdir / "file.csv").read_bytes().split(b"\n", 1)[1]

    # a write that fails part-way (here at a file size limit, as on a full disk) exits 2 and leaves a
    # prefix of the new table: no byte of the longer file it overwrote
    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit to write into")
    def test_write_that_fails_part_way_leaves_no_earlier_byte(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        table = tmp_path / "events.csv"
        argv = ["simulate", "--duration", "1", "--seed", "1", "--out", str(table)]
        assert main(argv) == EXIT_OK
        whole = table.read_bytes()
        table.write_bytes(b"x" * (2 * len(whole)))
        limit = len(whole) // 2
        code = f"""
import resource, signal, sys
sys.path.insert(0, {src!r})
from spadsim.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG
resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(main({argv!r}))
"""
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == EXIT_INPUT_ERROR, run.stderr
        assert "File too large" in run.stderr
        written = table.read_bytes()
        assert 0 < len(written) <= limit
        assert written == whole[: len(written)]

    def test_checks_run_only_under_check(self, outdir, tmp_path, capsys):
        # with no background the Wald bound is undefined: the table leaves it empty,
        # and only the --check criterion that needs it fails
        config = tmp_path / "no_background.cfg"
        config.write_text("budget.fluorescence_kcps = 4.8\n" + "".join(
            f"budget.{label}_kcps = 0\n" for label in ("repump", "doppler", "dark", "rf")
        ))
        argv = ["fidelity", "--config", str(config), "--trials", "100"]
        assert main(argv) == EXIT_OK
        assert read_output(outdir / "fidelity_curve.csv")[2].endswith(",")
        capsys.readouterr()
        (outdir / "fidelity_curve.csv").unlink()
        assert main([*argv, "--check"]) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert read_output(outdir / "fidelity_curve.csv")[2].endswith(",")
        assert "target 0.99: fidelity" in out
        assert err == "error: require ion_rate > empty_rate > 0\n"

    def test_indistinguishable_rates_leave_the_bound_empty(self, outdir, tmp_path, capsys):
        # a fluorescence of 1e-6 /s makes the divergence between the hypotheses round to 0: as with no
        # background, the table leaves the bound empty, and the --check criterion that needs it fails
        config = tmp_path / "faint.cfg"
        config.write_text("budget.fluorescence_kcps = 1e-9\n")
        argv = ["fidelity", "--config", str(config), "--trials", "20", "--targets", "0.9"]
        assert main(argv) == EXIT_OK
        assert read_output(outdir / "fidelity_curve.csv")[2].endswith(",")
        capsys.readouterr()
        (outdir / "fidelity_curve.csv").unlink()
        assert main([*argv, "--check"]) == EXIT_INPUT_ERROR
        assert read_output(outdir / "fidelity_curve.csv")[2].endswith(",")
        assert capsys.readouterr().err.startswith("error: the KL divergence rates 0 and 0 /s between ion_rate")

    # without --config a run applies no change to the reference device, so its config text is empty
    @pytest.mark.parametrize("argv", [
        ["simulate", "--duration", "0.01"],
        ["threshold", "--duration", "1"],
        ["fidelity", "--trials", "20"],
        ["collection", "--offsets-um", "0,40"],
        ["arc", "--angles-deg", "0"],
        ["qefit", "--demo"],
    ], ids=lambda v: v[0])
    def test_run_without_config_hashes_no_config_text(self, outdir, argv):
        manifest_hash = unittest.mock.Mock(wraps=cli._manifest_hash)
        with unittest.mock.patch.object(cli, "_manifest_hash", manifest_hash), warnings.catch_warnings():
            warnings.simplefilter("ignore", ShadowingWarning)  # qefit --demo names its shadowed offsets
            assert main([*argv, "--out", str(outdir / "t.csv")]) == EXIT_OK
        (subcommand, args, hashed), _ = manifest_hash.call_args
        assert (subcommand, hashed) == (argv[0], "")
        assert read_output(outdir / "t.csv")[0] == f"# manifest: {cli._manifest_hash(subcommand, args, '')}"

    def test_config_starts_from_reference_device(self, outdir, tmp_path, capsys):
        config = tmp_path / "short.cfg"
        config.write_text("trial.duration_s = 1\n")
        assert main(["simulate", "--config", str(config)]) == EXIT_OK
        counts = dict(line.split(": ") for line in capsys.readouterr().out.splitlines()[2:])
        assert sorted(counts) == ["  dark", "  doppler", "  fluorescence", "  repump", "  rf"]
        assert all(int(n) > 0 for n in counts.values())


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

    # spot and qefit draw random numbers only for their --demo data, so a CSV input refuses --seed
    @pytest.mark.parametrize("subcommand, table", [
        ("spot", "# step_nm=800, dwell_ms=500, dark_kcps=1.2\n600,5000,9000\n600,8000,12000\n"),
        ("qefit", "offset_um,rate_kcps\n0,3.7\n20,3.1\n40,2.0\n"),
    ])
    def test_seed_beside_a_csv_is_rejected(self, outdir, tmp_path, capsys, subcommand, table):
        data = tmp_path / "in" / "data.csv"
        data.parent.mkdir()
        data.write_text(table)
        assert main([subcommand, str(data), "--seed", "1"]) == EXIT_INPUT_ERROR
        assert "error: --seed seeds only the --demo data" in capsys.readouterr().err
        assert [p.name for p in outdir.iterdir()] == ["in"]
        assert main([subcommand, str(data)]) == EXIT_OK

    # --demo makes its own data, so a CSV path beside it is refused, found or not
    @pytest.mark.parametrize("subcommand", ["spot", "budget", "qefit"])
    def test_demo_beside_a_path_is_rejected(self, outdir, capsys, subcommand):
        assert main([subcommand, "--demo", "/nonexistent.csv"]) == EXIT_INPUT_ERROR
        assert "error: --demo makes its own data and takes no CSV path, got /nonexistent.csv" in capsys.readouterr().err
        assert not any(outdir.iterdir())

    # every float flag takes a finite number only, and a bad one is named by its flag
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["threshold"], "--window-ms", "nan"),
            (["threshold"], "--window-ms", "inf"),
            (["threshold"], "--duration", "nan"),
            (["simulate"], "--duration", "nan"),
            (["simulate"], "--duration", "inf"),
            (["fidelity"], "--sub-bin-us", "nan"),
            (["fidelity"], "--max-time-ms", "nan"),
        ],
        ids=lambda v: "-".join(v) if isinstance(v, list) else v.strip("-"),
    )
    def test_non_finite_float_flag_exits_2_naming_it(self, outdir, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert f"argument {flag}: {value!r} is not a finite number" in capsys.readouterr().err
        assert not any(outdir.iterdir())

    # a list flag's token that is not a number is named with its flag
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["fidelity", "--targets", "abc"], "--targets: 'abc'"),
            (["collection", "--offsets-um", "0:x:5"], "--offsets-um: 'x'"),
            (["arc", "--angles-deg", "a,b"], "--angles-deg: 'a'"),
        ],
        ids=["fidelity-targets", "collection-offsets", "arc-angles"],
    )
    def test_malformed_list_flag_exits_2_naming_it(self, outdir, capsys, argv, named):
        assert main(argv) == EXIT_INPUT_ERROR
        assert f"error: {named} is not a number" in capsys.readouterr().err
        assert not any(outdir.iterdir())

    # an event count too large to draw is an input error, raised before any output is written, that
    # names what set the span (--duration or the config key; a sweep window's bins, and the trials
    # of its chunk) and the config's rate keys; 1e9 s is 1e18 ns, inside the int64 bound on the duration
    @pytest.mark.parametrize("argv, config, named", [
        (["simulate", "--duration", "1e9"], None, "--duration"),
        (["threshold", "--duration", "1e9"], None, "--duration"),
        (["simulate"], "budget.dark_kcps = 1.2\ntrial.duration_s = 1e9\n", "'budget.dark_kcps', 'trial.duration_s'"),
        (["threshold"], "budget.dark_kcps = 1.2\ntrial.duration_s = 1e9\n", "'budget.dark_kcps', 'trial.duration_s'"),
        (["simulate"], "trial.duration_s = 1e9\ntrial.seed = 3\n", "'trial.duration_s'"),
        (["threshold", "--duration", "1e9"], "trial.duration_s = 1\nbudget.rf_kcps = 1.2\n",
         "--duration, 'budget.rf_kcps'"),
        # 256 trials of one 1 ms bin at 5e8 /s: 1.28e8 events, past the limit, though its ln k! table is not
        (["fidelity", "--trials", "300", "--sub-bin-us", "1000", "--max-time-ms", "1"], "budget.dark_kcps = 5e5\n",
         "--sub-bin-us/--max-time-ms, --trials, 'budget.dark_kcps'"),
    ], ids=["simulate-duration", "threshold-duration", "config-duration", "threshold-config", "config-span",
            "flag-over-config", "fidelity-sweep"])
    def test_event_count_past_limit_exits_2(self, outdir, tmp_path, capsys, argv, config, named):
        if config is not None:
            path = tmp_path / "in" / "huge.cfg"
            path.parent.mkdir()
            path.write_text(config)
            argv = [*argv, "--config", str(path)]
        before = set(outdir.iterdir())
        assert main(argv) == EXIT_INPUT_ERROR
        assert re.match(rf"error: {named}: \S+ events expected in one draw", capsys.readouterr().err)
        assert set(outdir.iterdir()) == before

    # a size taken from a flag is bounded before anything of that size is made
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["arc", "--angles-deg", "0:60:1e-12"], "--angles-deg: range '0:60:1e-12' has 6e+13 points, "
             "more than the limit of 1048576"),
            (["collection", "--offsets-um", "0:1e308:1e-308"], "--offsets-um: range '0:1e308:1e-308' has inf points"),
            (["threshold", "--window-ms", "1e-6"], "--window-ms: 5e+10 gates of 1e-09 s, "
             "more than the limit of 16777216"),
            (["threshold", "--window-ms", "1e-320", "--duration", "1"], "--window-ms: inf gates"),
            (["fidelity", "--sub-bin-us", "0.001"], "--sub-bin-us/--max-time-ms: max_time / sub_bin is 5e+07 bins, "
             "more than the limit of 65536"),
            (["fidelity", "--sub-bin-us", "1e-300", "--max-time-ms", "1e300"], "--sub-bin-us/--max-time-ms: "
             "max_time / sub_bin is inf bins"),
            # 65000 bins, inside the bin limit, but the threshold law's longest window is 65000 s
            (["fidelity", "--sub-bin-us", "1e6", "--max-time-ms", "6.5e7", "--trials", "1"], "--max-time-ms: a window "
             "of 65000 s at 11700 counts/s needs a ln k! table of 7.60776e+08 entries, more than the limit of 1048576"),
        ],
        ids=["arc-angles", "collection-offsets", "threshold-window", "threshold-window-overflow", "fidelity-sub-bin",
             "fidelity-sub-bin-overflow", "fidelity-threshold-table"],
    )
    def test_size_past_limit_exits_2_naming_the_flag(self, outdir, capsys, argv, named):
        with unittest.mock.patch.object(detection, "_window_counter", side_effect=AssertionError("drew a window")):
            assert main(argv) == EXIT_INPUT_ERROR
        assert f"error: {named}" in capsys.readouterr().err
        assert not any(outdir.iterdir())

    def test_threshold_window_past_table_limit_exits_2_before_any_draw(self, outdir, capsys):
        with unittest.mock.patch.object(simulator, "_arrival_times", side_effect=AssertionError("drew a stream")):
            assert main(["threshold", "--duration", "100", "--window-ms", "1e5"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == ("error: --window-ms: a window of 100 s at 11700 counts/s needs a ln k! "
                                           "table of 1.18083e+06 entries, more than the limit of 1048576\n")
        assert not any(outdir.iterdir())

    # a rate set by the config can take the ln k! table past its limit too: the keys are named beside
    # the flag, while a window refused for itself names only the flag
    @pytest.mark.parametrize("argv, message", [
        (["threshold"], "--window-ms, 'budget.dark_kcps', 'budget.rf_kcps': a window of 0.025 s at 1e+18 counts/s "
         "needs a ln k! table of"),
        (["fidelity"], "--max-time-ms, 'budget.dark_kcps', 'budget.rf_kcps': a window of 0.05 s at 1e+18 counts/s "
         "needs a ln k! table of"),
        (["threshold", "--window-ms", "-1"], "--window-ms: window must be > 0\n"),
    ], ids=["threshold", "fidelity", "threshold-negative-window"])
    def test_table_past_limit_names_the_rate_keys(self, outdir, tmp_path, capsys, argv, message):
        config = tmp_path / "in" / "dark.cfg"
        config.parent.mkdir()
        config.write_text("trial.seed = 3\nbudget.dark_kcps = 1e15\nbudget.rf_kcps = 1\n")
        assert main([*argv, "--config", str(config)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert [p.name for p in outdir.iterdir()] == ["in"]

    def test_threshold_window_past_duration_exits_2_before_any_draw(self, outdir, capsys):
        with unittest.mock.patch.object(simulator, "_arrival_times", side_effect=AssertionError("drew a stream")):
            assert main(["threshold", "--duration", "0.01", "--window-ms", "25"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: --window-ms: gate is longer than the stream duration\n"
        assert not any(outdir.iterdir())

    # a config key that sizes the quarter disc's grid is bounded before any cell is made, and named
    @pytest.mark.parametrize("line, named", [
        ("geometry.cell_size_um = 0.0001", "key 'geometry.cell_size_um': outer_radius 1.1e-05 m in cells of 1e-10 m "
         "makes a grid of 110001 cells a side, more than the limit of 512"),
        ("geometry.active_outer_radius_um = 1e5", "key 'geometry.active_outer_radius_um': outer_radius 0.1 m in cells "
         "of 4e-07 m makes a grid of 250001 cells a side"),
    ], ids=["cell-size", "outer-radius"])
    @pytest.mark.parametrize("subcommand", ["collection", "qefit --demo"])
    def test_area_grid_past_limit_exits_2_naming_the_key(self, outdir, tmp_path, capsys, line, named, subcommand):
        config = tmp_path / "in" / "area.cfg"
        config.parent.mkdir()
        config.write_text(line + "\n")
        with unittest.mock.patch.object(optics, "_cell_centers", side_effect=AssertionError("made a grid")):
            assert main([*subcommand.split(), "--config", str(config)]) == EXIT_INPUT_ERROR
        assert f"error: {named}" in capsys.readouterr().err
        assert [p.name for p in outdir.iterdir()] == ["in"]

    # the simulator stamps events in int64 nanoseconds: a trial duration of 2^62 ns or more is
    # refused before any draw, named by its flag or key, even where it would draw few events
    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--duration", "1e12"], "--duration: trial_duration must be below 2^62 ns (4.61169e+09 s), "
         "got 1000000000000.0"),
        (["threshold", "--duration", "4.7e9"], "--duration: trial_duration must be below 2^62 ns"),
        (["simulate", "--config"], "key 'trial.duration_s': trial_duration must be below 2^62 ns (4.61169e+09 s), "
         "got 10000000000000.0"),
    ], ids=["simulate-flag", "threshold-flag", "config"])
    def test_duration_past_int64_exits_2_naming_it(self, outdir, tmp_path, capsys, argv, named):
        if argv[-1] == "--config":
            config = tmp_path / "in" / "long.cfg"
            config.parent.mkdir()
            # about 1e5 expected events: inside the event limit, so only the duration bound refuses it
            budget = "".join(f"budget.{label}_kcps = {1e-11 if label == 'dark' else 0}\n" for label in SOURCE_LABELS)
            config.write_text(budget + "trial.duration_s = 1e13\n")
            argv = [*argv, str(config)]
        with unittest.mock.patch.object(simulator, "_arrival_times", side_effect=AssertionError("drew a stream")):
            assert main(argv) == EXIT_INPUT_ERROR
        assert f"error: {named}" in capsys.readouterr().err
        assert not any(p.is_file() for p in outdir.iterdir())

    # a config key whose value would overflow the optics or the QE demo's draw is named
    @pytest.mark.parametrize("subcommand, line, named", [
        ("collection", "geometry.ion_height_um = 1e300", "key 'geometry.ion_height_um': "
         "ion_height_above_surface must be below 1 m in magnitude, got 1e+294"),
        ("collection", "geometry.recess_um = -2e6", "key 'geometry.recess_um': "
         "detector_recess_below_surface must be below 1 m in magnitude, got -2.0"),
        ("qefit --demo", "emitter.gamma_over_2pi_mhz = 1e300", "key 'emitter.gamma_over_2pi_mhz': "
         "gamma_over_2pi_hz must be below 1e+12 Hz, got 1e+306"),
    ], ids=["ion-height", "recess", "linewidth"])
    def test_huge_geometry_or_linewidth_exits_2_naming_the_key(self, outdir, tmp_path, capsys, subcommand, line, named):
        config = tmp_path / "in" / "huge.cfg"
        config.parent.mkdir()
        config.write_text(line + "\n")
        assert main([*subcommand.split(), "--config", str(config)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {named}\n"
        assert [p.name for p in outdir.iterdir()] == ["in"]

    # a vertical distance of about 1e-17 m: every line of sight grazes the detector plane, where r is 0/0.
    # collection --check used to write nan efficiencies and pass; qefit --demo failed in its Poisson draw
    @pytest.mark.parametrize("argv", [["collection", "--check"], ["qefit", "--demo"], ["qefit", "data.csv"]],
                             ids=["collection", "qefit-demo", "qefit-csv"])
    def test_grazing_geometry_exits_2_naming_the_keys(self, outdir, tmp_path, capsys, argv):
        inputs = tmp_path / "in"
        inputs.mkdir()
        (inputs / "grazing.cfg").write_text("geometry.recess_um = -49.99999999999\n")
        (inputs / "data.csv").write_text("offset_um,rate_kcps\n0,3.7\n20,3.1\n")
        argv = [str(inputs / arg) if arg.endswith(".csv") else arg for arg in argv]
        assert main([*argv, "--config", str(inputs / "grazing.cfg")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(
            "error: keys 'geometry.ion_height_um', 'geometry.recess_um': a vertical distance of 1.00018e-17 m "
            "is too small for the lateral distances to the active area: angle of incidence "
        )
        assert [p.name for p in outdir.iterdir()] == ["in"]

    # the simulator adds the dead time to int64 nanosecond timestamps: one of 2^62 ns or more is named by its key
    @pytest.mark.parametrize("argv", [["simulate", "--duration", "0.01"], ["fidelity", "--trials", "10"]],
                             ids=lambda v: v[0])
    def test_dead_time_past_int64_exits_2_naming_it(self, outdir, tmp_path, capsys, argv):
        config = tmp_path / "in" / "dead.cfg"
        config.parent.mkdir()
        config.write_text("deadtime.dead_time_us = 1e300\n")
        assert main([*argv, "--config", str(config)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "error: key 'deadtime.dead_time_us': dead_time must be below 2^62 ns (4.61169e+09 s), got 1e+294\n"
        )
        assert [p.name for p in outdir.iterdir()] == ["in"]

    # numpy's generators take seeds >= 0: a negative one is named by its flag or key
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["threshold", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["spot", "--demo", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["fidelity", "--projection", "--seed", "-3"], "--seed must be >= 0, got -3"),
            (["simulate", "--config"], "key 'trial.seed': rng_seed must be >= 0, got -1"),
        ],
        ids=["threshold", "spot-demo", "projection", "config"],
    )
    def test_negative_seed_exits_2_naming_its_source(self, outdir, tmp_path, capsys, argv, named):
        if argv[-1] == "--config":
            config = tmp_path / "in" / "seed.cfg"
            config.parent.mkdir()
            config.write_text("trial.seed = -1\n")
            argv = [*argv, str(config)]
        before = set(outdir.iterdir())
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {named}\n"
        assert set(outdir.iterdir()) == before

    def test_output_dir_flag_wins_over_environment(self, outdir, tmp_path):
        flag_dir = tmp_path / "flag"
        assert main(["arc", "--angles-deg", "0", "--output-dir", str(flag_dir)]) == EXIT_OK
        read_output(flag_dir / "reflectance.csv")
        assert not (outdir / "reflectance.csv").exists()


class TestEveryConfigKeyTakesEffect:
    # a config that changes one key changes the table of at least one subcommand that reads
    # a scenario; the area keys describe another quarter disc, written to a CSV for the file key
    CHANGES = {
        "budget.fluorescence_kcps": "6",
        "budget.repump_kcps": "3",
        "budget.doppler_kcps": "2",
        "budget.dark_kcps": "2",
        "budget.rf_kcps": "1",
        "emitter.gamma_over_2pi_mhz": "15",
        "emitter.saturation_fraction": "0.5",
        "trial.duration_s": "0.25",
        "trial.seed": "7",
        "geometry.ion_height_um": "40",
        "geometry.recess_um": "5",
        "geometry.emission": "dipole_perpendicular",
        "stack.wavelength_nm": "400",
        "stack.ambient_index": "1.33",
        "stack.substrate_index": "5+1j",
        "stack.layers": "40 2.1 ; 10 1.47",
        "deadtime.dead_time_us": "3",
        "geometry.active_area_csv": "area.csv",
        "geometry.active_outer_radius_um": "9",
        "geometry.guard_width_um": "1",
        "geometry.cell_size_um": "0.5",
    }
    RUNS = (
        ["simulate", "--duration", "0.5"],
        ["threshold"],
        ["fidelity", "--trials", "100"],
        ["collection"],
        ["arc"],
        ["qefit", "--demo"],
    )

    @pytest.fixture(scope="class")
    def bodies(self, tmp_path_factory):
        """The table body of a run under a config text, each computed once."""
        folder = tmp_path_factory.mktemp("keys")
        (folder / "area.csv").write_text(quarter_disc_map(outer_radius=9e-6).to_csv())
        cache = {}

        def body(config_text, argv):
            if (config_text, tuple(argv)) not in cache:
                config, out = folder / "scenario.cfg", folder / "out.csv"
                config.write_text(config_text)
                with warnings.catch_warnings():  # collection and qefit --demo name their shadowed offsets
                    warnings.simplefilter("ignore", ShadowingWarning)
                    assert main([*argv, "--config", str(config), "--out", str(out)]) == EXIT_OK
                cache[config_text, tuple(argv)] = out.read_text().split("\n", 1)[1]
            return cache[config_text, tuple(argv)]

        return body

    def test_every_key_has_a_changed_value(self):
        assert set(self.CHANGES) == KNOWN_KEYS

    @pytest.mark.parametrize("key", sorted(KNOWN_KEYS))
    def test_key_changes_a_table(self, bodies, key):
        assert key in self.CHANGES, f"no changed value for {key}"
        config_text = f"{key} = {self.CHANGES[key]}\n"
        assert any(bodies(config_text, argv) != bodies("", argv) for argv in self.RUNS), (
            f"{key} = {self.CHANGES[key]} leaves every table unchanged"
        )


class TestOneParser:
    # main builds its parser once per process; each call still reads its own arguments and environment
    def test_second_call_builds_no_parser(self, outdir):
        assert main(["arc", "--angles-deg", "0"]) == EXIT_OK
        with unittest.mock.patch.object(argparse.ArgumentParser, "__init__", side_effect=AssertionError("built")):
            assert main(["budget", "--demo"]) == EXIT_OK
        assert cli.build_parser() is cli.build_parser()

    def test_output_dir_environment_read_at_each_call(self, tmp_path, monkeypatch):
        for name in ("first", "second"):
            monkeypatch.setenv("SPADSIM_OUTPUT_DIR", str(tmp_path / name))
            assert main(["arc", "--angles-deg", "0"]) == EXIT_OK
            assert [p.name for p in (tmp_path / name).iterdir()] == ["reflectance.csv"]
        (tmp_path / "second" / "reflectance.csv").unlink()
        # an explicit --output-dir still wins, the empty one (the working directory) included
        assert main(["arc", "--angles-deg", "0", "--output-dir", str(tmp_path / "flag")]) == EXIT_OK
        read_output(tmp_path / "flag" / "reflectance.csv")
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert main(["arc", "--angles-deg", "0", "--output-dir", ""]) == EXIT_OK
        read_output(tmp_path / "cwd" / "reflectance.csv")
        assert not any((tmp_path / "second").iterdir())

    def test_no_state_carries_over_between_calls(self, outdir, capsys):
        assert main(["simulate", "--duration", "0.5", "--no-ion"]) == EXIT_OK
        assert "  fluorescence: 0" in capsys.readouterr().out.splitlines()
        assert main(["simulate", "--duration", "0.5"]) == EXIT_OK
        counts = dict(line.split(": ") for line in capsys.readouterr().out.splitlines()[2:])
        assert int(counts["  fluorescence"]) > 0
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--no-such-flag"])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert main(["arc", "--angles-deg", "0"]) == EXIT_OK


def test_cli_import_leaves_scipy_signal_and_stats_unloaded(tmp_path):
    # scipy is a test dependency only: importing the CLI loads no scipy module, and with every
    # scipy import blocked the presets that once used it, and the front end, still run
    src = str(Path(__file__).resolve().parents[1] / "src")
    loaded = 'print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None))'
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); import spadsim.cli; {loaded}"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
    code = f"""
import sys
sys.path.insert(0, {src!r})
sys.modules["scipy"] = None  # so that importing scipy or any of its modules raises ImportError
from spadsim.cli import main
from spadsim.model import Scenario
from spadsim.simulator import FrontEndParams, simulate_frontend, simulate_stream
for argv in (["threshold"], ["fidelity", "--trials", "200"], ["fidelity", "--projection", "--trials", "200"],
             ["simulate", "--duration", "1"]):
    assert main([*argv, "--output-dir", {str(tmp_path)!r}]) == 0, argv
_, _, digital = simulate_frontend(simulate_stream(Scenario(trial_duration=1e-3), True), FrontEndParams(), 50e6)
assert len(digital) > 0
{loaded}
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "events.csv", "fidelity_curve.csv", "fidelity_projection.csv", "threshold_histogram.csv",
    ]


# the spadsim modules each subcommand loads: cli and what parsing needs, plus the layers it runs
PARSING_LAYERS = {"cli", "config", "model", "optics", "tables"}
LAYERS_BY_GROUP = {
    ("collection", "arc"): PARSING_LAYERS,
    ("spot", "budget", "qefit"): PARSING_LAYERS | {"estimation", "synthetic"},
    ("simulate",): PARSING_LAYERS | {"simulator"},
    ("threshold", "fidelity"): PARSING_LAYERS | {"simulator", "detection"},
}
LAYER_RUNS = {
    "collection": [], "arc": [], "spot": ["--demo"], "budget": ["--demo"], "qefit": ["--demo"],
    "simulate": ["--duration", "0.1"], "threshold": ["--duration", "1", "--window-ms", "10"],
    "fidelity": ["--trials", "20"],
}


def test_each_subcommand_loads_only_the_layers_it_runs(tmp_path):
    # one fresh interpreter per group of subcommands that load the same modules, all at once; in each,
    # the package root loads no layer, and after every subcommand the loaded set is the group's
    src = str(Path(__file__).resolve().parents[1] / "src")
    procs = []
    for subcommands in LAYERS_BY_GROUP:
        code = f"""
import sys
sys.path.insert(0, {src!r})
loaded = lambda: sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("spadsim."))
import spadsim
print(loaded())
from spadsim.cli import main
for name in {list(subcommands)!r}:
    assert main([name, *{LAYER_RUNS!r}[name], "--output-dir", {str(tmp_path / subcommands[0])!r}]) == 0, name
    print(loaded())
"""
        procs.append(subprocess.Popen([sys.executable, "-W", "ignore", "-c", code],
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    for (subcommands, layers), proc in zip(LAYERS_BY_GROUP.items(), procs):
        out, err = proc.communicate()
        assert proc.returncode == 0, err
        root, *after = [line for line in out.splitlines() if line.startswith("[")]
        assert root == "[]"
        assert after == [repr(sorted(layers))] * len(subcommands), subcommands
    assert sorted(LAYER_RUNS) == sorted(name for group in LAYERS_BY_GROUP for name in group)


def test_fidelity_help_names_the_projection_trials(capsys):
    with pytest.raises(SystemExit):
        main(["fidelity", "--help"])
    assert f"default {cli._CURVE_TRIALS}, {detection.PROJECTED_TRIALS} with --projection" in " ".join(
        capsys.readouterr().out.split())
