import re

import pytest

from spadsim.config import ConfigError, parse_config_text, scenario_from_text
from spadsim.model import Scenario, table_budget


MINIMAL = """
# reference-rate scenario
budget.fluorescence_kcps = 4.8
budget.repump_kcps = 4.0
budget.doppler_kcps = 1.4
budget.dark_kcps = 1.2
budget.rf_kcps = 0.3
trial.duration_s = 2.5
trial.seed = 99
"""

# every scenario key at the reference device's value, as a pinned input
REFERENCE_TEXT = """\
budget.fluorescence_kcps = 4.8
budget.repump_kcps = 4
budget.doppler_kcps = 1.4
budget.dark_kcps = 1.2
budget.rf_kcps = 0.3
emitter.gamma_over_2pi_mhz = 19.6
emitter.saturation_fraction = 0.83
trial.duration_s = 50
trial.seed = 0
geometry.ion_height_um = 50
geometry.recess_um = 7
geometry.emission = isotropic
stack.wavelength_nm = 370
stack.ambient_index = 1
stack.substrate_index = 6.9+1.4j
stack.layers = 29 2.1 ; 10 1.47
deadtime.dead_time_us = 1
"""


class TestParse:
    def test_minimal_values(self):
        values = parse_config_text(MINIMAL)
        assert values["budget.fluorescence_kcps"] == "4.8"
        assert values["trial.seed"] == "99"

    def test_comments_and_blank_lines_ignored(self):
        values = parse_config_text("\n# comment only\nbudget.dark_kcps = 1.0  # inline\n")
        assert values == {"budget.dark_kcps": "1.0"}

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("budget.dark_kcps = 1\nbudget.cosmic_kcps = 5\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("trial.seed = 1\ntrial.seed = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just some words\n")


class TestScenarioFromText:
    def test_budget_and_trial_fields(self):
        scenario = scenario_from_text(MINIMAL)
        assert scenario.budget == table_budget()
        assert scenario.trial_duration == 2.5
        assert scenario.rng_seed == 99
        assert scenario.dead_time == pytest.approx(1e-6)
        big = 2**53 + 1  # not a float
        assert scenario_from_text(f"trial.seed = {big}\n").rng_seed == big

    def test_reference_text_gives_reference_scenario(self):
        parsed, reference = scenario_from_text(REFERENCE_TEXT), Scenario(budget=table_budget())
        assert parsed.budget == reference.budget
        assert parsed.emitter == reference.emitter
        assert (parsed.trial_duration, parsed.rng_seed) == (reference.trial_duration, reference.rng_seed)
        assert parsed.dead_time == pytest.approx(reference.dead_time, rel=1e-15)
        geometry, ref_geometry = parsed.geometry, reference.geometry
        assert geometry.ion_height_above_surface == pytest.approx(ref_geometry.ion_height_above_surface, rel=1e-15)
        assert geometry.detector_recess_below_surface == pytest.approx(
            ref_geometry.detector_recess_below_surface, rel=1e-15
        )
        assert geometry.emission_pattern == ref_geometry.emission_pattern
        assert geometry.active_area.effective_area() == ref_geometry.active_area.effective_area()
        stack, ref_stack = geometry.stack, ref_geometry.stack
        assert stack.wavelength == pytest.approx(ref_stack.wavelength, rel=1e-15)
        assert (stack.ambient_index, stack.substrate_index) == (ref_stack.ambient_index, ref_stack.substrate_index)
        assert [d for d, _ in stack.layers] == pytest.approx([d for d, _ in ref_stack.layers], rel=1e-15)
        assert [n for _, n in stack.layers] == [n for _, n in ref_stack.layers]

    def test_defaults_when_empty(self):
        scenario = scenario_from_text("")
        default = Scenario()
        assert scenario.budget == default.budget
        assert scenario.emitter == default.emitter

    def test_bad_number_reports_key(self):
        with pytest.raises(ConfigError, match="budget.dark_kcps"):
            scenario_from_text("budget.dark_kcps = lots\n")
        with pytest.raises(ConfigError, match="trial.seed"):
            scenario_from_text("trial.seed = 1.9\n")

    def test_negative_seed_reports_key(self):
        # numpy's generators take seeds >= 0; the key is named here, not by numpy at the first draw
        with pytest.raises(ConfigError, match=r"^key 'trial.seed': rng_seed must be >= 0, got -1$"):
            scenario_from_text("trial.seed = -1\n")
        assert scenario_from_text("trial.seed = 0\n").rng_seed == 0

    @pytest.mark.parametrize("key", ["trial.duration_s", "geometry.ion_height_um", "deadtime.dead_time_us"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_reports_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"key '{key}': cannot parse '{value}': .* is not finite"):
            scenario_from_text(f"{key} = {value}\n")

    def test_number_overflowing_its_unit_reports_key(self):
        # finite as written, infinite once scaled from kcps to counts per second
        with pytest.raises(ConfigError, match="key 'budget.dark_kcps': .* is not finite"):
            scenario_from_text("budget.dark_kcps = 1e306\n")

    @pytest.mark.parametrize("key", ["stack.ambient_index", "stack.substrate_index"])
    @pytest.mark.parametrize("value", ["nan", "nan+0.1j", "3.5+infj"])
    def test_non_finite_complex_reports_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"key '{key}': .* is not finite"):
            scenario_from_text(f"{key} = {value}\n")

    @pytest.mark.parametrize("value", ["nan 1.5", "inf 1.5", "29 2.0 ; 10 nan", "29 2.0+infj"])
    def test_non_finite_layer_reports_key(self, value):
        with pytest.raises(ConfigError, match=r"key 'stack.layers': .* is not finite"):
            scenario_from_text(f"stack.layers = {value}\n")

    def test_stack_layers_parsing(self):
        scenario = scenario_from_text("stack.layers = 29 2.0 ; 10 1.46\n")
        layers = scenario.geometry.stack.layers
        assert layers[0][0] == pytest.approx(29e-9)
        assert layers[1][1] == pytest.approx(1.46 + 0j)

    def test_bad_layer_entry(self):
        with pytest.raises(ConfigError, match="stack.layers"):
            scenario_from_text("stack.layers = 29\n")

    def test_physical_validation_becomes_config_error(self):
        with pytest.raises(ConfigError):
            scenario_from_text("trial.duration_s = 0\n")
        with pytest.raises(ConfigError):
            scenario_from_text("budget.dark_kcps = -1\n")

    def test_negative_dead_time_rejected(self):
        with pytest.raises(ConfigError, match="dead_time must be >= 0"):
            scenario_from_text("deadtime.dead_time_us = -0.5\n")

    # the quarter disc's keys are named with its error, and a grid past its limit is refused
    @pytest.mark.parametrize("text, named", [
        ("geometry.cell_size_um = 0.0001\n", "key 'geometry.cell_size_um': outer_radius 1.1e-05 m in cells of 1e-10 m "
         "makes a grid of 110001 cells a side"),
        ("geometry.active_outer_radius_um = 1e5\n", "key 'geometry.active_outer_radius_um': outer_radius 0.1 m"),
        ("geometry.guard_width_um = 1\ngeometry.cell_size_um = 0\n",
         "keys 'geometry.guard_width_um', 'geometry.cell_size_um': cell_size must be > 0"),
    ], ids=["cell-size", "outer-radius", "two-keys"])
    def test_area_keys_named_with_their_error(self, text, named):
        with pytest.raises(ConfigError, match=f"^{re.escape(named)}"):
            scenario_from_text(text)

    # an object's error names the keys that set its own fields, not those of the objects inside it
    @pytest.mark.parametrize("text, named", [
        ("stack.wavelength_nm = 400\ngeometry.recess_um = -60\n",
         "key 'geometry.recess_um': ion-to-detector vertical distance must be > 0, got -9.999999999999992e-06"),
        ("stack.wavelength_nm = 400\ngeometry.ion_height_um = 10\ngeometry.recess_um = -10\n",
         "keys 'geometry.ion_height_um', 'geometry.recess_um': ion-to-detector vertical distance must be > 0, got 0.0"),
        ("budget.dark_kcps = 1\ntrial.duration_s = -1\n", "key 'trial.duration_s': trial_duration must be > 0 and "
         "finite, got -1.0"),
        ("stack.wavelength_nm = 400\ngeometry.active_outer_radius_um = 1e-9\n",
         "key 'geometry.active_outer_radius_um': active area map has zero total response"),
    ], ids=["geometry", "two-keys", "scenario", "area"])
    def test_error_names_the_keys_of_its_object(self, text, named):
        with pytest.raises(ConfigError, match=f"^{re.escape(named)}$"):
            scenario_from_text(text)

    # a dead time of 2^62 ns or more leaves int64 nanoseconds, and an active area reaching 1 m or
    # more overflows the collection sum (a radius of 1e300 um in cells of 1e298 um ended in an
    # OverflowError): each is refused by the object its key sets, and the error names the key
    @pytest.mark.parametrize("text, named", [
        ("deadtime.dead_time_us = 1e300\n", "key 'deadtime.dead_time_us': dead_time must be below 2^62 ns "
         "(4.61169e+09 s), got 1e+294"),
        ("geometry.active_outer_radius_um = 1e300\ngeometry.cell_size_um = 1e298\n",
         "keys 'geometry.active_outer_radius_um', 'geometry.cell_size_um': the grid must lie within 1 m of (0, 0), "
         "got cells reaching 1.01e+294 m"),
        ("geometry.active_outer_radius_um = 1e6\n",
         "key 'geometry.active_outer_radius_um': outer_radius 1 m in cells of 4e-07 m makes a grid of 2.5e+06 cells "
         "a side, more than the limit of 512"),
        ("geometry.guard_width_um = 1e6\n", "key 'geometry.guard_width_um': guard_width must be below 1 m, got 1.0"),
        ("geometry.cell_size_um = 1e298\n", "key 'geometry.cell_size_um': the grid must lie within 1 m of (0, 0), "
         "got cells reaching 2e+292 m"),
    ], ids=["dead-time", "radius-and-cell", "radius-1m", "guard", "cell"])
    def test_key_past_its_bound_named(self, text, named):
        with pytest.raises(ConfigError, match=f"^{re.escape(named)}$"):
            scenario_from_text(text)

    def test_area_csv_reaching_past_1m_named(self, tmp_path):
        (tmp_path / "big.csv").write_text("# cell_size_um=1e298, origin_um=0,0\n1,1\n1,1\n")
        path = tmp_path / "big.csv"
        named = f"key 'geometry.active_area_csv': cannot read {path}: the grid must lie within 1 m of (0, 0)"
        with pytest.raises(ConfigError, match=f"^{re.escape(named)}, got cells reaching 2e\\+292 m$"):
            scenario_from_text("geometry.active_area_csv = big.csv\n", base_dir=tmp_path)

    def test_active_area_csv_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="active_area_csv"):
            scenario_from_text("geometry.active_area_csv = nope.csv\n", base_dir=tmp_path)

    def test_active_area_csv_loaded_relative(self, tmp_path):
        base_scenario = scenario_from_text("")
        (tmp_path / "area.csv").write_text(base_scenario.geometry.active_area.to_csv())
        scenario = scenario_from_text(
            "geometry.active_area_csv = area.csv\n", base_dir=tmp_path
        )
        assert scenario.geometry.active_area.effective_area() == pytest.approx(
            base_scenario.geometry.active_area.effective_area(), rel=1e-6
        )

