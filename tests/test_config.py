import pytest

from spadsim.config import (
    ConfigError,
    parse_config_text,
    scenario_from_text,
    scenario_to_text,
)
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

# scenario_to_text of the reference-budget scenario, as written before the dead
# time moved into Scenario
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
geometry.lateral_offset_um = 80
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


class TestRoundTrip:
    def test_default_scenario(self):
        scenario = Scenario(dead_time=2.5e-6)
        text = scenario_to_text(scenario)
        back = scenario_from_text(text)
        assert back.budget == scenario.budget
        assert back.rng_seed == scenario.rng_seed
        assert back.trial_duration == pytest.approx(scenario.trial_duration)
        assert back.geometry.ion_lateral_offset == pytest.approx(
            scenario.geometry.ion_lateral_offset, rel=1e-12
        )
        assert back.dead_time == pytest.approx(scenario.dead_time)
        # serialize(parse(serialize(s))) is a fixed point
        assert scenario_to_text(back) == text

    def test_modified_scenario(self):
        scenario = Scenario(budget=table_budget().scaled(1.7), trial_duration=0.125, rng_seed=7)
        text = scenario_to_text(scenario)
        back = scenario_from_text(text)
        assert back.budget.fluorescence == pytest.approx(scenario.budget.fluorescence, rel=1e-12)
        assert back.trial_duration == scenario.trial_duration
        assert back.rng_seed == 7
        assert scenario_to_text(back) == text

    def test_serialized_text_is_stable(self):
        scenario = Scenario()
        t1 = scenario_to_text(scenario)
        t2 = scenario_to_text(scenario_from_text(t1))
        assert t1 == t2

    def test_reference_text_is_pinned(self):
        # the config of every CLI run without --config, and so part of its manifest hash
        assert scenario_to_text(Scenario(budget=table_budget())) == REFERENCE_TEXT
