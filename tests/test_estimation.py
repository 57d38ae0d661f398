import math
from dataclasses import replace

import numpy as np
import pytest

from spadsim.estimation import (
    SpotScan,
    ToggleMeasurement,
    decompose_budget,
    effective_area,
    expected_incident_rates,
    fit_quantum_efficiency,
)
from spadsim.model import EmitterParams, Scenario, scattering_rate, table_budget
from spadsim.optics import DetectorGeometry, ShadowingWarning, efficiency_vs_offset
from spadsim.synthetic import (
    CUMULATIVE_TOGGLE_DESIGN,
    make_qe_dataset,
    make_spot_scan,
    make_toggle_measurements,
    qe_dataset_from_csv,
    toggle_measurements_from_csv,
)

from reference_tables import qe_dataset_csv, spot_scan_csv, toggle_csv


class TestEffectiveArea:
    def test_noise_free_uniform_square(self):
        # 10x10 fully-on cells at 0.5 um step -> 25 um^2, exactly
        counts = np.full((12, 12), 100.0)
        counts[10:, :] = 0.0
        counts[:, 10:] = 0.0
        scan = SpotScan(step=0.5e-6, counts=counts, dark_rate=0.0, dwell=1.0)
        area, amap = effective_area(scan)
        assert area == pytest.approx(100 * (0.5e-6) ** 2, rel=1e-12)
        assert np.all((amap.weights == 0) | (amap.weights == 1))

    def test_dark_subtraction(self):
        dark, dwell = 2e3, 0.5
        counts = np.array([[52e3 * dwell, dark * dwell], [dark * dwell, dark * dwell]])
        scan = SpotScan(step=1e-6, counts=counts, dark_rate=dark, dwell=dwell)
        area, _ = effective_area(scan)
        assert area == pytest.approx(1e-12, rel=1e-12)

    def test_quarter_disc_recovery(self):
        scan = make_spot_scan(step=0.5e-6, dwell=2.0, seed=3)
        area, _ = effective_area(scan)
        assert area * 1e12 == pytest.approx(60.0, rel=0.05)

    def test_all_dark_rejected(self):
        counts = np.full((4, 4), 10.0)
        scan = SpotScan(step=1e-6, counts=counts, dark_rate=100.0, dwell=1.0)
        with pytest.raises(ValueError):
            effective_area(scan)

    def test_csv_round_trip(self):
        scan = make_spot_scan(step=1e-6, seed=1)
        back = SpotScan.from_csv(spot_scan_csv(scan))
        assert back.step == pytest.approx(scan.step)
        assert back.dwell == pytest.approx(scan.dwell)
        assert back.dark_rate == pytest.approx(scan.dark_rate)
        np.testing.assert_allclose(back.counts, scan.counts, rtol=1e-5)

    def test_csv_missing_header(self):
        with pytest.raises(ValueError):
            SpotScan.from_csv("1,2\n3,4\n")

    def test_validation(self):
        with pytest.raises(ValueError):
            SpotScan(step=0.0, counts=np.ones((2, 2)), dark_rate=0.0, dwell=1.0)
        with pytest.raises(ValueError):
            SpotScan(step=1e-6, counts=np.ones(4), dark_rate=0.0, dwell=1.0)
        with pytest.raises(ValueError):
            SpotScan(step=1e-6, counts=-np.ones((2, 2)), dark_rate=0.0, dwell=1.0)
        with pytest.raises(ValueError, match="step and dwell must be finite"):
            SpotScan(step=math.nan, counts=np.ones((2, 2)), dark_rate=0.0, dwell=1.0)
        with pytest.raises(ValueError, match="step and dwell must be finite"):
            SpotScan(step=1e-6, counts=np.ones((2, 2)), dark_rate=0.0, dwell=math.inf)
        with pytest.raises(ValueError, match="dark_rate must be finite, got nan"):
            SpotScan(step=1e-6, counts=np.ones((2, 2)), dark_rate=math.nan, dwell=1.0)
        with pytest.raises(ValueError, match="got inf in grid row 2, column 1"):
            SpotScan(step=1e-6, counts=np.array([[1.0, 2.0], [math.inf, 3.0]]), dark_rate=0.0, dwell=1.0)


class TestDecomposeBudget:
    def test_exact_recovery_full_rank(self):
        truth = table_budget()
        meas = make_toggle_measurements(truth)
        est, sigma = decompose_budget(meas)
        for name in sigma:
            assert getattr(est, name) == pytest.approx(getattr(truth, name), abs=1e-6)

    def test_noisy_recovery_within_three_sigma(self):
        truth = table_budget()
        hits = 0
        n_names = 0
        for seed in range(10):
            meas = make_toggle_measurements(truth, dwell=200.0, noisy=True, seed=seed)
            est, sigma = decompose_budget(meas)
            for name, sig in sigma.items():
                n_names += 1
                hits += abs(getattr(est, name) - getattr(truth, name)) <= 3 * max(sig, 1e-9)
        assert hits >= 0.95 * n_names

    def test_uncertainty_shrinks_with_dwell(self):
        truth = table_budget()
        _, s_short = decompose_budget(make_toggle_measurements(truth, dwell=10.0))
        _, s_long = decompose_budget(make_toggle_measurements(truth, dwell=1000.0))
        assert s_long["fluorescence"] == pytest.approx(s_short["fluorescence"] / 10, rel=1e-6)

    def test_rank_deficient_names_entangled_sources(self):
        # repump and doppler always toggled together: inseparable
        design = [
            (False, False, False, True, False),
            (False, True, True, True, False),
            (True, True, True, True, False),
            (True, True, True, True, True),
            (False, False, False, True, True),
        ]
        meas = make_toggle_measurements(table_budget(), design=design)
        with pytest.raises(ValueError, match="repump"):
            decompose_budget(meas)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decompose_budget([])

    @pytest.mark.parametrize("rate, dwell", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_rate_or_dwell_rejected(self, rate, dwell):
        with pytest.raises(ValueError, match="must be finite"):
            ToggleMeasurement(active_sources=(True,) * 5, measured_rate=rate, dwell=dwell)

    def test_cumulative_design_full_rank(self):
        design = np.array(CUMULATIVE_TOGGLE_DESIGN, dtype=float)
        assert np.linalg.matrix_rank(design) == 5

    def test_csv_round_trip(self):
        meas = make_toggle_measurements(table_budget(), dwell=25.0)
        back = toggle_measurements_from_csv(toggle_csv(meas))
        assert len(back) == len(meas)
        for a, b in zip(meas, back):
            assert a.active_sources == b.active_sources
            assert b.measured_rate == pytest.approx(a.measured_rate, rel=1e-6)
            assert b.dwell == pytest.approx(a.dwell)

    def test_csv_bad_rows(self):
        good = toggle_csv(make_toggle_measurements(table_budget()))
        with pytest.raises(ValueError):
            toggle_measurements_from_csv("a,b\n1,2\n")
        with pytest.raises(ValueError, match="line 7"):  # header and five rows above it
            toggle_measurements_from_csv(good + "1,0,0\n")

    @pytest.mark.parametrize("flag", ["2", "-3", "-1", "1.0", "yes"])
    def test_csv_flag_other_than_0_or_1_named(self, flag):
        good = toggle_csv(make_toggle_measurements(table_budget()))
        with pytest.raises(ValueError, match="toggle CSV line 7"):  # header and five rows above it
            toggle_measurements_from_csv(good + f"1,0,{flag},0,0,1.0,1.0\n")


class TestQuantumEfficiencyFit:
    OFFSETS = np.array([0.0, 20e-6, 40e-6, 60e-6, 80e-6])
    SHADOWED = "at offsets 80 um"  # the reference geometry's wall clips the 80 um line of sight

    def test_noise_free_exact(self):
        qe_true = 0.24
        geom = DetectorGeometry()
        with pytest.warns(ShadowingWarning, match=self.SHADOWED):
            sc = Scenario(geometry=geom)
            expected = expected_incident_rates(sc, self.OFFSETS)
        qe, err = fit_quantum_efficiency(expected, qe_true * expected)
        assert qe == pytest.approx(qe_true, rel=1e-9)
        assert err == pytest.approx(0.0, abs=1e-9)

    def test_expected_rates_consistent_with_components(self):
        geom = DetectorGeometry()
        with pytest.warns(ShadowingWarning, match=self.SHADOWED):
            expected = expected_incident_rates(Scenario(geometry=geom), self.OFFSETS)
            ces = [efficiency_vs_offset(geom, [off])[0][0] for off in self.OFFSETS]
        emit = scattering_rate(EmitterParams())
        assert list(expected) == [emit * ce for ce in ces]

    def test_pipeline_closure_over_seeds(self):
        # synthetic data generated at qe=0.24 recovered within 3 std errors in
        # most seeds (Poisson noise, 50 s integration)
        qe_true = 0.24
        sc = Scenario(budget=table_budget())
        with pytest.warns(ShadowingWarning, match=self.SHADOWED):
            expected = expected_incident_rates(sc, self.OFFSETS)
        hits = 0
        for seed in range(5):
            meas = make_qe_dataset(replace(sc, rng_seed=seed), expected)
            qe, err = fit_quantum_efficiency(expected, meas)
            hits += abs(qe - qe_true) <= 3 * err
        assert hits >= 4

    def test_scale_equivariance(self):
        geom = DetectorGeometry()
        with pytest.warns(ShadowingWarning, match=self.SHADOWED):
            sc = Scenario(geometry=geom)
            base = expected_incident_rates(sc, self.OFFSETS)
        qe1, _ = fit_quantum_efficiency(base, 0.1 * base)
        qe2, _ = fit_quantum_efficiency(base, 0.3 * base)
        assert qe2 == pytest.approx(3 * qe1, rel=1e-9)

    def test_csv_round_trip(self):
        sc = Scenario(budget=table_budget(), rng_seed=2)
        with pytest.warns(ShadowingWarning, match=self.SHADOWED):
            meas = make_qe_dataset(sc, expected_incident_rates(sc, self.OFFSETS))
        o2, m2 = qe_dataset_from_csv(qe_dataset_csv(self.OFFSETS, meas))
        np.testing.assert_allclose(o2, self.OFFSETS, rtol=1e-6)
        np.testing.assert_allclose(m2, meas, rtol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal-length and non-empty"):
            fit_quantum_efficiency(np.array([]), np.array([]))
        with pytest.raises(ValueError, match="equal-length and non-empty"):
            fit_quantum_efficiency(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="must be >= 0"):
            fit_quantum_efficiency(np.array([1.0]), np.array([-1.0]))
        with pytest.raises(ValueError, match="must be finite, got nan and 1 /s at point 2"):
            fit_quantum_efficiency(np.array([1.0, math.nan]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="must be finite, got 1 and inf /s at point 1"):
            fit_quantum_efficiency(np.array([1.0, 2.0]), np.array([math.inf, 1.0]))
        with pytest.raises(ValueError, match="geometry collects nothing"):
            fit_quantum_efficiency(np.zeros(2), np.array([1.0, 1.0]))

    def test_expected_rates_name_a_non_finite_offset(self):
        # the forward model takes the sweep's check: the value and its point are named
        with pytest.raises(ValueError, match="offsets must be finite, got nan m at point 2"):
            expected_incident_rates(Scenario(), [0.0, math.nan])
