import math

import numpy as np
import pytest

from spadsim.estimation import (
    QEFitInput,
    SpotScan,
    ToggleMeasurement,
    decompose_budget,
    effective_area,
    expected_incident_rates,
    fit_quantum_efficiency,
    fit_saturation,
)
from spadsim.model import EmitterParams, Scenario, scattering_rate, table_budget
from spadsim.optics import DetectorGeometry, ShadowingWarning, collection_efficiency
from spadsim.synthetic import (
    CUMULATIVE_TOGGLE_DESIGN,
    make_qe_dataset,
    make_spot_scan,
    make_toggle_measurements,
    qe_dataset_from_csv,
    qe_dataset_to_csv,
    toggle_measurements_from_csv,
    toggle_measurements_to_csv,
)


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
        back = SpotScan.from_csv(scan.to_csv())
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

    def test_cumulative_design_full_rank(self):
        design = np.array(CUMULATIVE_TOGGLE_DESIGN, dtype=float)
        assert np.linalg.matrix_rank(design) == 5

    def test_csv_round_trip(self):
        meas = make_toggle_measurements(table_budget(), dwell=25.0)
        back = toggle_measurements_from_csv(toggle_measurements_to_csv(meas))
        assert len(back) == len(meas)
        for a, b in zip(meas, back):
            assert a.active_sources == b.active_sources
            assert b.measured_rate == pytest.approx(a.measured_rate, rel=1e-6)
            assert b.dwell == pytest.approx(a.dwell)

    def test_csv_bad_rows(self):
        good = toggle_measurements_to_csv(make_toggle_measurements(table_budget()))
        with pytest.raises(ValueError):
            toggle_measurements_from_csv("a,b\n1,2\n")
        with pytest.raises(ValueError, match="line 7"):  # header and five rows above it
            toggle_measurements_from_csv(good + "1,0,0\n")

    @pytest.mark.parametrize("flag", ["2", "-3", "-1", "1.0", "yes"])
    def test_csv_flag_other_than_0_or_1_named(self, flag):
        good = toggle_measurements_to_csv(make_toggle_measurements(table_budget()))
        with pytest.raises(ValueError, match="toggle CSV line 7"):  # header and five rows above it
            toggle_measurements_from_csv(good + f"1,0,{flag},0,0,1.0,1.0\n")


class TestFitSaturation:
    def test_exact_model_recovery(self):
        psat_true, rmax_true = 2.5e-3, 60e3
        p = np.linspace(0.2e-3, 20e-3, 12)
        r = rmax_true * (p / psat_true) / (1 + p / psat_true)
        psat, rmax, fr = fit_saturation(p, r)
        assert psat == pytest.approx(psat_true, rel=1e-6)
        assert rmax == pytest.approx(rmax_true, rel=1e-6)
        np.testing.assert_allclose(fr, (p / psat_true) / (1 + p / psat_true), rtol=1e-5)

    def test_83_percent_operating_point(self):
        psat_true, rmax_true = 1e-3, 50e3
        p = np.linspace(0.1e-3, 10e-3, 15)
        r = rmax_true * (p / psat_true) / (1 + p / psat_true)
        psat, _, _ = fit_saturation(p, r)
        p_op = psat * 0.83 / (1 - 0.83)
        frac = (p_op / psat) / (1 + p_op / psat)
        assert frac == pytest.approx(0.83, rel=1e-9)

    def test_noise_tolerance(self):
        rng = np.random.default_rng(6)
        psat_true, rmax_true = 2e-3, 40e3
        p = np.linspace(0.2e-3, 16e-3, 20)
        r = rmax_true * (p / psat_true) / (1 + p / psat_true)
        r = rng.poisson(r * 10.0) / 10.0
        psat, rmax, _ = fit_saturation(p, r)
        assert psat == pytest.approx(psat_true, rel=0.1)
        assert rmax == pytest.approx(rmax_true, rel=0.05)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_saturation([1e-3, 1e-3], [1.0, 1.0])
        with pytest.raises(ValueError):
            fit_saturation([1e-3, 2e-3, 3e-3], [5.0, 5.0, 5.0])


class TestQuantumEfficiencyFit:
    OFFSETS = np.array([0.0, 20e-6, 40e-6, 60e-6, 80e-6])
    SHADOWED = "at offsets 80 um"  # the reference geometry's wall clips the 80 um line of sight

    def test_noise_free_exact(self):
        qe_true = 0.24
        geom = DetectorGeometry()
        with pytest.warns(ShadowingWarning, match=self.SHADOWED):
            fit_in = QEFitInput(
                positions=self.OFFSETS,
                measured_fluorescence=qe_true * expected_incident_rates(
                    QEFitInput(self.OFFSETS, np.zeros(5), geom)
                ),
                geometry=geom,
            )
            qe, err = fit_quantum_efficiency(fit_in)
        assert qe == pytest.approx(qe_true, rel=1e-9)
        assert err == pytest.approx(0.0, abs=1e-9)

    def test_expected_rates_consistent_with_components(self):
        geom = DetectorGeometry()
        fit_in = QEFitInput(self.OFFSETS, np.zeros(5), geom)
        with pytest.warns(ShadowingWarning, match=self.SHADOWED):
            expected = expected_incident_rates(fit_in)
            ces = [collection_efficiency(geom.with_offset(off)) for off in self.OFFSETS]
        emit = scattering_rate(EmitterParams())
        assert list(expected) == [emit * ce for ce in ces]

    def test_pipeline_closure_over_seeds(self):
        # synthetic data generated at qe=0.24 recovered within 3 std errors in
        # most seeds (Poisson noise, 50 s integration)
        qe_true = 0.24
        sc = Scenario(budget=table_budget())
        hits = 0
        for seed in range(5):
            with pytest.warns(ShadowingWarning, match=self.SHADOWED):
                offs, meas = make_qe_dataset(sc, self.OFFSETS, qe_true, seed=seed)
                qe, err = fit_quantum_efficiency(QEFitInput(offs, meas, sc.geometry, sc.emitter))
            hits += abs(qe - qe_true) <= 3 * err
        assert hits >= 4

    def test_scale_equivariance(self):
        geom = DetectorGeometry()
        with pytest.warns(ShadowingWarning, match=self.SHADOWED):
            base = expected_incident_rates(QEFitInput(self.OFFSETS, np.zeros(5), geom))
            qe1, _ = fit_quantum_efficiency(QEFitInput(self.OFFSETS, 0.1 * base, geom))
            qe2, _ = fit_quantum_efficiency(QEFitInput(self.OFFSETS, 0.3 * base, geom))
        assert qe2 == pytest.approx(3 * qe1, rel=1e-9)

    def test_csv_round_trip(self):
        sc = Scenario(budget=table_budget())
        with pytest.warns(ShadowingWarning, match=self.SHADOWED):
            offs, meas = make_qe_dataset(sc, self.OFFSETS, seed=2)
        o2, m2 = qe_dataset_from_csv(qe_dataset_to_csv(offs, meas))
        np.testing.assert_allclose(o2, offs, rtol=1e-6)
        np.testing.assert_allclose(m2, meas, rtol=1e-6)

    def test_validation(self):
        geom = DetectorGeometry()
        with pytest.raises(ValueError):
            QEFitInput(np.array([]), np.array([]), geom)
        with pytest.raises(ValueError):
            QEFitInput(np.array([0.0]), np.array([1.0, 2.0]), geom)
        with pytest.raises(ValueError):
            QEFitInput(np.array([0.0]), np.array([-1.0]), geom)
