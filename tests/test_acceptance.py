"""End-to-end acceptance checks; each test prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from spadsim.detection import (
    _bin_log_likelihood_ratios,
    analytic_threshold_fidelity,
    fidelity_curve,
    projected_scenario_fidelity,
    threshold_fidelity,
    wald_bound,
)
from spadsim.estimation import effective_area, expected_incident_rates, fit_quantum_efficiency
from spadsim.model import RateBudget, Scenario, table_budget
from spadsim.optics import (
    DetectorGeometry,
    OpticalStack,
    ShadowingWarning,
    _reflectance_rows,
    arc_stack,
    efficiency_vs_offset,
    stack_reflectance,
)
from spadsim.simulator import gate_and_count, simulate_stream
from spadsim.synthetic import make_qe_dataset, make_spot_scan

from reference_optics import aperture_filling_map, reference_amplitude_coeffs


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_1_adaptive_bayesian_detection():
    t0 = time.perf_counter()
    sc = Scenario(budget=table_budget(), rng_seed=20260824)
    curve = fidelity_curve(sc, [0.99], trials=10_000)
    _, fid, mean_time = curve.bayes[0]
    runtime = time.perf_counter() - t0
    bound = sum(wald_bound(11_700.0, 6_900.0, 0.01)) / 2
    ok = (
        abs(fid - 0.99) <= 0.005
        and bound <= mean_time <= 7.7e-3
        and runtime < 60.0
    )
    report(
        "adaptive detection",
        ok,
        f"fidelity {fid:.4f} (0.99 +/- 0.005), mean window "
        f"{mean_time * 1e3:.2f} ms in [{bound * 1e3:.2f}, 7.7] ms, {runtime:.1f} s",
    )


def test_2_threshold_detection():
    window = 0.025
    sc = Scenario(budget=table_budget(), trial_duration=50.0, rng_seed=77)
    ion = gate_and_count(sc, True, window)
    empty = gate_and_count(sc, False, window)
    result = threshold_fidelity(ion, empty)
    _, exact = analytic_threshold_fidelity(11_700.0, 6_900.0, window)
    ok = result.fidelity >= 0.996 and abs(result.fidelity - exact) <= 0.003
    report(
        "threshold detection",
        ok,
        f"fidelity {result.fidelity:.4f} (>= 0.996), exact-Poisson {exact:.4f} "
        f"(|diff| {abs(result.fidelity - exact):.4f} <= 0.003)",
    )


def test_3_arc_optics():
    r_coated = stack_reflectance(arc_stack(), 0.0)
    r_bare = stack_reflectance(OpticalStack(), 0.0)
    vertical = 57e-6
    r_far = stack_reflectance(arc_stack(), math.atan2(80e-6, vertical))
    r_near = stack_reflectance(arc_stack(), math.atan2(50e-6, vertical))
    lossless = OpticalStack(
        layers=((120e-9, 1.8 + 0j), (60e-9, 2.3 + 0j)), substrate_index=1.5 + 0j
    )
    # the package's s and p R, against T from the tests' reference transfer matrix
    angles = np.array([0.0, 0.4, 0.9, 1.3])
    conserve = np.max(abs(_reflectance_rows(lossless, angles) + reference_amplitude_coeffs(lossless, angles)[1] - 1.0))
    ok = (
        abs(r_coated - 0.10) <= 0.03
        and abs(r_bare - 0.57) <= 0.04
        and abs(r_far - 0.225) <= 0.03
        and abs(r_near - 0.173) <= 0.03
        and conserve <= 1e-9
    )
    report(
        "coating reflectance",
        ok,
        f"coated normal {r_coated:.3f} (0.10 +/- 0.03), bare {r_bare:.3f} "
        f"(0.57 +/- 0.04), angular span {r_far:.3f}->{r_near:.3f} "
        f"(0.225->0.173 +/- 0.03), max |R+T-1| {conserve:.1e}",
    )


def test_4_collection_efficiency():
    geom = DetectorGeometry()
    area = geom.active_area.effective_area()
    ce_center = efficiency_vs_offset(geom, [0.0])[0][0]
    with pytest.warns(ShadowingWarning, match="at offsets 80 um"):  # wall occlusion is not modeled
        ce_far = efficiency_vs_offset(geom, [80e-6])[0][0]
    filling = DetectorGeometry(active_area=aperture_filling_map(cell_size=0.25e-6))
    _, [ce_fill] = efficiency_vs_offset(filling, [0.0])  # no reflection loss
    ok = (
        abs(area * 1e12 - 60.0) / 60.0 <= 0.10
        and abs(ce_center - 0.0014) / 0.0014 <= 0.30
        and abs(ce_far - 0.0003) / 0.0003 <= 0.30
        and abs(ce_fill - 0.026) / 0.026 <= 0.20
    )
    report(
        "collection efficiency",
        ok,
        f"area {area * 1e12:.1f} um^2, centered {ce_center * 100:.4f}% "
        f"(0.14% +/- 30%), 80 um {ce_far * 100:.4f}% (0.03% +/- 30%), "
        f"aperture-filling {ce_fill * 100:.2f}% (2.6% +/- 20%)",
    )


def test_5_spot_test():
    scan = make_spot_scan(seed=4)
    area, amap = effective_area(scan)
    # normalization invariance: scaling all counts and the dark rate together
    # leaves the weight map unchanged
    from spadsim.estimation import SpotScan

    scaled = SpotScan(
        step=scan.step,
        counts=scan.counts * 3.0,
        dark_rate=scan.dark_rate * 3.0,
        dwell=scan.dwell,
    )
    area_scaled, amap_scaled = effective_area(scaled)
    invariant = np.allclose(amap.weights, amap_scaled.weights, atol=1e-12)
    ok = abs(area * 1e12 - 60.0) / 60.0 <= 0.10 and invariant
    report(
        "spot-test area",
        ok,
        f"effective area {area * 1e12:.2f} um^2 (60 +/- 10%), "
        f"normalization invariance {'exact' if invariant else 'violated'}",
    )


def test_6_qe_closure():
    qe_true = 0.24
    sc = Scenario(budget=table_budget(), rng_seed=1)
    offsets = np.arange(0.0, 81e-6, 5e-6)
    with pytest.warns(ShadowingWarning, match="at offsets 75, 80 um"):  # wall occlusion is not modeled
        expected = expected_incident_rates(sc, offsets)
    qe, err = fit_quantum_efficiency(expected, make_qe_dataset(sc, expected))
    ok = abs(qe - qe_true) <= 0.03
    report(
        "quantum-efficiency closure",
        ok,
        f"recovered qe {qe:.3f} +/- {err:.3f} (target 0.24 +/- 0.03)",
    )


def test_7_projection_scenario():
    fid, mean_time = projected_scenario_fidelity()
    ok = abs(fid - 0.9977) <= 0.001 and abs(mean_time - 75e-6) / 75e-6 <= 0.25
    report(
        "improved-device projection",
        ok,
        f"fidelity {fid:.4f} (0.9977 +/- 0.001) at mean time "
        f"{mean_time * 1e6:.1f} us (75 us +/- 25%)",
    )


def test_8_property_suite():
    from test_simulator import poisson_gof_pvalue

    # Poisson goodness of fit
    sc = Scenario(budget=RateBudget(dark_counts=5e3), trial_duration=20.0, rng_seed=12, dead_time=0.0)
    counts = gate_and_count(sc, False, 10e-3)
    p_gof = poisson_gof_pvalue(counts, 50.0)

    # dead-time rate formula
    rate, tau = 50e3, 1e-6
    sc_d = Scenario(budget=RateBudget(dark_counts=rate), trial_duration=20.0, rng_seed=9, dead_time=tau)
    observed = len(simulate_stream(sc_d, False)) / 20.0
    dead_err = abs(observed - rate / (1 + rate * tau)) / (rate / (1 + rate * tau))

    # determinism
    sc_r = Scenario(budget=table_budget(), trial_duration=2.0, rng_seed=42)
    deterministic = simulate_stream(sc_r, True).to_csv() == simulate_stream(sc_r, True).to_csv()

    # posterior permutation invariance
    rng = np.random.default_rng(2)
    cnts = rng.poisson(1.0, 100)

    def posterior(counts):
        llr = np.cumsum(_bin_log_likelihood_ratios(counts, 11_700.0, 6_900.0, 1e-4))[-1]
        return 1.0 / (1.0 + math.exp(-llr))

    p_base = posterior(cnts)
    p_perm = posterior(rng.permutation(cnts))
    perm_ok = math.isclose(p_base, p_perm, rel_tol=1e-9)

    # mean stopping time dominates the Wald bound at 3 sigma
    trials = 4000
    curve = fidelity_curve(Scenario(budget=table_budget(), rng_seed=55, dead_time=0.0), [0.99], trials)
    _, _, mean_time = curve.bayes[0]
    bound = sum(wald_bound(11_700.0, 6_900.0, 0.01)) / 2
    sem = mean_time / math.sqrt(2 * trials)  # conservative: std <= mean for stopping times
    wald_ok = mean_time - 3 * sem > bound

    ok = p_gof > 0.01 and dead_err <= 0.02 and deterministic and perm_ok and wald_ok
    report(
        "property suite",
        ok,
        f"Poisson GOF p={p_gof:.3f}, dead-time error {dead_err * 100:.2f}% (<= 2%), "
        f"deterministic={deterministic}, permutation-invariant={perm_ok}, "
        f"mean time {mean_time * 1e3:.2f} ms > Wald {bound * 1e3:.2f} ms at 3 sigma",
    )
