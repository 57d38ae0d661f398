import math

import numpy as np
import pytest

from spadsim.optics import (
    ActiveAreaMap,
    DetectorGeometry,
    OpticalStack,
    ShadowingWarning,
    aperture_filling_map,
    arc_stack,
    bare_silicon_stack,
    collection_efficiency,
    efficiency_vs_offset,
    quarter_disc_map,
    stack_reflectance,
    stack_transmittance,
)

VERTICAL = 57e-6  # 50 um ion height + 7 um recess


def offset_angle(offset):
    return math.atan2(offset, VERTICAL)


class TestReflectance:
    def test_bare_silicon_normal_incidence(self):
        assert stack_reflectance(bare_silicon_stack(), 0.0) == pytest.approx(0.57, abs=0.04)

    def test_coated_normal_incidence(self):
        assert stack_reflectance(arc_stack(), 0.0) == pytest.approx(0.10, abs=0.03)

    def test_shuttling_angular_range(self):
        # lateral offsets 80 um down to 50 um at the 57 um vertical distance
        r_far = stack_reflectance(arc_stack(), offset_angle(80e-6))
        r_near = stack_reflectance(arc_stack(), offset_angle(50e-6))
        assert r_far == pytest.approx(0.225, abs=0.03)
        assert r_near == pytest.approx(0.173, abs=0.03)
        assert r_far > r_near

    @pytest.mark.parametrize("pol", ["s", "p"])
    @pytest.mark.parametrize("angle", [0.0, 0.3, 0.8, 1.2])
    def test_energy_conservation_lossless(self, pol, angle):
        stack = OpticalStack(
            layers=((120e-9, 1.8 + 0j), (60e-9, 2.3 + 0j)),
            substrate_index=1.5 + 0j,
        )
        r = stack_reflectance(stack, angle, pol)
        t = stack_transmittance(stack, angle, pol)
        assert r + t == pytest.approx(1.0, abs=1e-9)

    def test_s_and_p_coincide_at_normal_incidence(self):
        rs = stack_reflectance(arc_stack(), 0.0, "s")
        rp = stack_reflectance(arc_stack(), 0.0, "p")
        assert rs == pytest.approx(rp, abs=1e-9)

    def test_reflectance_bounded(self):
        for stack in (arc_stack(), bare_silicon_stack()):
            for angle in np.linspace(0, math.pi / 2 * 0.999, 50):
                for pol in ("s", "p", "unpolarized"):
                    r = stack_reflectance(stack, angle, pol)
                    assert 0.0 <= r <= 1.0

    def test_angle_out_of_range(self):
        with pytest.raises(ValueError):
            stack_reflectance(arc_stack(), -0.1)
        with pytest.raises(ValueError):
            stack_reflectance(arc_stack(), math.pi / 2)

    def test_scalar_angle_equals_array_element(self):
        # a complex ambient index makes every complex product in the transfer matrix count
        stack = OpticalStack(ambient_index=1.33 + 0.01j, layers=((80e-9, 2.0 + 0.3j), (40e-9, 1.5 + 0.1j)))
        angles = np.linspace(0.0, 1.5, 31)
        for f in (stack_reflectance, stack_transmittance):
            for pol in ("s", "p", "unpolarized"):
                assert f(stack, angles, pol).tolist() == [f(stack, a, pol) for a in angles]

    def test_bad_polarization(self):
        with pytest.raises(ValueError):
            stack_reflectance(arc_stack(), 0.0, "circular")

    def test_transmittance_bad_polarization(self):
        with pytest.raises(ValueError, match="unknown polarization 'circular'"):
            stack_transmittance(arc_stack(), 0.3, "circular")

    def test_stack_validation(self):
        with pytest.raises(ValueError):
            OpticalStack(layers=((0.0, 1.5 + 0j),))
        with pytest.raises(ValueError):
            OpticalStack(wavelength=0.0)
        with pytest.raises(ValueError):
            OpticalStack(substrate_index=2.0 - 0.5j)


class TestActiveAreaMap:
    def test_quarter_disc_effective_area(self):
        amap = quarter_disc_map()
        assert amap.effective_area() * 1e12 == pytest.approx(60.0, rel=0.02)

    def test_weight_bounds_enforced(self):
        with pytest.raises(ValueError):
            ActiveAreaMap(cell_size=1e-6, origin=(0, 0), weights=np.array([[1.5]]))

    def test_csv_round_trip(self):
        amap = quarter_disc_map(cell_size=1e-6)
        back = ActiveAreaMap.from_csv(amap.to_csv())
        assert back.cell_size == pytest.approx(amap.cell_size)
        assert back.origin == pytest.approx(amap.origin)
        np.testing.assert_allclose(back.weights, amap.weights, atol=1e-6)

    def test_csv_missing_header(self):
        with pytest.raises(ValueError):
            ActiveAreaMap.from_csv("1.0,0.5\n0.5,0.0\n")


def single_cell_geometry(weight=1.0, distance=57e-6, cell=1e-6, offset=0.0):
    amap = ActiveAreaMap(cell_size=cell, origin=(-cell / 2, -cell / 2), weights=np.array([[weight]]))
    return DetectorGeometry(
        ion_lateral_offset=offset,
        ion_height_above_surface=distance,
        detector_recess_below_surface=0.0,
        active_area=amap,
    )


class TestCollectionEfficiency:
    def test_centered_reference_value(self):
        geom = DetectorGeometry(ion_lateral_offset=0.0)
        ce = collection_efficiency(geom)
        assert ce == pytest.approx(0.0014, rel=0.30)

    def test_offset_80um_reference_value(self):
        geom = DetectorGeometry(ion_lateral_offset=80e-6)
        with pytest.warns(ShadowingWarning, match="at offsets 80 um"):
            ce = collection_efficiency(geom)
        assert ce == pytest.approx(0.0003, rel=0.30)

    def test_aperture_filling_detector(self):
        geom = DetectorGeometry(
            ion_lateral_offset=0.0, active_area=aperture_filling_map(cell_size=0.25e-6)
        )
        ce_geo = collection_efficiency(geom, include_arc=False)
        assert ce_geo == pytest.approx(0.026, rel=0.20)
        ce_arc = collection_efficiency(geom)
        assert ce_arc < ce_geo

    def test_point_like_cell_closed_form(self):
        d = 57e-6
        cell = 0.05e-6  # area/d^2 tiny so the single-cell sum is the closed form
        geom = single_cell_geometry(weight=0.7, distance=d, cell=cell)
        expected = 0.7 * cell**2 * (1 - stack_reflectance(arc_stack(), 0.0)) / (4 * math.pi * d**2)
        assert collection_efficiency(geom) == pytest.approx(expected, rel=1e-6)

    def test_inverse_square_scaling(self):
        ce1 = collection_efficiency(single_cell_geometry(distance=50e-6, cell=0.5e-6))
        ce2 = collection_efficiency(single_cell_geometry(distance=100e-6, cell=0.5e-6))
        assert ce1 / ce2 == pytest.approx(4.0, rel=0.01)

    def test_translation_invariance(self):
        # rigid shift of the active area moves the centroid with it, so the same
        # lateral offset yields the same efficiency
        base = quarter_disc_map()
        shifted = ActiveAreaMap(
            cell_size=base.cell_size,
            origin=(base.origin[0] + 13e-6, base.origin[1] - 4e-6),
            weights=base.weights,
        )
        g1 = DetectorGeometry(ion_lateral_offset=30e-6, active_area=base)
        g2 = DetectorGeometry(ion_lateral_offset=30e-6, active_area=shifted)
        with pytest.warns(ShadowingWarning, match="at offsets 30 um"):  # the aperture stays put
            ce2 = collection_efficiency(g2)
        assert collection_efficiency(g1) == pytest.approx(ce2, rel=1e-12)

    def test_grid_refinement_converged(self):
        coarse = DetectorGeometry(ion_lateral_offset=0.0, active_area=quarter_disc_map(cell_size=0.4e-6))
        fine = DetectorGeometry(ion_lateral_offset=0.0, active_area=quarter_disc_map(cell_size=0.2e-6))
        ce_c = collection_efficiency(coarse)
        ce_f = collection_efficiency(fine)
        assert abs(ce_c - ce_f) / ce_f < 0.005

    def test_zero_area_rejected(self):
        amap = ActiveAreaMap(cell_size=1e-6, origin=(0, 0), weights=np.zeros((3, 3)))
        geom = DetectorGeometry(active_area=amap)
        with pytest.raises(ValueError):
            collection_efficiency(geom)

    def test_dipole_pattern_differs(self):
        iso = DetectorGeometry(ion_lateral_offset=40e-6)
        dip = DetectorGeometry(ion_lateral_offset=40e-6, emission_pattern="dipole_perpendicular")
        ce_iso = collection_efficiency(iso)
        ce_dip = collection_efficiency(dip)
        assert ce_dip != pytest.approx(ce_iso, rel=1e-3)

    def test_shadowing_warning(self):
        geom = DetectorGeometry(ion_lateral_offset=120e-6)
        with pytest.warns(ShadowingWarning, match="at offsets 120 um"):
            collection_efficiency(geom)

    def test_no_shadowing_when_centered(self):
        import warnings

        geom = DetectorGeometry(ion_lateral_offset=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShadowingWarning)
            collection_efficiency(geom)


class TestEfficiencyVsOffset:
    def test_matches_elementwise_and_order(self):
        geom = DetectorGeometry()
        with pytest.warns(ShadowingWarning, match="at offsets 80 um"):
            ces = efficiency_vs_offset(geom, [80e-6, 0.0])
        assert isinstance(ces, np.ndarray) and ces.shape == (2,)
        assert ces[0] == pytest.approx(0.0003, rel=0.30)
        assert ces[1] == pytest.approx(0.0014, rel=0.30)

    def test_single_offset(self):
        geom = DetectorGeometry()
        [ce] = efficiency_vs_offset(geom, [25e-6])
        assert ce == collection_efficiency(geom.with_offset(25e-6))

    def test_monotone_descending_offsets(self):
        # dense sweep as the monotonicity oracle
        geom = DetectorGeometry()
        offsets = np.linspace(100e-6, 0.0, 41)
        with pytest.warns(ShadowingWarning) as record:
            ces = efficiency_vs_offset(geom, offsets)
        assert np.all(np.diff(ces) > 0)
        assert len(record) == 1  # one warning for the whole sweep

    def test_shadowing_names_offsets_in_input_order(self):
        geom = DetectorGeometry()
        with pytest.warns(ShadowingWarning) as record:
            efficiency_vs_offset(geom, [80e-6, 0.0, 75e-6, 70e-6, -200e-6, 80e-6])
        [warning] = record
        assert "at offsets 80, 75, -200, 80 um;" in str(warning.message)
        assert warning.filename == __file__  # attributed to the caller's line

    def test_empty_offsets_rejected(self):
        with pytest.raises(ValueError):
            efficiency_vs_offset(DetectorGeometry(), [])
