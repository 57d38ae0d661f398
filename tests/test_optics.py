import hashlib
import math
import re
import tracemalloc
import unittest.mock

import numpy as np
import pytest

from spadsim import optics
from spadsim.optics import (
    ActiveAreaMap,
    DetectorGeometry,
    OpticalStack,
    ShadowingWarning,
    _reflectance_rows,
    arc_stack,
    efficiency_vs_offset,
    quarter_disc_map,
    stack_reflectance,
)
from reference_optics import aperture_filling_map, reference_amplitude_coeffs

VERTICAL = 57e-6  # 50 um ion height + 7 um recess


def offset_angle(offset):
    return math.atan2(offset, VERTICAL)


class TestReflectance:
    def test_bare_silicon_normal_incidence(self):
        assert stack_reflectance(OpticalStack(), 0.0) == pytest.approx(0.57, abs=0.04)

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
        row = ("s", "p").index(pol)
        r = _reflectance_rows(stack, angle)[row]
        t = reference_amplitude_coeffs(stack, angle)[1][row]  # the package forms no transmittance
        assert r + t == pytest.approx(1.0, abs=1e-9)

    def test_s_and_p_coincide_at_normal_incidence(self):
        rs, rp = _reflectance_rows(arc_stack(), 0.0)
        assert rs == pytest.approx(rp, abs=1e-9)

    def test_reflectance_bounded(self):
        for stack in (arc_stack(), OpticalStack()):
            for angle in np.linspace(0, math.pi / 2 * 0.999, 50):
                for r in (*_reflectance_rows(stack, angle), stack_reflectance(stack, angle)):
                    assert 0.0 <= r <= 1.0

    def test_angle_out_of_range(self):
        with pytest.raises(ValueError):
            stack_reflectance(arc_stack(), -0.1)
        with pytest.raises(ValueError):
            stack_reflectance(arc_stack(), math.pi / 2)

    @pytest.mark.parametrize("stack", [arc_stack(), OpticalStack(ambient_index=1.5 + 0j)], ids=["coating", "bare"])
    def test_grazing_angle_refused(self, stack):
        # below pi/2, but its sine rounds to 1: the ambient's normal index is 0 and r would be 0/0
        angle = math.radians(89.9999999)
        assert angle < math.pi / 2 and math.sin(angle) == 1.0
        with pytest.raises(optics.GrazingAngleError, match=f"angle of incidence {angle!r} rad grazes the surface"):
            _reflectance_rows(stack, np.array([0.0, angle]))
        assert np.all(np.isfinite(stack_reflectance(stack, math.radians(89.999999))))

    def test_scalar_angle_equals_array_element(self):
        # absorbing layers under an ambient other than vacuum make every complex product in the transfer matrix count
        stack = OpticalStack(ambient_index=1.33 + 0j, layers=((80e-9, 2.0 + 0.3j), (40e-9, 1.5 + 0.1j)))
        angles = np.linspace(0.0, 1.5, 31)
        assert _reflectance_rows(stack, angles).T.tolist() == [_reflectance_rows(stack, a).tolist() for a in angles]
        assert stack_reflectance(stack, angles).tolist() == [stack_reflectance(stack, a) for a in angles]

    def test_stack_validation(self):
        with pytest.raises(ValueError):
            OpticalStack(layers=((0.0, 1.5 + 0j),))
        with pytest.raises(ValueError):
            OpticalStack(wavelength=0.0)
        with pytest.raises(ValueError):
            OpticalStack(substrate_index=2.0 - 0.5j)


NAN, INF = math.nan, math.inf


class TestNonFiniteOpticsInputs:
    # each optics value is checked where it comes in, so NaN or inf is a ValueError naming
    # the field and the value rather than a NaN reflectance or an error from a later step
    @pytest.mark.parametrize("kwargs, named", [
        ({"wavelength": NAN}, "wavelength must be > 0 and finite, got nan"),
        ({"wavelength": INF}, "wavelength must be > 0 and finite, got inf"),
        ({"layers": ((NAN, 2.1),)}, "layer 1 thickness must be > 0 and finite, got nan"),
        ({"layers": ((29e-9, 2.1), (INF, 1.47))}, "layer 2 thickness must be > 0 and finite, got inf"),
        ({"layers": ((29e-9, complex(NAN, 0.0)),)}, "layer 1 index must be finite with imaginary part >= 0, got (nan+0j)"),
        ({"layers": ((29e-9, complex(2.1, INF)),)}, "layer 1 index must be finite with imaginary part >= 0, got (2.1+infj)"),
        ({"substrate_index": complex(INF, 1.4)}, "substrate_index must be finite with imaginary part >= 0, got (inf+1.4j)"),
        ({"substrate_index": complex(6.9, NAN)}, "substrate_index must be finite with imaginary part >= 0, got (6.9+nanj)"),
        ({"ambient_index": NAN}, "ambient_index must be finite with imaginary part >= 0, got (nan+0j)"),
        # an index of real part 0 gave R = 1 (NaN in a layer), and a negative one the R of its opposite
        ({"layers": ((50e-9, 0j),)}, "layer 1 index must have real part > 0, got 0j"),
        ({"layers": ((29e-9, 2.1), (10e-9, -1.47))}, "layer 2 index must have real part > 0, got (-1.47+0j)"),
        ({"substrate_index": 0}, "substrate_index must have real part > 0, got 0j"),
        ({"substrate_index": complex(-6.9, 1.4)}, "substrate_index must have real part > 0, got (-6.9+1.4j)"),
        ({"ambient_index": -0.0}, "ambient_index must have real part > 0, got (-0+0j)"),
        # an absorbing incident medium has no power reflectance |r|^2: it used to be given that table
        ({"ambient_index": 1.33 + 0.01j}, "ambient_index must be real (a lossless incident medium), got (1.33+0.01j)"),
        ({"ambient_index": 1 + 1e-300j}, "ambient_index must be real (a lossless incident medium), got (1+1e-300j)"),
        # its square is 0, so every angle grazes: it used to be met as a bad angle of incidence
        ({"ambient_index": 1e-300}, "ambient_index must square to a number > 0, got 1e-300"),
        ({"ambient_index": 5e-324}, "ambient_index must square to a number > 0, got 5e-324"),
    ], ids=lambda v: next(iter(v)) if isinstance(v, dict) else v.split(" got ")[1])
    def test_stack_rejects(self, kwargs, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            OpticalStack(**kwargs)

    @pytest.mark.parametrize("field", ["ion_height_above_surface", "detector_recess_below_surface"])
    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    def test_geometry_rejects(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be finite, got {value}")):
            DetectorGeometry(**{field: value})

    # past 1 m the collection sum's squared distances overflow: refused, not met as a bad angle
    @pytest.mark.parametrize("field", ["ion_height_above_surface", "detector_recess_below_surface"])
    @pytest.mark.parametrize("value", [1.0, -1.0, 1e300])
    def test_geometry_rejects_a_height_of_1_m_or_more(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be below 1 m in magnitude, got {value}")):
            DetectorGeometry(**{field: value})
        assert DetectorGeometry(**{field: 0.999}).vertical_distance > 0

    @pytest.mark.parametrize("make, field", [
        (quarter_disc_map, "outer_radius"),
        (quarter_disc_map, "guard_width"),
        (quarter_disc_map, "cell_size"),
    ], ids=lambda v: v if isinstance(v, str) else v.__name__)
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_area_map_rejects(self, make, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be > 0 and finite, got {value}")):
            make(**{field: value})

    def test_guard_width_of_1_m_or_more_rejected(self):
        assert quarter_disc_map(guard_width=math.nextafter(1.0, 0)).weights.shape == (29, 29)
        for value in (1.0, 1e300):
            with pytest.raises(ValueError, match=re.escape(f"guard_width must be below 1 m, got {value}")):
                quarter_disc_map(guard_width=value)

    def test_area_map_grid_bounded_before_any_cell(self):
        # 512 cells a side at most; the default map has 29
        assert quarter_disc_map().weights.shape == (29, 29)
        assert quarter_disc_map(outer_radius=511e-6, cell_size=1e-6).weights.shape == (512, 512)
        with unittest.mock.patch.object(optics, "_cell_centers", side_effect=AssertionError("made a grid")):
            for kwargs, named in [
                ({"outer_radius": 511.5e-6, "cell_size": 1e-6}, "513 cells a side, more than the limit of 512"),
                ({"cell_size": 1e-10}, "110001 cells a side"),
                ({"outer_radius": 1.0}, "2.5e+06 cells a side"),
                ({"outer_radius": 1e300, "cell_size": 1e-300}, "inf cells a side"),
            ]:
                with pytest.raises(ValueError, match=re.escape(named)):
                    quarter_disc_map(**kwargs)


class TestActiveAreaMap:
    def test_quarter_disc_effective_area(self):
        amap = quarter_disc_map()
        assert amap.effective_area() * 1e12 == pytest.approx(60.0, rel=0.02)

    def test_weight_bounds_enforced(self):
        with pytest.raises(ValueError):
            ActiveAreaMap(cell_size=1e-6, origin=(0, 0), weights=np.array([[1.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_named(self, bad):
        # a NaN weight used to pass and make effective_area() nan
        weights = np.ones((2, 3))
        weights[1, 2] = bad
        with pytest.raises(ValueError, match=f"weights must lie in \\[0, 1\\], got {bad} in grid row 2, column 3"):
            ActiveAreaMap(cell_size=1e-6, origin=(0, 0), weights=weights)

    @pytest.mark.parametrize("cell_size, origin", [
        (math.nan, (0.0, 0.0)), (math.inf, (0.0, 0.0)), (1e-6, (math.nan, 0.0)), (1e-6, (0.0, -math.inf)),
    ])
    def test_non_finite_cell_size_or_origin_rejected(self, cell_size, origin):
        with pytest.raises(ValueError, match=f"must be finite .*got {cell_size}, \\({origin[0]}, {origin[1]}\\)"):
            ActiveAreaMap(cell_size=cell_size, origin=origin, weights=np.ones((2, 2)))

    # past 1 m from (0, 0) the collection sum's squared distances overflow
    @pytest.mark.parametrize("cell_size, origin, shape, reach", [
        (1e298, (0.0, 0.0), (2, 2), "2e+298"), (0.25, (0.0, 0.0), (1, 4), "1"), (1e-6, (-0.999999, 0.0), (3, 3), "1"),
    ])
    def test_grid_reaching_1m_rejected(self, cell_size, origin, shape, reach):
        named = f"the grid must lie within 1 m of (0, 0), got cells reaching {reach} m"
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            ActiveAreaMap(cell_size=cell_size, origin=origin, weights=np.ones(shape))

    def test_default_geometry_shares_one_read_only_map(self):
        # built once per process: every default geometry holds the same map, which no holder can change
        first, second = DetectorGeometry().active_area, DetectorGeometry().active_area
        assert first is second
        assert not first.weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first.weights[0, 0] = 0.5
        fresh = quarter_disc_map()  # with or without arguments, quarter_disc_map makes a new map
        assert fresh is not quarter_disc_map() and fresh.weights.flags.writeable
        assert np.array_equal(fresh.weights, first.weights)
        assert (fresh.cell_size, fresh.origin) == (first.cell_size, first.origin)

    def test_csv_round_trip(self):
        amap = quarter_disc_map(cell_size=1e-6)
        back = ActiveAreaMap.from_csv(amap.to_csv())
        assert back.cell_size == pytest.approx(amap.cell_size)
        assert back.origin == pytest.approx(amap.origin)
        np.testing.assert_allclose(back.weights, amap.weights, atol=1e-6)

    def test_csv_missing_header(self):
        with pytest.raises(ValueError):
            ActiveAreaMap.from_csv("1.0,0.5\n0.5,0.0\n")


def single_cell_geometry(weight=1.0, distance=57e-6, cell=1e-6):
    amap = ActiveAreaMap(cell_size=cell, origin=(-cell / 2, -cell / 2), weights=np.array([[weight]]))
    return DetectorGeometry(
        ion_height_above_surface=distance,
        detector_recess_below_surface=0.0,
        active_area=amap,
    )


class TestCollectionEfficiency:
    def test_centered_reference_value(self):
        ce = efficiency_vs_offset(DetectorGeometry(), [0.0])[0][0]
        assert ce == pytest.approx(0.0014, rel=0.30)

    def test_offset_80um_reference_value(self):
        with pytest.warns(ShadowingWarning, match="at offsets 80 um"):
            ce = efficiency_vs_offset(DetectorGeometry(), [80e-6])[0][0]
        assert ce == pytest.approx(0.0003, rel=0.30)

    def test_aperture_filling_detector(self):
        geom = DetectorGeometry(active_area=aperture_filling_map(cell_size=0.25e-6))
        [ce_arc], [ce_geo] = efficiency_vs_offset(geom, [0.0])
        assert ce_geo == pytest.approx(0.026, rel=0.20)
        assert ce_arc < ce_geo

    def test_point_like_cell_closed_form(self):
        d = 57e-6
        cell = 0.05e-6  # area/d^2 tiny so the single-cell sum is the closed form
        geom = single_cell_geometry(weight=0.7, distance=d, cell=cell)
        expected = 0.7 * cell**2 * (1 - stack_reflectance(arc_stack(), 0.0)) / (4 * math.pi * d**2)
        assert efficiency_vs_offset(geom, [0.0])[0][0] == pytest.approx(expected, rel=1e-6)

    def test_inverse_square_scaling(self):
        ce1 = efficiency_vs_offset(single_cell_geometry(distance=50e-6, cell=0.5e-6), [0.0])[0][0]
        ce2 = efficiency_vs_offset(single_cell_geometry(distance=100e-6, cell=0.5e-6), [0.0])[0][0]
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
        g1 = DetectorGeometry(active_area=base)
        g2 = DetectorGeometry(active_area=shifted)
        with pytest.warns(ShadowingWarning, match="at offsets 30 um"):  # the aperture stays put
            ce2 = efficiency_vs_offset(g2, [30e-6])[0][0]
        assert efficiency_vs_offset(g1, [30e-6])[0][0] == pytest.approx(ce2, rel=1e-12)

    def test_grid_refinement_converged(self):
        coarse = DetectorGeometry(active_area=quarter_disc_map(cell_size=0.4e-6))
        fine = DetectorGeometry(active_area=quarter_disc_map(cell_size=0.2e-6))
        ce_c = efficiency_vs_offset(coarse, [0.0])[0][0]
        ce_f = efficiency_vs_offset(fine, [0.0])[0][0]
        assert abs(ce_c - ce_f) / ce_f < 0.005

    def test_zero_area_rejected(self):
        amap = ActiveAreaMap(cell_size=1e-6, origin=(0, 0), weights=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            geom = DetectorGeometry(active_area=amap)
            efficiency_vs_offset(geom, [0.0])

    def test_dipole_pattern_differs(self):
        iso = DetectorGeometry()
        dip = DetectorGeometry(emission_pattern="dipole_perpendicular")
        ce_iso = efficiency_vs_offset(iso, [40e-6])[0][0]
        ce_dip = efficiency_vs_offset(dip, [40e-6])[0][0]
        assert ce_dip != pytest.approx(ce_iso, rel=1e-3)

    def test_shadowing_warning(self):
        with pytest.warns(ShadowingWarning, match="at offsets 120 um"):
            efficiency_vs_offset(DetectorGeometry(), [120e-6])

    def test_no_shadowing_when_centered(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", ShadowingWarning)
            efficiency_vs_offset(DetectorGeometry(), [0.0])


class TestEfficiencyVsOffset:
    def test_matches_elementwise_and_order(self):
        geom = DetectorGeometry()
        with pytest.warns(ShadowingWarning, match="at offsets 80 um"):
            ces, ces_no_reflection = efficiency_vs_offset(geom, [80e-6, 0.0])
        for column in (ces, ces_no_reflection):
            assert isinstance(column, np.ndarray) and column.shape == (2,)
        assert np.all(ces < ces_no_reflection)
        assert ces[0] == pytest.approx(0.0003, rel=0.30)
        assert ces[1] == pytest.approx(0.0014, rel=0.30)

    def test_single_offset(self):
        # one offset on its own gives its element of a longer sweep to the bit
        geom = DetectorGeometry()
        ces, _ = efficiency_vs_offset(geom, [0.0, 25e-6, 50e-6])
        assert ces[1] == efficiency_vs_offset(geom, [25e-6])[0][0]

    def test_monotone_descending_offsets(self):
        # dense sweep as the monotonicity oracle
        geom = DetectorGeometry()
        offsets = np.linspace(100e-6, 0.0, 41)
        with pytest.warns(ShadowingWarning) as record:
            ces, _ = efficiency_vs_offset(geom, offsets)
        assert np.all(np.diff(ces) > 0)
        assert len(record) == 1  # one warning for the whole sweep

    def test_shadowing_names_offsets_in_input_order(self):
        geom = DetectorGeometry()
        with pytest.warns(ShadowingWarning) as record:
            efficiency_vs_offset(geom, [80e-6, 0.0, 75e-6, 70e-6, -200e-6, 80e-6])
        [warning] = record
        assert "at offsets 80, 75, -200, 80 um;" in str(warning.message)
        assert warning.filename == __file__  # attributed to the caller's line

    # both arrays of the 17-offset sweep, as qefit --demo (np.arange) and collection's
    # default 0:80:5 range build the offsets, pinned to the bit
    @pytest.mark.parametrize("offsets, digests", [
        (np.arange(0.0, 81e-6, 5e-6), ("1297c88bc8150dbfee32791b97a44c5f153effa4628fc376c1190d9397e117a5",
                                       "a9de71d7f4ef12dd030761352385d1ec0c2658e47f66c4b109937403d0506b1f")),
        ([(0.0 + i * 5.0) * 1e-6 for i in range(17)],
         ("06a76832f2a6fe96c454d36ce35e1dc82607128568702b597f68738460dbde04",
          "a15faba9f6e12385a96860e67e73853d317e05568f8cfd548999919d008c335a")),
    ], ids=["arange", "range-spec"])
    def test_fixed_sweep_is_pinned(self, offsets, digests):
        with pytest.warns(ShadowingWarning, match="at offsets 75, 80 um"):
            arrays = efficiency_vs_offset(DetectorGeometry(), offsets)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == digests

    # both arrays of a 401-offset sweep, several geometry blocks long, on each emission pattern
    @pytest.mark.parametrize("pattern, digests", [
        ("isotropic", ("c9f98fceef529090521ec1b31a57446b31a7efd8a2bc940be12c169524cc5197",
                       "0c284b8e8a463fb57c0da06bf00aea45f34ef8567fabe15609c4ecbe440f9974")),
        ("dipole_perpendicular", ("609a55035914c63663da50f46db6ed7568becb192d008c551f247b86c15fb7e6",
                                  "6d2d94fb3d7e35b552ad9e7bb8196b315ce2b6602e5cf7af34935865b80205f7")),
    ])
    def test_long_sweep_is_pinned(self, pattern, digests):
        offsets = np.linspace(-100e-6, 100e-6, 401)
        assert offsets.size * DetectorGeometry().active_area.weights.size > 4 * optics._SWEEP_CELLS
        with pytest.warns(ShadowingWarning, match="at offsets 73, 73.5, "):
            arrays = efficiency_vs_offset(DetectorGeometry(emission_pattern=pattern), offsets)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == digests

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1e300])
    def test_offset_of_1_m_or_more_rejected(self, bad):
        # past MAX_HEIGHT the squared distances overflow; refused before any sweep array is made
        geometry = DetectorGeometry()
        with unittest.mock.patch.object(optics, "_cell_centers", side_effect=AssertionError("made a grid")):
            with pytest.raises(ValueError, match=re.escape(f"offsets must be below 1 m in magnitude, got {bad:g} m "
                                                           "at point 2")):
                efficiency_vs_offset(geometry, [0.0, bad])

    def test_grazing_geometry_refused(self):
        # a vertical distance of about 1e-17 m: every line of sight grazes the detector plane
        geometry = DetectorGeometry(detector_recess_below_surface=-49.99999999999e-6)
        with pytest.raises(optics.GrazingAngleError, match="grazes the surface"):
            efficiency_vs_offset(geometry, [0.0])

    def test_peak_memory_independent_of_offset_count(self):
        geometry = DetectorGeometry()
        efficiency_vs_offset(geometry, [0.0])  # lazy set-up outside the measurement

        def peak(n):
            tracemalloc.start()
            try:
                efficiency_vs_offset(geometry, np.linspace(-20e-6, 20e-6, n))  # none shadowed
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4000) <= 1.5 * peak(40)

    def test_empty_offsets_rejected(self):
        with pytest.raises(ValueError):
            efficiency_vs_offset(DetectorGeometry(), [])

    def test_reflectance_only_at_weighted_cells(self):
        # the default quarter disc has 587 of its 841 cells weighted; the other 254 add
        # an exact 0 whatever R is, so the 17 offsets of 0:80:5 need 17 x 587 angles
        geom = DetectorGeometry()
        assert (geom.active_area.weights.size, np.count_nonzero(geom.active_area.weights)) == (841, 587)
        angles = []

        def counted(stack, theta):
            angles.append(np.size(theta))
            return stack_reflectance(stack, theta)

        with unittest.mock.patch.object(optics, "stack_reflectance", counted):
            with pytest.warns(ShadowingWarning, match="at offsets 75, 80 um"):
                efficiency_vs_offset(geom, np.arange(0.0, 81e-6, 5e-6))
        assert sum(angles) == 17 * 587

    @pytest.mark.parametrize("with_shadowed", [True, False])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_named(self, with_shadowed, bad):
        # with no reflection loss NaN used to give nan and inf 0.0; through the coating the
        # angle check fired and named neither the offset nor its point. The offsets are
        # checked before the sweep, so a shadowed one after the bad one warns nothing
        # (pyproject.toml turns a ShadowingWarning into an error)
        offsets = [0.0, bad, 80e-6 if with_shadowed else 1e-6]
        with pytest.raises(ValueError, match=f"offsets must be finite, got {bad:g} m at point 2"):
            efficiency_vs_offset(DetectorGeometry(), offsets)
