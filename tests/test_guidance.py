import math
import random

import pytest
from hypothesis import given, strategies as st

from triphase.detector import ideal_sine_voltage
from triphase.errors import InvalidParameterError
from triphase.geometry import (
    RFConfig,
    landing_point,
    phase_solution,
    receiver_points,
)
from triphase.guidance import (
    GuidanceConfig,
    Maneuver,
    ManeuverKind,
    SectorId,
    VoltageTriple,
    classify_sector,
    decide,
    trace_line,
)

from sector_oracle import expected_sector_from_azimuth

CFG = GuidanceConfig()


def kinds(maneuvers):
    return [m.kind for m in maneuvers]


class TestClassifySector:
    def test_sector_2b_snapshot(self):
        assert str(classify_sector(VoltageTriple(0.72, 0.53, -1.08))) == "2b"

    def test_sector_1a_snapshot(self):
        assert str(classify_sector(VoltageTriple(-0.38, 1.00, 0.69))) == "1a"

    def test_zenith_tie_goes_forward(self):
        assert str(classify_sector(VoltageTriple(0.0, 0.0, 0.0))) == "1a"

    @pytest.mark.parametrize("v,want", [((0.5, 0.0, 0.0), "3b"), ((0.5, 0.3, -0.3), "3b"),
                                        ((0.5, -0.3, 0.3), "3a")])
    def test_ties_go_to_sector_3_and_zero_counts_as_positive(self, v, want):
        # |v23| == |v31| is major 3, not 2; v23 == 0 reads as positive, so 3b
        assert str(classify_sector(VoltageTriple(*v))) == want

    def test_valid_sector_ids_only(self):
        with pytest.raises(InvalidParameterError):
            SectorId(4, "a")
        with pytest.raises(InvalidParameterError):
            SectorId(1, "c")


class TestDecide:
    def test_escape_left_snapshot(self):
        assert decide(VoltageTriple(0.72, 0.53, -1.08), CFG) == [
            Maneuver(ManeuverKind.YAW_LEFT, 60.0)]

    def test_tracking_right_forward_snapshot(self):
        assert decide(VoltageTriple(-0.38, 1.00, 0.69), CFG) == [
            Maneuver(ManeuverKind.ROTATE_RIGHT, 1.0), Maneuver(ManeuverKind.FORWARD, 1.0)]

    def test_hold_snapshot(self):
        assert kinds(decide(VoltageTriple(0.00, 0.01, -0.02), CFG)) == [ManeuverKind.HOLD]

    def test_sign_of_zero_is_positive(self):
        assert decide(VoltageTriple(0.00, 0.50, -0.51), CFG) == [
            Maneuver(ManeuverKind.ROTATE_LEFT, 1.0), Maneuver(ManeuverKind.FORWARD, 1.0)]

    def test_escape_right_for_sector_3(self):
        v = VoltageTriple(-0.5, 0.9, -0.2)  # |v31| smallest -> sector 3
        assert decide(v, CFG) == [Maneuver(ManeuverKind.YAW_RIGHT, 60.0)]

    def test_hold_dominates_and_is_singleton(self):
        v = VoltageTriple(0.019, -0.019, 0.019)
        out = decide(v, CFG)
        assert out == [Maneuver(ManeuverKind.HOLD)]

    def test_never_empty(self):
        rng = random.Random(5)
        for _ in range(300):
            v = VoltageTriple(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert len(decide(v, CFG)) >= 1

    @given(v=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
           steps=st.tuples(*[st.floats(0.0, exclude_min=True, allow_infinity=False)] * 3))
    def test_total_over_finite_voltages(self, v, steps):
        maneuvers = decide(VoltageTriple(*v), GuidanceConfig(*steps))
        assert len(maneuvers) >= 1
        assert all(isinstance(m, Maneuver) for m in maneuvers)

    def test_scale_invariance(self):
        rng = random.Random(6)
        for _ in range(300):
            v = VoltageTriple(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
            if v.max_abs <= CFG.hold_threshold_v:
                continue
            lam = rng.uniform(0.5, 20.0)
            scaled = VoltageTriple(lam * v.v12, lam * v.v23, lam * v.v31)
            if scaled.max_abs <= CFG.hold_threshold_v:
                continue
            assert classify_sector(scaled) == classify_sector(v)
            assert decide(scaled, CFG) == decide(v, CFG)


class TestExpectedSector:
    @pytest.mark.parametrize("phi,want", [
        (0.0, "1a"), (-35.0, "2b"), (180.0, "1b"), (120.0, "2a"),
        (-120.0, "3a"), (60.0, "3b"), (-179.0, "1b"), (45.0, "3b"),
    ])
    def test_known_azimuths(self, phi, want):
        assert str(expected_sector_from_azimuth(phi)) == want

    def test_escape_lands_in_sector_one(self):
        for phi in range(-180, 181):
            sector = expected_sector_from_azimuth(float(phi))
            if sector.major == 2:
                assert expected_sector_from_azimuth(phi + 60.0).major == 1
            elif sector.major == 3:
                assert expected_sector_from_azimuth(phi - 60.0).major == 1


class TestOracleAgreement:
    def test_classifier_matches_azimuth_sectors(self):
        # sign-faithful sine detector over the reference sweep geometry
        geom = receiver_points(7.0)
        rf = RFConfig(2.45e9)
        boundaries = (-150.0, -90.0, -30.0, 30.0, 90.0, 150.0)
        for tenth in range(-1800, 1801):
            phi = tenth / 10.0
            if any(abs(phi - b) <= 1.0 for b in boundaries):
                continue
            sol = phase_solution(geom, landing_point(10.0, phi, 100.0), rf)
            v = VoltageTriple(*(ideal_sine_voltage(t) for t in sol.phases))
            assert classify_sector(v) == expected_sector_from_azimuth(phi), f"phi={phi}"


class TestTraceLine:
    def test_escape_line(self):
        v = VoltageTriple(0.72, 0.53, -1.08)
        line = trace_line(v, classify_sector(v), decide(v, CFG))
        assert line == "0.72,0.53,-1.08,2b,YAWL60"

    def test_tracking_line(self):
        v = VoltageTriple(-0.38, 1.00, 0.69)
        line = trace_line(v, classify_sector(v), decide(v, CFG))
        assert line == "-0.38,1.00,0.69,1a,ROTR1;FWD1"


class TestValidation:
    def test_maneuver_magnitude_required(self):
        with pytest.raises(InvalidParameterError):
            Maneuver(ManeuverKind.FORWARD, None)
        with pytest.raises(InvalidParameterError):
            Maneuver(ManeuverKind.FORWARD, -1.0)
        with pytest.raises(InvalidParameterError):
            Maneuver(ManeuverKind.HOLD, 1.0)

    def test_config_positive(self):
        with pytest.raises(InvalidParameterError):
            GuidanceConfig(hold_threshold_v=0.0)

    def test_voltage_triple_finite(self):
        with pytest.raises(InvalidParameterError):
            VoltageTriple(math.inf, 0.0, 0.0)
