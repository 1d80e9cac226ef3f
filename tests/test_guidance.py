import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from triphase import guidance
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
    tracking_maneuvers,
)

import sector_oracle as oracle
from sector_oracle import expected_sector_from_azimuth, phases

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

    @pytest.mark.parametrize("v31", [0.5, -0.5])
    def test_zero_v12_and_v23_both_count_as_positive(self, v31):
        # v12 and v23 agree in sign, so rotate left; v23 reads as positive, so forward
        assert decide(VoltageTriple(0.0, 0.0, v31), CFG) == [
            Maneuver(ManeuverKind.ROTATE_LEFT, 1.0), Maneuver(ManeuverKind.FORWARD, 1.0)]

    def test_escape_right_for_sector_3(self):
        v = VoltageTriple(-0.5, 0.9, -0.2)  # |v31| smallest -> sector 3
        assert decide(v, CFG) == [Maneuver(ManeuverKind.YAW_RIGHT, 60.0)]

    def test_hold_dominates_and_is_singleton(self):
        v = VoltageTriple(0.019, -0.019, 0.019)
        out = decide(v, CFG)
        assert out == [Maneuver(ManeuverKind.HOLD)]

    def test_without_a_config_the_maneuvers_are_shared(self):
        # the default config and its maneuvers are built once, not on every call
        v = VoltageTriple(0.01, 0.5, -0.3)
        assert decide(v)[0] is decide(v)[0]
        assert decide(v) == decide(v, CFG)

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


def ulp_step(x, steps):
    """x moved `steps` ulps up (> 0) or down (< 0)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def guidance_cases(draw):
    """A config and a voltage triple rich in the rule's edge cases: ties between pairs, +-0.0,
    +-threshold and the one-ulp neighbours of each."""
    thr = draw(st.sampled_from([0.02, 0.5, 1e-6]) | st.floats(1e-9, 10.0))
    steps = draw(st.sampled_from([1.0, 2.5]))
    cfg = GuidanceConfig(hold_threshold_v=thr, rotate_step_deg=steps, move_step_cm=steps)
    value = st.sampled_from([0.0, thr]) | st.floats(-2.0, 2.0) | st.floats(-1e300, 1e300)
    values = draw(st.tuples(value, value, value))
    picks = draw(st.tuples(*[st.integers(0, 2)] * 3))  # a pair may take another's value: a tie
    signs = draw(st.tuples(*[st.sampled_from([1.0, -1.0])] * 3))  # -1.0 * 0.0 is -0.0
    ulps = draw(st.tuples(*[st.integers(-1, 1)] * 3))
    return cfg, VoltageTriple(*(ulp_step(sign * values[pick], n)
                                for pick, sign, n in zip(picks, signs, ulps)))


#: a previous row's maneuvers -> its escape, as sector_oracle.escape_of reads it
PREVIOUS = {(Maneuver(ManeuverKind.YAW_LEFT, 60.0),): -1, (Maneuver(ManeuverKind.HOLD),): 0,
            (Maneuver(ManeuverKind.ROTATE_LEFT, 1.0), Maneuver(ManeuverKind.FORWARD, 1.0)): 0,
            (Maneuver(ManeuverKind.YAW_RIGHT, 60.0),): 1}


class TestOracleRule:
    @settings(max_examples=500)
    @given(case=guidance_cases(), last=st.sampled_from(list(PREVIOUS)))
    def test_decide_and_classify_sector_read_as_the_written_out_rule(self, case, last):
        cfg, v = case
        assert classify_sector(v) == oracle.classify_sector(v)
        assert decide(v, cfg) == oracle.decide(v, cfg)
        assert tracking_maneuvers(v, cfg) == oracle.tracking_maneuvers(v, cfg)
        # the loop's rule on the exact voltages, after each kind of previous row
        exact = [(x, x) for x in v.as_tuple]
        assert guidance._rule(cfg, *exact, last) == oracle.guided(v, cfg, PREVIOUS[last])

    @pytest.mark.parametrize("j", [0, 1, 2], ids=["v12", "v23", "v31"])
    def test_a_pair_with_nan_bounds_leaves_the_cycle_undecided(self, j):
        # a phase sensing would raise for: whatever the other pairs read, v12 = 0 included, which
        # alone makes sector 1, the rule decides nothing, so the cycle is sensed and aborts
        for others in ((0.0, 0.5), (0.0, -0.5), (0.5, 0.0), (-0.0, 0.01), (0.9, -0.3)):
            intervals = [(x, x) for x in others]
            intervals.insert(j, (math.nan, math.nan))
            assert guidance._sector(*(x for pair in intervals for x in pair)) is None
            for last in PREVIOUS:
                assert guidance._rule(CFG, *intervals, last) is None


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
            v = VoltageTriple(*(ideal_sine_voltage(t) for t in phases(sol)))
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
