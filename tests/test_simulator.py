import collections
import dataclasses
import io
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from triphase import simulator
from triphase.detector import (
    CALIBRATED_RANGE_DEG,
    TABLE2_D12,
    builtin_profile_set,
    centered_voltage,
    voltage_from_phase,
)
from triphase.errors import InvalidParameterError, PhaseAmbiguityError, TriphaseError
from triphase.geometry import (
    RFConfig,
    Vector3,
    landing_point,
    nonambiguous_range,
    phase_solution,
    receiver_points,
)
from triphase.guidance import (
    GuidanceConfig,
    Maneuver,
    ManeuverKind,
    VoltageTriple,
    classify_sector,
    decide,
    tracking_maneuvers,
)
from triphase.simulator import (
    DETECTOR_MODES,
    DroneState,
    SimConfig,
    SimulationResult,
    TrajectoryRecord,
    apply_maneuver,
    landing_body_frame,
    sense,
    simulate_landing,
    worst_case_transect,
    write_trajectory_csv,
)

from sector_oracle import wrap_angle_deg

GEOM = receiver_points(7.0)
RF = RFConfig(2.46e9)
PROFILES = builtin_profile_set()
GCFG = GuidanceConfig()
SCFG = SimConfig()


def ground_point(r_cm, phi_deg):
    p = landing_point(r_cm, phi_deg, 1.0)
    return Vector3(p.x, p.y, 0.0)


def fig14_start():
    return DroneState(Vector3(0.0, 0.0, 300.0), 0.0)


def reference_sense(state, landing, geom, rf, profiles=None, mode="calibrated"):
    """Sensing with one branch and loop per detector mode, and the sine and
    triangular formulas written out at their unit gain and 10 mV/deg slope."""
    if mode not in ("calibrated", "ideal-sine", "triangular"):
        raise InvalidParameterError(f"unknown detector mode {mode!r}")
    sol = phase_solution(geom, landing_body_frame(state, landing), rf)
    wrapped = {pair: wrap_angle_deg(th)
               for pair, th in zip(("d12", "d23", "d31"), sol.phases)}

    if mode == "calibrated":
        if profiles is None:
            raise InvalidParameterError("calibrated mode requires calibration profiles")
        for pair in wrapped:
            if profiles[pair].frequency_hz != rf.frequency_hz:
                raise InvalidParameterError(
                    f"profile {pair} and rf disagree on frequency: "
                    f"{profiles[pair].frequency_hz} Hz vs {rf.frequency_hz} Hz")
        out = []
        for pair, theta in wrapped.items():
            if abs(theta) > CALIBRATED_RANGE_DEG:
                raise PhaseAmbiguityError(pair, theta)
            poly = profiles[pair]
            out.append(centered_voltage(voltage_from_phase(poly, theta), poly))
        return VoltageTriple(*out)

    for pair, theta in wrapped.items():
        if abs(theta) > 90.0:
            raise PhaseAmbiguityError(pair, theta)
    if mode == "ideal-sine":
        return VoltageTriple(*(1.0 * math.sin(math.radians(wrap_angle_deg(t)))
                               for t in wrapped.values()))
    return VoltageTriple(*(10.0 * t / 1000.0 for t in wrapped.values()))


def at_frequency(profiles, frequency_hz):
    """The profiles with their frequency set to `frequency_hz`."""
    return {pair: dataclasses.replace(poly, frequency_hz=frequency_hz)
            for pair, poly in profiles.items()}


def hex_or_error(fn, *args):
    try:
        v = fn(*args)
    except TriphaseError as exc:
        return type(exc), str(exc)
    return v.v12.hex(), v.v23.hex(), v.v31.hex()


def reference_apply_maneuver(state, m):
    """One maneuver as a new DroneState, which rewraps the heading every time."""
    kind = m.kind
    if kind is ManeuverKind.HOLD:
        return state
    if kind in (ManeuverKind.YAW_LEFT, ManeuverKind.ROTATE_LEFT):
        return DroneState(state.position, state.heading_deg - m.magnitude)
    if kind in (ManeuverKind.YAW_RIGHT, ManeuverKind.ROTATE_RIGHT):
        return DroneState(state.position, state.heading_deg + m.magnitude)
    h = math.radians(state.heading_deg)
    step = m.magnitude if kind is ManeuverKind.FORWARD else -m.magnitude
    pos = Vector3(state.position.x + step * math.sin(h),
                  state.position.y + step * math.cos(h),
                  state.position.z)
    return DroneState(pos, state.heading_deg)


def reference_simulate_landing(start, landing, geom, rf, profiles, gcfg, scfg):
    """The landing loop on pose objects: a DroneState after every maneuver and descent."""
    if landing.z > scfg.min_height_cm:
        raise InvalidParameterError(f"landing z must be <= min_height_cm, got {landing.z}")
    state = start
    records = []
    first_hold = None
    last_escape = 0
    touchdown = aborted = False
    diagnostic = None
    for iteration in range(scfg.max_iterations):
        if state.position.z <= scfg.min_height_cm:
            touchdown = True
            break
        try:
            volts = reference_sense(state, landing, geom, rf, profiles, scfg.detector_mode)
        except PhaseAmbiguityError as exc:
            aborted = True
            diagnostic = f"iteration {iteration}: {exc}"
            break
        maneuvers = decide(volts, gcfg)
        escape = 0
        if len(maneuvers) == 1 and maneuvers[0].kind is ManeuverKind.YAW_LEFT:
            escape = -1
        elif len(maneuvers) == 1 and maneuvers[0].kind is ManeuverKind.YAW_RIGHT:
            escape = +1
        if escape != 0 and escape == -last_escape:
            maneuvers = tracking_maneuvers(volts, gcfg)
            escape = 0
        records.append(TrajectoryRecord(iteration, state, volts, classify_sector(volts),
                                        tuple(maneuvers)))
        for m in maneuvers:
            state = reference_apply_maneuver(state, m)
        if escape != 0:
            last_escape = escape
            continue
        last_escape = 0
        if maneuvers[0].kind is ManeuverKind.HOLD and first_hold is None:
            first_hold = iteration
        pos = state.position
        new_z = max(pos.z - scfg.descent_step_cm, min(pos.z, scfg.min_height_cm))
        state = DroneState(Vector3(pos.x, pos.y, new_z), state.heading_deg)
        if state.position.z <= scfg.min_height_cm:
            touchdown = True
            break
    return SimulationResult(records=records, touchdown=touchdown, aborted=aborted,
                            diagnostic=diagnostic, first_hold_iteration=first_hold,
                            final_state=state)


def landing_hex_or_error(fn, *args):
    """Every float of a landing as .hex(), with its sectors, tokens and outcome."""
    try:
        result = fn(*args)
    except TriphaseError as exc:
        return type(exc), str(exc)

    def pose(state):
        p = state.position
        return p.x.hex(), p.y.hex(), p.z.hex(), state.heading_deg.hex()

    rows = [(r.iteration, *pose(r.state), *(v.hex() for v in r.voltages.as_tuple),
             str(r.sector), tuple(m.token for m in r.maneuvers)) for r in result.records]
    return (rows, result.first_hold_iteration, result.touchdown, result.aborted,
            result.diagnostic, pose(result.final_state))


class TestSense:
    def test_reference_snapshot(self):
        v = sense(fig14_start(), ground_point(100.0, -35.0), GEOM, RF, PROFILES)
        assert v.v12 == pytest.approx(0.72, abs=0.05)
        assert v.v23 == pytest.approx(0.53, abs=0.05)
        assert v.v31 == pytest.approx(-1.08, abs=0.05)

    def test_nadir_is_inside_hold_band(self):
        v = sense(fig14_start(), ground_point(0.0, 0.0), GEOM, RF, PROFILES)
        assert v.max_abs < GCFG.hold_threshold_v

    def test_outside_cone_raises_with_pair(self):
        z = 300.0
        phi = 90.0
        r_max = nonambiguous_range(z, phi, 80.0, GEOM, RF)
        with pytest.raises(PhaseAmbiguityError) as err:
            sense(fig14_start(), ground_point(r_max + 20.0, phi), GEOM, RF, PROFILES)
        assert err.value.pair in ("d12", "d23", "d31")

    def test_landing_above_drone_rejected(self):
        with pytest.raises(InvalidParameterError):
            sense(fig14_start(), Vector3(0.0, 0.0, 400.0), GEOM, RF, PROFILES)

    def test_ideal_mode_is_sine_of_phase(self):
        v = sense(fig14_start(), ground_point(10.0, 0.0), GEOM, RF, None, mode="ideal-sine")
        assert v.v12 == 0.0
        assert v.v23 > 0.0
        assert v.v31 == pytest.approx(-v.v23, abs=1e-12)

    def test_triangular_mode_is_linear_in_phase(self):
        v10 = sense(fig14_start(), ground_point(10.0, 0.0), GEOM, RF, None, mode="triangular")
        v20 = sense(fig14_start(), ground_point(20.0, 0.0), GEOM, RF, None, mode="triangular")
        assert v20.v23 == pytest.approx(2.0 * v10.v23, rel=0.01)  # near-linear regime

    @settings(deadline=None, max_examples=300)
    @given(x=st.floats(-500, 500), y=st.floats(-500, 500), z=st.floats(10.0, 2000.0),
           heading=st.floats(-720.0, 720.0), bx=st.floats(-500, 500), by=st.floats(-500, 500),
           bz=st.floats(-10.0, 50.0), f=st.floats(1e9, 6e9), d=st.floats(2.0, 15.0),
           profiles=st.sampled_from([PROFILES, "at f", None]),
           mode=st.sampled_from(["calibrated", "ideal-sine", "triangular", "sine"]))
    def test_matches_reference_bit_for_bit(self, x, y, z, heading, bx, by, bz, f, d,
                                           profiles, mode):
        # the 2.46 GHz built-in set mostly meets another f, so it compares the errors;
        # the set moved to f compares the calibrated voltages
        if profiles == "at f":
            profiles = at_frequency(PROFILES, f)
        args = (DroneState(Vector3(x, y, z), heading), Vector3(bx, by, bz),
                receiver_points(d), RFConfig(f), profiles, mode)
        assert hex_or_error(sense, *args) == hex_or_error(reference_sense, *args)

    @pytest.mark.parametrize("mode,limit", [("calibrated", 80.0), ("ideal-sine", 90.0),
                                            ("triangular", 90.0)])
    def test_range_edge_matches_reference(self, mode, limit):
        # 0.05 cm either side of the mode's cone edge, |theta| is within 0.03 deg of the limit
        r = nonambiguous_range(300.0, 90.0, limit, GEOM, RF)
        results = []
        for dr in (-0.05, 0.05):
            args = (fig14_start(), ground_point(r + dr, 90.0), GEOM, RF, PROFILES, mode)
            results.append(hex_or_error(sense, *args))
            assert results[-1] == hex_or_error(reference_sense, *args)
        assert isinstance(results[0][0], str) and results[1][0] is PhaseAmbiguityError

    def test_calibrated_inversion_is_looked_up_in_the_simulator(self, monkeypatch):
        # the landing benchmark's tracer counts inversions by patching this name
        calls = []

        def counting(poly, theta):
            calls.append(poly.pair_id)
            return voltage_from_phase(poly, theta)

        monkeypatch.setattr(simulator, "voltage_from_phase", counting)
        sense(fig14_start(), ground_point(100.0, -35.0), GEOM, RF, PROFILES)
        assert calls == ["d12", "d23", "d31"]

    @given(x=st.floats(-1e4, 1e4), y=st.floats(-1e4, 1e4), z=st.floats(1e-3, 1e4),
           heading=st.floats(allow_nan=False, allow_infinity=False),
           bx=st.floats(-1e4, 1e4), by=st.floats(-1e4, 1e4),
           f=st.floats(0.4e9, 6e9), d=st.floats(1.0, 20.0))
    def test_pair_phases_sum_to_zero(self, x, y, z, heading, bx, by, f, d):
        state = DroneState(Vector3(x, y, z), heading)
        sol = phase_solution(receiver_points(d), landing_body_frame(state, Vector3(bx, by, 0.0)),
                             RFConfig(f))
        assert abs(sol.th12 + sol.th23 + sol.th31) <= 1e-9


class TestApplyManeuver:
    def test_yaw_left_subtracts_heading(self):
        state = apply_maneuver(fig14_start(), Maneuver(ManeuverKind.YAW_LEFT, 60.0))
        assert state.heading_deg == -60.0

    def test_yaw_left_shifts_body_azimuth_into_sector_one(self):
        state = apply_maneuver(fig14_start(), Maneuver(ManeuverKind.YAW_LEFT, 60.0))
        body = landing_body_frame(state, ground_point(100.0, -35.0))
        azimuth = math.degrees(math.atan2(body.x, body.y))
        assert azimuth == pytest.approx(25.0, abs=1e-9)

    def test_forward_moves_along_body_axis(self):
        state = apply_maneuver(fig14_start(), Maneuver(ManeuverKind.FORWARD, 1.0))
        assert state.position.y == pytest.approx(1.0, abs=1e-12)
        assert state.position.x == 0.0

    def test_backward_with_heading(self):
        tilted = DroneState(Vector3(0.0, 0.0, 100.0), 90.0)
        state = apply_maneuver(tilted, Maneuver(ManeuverKind.BACKWARD, 2.0))
        assert state.position.x == pytest.approx(-2.0, abs=1e-12)
        assert abs(state.position.y) < 1e-12

    def test_hold_is_identity(self):
        state = fig14_start()
        assert apply_maneuver(state, Maneuver(ManeuverKind.HOLD)) == state

    def test_heading_rewraps(self):
        state = DroneState(Vector3(0.0, 0.0, 100.0), 170.0)
        turned = apply_maneuver(state, Maneuver(ManeuverKind.YAW_RIGHT, 60.0))
        assert turned.heading_deg == pytest.approx(-130.0, abs=1e-12)


class TestSimulateLanding:
    def test_reference_scenario_sequence_and_convergence(self):
        result = simulate_landing(fig14_start(), ground_point(100.0, -35.0),
                                  GEOM, RF, PROFILES, GCFG, SCFG)
        assert result.converged and result.touchdown and not result.aborted
        seq = [tuple(m.token for m in r.maneuvers) for r in result.records]
        assert seq[0] == ("YAWL60",)
        first_rr = seq.index(("ROTR1", "FWD1"))
        first_rl = seq.index(("ROTL1", "FWD1"))
        first_hold = seq.index(("HOLD",))
        assert first_rr < first_rl < first_hold
        # horizontal error at touchdown bounded by one tracking overshoot
        final = result.final_state.position
        target = ground_point(100.0, -35.0)
        err = math.hypot(final.x - target.x, final.y - target.y)
        assert err <= 2.0 * GCFG.move_step_cm
        # headings stay wrapped throughout
        assert all(-180.0 < r.state.heading_deg <= 180.0 for r in result.records)

    def test_nadir_start_descends_on_hold(self):
        result = simulate_landing(fig14_start(), ground_point(0.0, 0.0),
                                  GEOM, RF, PROFILES, GCFG, SCFG)
        assert result.converged
        assert result.first_hold_iteration == 0
        assert all(r.maneuvers[0].kind is ManeuverKind.HOLD for r in result.records)
        final = result.final_state.position
        assert (final.x, final.y) == (0.0, 0.0)
        assert final.z <= SCFG.min_height_cm

    def test_touchdown_without_hold_is_not_converged(self):
        # no reading gets inside a 1 nV threshold: the run descends to touchdown, never held
        result = simulate_landing(fig14_start(), ground_point(100.0, -35.0), GEOM, RF, PROFILES,
                                  GuidanceConfig(hold_threshold_v=1e-9), SCFG)
        assert result.touchdown and not result.aborted
        assert result.first_hold_iteration is None
        assert not result.converged

    def test_beacon_above_touchdown_height_rejected_before_first_cycle(self):
        # z is the height above the beacon plane; the run would descend past the beacon
        with pytest.raises(InvalidParameterError, match="^landing z must be <= min_height_cm"):
            simulate_landing(fig14_start(), Vector3(0.0, 0.0, 50.0), GEOM, RF, PROFILES,
                             GCFG, SimConfig(max_iterations=1))

    def test_start_outside_cone_aborts_with_diagnostic(self):
        result = simulate_landing(fig14_start(), ground_point(250.0, 90.0),
                                  GEOM, RF, PROFILES, GCFG, SCFG)
        assert result.aborted and not result.converged
        assert "non-ambiguous" in result.diagnostic
        assert result.records == []

    def test_deterministic_trajectory_log(self):
        outs = []
        for _ in range(2):
            result = simulate_landing(fig14_start(), ground_point(100.0, -35.0),
                                      GEOM, RF, PROFILES, GCFG, SCFG)
            buf = io.StringIO()
            write_trajectory_csv(buf, result.records)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_boundary_seam_does_not_livelock(self):
        # beacon on the seam between the two escape zones behind the drone
        result = simulate_landing(DroneState(Vector3(0.0, 0.0, 400.0), 0.0),
                                  ground_point(30.0, -150.0), GEOM, RF, PROFILES, GCFG, SCFG)
        assert result.converged
        assert result.iterations < 1000

    @settings(deadline=None, max_examples=150)
    @given(x=st.floats(-300.0, 300.0), y=st.floats(-300.0, 300.0), z=st.floats(1.0, 400.0),
           heading=st.floats(-720.0, 720.0), slope=st.floats(0.0, 1.0),
           phi=st.floats(-180.0, 180.0), bz=st.floats(-5.0, 0.0),
           gcfg=st.builds(GuidanceConfig, st.floats(0.005, 0.2), st.floats(0.25, 20.0),
                          st.floats(0.25, 20.0)),
           scfg=st.builds(SimConfig, st.floats(0.25, 25.0), st.floats(0.5, 5.0),
                          st.integers(1, 600), st.sampled_from(tuple(DETECTOR_MODES))))
    def test_matches_object_based_loop_bit_for_bit(self, x, y, z, heading, slope, phi, bz,
                                                   gcfg, scfg):
        # the cone's edge lies near slope 0.5, so about half the starts abort at once
        r, a = slope * z, math.radians(phi)
        args = (DroneState(Vector3(x, y, z), heading),
                Vector3(x + r * math.sin(a), y + r * math.cos(a), bz),
                GEOM, RF, PROFILES, gcfg, scfg)
        assert (landing_hex_or_error(simulate_landing, *args)
                == landing_hex_or_error(reference_simulate_landing, *args))

    @pytest.mark.parametrize("mode", tuple(DETECTOR_MODES))
    @pytest.mark.parametrize("x", [1e308, -1e308], ids=["drone-east", "drone-west"])
    def test_overflowing_beacon_offset_keeps_its_error(self, x, mode):
        # beacon minus drone overflows to inf and the path differences to nan; the
        # object-based loop meets the inf sooner, in its body-frame Vector3
        start, beacon = DroneState(Vector3(x, 0.0, 300.0), 0.0), Vector3(-x, 0.0, 0.0)
        error = (InvalidParameterError, "angle must be a finite number, got nan")
        assert landing_hex_or_error(simulate_landing, start, beacon, GEOM, RF, PROFILES, GCFG,
                                    SimConfig(detector_mode=mode)) == error
        assert hex_or_error(sense, start, beacon, GEOM, RF, PROFILES, mode) == error

    @pytest.mark.parametrize("mode", tuple(DETECTOR_MODES))
    def test_far_drone_over_a_near_beacon_matches_object_based_loop(self, mode):
        # every distance rounds to 1e308: all phases are 0, and the run holds to touchdown
        args = (DroneState(Vector3(1e308, 0.0, 300.0), 0.0), Vector3(0.0, 0.0, 0.0),
                GEOM, RF, PROFILES, GCFG, SimConfig(detector_mode=mode))
        got = landing_hex_or_error(simulate_landing, *args)
        assert got == landing_hex_or_error(reference_simulate_landing, *args)
        assert len(got[0]) == 299 and got[1] == 0

    @pytest.mark.parametrize("mode", tuple(DETECTOR_MODES))
    def test_overflowing_translate_matches_object_based_loop(self, mode):
        # the first cycle tracks (ROTL, FWD) and the forward step carries x past the float range
        args = (DroneState(Vector3(1.7e308, 0.0, 300.0), 20.0), Vector3(1.7e308, 10.0, 0.0),
                GEOM, RF, PROFILES, GuidanceConfig(move_step_cm=1.7e308),
                SimConfig(detector_mode=mode))
        got = landing_hex_or_error(simulate_landing, *args)
        assert got == landing_hex_or_error(reference_simulate_landing, *args)
        assert got == (InvalidParameterError, "x must be a finite number, got inf")

    def test_records_hold_floats_whatever_number_types_configure_the_run(self):
        # the records' poses skip the Vector3 and DroneState checks that coerce to float
        result = simulate_landing(fig14_start(), ground_point(100.0, -35.0), GEOM, RF, PROFILES,
                                  GuidanceConfig(0.02, np.float32(1.0), np.float32(1.0)),
                                  SimConfig(descent_step_cm=1, min_height_cm=np.float32(1.0)))
        assert result.converged
        for state in [r.state for r in result.records] + [result.final_state]:
            p = state.position
            assert {type(v) for v in (p.x, p.y, p.z, state.heading_deg)} == {float}

    def test_one_sense_three_inversions_and_one_pose_per_cycle(self, monkeypatch):
        start, beacon = fig14_start(), ground_point(100.0, -35.0)
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(simulator, "_sense", counted("sense", simulator._sense))
        monkeypatch.setattr(simulator, "voltage_from_phase",
                            counted("inversion", simulator.voltage_from_phase))
        monkeypatch.setattr(DroneState, "__post_init__",
                            counted("state", DroneState.__post_init__))
        result = simulate_landing(start, beacon, GEOM, RF, PROFILES, GCFG, SCFG)
        cycles = result.iterations
        assert result.converged and cycles > 100
        assert calls["sense"] == cycles
        assert calls["inversion"] == 3 * cycles
        assert calls["state"] <= cycles + 1

    def test_randomized_convergence_inside_half_cone(self):
        rng = random.Random(20260810)
        gcfg, scfg = GuidanceConfig(), SimConfig()
        for case in range(100):
            z = rng.uniform(100.0, 1000.0)
            phi = rng.uniform(-180.0, 180.0)
            r = rng.uniform(0.0, 0.5) * nonambiguous_range(z, phi, 80.0, GEOM, RF)
            start = DroneState(Vector3(0.0, 0.0, z), 0.0)
            result = simulate_landing(start, ground_point(r, phi), GEOM, RF,
                                      PROFILES, gcfg, scfg)
            assert result.converged, f"case {case}: z={z:.0f} phi={phi:.1f} r={r:.1f}"
            hold_v = result.records[result.first_hold_iteration].voltages
            assert hold_v.max_abs < gcfg.hold_threshold_v + 1e-12
            final = result.final_state.position
            target = ground_point(r, phi)
            err = math.hypot(final.x - target.x, final.y - target.y)
            assert err <= 2.0 * gcfg.move_step_cm


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)


class TestSimulateLandingErrors:
    @settings(deadline=None)
    @given(x=FINITE, y=FINITE, z=POSITIVE, heading=FINITE, bx=FINITE, by=FINITE, bz=FINITE,
           gcfg=st.builds(GuidanceConfig, POSITIVE, POSITIVE, POSITIVE),
           scfg=st.builds(SimConfig, POSITIVE, POSITIVE, st.integers(1, 200),
                          st.sampled_from(tuple(DETECTOR_MODES))))
    def test_raises_only_documented_errors(self, x, y, z, heading, bx, by, bz, gcfg, scfg):
        assume(bz < z)  # the beacon is below the drone
        start = DroneState(Vector3(x, y, z), heading)
        try:
            result = simulate_landing(start, Vector3(bx, by, bz), GEOM, RF, PROFILES, gcfg, scfg)
        except TriphaseError as exc:
            assert type(exc).__module__ == "triphase.errors"
        else:
            assert result.iterations <= scfg.max_iterations


# every entry point that takes a calibration set, as f(profiles, rf)
CALIBRATED_RUNS = {
    "sense": lambda profiles, rf: sense(fig14_start(), ground_point(30.0, -35.0), GEOM, rf,
                                        profiles),
    "worst_case_transect": lambda profiles, rf: worst_case_transect(1000.0, 700.0, GEOM, rf,
                                                                    profiles, n_samples=3),
    "simulate_landing": lambda profiles, rf: simulate_landing(
        fig14_start(), ground_point(30.0, -35.0), GEOM, rf, profiles, GCFG,
        SimConfig(max_iterations=3)),
}


class TestProfileSet:
    @pytest.mark.parametrize("profiles,pair", [
        ({"d12": TABLE2_D12}, "d23"),
        ({"d12": TABLE2_D12, "d23": TABLE2_D12, "d31": TABLE2_D12}, "d23"),
        ({**PROFILES, "d31": "table2-d31"}, "d31"),
    ], ids=["missing", "mislabelled", "not-a-profile"])
    @pytest.mark.parametrize("run", CALIBRATED_RUNS.values(), ids=CALIBRATED_RUNS.keys())
    def test_rejects_a_bad_set_naming_the_pair(self, run, profiles, pair):
        with pytest.raises(InvalidParameterError, match=f"need a {pair} profile"):
            run(profiles, RF)

    @pytest.mark.parametrize("profiles,rf,pair", [
        (PROFILES, RFConfig(5.8e9), "d12"),
        (at_frequency(PROFILES, 5.8e9), RF, "d12"),
        ({**PROFILES, "d31": dataclasses.replace(PROFILES["d31"], frequency_hz=2.45e9)}, RF,
         "d31"),
    ], ids=["rf-moved", "set-moved", "one-profile-moved"])
    @pytest.mark.parametrize("run", CALIBRATED_RUNS.values(), ids=CALIBRATED_RUNS.keys())
    def test_rejects_profiles_measured_at_another_frequency(self, run, profiles, rf, pair):
        # a calibration curve maps phase to voltage only at the frequency it was measured at
        with pytest.raises(InvalidParameterError,
                           match=f"^profile {pair} and rf disagree on frequency: "):
            run(profiles, rf)

    def test_the_same_set_passes_at_its_own_frequency(self):
        moved = at_frequency(PROFILES, 5.8e9)
        for run in CALIBRATED_RUNS.values():
            run(moved, RFConfig(5.8e9))

    @pytest.mark.parametrize("profiles", [None, {"d12": "x"}, at_frequency(PROFILES, 5.8e9)],
                             ids=["none", "not-a-set", "other-frequency"])
    def test_landing_checks_the_set_before_the_first_cycle(self, profiles):
        # a start at or below the touchdown height runs no cycle, so sense never sees the set
        start = DroneState(Vector3(0.0, 0.0, 0.5), 0.0)
        with pytest.raises(InvalidParameterError):
            simulate_landing(start, ground_point(0.0, 0.0), GEOM, RF, profiles, GCFG, SCFG)

    def test_modes_without_a_calibration_ignore_the_set(self):
        for mode in ("ideal-sine", "triangular"):
            result = simulate_landing(DroneState(Vector3(0.0, 0.0, 0.5), 0.0),
                                      ground_point(0.0, 0.0), GEOM, RF, None, GCFG,
                                      SimConfig(detector_mode=mode))
            assert result.touchdown and result.records == []


class TestWorstCaseTransect:
    ROWS = worst_case_transect(1000.0, 700.0, GEOM, RF, PROFILES, n_samples=281)

    def test_symmetric_pair_is_exactly_null(self):
        assert all(r.th12 == 0.0 for r in self.ROWS)

    def test_center_row_is_null(self):
        center = min(self.ROWS, key=lambda r: abs(r.y_cm))
        assert abs(center.th23) <= 1e-9 and abs(center.th31) <= 1e-9

    def test_nonambiguous_zone_ends_near_five_meters(self):
        inside = [r.y_cm for r in self.ROWS if not r.ambiguous]
        assert max(inside) == pytest.approx(500.0, abs=15.0)
        assert min(inside) == pytest.approx(-500.0, abs=15.0)

    def test_ambiguous_rows_marked_with_nan_voltages(self):
        for r in self.ROWS:
            if r.ambiguous:
                assert math.isnan(r.v23) and math.isnan(r.v31)
            else:
                assert math.isfinite(r.v23) and math.isfinite(r.v31)
                assert abs(r.th23) <= 80.0 and abs(r.th31) <= 80.0

    @pytest.mark.parametrize("z_cm,y_range_cm,name", [
        (-1000.0, 700.0, "z_cm"),  # would mirror the beacon above the drone
        (0.0, 700.0, "z_cm"),
        ("1000", 700.0, "z_cm"),
        (1000.0, -500.0, "y_range_cm"),  # would reverse the rows
        (1000.0, math.inf, "y_range_cm"),
    ])
    def test_rejects_bad_extent(self, z_cm, y_range_cm, name):
        with pytest.raises(InvalidParameterError, match=name):
            worst_case_transect(z_cm, y_range_cm, GEOM, RF, PROFILES)

    @pytest.mark.parametrize("z_cm,y_range_cm,message", [
        (1000.0, 9e307, "y_range_cm must keep the sample positions finite"),  # 2 * span is inf
        (1e308, 1e308, "y_range_cm must keep the sample positions finite"),
        (1.79e308, 8e307, "z_cm and y_range_cm must keep the phases finite"),  # distances are inf
    ])
    def test_rejects_extent_that_overflows(self, z_cm, y_range_cm, message):
        with pytest.raises(InvalidParameterError, match=f"^{message}"):
            worst_case_transect(z_cm, y_range_cm, GEOM, RF, PROFILES, n_samples=2)

    def test_height_at_the_float_limit_keeps_its_rows(self):
        # far field: every distance is finite and every phase rounds to zero
        rows = worst_case_transect(1.79e308, 1.0, GEOM, RF, PROFILES, n_samples=3)
        assert [r.y_cm for r in rows] == [-1.0, 0.0, 1.0]
        null = sense(DroneState(Vector3(0.0, 0.0, 1000.0)), Vector3(0.0, 0.0, 0.0), GEOM, RF,
                     PROFILES)
        assert all((r.th12, r.th23, r.th31, r.v23, r.v31, r.ambiguous)
                   == (0.0, 0.0, 0.0, null.v23, null.v31, False) for r in rows)

    def test_phases_nearly_antisymmetric_in_y(self):
        # the triangle's fore/aft offset breaks exact oddness by a fraction
        # of a degree at these spans
        by_y = {round(r.y_cm, 6): r for r in self.ROWS}
        for y, row in by_y.items():
            mirror = by_y.get(round(-y, 6))
            assert mirror is not None
            assert row.th23 == pytest.approx(-mirror.th23, abs=0.2)


class TestConfigValidation:
    def test_sim_config_rejects_bad_values(self):
        with pytest.raises(InvalidParameterError):
            SimConfig(descent_step_cm=0.0)
        with pytest.raises(InvalidParameterError):
            SimConfig(max_iterations=0)
        with pytest.raises(InvalidParameterError):
            SimConfig(detector_mode="other")

    def test_drone_state_requires_height(self):
        with pytest.raises(InvalidParameterError, match="^position.z must be > 0"):
            DroneState(Vector3(0.0, 0.0, 0.0), 0.0)
