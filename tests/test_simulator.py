import bisect
import collections
import collections.abc
import dataclasses
import io
import itertools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from triphase import detector, geometry, guidance, simulator
from triphase.detector import (
    CALIBRATED_RANGE_DEG,
    TABLE2_D12,
    builtin_profile_set,
    voltage_from_phase,
)
from triphase.errors import (
    CalibrationRejectedError,
    InvalidParameterError,
    PhaseAmbiguityError,
    TriphaseError,
)
from triphase.geometry import (
    PhaseSolution,
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

import sector_oracle as oracle
from sector_oracle import phases, wrap_angle_deg

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
               for pair, th in zip(("d12", "d23", "d31"), phases(sol))}

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
            out.append(voltage_from_phase(poly, theta) - poly.v_ref)
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


def entry_edge(limit, reach):
    """The heights (inside, outside), adjacent floats, between which a drone over a beacon at the
    origin meets the landing path's entry bound, _ROUNDING k (2 hypot(reach + D, z) + D) < limit."""
    d = GEOM.spacing_cm
    lo, hi = 1.0, 1e300
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if geometry._ROUNDING * RF.deg_per_cm * (2.0 * math.hypot(reach + d, mid) + d) < limit:
            lo = mid
        else:
            hi = mid
    return lo, hi


TOO_FAR = "^beacon too far to resolve: up to "


def hex_or_error(fn, *args):
    try:
        v = fn(*args)
    except TriphaseError as exc:
        return type(exc), str(exc)
    return v.v12.hex(), v.v23.hex(), v.v31.hex()


def first_cycle(state, beacon, mode, profiles=PROFILES):
    """The landing loop run for one cycle from `state` with detector `mode`."""
    return simulate_landing(state, beacon, GEOM, RF, profiles, GCFG,
                            SimConfig(detector_mode=mode, max_iterations=1))


def first_cycle_hex_or_error(state, beacon, mode):
    """hex_or_error's view of the first cycle's sensing: its voltages, or its ambiguity."""
    result = first_cycle(state, beacon, mode)
    if result.aborted:
        return PhaseAmbiguityError, result.diagnostic.removeprefix("iteration 0: ")
    v = result.records[0].voltages
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
        maneuvers = oracle.guided(volts, gcfg, last_escape)
        escape = oracle.escape_of(maneuvers)
        records.append(TrajectoryRecord(iteration, state, volts, oracle.classify_sector(volts),
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

    @pytest.mark.parametrize("call", [
        lambda state, beacon: sense(state, beacon, GEOM, RF, PROFILES),
        lambda state, beacon: landing_body_frame(state, beacon),
    ], ids=["sense", "landing_body_frame"])
    def test_beacon_level_with_the_drone_rejected(self, call):
        # dz == 0 is not below the plane: the body-frame point would sit in the receiver plane
        with pytest.raises(InvalidParameterError, match="below the drone plane"):
            call(fig14_start(), Vector3(5.0, -3.0, 300.0))

    def test_ideal_mode_is_sine_of_phase(self):
        run = first_cycle(fig14_start(), ground_point(10.0, 0.0), "ideal-sine", None)
        v = run.records[0].voltages
        assert v.v12 == 0.0
        assert v.v23 > 0.0
        assert v.v31 == pytest.approx(-v.v23, abs=1e-12)

    def test_triangular_mode_is_linear_in_phase(self):
        v10, v20 = (first_cycle(fig14_start(), ground_point(r, 0.0), "triangular", None)
                    .records[0].voltages for r in (10.0, 20.0))
        assert v20.v23 == pytest.approx(2.0 * v10.v23, rel=0.01)  # near-linear regime

    @settings(deadline=None, max_examples=300)
    @given(x=st.floats(-500, 500), y=st.floats(-500, 500), z=st.floats(10.0, 2000.0),
           heading=st.floats(-720.0, 720.0), bx=st.floats(-500, 500), by=st.floats(-500, 500),
           bz=st.floats(-10.0, 50.0), f=st.floats(1e9, 6e9), d=st.floats(2.0, 15.0),
           profiles=st.sampled_from([PROFILES, "at f", None]))
    def test_matches_reference_bit_for_bit(self, x, y, z, heading, bx, by, bz, f, d, profiles):
        # the 2.46 GHz built-in set mostly meets another f, so it compares the errors;
        # the set moved to f compares the calibrated voltages
        if profiles == "at f":
            profiles = at_frequency(PROFILES, f)
        args = (DroneState(Vector3(x, y, z), heading), Vector3(bx, by, bz),
                receiver_points(d), RFConfig(f), profiles)
        assert hex_or_error(sense, *args) == hex_or_error(reference_sense, *args)

    @pytest.mark.parametrize("mode,limit", [("calibrated", 80.0), ("ideal-sine", 90.0),
                                            ("triangular", 90.0)])
    def test_range_edge_matches_reference(self, mode, limit):
        # 0.05 cm either side of the mode's cone edge, |theta| is within 0.03 deg of the limit;
        # sense is calibrated, so the +-90 deg modes sense through the loop's first cycle
        r = nonambiguous_range(300.0, 90.0, limit, GEOM, RF)
        results = []
        for dr in (-0.05, 0.05):
            state, beacon = fig14_start(), ground_point(r + dr, 90.0)
            if mode == "calibrated":
                got = hex_or_error(sense, state, beacon, GEOM, RF, PROFILES)
            else:
                got = first_cycle_hex_or_error(state, beacon, mode)
            assert got == hex_or_error(reference_sense, state, beacon, GEOM, RF, PROFILES, mode)
            results.append(got)
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

    @pytest.mark.parametrize("heading,wrapped", [(180.0, 180.0), (180.5, -179.5), (181.0, -179.0),
                                                 (-180.0, 180.0), (540.25, -179.75)])
    def test_heading_wraps_into_the_half_open_circle(self, heading, wrapped):
        assert DroneState(Vector3(0.0, 0.0, 100.0), heading).heading_deg == wrapped

    @settings(max_examples=300)
    @given(gcfg=st.builds(GuidanceConfig, st.just(0.02),
                          st.sampled_from([0.5, 0.7, 1.0, 2.5, 60.0, 180.0, 360.0])
                          | st.floats(1e-6, 1e6), st.floats(1e-6, 1e6)),
           heading=st.sampled_from([180.0, -180.0, 179.5, -179.5, math.nextafter(180.0, 0.0),
                                    -0.0, 0.0]) | st.floats(-720.0, 720.0),
           x=st.floats(-1e6, 1e6), y=st.floats(-1e6, 1e6))
    def test_each_outcome_s_move_is_its_maneuvers_applied_bit_for_bit(self, gcfg, heading, x, y):
        state = DroneState(Vector3(x, y, 100.0), heading)
        for maneuvers, turn, step in gcfg._outcomes:
            # the landing loop's move: the turn, the heading's cosine and sine, the translate
            px, py, h = state.position.x, state.position.y, state.heading_deg
            cos_h, sin_h = simulator._trig(h)
            if turn:
                h = simulator._wrap(h + turn)
                cos_h, sin_h = simulator._trig(h)
            if step:
                px, py = px + step * sin_h, py + step * cos_h
            want = state
            for m in maneuvers:
                want = apply_maneuver(want, m)
            assert (px.hex(), py.hex(), h.hex()) == (
                want.position.x.hex(), want.position.y.hex(), want.heading_deg.hex())
            # only an escape yaw leaves the loop's descent out
            assert (step is None) == (maneuvers in ((YAW_LEFT,), (YAW_RIGHT,)))


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

    def test_beacon_at_touchdown_height_is_accepted(self):
        result = simulate_landing(DroneState(Vector3(0.0, 0.0, 20.0)), Vector3(0.0, 0.0, 1.0),
                                  GEOM, RF, PROFILES, GCFG, SimConfig(min_height_cm=1.0))
        assert result.converged and result.final_state.position.z == 1.0

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

    def test_boundary_seam_run_matches_object_based_loop_bit_for_bit(self):
        # the seam run falls through to tracking 16 times in 434 cycles
        args = (DroneState(Vector3(0.0, 0.0, 400.0), 0.0), ground_point(30.0, -150.0),
                GEOM, RF, PROFILES, GCFG, SCFG)
        records = simulate_landing(*args).records
        assert any(decide(r.voltages, GCFG) != list(r.maneuvers) for r in records)
        assert (landing_hex_or_error(simulate_landing, *args)
                == landing_hex_or_error(reference_simulate_landing, *args))

    def test_guidance_steps_other_than_1_match_object_based_loop_bit_for_bit(self):
        # each config builds its own outcome table: this run takes all seven outcomes
        args = (fig14_start(), ground_point(100.0, -35.0), GEOM, RF, PROFILES,
                GuidanceConfig(rotate_step_deg=0.7, move_step_cm=1.5), SCFG)
        got = landing_hex_or_error(simulate_landing, *args)
        assert got == landing_hex_or_error(reference_simulate_landing, *args)
        assert {tokens for *_, tokens in got[0]} == {
            ("HOLD",), ("YAWL60",), ("YAWR60",), ("ROTL0.7", "FWD1.5"), ("ROTL0.7", "BWD1.5"),
            ("ROTR0.7", "FWD1.5"), ("ROTR0.7", "BWD1.5")}

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
        # beacon minus drone overflows to inf: the entry bound rejects it before any phase
        start, beacon = DroneState(Vector3(x, 0.0, 300.0), 0.0), Vector3(-x, 0.0, 0.0)
        error = (InvalidParameterError, "beacon too far to resolve: up to inf cm from the drone")
        assert landing_hex_or_error(simulate_landing, start, beacon, GEOM, RF, PROFILES, GCFG,
                                    SimConfig(detector_mode=mode)) == error
        assert hex_or_error(sense, start, beacon, GEOM, RF, PROFILES) == error

    @pytest.mark.parametrize("side", ["inside", "outside"])
    @pytest.mark.parametrize("mode", tuple(DETECTOR_MODES))
    def test_far_drone_over_a_near_beacon_matches_object_based_loop(self, mode, side):
        # a drone one float below or above the entry bound's height for a budget of 300 cm:
        # inside, every phase rounds to about 0 and the run holds to its budget
        scfg = SimConfig(max_iterations=300, detector_mode=mode)
        limit = DETECTOR_MODES[mode](PROFILES, RF, GCFG.hold_threshold_v)[0]
        z = entry_edge(limit, 300 * GCFG.move_step_cm)[side == "outside"]
        args = (DroneState(Vector3(0.0, 0.0, z), 0.0), Vector3(0.0, 0.0, 0.0),
                GEOM, RF, PROFILES, GCFG, scfg)
        got = landing_hex_or_error(simulate_landing, *args)
        if side == "inside":
            assert got == landing_hex_or_error(reference_simulate_landing, *args)
            assert len(got[0]) == 300 and got[1] == 0
        else:
            assert got == (InvalidParameterError, f"beacon too far to resolve: up to {z:g} cm "
                                                  "from the drone")

    @pytest.mark.parametrize("side", ["inside", "outside"])
    def test_sense_and_transect_reject_at_the_same_edge(self, side):
        # the same bound, with sense's budget of 0 and the transect's 2 y_range (n - 1) = 4 cm
        z_sense, z_transect = (entry_edge(CALIBRATED_RANGE_DEG, reach)[side == "outside"]
                               for reach in (0.0, 4.0))
        sense_args = (DroneState(Vector3(0.0, 0.0, z_sense)), Vector3(0.0, 0.0, 0.0), GEOM, RF,
                      PROFILES)
        transect_args = (z_transect, 1.0, GEOM, RF, PROFILES, 3)
        if side == "inside":  # every phase rounds to about 0
            assert sense(*sense_args).max_abs < GCFG.hold_threshold_v
            assert not any(r.ambiguous for r in worst_case_transect(*transect_args))
            return
        with pytest.raises(InvalidParameterError, match=TOO_FAR):
            sense(*sense_args)
        with pytest.raises(InvalidParameterError, match=TOO_FAR):
            worst_case_transect(*transect_args)

    def test_a_beacon_too_far_to_resolve_is_rejected(self):
        # it read as centred: every path difference rounded to 0 and the run held to touchdown
        beacon = ground_point(1e17, -35.0)
        with pytest.raises(InvalidParameterError, match=TOO_FAR):
            simulate_landing(fig14_start(), beacon, GEOM, RF, PROFILES, GCFG, SCFG)
        with pytest.raises(InvalidParameterError, match=TOO_FAR):
            sense(fig14_start(), beacon, GEOM, RF, PROFILES)

    @pytest.mark.parametrize("mode", tuple(DETECTOR_MODES))
    def test_overflowing_translate_matches_object_based_loop(self, mode):
        # the first cycle would track (ROTL, FWD) and carry x past the float range; the entry
        # bound rejects the move budget first, where the object-based loop fails in Vector3
        args = (DroneState(Vector3(1.7e308, 0.0, 300.0), 20.0), Vector3(1.7e308, 10.0, 0.0),
                GEOM, RF, PROFILES, GuidanceConfig(move_step_cm=1.7e308),
                SimConfig(detector_mode=mode))
        assert (landing_hex_or_error(reference_simulate_landing, *args)
                == (InvalidParameterError, "x must be a finite number, got inf"))
        assert landing_hex_or_error(simulate_landing, *args) == (
            InvalidParameterError, "beacon too far to resolve: up to inf cm from the drone")

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

        monkeypatch.setattr(simulator, "_phases", counted("phases", simulator._phases))
        monkeypatch.setattr(simulator, "_sense", counted("sense", simulator._sense))
        monkeypatch.setattr(simulator, "voltage_from_phase",
                            counted("inversion", simulator.voltage_from_phase))
        monkeypatch.setattr(DroneState, "__post_init__",
                            counted("state", DroneState.__post_init__))
        result = simulate_landing(start, beacon, GEOM, RF, PROFILES, GCFG, SCFG)
        cycles = result.iterations
        assert result.converged and cycles > 100
        # the loop inverts only the cycles not decided in phase, and each of those once; it
        # senses only a few cycles of each hold run
        assert calls["phases"] < cycles
        assert calls["inversion"] == 3 * calls["sense"] < 3 * cycles
        assert calls["state"] <= cycles + 1
        # reading the records senses and inverts each cycle decided in phase once
        list(result.records)
        assert calls["sense"] == cycles
        assert calls["inversion"] == 3 * cycles

    @pytest.mark.parametrize("mode,per_cycle", [("calibrated", 3), ("ideal-sine", 0),
                                                ("triangular", 0)])
    def test_only_the_calibrated_inversion_checks_theta(self, monkeypatch, mode, per_cycle):
        # _sense has wrapped and range-tested every theta a detector law receives
        calls = []
        check = detector._check_finite

        def counting(*args):
            calls.append(args[0])
            return check(*args)

        monkeypatch.setattr(detector, "_check_finite", counting)
        result = simulate_landing(DroneState(Vector3(0.0, 0.0, 200.0)), Vector3(10.0, 20.0, 0.0),
                                  GEOM, RF, PROFILES, GCFG, SimConfig(detector_mode=mode))
        assert result.touchdown and result.iterations > 100
        list(result.records)  # builds the voltages of the holds decided in phase
        assert len(calls) == per_cycle * result.iterations

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


class TestRecordsBuiltWhenRead:
    RUNS = {
        "converging": (fig14_start(), ground_point(100.0, -35.0), SCFG),
        "aborting": (fig14_start(), ground_point(250.0, 90.0), SCFG),
        "budget-capped": (fig14_start(), ground_point(100.0, -35.0), SimConfig(max_iterations=40)),
    }

    def run(self, fn, name):
        start, beacon, scfg = self.RUNS[name]
        return fn(start, beacon, GEOM, RF, PROFILES, GCFG, scfg)

    def test_the_loop_builds_no_record(self, monkeypatch):
        built = []
        init = TrajectoryRecord.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TrajectoryRecord, "__init__", counted)
        result = self.run(simulate_landing, "converging")
        assert built == []
        assert result.iterations > 100 and result.final_state.position.z == 1.0
        assert 0 < result.first_hold_iteration < result.iterations
        assert built == []
        assert len(list(result.records)) == len(built) == result.iterations

    @pytest.mark.parametrize("name", tuple(RUNS))
    def test_records_equal_the_object_based_loop(self, name):
        got, want = self.run(simulate_landing, name), self.run(reference_simulate_landing, name)
        assert got.records == want.records and want.records == got.records
        assert got == want
        assert (got.aborted, got.touchdown) == {"converging": (False, True),
                                                "aborting": (True, False),
                                                "budget-capped": (False, False)}[name]
        assert (got.records == []) is (name == "aborting") is ([] == got.records)
        assert (got.records != []) is (name != "aborting")

    def test_sequence_protocol(self):
        records = self.run(simulate_landing, "budget-capped").records
        want = self.run(reference_simulate_landing, "budget-capped").records
        n = len(want)
        assert len(records) == n == 40
        assert records[0] == want[0] and records[0].iteration == 0
        assert records[-1] == want[-1] and records[-1].iteration == n - 1
        assert records[-n] == want[0] and records[n - 1] == want[n - 1]
        for index in (n, -n - 1, 10**9):
            with pytest.raises(IndexError):
                records[index]
        for part in (slice(3, 7), slice(None, None, -1), slice(-5, None), slice(2, 30, 9),
                     slice(n, None), slice(7, 3)):
            assert records[part] == want[part]
            assert [r.iteration for r in records[part]] == list(range(n))[part]
        assert [r for r in records] == list(records) == want
        assert records[5] == records[5] and list(records) == list(records)
        assert records[5:6] != want[4:5] and records != want[:-1]
        assert records != tuple(want) and records != want[0]

    def test_records_support_the_read_only_sequence_methods(self):
        records = self.run(simulate_landing, "converging").records
        want = self.run(reference_simulate_landing, "converging").records
        assert isinstance(records, collections.abc.Sequence)
        assert want[17] in records and records.index(want[17]) == 17
        assert list(reversed(records)) == want[::-1]
        assert repr(records) == repr(want)
        with pytest.raises(TypeError):
            records[0] = want[0]
        with pytest.raises(TypeError):
            records["0"]

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_result_pickles_with_its_records(self, read_first):
        # the records keep the run's laws to build the voltages of holds decided in phase
        result = self.run(simulate_landing, "converging")
        if read_first:
            list(result.records)
        assert pickle.loads(pickle.dumps(result)) == result == self.run(reference_simulate_landing,
                                                                         "converging")

    def test_result_stays_frozen_and_takes_a_plain_list(self):
        result = self.run(simulate_landing, "converging")
        built = SimulationResult(records=list(result.records), touchdown=True, aborted=False,
                                 diagnostic=None, first_hold_iteration=result.first_hold_iteration,
                                 final_state=result.final_state)
        assert built == result and built.iterations == result.iterations
        assert built.records[-1] == result.records[-1]
        for field in dataclasses.fields(SimulationResult):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(result, field.name, None)


HOLD = Maneuver(ManeuverKind.HOLD)
YAW_LEFT, YAW_RIGHT = Maneuver(ManeuverKind.YAW_LEFT, 60.0), Maneuver(ManeuverKind.YAW_RIGHT, 60.0)


def outcome_of(gcfg, maneuvers):
    """The outcome whose maneuvers in gcfg's table (GuidanceConfig._outcomes) are `maneuvers`:
    the loop's row keeps it where it once kept the maneuvers."""
    return [m for m, _, _ in gcfg._outcomes].index(tuple(maneuvers))


def first_phases(z, phi, heading, r):
    """The wrapped phases a drone at (0, 0, z) with `heading` senses of a ground beacon at
    radius r and azimuth phi, as the landing loop computes them."""
    beacon = ground_point(r, phi)
    raw = simulator._phases(simulator._body_point(0.0, 0.0, z, *simulator._trig(heading), beacon),
                            GEOM, RF.deg_per_cm)
    return tuple(wrap_angle_deg(th) for th in raw)


def box_edge_radius(z, phi, heading, boxes):
    """The radius along azimuth phi where the first phase leaves its hold box, and that phase."""
    def outside(r):
        thetas = first_phases(z, phi, heading, r)
        return next((th for th, (lo, hi) in zip(thetas, boxes) if not lo <= th <= hi), None)

    inside, out = 0.0, 0.1 * z  # every box is narrower than the largest phase at 0.1 z
    for _ in range(200):
        mid = 0.5 * (inside + out)
        if mid in (inside, out):
            break
        if outside(mid) is None:
            inside = mid
        else:
            out = mid
    return inside, outside(out)


#: about one guard band in phase: _HOLD_GUARD_V times the built-ins' slope near v_ref [deg]
GUARD_DEG = 55.0 * detector._HOLD_GUARD_V


def profile(coeffs, v_ref=0.0, v_lo=-1.0, v_hi=1.0, max_err_deg=1.0):
    return detector.CalibrationPolynomial(*coeffs, v_ref=v_ref, v_lo=v_lo, v_hi=v_hi,
                                          max_err_deg=max_err_deg, pair_id="d12")


#: p' runs from 0.01 to 3.01 on [-1, 1]: about 300-fold, the widest of any profile boxed here
GENTLE = profile((0.0, 1e-2, 0.0, 1.0, 0.0, 0.0))


def window_hold_box(poly, thr):
    """_edges' hold box with the gate it had before each profile kept its slope range: it found the
    extremes of p' and the rounding bound on the cells around v_ref +- thr, for each thr."""
    v_ref = poly.v_ref
    if not poly.v_lo <= v_ref - thr < v_ref + thr <= poly.v_hi:
        return None
    volts, _ = poly._seed_table
    cell = (volts[-1] - volts[0]) / (detector.SEED_TABLE_POINTS - 1)
    a, b = v_ref - thr - 2.0 * cell, v_ref + thr + 2.0 * cell
    slope = detector._slope(poly.coeffs)
    slopes = [detector._horner(slope, v)
              for v in (a, b, *detector._roots(detector._slope(slope), a, b))]
    s_min, s_max = min(slopes), max(slopes)
    rounding = 1e-14 * detector._horner([abs(c) for c in poly.coeffs], max(-a, b))
    guard = detector._HOLD_GUARD_V
    if not (s_min > 0.0 and 1e-9 * (s_min + s_max) + rounding <= 0.5 * guard * s_min):
        return None
    return (max(poly.evaluate(v_ref - thr + guard), -CALIBRATED_RANGE_DEG),
            min(poly.evaluate(v_ref + thr - guard), CALIBRATED_RANGE_DEG))


class TestHoldsDecidedInPhase:
    @settings(deadline=None, max_examples=120)
    @given(z=st.floats(20.0, 150.0), phi=st.floats(-180.0, 180.0),
           heading=st.floats(-180.0, 180.0), offset=st.floats(-5.0, 5.0),
           threshold=st.one_of(st.just(0.02), st.floats(0.005, 0.2)))
    def test_starts_at_a_box_edge_match_the_eager_loop_bit_for_bit(self, z, phi, heading,
                                                                   offset, threshold):
        # the start's first phase sits `offset` guard bands inside (< 0) or outside its box
        gcfg = GuidanceConfig(hold_threshold_v=threshold)
        boxes = DETECTOR_MODES["calibrated"](PROFILES, RF, threshold)[2]
        r_edge, theta_out = box_edge_radius(z, phi, heading, boxes)
        r = r_edge * (1.0 + offset * GUARD_DEG / abs(theta_out))
        if abs(offset) >= 0.01:  # the first cycle is decided in phase just when r is inside
            in_boxes = all(lo <= th <= hi for th, (lo, hi) in zip(first_phases(z, phi, heading, r),
                                                                  boxes))
            assert in_boxes is (offset < 0.0)
        args = (DroneState(Vector3(0.0, 0.0, z), heading), ground_point(r, phi),
                GEOM, RF, PROFILES, gcfg, SCFG)
        assert (landing_hex_or_error(simulate_landing, *args)
                == landing_hex_or_error(reference_simulate_landing, *args))

    @pytest.mark.parametrize("poly,scale", [(PROFILES["d12"], 1.0), (PROFILES["d23"], 1.0),
                                            (PROFILES["d31"], 1.0), (GENTLE, 2e-4)],
                             ids=["d12", "d23", "d31", "gentle"])
    def test_every_phase_in_a_box_inverts_inside_the_threshold(self, poly, scale):
        # 1e-9 deg steps across both edges; the guard's proof leaves half of its 1 uV to spare
        thr = GCFG.hold_threshold_v
        lo, hi = detector._edges(poly, thr)[0]
        assert -1.2 * scale < lo < -scale and scale < hi < 1.2 * scale
        thetas = [edge + j * 1e-9 for edge in (lo, hi) for j in range(-20000, 20001)]
        inside = [theta for theta in thetas if lo <= theta <= hi]
        assert len(thetas) == 80002 and len(inside) > 40000
        worst = max(abs(voltage_from_phase(poly, theta) - poly.v_ref) for theta in inside)
        assert worst <= thr - 0.5e-6

    def test_only_a_calibrated_run_with_every_box_decides_in_phase(self):
        # an empty box, lo > hi, holds no phase
        for mode in ("ideal-sine", "triangular"):
            assert all(lo > hi for lo, hi in DETECTOR_MODES[mode](PROFILES, RF, 0.02)[2])
        # v_ref +- 1.5 V leaves every built-in's [v_lo, v_hi]: no pair has a box
        assert all(lo > hi for lo, hi in DETECTOR_MODES["calibrated"](PROFILES, RF, 1.5)[2])
        # under a 1 nV threshold a box would end inside out
        assert all(lo > hi for lo, hi in DETECTOR_MODES["calibrated"](PROFILES, RF, 1e-9)[2])

    @pytest.mark.parametrize("threshold,boxless", [(1.2, ["d31"]), (1.25, ["d23", "d31"])],
                             ids=["d31-boxless", "d23-d31-boxless"])
    def test_a_set_with_a_boxless_pair_decides_no_cycle_in_phase(self, monkeypatch, threshold,
                                                                 boxless):
        # the other pairs' boxes span about +-70 deg and hold every phase of a run that holds to
        # touchdown, but each cycle still senses and decides
        boxes = DETECTOR_MODES["calibrated"](PROFILES, RF, threshold)[2]
        assert [pair for pair, (lo, hi) in zip(detector.PAIR_IDS, boxes) if lo > hi] == boxless
        assert all(lo < -60.0 and hi > 60.0 for lo, hi in boxes if lo <= hi)
        calls = []
        core = simulator._sense

        def counting(raw, limit, laws):
            calls.append(raw)
            return core(raw, limit, laws)

        monkeypatch.setattr(simulator, "_sense", counting)
        args = (fig14_start(), ground_point(1.0, -35.0), GEOM, RF, PROFILES,
                GuidanceConfig(hold_threshold_v=threshold), SCFG)
        got = landing_hex_or_error(simulate_landing, *args)
        assert got == landing_hex_or_error(reference_simulate_landing, *args)
        assert got[1:4] == (0, True, False) and len(calls) == len(got[0]) == 299
        assert all(lo <= theta <= hi for thetas in calls
                   for theta, (lo, hi) in zip(thetas, boxes) if lo <= hi)

    @pytest.mark.parametrize("coeffs,v_ref,boxed", [
        ((0.0, 1e-2, 0.0, 1.0, 0.0, 0.0), 0.0, True),
        # p' varies 3,000,000-fold on [v_lo, v_hi], 4,000-fold on the cells around v_ref +- thr
        ((0.0, 1e-6, 0.0, 1.0, 0.0, 0.0), 0.0, False),
        # 750,000-fold on [v_lo, v_hi], 300-fold on v_ref +- thr itself
        ((0.0, 1e-3, 0.0, 249.2, 0.0, 0.0), 0.0, False),
        # at 1e9 V the rounding of p outweighs the guard band
        ((-1e9, 1.0, 0.0, 0.0, 0.0, 0.0), 1e9, False),
        # p' = 3 (1 - v)^2 + 0.003 varies 1.2-fold near v_ref, but 4,000-fold on [v_lo, v_hi]
        ((0.0, 3.003, -3.0, 1.0, 0.0, 0.0), 0.0, False),
    ], ids=["gentle", "flat-at-v_ref", "flat-near-the-edge", "far-from-0-V", "flat-near-v_hi"])
    def test_a_box_only_where_the_guard_covers_the_synthesis_error(self, coeffs, v_ref, boxed):
        poly = profile(coeffs, v_ref=v_ref, v_lo=v_ref - 1.0, v_hi=v_ref + 1.0)
        lo, hi = detector._edges(poly, 0.02)[0]
        assert (lo <= hi) is boxed

    @settings(deadline=None, max_examples=300)
    @given(coeffs=st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6),
           v_lo=st.floats(-3.0, 3.0), width=st.floats(1e-3, 3.0), at=st.floats(0.05, 0.95),
           reach=st.floats(1e-3, 1.0))
    def test_every_box_is_one_the_per_threshold_window_gave(self, coeffs, v_lo, width, at,
                                                            reach):
        # the slope range on [v_lo, v_hi] bounds p' on every window inside it: a box built
        # from it is one the window's own, narrower range also gave, bit for bit
        v_ref = v_lo + at * width
        thr = reach * width * min(at, 1.0 - at)  # up to the distance to the nearer end
        try:
            poly = profile(coeffs, v_ref, v_lo, v_lo + width, abs(detector._horner(coeffs, v_ref)))
        except CalibrationRejectedError:
            assume(False)
        box = detector._edges(poly, thr)[0]
        if box != detector._NO_BOX:
            window = window_hold_box(poly, thr)
            assert window is not None and [x.hex() for x in window] == [x.hex() for x in box]

    def test_a_run_builds_its_boxes_without_a_root_search(self, monkeypatch):
        calls = []
        roots = detector._roots

        def counting(*args):
            calls.append(args)
            return roots(*args)

        for thr in (0.02, 0.05):  # the first call builds each profile's seed table
            DETECTOR_MODES["calibrated"](PROFILES, RF, thr)
        monkeypatch.setattr(detector, "_roots", counting)
        for thr in (0.02, 0.05):
            assert DETECTOR_MODES["calibrated"](PROFILES, RF, thr)[2] is not None
        assert calls == []

    def test_a_box_stays_inside_the_calibrated_range(self):
        # 5,000 deg/V reaches +-100 deg at +-20 mV: a phase past 80 deg is still ambiguous
        steep = {pair: detector.CalibrationPolynomial(0.0, 5000.0, 0.0, 0.0, 0.0, 0.0, v_ref=0.0,
                                                      v_lo=-1.0, v_hi=1.0, max_err_deg=0.0,
                                                      pair_id=pair)
                 for pair in ("d12", "d23", "d31")}
        assert detector._edges(steep["d12"], 0.02)[0] == (-80.0, 80.0)
        inside, out = 0.0, 60.0  # the radius where the largest first phase reaches 85 deg
        for _ in range(100):
            mid = 0.5 * (inside + out)
            inside, out = (mid, out) if max(map(abs, first_phases(100.0, 20.0, 0.0, mid))) < 85.0 \
                else (inside, mid)
        args = (DroneState(Vector3(0.0, 0.0, 100.0)), ground_point(inside, 20.0), GEOM, RF,
                steep, GCFG, SCFG)
        got = landing_hex_or_error(simulate_landing, *args)
        assert got == landing_hex_or_error(reference_simulate_landing, *args)
        assert got[0] == [] and got[4].startswith("iteration 0: ")

    def test_a_phase_past_the_range_aborts_where_its_cell_would_decide(self):
        # 100 deg/V on [-1, 1] V: the seed table spans +-100 deg, so a phase of 85 deg has a
        # cell, 0.85 V from v_ref, and the other two pairs' cells order the magnitudes; the
        # cycle still aborts there, as sensing does
        wide = {pair: detector.CalibrationPolynomial(0.0, 100.0, 0.0, 0.0, 0.0, 0.0, v_ref=0.0,
                                                     v_lo=-1.0, v_hi=1.0, max_err_deg=0.0,
                                                     pair_id=pair)
                for pair in ("d12", "d23", "d31")}
        sources = DETECTOR_MODES["calibrated"](wide, RF, GCFG.hold_threshold_v)[3]
        assert all(math.isnan(bound) for source in sources for bound in source(80.5))
        inside, out = 0.0, 300.0  # the radius where the largest first phase reaches 85 deg
        for _ in range(100):
            mid = 0.5 * (inside + out)
            inside, out = (mid, out) if max(map(abs, first_phases(100.0, 20.0, 0.0, mid))) < 85.0 \
                else (inside, mid)
        args = (DroneState(Vector3(0.0, 0.0, 100.0)), ground_point(inside, 20.0), GEOM, RF,
                wide, GCFG, SCFG)
        volts, table = wide["d12"]._seed_table  # the three pairs share it; v_ref is 0 V

        def cell(theta):
            i = bisect.bisect_right(table, theta, 1, detector.SEED_TABLE_POINTS - 1)
            return volts[i - 1], volts[i]

        phases = first_phases(100.0, 20.0, 0.0, inside)
        assert max(map(abs, phases)) > 80.0
        assert guidance._rule(GCFG, *map(cell, phases), outcome_of(GCFG, [HOLD])) is not None
        got = landing_hex_or_error(simulate_landing, *args)
        assert got == landing_hex_or_error(reference_simulate_landing, *args)
        assert got[0] == [] and got[4].startswith("iteration 0: ")

    def test_records_invert_each_cycle_once(self, monkeypatch):
        calls = []

        def counting(poly, theta):
            calls.append(theta)
            return voltage_from_phase(poly, theta)

        monkeypatch.setattr(simulator, "voltage_from_phase", counting)
        result = simulate_landing(fig14_start(), ground_point(100.0, -35.0), GEOM, RF,
                                  PROFILES, GCFG, SCFG)
        in_loop = len(calls)
        first = list(result.records)
        assert in_loop < len(calls) == 3 * result.iterations
        assert list(result.records) == first
        assert result.records[result.first_hold_iteration] == first[result.first_hold_iteration]
        assert len(calls) == 3 * result.iterations


def descent(z, step, floor, n):
    """The heights of at most n landing cycles from height z, descended as the eager loop does."""
    heights = [z]
    while len(heights) < n and (z := max(z - step, min(z, floor))) > floor:
        heights.append(z)
    return heights


def hold_runs(records):
    """The lengths of a landing's runs of consecutive holds."""
    return [len(list(run)) for held, run in itertools.groupby(
        records, key=lambda r: r.maneuvers[0].kind is ManeuverKind.HOLD) if held]


def sensed_landing(monkeypatch, *args):
    """The landing's hex view, and the heights at which its loop called _phases."""
    heights = []
    core = simulator._phases

    def counting(q, geom, k):
        heights.append(-q[2])
        return core(q, geom, k)

    monkeypatch.setattr(simulator, "_phases", counting)
    result = simulate_landing(*args)
    sensed = list(heights)
    monkeypatch.undo()
    return landing_hex_or_error(lambda: result), sensed


VERTICAL_10M = (DroneState(Vector3(0.0, 0.0, 1000.0)), Vector3(0.0, 0.0, 0.0), GEOM, RF, PROFILES,
                GCFG)


class TestHoldRunsSkippedByProof:
    @settings(deadline=None, max_examples=300)
    @given(z=st.floats(1.5, 1e4), step=st.floats(1e-3, 50.0), floor=st.floats(0.5, 1.5),
           n=st.integers(1, 5000), last=st.integers(0, 5000))
    def test_the_search_returns_the_heights_up_to_the_last_proven_one(self, z, step, floor, n,
                                                                      last):
        assume(z > floor)
        want = descent(z, step, floor, n)
        edge = want[min(last, len(want) - 1)]
        probes = []

        def proven(h):
            probes.append(h)
            return h >= edge

        got = simulator._proven_run(z, step, floor, n, proven)
        assert [h.hex() for h in got] == [h.hex() for h in want[:last + 1]]
        assert set(probes) <= set(want[1:])
        assert len(probes) <= 2 * math.ceil(math.log2(len(want))) + 2

    def test_a_vertical_descent_senses_logarithmically_many_cycles(self, monkeypatch):
        args = (*VERTICAL_10M, SCFG)
        got, sensed = sensed_landing(monkeypatch, *args)
        assert got == landing_hex_or_error(reference_simulate_landing, *args)
        assert hold_runs(reference_simulate_landing(*args).records) == [999]
        assert len(sensed) <= 2 * math.ceil(math.log2(999)) + 4

    @pytest.mark.parametrize("start,beacon", [
        (DroneState(Vector3(0.0, 0.0, 1000.0), 40.0), ground_point(400.0, 25.0)),
        (fig14_start(), ground_point(100.0, -35.0)),
    ], ids=["cone-edge-10m", "reference-3m"])
    def test_each_hold_run_senses_logarithmically_many_cycles(self, monkeypatch, start, beacon):
        args = (start, beacon, GEOM, RF, PROFILES, GCFG, SCFG)
        got, sensed = sensed_landing(monkeypatch, *args)
        assert got == landing_hex_or_error(reference_simulate_landing, *args)
        result = reference_simulate_landing(*args)
        runs = hold_runs(result.records)
        assert len(runs) > 1 and max(runs) > 30
        bound = sum(2 * math.ceil(math.log2(n)) + 4 for n in runs)
        assert len(sensed) <= bound + result.iterations - sum(runs)

    @pytest.mark.parametrize("budget", [1, 2, 3, 300, 513, 998, 999, 1000])
    def test_a_budget_ending_inside_a_skipped_stretch(self, monkeypatch, budget):
        args = (*VERTICAL_10M, SimConfig(max_iterations=budget))
        got, sensed = sensed_landing(monkeypatch, *args)
        assert got == landing_hex_or_error(reference_simulate_landing, *args)
        assert len(got[0]) == min(budget, 999) and got[2] is (budget >= 999)
        assert len(sensed) <= 2 * math.ceil(math.log2(budget)) + 4

    @pytest.mark.parametrize("step,floor", [(1.0, 1.0), (0.37, 1.0), (1.0, 1.3), (0.37, 2.71)])
    def test_a_touchdown_inside_a_skipped_stretch(self, monkeypatch, step, floor):
        args = (*VERTICAL_10M, SimConfig(descent_step_cm=step, min_height_cm=floor))
        got, sensed = sensed_landing(monkeypatch, *args)
        assert got == landing_hex_or_error(reference_simulate_landing, *args)
        heights = descent(1000.0, step, floor, 10**6)
        assert len(got[0]) == len(heights) and got[1:4] == (0, True, False)
        assert got[5][2] == floor.hex()
        assert len(sensed) <= 2 * math.ceil(math.log2(len(heights))) + 4
        assert set(sensed) <= set(heights)

    @settings(deadline=None, max_examples=60)
    @given(z=st.floats(200.0, 1000.0), phi=st.floats(-180.0, 180.0),
           heading=st.floats(-180.0, 180.0), kind=st.sampled_from(["edge", "past-edge", "far"]),
           at=st.floats(0.05, 0.95), shift=st.sampled_from([0.0, 3e5, -7e8, 2e11]),
           step=st.sampled_from([1.0, 0.37, 2.5]))
    def test_landings_match_the_eager_loop_bit_for_bit(self, z, phi, heading, kind, at, shift,
                                                       step):
        # "edge": the beacon's first phase reaches its box edge on the cycle at the fraction
        # `at` of the descent, "past-edge" one ulp of the radius further out; "far": a beacon
        # at the fraction `at` of the cone's radius.  `shift` moves the drone and the beacon.
        scfg = SimConfig(descent_step_cm=step)
        if kind == "far":
            r = at * nonambiguous_range(z, phi, 80.0, GEOM, RF)
        else:
            heights = descent(z, step, scfg.min_height_cm, 10**6)
            boxes = DETECTOR_MODES["calibrated"](PROFILES, RF, GCFG.hold_threshold_v)[2]
            r = box_edge_radius(heights[int(at * len(heights))], phi, heading, boxes)[0]
            if kind == "past-edge":
                r = math.nextafter(r, math.inf)
        beacon = ground_point(r, phi)
        args = (DroneState(Vector3(shift, -shift, z), heading),
                Vector3(beacon.x + shift, beacon.y - shift, 0.0), GEOM, RF, PROFILES, GCFG, scfg)
        assert (landing_hex_or_error(simulate_landing, *args)
                == landing_hex_or_error(reference_simulate_landing, *args))

    def test_a_hold_whose_phase_wrapped_into_its_box_is_sensed(self, monkeypatch):
        # at 10 GHz k D is 840 deg: d12's raw phase of about -360 deg wraps into its box, but
        # the loop's one hold test reads raw phases, so such a hold is sensed and decided
        rf = RFConfig(1e10)
        profiles = at_frequency(PROFILES, rf.frequency_hz)
        beacon = ground_point(171.03272076093896, 60.0)
        args = (DroneState(Vector3(0.0, 0.0, 300.0)), beacon, GEOM, rf, profiles, GCFG, SCFG)
        calls = []
        core = simulator._sense

        def counting(raw, limit, laws):
            calls.append(raw)
            return core(raw, limit, laws)

        monkeypatch.setattr(simulator, "_sense", counting)
        got = landing_hex_or_error(simulate_landing, *args)
        monkeypatch.undo()
        assert got == landing_hex_or_error(reference_simulate_landing, *args)
        assert [row[-1] for row in got[0][:2]] == [("HOLD",), ("HOLD",)]
        # the loop senses rows 0 and 1 first, with d12 about -360 deg and -361 deg raw
        assert abs(calls[0][0] + 360.0) < 1e-6 and abs(calls[1][0] + 361.0) < 0.1
        # every row is sensed once, in the loop or in the records, and so is the aborting cycle
        assert got[3] and len(calls) == len(got[0]) + 1

    def test_the_margin_covers_the_wrap_of_a_phase_near_a_box_edge(self):
        # profiles of slope 1e-9 deg/V, boxes of about +-2e-11 deg, at 833 kHz: the entry
        # bound's err is about 1.7e-15 deg, under the 2 ** -45 deg the wrap may round a negative
        # phase by.  The beacon puts d12's raw phase inside its box by more than 2 err, but
        # rounding 360 + th12 carries the wrapped phase out of it, to a voltage past the
        # threshold: the cycle is no hold, and only the margin's 2 _WRAP_ROUNDING keeps the
        # loop from deciding it one in phase
        rf = RFConfig(833e3)
        profiles = {pair: detector.CalibrationPolynomial(
            0.0, 1e-9, 0.0, 0.0, 0.0, 0.0, v_ref=0.0, v_lo=-1.0, v_hi=1.0, max_err_deg=1.0,
            pair_id=pair, frequency_hz=rf.frequency_hz) for pair in detector.PAIR_IDS}
        (lo, _), *_ = DETECTOR_MODES["calibrated"](profiles, rf, GCFG.hold_threshold_v)[2]
        start, beacon = DroneState(Vector3(0.0, 0.0, 2.0)), Vector3(1.287244311143354e-09, 0.0, 0.0)
        err = simulator._check_reach(0.0, 0.0, 2.0, beacon, GCFG.move_step_cm, GEOM, rf, 80.0)
        q = simulator._body_point(0.0, 0.0, 2.0, *simulator._trig(0.0), beacon)
        th12 = simulator._phases(q, GEOM, rf.deg_per_cm)[0]
        assert lo + 2.0 * err < th12 < lo + 2.0 * (err + simulator._WRAP_ROUNDING)
        assert simulator._wrap(th12) < lo
        args = (start, beacon, GEOM, rf, profiles, GCFG, SimConfig(max_iterations=1))
        got = landing_hex_or_error(simulate_landing, *args)
        assert got == landing_hex_or_error(reference_simulate_landing, *args)
        assert got[0][0][-1] != ("HOLD",) and abs(float.fromhex(got[0][0][5])) > 0.02


def sensed_maneuvers(raw, limit, laws, gcfg, before):
    """The maneuvers the loop takes for raw phases it senses: decide's, then the seam guard's
    fall-through where they are the escape yaw opposite `before`, the previous row's."""
    return oracle.guided(simulator._sense(raw, limit, laws), gcfg, before)


def in_phase_and_sensed(raw, before=0, gcfg=GCFG, profiles=PROFILES, mode="calibrated"):
    """The loop's decision in phase for the raw phases, None or maneuvers, and the sensed one,
    after a row whose escape is `before`: -1 for a left yaw, +1 for a right one, 0 for none."""
    limit, laws, _, sources = DETECTOR_MODES[mode](profiles, RF, gcfg.hold_threshold_v)
    last = outcome_of(gcfg, {-1: [YAW_LEFT], 0: [HOLD], 1: [YAW_RIGHT]}[before])
    outcome = guidance._rule(gcfg, *(source(theta) for source, theta in zip(sources, raw)), last)
    return (None if outcome is None else list(gcfg._outcomes[outcome][0]),
            sensed_maneuvers(raw, limit, laws, gcfg, before))


def ulps(x, n):
    """The 2 n + 1 floats from n ulps below x to n ulps above it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def wrapped_ulps(theta, n):
    """The 2 n + 1 wrapped phases nearest theta in (-180, 180], each its own wrap: a negative
    phase wraps through 360 + theta, so those are the floats 360 + theta rounds to, less 360."""
    if theta >= 0.0:
        return ulps(theta, n)
    return [turn - 360.0 for turn in ulps(theta + 360.0, n)]


def with_phase(raw, j, theta):
    return tuple(theta if k == j else th for k, th in enumerate(raw))


#: a set whose d23 and d31 are d12's polynomial: equal phases give equal voltages
TWINS = {pair: dataclasses.replace(TABLE2_D12, pair_id=pair) for pair in detector.PAIR_IDS}


class TestTrackingDecidedInPhase:
    @pytest.mark.parametrize("start,beacon", [
        (DroneState(Vector3(0.0, 0.0, 1000.0), 40.0), ground_point(400.0, 25.0)),
        (fig14_start(), ground_point(100.0, -35.0)),
    ], ids=["cone-edge-10m", "reference-3m"])
    def test_the_reference_landings_sense_no_cycle_in_the_loop(self, monkeypatch, start, beacon):
        calls = []
        core = simulator._sense

        def counting(raw, limit, laws):
            calls.append(raw)
            return core(raw, limit, laws)

        monkeypatch.setattr(simulator, "_sense", counting)
        result = simulate_landing(start, beacon, GEOM, RF, PROFILES, GCFG, SCFG)
        assert result.converged and result.iterations > 200 and calls == []
        records = list(result.records)
        assert len(calls) == result.iterations
        assert any(r.maneuvers[0].kind is not ManeuverKind.HOLD for r in records)

    @settings(deadline=None, max_examples=500)
    @given(thetas=st.tuples(*[st.one_of(st.floats(-80.0, 80.0), st.floats(-2.0, 2.0))] * 3),
           turns=st.tuples(*[st.integers(-2, 2)] * 3), before=st.sampled_from([-1, 0, 1]),
           threshold=st.sampled_from([0.005, 0.02, 0.2]))
    def test_a_decision_in_phase_is_the_sensed_one(self, thetas, turns, before, threshold):
        raw = tuple(th + 360.0 * n for th, n in zip(thetas, turns))
        got, want = in_phase_and_sensed(raw, before, GuidanceConfig(hold_threshold_v=threshold))
        assert got is None or got == want

    @settings(deadline=None, max_examples=200)
    @given(thetas=st.tuples(*[st.floats(-1.02, 1.02)] * 3), before=st.sampled_from([-1, 0, 1]))
    def test_a_decision_in_phase_is_the_sensed_one_on_cells_across_0_volts(self, thetas,
                                                                           before):
        # GENTLE's v_ref is 0 V, so the cell around it straddles 0 V and rounds to both sides
        gentle = {pair: dataclasses.replace(GENTLE, pair_id=pair, frequency_hz=RF.frequency_hz)
                  for pair in detector.PAIR_IDS}
        got, want = in_phase_and_sensed(thetas, before, profiles=gentle)
        assert got is None or got == want

    def test_most_tracking_cycles_decide_in_phase(self):
        rng = random.Random(20261020)
        decided = 0
        for _ in range(2000):
            raw = tuple(rng.uniform(-80.0, 80.0) for _ in range(3))
            got, want = in_phase_and_sensed(raw, rng.choice([-1, 0, 1]))
            assert got is None or got == want
            decided += got is not None
        assert decided > 1900

    @pytest.mark.parametrize("poly", [PROFILES["d12"], PROFILES["d23"], PROFILES["d31"], GENTLE],
                             ids=["d12", "d23", "d31", "gentle"])
    def test_every_phase_past_an_edge_inverts_past_its_voltage(self, poly):
        # 1e-9 deg steps out from each zero and hold edge; the guard's proof leaves half of
        # its 1 uV to spare
        thr = GCFG.hold_threshold_v
        _, (zero_lo, zero_hi), (hold_lo, hold_hi) = detector._edges(poly, thr)
        for edge, outward, past in ((zero_lo, -1.0, 0.0), (zero_hi, 1.0, 0.0),
                                    (hold_lo, -1.0, thr), (hold_hi, 1.0, thr)):
            least = min(outward * (voltage_from_phase(poly, edge + outward * j * 1e-9) - poly.v_ref)
                        for j in range(1, 5001))
            assert least >= past + 0.5e-6

    @pytest.mark.parametrize("j,companions,before", [
        (0, (0.0, 30.0, -30.0), 0),  # sector 1: tracking reads v12's sign
        (1, (30.0, 0.0, -30.0), 1),  # sector 2 after a right escape: the fall-through reads v23's
    ], ids=["v12", "v23"])
    def test_a_sign_is_decided_just_past_its_guarded_edges(self, j, companions, before):
        pair = detector.PAIR_IDS[j]
        poly = PROFILES[pair]
        _, (zero_lo, zero_hi), _ = detector._edges(poly, GCFG.hold_threshold_v)
        volts, phases = poly._seed_table
        i = bisect.bisect_right(phases, zero_hi, 1, detector.SEED_TABLE_POINTS - 1)
        assert volts[i - 1] < poly.v_ref < volts[i] and phases[i - 1] < zero_lo < zero_hi < phases[i]
        # inside the edges, those of no guard at p(v_ref) included, the sign is not decided
        inside = [*wrapped_ulps(zero_lo, 4), *wrapped_ulps(poly.evaluate(poly.v_ref), 64),
                  *wrapped_ulps(zero_hi, 4)]
        for theta in [th for th in inside if zero_lo <= th <= zero_hi]:
            assert in_phase_and_sensed(with_phase(companions, j, theta), before)[0] is None
        past = [th for th in inside if not zero_lo <= th <= zero_hi]
        assert len(past) >= 8
        for theta in past:
            got, want = in_phase_and_sensed(with_phase(companions, j, theta), before)
            assert got == want and [m.kind for m in got][1:] == [
                ManeuverKind.FORWARD if j == 0 or theta > zero_hi else ManeuverKind.BACKWARD]

    @pytest.mark.parametrize("threshold", [0.02, 0.05])
    @pytest.mark.parametrize("j", [0, 1, 2], ids=detector.PAIR_IDS)
    def test_no_hold_is_decided_just_past_the_guarded_outer_edges(self, j, threshold):
        gcfg = GuidanceConfig(hold_threshold_v=threshold)
        poly = PROFILES[detector.PAIR_IDS[j]]
        edges = [detector._edges(PROFILES[pair], threshold) for pair in detector.PAIR_IDS]
        hold_lo, hold_hi = edges[j][2]
        # companions inside their hold edges, chosen so that the rest decides once phase j
        # lies past its edges
        grid = [[lo + (hi - lo) * t / 24.0 for t in range(1, 24)] for _, _, (lo, hi) in edges]
        candidates = (raw for raw in itertools.product(*grid)
                      if all(in_phase_and_sensed(with_phase(raw, j, past), 0, gcfg)[0]
                             for past in (hold_lo - 1e-3, hold_hi + 1e-3)))
        companions = next(candidates)
        v_ref, thr = poly.v_ref, threshold
        # inside the edges, the unguarded p(v_ref +- thr) included, a hold is not ruled out
        near = [*wrapped_ulps(hold_lo, 4), *wrapped_ulps(poly.evaluate(v_ref - thr), 64),
                *wrapped_ulps(poly.evaluate(v_ref + thr), 64), *wrapped_ulps(hold_hi, 4)]
        for theta in [th for th in near if hold_lo <= th <= hold_hi]:
            assert in_phase_and_sensed(with_phase(companions, j, theta), 0, gcfg)[0] is None
        past = [th for th in near if not hold_lo <= th <= hold_hi]
        assert len(past) >= 8
        for theta in past:
            got, want = in_phase_and_sensed(with_phase(companions, j, theta), 0, gcfg)
            assert got == want and got[0].kind is not ManeuverKind.HOLD

    @pytest.mark.parametrize("j", [0, 1, 2], ids=detector.PAIR_IDS)
    def test_decisions_at_cell_boundaries_are_the_sensed_ones(self, j):
        # each phase one ulp either side of every eighth table phase, against companions
        # near each of them
        _, phases = PROFILES[detector.PAIR_IDS[j]]._seed_table
        decided = 0
        for i in range(1, detector.SEED_TABLE_POINTS - 1, 8):
            for theta in wrapped_ulps(phases[i], 1):
                for companion in (-40.0, -0.5, 3.0, theta, 60.0):
                    for before in (-1, 0, 1):
                        raw = with_phase((companion, -companion, companion), j, theta)
                        got, want = in_phase_and_sensed(raw, before)
                        assert got is None or got == want
                        decided += got is not None
        assert decided > 400

    @pytest.mark.parametrize("i", [130, 180, 220])
    def test_magnitudes_tied_at_a_cell_end_decide_as_classify_sector_does(self, i):
        # with TWINS a phase one ulp under a table phase and one on it share the cell end
        # between them: |v12| <= |v23| ties to sector 1, |v23| >= |v31| to sector 3
        _, phases = TWINS["d12"]._seed_table
        under, on, far = math.nextafter(phases[i], -math.inf), phases[i], 75.0
        for raw, major in (((under, on, far), 1), ((far, on, under), 3)):
            for before in (-1, 0, 1):
                got, want = in_phase_and_sensed(raw, before, profiles=TWINS)
                assert got is not None and got == want
            v = simulator._sense(raw, 80.0, DETECTOR_MODES["calibrated"](TWINS, RF, 0.02)[1])
            assert classify_sector(v).major == major
        # equal phases give equal magnitudes, which no bracket orders
        for raw in ((on, on, far), (far, on, on), (under, under, under)):
            assert in_phase_and_sensed(raw, profiles=TWINS)[0] is None

    @pytest.mark.parametrize("mode,threshold", [
        ("calibrated", 1.2), ("calibrated", 1.5), ("calibrated", 1e-6), ("calibrated", 1e-9),
        ("ideal-sine", 0.02), ("triangular", 0.02),
    ], ids=["d31-boxless", "boxless", "1-uV", "1-nV", "ideal-sine", "triangular"])
    def test_every_mode_s_decision_in_phase_is_the_sensed_one(self, mode, threshold):
        # the pairs without edges, where v_ref +- thr leaves [v_lo, v_hi] or thr <= 1 uV,
        # decide on their cells alone, and the ideal laws on their exact voltages
        gcfg = GuidanceConfig(hold_threshold_v=threshold)
        rng = random.Random(20261021)
        decided = tracked = 0
        for _ in range(500):
            raw = tuple(rng.uniform(-80.0, 80.0) + 360.0 * rng.randint(-1, 1) for _ in range(3))
            got, want = in_phase_and_sensed(raw, rng.choice([-1, 0, 1]), gcfg, mode=mode)
            assert got is None or got == want
            decided += got is not None
            tracked += want[0].kind is not ManeuverKind.HOLD
        if mode == "calibrated":  # a hold is decided on exact voltages alone
            assert decided >= 0.9 * tracked
        else:
            assert decided == 500

    @pytest.mark.parametrize("threshold", [5e-7, 1e-6])
    def test_under_the_guard_the_cells_decide_as_the_sensed_loop(self, threshold):
        args = (fig14_start(), ground_point(100.0, -35.0), GEOM, RF, PROFILES,
                GuidanceConfig(hold_threshold_v=threshold), SimConfig(max_iterations=150))
        got = landing_hex_or_error(simulate_landing, *args)
        assert got == landing_hex_or_error(reference_simulate_landing, *args)

    @pytest.mark.parametrize("mode", ["ideal-sine", "triangular"])
    def test_an_ideal_landing_senses_no_cycle_in_the_loop(self, monkeypatch, mode):
        calls = []
        core = simulator._sense

        def counting(raw, limit, laws):
            calls.append(raw)
            return core(raw, limit, laws)

        args = (DroneState(Vector3(0.0, 0.0, 200.0)), ground_point(40.0, -35.0), GEOM, RF,
                PROFILES, GCFG, SimConfig(detector_mode=mode))
        monkeypatch.setattr(simulator, "_sense", counting)
        result = simulate_landing(*args)
        assert result.converged and result.iterations > 100 and calls == []
        assert any(r.maneuvers[0].kind is not ManeuverKind.HOLD for r in result.records)
        monkeypatch.undo()
        assert (landing_hex_or_error(simulate_landing, *args)
                == landing_hex_or_error(reference_simulate_landing, *args))


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

    @pytest.mark.parametrize("z_cm,y_range_cm", [
        (1000.0, 9e307),  # 2 * span is inf
        (1e308, 1e308),
        (1.79e308, 8e307),  # the distances are inf
    ])
    def test_rejects_extent_that_overflows(self, z_cm, y_range_cm):
        with pytest.raises(InvalidParameterError, match=TOO_FAR):
            worst_case_transect(z_cm, y_range_cm, GEOM, RF, PROFILES, n_samples=2)

    def test_height_at_the_float_limit_keeps_its_rows(self):
        # every distance is finite, but its rounding could shift a phase by the whole range
        with pytest.raises(InvalidParameterError, match=TOO_FAR + "1.79e[+]308 cm"):
            worst_case_transect(1.79e308, 1.0, GEOM, RF, PROFILES, n_samples=3)

    def test_a_phase_at_the_range_edge_is_not_ambiguous(self, monkeypatch):
        edge = PhaseSolution(0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                             0.0, CALIBRATED_RANGE_DEG, -CALIBRATED_RANGE_DEG)
        monkeypatch.setattr(simulator, "phase_solution", lambda geom, landing, rf: edge)
        rows = worst_case_transect(1000.0, 700.0, GEOM, RF, PROFILES, n_samples=3)
        v23 = voltage_from_phase(PROFILES["d23"], 80.0) - PROFILES["d23"].v_ref
        v31 = voltage_from_phase(PROFILES["d31"], -80.0) - PROFILES["d31"].v_ref
        assert CALIBRATED_RANGE_DEG == 80.0 and math.isfinite(v23) and math.isfinite(v31)
        assert all((r.th23, r.th31, r.v23, r.v31, r.ambiguous) == (80.0, -80.0, v23, v31, False)
                   for r in rows)

    def test_each_row_reads_what_sense_reads_over_the_beacon(self):
        # row y is the drone at (0, y, z), heading 0, over the beacon at the origin
        z, beacon = 1000.0, Vector3(0.0, 0.0, 0.0)
        rows = worst_case_transect(z, 700.0, GEOM, RF, PROFILES, n_samples=15)
        assert {r.ambiguous for r in rows} == {False, True}
        for r in rows:
            state = DroneState(Vector3(0.0, r.y_cm, z), 0.0)
            sol = phase_solution(GEOM, landing_body_frame(state, beacon), RF)
            assert (r.th23, r.th31) == (wrap_angle_deg(sol.th23), wrap_angle_deg(sol.th31))
            try:
                v = sense(state, beacon, GEOM, RF, PROFILES)
            except PhaseAmbiguityError:
                assert r.ambiguous
            else:
                assert not r.ambiguous and (r.v23, r.v31) == (v.v23, v.v31)

    def test_default_sample_count(self):
        rows = worst_case_transect(1000.0, 700.0, GEOM, RF, PROFILES)
        assert [r.y_cm for r in rows[:2]] == [-700.0, -693.0] and len(rows) == 201

    def test_rejects_a_last_sample_position_that_overflows(self):
        # 2 * span is finite, but the last row's 2 * span * (n_samples - 1) is not
        with pytest.raises(InvalidParameterError, match=TOO_FAR + "inf cm"):
            worst_case_transect(1000.0, 5e307, GEOM, RF, PROFILES, n_samples=3)

    @pytest.mark.parametrize("n_samples", [2 ** 1023 + 1, 10 ** 400], ids=["float", "past-float"])
    def test_rejects_a_sample_count_too_large_to_resolve(self, n_samples):
        # n - 1 as a float would overflow; the entry bound caps it at 2 ** 63, the most rows
        # a list holds, and 2 y_range 2 ** 63 is still too far to resolve
        with pytest.raises(InvalidParameterError, match=TOO_FAR):
            worst_case_transect(1000.0, 1.0, GEOM, RF, PROFILES, n_samples=n_samples)

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
