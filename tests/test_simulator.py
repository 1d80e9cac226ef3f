import io
import math
import random

import pytest
from hypothesis import given, strategies as st

from triphase.detector import builtin_profile_set
from triphase.errors import InvalidParameterError, PhaseAmbiguityError
from triphase.geometry import (
    LandingScenario,
    RFConfig,
    Vector3,
    landing_point_world,
    nonambiguous_range,
    phase_solution,
    receiver_points,
)
from triphase.guidance import GuidanceConfig, Maneuver, ManeuverKind
from triphase.simulator import (
    DroneState,
    SimConfig,
    apply_maneuver,
    landing_body_frame,
    sense,
    simulate_landing,
    worst_case_transect,
    write_trajectory_csv,
)

GEOM = receiver_points(7.0)
RF = RFConfig(2.46e9, 3e8)
PROFILES = builtin_profile_set()
GCFG = GuidanceConfig()
SCFG = SimConfig()


def ground_point(r_cm, phi_deg):
    p = landing_point_world(LandingScenario(r_cm, phi_deg, 1.0))
    return Vector3(p.x, p.y, 0.0)


def fig14_start():
    return DroneState(Vector3(0.0, 0.0, 300.0), 0.0)


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
        with pytest.raises(InvalidParameterError):
            DroneState(Vector3(0.0, 0.0, 0.0), 0.0)
