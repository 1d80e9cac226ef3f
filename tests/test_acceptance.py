"""Acceptance suite: one check per published result, one PASS/FAIL line each.

Run under pytest (`pytest tests/test_acceptance.py -v -s`) or standalone
(`python tests/test_acceptance.py`).  Checks 1 and 2 carry runtime budgets.

Check 9 pins the transect phase curve to the plane-wave law
theta23 = -(360 f / c) * (sqrt(3)/2) * D * y / sqrt(y^2 + z^2): the exact
curve must follow it, and its sag from the endpoint chord must match the
law's own sag (about 3.4 degrees at z = 10 m), both to within the first
neglected near-field term.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from triphase.detector import (
    MeasurementSample,
    TABLE2_D12,
    TABLE2_D23,
    TABLE2_D31,
    builtin_profile_set,
    fit_calibration,
    ideal_sine_voltage,
    phase_from_voltage,
    voltage_from_phase,
)
from triphase.geometry import (
    SPEED_OF_LIGHT_MPS,
    RFConfig,
    Vector3,
    cone_profile,
    landing_point,
    phase_solution,
    receiver_points,
)
from triphase.guidance import GuidanceConfig, ManeuverKind, VoltageTriple, classify_sector, decide
from triphase.simulator import DroneState, SimConfig, sense, simulate_landing, worst_case_transect

from sector_oracle import expected_sector_from_azimuth

GEOM = receiver_points(7.0)
RF245 = RFConfig(2.45e9)
RF246 = RFConfig(2.46e9)
PROFILES = builtin_profile_set()

TABLE1_IN_RANGE = {
    "d12": [(-80, 0.223), (-70, 0.302), (0, 1.533), (0, 1.533), (70, 2.756), (80, 2.837)],
    "d23": [(-80, 0.299), (-70, 0.399), (0, 1.610), (-4, 1.571), (70, 2.814), (80, 2.873)],
    "d31": [(-80, 0.266), (-70, 0.303), (0, 1.443), (7, 1.577), (70, 2.691), (80, 2.796)],
}


@contextmanager
def criterion(cid, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid:>2}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {cid:>2}: PASS - {label}")


def ground_point(r_cm, phi_deg):
    p = landing_point(r_cm, phi_deg, 1.0)
    return Vector3(p.x, p.y, 0.0)


def test_criterion_01_zero_sum_identity():
    with criterion(1, "zero-sum of path differences and phase shifts, 1000 random draws"):
        rng = random.Random(101)
        t0 = time.perf_counter()
        for _ in range(1000):
            geom = receiver_points(rng.uniform(1.0, 20.0))
            rf = RFConfig(rng.uniform(0.4e9, 6.0e9))
            sol = phase_solution(geom, landing_point(
                rng.uniform(0.0, 2000.0), rng.uniform(-180.0, 180.0),
                rng.uniform(10.0, 3000.0)), rf)
            assert abs(sol.dd12 + sol.dd23 + sol.dd31) <= 1e-9
            assert abs(sol.th12 + sol.th23 + sol.th31) <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_02_cone_extrema_90deg():
    with criterion(2, "non-ambiguity cone extrema 486/585 cm at 2.45 GHz, 90 deg, 10 m"):
        t0 = time.perf_counter()
        radii = [r for _, _, r in cone_profile([1000.0], 90.0, GEOM, RF245, n_azimuths=24)]
        assert min(radii) == pytest.approx(486.0, rel=0.02), f"worst case {min(radii):.1f}"
        assert max(radii) == pytest.approx(585.0, rel=0.02), f"best case {max(radii):.1f}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_03_cone_extrema_80deg():
    with criterion(3, "non-ambiguity cone extrema 419/500 cm at 2.46 GHz, 80 deg, 10 m"):
        radii = [r for _, _, r in cone_profile([1000.0], 80.0, GEOM, RF246, n_azimuths=24)]
        assert min(radii) == pytest.approx(419.0, rel=0.02), f"worst case {min(radii):.1f}"
        assert max(radii) == pytest.approx(500.0, rel=0.02), f"best case {max(radii):.1f}"


def test_criterion_04_azimuth_sweep_features():
    with criterion(4, "sweep null at phi=0 and 10-degree sector-boundary crossing"):
        sol0 = phase_solution(GEOM, landing_point(10.0, 0.0, 100.0), RF245)
        assert abs(sol0.th12) <= 1e-9
        # locate the |th12| = |th31| crossing near +30 deg
        lo, hi = 20.0, 40.0
        def gap(phi):
            s = phase_solution(GEOM, landing_point(10.0, phi, 100.0), RF245)
            return abs(s.th12) - abs(s.th31)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if gap(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        s = phase_solution(GEOM, landing_point(10.0, lo, 100.0), RF245)
        assert abs(s.th12) == pytest.approx(10.0, abs=2.0), f"crossing at {abs(s.th12):.2f} deg"


def test_criterion_05_calibration_cross_validation():
    with criterion(5, "measured rows reproduced by the calibration polynomials"):
        for pair, poly in (("d12", TABLE2_D12), ("d23", TABLE2_D23), ("d31", TABLE2_D31)):
            for theta, volts in TABLE1_IN_RANGE[pair]:
                got = poly.evaluate(volts)
                assert got == pytest.approx(theta, abs=poly.max_err_deg + 0.2), \
                    f"{pair} at {volts} V: {got:.2f} vs {theta}"
        anchor = TABLE2_D12.evaluate(1.533)
        assert -0.9 <= anchor <= 0.9, f"zero-phase anchor {anchor:.3f}"


def test_criterion_06_detector_inversion():
    with criterion(6, "phase->voltage->phase round trip within 0.01 deg, monotone maps"):
        for poly in (TABLE2_D12, TABLE2_D23, TABLE2_D31):
            for theta in range(-80, 81):
                v = voltage_from_phase(poly, float(theta))
                back = phase_from_voltage(poly, v)
                assert back == pytest.approx(theta, abs=0.01), \
                    f"{poly.pair_id} at {theta}: {back:.4f}"
            v = poly.v_lo
            prev = poly.evaluate(v)
            while v < poly.v_hi:
                v += 0.001
                cur = poly.evaluate(v)
                assert cur > prev, f"{poly.pair_id} non-monotone at {v:.3f} V"
                prev = cur


def test_criterion_07_reference_landing_run():
    with criterion(7, "reference landing: voltage snapshots, decision sequence, convergence"):
        start = DroneState(Vector3(0.0, 0.0, 300.0), 0.0)
        target = ground_point(100.0, -35.0)
        v0 = sense(start, target, GEOM, RF246, PROFILES)
        assert v0.v12 == pytest.approx(0.72, abs=0.05)
        assert v0.v23 == pytest.approx(0.53, abs=0.05)
        assert v0.v31 == pytest.approx(-1.08, abs=0.05)

        cfg = GuidanceConfig()
        snapshots = [
            (VoltageTriple(0.72, 0.53, -1.08), ["YAWL60"]),
            (VoltageTriple(-0.38, 1.00, 0.69), ["ROTR1", "FWD1"]),
            (VoltageTriple(0.00, 0.50, -0.51), ["ROTL1", "FWD1"]),
            (VoltageTriple(0.00, 0.01, -0.02), ["HOLD"]),
        ]
        for triple, want in snapshots:
            got = [m.token for m in decide(triple, cfg)]
            assert got == want, f"decide{triple.as_tuple} -> {got}, wanted {want}"

        result = simulate_landing(start, target, GEOM, RF246, PROFILES, cfg, SimConfig())
        assert result.records[0].maneuvers[0].token == "YAWL60"
        assert result.converged, "run did not converge"
        holds = [r for r in result.records if r.maneuvers[0].kind is ManeuverKind.HOLD]
        assert holds and holds[-1].voltages.max_abs < cfg.hold_threshold_v


def test_criterion_08_near_edge_landings_converge():
    with criterion(8, "near-sector-edge landing points all converge above the beacon"):
        cfg, sim = GuidanceConfig(move_step_cm=1.0, rotate_step_deg=1.0), SimConfig()
        for phi in (28.0, 93.0, -88.0, -148.0):
            start = DroneState(Vector3(0.0, 0.0, 300.0), 0.0)
            target = ground_point(100.0, phi)
            result = simulate_landing(start, target, GEOM, RF246, PROFILES, cfg, sim)
            assert result.converged, f"phi={phi} did not converge"
            assert result.first_hold_iteration < result.records[-1].iteration
            final = result.final_state.position
            err = math.hypot(final.x - target.x, final.y - target.y)
            assert err <= 2.0 * cfg.move_step_cm, f"phi={phi}: touchdown error {err:.2f} cm"


def test_criterion_09_worst_case_transect():
    with criterion(9, "transect: null symmetric pair, 80 deg at 5 m, plane-wave law and chord sag"):
        rows = worst_case_transect(1000.0, 600.0, GEOM, RF246, PROFILES, n_samples=1201)
        assert all(r.th12 == 0.0 for r in rows)

        def th23_at(y):
            return phase_solution(GEOM, Vector3(0.0, -y, -1000.0), RF246).th23

        lo, hi = 100.0, 599.0  # |th23| rises monotonically along the ray
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if abs(th23_at(mid)) < 80.0:
                lo = mid
            else:
                hi = mid
        assert lo == pytest.approx(500.0, abs=15.0), f"80-degree point at {lo:.1f} cm"

        chord_slope = th23_at(500.0) / 500.0
        worst = max(abs(th23_at(y) - chord_slope * y) for y in range(-500, 501, 5))

        # Plane-wave law from the paper's theta = (2f/c) * dd * 180 deg with
        # dd23 = (sqrt(3)/2) * D * sin(alpha); computed here from D, f, c and z
        # alone.  The tolerance is the first neglected term of the distance
        # expansion, R^2 / (2r) with circumradius R = D / sqrt(3).
        d_cm, f_hz, c_mps, z_cm = 7.0, 2.46e9, SPEED_OF_LIGHT_MPS, 1000.0
        deg_per_cm = 360.0 * f_hz / (c_mps * 100.0)
        tol = deg_per_cm * d_cm ** 2 / (6.0 * z_cm)

        def th23_pw(y):
            return -deg_per_cm * (math.sqrt(3.0) / 2.0) * d_cm * y / math.hypot(y, z_cm)

        law_dev = max(abs(th23_at(y) - th23_pw(y)) for y in range(-500, 501, 5))
        assert law_dev <= tol, (
            f"transect deviates {law_dev:.3f} deg from the plane-wave law; "
            f"expected <= {tol:.3f} deg")
        pw_slope = th23_pw(500.0) / 500.0
        pw_sag = max(abs(th23_pw(y) - pw_slope * y) for y in range(-500, 501, 5))
        assert worst == pytest.approx(pw_sag, abs=tol), (
            f"chord sag over |y|<=500 cm is {worst:.2f} deg; "
            f"the plane-wave law gives {pw_sag:.2f} +- {tol:.2f} deg")


def test_criterion_10_guidance_oracle_agreement():
    with criterion(10, "sector classifier agrees with the 60-degree azimuth oracle"):
        boundaries = (-150.0, -90.0, -30.0, 30.0, 90.0, 150.0)
        for phi_int in range(-180, 181):
            phi = float(phi_int)
            if any(abs(phi - b) <= 1.0 for b in boundaries):
                continue
            sol = phase_solution(GEOM, landing_point(10.0, phi, 100.0), RF245)
            v = VoltageTriple(*(ideal_sine_voltage(t) for t in sol.phases))
            assert classify_sector(v) == expected_sector_from_azimuth(phi), f"phi={phi}"


def test_criterion_11_fit_recovery():
    with criterion(11, "noise-free quintic fit recovers coefficients to 1e-6, refit idempotent"):
        source = TABLE2_D12.coeffs
        def f(v):
            acc = 0.0
            for c in reversed(source):
                acc = acc * v + c
            return acc
        volts = [0.25, 0.55, 0.9, 1.25, 1.6, 1.95, 2.3, 2.6, 2.8]
        fitted = fit_calibration([MeasurementSample(f(v), v) for v in volts], degree=5)
        for got, want in zip(fitted.coeffs, source):
            assert got == pytest.approx(want, rel=1e-6)
        refit = fit_calibration(
            [MeasurementSample(fitted.evaluate(v), v) for v in volts], degree=5)
        for got, want in zip(refit.coeffs, fitted.coeffs):
            assert got == pytest.approx(want, rel=1e-6)


if __name__ == "__main__":
    import sys
    import traceback

    failures = 0
    for name, fn in sorted((k, v) for k, v in globals().items()
                           if k.startswith("test_criterion_")):
        try:
            fn()
        except BaseException:
            failures += 1
            traceback.print_exc()
    sys.exit(1 if failures else 0)
