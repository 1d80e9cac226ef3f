import contextlib
import math
import random
import re
import signal

import pytest
from hypothesis import example, given, settings, strategies as st

from triphase import geometry
from triphase.errors import (
    DegenerateGeometryError,
    InvalidParameterError,
    RangeUnboundedError,
    TriphaseError,
)
from triphase.geometry import (
    SPEED_OF_LIGHT_MPS,
    PhaseSolution,
    ReceiverGeometry,
    RFConfig,
    Vector3,
    azimuth_sweep,
    cone_profile,
    landing_point,
    nonambiguous_range,
    phase_solution,
    receiver_points,
)

from sector_oracle import peak_phase, wrap_angle_deg

RF245 = RFConfig(2.45e9)
RF246 = RFConfig(2.46e9)
GEOM7 = receiver_points(7.0)


def xyz(v):
    return (v.x, v.y, v.z)


def reference_phase_solution(geom, landing, rf):
    """The phase law on objects: math.dist from the landing point to each input."""
    d1 = math.dist(xyz(landing), xyz(geom.p1))
    d2 = math.dist(xyz(landing), xyz(geom.p2))
    d3 = math.dist(xyz(landing), xyz(geom.p3))
    if min(d1, d2, d3) <= 0.0:
        raise DegenerateGeometryError("landing point coincides with a receiver input")
    dd12, dd23, dd31 = d1 - d2, d2 - d3, d3 - d1
    c_cm = SPEED_OF_LIGHT_MPS * 100.0
    k = rf.deg_per_cm
    return PhaseSolution(
        dd12=dd12, dd23=dd23, dd31=dd31,
        dt12=dd12 / c_cm, dt23=dd23 / c_cm, dt31=dd31 / c_cm,
        th12=k * dd12, th23=k * dd23, th31=k * dd31,
    )


def reference_landing_point(r, phi_deg, z):
    """The beacon below the drone at radius r, azimuth phi_deg and height z, written out."""
    phi = math.radians(wrap_angle_deg(phi_deg))
    return Vector3(r * math.sin(phi), r * math.cos(phi), -z)


def reference_nonambiguous_range(z_cm, phi_deg, theta_limit_deg, geom, rf):
    """The ray search with a landing point and a PhaseSolution per radius.

    The arguments are taken to be valid; only the search and its errors are reproduced.
    """
    z, limit = float(z_cm), float(theta_limit_deg)
    ceiling = 100.0 * z

    def max_abs_phase(r):
        landing = reference_landing_point(r, phi_deg, z)
        return peak_phase(reference_phase_solution(geom, landing, rf))

    step = z / 100.0
    r_prev, f_prev = 0.0, 0.0
    r = step
    while True:
        f = max_abs_phase(r)
        if f < f_prev - 1e-9:
            raise RangeUnboundedError("not monotone")
        if f >= limit:
            break
        if r > ceiling:
            raise RangeUnboundedError("no crossing")
        r_prev, f_prev = r, f
        r += step

    lo, hi = r_prev, r
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        if max_abs_phase(mid) < limit:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_azimuth_sweep(r_cm, z_cm, geom, rf, n_samples):
    """The sweep with a landing point and a PhaseSolution per sample."""
    step = 360.0 / (n_samples - 1)
    rows = []
    for k in range(n_samples):
        phi = -180.0 + k * step
        landing = reference_landing_point(float(r_cm), phi, float(z_cm))
        sol = reference_phase_solution(geom, landing, rf)
        rows.append((phi, sol.th12, sol.th23, sol.th31))
    return rows


def reference_cone_profile(z_list, theta_limit_deg, geom, rf, n_azimuths):
    """The cone as a per-ray loop: nonambiguous_range for each (z, phi) in row order."""
    return [(z, phi, nonambiguous_range(z, phi, theta_limit_deg, geom, rf))
            for z in sorted(z_list)
            for phi in (-180.0 + (j + 1) * 360.0 / n_azimuths for j in range(n_azimuths))]


def rows_or_error(cone, *args):
    """A cone's rows as exact hex, or the class and message of the TriphaseError it raised."""
    try:
        return [tuple(v.hex() for v in row) for row in cone(*args)]
    except TriphaseError as exc:
        return type(exc), str(exc)


def radius_or_error(search, *args):
    """A search's radius as exact hex, or the class of the TriphaseError it raised."""
    try:
        return search(*args).hex()
    except TriphaseError as exc:
        return type(exc)


FREQ_HZ = st.floats(1e9, 6e9)
SPACING_CM = st.floats(2.0, 15.0)


class TestReceiverPoints:
    def test_forward_point_matches_circumradius(self):
        # oracle: D / (2 cos 30 deg)
        geom = receiver_points(7.0)
        expected = 7.0 / (2.0 * math.cos(math.radians(30.0)))
        assert geom.p3.x == 0.0
        assert geom.p3.y == pytest.approx(expected, abs=1e-12)
        assert geom.p3.y == pytest.approx(4.0415, abs=1e-4)

    def test_first_point_matches_half_spacing_and_apothem(self):
        geom = receiver_points(7.0)
        assert geom.p1.x == pytest.approx(3.5, abs=1e-12)
        assert geom.p1.y == pytest.approx(-(7.0 / 2.0) * math.tan(math.radians(30.0)), abs=1e-12)
        assert geom.p1.y == pytest.approx(-2.0207, abs=1e-4)

    def test_centroid_is_exactly_origin(self):
        for d in (0.5, 3.0, 7.0, 42.0):
            geom = receiver_points(d)
            assert geom.p1.x + geom.p2.x + geom.p3.x == 0.0
            assert geom.p1.y + geom.p2.y + geom.p3.y == 0.0

    def test_equilateral_within_tolerance(self):
        rng = random.Random(7)
        for _ in range(50):
            d = rng.uniform(0.1, 50.0)
            geom = receiver_points(d)
            assert math.dist(xyz(geom.p1), xyz(geom.p2)) == pytest.approx(d, abs=1e-9)
            assert math.dist(xyz(geom.p2), xyz(geom.p3)) == pytest.approx(d, abs=1e-9)
            assert math.dist(xyz(geom.p3), xyz(geom.p1)) == pytest.approx(d, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_spacing(self, bad):
        with pytest.raises(InvalidParameterError):
            receiver_points(bad)

    @pytest.mark.parametrize("d", [0.5, 7.0, 12.3, 1e-3])
    def test_points_are_the_written_out_expressions(self, d):
        half, apothem = d / 2.0, d / (2.0 * math.sqrt(3.0))
        want = [(half, -apothem, 0.0), (-half, -apothem, 0.0), (0.0, 2.0 * apothem, 0.0)]
        geom = ReceiverGeometry(d)
        assert geom == receiver_points(d)
        assert [[v.hex() for v in p] for p in geom.coords] == [[v.hex() for v in p] for p in want]

    def test_points_are_not_parameters(self):
        # the triangle is a function of its side: the k*D range bound relies on it
        geom = receiver_points(7.0)
        with pytest.raises(TypeError):
            ReceiverGeometry(1.0, geom.p1, geom.p2, geom.p3)
        with pytest.raises(TypeError):
            ReceiverGeometry(spacing_cm=1.0, p1=geom.p1)

    @pytest.mark.parametrize("bad", [0, -1.0])
    def test_rejects_spacing_out_of_domain(self, bad):
        with pytest.raises(InvalidParameterError, match="^spacing_cm must be > 0"):
            ReceiverGeometry(bad)


class TestLandingPointWorld:
    def test_zenith(self):
        p = landing_point(0.0, 123.0, 100.0)
        assert (p.x, p.y, p.z) == (0.0, 0.0, -100.0)

    def test_forward(self):
        p = landing_point(100.0, 0.0, 300.0)
        assert p.x == 0.0
        assert p.y == pytest.approx(100.0, abs=1e-12)
        assert p.z == -300.0

    def test_oblique(self):
        p = landing_point(100.0, -35.0, 300.0)
        assert p.x == pytest.approx(-57.358, abs=1e-3)
        assert p.y == pytest.approx(81.915, abs=1e-3)
        assert p.z == -300.0

    def test_scenario_validation(self):
        with pytest.raises(InvalidParameterError):
            landing_point(-1.0, 0.0, 100.0)
        with pytest.raises(InvalidParameterError):
            landing_point(1.0, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            Vector3(math.nan, 0.0, 0.0)


class TestPhaseSolution:
    def test_zenith_null(self):
        sol = phase_solution(GEOM7, Vector3(0.0, 0.0, -100.0), RF245)
        assert peak_phase(sol) <= 1e-9

    def test_degrees_per_cm_of_path_difference(self):
        # 1 cm path difference at 2.46 GHz: 2 * 2.46e9 * 180 / (299,792,458 * 100)
        assert RF246.deg_per_cm == pytest.approx(29.540436270748344, rel=1e-12)

    @pytest.mark.parametrize("call", [lambda: RFConfig(2.46e9, 3e8),
                                      lambda: RFConfig(2.46e9, wave_speed_mps=3e8)],
                             ids=["positional", "keyword"])
    def test_wave_speed_is_not_a_setting(self, call):
        # the beacon's wave travels at SPEED_OF_LIGHT_MPS; RFConfig holds only the frequency
        with pytest.raises(TypeError):
            call()

    def test_zero_sum_randomized(self):
        rng = random.Random(20260810)
        for _ in range(1000):
            geom = receiver_points(rng.uniform(1.0, 20.0))
            rf = RFConfig(rng.uniform(0.4e9, 6.0e9))
            landing = landing_point(
                rng.uniform(0.0, 2000.0), rng.uniform(-180.0, 180.0), rng.uniform(10.0, 3000.0))
            sol = phase_solution(geom, landing, rf)
            assert abs(sol.dd12 + sol.dd23 + sol.dd31) <= 1e-9
            assert abs(sol.th12 + sol.th23 + sol.th31) <= 1e-9
            assert abs(sol.dt12 + sol.dt23 + sol.dt31) <= 1e-9

    def test_mirror_symmetry(self):
        rng = random.Random(99)
        for _ in range(200):
            r, phi, z = rng.uniform(1, 500), rng.uniform(-180, 180), rng.uniform(20, 1000)
            a = phase_solution(GEOM7, landing_point(r, phi, z), RF245)
            b = phase_solution(GEOM7, landing_point(r, -phi, z), RF245)
            assert b.th12 == pytest.approx(-a.th12, abs=1e-9)
            assert b.th23 == pytest.approx(-a.th31, abs=1e-9)
            assert b.th31 == pytest.approx(-a.th23, abs=1e-9)

    def test_rotational_relabeling(self):
        rng = random.Random(1234)
        for _ in range(200):
            r, phi, z = rng.uniform(1, 500), rng.uniform(-180, 180), rng.uniform(20, 1000)
            a = phase_solution(GEOM7, landing_point(r, phi, z), RF245)
            b = phase_solution(
                GEOM7,
                landing_point(r, wrap_angle_deg(phi + 120.0), z), RF245)
            assert b.th12 == pytest.approx(a.th31, abs=1e-9)
            assert b.th23 == pytest.approx(a.th12, abs=1e-9)
            assert b.th31 == pytest.approx(a.th23, abs=1e-9)

    @pytest.mark.parametrize("point", [
        GEOM7.p1, GEOM7.p2, GEOM7.p3,
        Vector3(-0.0, GEOM7.p3.y, -0.0),  # -0.0 == 0.0: the same point
    ], ids=["p1", "p2", "p3", "p3-negative-zero"])
    def test_degenerate_point_rejected(self, point):
        from triphase import DegenerateGeometryError
        with pytest.raises(DegenerateGeometryError, match="coincides with a receiver input"):
            phase_solution(GEOM7, point, RF245)

    @given(x=st.floats(-5000.0, 5000.0), y=st.floats(-5000.0, 5000.0),
           z=st.floats(-5000.0, 5000.0), f=FREQ_HZ, d=SPACING_CM)
    def test_matches_reference_bit_for_bit(self, x, y, z, f, d):
        geom, rf, landing = receiver_points(d), RFConfig(f), Vector3(x, y, z)
        got = phase_solution(geom, landing, rf)
        want = reference_phase_solution(geom, landing, rf)
        assert [v.hex() for v in vars(got).values()] == [v.hex() for v in vars(want).values()]


class TestAzimuthSweep:
    def test_row_count_and_forward_null(self):
        rows = azimuth_sweep(10.0, 100.0, GEOM7, RF245, 361)
        assert len(rows) == 361
        row0 = next(r for r in rows if r[0] == 0.0)
        assert row0[1] == 0.0  # exact mirror symmetry about the Y axis

    def test_crossing_magnitude_near_ten_degrees(self):
        rows = azimuth_sweep(10.0, 100.0, GEOM7, RF245, 721)
        # |th12| and |th31| cross at the first sector boundary near +30 deg
        best_phi, best_mag = None, None
        for phi, th12, th23, th31 in rows:
            if 20.0 <= phi <= 40.0:
                gap = abs(abs(th12) - abs(th31))
                if best_mag is None or gap < best_mag:
                    best_phi, best_mag = phi, gap
                    crossing = abs(th12)
        assert crossing == pytest.approx(10.0, abs=2.0)

    def test_zenith_rows_are_null(self):
        rows = azimuth_sweep(0.0, 100.0, GEOM7, RF245, 37)
        for _, th12, th23, th31 in rows:
            assert max(abs(th12), abs(th23), abs(th31)) <= 1e-9

    def test_rejects_small_sample_count(self):
        with pytest.raises(InvalidParameterError):
            azimuth_sweep(10.0, 100.0, GEOM7, RF245, 2)

    @pytest.mark.parametrize("r_cm,z_cm,name", [
        (-1.0, 100.0, "r_cm"), (math.nan, 100.0, "r_cm"), ("10", 100.0, "r_cm"),
        (10.0, 0.0, "z_cm"), (10.0, math.inf, "z_cm"), (10.0, None, "z_cm"),
    ])
    def test_rejects_bad_extent(self, r_cm, z_cm, name):
        with pytest.raises(InvalidParameterError, match=f"^{name} "):
            azimuth_sweep(r_cm, z_cm, GEOM7, RF245, 37)

    def test_rejects_a_beacon_too_far_to_resolve(self):
        # the radius where the landing path's entry bound, _ROUNDING k (2 hypot(r + D, z) + D),
        # reaches the 180 deg wrap: rounding alone could move a phase across it
        d, k, z = GEOM7.spacing_cm, RF245.deg_per_cm, 100.0
        lo, hi = 0.0, 1e300
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if geometry._ROUNDING * k * (2.0 * math.hypot(mid + d, z) + d) < 180.0:
                lo = mid
            else:
                hi = mid
        assert 1e8 < lo < 1e17
        assert len(azimuth_sweep(lo, z, GEOM7, RF245, 3)) == 3
        for r in (hi, 1e17, 1.7e308):
            with pytest.raises(InvalidParameterError, match="^beacon too far to resolve: up to "):
                azimuth_sweep(r, z, GEOM7, RF245, 3)

    @given(r=st.floats(0.0, 5000.0), z=st.floats(0.5, 5000.0), n=st.integers(3, 40),
           f=FREQ_HZ, d=SPACING_CM)
    def test_matches_reference_bit_for_bit(self, r, z, n, f, d):
        args = (r, z, receiver_points(d), RFConfig(f), n)
        got, want = azimuth_sweep(*args), reference_azimuth_sweep(*args)
        assert [[v.hex() for v in row] for row in got] == [[v.hex() for v in row] for row in want]


class TestNonambiguousRange:
    def test_best_case_at_input_direction(self):
        r = nonambiguous_range(1000.0, 0.0, 90.0, GEOM7, RF245)
        assert r == pytest.approx(585.0, rel=0.02)

    def test_worst_case(self):
        r = nonambiguous_range(1000.0, 90.0, 90.0, GEOM7, RF245)
        assert r == pytest.approx(486.0, rel=0.02)

    def test_calibrated_limits(self):
        assert nonambiguous_range(1000.0, 90.0, 80.0, GEOM7, RF246) == pytest.approx(419.0, rel=0.02)
        assert nonambiguous_range(1000.0, 0.0, 80.0, GEOM7, RF246) == pytest.approx(500.0, rel=0.02)

    def test_monotone_in_height(self):
        radii = [nonambiguous_range(z, 25.0, 80.0, GEOM7, RF246)
                 for z in (50.0, 100.0, 200.0, 400.0, 800.0)]
        assert all(b >= a for a, b in zip(radii, radii[1:]))

    def test_unbounded_when_limit_unreachable(self):
        # at 0.4 GHz the phase tops out near 34 deg; a 90 deg crossing never happens
        with pytest.raises(RangeUnboundedError):
            nonambiguous_range(100.0, 0.0, 90.0, GEOM7, RFConfig(0.4e9))

    def test_rejects_bad_limit(self):
        with pytest.raises(InvalidParameterError):
            nonambiguous_range(100.0, 0.0, 0.0, GEOM7, RF245)
        with pytest.raises(InvalidParameterError):
            nonambiguous_range(100.0, 0.0, 180.0, GEOM7, RF245)

    def test_scan_past_the_float_range_is_rejected(self):
        # the default ceiling 100 * z overflows, so the scan's radius reaches inf
        with pytest.raises(InvalidParameterError, match="r_cm must be a finite number"):
            nonambiguous_range(1e307, 10.0, 45.0, GEOM7, RF245)

    def test_unbounded_message_stays_short_at_extreme_heights(self):
        # the ceiling 100 * z = 5e307 cm printed in full would take 308 digits
        with pytest.raises(RangeUnboundedError) as info:
            nonambiguous_range(5e305, 10.0, 90.0, GEOM7, RFConfig(0.4e9))
        assert len(str(info.value)) < 200

    def test_a_limit_beyond_kd_raises_before_any_scan_point(self, monkeypatch):
        phases, calls = geometry._phases, []
        monkeypatch.setattr(geometry, "_phases", lambda *args: calls.append(args) or phases(*args))
        with pytest.raises(RangeUnboundedError,
                           match="^no 90 deg crossing below r = 10000 cm at phi = 0 deg$"):
            nonambiguous_range(100.0, 0.0, 90.0, GEOM7, RFConfig(0.4e9))
        assert calls == []

    def test_a_crossing_on_the_point_past_the_ceiling_is_found(self):
        # at z = 100 cm the scan steps by exactly 1 cm, so its point 10,000 lies on the ceiling
        # 100 z, which the scan passes by one more step
        limit = scan_point_limit(100.0, 0.0, 10_001, GEOM5, RF245)
        args = (100.0, 0.0, limit, GEOM5, RF245)
        assert nonambiguous_range(*args) == pytest.approx(10_000.97, abs=0.1)
        assert radius_or_error(nonambiguous_range, *args) == radius_or_error(
            reference_nonambiguous_range, *args)

    def test_a_limit_below_kd_without_a_crossing_raises_past_the_ceiling(self, monkeypatch):
        # 130 deg is below k*D = 147 deg, so the scan runs until its point past 100 z
        phases, radii = geometry._phases, []
        monkeypatch.setattr(geometry, "_phases", lambda q, *rest: (
            radii.append(math.hypot(q[0], q[1])) or phases(q, *rest)))
        with pytest.raises(RangeUnboundedError,
                           match="^no 130 deg crossing below r = 10000 cm at phi = 0 deg$"):
            nonambiguous_range(100.0, 0.0, 130.0, GEOM5, RF245)
        assert radii[-1] > 10_000.0 and max(radii) == radii[-1]

    def test_a_crossing_at_the_first_point_of_an_underflowed_step_is_found(self):
        # z/100 rounds to 0, so the first scan point is r = 0, where max|th| is 1.3e-14 deg:
        # the crossing there is found before the step's underflow is tested
        args = (1e-323, 0.0, 6.5e-15, receiver_points(3.5529206381356233), RF245)
        assert nonambiguous_range(*args) == 0.0

    @settings(deadline=None)
    @given(z=st.floats(20.0, 2000.0), phi=st.floats(-360.0, 360.0),
           limit=st.floats(0.0, 180.0, exclude_min=True, exclude_max=True),
           f=FREQ_HZ, d=SPACING_CM)
    def test_matches_reference_bit_for_bit(self, z, phi, limit, f, d):
        args = (z, phi, limit, receiver_points(d), RFConfig(f))
        assert (radius_or_error(nonambiguous_range, *args)
                == radius_or_error(reference_nonambiguous_range, *args))


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run `seconds`, so a hang fails the test."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class TestEveryRangeTerminates:
    # near r = 1e16 cm a bracket one ulp wide is wider than 0.1 cm, and its midpoint
    # rounds to an end; below z = 5e-322 cm the scan step z/100 rounds to 0
    def test_bisection_stops_at_a_one_ulp_bracket(self):
        with deadline(1.0):
            r = nonambiguous_range(1.5e17, 0.0, 80.0, GEOM7, RF245)
        assert 0.0 < r < 100.0 * 1.5e17

    def test_cone_stops_at_a_one_ulp_bracket(self):
        args = ([1.5e17], 80.0, GEOM7, RF245, 24)
        with deadline(1.0):
            rows = rows_or_error(cone_profile, *args)
        assert len(rows) == 24
        with deadline(1.0):
            assert rows == rows_or_error(reference_cone_profile, *args)

    @pytest.mark.parametrize("search", [
        lambda z: nonambiguous_range(z, 0.0, 45.0, GEOM7, RF245),
        lambda z: cone_profile([z], 45.0, GEOM7, RF245),
    ], ids=["nonambiguous_range", "cone_profile"])
    def test_a_step_that_underflows_is_rejected(self, search):
        with deadline(1.0), pytest.raises(InvalidParameterError,
                                          match="^z_cm too small for a scan step of z/100"):
            search(1e-323)

    # log10 of the smallest and largest heights drawn: from deep in the subnormals, where the
    # scan step underflows, to where 100 * z overflows
    @settings(max_examples=100, deadline=None)
    @given(log_z=st.floats(math.log10(1e-323), 306.0), phi=st.floats(-360.0, 360.0),
           limit=st.floats(0.0, 180.0, exclude_min=True, exclude_max=True),
           f=FREQ_HZ, d=SPACING_CM)
    def test_every_height_returns_or_raises_a_documented_error(self, log_z, phi, limit, f, d):
        z = min(max(10.0 ** log_z, 1e-323), 1e306)
        geom, rf = receiver_points(d), RFConfig(f)
        for search in (lambda: nonambiguous_range(z, phi, limit, geom, rf),
                       lambda: cone_profile([z], limit, geom, rf)):
            with deadline(1.0), contextlib.suppress(TriphaseError):
                search()


class TestConeProfile:
    def test_rows_sorted_and_growing_with_height(self):
        rows = cone_profile([50.0, 100.0, 200.0], 80.0, GEOM7, RF246, n_azimuths=8)
        assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
        by_z = {}
        for z, phi, rmax in rows:
            by_z.setdefault(z, []).append(rmax)
        means = [sum(v) / len(v) for _, v in sorted(by_z.items())]
        assert means[0] < means[1] < means[2]

    def test_top_row_contains_published_extrema(self):
        rows = [r for r in cone_profile([1000.0], 90.0, GEOM7, RF245, n_azimuths=24)]
        radii = [r[2] for r in rows]
        assert min(radii) == pytest.approx(486.0, rel=0.02)
        assert max(radii) == pytest.approx(585.0, rel=0.02)

    def test_default_is_24_azimuths(self):
        rows = cone_profile([1000.0], 80.0, GEOM7, RF246)
        assert [phi for _, phi, _ in rows] == [-180.0 + 15.0 * (j + 1) for j in range(24)]

    @pytest.mark.parametrize("z_list", [[], ()], ids=repr)
    def test_rejects_an_empty_height_list(self, z_list):
        with pytest.raises(InvalidParameterError, match="^z_list must hold at least one height"):
            cone_profile(z_list, 80.0, GEOM7, RF246)

    @pytest.mark.parametrize("z_list", [1000.0, None, math.nan, 3], ids=repr)
    def test_rejects_a_height_list_that_is_not_a_list(self, z_list):
        with pytest.raises(InvalidParameterError,
                           match=rf"^z_list must be a list of heights, got {z_list!r}$"):
            cone_profile(z_list, 80.0, GEOM7, RF246)

    @pytest.mark.parametrize("z_list", ["100", "", b"d", bytearray(b"d")], ids=repr)
    def test_rejects_a_string_of_heights(self, z_list):
        # iterable, but its items are characters, or bytes that would read as heights
        with pytest.raises(InvalidParameterError,
                           match=rf"^z_list must be a list of heights, got {re.escape(repr(z_list))}$"):
            cone_profile(z_list, 80.0, GEOM7, RF246)

    @settings(deadline=None)
    @given(z_list=st.lists(st.floats(20.0, 2000.0), min_size=1, max_size=3),
           limit=st.floats(0.0, 180.0, exclude_min=True, exclude_max=True),
           d=SPACING_CM, f=FREQ_HZ, n=st.integers(1, 30))
    def test_matches_per_ray_loop(self, z_list, limit, d, f, n):
        args = (z_list, limit, receiver_points(d), RFConfig(f), n)
        assert rows_or_error(cone_profile, *args) == rows_or_error(reference_cone_profile, *args)


def scan_point_limit(z, phi, n, geom, rf):
    """max|th| of the n-th point of the scan along (z, phi), through the phase-law objects."""
    step = z / 100.0
    r = step
    for _ in range(n - 1):
        r += step
    return peak_phase(phase_solution(geom, landing_point(r, phi, z), rf))


GEOM5 = receiver_points(5.0)  # k*D = 147 deg at 2.45 GHz


@pytest.mark.filterwarnings("error")
class TestConeScreen:
    """Cones at the edges of the scan's proven start match the per-ray loop bit for bit."""

    @pytest.mark.parametrize("z_list,limit,geom,rf,n", [
        # the limit is the scan's own value at point 40 of the phi = -90 ray
        ([1000.0], scan_point_limit(1000.0, -90.0, 40, GEOM7, RF245), GEOM7, RF245, 24),
        # every crossing lies past the proven start's cap of 0.9 z
        ([500.0], 0.85 * RF245.deg_per_cm * 5.0, GEOM5, RF245, 4),
        # the -90 deg crossing lies past 0.9 z; the 0 deg ray has none
        ([500.0], 0.99 * RF245.deg_per_cm * 5.0, GEOM5, RF245, 4),
        # beyond k*D: nonambiguous_range raises on the first ray without a scan
        ([100.0], 90.0, receiver_points(2.5), RF245, 24),
        # the scan's radius overflows
        ([1e307], 45.0, GEOM7, RF245, 24),
    ], ids=["limit-on-a-scan-point", "crossing-past-the-screen", "crossing-then-none",
            "limit-beyond-kD", "overflowing-height"])
    def test_unsettled_rays_take_the_scan(self, z_list, limit, geom, rf, n):
        args = (z_list, limit, geom, rf, n)
        assert rows_or_error(cone_profile, *args) == rows_or_error(reference_cone_profile, *args)

    def test_azimuths_past_one_screen_batch(self):
        args = ([1000.0], 80.0, GEOM7, RF246, 300)
        assert rows_or_error(cone_profile, *args) == rows_or_error(reference_cone_profile, *args)


def first_point_after_skip(z, phi, limit, geom, rf):
    """The index of the first scan point nonambiguous_range evaluates past its proven start."""
    start = geometry._proven_start(z, limit, *geometry._direction(phi), geom, rf.deg_per_cm)
    step = z / 100.0
    n, r = 1, step
    while r < start:
        n, r = n + 1, r + step
    return n


@st.composite
def rays(draw, max_log_z=12.0):
    """(z, phi, limit, geom, rf) with z log-uniform over 1e-2..1e12 cm and the limit drawn
    uniformly or within 5 % of k*D, where the far-field maximum stops the scan."""
    z = 10.0 ** draw(st.floats(-2.0, max_log_z))
    f = draw(st.floats(0.4e9, 6e9))
    k = RFConfig(f).deg_per_cm
    if draw(st.booleans()):
        d = draw(st.floats(1.0, 20.0))
        limit = draw(st.floats(0.0, 180.0, exclude_min=True, exclude_max=True))
    else:
        d = draw(st.floats(1.0, min(20.0, 170.0 / k)))
        limit = k * d * draw(st.floats(0.95, 1.05))
    return z, draw(st.floats(-360.0, 360.0)), limit, receiver_points(d), RFConfig(f)


class TestProvenStart:
    """The scan skips the points below its proven start and keeps every radius bit and error."""

    @settings(deadline=None)
    @given(ray=rays())
    def test_matches_reference_from_near_field_to_far(self, ray):
        assert (radius_or_error(nonambiguous_range, *ray)
                == radius_or_error(reference_nonambiguous_range, *ray))

    @settings(deadline=None)
    @given(ray=rays(), scales=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3),
           n=st.integers(1, 30))
    def test_cone_matches_per_ray_loop_from_near_field_to_far(self, ray, scales, n):
        z, _, limit, geom, rf = ray
        args = ([z * s for s in scales], limit, geom, rf, n)
        assert rows_or_error(cone_profile, *args) == rows_or_error(reference_cone_profile, *args)

    # up to 1e14 cm, where the rounding outgrows the rise and the start must be 0.  The
    # examples sit on the proof's edges: just past the last height where the rise is shown
    # for D = 1 and D = 20 cm, a limit equal to the rounding margin, a root with a radicand
    # below 1 (D < 1 cm), and a root past the 0.9 z cap
    @settings(deadline=None)
    @given(ray=rays(max_log_z=14.0))
    @example(ray=(2e11, 0.0, 10.0, receiver_points(1.0), RF245))
    @example(ray=(5944136670429.357, 0.0, 10.0, receiver_points(20.0), RF245))
    @example(ray=(107632748894869.36, 0.0, 45.0, GEOM7, RF245))
    @example(ray=(1.0, 0.0, RF245.deg_per_cm * 0.5 * math.sqrt(3.0) / 2.0 / 1.23,
                  receiver_points(0.5), RF245))
    @example(ray=(1000.0, 0.0, 0.69 * RF245.deg_per_cm * 7.0 * math.sqrt(3.0) / 2.0, GEOM7, RF245))
    def test_start_meets_the_conditions_of_its_proof(self, ray):
        z, phi, limit, geom, rf = ray
        k, d = rf.deg_per_cm, geom.spacing_cm
        sin_phi, cos_phi = geometry._direction(phi)
        start = geometry._proven_start(z, limit, sin_phi, cos_phi, geom, k)
        if start:
            a = [sin_phi * x + cos_phi * y for x, y, _ in geom.coords]
            u, err = max(a) - min(a), 32.0 * 2.0 ** -52 * k * (2.0 * z + d)
            assert 0.0 < start <= 0.9 * z
            assert k * u * start / math.hypot(z, max(0.0, start - d)) <= (limit - err) * (1 + 1e-12)
            assert k * u * (z - start) / (101.0 * math.hypot(z, start + d)) >= 2.0 * err

    @pytest.mark.parametrize("z,phi,n", [(1000.0, -90.0, 49), (1e4, 45.0, 60), (10.0, -90.0, 12),
                                         (1e8, 120.0, 30)])
    def test_limit_on_the_first_point_after_the_skip(self, z, phi, n):
        limit = scan_point_limit(z, phi, n, GEOM7, RF245)
        assert first_point_after_skip(z, phi, limit, GEOM7, RF245) == n
        args = (z, phi, limit, GEOM7, RF245)
        assert (radius_or_error(nonambiguous_range, *args)
                == radius_or_error(reference_nonambiguous_range, *args))
