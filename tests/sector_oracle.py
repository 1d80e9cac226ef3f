"""Test oracles for the guidance sectors and the phase shifts, kept out of the package."""

import bisect
import math

from triphase.errors import InvalidParameterError
from triphase.guidance import GuidanceConfig, Maneuver, ManeuverKind, SectorId


def wrap_angle_deg(angle):
    """An angle in degrees wrapped to (-180, +180], written out apart from the library;
    InvalidParameterError for a non-finite angle."""
    if not math.isfinite(angle):
        raise InvalidParameterError(f"angle must be a finite number, got {angle!r}")
    a = float(angle) % 360.0
    return a - 360.0 if a > 180.0 else a


def phases(sol):
    """The three unwrapped phase shifts (th12, th23, th31) of a PhaseSolution."""
    return (sol.th12, sol.th23, sol.th31)


def peak_phase(sol):
    """The largest |phase shift| of a PhaseSolution."""
    return max(abs(sol.th12), abs(sol.th23), abs(sol.th31))


def expected_sector_from_azimuth(phi_deg) -> SectorId:
    """The 60-degree sector containing a landing azimuth.

    Sectors are centered at 0 (1a), +60 (3b), +120 (2a), 180 (1b), -120 (3a)
    and -60 (2b); a boundary angle belongs to the sector above it.
    """
    phi = wrap_angle_deg(phi_deg)
    sectors = (SectorId(1, "a"), SectorId(3, "b"), SectorId(2, "a"),
               SectorId(1, "b"), SectorId(3, "a"), SectorId(2, "b"))
    return sectors[math.floor((phi + 30.0) / 60.0) % 6]


# The guidance rule as the paper's maneuver program reads it, written out apart from the
# library: exact comparisons on one VoltageTriple, sign(0) positive, ties to the lower major.

def classify_sector(v) -> SectorId:
    """Major 1 when |v12| is (tied-)smallest, else 2 when |v23| < |v31|, else 3; the sub-sector
    reads v23's sign for majors 1 and 3 and v31's for major 2."""
    a12, a23, a31 = abs(v.v12), abs(v.v23), abs(v.v31)
    if a12 <= a23 and a12 <= a31:
        return SectorId(1, "a" if v.v23 >= 0.0 else "b")
    if a23 < a31:
        return SectorId(2, "b" if v.v31 < 0.0 else "a")
    return SectorId(3, "a" if v.v23 < 0.0 else "b")


def tracking_maneuvers(v, cfg):
    """Rotate right when v12 and v23 differ in sign, else left; then forward when v23 >= 0,
    else backward."""
    right = (v.v12 >= 0.0) != (v.v23 >= 0.0)
    return [Maneuver(ManeuverKind.ROTATE_RIGHT if right else ManeuverKind.ROTATE_LEFT,
                     cfg.rotate_step_deg),
            Maneuver(ManeuverKind.FORWARD if v.v23 >= 0.0 else ManeuverKind.BACKWARD,
                     cfg.move_step_cm)]


def decide(v, cfg=None):
    """Hold when every |v| is within the threshold, else a 60 deg yaw left from sector 2 or
    right from sector 3, else the tracking pair."""
    cfg = cfg or GuidanceConfig()
    if max(abs(v.v12), abs(v.v23), abs(v.v31)) <= cfg.hold_threshold_v:
        return [Maneuver(ManeuverKind.HOLD)]
    major = classify_sector(v).major
    if major == 2:
        return [Maneuver(ManeuverKind.YAW_LEFT, 60.0)]
    if major == 3:
        return [Maneuver(ManeuverKind.YAW_RIGHT, 60.0)]
    return tracking_maneuvers(v, cfg)


def escape_of(maneuvers):
    """-1 for a left escape yaw, +1 for a right one, 0 for any other maneuvers."""
    if len(maneuvers) == 1 and maneuvers[0].kind is ManeuverKind.YAW_LEFT:
        return -1
    if len(maneuvers) == 1 and maneuvers[0].kind is ManeuverKind.YAW_RIGHT:
        return +1
    return 0


def guided(v, cfg, before):
    """The landing loop's maneuvers for v after a row whose escape is `before` (escape_of): the
    seam guard answers an escape yaw opposite the one before with the tracking pair, as the
    original maneuver program falls through from its escape branch into its tracking branch."""
    maneuvers = decide(v, cfg)
    escape = escape_of(maneuvers)
    return tracking_maneuvers(v, cfg) if escape and escape == -before else maneuvers


# A calibrated pair's interval source as the landing loop's first in-phase decisions read it,
# written out once, branch by branch, apart from the library's table.

def cells(poly, limit, thr, edges, theta):
    """The (lo, hi) [V] that holds poly's centered voltage at the raw phase theta: theta's
    seed-table cell less v_ref, tightened past the sign edges to >= 0 or < 0 and past the
    outer edges to > thr or < -thr (detector._edges), or (nan, nan) off the table or past
    +-limit, after the wrap."""
    volts, phases = poly._seed_table
    v_ref, n = poly.v_ref, len(phases)
    first, final = max(phases[0], -limit), min(phases[-1], limit)
    _, (zero_lo, zero_hi), (hold_lo, hold_hi) = edges
    past, negative = math.nextafter(thr, math.inf), -math.ulp(0.0)  # past thr, below 0
    theta = wrap_angle_deg(theta)
    if not first <= theta <= final:
        return math.nan, math.nan
    i = bisect.bisect_right(phases, theta, 1, n - 1)
    lo, hi = volts[i - 1] - v_ref, volts[i] - v_ref
    if theta > zero_hi:
        bound = past if theta > hold_hi else 0.0
        return (lo if lo > bound else bound), hi
    if theta < zero_lo:
        bound = -past if theta < hold_lo else negative
        return lo, (hi if hi < bound else bound)
    return lo, hi
