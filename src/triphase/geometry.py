"""Near-field geometry of the three receiver inputs relative to a ground beacon.

The drone carries three receiver inputs on an equilateral triangle of side D
(cm), centered on the body origin with input 3 on the +Y (forward) axis.  A
beacon at the landing point L transmits a single frequency f; each input pair
(i, j) sees a path difference

    dd_ij = |L - P_i| - |L - P_j|          [cm]
    dt_ij = dd_ij / c                      [s]
    th_ij = 2 * f * dd_ij * 180 / c        [deg, unwrapped]

computed with exact near-field distances (no plane-wave approximation).
Azimuths are measured from body +Y toward body +X, i.e. clockwise when seen
from above.  All values are plain floats; every public object is immutable
and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from ._textio import write_csv
from .errors import DegenerateGeometryError, InvalidParameterError, RangeUnboundedError

#: speed of light in vacuum [m/s]
SPEED_OF_LIGHT_MPS = 299_792_458.0


def _check_finite(name, value):
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _check_positive(name, value):
    value = _check_finite(name, value)
    if value <= 0.0:
        raise InvalidParameterError(f"{name} must be > 0, got {value}")
    return value


def wrap_angle_deg(angle):
    """Wrap an angle in degrees to (-180, +180]."""
    a = _check_finite("angle", angle) % 360.0
    if a > 180.0:
        a -= 360.0
    return a


@dataclass(frozen=True)
class Vector3:
    """Cartesian point/vector, lengths in cm. Components must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, _check_finite(name, getattr(self, name)))

    def distance_to(self, other: "Vector3") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


@dataclass(frozen=True)
class ReceiverGeometry:
    """The three receiver input points, body frame (z = 0), incenter at the origin."""

    spacing_cm: float
    p1: Vector3
    p2: Vector3
    p3: Vector3

    @property
    def points(self):
        return (self.p1, self.p2, self.p3)

    @cached_property
    def coords(self):
        """The three points as (x, y, z) tuples, the form `math.dist` takes."""
        return tuple((p.x, p.y, p.z) for p in self.points)


@dataclass(frozen=True)
class RFConfig:
    """Beacon frequency and propagation speed."""

    frequency_hz: float
    wave_speed_mps: float = SPEED_OF_LIGHT_MPS

    def __post_init__(self):
        object.__setattr__(self, "frequency_hz", _check_positive("frequency_hz", self.frequency_hz))
        object.__setattr__(self, "wave_speed_mps", _check_positive("wave_speed_mps", self.wave_speed_mps))

    @property
    def deg_per_cm(self) -> float:
        """Unwrapped phase shift per cm of path difference."""
        # path difference is in cm, wave speed in m/s
        return 2.0 * self.frequency_hz * 180.0 / (self.wave_speed_mps * 100.0)


@dataclass(frozen=True)
class LandingScenario:
    """Beacon position in drone-centered cylindrical coordinates.

    phi_deg is the landing azimuth, positive from body +Y toward body +X;
    height_cm is the drone height above the beacon plane.
    """

    r_cm: float
    phi_deg: float
    height_cm: float

    def __post_init__(self):
        r = _check_finite("r_cm", self.r_cm)
        if r < 0.0:
            raise InvalidParameterError(f"r_cm must be >= 0, got {r}")
        object.__setattr__(self, "r_cm", r)
        object.__setattr__(self, "phi_deg", wrap_angle_deg(self.phi_deg))
        object.__setattr__(self, "height_cm", _check_positive("height_cm", self.height_cm))


@dataclass(frozen=True)
class PhaseSolution:
    """Per-pair path differences [cm], delays [s] and unwrapped phase shifts [deg]."""

    dd12: float
    dd23: float
    dd31: float
    dt12: float
    dt23: float
    dt31: float
    th12: float
    th23: float
    th31: float

    @property
    def phases(self):
        return (self.th12, self.th23, self.th31)

    @property
    def max_abs_phase(self) -> float:
        return max(abs(self.th12), abs(self.th23), abs(self.th31))


def receiver_points(spacing_cm) -> ReceiverGeometry:
    """Build the equilateral receiver triangle for a given input spacing.

    Input 3 sits on the +Y (forward) axis at the circumradius, inputs 1 and 2
    sit at x = +-D/2 below it; the incenter coincides with the body origin.
    """
    d = _check_positive("spacing_cm", spacing_cm)
    half = d / 2.0
    apothem = d / (2.0 * math.sqrt(3.0))  # incircle radius; circumradius is twice this
    return ReceiverGeometry(
        spacing_cm=d,
        p1=Vector3(half, -apothem, 0.0),
        p2=Vector3(-half, -apothem, 0.0),
        p3=Vector3(0.0, 2.0 * apothem, 0.0),
    )


def landing_point_world(scenario: LandingScenario) -> Vector3:
    """Cylindrical landing coordinates -> Cartesian (x, y, -height)."""
    phi = math.radians(scenario.phi_deg)
    return Vector3(
        scenario.r_cm * math.sin(phi),
        scenario.r_cm * math.cos(phi),
        -scenario.height_cm,
    )


def _path_differences(q, geom: ReceiverGeometry):
    """Path differences d1 - d2, d2 - d3, d3 - d1 [cm] from the point q = (x, y, z).

    Raises DegenerateGeometryError if q coincides with a receiver input.
    """
    p1, p2, p3 = geom.coords
    d1 = math.dist(q, p1)
    d2 = math.dist(q, p2)
    d3 = math.dist(q, p3)
    if min(d1, d2, d3) <= 0.0:
        raise DegenerateGeometryError("landing point coincides with a receiver input")
    return d1 - d2, d2 - d3, d3 - d1


def phase_solution(geom: ReceiverGeometry, landing: Vector3, rf: RFConfig) -> PhaseSolution:
    """Exact near-field path differences, delays and phase shifts for one pose.

    Raises DegenerateGeometryError if the landing point coincides with a
    receiver input.  Phases are left unwrapped; wrap only where a detector
    model needs it.
    """
    dd12, dd23, dd31 = _path_differences((landing.x, landing.y, landing.z), geom)
    c_cm = rf.wave_speed_mps * 100.0
    k = rf.deg_per_cm
    return PhaseSolution(
        dd12=dd12, dd23=dd23, dd31=dd31,
        dt12=dd12 / c_cm, dt23=dd23 / c_cm, dt31=dd31 / c_cm,
        th12=k * dd12, th23=k * dd23, th31=k * dd31,
    )


def azimuth_sweep(r_cm, z_cm, geom: ReceiverGeometry, rf: RFConfig, n_samples):
    """Phase shifts vs landing azimuth at fixed radius and height.

    Returns a list of (phi_deg, th12, th23, th31) rows on a closed uniform
    grid from -180 to +180 (n_samples >= 3; n_samples = 361 gives a 1-degree
    grid including phi = 0).
    """
    if not isinstance(n_samples, int) or n_samples < 3:
        raise InvalidParameterError(f"n_samples must be an integer >= 3, got {n_samples!r}")
    rows = []
    step = 360.0 / (n_samples - 1)
    for k in range(n_samples):
        phi = -180.0 + k * step
        sol = phase_solution(geom, landing_point_world(LandingScenario(r_cm, phi, z_cm)), rf)
        rows.append((phi, sol.th12, sol.th23, sol.th31))
    return rows


def nonambiguous_range(z_cm, phi_deg, theta_limit_deg, geom: ReceiverGeometry, rf: RFConfig,
                       r_ceiling_cm=None, resolution_cm=0.1):
    """Largest radius at which all three |phase shifts| stay within theta_limit.

    Brackets the first crossing with an outward scan (step z/100), verifying
    that max|th| grows monotonically along the ray, then bisects the bracket
    down to `resolution_cm`.  Raises RangeUnboundedError when no crossing is
    found below the ceiling (default 100 * z).
    """
    z = _check_positive("z_cm", z_cm)
    limit = _check_finite("theta_limit_deg", theta_limit_deg)
    if not 0.0 < limit < 180.0:
        raise InvalidParameterError(f"theta_limit_deg must be in (0, 180), got {limit}")
    ceiling = _check_positive("r_ceiling_cm", r_ceiling_cm) if r_ceiling_cm is not None else 100.0 * z

    # the float operations of phase_solution(...).max_abs_phase at the landing
    # point of LandingScenario(r, phi_deg, z), without building either object
    phi = math.radians(wrap_angle_deg(phi_deg))
    sin_phi, cos_phi = math.sin(phi), math.cos(phi)
    k = rf.deg_per_cm

    def max_abs_phase(r):
        # r overflows only for extents near the float limit; a scan at inf would never end
        if not math.isfinite(r):
            raise InvalidParameterError(f"r_cm must be a finite number, got {r!r}")
        dd12, dd23, dd31 = _path_differences((r * sin_phi, r * cos_phi, -z), geom)
        return max(abs(k * dd12), abs(k * dd23), abs(k * dd31))

    step = z / 100.0
    r_prev, f_prev = 0.0, 0.0
    r = step
    while True:
        f = max_abs_phase(r)
        if f < f_prev - 1e-9:
            raise RangeUnboundedError(
                f"max|phase| not monotone along the ray at r={r:.1f} cm; cannot bracket")
        if f >= limit:
            break
        if r > ceiling:
            raise RangeUnboundedError(
                f"no {limit:g} deg crossing below r = {ceiling:.0f} cm at phi = {phi_deg:g} deg")
        r_prev, f_prev = r, f
        r += step

    lo, hi = r_prev, r
    while hi - lo > resolution_cm:
        mid = 0.5 * (lo + hi)
        if max_abs_phase(mid) < limit:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cone_profile(z_list, theta_limit_deg, geom: ReceiverGeometry, rf: RFConfig, n_azimuths=24):
    """Non-ambiguity cone: per-height, per-azimuth maximum radius.

    Azimuths sample (-180, +180] uniformly; rows are sorted by (z, phi).
    Returns a list of (z_cm, phi_deg, r_max_cm).
    """
    if not isinstance(n_azimuths, int) or n_azimuths < 1:
        raise InvalidParameterError(f"n_azimuths must be a positive integer, got {n_azimuths!r}")
    rows = []
    for z in sorted(_check_positive("z", z) for z in z_list):
        for j in range(n_azimuths):
            phi = -180.0 + (j + 1) * 360.0 / n_azimuths
            rows.append((z, phi, nonambiguous_range(z, phi, theta_limit_deg, geom, rf)))
    return rows


def correction_sensitivity(v_max, v_min, r_best_case_cm):
    """Detector voltage swing per cm of drift, in mV/cm: (Vmax - Vmin) / (2 * r_bc)."""
    vmax = _check_finite("v_max", v_max)
    vmin = _check_finite("v_min", v_min)
    rbc = _check_positive("r_best_case_cm", r_best_case_cm)
    if vmax < vmin:
        raise InvalidParameterError(f"v_max ({vmax}) must be >= v_min ({vmin})")
    return (vmax - vmin) * 1000.0 / (2.0 * rbc)


def write_sweep_csv(path_or_file, rows):
    """Emit azimuth sweep rows as CSV: phi_deg,th12_deg,th23_deg,th31_deg (6 decimals)."""
    write_csv(path_or_file, ("phi_deg", "th12_deg", "th23_deg", "th31_deg"),
              (tuple(f"{v:.6f}" for v in row) for row in rows))


def write_cone_csv(path_or_file, rows):
    """Emit cone profile rows as CSV: z_cm,phi_deg,rmax_cm."""
    write_csv(path_or_file, ("z_cm", "phi_deg", "rmax_cm"),
              ((f"{z:.6f}", f"{phi:.6f}", f"{r:.6f}") for z, phi, r in rows))
