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
Only the cone screen imports numpy, so the landing path starts without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from ._textio import write_csv
from .errors import DegenerateGeometryError, InvalidParameterError, RangeUnboundedError
from .errors import _check_count, _check_finite, _check_positive

#: speed of light in vacuum [m/s]
SPEED_OF_LIGHT_MPS = 299_792_458.0

_SCREEN_RAYS, _SCREEN_STEPS, _ROUNDING = 256, 128, 32.0 * 2.0 ** -52  # see _screened_ranges


def _wrap(angle):
    """A float angle [deg] its caller checked or computed, wrapped to (-180, +180]; nan for inf, nan."""
    a = angle % 360.0
    return a - 360.0 if a > 180.0 else a


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
    """The equilateral receiver triangle of side spacing_cm, body frame (z = 0): input 3 on
    +Y at the circumradius, inputs 1 and 2 at x = +-D/2 below it, the incenter at the origin."""

    spacing_cm: float
    p1: Vector3 = field(init=False)
    p2: Vector3 = field(init=False)
    p3: Vector3 = field(init=False)

    def __post_init__(self):
        d = _check_positive("spacing_cm", self.spacing_cm)
        half = d / 2.0
        apothem = d / (2.0 * math.sqrt(3.0))  # incircle radius; circumradius is twice this
        object.__setattr__(self, "spacing_cm", d)
        object.__setattr__(self, "p1", Vector3(half, -apothem, 0.0))
        object.__setattr__(self, "p2", Vector3(-half, -apothem, 0.0))
        object.__setattr__(self, "p3", Vector3(0.0, 2.0 * apothem, 0.0))

    @cached_property
    def coords(self):
        """The three points as (x, y, z) tuples, the form `math.dist` takes."""
        return tuple((p.x, p.y, p.z) for p in (self.p1, self.p2, self.p3))


@dataclass(frozen=True)
class RFConfig:
    """Beacon frequency; the wave travels at SPEED_OF_LIGHT_MPS."""

    frequency_hz: float

    def __post_init__(self):
        object.__setattr__(self, "frequency_hz", _check_positive("frequency_hz", self.frequency_hz))

    @cached_property
    def deg_per_cm(self) -> float:
        """Unwrapped phase shift per cm of path difference."""
        # path difference is in cm, the speed of light in m/s
        return 2.0 * self.frequency_hz * 180.0 / (SPEED_OF_LIGHT_MPS * 100.0)


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
    """The equilateral receiver triangle for a given input spacing D [cm]."""
    return ReceiverGeometry(spacing_cm)


def _direction(phi_deg):
    """(sin, cos) of a landing azimuth wrapped to (-180, 180], rounded once for every caller;
    phi_deg is a float the caller has checked or computed."""
    phi = math.radians(_wrap(phi_deg))
    return math.sin(phi), math.cos(phi)


def landing_point(r_cm, phi_deg, height_cm) -> Vector3:
    """Beacon position (x, y, -height_cm) from drone-centered cylindrical coordinates: radius
    r_cm, azimuth phi_deg from body +Y toward body +X, height_cm above the beacon plane."""
    r = _check_positive("r_cm", r_cm, zero_ok=True)
    sin_phi, cos_phi = _direction(_check_finite("phi_deg", phi_deg))
    height = _check_positive("height_cm", height_cm)
    return Vector3(r * sin_phi, r * cos_phi, -height)


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
    c_cm = SPEED_OF_LIGHT_MPS * 100.0
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
    _check_count("n_samples", n_samples, 3)
    r = _check_positive("r_cm", r_cm, zero_ok=True)
    z = _check_positive("z_cm", z_cm)
    k = rf.deg_per_cm
    rows = []
    step = 360.0 / (n_samples - 1)
    for j in range(n_samples):
        phi = -180.0 + j * step
        sin_phi, cos_phi = _direction(phi)  # phase_solution's float operations
        dd12, dd23, dd31 = _path_differences((r * sin_phi, r * cos_phi, -z), geom)
        rows.append((phi, k * dd12, k * dd23, k * dd31))
    return rows


def _check_limit(theta_limit_deg):
    limit = _check_finite("theta_limit_deg", theta_limit_deg)
    if not 0.0 < limit < 180.0:
        raise InvalidParameterError(f"theta_limit_deg must be in (0, 180), got {limit}")
    return limit


def _ray_kernel(z, sin_phi, cos_phi, geom: ReceiverGeometry, k):
    """max|th| at radius r on one ray, by the float operations of phase_solution(...)."""
    def max_abs_phase(r):
        # r overflows only for extents near the float limit; a scan at inf would never end
        if not math.isfinite(r):
            raise InvalidParameterError(f"r_cm must be a finite number, got {r!r}")
        dd12, dd23, dd31 = _path_differences((r * sin_phi, r * cos_phi, -z), geom)
        return max(abs(k * dd12), abs(k * dd23), abs(k * dd31))

    return max_abs_phase


def _bisect(max_abs_phase, lo, hi, limit):
    # where r's ulp exceeds 0.1 cm the midpoint of a one-ulp bracket rounds to an end: stop
    while hi - lo > 0.1 and (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if max_abs_phase(mid) < limit:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def nonambiguous_range(z_cm, phi_deg, theta_limit_deg, geom: ReceiverGeometry, rf: RFConfig):
    """Largest radius at which all three |phase shifts| stay within theta_limit.

    Brackets the first crossing with an outward scan (step z/100), verifying
    that max|th| grows monotonically along the ray, then bisects the bracket
    down to 0.1 cm, or to one ulp where r's ulp exceeds 0.1 cm.  Raises
    RangeUnboundedError when no crossing is found below r = 100 * z, at once
    when the limit exceeds k*D plus the kernel's rounding at the last scan
    point: |d_i - d_j| < D, so max|th| < k*D.  Raises InvalidParameterError
    when z/100 is too small to move the scan (subnormal z).
    """
    z = _check_positive("z_cm", z_cm)
    limit = _check_limit(theta_limit_deg)
    ceiling, step, k = 100.0 * z, z / 100.0, rf.deg_per_cm
    max_abs_phase = _ray_kernel(z, *_direction(_check_finite("phi_deg", phi_deg)), geom, k)
    unbounded = f"no {limit:g} deg crossing below r = {ceiling:g} cm at phi = {phi_deg:g} deg"
    d_far = math.hypot(ceiling + step, z) + geom.spacing_cm  # inf if the scan would overflow
    if limit > k * (geom.spacing_cm + 3.0 * _ROUNDING * d_far):
        raise RangeUnboundedError(unbounded)
    r_prev, f_prev, r = 0.0, 0.0, step
    while True:
        f = max_abs_phase(r)
        if f < f_prev - 1e-9:
            raise RangeUnboundedError(
                f"max|phase| not monotone along the ray at r={r:.1f} cm; cannot bracket")
        if f >= limit:
            break
        if r > ceiling:
            raise RangeUnboundedError(unbounded)
        r_prev, f_prev = r, f
        r += step
        if r == r_prev:  # the step z/100 underflowed to 0
            raise InvalidParameterError(f"z_cm too small for a scan step of z/100, got {z!r}")
    return _bisect(max_abs_phase, r_prev, r, limit)


def _screened_ranges(z, limit, directions, geom: ReceiverGeometry, k):
    """nonambiguous_range at height z along each (sin, cos) direction; None if unsettled.

    numpy replays each ray's first _SCREEN_STEPS scan points: the radii
    exactly (the same sums in order), max|th| to within tol = 32 eps k
    (max d1 + max d2 + max d3).  From the same coordinate differences,
    math.dist is within 1 ulp of a distance d and numpy's sqrt of squares
    within 1.25 eps d; the pair subtractions and products add 2 eps (d_i +
    d_j), so |th| differs by at most 4.25 eps k (d_i + d_j); 32 also covers
    rounding in f_prev - 1e-9 and in the tests here.  A ray is settled when
    every test of its scan up to the first max|th| >= limit clears tol, so
    the scalar scan takes the same branches; the scalar kernel then bisects.
    """
    import numpy as np

    r = np.add.accumulate(np.full(_SCREEN_STEPS, z / 100.0))
    x, y = np.array(directions).T[:, :, None] * r
    with np.errstate(all="ignore"):  # an overflow leaves tol non-finite, which settles nothing
        d = [np.sqrt((x - px) ** 2 + (y - py) ** 2 + np.square(-z - pz)) for px, py, pz in geom.coords]
        f = np.maximum.reduce([abs(k * (d[0] - d[1])), abs(k * (d[1] - d[2])), abs(k * (d[2] - d[0]))])
        tol = _ROUNDING * k * sum(float(di.max()) for di in d)
        clear = (abs(f - limit) >= tol) & (np.diff(f, axis=1, prepend=0.0) + 1e-9 >= 2.0 * tol)
    stop = np.logical_and.accumulate(clear, axis=1) & (f >= limit)  # the first crossing, if clear
    first, settled = stop.argmax(axis=1), stop.any(axis=1)
    sound = math.isfinite(tol) and z > 1e-150  # d >= z keeps every square clear of underflow
    return [_bisect(_ray_kernel(z, *direction, geom, k), float(r[n - 1]) if n else 0.0,
                    float(r[n]), limit) if sound and ok and r[n] < 100.0 * z else None
            for direction, n, ok in zip(directions, first.tolist(), settled.tolist())]


def cone_profile(z_list, theta_limit_deg, geom: ReceiverGeometry, rf: RFConfig, n_azimuths=24):
    """Non-ambiguity cone: per-height, per-azimuth maximum radius.

    Azimuths sample (-180, +180] uniformly; rows are sorted by (z, phi).
    Returns a list of (z_cm, phi_deg, r_max_cm), radii and errors bit for bit
    nonambiguous_range's, which takes the rays _screened_ranges leaves.
    """
    _check_count("n_azimuths", n_azimuths, 1)
    heights = sorted(_check_positive("z", z) for z in z_list)
    if not heights:
        raise InvalidParameterError("z_list must hold at least one height, got none")
    limit = _check_limit(theta_limit_deg)
    phis = [-180.0 + (j + 1) * 360.0 / n_azimuths for j in range(n_azimuths)]
    directions = [_direction(phi) for phi in phis]
    rows = []
    for z in heights:
        for i in range(0, n_azimuths, _SCREEN_RAYS):  # bounds the screen's arrays
            radii = _screened_ranges(z, limit, directions[i:i + _SCREEN_RAYS], geom, rf.deg_per_cm)
            rows += [(z, phi, nonambiguous_range(z, phi, limit, geom, rf) if r is None else r)
                     for phi, r in zip(phis[i:i + _SCREEN_RAYS], radii)]
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
