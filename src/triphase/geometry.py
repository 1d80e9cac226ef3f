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
from dataclasses import dataclass, field
from functools import cached_property

from ._textio import write_csv
from .errors import DegenerateGeometryError, InvalidParameterError, RangeUnboundedError
from .errors import _check_count, _check_finite, _check_positive

#: speed of light in vacuum [m/s]
SPEED_OF_LIGHT_MPS = 299_792_458.0

_ROUNDING = 32.0 * 2.0 ** -52  # see _proven_start


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


def _phases(q, geom: ReceiverGeometry, k):
    """The phase law: th12, th23, th31 = k * (d1 - d2), k * (d2 - d3), k * (d3 - d1) from the
    point q = (x, y, z), unwrapped; k = rf.deg_per_cm gives degrees, k = 1.0 the path
    differences [cm] exactly.  q is no input: each caller checks that, or q lies below them.
    """
    p1, p2, p3 = geom.coords
    d1 = math.dist(q, p1)
    d2 = math.dist(q, p2)
    d3 = math.dist(q, p3)
    return k * (d1 - d2), k * (d2 - d3), k * (d3 - d1)


def _phase_rounding(across, height, geom: ReceiverGeometry, k, limit, finite=True):
    """The bound [deg] on _phases' rounding at every point within `across` [cm] horizontally
    and `height` [cm] vertically of the drone: _proven_start's bound at the farthest of them,
    far = hypot(across + D, height).  Where it reaches limit, rounding alone could move a
    phase by the limit, and the call is rejected, as it is for a caller's `finite` False."""
    d = geom.spacing_cm
    far = math.hypot(across + d, height)
    err = _ROUNDING * k * (2.0 * far + d)
    if not (err < limit and finite):  # inf and nan fail too
        raise InvalidParameterError(f"beacon too far to resolve: up to {far:g} cm from the drone")
    return err


def phase_solution(geom: ReceiverGeometry, landing: Vector3, rf: RFConfig) -> PhaseSolution:
    """Exact near-field path differences, delays and phase shifts for one pose.

    Raises DegenerateGeometryError if the landing point coincides with a
    receiver input.  Phases are left unwrapped; wrap only where a detector
    model needs it.
    """
    if (q := (landing.x, landing.y, landing.z)) in geom.coords:  # just where a distance is 0
        raise DegenerateGeometryError("landing point coincides with a receiver input")
    dd12, dd23, dd31 = _phases(q, geom, 1.0)
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
    grid including phi = 0).  A beacon so far that rounding alone could move a phase by
    180 deg, where it wraps, is rejected.
    """
    _check_count("n_samples", n_samples, 3)
    r = _check_positive("r_cm", r_cm, zero_ok=True)
    z = _check_positive("z_cm", z_cm)
    k = rf.deg_per_cm
    _phase_rounding(r, z, geom, k, 180.0)
    rows = []
    step = 360.0 / (n_samples - 1)
    for j in range(n_samples):
        phi = -180.0 + j * step
        sin_phi, cos_phi = _direction(phi)
        rows.append((phi, *_phases((r * sin_phi, r * cos_phi, -z), geom, k)))
    return rows


def _proven_start(z, limit, sin_phi, cos_phi, geom: ReceiverGeometry, k):
    """A radius below which every scan point's computed max|th| is proven to stay under the
    limit and to rise, so the scan need not evaluate them; 0.0 where that is not shown.

    With a_i = e.P_i for the ray's unit direction e and the exact inputs, R = D/sqrt(3) < D
    from the origin, d_i^2 - d_j^2 = 2r(a_j - a_i).  So with u = max|a_i - a_j| and d_i
    between hypot(z, max(0, r - D)) and hypot(z, r + D), max|th| lies between
    k u r / hypot(z, r + D) and k u r / hypot(z, max(0, r - D)).  For r < z the upper bound
    rises, and as |dd_i/dr| <= 1 and d_i + d_j >= 2z, max|th| rises over a step z/100 by at
    least k u (z - r) / (101 hypot(z, r + D)).  The computed max|th| is within
    7 eps k (z + r + D) of the exact one (math.dist is within 1 ulp; the ray point, the inputs,
    the subtractions and k add the rest), so err = _ROUNDING k (2z + D) covers it up to r = z
    with room for the rounding here.  The radius returned, at most 0.9 z, is where the upper
    bound meets limit - err, kept only where the rise there is at least 2 err; the rise
    also covers the step from the last point below it, so that step needs no check.
    """
    d = geom.spacing_cm
    a = [sin_phi * x + cos_phi * y for x, y, _ in geom.coords]
    u, err = max(a) - min(a), _ROUNDING * k * (2.0 * z + d)
    if not limit > err:
        return 0.0
    alpha = k * u / (limit - err)  # the upper bound meets limit - err where alpha r = hypot(...)
    if alpha * d > z:  # inside the inputs' circle, where the bound's hypot is z
        r = z / alpha
    else:  # the root of (alpha^2 - 1) r^2 + 2 D r - (z^2 + D^2), none if the radicand is < 0
        radicand = d * d + (alpha * alpha - 1.0) * (z * z + d * d)
        r = (z * z + d * d) / (d + math.sqrt(radicand)) if radicand >= 0.0 else z
    r = min(r, 0.9 * z)
    # a bound that overflowed, underflowed or is nan fails this test
    if k * u * (z - r) >= 202.0 * err * math.hypot(z, r + d):
        return r
    return 0.0


def nonambiguous_range(z_cm, phi_deg, theta_limit_deg, geom: ReceiverGeometry, rf: RFConfig):
    """Largest radius at which all three |phase shifts| stay within theta_limit.

    Brackets the first crossing with an outward scan (step z/100) from the
    last step below _proven_start's radius, verifying that max|th| grows
    monotonically along the ray, then bisects the bracket down to 0.1 cm,
    or to one ulp where r's ulp exceeds 0.1 cm.  Raises RangeUnboundedError
    from one exit when no crossing is found below r = 100 * z: past that
    ceiling, or at once when the limit exceeds k*D plus the kernel's rounding
    at the last scan point, as |d_i - d_j| < D, so max|th| < k*D.  Raises
    InvalidParameterError when z/100 is too small to move the scan (subnormal z).
    """
    z = _check_positive("z_cm", z_cm)
    limit = _check_finite("theta_limit_deg", theta_limit_deg)
    if not 0.0 < limit < 180.0:
        raise InvalidParameterError(f"theta_limit_deg must be in (0, 180), got {limit}")
    ceiling, step, k = 100.0 * z, z / 100.0, rf.deg_per_cm
    phi = _check_finite("phi_deg", phi_deg)
    sin_phi, cos_phi = _direction(phi)

    def max_abs_phase(r):
        # r overflows only for extents near the float limit; a scan at inf would never end
        if not math.isfinite(r):
            raise InvalidParameterError(f"r_cm must be a finite number, got {r!r}")
        a, b, c = _phases((r * sin_phi, r * cos_phi, -z), geom, k)
        return max(abs(a), abs(b), abs(c))

    d_far = math.hypot(ceiling + step, z) + geom.spacing_cm  # inf if the scan would overflow
    if limit <= k * (geom.spacing_cm + 3.0 * _ROUNDING * d_far):
        r_prev, f_prev, r = 0.0, 0.0, step
        start = _proven_start(z, limit, sin_phi, cos_phi, geom, k)
        while r < start:  # the scan's own sums, so every radius keeps its bits
            r_prev, r = r, r + step
        # near the float limit every distance overflows and max|th| is nan: scan on to r = inf
        while not (f := max_abs_phase(r)) >= limit:
            if f < f_prev - 1e-9:
                raise RangeUnboundedError(
                    f"max|phase| not monotone along the ray at r={r:.1f} cm; cannot bracket")
            if r > ceiling:
                break
            r_prev, f_prev = r, f
            r += step
            if r == r_prev:  # the step z/100 underflowed to 0
                raise InvalidParameterError(f"z_cm too small for a scan step of z/100, got {z!r}")
        else:
            lo, hi = r_prev, r
            # where r's ulp exceeds 0.1 cm the midpoint of a one-ulp bracket rounds to an end
            while hi - lo > 0.1 and (mid := 0.5 * (lo + hi)) not in (lo, hi):
                if max_abs_phase(mid) < limit:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    raise RangeUnboundedError(
        f"no {limit:g} deg crossing below r = {ceiling:g} cm at phi = {phi:g} deg")


def cone_profile(z_list, theta_limit_deg, geom: ReceiverGeometry, rf: RFConfig, n_azimuths=24):
    """Non-ambiguity cone: per-height, per-azimuth maximum radius.

    Azimuths sample (-180, +180] uniformly; rows are sorted by (z, phi).
    Returns a list of (z_cm, phi_deg, r_max_cm), one nonambiguous_range per row.
    """
    _check_count("n_azimuths", n_azimuths, 1)
    try:
        if isinstance(z_list, (str, bytes, bytearray)):  # iterable, but of characters or bytes
            raise TypeError
        heights = sorted(_check_positive("z", z) for z in z_list)
    except TypeError:  # z_list is not iterable: _check_positive raises no TypeError of its own
        raise InvalidParameterError(f"z_list must be a list of heights, got {z_list!r}") from None
    if not heights:
        raise InvalidParameterError("z_list must hold at least one height, got none")
    phis = [-180.0 + (j + 1) * 360.0 / n_azimuths for j in range(n_azimuths)]
    return [(z, phi, nonambiguous_range(z, phi, theta_limit_deg, geom, rf))
            for z in heights for phi in phis]


def write_sweep_csv(path_or_file, rows):
    """Emit azimuth sweep rows as CSV: phi_deg,th12_deg,th23_deg,th31_deg (6 decimals)."""
    write_csv(path_or_file, ("phi_deg", "th12_deg", "th23_deg", "th31_deg"), rows)


def write_cone_csv(path_or_file, rows):
    """Emit cone profile rows as CSV: z_cm,phi_deg,rmax_cm (6 decimals)."""
    write_csv(path_or_file, ("z_cm", "phi_deg", "rmax_cm"), rows)
