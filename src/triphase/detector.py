"""Detector transfer models and calibration.

Three models map a pair phase shift to a DC voltage:

* the ideal detector of the 90-degree hybrid couplers, ``v = sin(theta)`` in
  volts, non-ambiguous over +-90 deg;
* the linear region of the quadrature-shifted triangular chip characteristic,
  ``v = 10 mV/deg * theta``, odd in theta and slope-matched to the measurements;
* calibrated fifth-degree polynomials (voltage in, degrees out) measured on
  the prototype, one per input pair, non-ambiguous over +-80 deg.

The calibrated polynomials are the simulator's default model.  Their strict
monotonicity is proven exactly, so forward voltage synthesis has one root to
find, by a safeguarded Newton-bisection seeded from a per-profile table.  Its
cells, split at a hold threshold's guarded edges, are the landing loop's interval sources (_table).
Only fit_calibration imports numpy, so the landing path starts without it.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, partial

from ._textio import read_text, text_stream
from .errors import (
    CalibrationFitError,
    CalibrationRejectedError,
    FileFormatError,
    InvalidParameterError,
    PhaseAmbiguityError,
    VoltageOutOfRangeError,
)
from .errors import _check_count, _check_finite, _check_positive
from .geometry import _wrap

#: calibrated non-ambiguous phase range [deg]
CALIBRATED_RANGE_DEG = 80.0
#: voltage guard band beyond the validity interval [V]
GUARD_BAND_V = 0.010
#: how far the seed table may extend an end of [v_lo, v_hi] that falls short of +-80 deg [V]
BRACKET_EXTENSION_V = 0.100
#: grid points of the per-profile table that seeds voltage synthesis
SEED_TABLE_POINTS = 256
#: how far from 0 V a validity interval may reach: half the float range
_VOLTAGE_BOUND_V = sys.float_info.max / 2.0

PAIR_IDS = ("d12", "d23", "d31")
_PROFILE_FIELDS = ("pair_id", "a0", "a1", "a2", "a3", "a4", "a5",
                   "v_ref", "v_lo", "v_hi", "max_err_deg", "frequency_hz")


#: slope of the triangular model's linear region [mV/deg]
TRIANGULAR_SLOPE_MV_PER_DEG = 10.0


# the two laws below on a float theta their caller checked (and wrapped, for the sine)
def _sine(theta):
    return math.sin(math.radians(theta))


def _triangular(theta):
    return TRIANGULAR_SLOPE_MV_PER_DEG * theta / 1000.0


def ideal_sine_voltage(theta_deg) -> float:
    """Ideal detector output in volts, sin(theta); theta wrapped to (-180, 180]."""
    return _sine(_wrap(_check_finite("theta_deg", theta_deg)))


def triangular_voltage(theta_deg) -> float:
    """Triangular detector output in volts over its linear region, slope * theta."""
    return _triangular(_check_finite("theta_deg", theta_deg))


def _horner(coeffs, v):
    a0, a1, a2, a3, a4, a5 = coeffs  # exactly six, as _solve takes them
    return ((((a5 * v + a4) * v + a3) * v + a2) * v + a1) * v + a0


def _solve(coeffs, target, lo, hi, v):
    """Root of poly(x) = target in [lo, hi], where poly(lo) <= target <= poly(hi).

    coeffs is exactly six coefficients a0..a5 (pad a lower degree with high-order
    zeros).  Safeguarded Newton from v (Brent 1973): each evaluation moves a bracket
    end to v, a Newton step leaving the bracket becomes a bisection, and a step
    below 1e-9 (volts, for every caller) ends the search.  Once 100 Newton steps are
    spent, every step bisects, until one is that small or the bracket will not split."""
    a0, a1, a2, a3, a4, a5 = coeffs
    newton = 100
    while True:
        # p - target and dp = p' by Horner, in the order TestNewtonKernel's reference_solve
        # takes, so the two agree bit for bit
        p = a5 * v + a4
        dp = a5 * v + p
        p = p * v + a3
        dp = dp * v + p
        p = p * v + a2
        dp = dp * v + p
        p = p * v + a1
        dp = dp * v + p
        p = p * v + a0 - target
        if p <= 0.0:
            lo = v
        else:
            hi = v
        if (newton := newton - 1) < 0 or dp == 0.0 or not lo <= (nxt := v - p / dp) <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - v) <= 1e-9:
            return nxt
        v = nxt


def _slope(coeffs):
    """The derivative of six coefficients a0..a5, as six with a high-order 0.0."""
    return [k * c for k, c in enumerate(coeffs)][1:] + [0.0]


def _roots(coeffs, a, b):
    """Real roots in [a, b], ascending: at most one per piece between the derivative's roots."""
    if not any(coeffs[1:]):
        return []
    cuts = [a, *_roots(_slope(coeffs), a, b), b]
    roots = []
    for lo, hi in zip(cuts, cuts[1:]):
        sign = 1.0 if _horner(coeffs, lo) <= 0.0 else -1.0
        if sign * _horner(coeffs, hi) >= 0.0:
            roots.append(_solve([sign * c for c in coeffs], 0.0, lo, hi, 0.5 * (lo + hi)))
    return roots


def _slope_range(coeffs, a, b):
    """The least and largest p' on [a, b], at a, b and the roots of p''; the least is positive
    just where p'(a) is and _roots, testing p' at the same points, finds none on [a, b]."""
    slope = _slope(coeffs)
    slopes = [_horner(slope, v) for v in (a, b, *_roots(_slope(slope), a, b))]
    return min(slopes), max(slopes)


@dataclass(frozen=True, init=False)
class MeasurementSample:
    """One calibration measurement: nominal phase [deg], detector voltage [V]."""

    theta_deg: float
    voltage_v: float
    power_dbm: float | None = None  # input amplitude, metadata only

    def __init__(self, theta_deg, voltage_v, power_dbm=None):
        # each field is stored once, as the float its check returns
        object.__setattr__(self, "theta_deg", _check_finite("theta_deg", theta_deg))
        object.__setattr__(self, "voltage_v", _check_positive("voltage_v", voltage_v, zero_ok=True))
        object.__setattr__(self, "power_dbm",
                           None if power_dbm is None else _check_finite("power_dbm", power_dbm))


@dataclass(frozen=True)
class CalibrationPolynomial:
    """Fifth-degree voltage-to-phase map for one detector pair.

    coefficients a0..a5 give phase [deg] = sum(a_k * v**k); v_ref is the
    voltage reported for zero phase; [v_lo, v_hi] is the validity interval.
    Construction requires finite numbers, a positive frequency and an interval
    within half the float range, so every sum and difference of two of its
    voltages is finite; it proves strict monotonicity on the validity interval
    exactly, keeping the slope range it finds, and checks v_ref's phase is near 0.  It
    pickles as its fields: loading one proves it again, and rebuilds what it derived.
    """

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    v_ref: float
    v_lo: float
    v_hi: float
    max_err_deg: float
    pair_id: str
    frequency_hz: float = 2.46e9

    def __post_init__(self):
        if self.pair_id not in PAIR_IDS:
            raise InvalidParameterError(f"pair_id must be one of {PAIR_IDS}, got {self.pair_id!r}")
        for name in _PROFILE_FIELDS[1:-2]:  # a0..a5, v_ref, v_lo, v_hi
            object.__setattr__(self, name, _check_finite(name, getattr(self, name)))
        object.__setattr__(self, "max_err_deg",
                           _check_positive("max_err_deg", self.max_err_deg, zero_ok=True))
        object.__setattr__(self, "frequency_hz", _check_positive("frequency_hz", self.frequency_hz))
        if not -_VOLTAGE_BOUND_V <= self.v_lo < self.v_hi <= _VOLTAGE_BOUND_V:
            raise InvalidParameterError(
                f"need v_lo < v_hi within +-{_VOLTAGE_BOUND_V:.6g} V, got [{self.v_lo}, {self.v_hi}]")
        object.__setattr__(self, "_slopes", _slope_range(self.coeffs, self.v_lo, self.v_hi))
        if not self._slopes[0] > 0.0:
            raise CalibrationRejectedError(
                f"{self.pair_id}: polynomial not strictly increasing on "
                f"[{self.v_lo:.3f}, {self.v_hi:.3f}] V")
        ref_phase = self.evaluate(self.v_ref)
        if abs(ref_phase) > self.max_err_deg + 1e-6:
            raise CalibrationRejectedError(
                f"{self.pair_id}: phase at v_ref is {ref_phase:+.3f} deg, "
                f"exceeds max_err {self.max_err_deg:g} deg")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)

    @cached_property
    def coeffs(self):
        return (self.a0, self.a1, self.a2, self.a3, self.a4, self.a5)

    def evaluate(self, v) -> float:
        """Raw polynomial value in degrees, no domain check or clamping."""
        return _horner(self.coeffs, v)

    @cached_property
    def _seed_table(self):
        """(volts, phases) on a uniform grid over [v_lo, v_hi], phases ascending; an end short
        of +-80 deg extends by up to BRACKET_EXTENSION_V, never past a root of the slope."""
        slope = _slope(self.coeffs)
        lo, hi = self.v_lo, self.v_hi
        if self.evaluate(lo) > -CALIBRATED_RANGE_DEG:
            lo = max([lo - BRACKET_EXTENSION_V, *_roots(slope, lo - BRACKET_EXTENSION_V, lo)])
        if self.evaluate(hi) < CALIBRATED_RANGE_DEG:
            hi = min([hi + BRACKET_EXTENSION_V, *_roots(slope, hi, hi + BRACKET_EXTENSION_V)])
        step = (hi - lo) / (SEED_TABLE_POINTS - 1)
        volts = [lo + k * step for k in range(SEED_TABLE_POINTS - 1)] + [hi]
        return volts, [self.evaluate(v) for v in volts]

    @cached_property
    def _cells(self):
        """The threshold-free (breaks, intervals) of _table: from each break (first, the inner
        table phases, the float above final; the end phases within +-80 deg), theta's seed-table
        cell [volts[i - 1], volts[i]] less v_ref, i = bisect_right(phases, theta, 1, N - 1), or
        (nan, nan) off [first, final].  For theta wrapped as _lookup wraps it, voltage_from_phase
        seeds _solve in that cell, which _solve never leaves (an evaluation moves an end to the
        iterate; a Newton step leaving it becomes its midpoint), so by monotone rounding
        v - v_ref lies in it.  A table rounding left out of order is bisected break by break."""
        volts, phases = self._seed_table
        first = max(phases[0], -CALIBRATED_RANGE_DEG)
        top = math.nextafter(min(phases[-1], CALIBRATED_RANGE_DEG), math.inf)
        inner, ends = sorted(phases[1:-1]), [v - self.v_ref for v in volts]
        a, b = bisect_right(inner, first), bisect_left(inner, top)
        breaks = [first, *inner[a:b], top]
        cells = (zip(ends[a:b + 1], ends[a + 1:b + 2]) if inner == phases[1:-1] else  # ascending
                 ((ends[i - 1], ends[i]) for i in
                  map(partial(bisect_right, phases, lo=1, hi=SEED_TABLE_POINTS - 1), breaks[:-1])))
        return breaks, [(math.nan, math.nan), *cells, (math.nan, math.nan)]


def phase_from_voltage(poly: CalibrationPolynomial, v) -> float:
    """Recover the pair phase shift [deg] from a raw detector voltage.

    Reads the validity interval plus a 10 mV guard band, widened to the seed
    table's span, where the curve rises, so every voltage voltage_from_phase
    returns reads back; the result is clamped to the +-80 deg range.  Outside,
    the detector state is ambiguous and an error is raised.
    """
    v = _check_finite("v", v)
    volts, _ = poly._seed_table  # spans [v_lo, v_hi] or more, so the hull below is the union
    lo, hi = min(poly.v_lo - GUARD_BAND_V, volts[0]), max(poly.v_hi + GUARD_BAND_V, volts[-1])
    if not lo <= v <= hi:
        raise VoltageOutOfRangeError(
            f"{poly.pair_id}: {v:.4f} V outside the readable [{lo:.4f}, {hi:.4f}] V")
    theta = poly.evaluate(v)
    if theta > CALIBRATED_RANGE_DEG:
        return CALIBRATED_RANGE_DEG
    if theta < -CALIBRATED_RANGE_DEG:
        return -CALIBRATED_RANGE_DEG
    return theta


def voltage_from_phase(poly: CalibrationPolynomial, theta_deg) -> float:
    """Synthesize the raw voltage whose calibrated phase equals theta_deg.

    The one synthesis path: the profile's seed table brackets the root and
    interpolates a start for a safeguarded Newton-bisection.  The table reaches
    up to 100 mV past v_lo or v_hi where the curve still rises, so a curve that
    turns over there keeps the phases it reaches; any other theta is rejected.
    """
    theta_deg = _check_finite("theta_deg", theta_deg)
    if abs(theta_deg) > CALIBRATED_RANGE_DEG:
        raise PhaseAmbiguityError(poly.pair_id, theta_deg)

    volts, phases = poly._seed_table
    if not phases[0] <= theta_deg <= phases[-1]:
        v_end = poly.v_lo if theta_deg < phases[0] else poly.v_hi
        raise CalibrationRejectedError(
            f"{poly.pair_id}: polynomial does not reach {theta_deg:+.2f} deg monotonically within "
            f"{BRACKET_EXTENSION_V * 1000:.0f} mV of {v_end:.3f} V; cannot synthesize voltage")
    i = bisect_right(phases, theta_deg, 1, SEED_TABLE_POINTS - 1)
    lo, hi = volts[i - 1], volts[i]
    seed = lo + (theta_deg - phases[i - 1]) * (hi - lo) / (phases[i] - phases[i - 1])
    # the product overflows where phases or voltages are huge, and rounding may carry the seed
    # past a cell end straddling 0 V; _solve then starts, and so stays, inside [lo, hi]
    if not lo <= seed <= hi:
        seed = 0.5 * (lo + hi)
    return _solve(poly.coeffs, theta_deg, lo, hi, seed)


#: how far the voltages at a pair's edges lie inside or past +-threshold_v and 0 V [V]
_HOLD_GUARD_V = 1e-6
_NO_BOX = (math.inf, -math.inf)  # the empty hold box: it holds no phase
#: the edges of a pair without the proof: the box holds no phase, and no phase lies past
#: the zero or hold edges
_NO_EDGES = (_NO_BOX, (-math.inf, math.inf), (-math.inf, math.inf))


def _edges(poly: CalibrationPolynomial, threshold_v):
    """The pair's guarded phase edges [deg] for the hold threshold: (box, zero, hold), three
    (lo, hi) intervals, p = evaluate and d = _HOLD_GUARD_V:

    * box = [p(v_ref - thr + d), p(v_ref + thr - d)] within +-80 deg;
    * zero = (p(v_ref - d), p(v_ref + d)), the sign edges;
    * hold = (p(v_ref - thr - d), p(v_ref + thr + d)), the outer edges.

    For theta that voltage_from_phase accepts, the float v - v_ref it returns lies in
    [-thr, thr] for theta in box; it is >= 0 for theta > zero's hi, < 0 for theta < zero's
    lo, > thr for theta > hold's hi and < -thr for theta < hold's lo.  Why: v* = p^-1(theta)
    lies past c = v_ref + s as theta lies past p(c), s being +-(thr - d), +-d or +-(thr + d),
    up to the rounding below, and d covers the distance from v* to v:
    * _solve's bracket is theta's seed-table cell, where voltage_from_phase keeps its seed, and
      every iterate stays in it.  A bisection stops with v* in a bracket of width <= 2e-9 and
      returns its midpoint; once 100 Newton steps are spent, every step bisects.  A Newton
      step from v stops at |step| <= 1e-9, and p(v) - theta = p'(xi) (v - v*), so
      |v - v*| <= 1e-9 p'(v) / p'(xi).  In all, the error is at most 1e-9 (1 + s_max / s_min),
      the extremes of p' on [v_lo, v_hi] that the monotonicity proof kept, wherever the cell
      lies in [v_lo, v_hi].  v_ref +- thr lies two cells inside [v_lo, v_hi], one for the
      cell holding v* and one to spare for the table's rounding and d, so a cell holding a
      v* within v_ref +- (thr + d) does.  A theta past a zero or hold edge may lie in a cell
      reaching past v_hi (or v_lo), but then the cell's near end, and v, lie past
      v_ref + thr + d (or v_ref - thr - d).
    * Horner's p(v), at the edges and in _solve, is off by at most 10u sum|a_k||v|^k degrees
      (Higham 2002, section 5.1), which moves a root by that over s_min; 1e-14 at the largest
      |v| in [v_lo, v_hi] covers it and the rounding of v_ref +- thr +- d.
    A pair gets edges only where the two sum to at most d / 2, the rest covering the rounding
    of that bound, and where d < thr, so the box holds a phase: a profile whose slope varies
    about 500-fold or more across [v_lo, v_hi], or a threshold of d or less, gets _NO_EDGES.
    So v lies within d / 2 of v*, on c's side of v_ref + s -+ d / 2.  Rounding v - v_ref is
    monotone, 0 and +-thr are floats, a float difference is 0 only where v = v_ref, and the
    gate bounds thr by 5e7 V (s_min (v_hi - v_lo) <= 2 sum|a_k||v|^k), so d / 2 is many of
    thr's ulps: v - v_ref rounds to the side of 0 and +-thr that v lies on.
    """
    thr, v_ref, v_lo, v_hi = threshold_v, poly.v_ref, poly.v_lo, poly.v_hi
    volts, _ = poly._seed_table
    cell = (volts[-1] - volts[0]) / (SEED_TABLE_POINTS - 1)
    s_min, s_max = poly._slopes
    rounding = 1e-14 * _horner([abs(c) for c in poly.coeffs], max(-v_lo, v_hi))  # sum|a_k||v|^k
    if not (_HOLD_GUARD_V < thr
            and v_lo + 2.0 * cell <= v_ref - thr < v_ref + thr <= v_hi - 2.0 * cell
            and 1e-9 * (s_min + s_max) + rounding <= 0.5 * _HOLD_GUARD_V * s_min):
        return _NO_EDGES
    d, p = _HOLD_GUARD_V, poly.evaluate
    box = (max(p(v_ref - thr + d), -CALIBRATED_RANGE_DEG),
           min(p(v_ref + thr - d), CALIBRATED_RANGE_DEG))
    return box, (p(v_ref - d), p(v_ref + d)), (p(v_ref - thr - d), p(v_ref + thr + d))


def _lookup(breaks, intervals, theta):
    """A calibrated pair's interval source, as simulator._point's, read from its table (_table)."""
    return intervals[bisect_right(breaks, _wrap(theta))]


def _table(poly: CalibrationPolynomial, threshold_v):
    """The pair's hold box and interval source (_lookup) for the threshold: poly._cells with
    the threshold's edges (_edges) spliced in.  poly keeps them in one slot, for its last
    threshold, per instance, as equal profiles may differ in a zero's sign; a new threshold
    splices into a copy of the cells and replaces the slot, so no source handed out changes.
    Past a sign edge v is >= 0 or < 0, past an outer edge > thr or < -thr.  The edges ascend,
    outer, sign, sign, outer, and (an upper one at the float above it) split the cells; as
    neither i nor the volts descend, a bound moves one run of ends next to its edge.
    """
    if (slot := poly.__dict__.get("_table", (None,)))[0] == threshold_v:
        return slot[1:]
    breaks, intervals = map(list, poly._cells)
    box, (zero_lo, zero_hi), (hold_lo, hold_hi) = _edges(poly, threshold_v)
    cuts = [min(max(edge, breaks[0]), breaks[-1]) for edge in (
        zero_lo, hold_lo, math.nextafter(zero_hi, math.inf), math.nextafter(hold_hi, math.inf))]
    for cut in cuts:
        k = bisect_right(breaks, cut)  # intervals[k] holds from breaks[k - 1] up to the cut
        breaks.insert(k, cut)
        intervals.insert(k + 1, intervals[k])
    below, below_hold, above, above_hold, end = (  # the sub-cells from each cut, and past final
        bisect_left(breaks, cut) + 1 for cut in [*cuts, breaks[-1]])
    past = math.nextafter(threshold_v, math.inf)
    for bound, i, j in ((0.0, above, above_hold), (past, above_hold, end)):
        j = bisect_right(intervals, bound, i, j, key=lambda iv: iv[0])
        intervals[i:j] = [(bound, hi) for _, hi in intervals[i:j]]
    for bound, i, j in ((-past, 1, below_hold), (-math.ulp(0.0), below_hold, below)):
        i = bisect_left(intervals, bound, i, j, key=lambda iv: iv[1])
        intervals[i:j] = [(lo, bound) for lo, _ in intervals[i:j]]
    poly.__dict__["_table"] = slot = threshold_v, box, partial(_lookup, breaks, intervals)
    return slot[1:]


def fit_calibration(samples, degree=5, pair_id="d12", frequency_hz=2.46e9) -> CalibrationPolynomial:
    """Least-squares polynomial (voltage -> phase) from measurement samples.

    Solved over a column-scaled Vandermonde matrix with an SVD-backed least
    squares, which also handles repeated measurement rows.  max_err is the
    largest absolute residual; v_lo/v_hi come from the sample extrema; v_ref
    is the fitted zero crossing.  Non-monotone fits are rejected.
    """
    import numpy as np

    if _check_count("degree", degree, 1) > 5:
        raise InvalidParameterError(f"degree must be an integer in [1, 5], got {degree!r}")
    samples = list(samples)
    if len(samples) < degree + 1:
        raise CalibrationFitError(
            f"need at least {degree + 1} samples for degree {degree}, got {len(samples)}")
    for s in samples:
        if abs(s.theta_deg) > CALIBRATED_RANGE_DEG:
            raise InvalidParameterError(
                f"sample phase {s.theta_deg:+.1f} deg outside +-{CALIBRATED_RANGE_DEG:g} deg")

    volts = np.array([s.voltage_v for s in samples], dtype=float)
    thetas = np.array([s.theta_deg for s in samples], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        design = np.vander(volts, degree + 1, increasing=True)
        col_scale = np.linalg.norm(design, axis=0)
    if not (np.isfinite(design).all() and np.isfinite(col_scale).all()):
        raise CalibrationFitError(
            f"sample voltages up to {np.max(np.abs(volts)):.6g} V overflow the "
            f"degree-{degree} design matrix")
    if np.any(col_scale == 0.0):
        raise CalibrationFitError("degenerate design matrix (zero column)")
    scaled, *_ = np.linalg.lstsq(design / col_scale, thetas, rcond=None)
    coeffs = scaled / col_scale

    residuals = design @ coeffs - thetas
    max_err = float(np.max(np.abs(residuals)))
    v_lo, v_hi = float(volts.min()), float(volts.max())

    padded = [float(c) for c in coeffs] + [0.0] * (6 - len(coeffs))
    p_lo, p_hi = _horner(padded, v_lo), _horner(padded, v_hi)
    if p_lo > 1e-6 or p_hi < -1e-6:  # an end within 1e-6 deg of zero reaches it
        raise CalibrationRejectedError(
            "fitted polynomial does not rise through 0 deg on [v_lo, v_hi]: "
            f"{p_lo:+.2f} deg at {v_lo:.3f} V, {p_hi:+.2f} deg at {v_hi:.3f} V")
    if not p_hi - p_lo > 2e-6:  # a rise within the zero band's width is rounding noise
        raise CalibrationRejectedError(
            f"fitted polynomial is flat: its phase rises {p_hi - p_lo:.3g} deg on [v_lo, v_hi], "
            "not more than 2e-06 deg")
    v_ref = (v_lo if p_lo > 0.0 else v_hi if p_hi < 0.0  # an end just past zero is the crossing
             else _solve(padded, 0.0, v_lo, v_hi, 0.5 * (v_lo + v_hi)))
    return CalibrationPolynomial(
        *padded, v_ref=v_ref, v_lo=v_lo, v_hi=v_hi,
        max_err_deg=max_err, pair_id=pair_id, frequency_hz=frequency_hz)


#: measured prototype calibration profiles at 2.46 GHz, one per input pair; v_lo and v_hi
#: are where each polynomial reaches -80 and +80 deg, as tests/test_detector.py re-derives
TABLE2_D12 = CalibrationPolynomial(
    -114.203, 199.396, -228.453, 164.691, -55.965, 7.245, v_ref=1.530,
    v_lo=0.21806830805817157, v_hi=2.842351039565547, max_err_deg=0.9, pair_id="d12")
TABLE2_D23 = CalibrationPolynomial(
    -125.812, 211.489, -240.403, 172.357, -58.608, 7.596, v_ref=1.624,
    v_lo=0.2981865145911088, v_hi=2.8838876752523137, max_err_deg=1.7, pair_id="d23")
TABLE2_D31 = CalibrationPolynomial(
    -129.954, 274.718, -328.593, 226.222, -73.488, 9.115, v_ref=1.436,
    v_lo=0.2403806806715456, v_hi=2.7916997333114546, max_err_deg=3.8, pair_id="d31")


def builtin_profile_set():
    """The measured-prototype trio keyed by pair id."""
    return {"d12": TABLE2_D12, "d23": TABLE2_D23, "d31": TABLE2_D31}


def save_profile(poly: CalibrationPolynomial, path_or_file):
    """Write a calibration profile as key = value text."""
    with text_stream(path_or_file) as fh:
        fh.write(f"pair_id = {poly.pair_id}\n")
        for name in _PROFILE_FIELDS[1:]:
            fh.write(f"{name} = {getattr(poly, name)!r}\n")


def load_profile(path_or_file) -> CalibrationPolynomial:
    """Read a UTF-8 key = value calibration profile, each key once; '#' starts a comment."""
    values = dict.fromkeys(_PROFILE_FIELDS)  # each key's text, None until its line is read
    for lineno, line in enumerate(read_text(path_or_file).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FileFormatError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if values.get(key, "") is not None:  # one lookup: "" if unknown, text if repeated
            raise FileFormatError(
                f"line {lineno}: {'repeated' if key in values else 'unknown'} key {key!r}")
        values[key] = raw.strip()
    missing = [f for f in _PROFILE_FIELDS if values[f] is None]
    if missing:
        raise FileFormatError(f"profile missing fields: {', '.join(missing)}")
    try:
        return CalibrationPolynomial(pair_id=values["pair_id"],
                                     **{f: float(values[f]) for f in _PROFILE_FIELDS[1:]})
    except ValueError as exc:
        raise FileFormatError(f"bad profile value: {exc}") from exc


def read_measurement_csv(path_or_file):
    """Read measurement samples from UTF-8 CSV with header theta_deg,voltage_v,power_dbm; a
    caller's stream splits into lines as a path does, and errors name physical lines."""
    reader = csv.reader(io.StringIO(read_text(path_or_file), newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise FileFormatError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise FileFormatError("empty measurement file")
    expected = ["theta_deg", "voltage_v", "power_dbm"]
    if [h.strip() for h in rows[0][1]] != expected:
        raise FileFormatError(f"line 1: expected header {','.join(expected)}")
    samples = []
    for lineno, row in rows[1:]:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise FileFormatError(f"line {lineno}: expected 3 fields, got {len(row)}")
        try:
            theta, volts = float(row[0]), float(row[1])
            power = float(row[2]) if row[2].strip() else None
        except ValueError:
            raise FileFormatError(f"line {lineno}: non-numeric field in {row!r}") from None
        try:
            samples.append(MeasurementSample(theta, volts, power))
        except InvalidParameterError as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from None
    if not samples:
        raise FileFormatError("no measurement rows found")
    return samples
