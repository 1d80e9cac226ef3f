"""Closed-loop landing simulation.

Each cycle senses the beacon through the full chain (world pose -> body-frame
geometry -> pair phase shifts -> centered voltages of one DETECTOR_MODES
entry, calibrated by default), asks the guidance rules for maneuvers, applies
them, and descends one step after every tracking-or-hold cycle (an escape yaw
is a reorientation and does not descend).  The loop ends at the minimum height
or when the iteration budget runs out; a phase-ambiguity event aborts with a
diagnostic and the partial log.

A run decides most cycles in phase, without an inversion.  A cycle whose raw
phases lie inside the pairs' hold boxes (detector._edges), shrunk by a margin
that covers _phases' rounding and the wrap, is a hold, and as a hold moves only
z, the rest of its run is searched, not sensed cycle by cycle (_proven_run).
For every other cycle guidance's one rule, its seam guard included, decides on
each pair's interval holding its voltage (_cells, _point), or, where it cannot,
on the sensed voltages.  The records sense a row decided in phase when read.

Inputs are validated where they enter: at the public constructors, in `sense`,
and once per run at `simulate_landing` entry, where one bound, _check_reach,
makes the loop's pose and phases finite.  In the loop only _body_point's
below-plane test and, in calibrated mode, voltage_from_phase's theta check run;
the ideal-sine and triangular modes run the detector's unchecked cores.

Runs are single-threaded and fully deterministic: identical inputs produce
bit-identical trajectory logs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

from ._textio import write_csv
from .detector import (
    CALIBRATED_RANGE_DEG,
    PAIR_IDS,
    SEED_TABLE_POINTS,
    _NO_BOX,
    _edges,
    _sine,
    _triangular,
    voltage_from_phase,
)
from .errors import InvalidParameterError, PhaseAmbiguityError
from .errors import _check_count, _check_finite, _check_positive
from .geometry import (
    ReceiverGeometry,
    RFConfig,
    Vector3,
    _phase_rounding,
    _phases,
    _wrap,
    phase_solution,
)
from .guidance import (  # decide and tracking_maneuvers: the benchmark's tracer wraps them here
    _DEFAULT_GUIDANCE,
    _HOLD_ONLY,
    GuidanceConfig,
    Maneuver,
    ManeuverKind,
    SectorId,
    VoltageTriple,
    _rule,
    classify_sector,
    decide,
    tracking_maneuvers,
)


def _centered(poly, theta):
    """The calibrated law: theta's synthesized voltage, centered.  It looks voltage_from_phase
    up in this module, where the benchmark tracer wraps it, and pickles with a run's records."""
    return voltage_from_phase(poly, theta) - poly.v_ref


def _calibrated(profiles, rf: RFConfig):
    """The calibrated range and the set's three laws, in PAIR_IDS order, after rejecting a set
    that lacks a pair, mislabels one or was measured off rf's frequency."""
    if profiles is None:
        raise InvalidParameterError("calibrated mode requires calibration profiles")
    for pair in PAIR_IDS:
        poly = profiles[pair] if pair in profiles else None
        if getattr(poly, "pair_id", None) != pair:
            raise InvalidParameterError(f"calibration profiles need a {pair} profile under {pair!r}")
        if poly.frequency_hz != rf.frequency_hz:
            raise InvalidParameterError(f"profile {pair} and rf disagree on frequency: "
                                        f"{poly.frequency_hz} Hz vs {rf.frequency_hz} Hz")
    return CALIBRATED_RANGE_DEG, [partial(_centered, profiles[pair]) for pair in PAIR_IDS]


def _point(law, limit, theta):
    """An ideal law's interval source: the voltage _sense gives for a raw pair phase theta as
    (v, v) [V], or, where _sense raises, (nan, nan), which settles none of the rule's tests."""
    theta = _wrap(theta)
    if abs(theta) > limit:
        return math.nan, math.nan
    v = law(theta)
    return v, v


def _cells(poly, limit, threshold_v, edges):
    """A calibrated pair's interval source, as _point's, but a seed-table cell tightened by the
    pair's edges for the threshold (detector._edges).  Why it holds the voltage: _sense wraps
    theta as here, and voltage_from_phase solves in the cell [volts[i - 1], volts[i]],
    i = bisect_right(phases, theta, 1, N - 1).  It seeds _solve inside the cell, and _solve
    never leaves its bracket: each evaluation moves an end to the iterate, and a Newton step
    leaving the bracket becomes its midpoint.  So v lies in the cell and, rounding being
    monotone, v - v_ref between the cell's ends less v_ref.  Past a sign edge it is >= 0 or
    < 0, past an outer edge > thr or < -thr (_edges): the interval ends there at 0, the float
    below 0 or the float past +-thr.
    """
    volts, phases = poly._seed_table
    v_ref, cells = poly.v_ref, SEED_TABLE_POINTS - 1
    first, final = max(phases[0], -limit), min(phases[-1], limit)
    _, (zero_lo, zero_hi), (hold_lo, hold_hi) = edges
    past, negative = math.nextafter(threshold_v, math.inf), -math.ulp(0.0)  # past thr, below 0

    def interval(theta):
        theta = _wrap(theta)
        if not first <= theta <= final:
            return math.nan, math.nan
        i = bisect_right(phases, theta, 1, cells)
        lo, hi = volts[i - 1] - v_ref, volts[i] - v_ref
        if theta > zero_hi:  # v >= 0, and v > thr past the outer edge
            bound = past if theta > hold_hi else 0.0
            return (lo if lo > bound else bound), hi
        if theta < zero_lo:  # v < 0, and v < -thr past the outer edge
            bound = -past if theta < hold_lo else negative
            return lo, (hi if hi < bound else bound)
        return lo, hi

    return interval


def _calibrated_mode(profiles, rf, threshold_v):
    """The calibrated DETECTOR_MODES entry; each pair's box and source read its edges."""
    limit, laws = _calibrated(profiles, rf)
    edges = [_edges(profiles[pair], threshold_v) for pair in PAIR_IDS]
    return (limit, laws, [box for box, _, _ in edges],
            [_cells(profiles[pair], limit, threshold_v, e) for pair, e in zip(PAIR_IDS, edges)])


def _ideal_mode(law, profiles, rf, threshold_v):
    """An ideal law's DETECTOR_MODES entry: it reads no profile set and has no hold box."""
    return 90.0, (law,) * 3, (_NO_BOX,) * 3, (partial(_point, law, 90.0),) * 3


#: detector mode -> f(profiles, rf, threshold_v) giving the mode's non-ambiguous range [deg],
#: its three laws, in PAIR_IDS order, from a wrapped pair phase to its centered voltage [V],
#: the pairs' three hold boxes [deg] for the hold threshold, _NO_BOX where a pair has none,
#: and the pairs' three interval sources for guidance's rule (_point, _cells)
DETECTOR_MODES = {
    "calibrated": _calibrated_mode,
    "ideal-sine": partial(_ideal_mode, _sine),
    "triangular": partial(_ideal_mode, _triangular),
}


@dataclass(frozen=True)
class DroneState:
    """World-frame pose: position in cm (z = height above the beacon plane),
    heading = azimuth of body +Y, clockwise-positive, in (-180, 180]."""

    position: Vector3
    heading_deg: float = 0.0

    def __post_init__(self):
        if not isinstance(self.position, Vector3):
            raise InvalidParameterError(f"position must be a Vector3, got {self.position!r}")
        _check_positive("position.z", self.position.z)
        object.__setattr__(self, "heading_deg", _wrap(_check_finite("heading_deg", self.heading_deg)))


@dataclass(frozen=True)
class SimConfig:
    """Loop settings; detector_mode names a DETECTOR_MODES entry."""

    descent_step_cm: float = 1.0
    min_height_cm: float = 1.0
    max_iterations: int = 100_000
    detector_mode: str = "calibrated"

    def __post_init__(self):
        for name in ("descent_step_cm", "min_height_cm"):
            object.__setattr__(self, name, _check_positive(name, getattr(self, name)))
        _check_count("max_iterations", self.max_iterations, 1)
        if not isinstance(self.detector_mode, str) or self.detector_mode not in DETECTOR_MODES:
            raise InvalidParameterError(
                f"detector_mode must be one of {tuple(DETECTOR_MODES)}, got {self.detector_mode!r}")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One sense-decide-act cycle: pose at sensing time, voltages, sector, maneuvers."""

    iteration: int
    state: DroneState
    voltages: VoltageTriple
    sector: SectorId
    maneuvers: tuple


@dataclass(frozen=True)
class SimulationResult:
    records: Sequence[TrajectoryRecord]
    touchdown: bool
    aborted: bool
    diagnostic: str | None
    first_hold_iteration: int | None
    final_state: DroneState

    @property
    def converged(self) -> bool:
        """A hold state (all centered voltages inside the threshold) was reached
        and the run descended to the minimum height without an ambiguity abort."""
        return self.first_hold_iteration is not None and self.touchdown and not self.aborted

    @property
    def iterations(self) -> int:
        return len(self.records)


def _trusted(cls, **fields):
    """An instance of frozen dataclass cls from fields known valid: no __post_init__ runs."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _pose(x, y, z, heading):
    return _trusted(DroneState, position=_trusted(Vector3, x=x, y=y, z=z), heading_deg=heading)


class _Records(Sequence):
    """A run's TrajectoryRecords, built when read from the loop's rows; row k is iteration k.

    A row decided in phase holds its raw phases, or None for a hold its run skipped, where
    others hold a VoltageTriple.  Its first read senses them, those of None computed again
    from its pose by the loop's functions on the loop's floats, with the run's range and laws,
    so the voltages keep the bits a sensed cycle gets; it stores them in the row."""

    def __init__(self, rows, limit, laws, landing, geom, k):
        self._rows = rows
        self._sensing = limit, laws, landing, geom, k

    def _record(self, k):
        x, y, z, heading, v, m = self._rows[k]
        if not isinstance(v, VoltageTriple):
            limit, laws, landing, geom, deg_per_cm = self._sensing
            if v is None:
                v = _phases(_body_point(x, y, z, heading, landing), geom, deg_per_cm)
            v = _sense(v, limit, laws)
            self._rows[k] = x, y, z, heading, v, m
        return TrajectoryRecord(k, _pose(x, y, z, heading), v, classify_sector(v), tuple(m))

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        k = range(len(self._rows))[i]  # an index in range or, for a slice, a range of them
        return [self[j] for j in k] if isinstance(k, range) else self._record(k)

    def __iter__(self):  # Sequence's own __iter__ would index and range-check every record
        return map(self._record, range(len(self._rows)))

    def __eq__(self, other):
        return list(self) == other if isinstance(other, (list, _Records)) else NotImplemented

    def __repr__(self):
        return repr(list(self))


def _body_point(x, y, z, heading, landing: Vector3):
    """The landing point in the body frame of the pose (x, y, z, heading) as a float tuple."""
    dx = landing.x - x
    dy = landing.y - y
    dz = landing.z - z
    if dz >= 0.0:  # the one home of the below-plane rule; sense relies on it
        raise InvalidParameterError("landing point must lie below the drone plane")
    h = math.radians(heading)
    cos_h, sin_h = math.cos(h), math.sin(h)
    return dx * cos_h - dy * sin_h, dy * cos_h + dx * sin_h, dz


def landing_body_frame(state: DroneState, landing: Vector3) -> Vector3:
    """Express the landing point in the drone body frame (beacon must be below)."""
    p = state.position
    return Vector3(*_body_point(p.x, p.y, p.z, state.heading_deg, landing))


def _check_reach(x, y, z, landing: Vector3, reach, geom: ReceiverGeometry, rf: RFConfig, limit):
    """Reject a call whose poses within reach [cm] of (x, y) can overflow or not resolve the
    beacon; return the bound [deg] on _phases' rounding at every pose below (x, y, z) within reach.
    """
    # 2 reach: a rounded translate moves at most twice its step
    return _phase_rounding(abs(landing.x - x) + abs(landing.y - y) + reach, landing.z - z, geom,
                           rf.deg_per_cm, limit, math.isfinite(max(abs(x), abs(y)) + 2.0 * reach))


def _sense(raw, limit, laws):
    """sense on the three raw pair phases, with a mode's range and its laws: the one place a
    phase is wrapped and range-tested and a law turns it into a voltage."""
    out = []
    for pair, theta, law in zip(PAIR_IDS, raw, laws):
        theta = _wrap(theta)
        if abs(theta) > limit:
            raise PhaseAmbiguityError(pair, theta)
        out.append(law(theta))
    return _trusted(VoltageTriple, v12=out[0], v23=out[1], v31=out[2])


def sense(state: DroneState, landing: Vector3, geom: ReceiverGeometry, rf: RFConfig,
          profiles) -> VoltageTriple:
    """Centered calibrated detector voltages for the current pose.

    `profiles` maps pair ids ("d12", "d23", "d31") to their calibration
    polynomials.  Raises PhaseAmbiguityError when any pair leaves the +-80 deg
    calibrated range.  This entry checks the beacon's side, the profile set,
    then the floats with _check_reach; simulate_landing checks them once per run and calls
    the unchecked core _sense on each cycle it senses, in the mode SimConfig.detector_mode names.
    """
    p = state.position
    q = _body_point(p.x, p.y, p.z, state.heading_deg, landing)  # raises for a beacon above
    limit, laws = _calibrated(profiles, rf)
    _check_reach(p.x, p.y, p.z, landing, 0.0, geom, rf, limit)
    return _sense(_phases(q, geom, rf.deg_per_cm), limit, laws)


def _moved(x, y, heading, m: Maneuver):
    """(x, y, heading) after one maneuver; a turn returns the heading wrapped."""
    kind = m.kind
    if kind is ManeuverKind.HOLD:
        return x, y, heading
    if kind in (ManeuverKind.YAW_LEFT, ManeuverKind.ROTATE_LEFT):
        return x, y, _wrap(heading - m.magnitude)
    if kind in (ManeuverKind.YAW_RIGHT, ManeuverKind.ROTATE_RIGHT):
        return x, y, _wrap(heading + m.magnitude)
    h = math.radians(heading)
    step = m.magnitude if kind is ManeuverKind.FORWARD else -m.magnitude
    return x + step * math.sin(h), y + step * math.cos(h), heading


def apply_maneuver(state: DroneState, m: Maneuver) -> DroneState:
    """Pose after one maneuver.

    Left turns subtract from the clockwise-positive heading (the beacon's
    body azimuth grows by the turn magnitude); forward/backward translate
    along the world-frame body +Y direction.  Hold is the identity.
    """
    x, y, heading = _moved(state.position.x, state.position.y, state.heading_deg, m)
    return DroneState(Vector3(x, y, state.position.z), heading)


#: half an ulp of 360, the most the wrap rounds a phase in (-180, 0) by; the loop's hold margin,
#: 2 (err + this), keeps one for the wrap and one for the rounding of the shrunk boxes' edges
_WRAP_ROUNDING = 2.0 ** -45


def _proven_run(z, step, floor, n, proven):
    """The heights [cm] of a hold at height z and of the cycles after it, up to the last one
    found proven to hold in phase too: at most n in all, each one step below the last and
    above floor, just as the loop's max(z - step, floor) descends while it stays above floor.

    proven(h) tells whether the raw phases at height h lie inside the hold boxes shrunk by
    margin = 2 (err + _WRAP_ROUNDING), err the run's _check_reach bound; proven(z) holds.
    Why each height between two proven ones holds in phase: a hold keeps x, y and the
    heading, so _body_point gives the same (bx, by) floats, and only dz = landing.z - h moves,
    monotonically toward 0.  With h_i the horizontal distance from (bx, by) to input i, the
    exact phase of that point is th_ij = k (h_i^2 - h_j^2) / (d_i + d_j): its sign is fixed and
    |th_ij| only grows as |dz| shrinks, so it lies between its values at the two proven
    heights, at least margin - err inside the box.  The computed phase is within err of it, so
    at least 2 _WRAP_ROUNDING inside a box within +-80 deg, where the wrap moves it by at most
    _WRAP_ROUNDING.  The probes test raw phases, so no wrap can carry one into a box.

    A galloping search (Bentley and Yao 1976) probes 1, 2, 4, ... cycles past z, then bisects
    between the last proven probe and the first not: about 2 log2(n) probes for n cycles.
    """
    heights, good = [z], 0
    while True:
        target, h = 2 * good or 1, heights[-1]
        for _ in range(min(target + 1, n) - len(heights)):
            h -= step
            if not h > floor:
                break
            heights.append(h)
        target = min(target, len(heights) - 1)
        if target == good:  # the run's budget or its touchdown ends the search
            return heights
        if not proven(heights[target]):
            break
        good = target
    bad = target
    while bad - good > 1:
        mid = (good + bad) // 2
        if proven(heights[mid]):
            good = mid
        else:
            bad = mid
    del heights[good + 1:]
    return heights


def simulate_landing(start: DroneState, landing: Vector3, geom: ReceiverGeometry,
                     rf: RFConfig, profiles=None,
                     gcfg: GuidanceConfig | None = None,
                     scfg: SimConfig | None = None) -> SimulationResult:
    """Run the sense-decide-act loop until touchdown, abort, or budget exhaustion."""
    gcfg = gcfg or _DEFAULT_GUIDANCE
    scfg = scfg or SimConfig()
    if landing.z > scfg.min_height_cm:  # the loop would descend past the beacon
        raise InvalidParameterError(f"landing z must be <= min_height_cm, got {landing.z}")
    # the one lookup of a mode; it checks the set also when the start is already at touchdown
    limit, laws, boxes, (src12, src23, src31) = DETECTOR_MODES[scfg.detector_mode](
        profiles, rf, gcfg.hold_threshold_v)
    k = rf.deg_per_cm
    x, y, z, heading = start.position.x, start.position.y, start.position.z, start.heading_deg
    err = _check_reach(x, y, z, landing, min(scfg.max_iterations, 2 ** 63) * gcfg.move_step_cm,
                       geom, rf, limit)  # a translate per row at most; a list holds < 2 ** 63 rows
    margin = 2.0 * (err + _WRAP_ROUNDING)
    (in12, out12), (in23, out23), (in31, out31) = [(lo + margin, hi - margin) for lo, hi in boxes]

    def deep(raw):  # the raw phases lie inside the boxes by the margin a proven hold needs
        th12, th23, th31 = raw
        return in12 <= th12 <= out12 and in23 <= th23 <= out23 and in31 <= th31 <= out31

    def proven(h):  # the loop's pose, descended to height h, senses phases deep in the boxes
        return deep(_phases(_body_point(x, y, h, heading, landing), geom, k))

    rows = []
    diagnostic = None

    while z > scfg.min_height_cm and len(rows) < scfg.max_iterations:
        raw = _phases(_body_point(x, y, z, heading, landing), geom, k)
        if deep(raw):  # a hold, decided in phase, as are the cycles of its run proven so
            heights = _proven_run(z, scfg.descent_step_cm, scfg.min_height_cm,
                                  scfg.max_iterations - len(rows), proven)
            rows += [(x, y, h, heading, None, _HOLD_ONLY) for h in heights]
            z = heights[-1]
        else:
            last = rows[-1][5] if rows else _HOLD_ONLY  # a fall-through row starts with a rotate
            v = raw
            maneuvers = _rule(gcfg, src12(raw[0]), src23(raw[1]), src31(raw[2]), last)
            if maneuvers is None:  # an interval straddles a test: sense, and decide on the voltages
                try:
                    v = _sense(raw, limit, laws)
                except PhaseAmbiguityError as exc:
                    diagnostic = f"iteration {len(rows)}: {exc}"
                    break
                maneuvers = _rule(gcfg, (v.v12, v.v12), (v.v23, v.v23), (v.v31, v.v31), last)
            rows.append((x, y, z, heading, v, maneuvers))
            for m in maneuvers:
                x, y, heading = _moved(x, y, heading, m)
            if maneuvers[0].kind in (ManeuverKind.YAW_LEFT, ManeuverKind.YAW_RIGHT):
                continue  # an escape yaw only reorients: no descent
        z = max(z - scfg.descent_step_cm, scfg.min_height_cm)  # one step, never past touchdown

    # a hold is always decide's only maneuver, so no escape or fall-through replaced it
    first_hold = next((k for k, row in enumerate(rows) if row[5][0].kind is ManeuverKind.HOLD), None)
    return SimulationResult(records=_Records(rows, limit, laws, landing, geom, k),
                            touchdown=z <= scfg.min_height_cm, aborted=diagnostic is not None, diagnostic=diagnostic,
                            first_hold_iteration=first_hold, final_state=_pose(x, y, z, heading))


@dataclass(frozen=True)
class TransectRow:
    y_cm: float
    th12: float
    th23: float
    th31: float
    v23: float
    v31: float
    ambiguous: bool


def worst_case_transect(z_cm, y_range_cm, geom: ReceiverGeometry, rf: RFConfig,
                        profiles, n_samples=201):
    """Phase shifts and voltages as the drone tracks along the body +Y axis.

    The beacon sits at the origin; the drone flies at height z over y in [-y_range, +y_range]
    with heading 0.  The 1-2 pair is exactly balanced on this line, so th12 is identically
    zero.  Rows whose phases leave the calibrated range carry NaN voltages and an ambiguous
    flag.  Floats are checked before the first row, by _check_reach with the last row's
    2 y_range (n - 1), n - 1 capped at 2 ** 63 as no list holds more rows.
    """
    _check_count("n_samples", n_samples, 2)
    z = _check_positive("z_cm", z_cm)
    span = _check_positive("y_range_cm", y_range_cm)
    limit, (_, law23, law31) = _calibrated(profiles, rf)
    _check_reach(0.0, 0.0, z, Vector3(0.0, 0.0, 0.0), 2.0 * span * min(n_samples - 1, 2 ** 63),
                 geom, rf, limit)
    rows = []
    for k in range(n_samples):
        y = -span + 2.0 * span * k / (n_samples - 1)
        sol = phase_solution(geom, Vector3(0.0, -y, -z), rf)
        th23, th31 = _wrap(sol.th23), _wrap(sol.th31)
        ambiguous = max(abs(th23), abs(th31)) > limit
        v23, v31 = (math.nan, math.nan) if ambiguous else (law23(th23), law31(th31))
        rows.append(TransectRow(y, sol.th12, th23, th31, v23, v31, ambiguous))
    return rows


def write_trajectory_csv(path_or_file, records):
    """Emit a trajectory: iter,x_cm,y_cm,z_cm,heading_deg,v12,v23,v31,sector,maneuvers."""
    header = ("iter", "x_cm", "y_cm", "z_cm", "heading_deg",
              "v12", "v23", "v31", "sector", "maneuvers")
    rows = []
    for r in records:
        p, v = r.state.position, r.voltages
        rows.append((str(r.iteration), p.x, p.y, p.z, r.state.heading_deg, v.v12, v.v23, v.v31,
                     str(r.sector), ";".join(m.token for m in r.maneuvers)))
    write_csv(path_or_file, header, rows)
