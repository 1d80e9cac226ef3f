"""Closed-loop landing simulation.

Each cycle senses the beacon through the full chain (world pose -> body-frame
geometry -> pair phase shifts -> centered voltages of one DETECTOR_MODES
entry, calibrated by default), asks the guidance rules for maneuvers, applies
them, and descends one step after every tracking-or-hold cycle (an escape yaw
is a reorientation and does not descend).  The loop ends at the minimum height
or when the iteration budget runs out; a phase-ambiguity event aborts with a
diagnostic and the partial log.

One guard exists beyond the plain decision rules: when two consecutive cycles
request opposite 60-degree escape yaws (the beacon sits on the seam between
two escape zones, so pure yawing would ping-pong forever), the cycle falls
through to the fine-tracking maneuvers computed from the fresh voltages.
That mirrors the original maneuver program, whose listing always continues
from the escape branch into the tracking branch.

Inputs are validated where they enter: at the public constructors, in `sense`,
and once per run at `simulate_landing` entry, never inside the loop.  The
loop's pose is plain floats, finite by construction; only the inversion
voltage_from_phase checks its theta again.

Runs are single-threaded and fully deterministic: identical inputs produce
bit-identical trajectory logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._textio import write_csv
from .detector import (
    CALIBRATED_RANGE_DEG,
    PAIR_IDS,
    ideal_sine_voltage,
    triangular_voltage,
    voltage_from_phase,
)
from .errors import InvalidParameterError, PhaseAmbiguityError
from .errors import _check_count, _check_finite, _check_positive
from .geometry import (
    ReceiverGeometry,
    RFConfig,
    Vector3,
    _path_differences,
    _wrap,
    phase_solution,
)
from .guidance import (
    GuidanceConfig,
    Maneuver,
    ManeuverKind,
    SectorId,
    VoltageTriple,
    classify_sector,
    decide,
    tracking_maneuvers,
)


def _check_profiles(profiles, rf: RFConfig):
    """Reject a calibration set that lacks a pair, mislabels one or was measured off rf's frequency."""
    if profiles is None:
        raise InvalidParameterError("calibrated mode requires calibration profiles")
    for pair in PAIR_IDS:
        poly = profiles[pair] if pair in profiles else None
        if getattr(poly, "pair_id", None) != pair:
            raise InvalidParameterError(f"calibration profiles need a {pair} profile under {pair!r}")
        if poly.frequency_hz != rf.frequency_hz:
            raise InvalidParameterError(f"profile {pair} and rf disagree on frequency: "
                                        f"{poly.frequency_hz} Hz vs {rf.frequency_hz} Hz")


def _calibrated_voltage(theta, pair, profiles):
    # looks voltage_from_phase up in this module, where the benchmark tracer wraps it
    poly = profiles[pair]
    return voltage_from_phase(poly, theta) - poly.v_ref


#: detector mode -> (non-ambiguous range [deg], f(theta, pair, profiles) giving the
#: centered voltage [V] of a wrapped pair phase); only "calibrated" reads profiles
DETECTOR_MODES = {
    "calibrated": (CALIBRATED_RANGE_DEG, _calibrated_voltage),
    "ideal-sine": (90.0, lambda theta, pair, profiles: ideal_sine_voltage(theta)),
    "triangular": (90.0, lambda theta, pair, profiles: triangular_voltage(theta)),
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
    records: list
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


def _sense(q, geom, k, limit, voltage, profiles):
    """sense on the body-frame beacon point q, k = rf.deg_per_cm and a checked mode entry."""
    # the float operations of phase_solution(geom, landing_body_frame(state, landing), rf)
    out = []
    for pair, dd in zip(PAIR_IDS, _path_differences(q, geom)):
        theta = _wrap(k * dd)
        if not abs(theta) <= limit:  # also nan, when the beacon offset overflowed
            _check_finite("angle", k * dd)
            raise PhaseAmbiguityError(pair, theta)
        out.append(voltage(theta, pair, profiles))
    return _trusted(VoltageTriple, v12=out[0], v23=out[1], v31=out[2])


def sense(state: DroneState, landing: Vector3, geom: ReceiverGeometry, rf: RFConfig,
          profiles=None, mode="calibrated") -> VoltageTriple:
    """Centered detector voltages for the current pose.

    `mode` is a key of DETECTOR_MODES, which sets each pair's non-ambiguous
    range and voltage.  `profiles` maps pair ids ("d12", "d23", "d31") to
    their calibration polynomials, required in calibrated mode.  The +-90 deg
    ideal-sine variant returns sin(theta); the triangular one 10 mV/deg * theta,
    the linear region of the quadrature-shifted triangular characteristic.
    Raises PhaseAmbiguityError when any pair leaves its non-ambiguous range.
    This entry checks the mode, the beacon's side and the profile set, in that
    order; simulate_landing checks them once per run and calls the unchecked
    core _sense every cycle.
    """
    if not isinstance(mode, str) or mode not in DETECTOR_MODES:
        raise InvalidParameterError(f"unknown detector mode {mode!r}")
    p = state.position
    q = _body_point(p.x, p.y, p.z, state.heading_deg, landing)  # raises for a beacon above
    if mode == "calibrated":
        _check_profiles(profiles, rf)
    limit, voltage = DETECTOR_MODES[mode]
    return _sense(q, geom, rf.deg_per_cm, limit, voltage, profiles)


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


#: escape yaw -> its direction; decide commands an escape yaw as the only maneuver
_ESCAPES = {ManeuverKind.YAW_LEFT: -1, ManeuverKind.YAW_RIGHT: +1}


def simulate_landing(start: DroneState, landing: Vector3, geom: ReceiverGeometry,
                     rf: RFConfig, profiles=None,
                     gcfg: GuidanceConfig | None = None,
                     scfg: SimConfig | None = None) -> SimulationResult:
    """Run the sense-decide-act loop until touchdown, abort, or budget exhaustion."""
    gcfg = gcfg or GuidanceConfig()
    scfg = scfg or SimConfig()
    if landing.z > scfg.min_height_cm:  # the loop would descend past the beacon
        raise InvalidParameterError(f"landing z must be <= min_height_cm, got {landing.z}")
    if scfg.detector_mode == "calibrated":  # also when the start is already at touchdown
        _check_profiles(profiles, rf)
    limit, voltage = DETECTOR_MODES[scfg.detector_mode]
    k = rf.deg_per_cm
    # from here on the pose is floats, finite by construction; the one DroneState per
    # cycle is the record's
    state = start
    x, y, z, heading = start.position.x, start.position.y, start.position.z, start.heading_deg
    records = []
    first_hold = None
    last_escape = 0
    diagnostic = None

    for iteration in range(scfg.max_iterations):
        if z <= scfg.min_height_cm:
            break
        try:
            volts = _sense(_body_point(x, y, z, heading, landing), geom, k, limit, voltage,
                           profiles)
        except PhaseAmbiguityError as exc:
            diagnostic = f"iteration {iteration}: {exc}"
            break

        maneuvers = decide(volts, gcfg)
        escape = _ESCAPES.get(maneuvers[0].kind, 0)
        if escape != 0 and escape == -last_escape:
            # opposite escape yaws back to back: fall through to tracking
            maneuvers = tracking_maneuvers(volts, gcfg)
            escape = 0
        records.append(TrajectoryRecord(iteration, state, volts,
                                        classify_sector(volts), tuple(maneuvers)))
        for m in maneuvers:
            x, y, heading = _moved(x, y, heading, m)

        last_escape = escape
        if escape == 0:  # an escape yaw only reorients: no descent
            if maneuvers[0].kind is ManeuverKind.HOLD and first_hold is None:
                first_hold = iteration
            # descend one step, never past the touchdown height
            z = max(z - scfg.descent_step_cm, min(z, scfg.min_height_cm))
        if x - x + (y - y):  # nan only after a translate overflowed: let Vector3 name it
            Vector3(x, y, z)
        state = _trusted(DroneState, position=_trusted(Vector3, x=x, y=y, z=z), heading_deg=heading)

    return SimulationResult(records=records, touchdown=z <= scfg.min_height_cm,
                            aborted=diagnostic is not None, diagnostic=diagnostic,
                            first_hold_iteration=first_hold, final_state=state)


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

    The beacon sits at the origin; the drone flies at height z over
    y in [-y_range, +y_range] with heading 0.  The 1-2 pair is exactly
    balanced on this line, so th12 is identically zero.  Rows whose phases
    leave the calibrated range carry NaN voltages and an ambiguous flag.
    """
    _check_count("n_samples", n_samples, 2)
    z = _check_positive("z_cm", z_cm)
    span = _check_positive("y_range_cm", y_range_cm)
    if not math.isfinite(2.0 * span * (n_samples - 1)):  # the last row's step overflows
        raise InvalidParameterError(f"y_range_cm must keep the sample positions finite, got {span}")
    _check_profiles(profiles, rf)
    rows = []
    for k in range(n_samples):
        y = -span + 2.0 * span * k / (n_samples - 1)
        sol = phase_solution(geom, Vector3(0.0, -y, -z), rf)
        th23, th31 = _wrap(sol.th23), _wrap(sol.th31)
        if math.isnan(sol.th12 + th23 + th31):  # a distance to an input overflowed
            raise InvalidParameterError(
                f"z_cm and y_range_cm must keep the phases finite, got {z} and {span}")
        ambiguous = max(abs(th23), abs(th31)) > CALIBRATED_RANGE_DEG
        if ambiguous:
            v23 = v31 = math.nan
        else:
            v23 = _calibrated_voltage(th23, "d23", profiles)
            v31 = _calibrated_voltage(th31, "d31", profiles)
        rows.append(TransectRow(y, sol.th12, th23, th31, v23, v31, ambiguous))
    return rows


def write_trajectory_csv(path_or_file, records):
    """Emit a trajectory: iter,x_cm,y_cm,z_cm,heading_deg,v12,v23,v31,sector,maneuvers."""
    header = ("iter", "x_cm", "y_cm", "z_cm", "heading_deg",
              "v12", "v23", "v31", "sector", "maneuvers")
    rows = []
    for r in records:
        p, v = r.state.position, r.voltages
        rows.append((str(r.iteration), f"{p.x:.6f}", f"{p.y:.6f}", f"{p.z:.6f}",
                     f"{r.state.heading_deg:.6f}", f"{v.v12:.6f}", f"{v.v23:.6f}",
                     f"{v.v31:.6f}", str(r.sector), ";".join(m.token for m in r.maneuvers)))
    write_csv(path_or_file, header, rows)
