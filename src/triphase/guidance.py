"""Sector-based landing guidance from signed detector voltages.

The azimuth plane around the drone divides into six 60-degree sectors; the
pair whose centered voltage has the smallest magnitude names the major sector
(pair 1-2 -> forward/backward axis, pair 2-3 -> the axis through input 1,
pair 3-1 -> the axis through input 2).  One decision cycle yields either a
coarse 60-degree escape yaw (sectors 2/3), a fine rotate+translate tracking
pair (sector 1), or Hold when all three magnitudes are inside the threshold.

sign(0) counts as positive everywhere a sign enters a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import InvalidParameterError, _check_finite, _check_positive

_VALID_SECTORS = {(1, "a"), (1, "b"), (2, "a"), (2, "b"), (3, "a"), (3, "b")}
#: the escape yaw from sectors 2/3 [deg]: one sector width turns the beacon into sector 1
ESCAPE_YAW_DEG = 60.0


@dataclass(frozen=True)
class SectorId:
    major: int
    sub: str

    def __post_init__(self):
        if (self.major, self.sub) not in _VALID_SECTORS:
            raise InvalidParameterError(f"invalid sector {self.major}{self.sub}")

    def __str__(self):
        return f"{self.major}{self.sub}"


#: major -> its sectors, built once, where the pair its sub reads is >= 0 and where it is < 0
_SUBSECTORS = {1: (SectorId(1, "a"), SectorId(1, "b")), 2: (SectorId(2, "a"), SectorId(2, "b")),
               3: (SectorId(3, "b"), SectorId(3, "a"))}


@dataclass(frozen=True)
class VoltageTriple:
    """Centered (signed) detector voltages for the three pairs, in volts."""

    v12: float
    v23: float
    v31: float

    def __post_init__(self):
        for name in ("v12", "v23", "v31"):
            object.__setattr__(self, name, _check_finite(name, getattr(self, name)))

    @property
    def as_tuple(self):
        return (self.v12, self.v23, self.v31)

    @property
    def max_abs(self) -> float:
        return max(abs(self.v12), abs(self.v23), abs(self.v31))


class ManeuverKind(Enum):
    YAW_LEFT = "YAWL"
    YAW_RIGHT = "YAWR"
    ROTATE_LEFT = "ROTL"
    ROTATE_RIGHT = "ROTR"
    FORWARD = "FWD"
    BACKWARD = "BWD"
    HOLD = "HOLD"


@dataclass(frozen=True)
class Maneuver:
    """One commanded move: degrees for yaw/rotate, cm for translate, none for Hold."""

    kind: ManeuverKind
    magnitude: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, ManeuverKind):
            raise InvalidParameterError(f"kind must be a ManeuverKind, got {self.kind!r}")
        if self.kind is ManeuverKind.HOLD:
            if self.magnitude is not None:
                raise InvalidParameterError("Hold carries no magnitude")
        else:
            object.__setattr__(self, "magnitude", _check_positive("magnitude", self.magnitude))

    @property
    def token(self) -> str:
        if self.kind is ManeuverKind.HOLD:
            return "HOLD"
        return f"{self.kind.value}{self.magnitude:g}"


HOLD = Maneuver(ManeuverKind.HOLD)
_HOLD, _YAW_LEFT, _YAW_RIGHT = 0, 1, 2  # the rule's outcomes (GuidanceConfig._outcomes)
#: escape sector -> its escape yaw and the opposite one, which the seam guard answers
_ESCAPE_YAWS = {2: (_YAW_LEFT, _YAW_RIGHT), 3: (_YAW_RIGHT, _YAW_LEFT)}


@dataclass(frozen=True)
class GuidanceConfig:
    hold_threshold_v: float = 0.02
    rotate_step_deg: float = 1.0
    move_step_cm: float = 1.0

    def __post_init__(self):
        for name in ("hold_threshold_v", "rotate_step_deg", "move_step_cm"):
            object.__setattr__(self, name, _check_positive(name, getattr(self, name)))

    @cached_property
    def _outcomes(self):
        """The rule's seven outcomes, built once: index -> (maneuvers, turn, translate).  The
        maneuvers are shared; the move is signed: turn [deg] clockwise, then translate [cm] along
        the turned heading, None for an escape, which does not descend.  0 holds, 1 and 2 yaw
        left and right, 3 to 6 are the tracking pairs, 3 + 2 * right + backward (_tracking)."""
        yaw, turn, move = ESCAPE_YAW_DEG, self.rotate_step_deg, self.move_step_cm
        rotl, rotr = (Maneuver(ManeuverKind.ROTATE_LEFT, turn),
                      Maneuver(ManeuverKind.ROTATE_RIGHT, turn))
        fwd, bwd = Maneuver(ManeuverKind.FORWARD, move), Maneuver(ManeuverKind.BACKWARD, move)
        return (((HOLD,), 0.0, 0.0), ((Maneuver(ManeuverKind.YAW_LEFT, yaw),), -yaw, None),
                ((Maneuver(ManeuverKind.YAW_RIGHT, yaw),), yaw, None),
                ((rotl, fwd), -turn, move), ((rotl, bwd), -turn, -move),
                ((rotr, fwd), turn, move), ((rotr, bwd), turn, -move))


_DEFAULT_GUIDANCE = GuidanceConfig()  # decide's and simulate_landing's when given none


def _sector(lo12, hi12, lo23, hi23, lo31, hi31):
    """classify_sector on the centered-voltage intervals [lo12, hi12], ... [V], as _rule reads
    them: the sector of every triple in them, or None where an interval straddles a test."""
    # |v| lies in [least, most], least 0 where the interval straddles 0 V; both nan for nan
    most12 = hi12 if hi12 >= -lo12 else -lo12
    least12 = 0.0 if lo12 < 0.0 <= hi12 else lo12 if lo12 >= 0.0 else -hi12
    most23 = hi23 if hi23 >= -lo23 else -lo23
    least23 = 0.0 if lo23 < 0.0 <= hi23 else lo23 if lo23 >= 0.0 else -hi23
    most31 = hi31 if hi31 >= -lo31 else -lo31
    least31 = 0.0 if lo31 < 0.0 <= hi31 else lo31 if lo31 >= 0.0 else -hi31
    if most12 <= least23 and most12 <= least31:
        major, lo, hi = 1, lo23, hi23
    elif least12 > most23 or least12 > most31:
        if most23 < least31:
            major, lo, hi = 2, lo31, hi31
        elif least23 >= most31:
            major, lo, hi = 3, lo23, hi23
        else:
            return None
    else:
        return None
    positive, negative = _SUBSECTORS[major]
    return positive if lo >= 0.0 else negative if hi < 0.0 else None


def _tracking(v12_positive, v23_positive):
    """tracking_maneuvers' outcome on the signs v12 >= 0 and v23 >= 0: 3 + 2 * right + backward."""
    return (5 if v12_positive != v23_positive else 3) + (not v23_positive)


def _rule(cfg: GuidanceConfig, v12, v23, v31, last):
    """The guidance rule, written once, on three centered-voltage intervals (lo, hi) [V]: the
    outcome (GuidanceConfig._outcomes) decide gives for every triple in them after a row whose
    outcome was `last`, or None where an interval straddles a test it needs ([v, v] straddles
    none, nan bounds settle none).  A hold is decided on exact voltages only: in phase, the
    landing loop's hold test decides holds.  The seam guard answers an escape yaw opposite
    last's with tracking: the beacon sits on the seam between two escape zones, where yawing
    would ping-pong forever, and the original maneuver program continues from its escape
    branch into its tracking branch.
    """
    (lo12, hi12), (lo23, hi23), (lo31, hi31) = v12, v23, v31
    thr = cfg.hold_threshold_v
    if not (lo12 > thr or hi12 < -thr or lo23 > thr or hi23 < -thr or lo31 > thr or hi31 < -thr):
        return _HOLD if lo12 == hi12 and lo23 == hi23 and lo31 == hi31 else None
    sector = _sector(lo12, hi12, lo23, hi23, lo31, hi31)
    if sector is None:
        return None
    if sector.major != 1:
        escape, opposite = _ESCAPE_YAWS[sector.major]
        if last != opposite:
            return escape
    if lo12 < 0.0 <= hi12 or lo23 < 0.0 <= hi23:  # a sign tracking reads straddles 0 V
        return None
    return _tracking(lo12 >= 0.0, lo23 >= 0.0)


def classify_sector(v: VoltageTriple) -> SectorId:
    """Locate the landing point's sector from the voltage magnitudes and signs.

    Major: 1 when |v12| is (tied-)smallest, else 2 when |v23| < |v31|, else 3.
    Sub-sectors read the sign of the remaining informative pair: 1a points
    forward (v23 >= 0), 2b lies opposite input 1 (v31 < 0), 3a points at
    input 2 (v23 < 0).  Subs for majors 2/3 are diagnostic only.
    """
    return _sector(v.v12, v.v12, v.v23, v.v23, v.v31, v.v31)


def tracking_maneuvers(v: VoltageTriple, cfg: GuidanceConfig):
    """The sector-1 fine-tracking pair: rotate toward the beacon, then translate.

    Rotate right when v12 and v23 disagree in sign (beacon on the right side),
    else left; move forward when v23 is non-negative, else backward.
    """
    return list(cfg._outcomes[_tracking(v.v12 >= 0.0, v.v23 >= 0.0)][0])


def decide(v: VoltageTriple, cfg: GuidanceConfig | None = None):
    """One guidance decision from one voltage snapshot.

    Hold dominates when all three magnitudes are inside the threshold.  A
    sector-2/3 reading returns a single 60-degree escape yaw (the drone must
    re-sense before tracking).  Sector 1 returns the tracking pair.
    """
    cfg = cfg or _DEFAULT_GUIDANCE
    outcome = _rule(cfg, (v.v12, v.v12), (v.v23, v.v23), (v.v31, v.v31), _HOLD)
    return list(cfg._outcomes[outcome][0])


def trace_line(v: VoltageTriple, sector: SectorId, maneuvers) -> str:
    """Diagnostic line: v12,v23,v31,sector,token;token."""
    tokens = ";".join(m.token for m in maneuvers)
    return f"{v.v12:.2f},{v.v23:.2f},{v.v31:.2f},{sector},{tokens}"
