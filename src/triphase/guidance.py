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


#: the six sectors, built once; classify_sector returns these shared objects
_SECTORS = {key: SectorId(*key) for key in _VALID_SECTORS}


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


@dataclass(frozen=True)
class GuidanceConfig:
    hold_threshold_v: float = 0.02
    rotate_step_deg: float = 1.0
    move_step_cm: float = 1.0

    def __post_init__(self):
        for name in ("hold_threshold_v", "rotate_step_deg", "move_step_cm"):
            object.__setattr__(self, name, _check_positive(name, getattr(self, name)))

    @cached_property
    def _maneuvers(self):
        """Every move this config commands, built once and shared: kind -> Maneuver."""
        sizes = ((ManeuverKind.YAW_LEFT, ManeuverKind.YAW_RIGHT, ESCAPE_YAW_DEG),
                 (ManeuverKind.ROTATE_LEFT, ManeuverKind.ROTATE_RIGHT, self.rotate_step_deg),
                 (ManeuverKind.FORWARD, ManeuverKind.BACKWARD, self.move_step_cm))
        return {kind: Maneuver(kind, step) for *kinds, step in sizes for kind in kinds}


_DEFAULT_GUIDANCE = GuidanceConfig()  # decide's and simulate_landing's when given none


def classify_sector(v: VoltageTriple) -> SectorId:
    """Locate the landing point's sector from the voltage magnitudes and signs.

    Major: 1 when |v12| is (tied-)smallest, else 2 when |v23| < |v31|, else 3.
    Sub-sectors read the sign of the remaining informative pair: 1a points
    forward (v23 >= 0), 2b lies opposite input 1 (v31 < 0), 3a points at
    input 2 (v23 < 0).  Subs for majors 2/3 are diagnostic only.
    """
    a12, a23, a31 = abs(v.v12), abs(v.v23), abs(v.v31)
    if a12 <= a23 and a12 <= a31:
        return _SECTORS[1, "a" if v.v23 >= 0.0 else "b"]
    if a23 < a31:
        return _SECTORS[2, "b" if v.v31 < 0 else "a"]
    return _SECTORS[3, "a" if v.v23 < 0 else "b"]


def _plan(cfg: GuidanceConfig, major, v12_positive, v23_positive):
    """The one maneuver table: the maneuvers of a decision's outcome, for decide, the seam
    guard's fall-through and the landing loop's decisions in phase.  major is 0 for a hold,
    else the major sector; the signs v12 >= 0 and v23 >= 0 matter to sector 1 alone."""
    if major == 1:
        right = v12_positive != v23_positive
        return [cfg._maneuvers[ManeuverKind.ROTATE_RIGHT if right else ManeuverKind.ROTATE_LEFT],
                cfg._maneuvers[ManeuverKind.FORWARD if v23_positive else ManeuverKind.BACKWARD]]
    if major == 0:
        return [HOLD]
    return [cfg._maneuvers[ManeuverKind.YAW_LEFT if major == 2 else ManeuverKind.YAW_RIGHT]]


def tracking_maneuvers(v: VoltageTriple, cfg: GuidanceConfig):
    """The sector-1 fine-tracking pair: rotate toward the beacon, then translate.

    Rotate right when v12 and v23 disagree in sign (beacon on the right side),
    else left; move forward when v23 is non-negative, else backward.
    """
    return _plan(cfg, 1, v.v12 >= 0.0, v.v23 >= 0.0)


def decide(v: VoltageTriple, cfg: GuidanceConfig | None = None):
    """One guidance decision from one voltage snapshot.

    Hold dominates when all three magnitudes are inside the threshold.  A
    sector-2/3 reading returns a single 60-degree escape yaw (the drone must
    re-sense before tracking).  Sector 1 returns the tracking pair.
    """
    cfg = cfg or _DEFAULT_GUIDANCE
    major = 0 if v.max_abs <= cfg.hold_threshold_v else classify_sector(v).major
    return _plan(cfg, major, v.v12 >= 0.0, v.v23 >= 0.0)


def trace_line(v: VoltageTriple, sector: SectorId, maneuvers) -> str:
    """Diagnostic line: v12,v23,v31,sector,token;token."""
    tokens = ";".join(m.token for m in maneuvers)
    return f"{v.v12:.2f},{v.v23:.2f},{v.v31:.2f},{sector},{tokens}"
