"""Test oracles for the guidance sectors and the phase shifts, kept out of the package."""

import math

from triphase.errors import InvalidParameterError
from triphase.guidance import SectorId


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
