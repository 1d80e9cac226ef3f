"""Exception hierarchy.

Errors are grouped so the CLI can map them onto exit codes: invalid
parameters are usage problems, file-format problems are I/O failures, and
ambiguity / range / fit failures are numerical outcomes.  Every number or
count a caller passes in is checked by one of the `_check_*` helpers below.
"""

import math


class TriphaseError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(TriphaseError, ValueError):
    """A parameter violates its documented precondition (non-finite, wrong sign, ...)."""


class FileFormatError(TriphaseError):
    """A data file (measurement CSV, calibration profile) could not be parsed."""


class DegenerateGeometryError(TriphaseError):
    """Landing point coincides with a receiver input; path differences undefined."""


class RangeUnboundedError(TriphaseError):
    """No phase-limit crossing found below the search ceiling."""


class VoltageOutOfRangeError(TriphaseError):
    """Detector voltage outside the calibrated interval plus guard band."""


class PhaseAmbiguityError(TriphaseError):
    """A phase shift left the detector's non-ambiguous range.

    Carries the offending pair ("d12", "d23" or "d31") and the phase in degrees.
    """

    def __init__(self, pair, theta_deg):
        super().__init__(f"phase shift {pair} = {theta_deg:+.2f} deg outside non-ambiguous range")
        self.pair = pair
        self.theta_deg = theta_deg


class CalibrationFitError(TriphaseError):
    """Least-squares calibration fit could not be computed."""


class CalibrationRejectedError(TriphaseError):
    """A fitted or loaded calibration violates its model invariants (e.g. monotonicity)."""


def _check_finite(name, value):
    """`value` as a float if it is a finite real number (int, float, numpy scalar);
    else InvalidParameterError naming `name`, e.g. for a str, None, complex, nan or inf."""
    try:
        if math.isfinite(value):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidParameterError(f"{name} must be a finite number, got {value!r}")


def _check_positive(name, value, zero_ok=False):
    """`value` as a float if it is finite and > 0 (>= 0 when `zero_ok`)."""
    value = _check_finite(name, value)
    if value > 0.0 or (zero_ok and value == 0.0):
        return value
    raise InvalidParameterError(f"{name} must be {'>=' if zero_ok else '>'} 0, got {value}")


def _check_count(name, value, minimum):
    """`value` if it is an int >= `minimum`; a bool, a float such as 1.0 or a str is not."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= minimum:
        return value
    raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
