"""Triangular three-input RF phase-shift landing sensor toolkit.

Simulates a drone-mounted receiver triangle listening to a single-frequency
beacon at the landing point: exact near-field phase-shift geometry, measured
detector calibration models, the six-sector guidance rules, and a closed-loop
landing simulator with CSV outputs for every stage.

The package exports the names of the library quickstart and the error
classes; everything else is imported from its module (triphase.geometry,
.detector, .guidance, .simulator, .cli).
"""

from .detector import builtin_profile_set
from .errors import (
    CalibrationFitError,
    CalibrationRejectedError,
    DegenerateGeometryError,
    FileFormatError,
    InvalidParameterError,
    PhaseAmbiguityError,
    RangeUnboundedError,
    TriphaseError,
    VoltageOutOfRangeError,
)
from .geometry import RFConfig, Vector3, receiver_points
from .simulator import DroneState, sense, simulate_landing

__version__ = "0.1.0"
