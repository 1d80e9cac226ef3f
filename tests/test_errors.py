"""Every library entry point rejects a bad number with InvalidParameterError naming it."""

import dataclasses
import math

import numpy as np
import pytest

from triphase.detector import (
    CalibrationPolynomial,
    MeasurementSample,
    TABLE2_D12,
    builtin_profile_set,
    fit_calibration,
    ideal_sine_voltage,
    phase_from_voltage,
    triangular_voltage,
    voltage_from_phase,
)
from triphase.errors import InvalidParameterError, _check_finite, _check_positive
from triphase.geometry import (
    RFConfig,
    Vector3,
    azimuth_sweep,
    cone_profile,
    landing_point,
    receiver_points,
)
from triphase.guidance import GuidanceConfig, Maneuver, ManeuverKind, VoltageTriple
from triphase.simulator import DroneState, SimConfig, worst_case_transect

PROFILE_FIELDS = {f.name: getattr(TABLE2_D12, f.name) for f in dataclasses.fields(TABLE2_D12)}

# entry point, valid keyword arguments, the numeric parameters to spoil one at a time
ENTRY_POINTS = [
    (SimConfig, {}, ("descent_step_cm", "min_height_cm")),
    (GuidanceConfig, {},
     ("hold_threshold_v", "rotate_step_deg", "move_step_cm", "escape_yaw_deg")),
    (VoltageTriple, {"v12": 0.1, "v23": -0.2, "v31": 0.3}, ("v12", "v23", "v31")),
    (Maneuver, {"kind": ManeuverKind.FORWARD, "magnitude": 1.0}, ("magnitude",)),
    (MeasurementSample, {"theta_deg": 10.0, "voltage_v": 1.5}, ("theta_deg", "voltage_v")),
    (CalibrationPolynomial, PROFILE_FIELDS,
     ("a0", "a1", "a2", "a3", "a4", "a5", "v_ref", "v_lo", "v_hi",
      "max_err_deg", "frequency_hz")),
    (voltage_from_phase, {"poly": TABLE2_D12, "theta_deg": 10.0}, ("theta_deg",)),
    (phase_from_voltage, {"poly": TABLE2_D12, "v": 1.5}, ("v",)),
    (ideal_sine_voltage, {"theta_deg": 10.0}, ("theta_deg",)),
    (triangular_voltage, {"theta_deg": 10.0}, ("theta_deg",)),
    (Vector3, {"x": 1.0, "y": 2.0, "z": 3.0}, ("x", "y", "z")),
    (RFConfig, {"frequency_hz": 2.46e9}, ("frequency_hz", "wave_speed_mps")),
    (landing_point, {"r_cm": 10.0, "phi_deg": 30.0, "height_cm": 100.0},
     ("r_cm", "phi_deg", "height_cm")),
    (DroneState, {"position": Vector3(0.0, 0.0, 300.0), "heading_deg": 10.0}, ("heading_deg",)),
]

CASES = [pytest.param(entry, kwargs, name, id=f"{entry.__name__}-{name}")
         for entry, kwargs, names in ENTRY_POINTS for name in names]


@pytest.mark.parametrize("entry,kwargs,name", CASES)
@pytest.mark.parametrize("bad", ["1", None, math.nan, math.inf], ids=repr)
def test_entry_point_rejects_bad_number(entry, kwargs, name, bad):
    entry(**kwargs)  # the valid arguments pass
    with pytest.raises(InvalidParameterError, match=f"^{name} "):
        entry(**{**kwargs, name: bad})


GEOM = receiver_points(7.0)
RF = RFConfig(2.46e9)
SAMPLES = [MeasurementSample(TABLE2_D12.evaluate(v), v)
           for v in np.linspace(TABLE2_D12.v_lo, TABLE2_D12.v_hi, 12)]

# entry point, valid keyword arguments, the count parameter to spoil
COUNT_ENTRY_POINTS = [
    (SimConfig, {}, "max_iterations"),
    (cone_profile, {"z_list": [100.0], "theta_limit_deg": 80.0, "geom": GEOM, "rf": RF,
                    "n_azimuths": 2}, "n_azimuths"),
    (azimuth_sweep, {"r_cm": 10.0, "z_cm": 100.0, "geom": GEOM, "rf": RF, "n_samples": 3},
     "n_samples"),
    (worst_case_transect, {"z_cm": 1000.0, "y_range_cm": 700.0, "geom": GEOM, "rf": RF,
                           "profiles": builtin_profile_set(), "n_samples": 3}, "n_samples"),
    (fit_calibration, {"samples": SAMPLES, "degree": 5}, "degree"),
]


@pytest.mark.parametrize("entry,kwargs,name", [
    pytest.param(entry, kwargs, name, id=f"{entry.__name__}-{name}")
    for entry, kwargs, name in COUNT_ENTRY_POINTS])
@pytest.mark.parametrize("bad", [True, False, 1.0, "3", None], ids=repr)
def test_entry_point_rejects_bad_count(entry, kwargs, name, bad):
    # bool is an int subclass, so True and False need their own rejection
    entry(**kwargs)  # the valid arguments pass
    with pytest.raises(InvalidParameterError, match=f"^{name} must be an integer"):
        entry(**{**kwargs, name: bad})


@pytest.mark.parametrize("value", [3, 2.5, True, np.float64(2.5), np.float32(2.5), np.int64(3)])
def test_helpers_accept_finite_reals_as_float(value):
    for checked in (_check_finite("x", value), _check_positive("x", value)):
        assert type(checked) is float and checked == float(value)


@pytest.mark.parametrize("value", ["2.5", None, 1j, [1.0], math.nan, -math.inf, 10 ** 400])
def test_check_finite_rejects_non_numbers(value):
    with pytest.raises(InvalidParameterError, match="^x must be a finite number"):
        _check_finite("x", value)


def test_check_positive_domain():
    with pytest.raises(InvalidParameterError, match="^x must be > 0, got 0.0"):
        _check_positive("x", 0)
    assert _check_positive("x", 0, zero_ok=True) == 0.0
    with pytest.raises(InvalidParameterError, match="^x must be >= 0, got -1.0"):
        _check_positive("x", -1.0, zero_ok=True)


def test_classes_store_what_they_are_given():
    # only Vector3 and RFConfig coerce to float; the others keep the caller's value
    assert type(Vector3(np.float32(1.0), 2, 3).y) is float
    assert type(RFConfig(np.int64(2_000_000_000)).frequency_hz) is float
    assert type(VoltageTriple(np.float32(0.5), 0, 1).v12) is np.float32
    assert type(GuidanceConfig(move_step_cm=2).move_step_cm) is int
