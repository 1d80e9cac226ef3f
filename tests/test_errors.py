"""Every library entry point rejects a bad number with InvalidParameterError naming it."""

import dataclasses
import math
import re
from fractions import Fraction

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
    ReceiverGeometry,
    RFConfig,
    Vector3,
    azimuth_sweep,
    cone_profile,
    landing_point,
    nonambiguous_range,
    receiver_points,
)
from triphase.guidance import GuidanceConfig, Maneuver, ManeuverKind, VoltageTriple, decide
from triphase.simulator import DroneState, SimConfig, worst_case_transect

GEOM = receiver_points(7.0)
RF = RFConfig(2.46e9)
SAMPLES = [MeasurementSample(TABLE2_D12.evaluate(v), v)
           for v in np.linspace(TABLE2_D12.v_lo, TABLE2_D12.v_hi, 12)]
PROFILE_FIELDS = {f.name: getattr(TABLE2_D12, f.name) for f in dataclasses.fields(TABLE2_D12)}

CONE_KWARGS = {"z_list": [100.0], "theta_limit_deg": 80.0, "geom": GEOM, "rf": RF, "n_azimuths": 2}

# entry point, valid keyword arguments, the numeric parameters to spoil one at a time
ENTRY_POINTS = [
    (SimConfig, {}, ("descent_step_cm", "min_height_cm")),
    (GuidanceConfig, {}, ("hold_threshold_v", "rotate_step_deg", "move_step_cm")),
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
    (RFConfig, {"frequency_hz": 2.46e9}, ("frequency_hz",)),
    (ReceiverGeometry, {"spacing_cm": 7.0}, ("spacing_cm",)),
    (receiver_points, {"spacing_cm": 7.0}, ("spacing_cm",)),
    (landing_point, {"r_cm": 10.0, "phi_deg": 30.0, "height_cm": 100.0},
     ("r_cm", "phi_deg", "height_cm")),
    (DroneState, {"position": Vector3(0.0, 0.0, 300.0), "heading_deg": 10.0}, ("heading_deg",)),
    (nonambiguous_range, {"z_cm": 100.0, "phi_deg": 30.0, "theta_limit_deg": 80.0, "geom": GEOM,
                          "rf": RF}, ("z_cm", "phi_deg", "theta_limit_deg")),
    (cone_profile, CONE_KWARGS, ("theta_limit_deg",)),
    (azimuth_sweep, {"r_cm": 10.0, "z_cm": 100.0, "geom": GEOM, "rf": RF, "n_samples": 3},
     ("r_cm", "z_cm")),
    (worst_case_transect, {"z_cm": 1000.0, "y_range_cm": 700.0, "geom": GEOM, "rf": RF,
                           "profiles": builtin_profile_set(), "n_samples": 3},
     ("z_cm", "y_range_cm")),
    (fit_calibration, {"samples": SAMPLES, "frequency_hz": 2.46e9}, ("frequency_hz",)),
]

CASES = [pytest.param(entry, kwargs, name, id=f"{entry.__name__}-{name}")
         for entry, kwargs, names in ENTRY_POINTS for name in names]


@pytest.mark.parametrize("entry,kwargs,name", CASES)
@pytest.mark.parametrize("bad", ["1", None, math.nan, math.inf], ids=repr)
def test_entry_point_rejects_bad_number(entry, kwargs, name, bad):
    entry(**kwargs)  # the valid arguments pass
    with pytest.raises(InvalidParameterError, match=f"^{name} "):
        entry(**{**kwargs, name: bad})


# a call passing an argument of the wrong type, and the start of the error naming it
WRONG_TYPES = [
    pytest.param(lambda: Maneuver("FWD", 1.0), "kind must be a ManeuverKind, got 'FWD'",
                 id="Maneuver-kind"),
    pytest.param(lambda: SimConfig(detector_mode=["calibrated"]), "detector_mode must be one of (",
                 id="SimConfig-detector_mode"),
    pytest.param(lambda: DroneState(position=(0, 0, 300)),
                 "position must be a Vector3, got (0, 0, 300)", id="DroneState-position"),
]


@pytest.mark.parametrize("call,message", WRONG_TYPES)
def test_entry_point_rejects_wrong_type(call, message):
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}"):
        call()


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
    # every value type stores the float its check returns, never the caller's number type
    assert type(Vector3(np.float32(1.0), 2, 3).y) is float
    assert type(RFConfig(np.int64(2_000_000_000)).frequency_hz) is float
    assert type(VoltageTriple(np.float32(0.5), 0, 1).v12) is float
    assert type(GuidanceConfig(move_step_cm=2).move_step_cm) is float


def _valid(entry, kwargs, name):
    return kwargs[name] if name in kwargs else getattr(entry, name)  # else the field default


# each numeric field of a value type in ENTRY_POINTS, given as a numpy scalar of a valid
# value: np.float32 always, np.int64 where the valid value is a whole number
NUMPY_CASES = [pytest.param(entry, kwargs, name, number,
                            id=f"{entry.__name__}-{name}-{number.__name__}")
               for entry, kwargs, names in ENTRY_POINTS if isinstance(entry, type)
               for name in names for number in (np.float32, np.int64)
               if number is np.float32 or float(_valid(entry, kwargs, name)).is_integer()]


@pytest.mark.parametrize("entry,kwargs,name,number", NUMPY_CASES)
def test_value_types_store_numpy_scalars_as_float(entry, kwargs, name, number):
    given = number(_valid(entry, kwargs, name))
    stored = getattr(entry(**{**kwargs, name: given}), name)
    assert type(stored) is float and stored == float(given)


# each numeric parameter of a function in ENTRY_POINTS, and each height of cone_profile's
# z_list, given as np.float32 of its valid value, as np.int64 of that value rounded and as
# the exact Fraction of that value, which formats differently from its float
NON_FLOAT_NUMBERS = {"float32": np.float32, "int64": lambda x: np.int64(round(x)),
                     "Fraction": Fraction}
FUNCTION_NUMBER_CASES = [
    pytest.param(entry, kwargs, name, number, id=f"{entry.__name__}-{name}-{number_id}")
    for entry, kwargs, names in [*ENTRY_POINTS, (cone_profile, CONE_KWARGS, ("z_list",))]
    if not isinstance(entry, type) for name in names
    for number_id, number in NON_FLOAT_NUMBERS.items()]


def _leaves(result):
    """(type, value) of every number in a result: a scalar, a dataclass or a list of rows."""
    if dataclasses.is_dataclass(result):
        return _leaves([getattr(result, f.name) for f in dataclasses.fields(result)])
    if isinstance(result, (list, tuple)):
        return [leaf for item in result for leaf in _leaves(item)]
    return [(type(result), result.hex() if isinstance(result, float) else result)]


@pytest.mark.parametrize("entry,kwargs,name,number", FUNCTION_NUMBER_CASES)
def test_functions_compute_on_numpy_scalars_as_on_their_floats(entry, kwargs, name, number):
    value = kwargs[name]
    given = [number(x) for x in value] if isinstance(value, list) else number(value)
    as_float = [float(x) for x in given] if isinstance(value, list) else float(given)
    assert _leaves(entry(**{**kwargs, name: given})) == _leaves(entry(**{**kwargs, name: as_float}))


def test_numpy_threshold_decides_as_its_float():
    # numpy 2 compares a Python float with a float32 in float32, where 0.0200000001 == 0.02
    v = VoltageTriple(0.0200000001, 0, 0)
    assert decide(v, GuidanceConfig(0.02))[0].token == "YAWR60"
    assert decide(v, GuidanceConfig(np.float32(0.02)))[0].token == "YAWR60"


def test_float32_profile_round_trips_as_its_floats():
    numbers = {name: value for name, value in PROFILE_FIELDS.items() if name != "pair_id"}
    poly32 = CalibrationPolynomial(pair_id="d12", **{name: np.float32(value)
                                                     for name, value in numbers.items()})
    poly = CalibrationPolynomial(pair_id="d12", **{name: float(np.float32(value))
                                                   for name, value in numbers.items()})
    assert poly32 == poly
    v = voltage_from_phase(poly32, 45.0)
    assert type(v) is float and v == voltage_from_phase(poly, 45.0)
    assert phase_from_voltage(poly32, v) == pytest.approx(45.0, abs=1e-9)
