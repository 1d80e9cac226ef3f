import bisect
import dataclasses
import io
import math
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.polynomial import Polynomial

from triphase import detector
from triphase.detector import (
    CalibrationPolynomial,
    MeasurementSample,
    PAIR_IDS,
    TABLE2_D12,
    TABLE2_D23,
    TABLE2_D31,
    builtin_profile_set,
    centered_voltage,
    fit_calibration,
    ideal_sine_voltage,
    load_profile,
    phase_from_voltage,
    read_measurement_csv,
    save_profile,
    triangular_voltage,
    voltage_from_phase,
)
from triphase.errors import (
    CalibrationFitError,
    CalibrationRejectedError,
    FileFormatError,
    InvalidParameterError,
    PhaseAmbiguityError,
    TriphaseError,
    VoltageOutOfRangeError,
)

# measured rows: nominal phase [deg] -> raw voltage [V], per pair
TABLE1 = {
    "d12": [(-100, 0.228), (-90, 0.197), (-80, 0.223), (-70, 0.302), (0, 1.533),
            (0, 1.533), (70, 2.756), (80, 2.837), (90, 2.865), (100, 2.838)],
    "d23": [(-100, 0.253), (-90, 0.248), (-80, 0.299), (-70, 0.399), (0, 1.610),
            (-4, 1.571), (70, 2.814), (80, 2.873), (90, 2.879), (100, 2.832)],
    "d31": [(-100, 0.352), (-90, 0.283), (-80, 0.266), (-70, 0.303), (0, 1.443),
            (7, 1.577), (70, 2.691), (80, 2.796), (90, 2.854), (100, 2.863)],
}

PROFILES = builtin_profile_set()


def in_range_rows(pair):
    return [(t, v) for t, v in TABLE1[pair] if abs(t) <= 80]


class TestIdealSine:
    def test_anchor_values(self):
        assert ideal_sine_voltage(0.0) == 0.0
        assert ideal_sine_voltage(90.0) == pytest.approx(1.0, abs=1e-12)
        assert ideal_sine_voltage(30.0) == pytest.approx(0.5, abs=1e-12)
        assert ideal_sine_voltage(-90.0) == pytest.approx(-1.0, abs=1e-12)
        assert ideal_sine_voltage(390.0) == ideal_sine_voltage(30.0)  # wrapped first


class TestTriangularModel:
    def test_anchor_values(self):
        assert triangular_voltage(0.0) == 0.0
        assert triangular_voltage(90.0) == pytest.approx(0.900, abs=1e-12)
        assert triangular_voltage(-90.0) == pytest.approx(-0.900, abs=1e-12)

    def test_odd_and_linear(self):
        for theta in range(-90, 91):
            assert triangular_voltage(theta) == -triangular_voltage(-theta)
            assert triangular_voltage(theta) == 10.0 * theta / 1000.0


class TestCrossValidation:
    @pytest.mark.parametrize("pair,poly", [("d12", TABLE2_D12), ("d23", TABLE2_D23),
                                           ("d31", TABLE2_D31)])
    def test_measured_rows_within_published_error(self, pair, poly):
        for theta, volts in in_range_rows(pair):
            assert poly.evaluate(volts) == pytest.approx(theta, abs=poly.max_err_deg + 0.2)

    def test_zero_phase_anchor(self):
        got = TABLE2_D12.evaluate(1.533)
        assert abs(got) <= 0.9
        assert got == pytest.approx(0.167, abs=0.005)  # frozen from an independent evaluation

    def test_full_scale_anchor(self):
        got = TABLE2_D12.evaluate(2.837)
        assert got == pytest.approx(79.4, abs=0.05)
        assert got == pytest.approx(80.0, abs=0.9)


class TestPhaseFromVoltage:
    def test_matches_raw_polynomial_in_range(self):
        assert phase_from_voltage(TABLE2_D12, 1.533) == TABLE2_D12.evaluate(1.533)

    def test_clamps_inside_guard_band(self):
        v_over = TABLE2_D31.v_hi + 0.009
        assert TABLE2_D31.evaluate(v_over) > 80.0
        assert phase_from_voltage(TABLE2_D31, v_over) == 80.0

    def test_clamps_inside_lower_guard_band(self):
        v_under = TABLE2_D12.v_lo - 0.005
        assert TABLE2_D12.evaluate(v_under) < -80.0
        assert phase_from_voltage(TABLE2_D12, v_under) == -80.0

    def test_out_of_range_raises(self):
        with pytest.raises(VoltageOutOfRangeError):
            phase_from_voltage(TABLE2_D12, TABLE2_D12.v_lo - 0.02)
        with pytest.raises(VoltageOutOfRangeError):
            phase_from_voltage(TABLE2_D12, TABLE2_D12.v_hi + 0.02)
        with pytest.raises(InvalidParameterError):
            phase_from_voltage(TABLE2_D12, math.nan)

    @pytest.mark.parametrize("poly", PROFILES.values(), ids=lambda p: p.pair_id)
    def test_strictly_increasing_at_millivolt_steps(self, poly):
        v = poly.v_lo
        prev = poly.evaluate(v)
        while v < poly.v_hi:
            v += 0.001
            cur = poly.evaluate(v)
            assert cur > prev
            prev = cur


class TestVoltageFromPhase:
    @pytest.mark.parametrize("poly", PROFILES.values(), ids=lambda p: p.pair_id)
    def test_round_trip_across_full_range(self, poly):
        for theta in range(-80, 81):
            v = voltage_from_phase(poly, float(theta))
            assert phase_from_voltage(poly, v) == pytest.approx(theta, abs=0.01)

    def test_zero_phase_lands_near_reference(self):
        for poly in PROFILES.values():
            assert voltage_from_phase(poly, 0.0) == pytest.approx(poly.v_ref, abs=0.007)

    def test_full_scale_anchor_voltage(self):
        # +80 deg synthesizes close to the measured 2.837 V point
        assert voltage_from_phase(TABLE2_D12, 80.0) == pytest.approx(2.837, abs=0.02)

    def test_ambiguous_phase_rejected(self):
        with pytest.raises(PhaseAmbiguityError) as err:
            voltage_from_phase(TABLE2_D23, 80.5)
        assert err.value.pair == "d23"

    @pytest.mark.parametrize("poly", PROFILES.values(), ids=lambda p: p.pair_id)
    def test_builtin_interval_spans_the_calibrated_range(self, poly):
        # +-80 deg then synthesizes inside [v_lo, v_hi], never on the extension path
        assert poly.evaluate(poly.v_lo) <= -80.0 <= 80.0 <= poly.evaluate(poly.v_hi)


class TestCenteredVoltage:
    def test_reference_row(self):
        assert centered_voltage(1.533, TABLE2_D12) == pytest.approx(0.003, abs=1e-12)

    def test_reference_is_zero(self):
        assert centered_voltage(TABLE2_D12.v_ref, TABLE2_D12) == 0.0

    @pytest.mark.parametrize("poly", PROFILES.values(), ids=lambda p: p.pair_id)
    def test_sign_matches_phase_outside_error_band(self, poly):
        v = poly.v_lo
        while v <= poly.v_hi:
            phase = poly.evaluate(v)
            if abs(phase) > poly.max_err_deg:
                assert (centered_voltage(v, poly) > 0) == (phase > 0)
            v += 0.001


def reference_horner(coeffs, v):
    """Polynomial value by a generic Horner loop: the order detector._horner unrolls."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def quintic_samples(coeffs, volts):
    return [MeasurementSample(reference_horner(coeffs, v), v) for v in volts]


class TestFitCalibration:
    VOLTS = [0.25, 0.55, 0.9, 1.25, 1.6, 1.95, 2.3, 2.6, 2.8]

    def test_exact_recovery_of_known_quintic(self):
        src = TABLE2_D12
        fitted = fit_calibration(quintic_samples(src.coeffs, self.VOLTS), degree=5)
        for got, want in zip(fitted.coeffs, src.coeffs):
            assert got == pytest.approx(want, rel=1e-6)
        assert fitted.max_err_deg <= 1e-6

    def test_refit_idempotence(self):
        # sample strictly inside the d23 polynomial's +-80 deg span
        volts = [0.31 + k * (2.86 - 0.31) / 8 for k in range(9)]
        first = fit_calibration(quintic_samples(TABLE2_D23.coeffs, volts), degree=5)
        second = fit_calibration(quintic_samples(first.coeffs, volts), degree=5)
        for a, b in zip(first.coeffs, second.coeffs):
            assert b == pytest.approx(a, rel=1e-6)

    def test_measured_rows_fit_within_published_error(self):
        samples = [MeasurementSample(t, v) for t, v in in_range_rows("d12")]
        fitted = fit_calibration(samples, degree=5, pair_id="d12")
        assert fitted.max_err_deg <= 0.9 + 0.2

    def test_underdetermined_rejected(self):
        samples = quintic_samples(TABLE2_D12.coeffs, self.VOLTS[:5])
        with pytest.raises(CalibrationFitError):
            fit_calibration(samples, degree=5)

    def test_non_monotone_rejected(self):
        wiggly = [MeasurementSample(t, v) for v, t in
                  [(0.2, -60.0), (0.7, -10.0), (1.2, -30.0), (1.5, 0.0),
                   (1.8, 30.0), (2.3, 10.0), (2.8, 60.0)]]
        with pytest.raises(CalibrationRejectedError):
            fit_calibration(wiggly, degree=5)

    def test_out_of_range_sample_rejected(self):
        samples = quintic_samples(TABLE2_D12.coeffs, self.VOLTS)
        samples.append(MeasurementSample(81.0, 2.85))
        with pytest.raises(InvalidParameterError):
            fit_calibration(samples, degree=5)


def valid_profile(a0, a1, higher, v_lo, width, ref, slack, pair_id, frequency_hz):
    """A profile that passes every check: on [0, 3] V the slope is at least
    a1 - (2*3 + 3*9 + 4*27 + 5*81) = a1 - 546, so a1 > 546 proves it increasing."""
    coeffs = (a0, a1, *higher)
    v_hi = v_lo + width
    v_ref = v_lo + ref * width
    ref_phase = sum(c * v_ref ** k for k, c in enumerate(coeffs))
    return CalibrationPolynomial(*coeffs, v_ref=v_ref, v_lo=v_lo, v_hi=v_hi,
                                 max_err_deg=abs(ref_phase) + slack, pair_id=pair_id,
                                 frequency_hz=frequency_hz)


class TestProfileIO:
    def test_save_load_round_trip(self):
        buf = io.StringIO()
        save_profile(TABLE2_D31, buf)
        loaded = load_profile(io.StringIO(buf.getvalue()))
        assert loaded == TABLE2_D31

    @settings(deadline=None)
    @given(poly=st.builds(valid_profile, a0=st.floats(-1e3, 1e3), a1=st.floats(550.0, 1e6),
                          higher=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
                          v_lo=st.floats(0.0, 2.0), width=st.floats(1e-3, 1.0),
                          ref=st.floats(0.0, 1.0), slack=st.floats(0.0, 1e3),
                          pair_id=st.sampled_from(PAIR_IDS),
                          frequency_hz=st.floats(0.0, exclude_min=True, allow_infinity=False)))
    def test_save_load_round_trip_is_bit_exact(self, poly):
        buf = io.StringIO()
        save_profile(poly, buf)
        loaded = load_profile(io.StringIO(buf.getvalue()))
        assert loaded.pair_id == poly.pair_id
        assert ([getattr(loaded, f).hex() for f in NUMERIC_FIELDS]
                == [getattr(poly, f).hex() for f in NUMERIC_FIELDS])

    def test_missing_field_rejected(self):
        from triphase import FileFormatError
        text = "pair_id = d12\na0 = 1.0\n"
        with pytest.raises(FileFormatError):
            load_profile(io.StringIO(text))


class TestMeasurementCsv:
    GOOD = "theta_deg,voltage_v,power_dbm\n-80,0.223,-20\n0,1.533,-20\n80,2.837,-20\n"

    def test_reads_samples(self):
        samples = read_measurement_csv(io.StringIO(self.GOOD))
        assert len(samples) == 3
        assert samples[0].theta_deg == -80.0
        assert samples[2].voltage_v == 2.837

    def test_malformed_row_names_line(self):
        from triphase import FileFormatError
        bad = "theta_deg,voltage_v,power_dbm\n-80,0.223,-20\noops,1.0,-20\n"
        with pytest.raises(FileFormatError, match="line 3"):
            read_measurement_csv(io.StringIO(bad))

    def test_empty_file_rejected(self):
        from triphase import FileFormatError
        with pytest.raises(FileFormatError):
            read_measurement_csv(io.StringIO(""))

    @pytest.mark.parametrize("power", ["nan", "inf", "-inf"])
    def test_non_finite_power_rejected(self, power):
        bad = f"theta_deg,voltage_v,power_dbm\n-80,0.223,-20\n0,1.533,{power}\n"
        with pytest.raises(FileFormatError, match="^line 3: power_dbm "):
            read_measurement_csv(io.StringIO(bad))

    def test_blank_power_reads_as_none(self):
        samples = read_measurement_csv(io.StringIO("theta_deg,voltage_v,power_dbm\n0,1.533,\n"))
        assert samples[0].power_dbm is None


@settings(deadline=None)
@given(head=st.sampled_from([b"", b"theta_deg,voltage_v,power_dbm\n", b"pair_id = d12\n"]),
       body=st.binary())
def test_readers_return_or_raise_a_package_error_on_any_bytes(tmp_path_factory, head, body):
    path = tmp_path_factory.getbasetemp() / "any-bytes"
    path.write_bytes(head + body)
    for reader in (read_measurement_csv, load_profile):
        try:
            reader(path)
        except TriphaseError:
            pass


class TestTextEncoding:
    @pytest.mark.parametrize("reader", [load_profile, read_measurement_csv])
    def test_caller_stream_that_does_not_decode_is_a_format_error(self, reader):
        stream = io.TextIOWrapper(io.BytesIO(b"theta_deg,voltage_v,power_dbm\n0,1.5\xff,-20\n"),
                                  encoding="utf-8", newline="")
        with pytest.raises(FileFormatError,
                           match=re.escape("not UTF-8 text at byte 0xff (invalid start byte)")):
            reader(stream)
        assert not stream.closed  # a caller's stream stays open

    def test_byte_order_mark_is_read_and_never_written(self, tmp_path):
        path = tmp_path / "d31.profile"
        save_profile(TABLE2_D31, path)
        saved = path.read_bytes()
        assert saved.startswith(b"pair_id = d31\n")
        path.write_bytes(b"\xef\xbb\xbf" + saved)
        assert load_profile(path) == TABLE2_D31

    def test_byte_order_mark_on_a_callers_profile_stream_is_skipped(self):
        buf = io.StringIO()
        save_profile(TABLE2_D31, buf)
        assert load_profile(io.StringIO("\ufeff" + buf.getvalue())) == TABLE2_D31

    def test_byte_order_mark_on_a_callers_csv_stream_is_skipped(self):
        text = "\ufefftheta_deg,voltage_v,power_dbm\n-10,1.25,-20\n"
        assert read_measurement_csv(io.StringIO(text)) == [MeasurementSample(-10.0, 1.25, -20.0)]

    @pytest.mark.parametrize("source", ["path", "stream"])
    def test_only_one_byte_order_mark_is_skipped(self, tmp_path, source):
        buf = io.StringIO()
        save_profile(TABLE2_D31, buf)
        text = "\ufeff\ufeff" + buf.getvalue()
        path = tmp_path / "two-marks.profile"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FileFormatError, match=re.escape("line 1: unknown key '\\ufeffpair_id'")):
            load_profile(path if source == "path" else io.StringIO(text))
        with pytest.raises(FileFormatError, match="line 1: expected header"):
            read_measurement_csv(io.StringIO("\ufeff\ufefftheta_deg,voltage_v,power_dbm\n0,1.5,\n"))

    def test_an_object_with_only_write_is_a_stream(self):
        class Sink:
            def __init__(self):
                self.parts = []

            def write(self, text):
                self.parts.append(text)

        sink = Sink()
        save_profile(TABLE2_D31, sink)
        assert load_profile(io.StringIO("".join(sink.parts))) == TABLE2_D31

    def test_a_mark_after_the_first_character_is_data(self):
        with pytest.raises(FileFormatError, match="line 1: expected header"):
            read_measurement_csv(io.StringIO("t\ufeffheta_deg,voltage_v,power_dbm\n0,1.5,\n"))


class TestMeasurementSample:
    @pytest.mark.parametrize("power", ["x", "1", math.nan, math.inf, -math.inf])
    def test_power_is_none_or_a_finite_number(self, power):
        assert MeasurementSample(0.0, 1.0, None).power_dbm is None
        assert MeasurementSample(0.0, 1.0, -20).power_dbm == -20
        with pytest.raises(InvalidParameterError, match="^power_dbm must be a finite number"):
            MeasurementSample(0.0, 1.0, power)


def reference_voltage_from_phase(poly, theta_deg):
    """Voltage synthesis by plain bisection to 1 uV, with the bracket pushed
    outward in 5 mV steps (at most 100 mV) where [v_lo, v_hi] falls short."""
    def slope(v):
        return sum(k * c * v ** (k - 1) for k, c in enumerate(poly.coeffs) if k)

    def extend(v_end, step):
        moved = 0.0
        while (poly.evaluate(v_end) > theta_deg) if step < 0 else (poly.evaluate(v_end) < theta_deg):
            if moved >= 0.100 or slope(v_end + step) <= 0.0:
                raise CalibrationRejectedError("reference bisection cannot bracket theta")
            v_end += step
            moved += abs(step)
        return v_end

    lo, hi = extend(poly.v_lo, -0.005), extend(poly.v_hi, +0.005)
    for _ in range(64):
        if hi - lo <= 1e-6:
            break
        mid = 0.5 * (lo + hi)
        if poly.evaluate(mid) <= theta_deg:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def d12_fit_between(v_lo, v_hi):
    """Exact quintic fit of the d12 curve sampled at 9 voltages over [v_lo, v_hi]."""
    volts = [v_lo + k * (v_hi - v_lo) / 8 for k in range(9)]
    return fit_calibration(quintic_samples(TABLE2_D12.coeffs, volts), degree=5)


# samples over about +-75 deg: the fitted interval stops 43-45 mV short of +-80 deg
STOP_SHORT_FIT = d12_fit_between(0.262, 2.797)


class TestVoltageSynthesisOracle:
    @pytest.mark.parametrize("poly", [TABLE2_D12, TABLE2_D23, TABLE2_D31, STOP_SHORT_FIT],
                             ids=["d12", "d23", "d31", "stop-short-fit"])
    def test_agrees_with_bisection_within_one_microvolt(self, poly):
        worst = max(abs(voltage_from_phase(poly, k / 100) - reference_voltage_from_phase(poly, k / 100))
                    for k in range(-8000, 8001))
        assert worst <= 1e-6

    @given(pair=st.sampled_from(PAIR_IDS), theta=st.floats(-80.0, 80.0))
    def test_round_trip_property(self, pair, theta):
        poly = PROFILES[pair]
        assert abs(phase_from_voltage(poly, voltage_from_phase(poly, theta)) - theta) <= 1e-4

    def test_bracket_extends_past_a_stop_short_fit(self):
        fit = STOP_SHORT_FIT
        assert -80.0 < fit.evaluate(fit.v_lo) and fit.evaluate(fit.v_hi) < 80.0
        for theta in (-80.0, 80.0):
            v = voltage_from_phase(fit, theta)
            assert not fit.v_lo <= v <= fit.v_hi
            assert fit.evaluate(v) == pytest.approx(theta, abs=1e-4)
            assert v == pytest.approx(voltage_from_phase(TABLE2_D12, theta), abs=1e-5)

    def test_extension_beyond_100_mv_rejected(self):
        fit = d12_fit_between(0.423, 2.629)  # about +-60 deg: +-80 lies 200 mV further out
        assert voltage_from_phase(fit, 60.0) == pytest.approx(2.629, abs=1e-3)
        for theta in (-80.0, 80.0):
            with pytest.raises(CalibrationRejectedError):
                voltage_from_phase(fit, theta)


def reference_solve(coeffs, target, lo, hi, v):
    """The safeguarded Newton search as a generic Horner loop over any number of
    coefficients: the operation order detector._solve unrolls for exactly six."""
    for _ in range(100):
        p = dp = 0.0
        for c in reversed(coeffs):
            dp = dp * v + p
            p = p * v + c
        p -= target
        lo, hi = (v, hi) if p <= 0.0 else (lo, v)
        if dp == 0.0 or not lo <= (nxt := v - p / dp) <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - v) <= 1e-9:
            return nxt
        v = nxt
    return v


def seeded_bracket(poly, theta):
    """voltage_from_phase's bracket and interpolated seed from the profile's seed table."""
    volts, phases = poly._seed_table
    i = bisect.bisect_right(phases, theta, 1, len(phases) - 1)
    lo, hi = volts[i - 1], volts[i]
    return lo, hi, lo + (theta - phases[i - 1]) * (hi - lo) / (phases[i] - phases[i - 1])


class TestNewtonKernel:
    @settings(max_examples=300)
    @given(coeffs=st.lists(st.floats(-300.0, 300.0), min_size=6, max_size=6),
           degree=st.integers(1, 5), lo=st.floats(-3.0, 3.0), width=st.floats(1e-6, 3.0),
           t=st.floats(0.0, 1.0), s=st.floats(0.0, 1.0))
    def test_matches_the_generic_loop_bit_for_bit(self, coeffs, degree, lo, width, t, s):
        # high-order terms above the degree are 0.0 as _slope pads them, or -0.0 once negated
        coeffs = coeffs[:degree + 1] + [0.0] * (5 - degree)
        hi = lo + width
        if reference_horner(coeffs, lo) > reference_horner(coeffs, hi):
            coeffs = [-c for c in coeffs]
        p_lo, p_hi = reference_horner(coeffs, lo), reference_horner(coeffs, hi)
        assume(p_lo < p_hi)
        assert detector._horner(coeffs, lo).hex() == p_lo.hex()
        assert detector._horner(coeffs, hi).hex() == p_hi.hex()
        target = min(p_lo + t * (p_hi - p_lo), p_hi)
        v = min(lo + s * width, hi)
        assert (detector._solve(coeffs, target, lo, hi, v).hex()
                == reference_solve(coeffs, target, lo, hi, v).hex())

    @pytest.mark.parametrize("coeffs,target,lo,hi,v", [
        # p = p' = 0 at the seed: which bracket end moves decides the bisection
        ([-1.0, 3.0, -3.0, 1.0, 0.0, 0.0], 0.0, 0.0, 2.0, 1.0),
        # a bisection step of exactly 1e-9 ends the search
        ([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 3.375e-27, 0.0, 2e-9, 0.0),
        # a Newton step onto the bracket end stays a Newton step
        ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 1.0, 0.0, 1.0, 0.0),
    ], ids=["stationary-root-seed", "step-of-exactly-1e-9", "newton-onto-bracket-end"])
    def test_exact_ties_match_the_generic_loop(self, coeffs, target, lo, hi, v):
        # ties the random draws above all but never hit
        assert (detector._solve(coeffs, target, lo, hi, v).hex()
                == reference_solve(coeffs, target, lo, hi, v).hex())

    @pytest.mark.parametrize("poly", PROFILES.values(), ids=lambda p: p.pair_id)
    @pytest.mark.parametrize("theta", [-80.0, -35.0, 0.0, 37.3, 80.0])
    def test_builtin_synthesis_matches_the_generic_loop(self, poly, theta):
        lo, hi, seed = seeded_bracket(poly, theta)
        assert voltage_from_phase(poly, theta).hex() == reference_solve(
            poly.coeffs, theta, lo, hi, seed).hex()

    @pytest.mark.parametrize("poly", PROFILES.values(), ids=lambda p: p.pair_id)
    def test_builtin_validity_ends_match_the_generic_loop(self, poly):
        # the unstepped roots _builtin starts from, within a few ulps of v_lo and v_hi
        for theta, end in ((-80.0, poly.v_lo), (80.0, poly.v_hi)):
            got = detector._solve(poly.coeffs, theta, 0.05, 3.2, 1.625)
            assert got.hex() == reference_solve(poly.coeffs, theta, 0.05, 3.2, 1.625).hex()
            assert abs(got - end) <= 4 * math.ulp(end)

    def test_slope_is_the_padded_derivative(self):
        assert detector._slope([7.0, 1.0, 2.0, 3.0, 4.0, 5.0]) == [1.0, 4.0, 9.0, 16.0, 25.0, 0.0]


def turn_over_profile(sign):
    """Valid on [0, 1] V, the phase rises past v_hi to 70.51 deg at 1.05 V, then falls
    (sign = +1); sign = -1 mirrors it onto [-1, 0] V, turning over at -1.05 V."""
    k = 150.0 / (1.05 - 1.0 / 3.0 + 0.025)
    v_lo, v_hi = (0.0, 1.0) if sign > 0 else (-1.0, 0.0)
    return CalibrationPolynomial(-80.0 * sign, 1.05 * k, 0.025 * k * sign, -k / 3.0, 0.0, 0.0,
                                 v_ref=0.392210 * sign, v_lo=v_lo, v_hi=v_hi, max_err_deg=1.0,
                                 pair_id="d12")


class TestSeedTable:
    @pytest.mark.parametrize("poly", PROFILES.values(), ids=lambda p: p.pair_id)
    def test_builtin_tables_span_exactly_the_validity_interval(self, poly):
        volts, _ = poly._seed_table
        assert (volts[0], volts[-1]) == (poly.v_lo, poly.v_hi)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["high-end", "low-end"])
    def test_extension_stops_at_the_turn_and_phases_ascend(self, sign):
        poly = turn_over_profile(sign)
        volts, phases = poly._seed_table
        ends = (volts[0], volts[-1]) if sign > 0 else (-volts[-1], -volts[0])
        assert ends[0] == 0.0 and ends[1] == pytest.approx(1.05, abs=1e-9)
        assert all(a < b for a, b in zip(phases, phases[1:]))

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["high-end", "low-end"])
    @pytest.mark.parametrize("theta", [70.2, 70.4])
    def test_phases_reached_before_the_turn_synthesize(self, sign, theta):
        poly = turn_over_profile(sign)
        v = voltage_from_phase(poly, sign * theta)
        assert 1.0 < sign * v < 1.05
        assert abs(poly.evaluate(v) - sign * theta) <= 1e-9

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["high-end", "low-end"])
    def test_phase_past_the_turn_rejected(self, sign):
        message = f"reach {sign * 70.6:+.2f} deg monotonically within 100 mV of {sign:.3f} V"
        with pytest.raises(CalibrationRejectedError, match=re.escape(message)):
            voltage_from_phase(turn_over_profile(sign), sign * 70.6)


# profiles whose seed table reaches past [v_lo, v_hi] by more than the guard band
EXTENDED = {"stop-short-fit": STOP_SHORT_FIT, "turn-over-high": turn_over_profile(1.0),
            "turn-over-low": turn_over_profile(-1.0)}


class TestEverySynthesizedVoltageReadsBack:
    @given(name=st.sampled_from(sorted(EXTENDED)), u=st.floats(0.0, 1.0))
    @example(name="stop-short-fit", u=0.0)
    @example(name="stop-short-fit", u=1.0)
    @example(name="turn-over-high", u=1.0)
    @example(name="turn-over-low", u=0.0)
    def test_round_trip_over_the_phases_synthesis_reaches(self, name, u):
        poly = EXTENDED[name]
        _, phases = poly._seed_table
        lo, hi = max(phases[0], -80.0), min(phases[-1], 80.0)
        theta = min(lo + u * (hi - lo), hi)
        assert abs(phase_from_voltage(poly, voltage_from_phase(poly, theta)) - theta) <= 1e-9

    @pytest.mark.parametrize("name,end", [("stop-short-fit", 0), ("stop-short-fit", -1),
                                          ("turn-over-high", -1), ("turn-over-low", 0)])
    def test_nothing_past_the_seed_table_reads(self, name, end):
        poly = EXTENDED[name]
        v = poly._seed_table[0][end]
        assert not poly.v_lo - 0.010 <= v <= poly.v_hi + 0.010
        assert phase_from_voltage(poly, v) == max(-80.0, min(80.0, poly.evaluate(v)))
        with pytest.raises(VoltageOutOfRangeError, match="outside the readable"):
            phase_from_voltage(poly, math.nextafter(v, math.inf if end else -math.inf))


class TestMonotonicityProof:
    def test_dip_narrower_than_a_millivolt_rejected(self):
        # slope = k * ((v - c)**2 - d**2) * ((v - c)**2 + b) is negative only on
        # (c - d, c + d), d = 0.3 mV, with c halfway between two 1 mV steps from v_lo
        k, b, d, c, v_lo = 40.0, 1.0, 3e-4, 1.5005, 0.2
        phase = Polynomial([0.0, -k * d * d * b, 0.0, k * (b - d * d) / 3, 0.0, k / 5])
        coeffs = phase(Polynomial([-c, 1.0])).coef
        slope = Polynomial(coeffs).deriv()
        assert all(slope(v_lo + n * 0.001) > 0.0 for n in range(2701))
        assert slope(c) < 0.0
        with pytest.raises(CalibrationRejectedError):
            CalibrationPolynomial(*coeffs, v_ref=c, v_lo=v_lo, v_hi=2.9, max_err_deg=1.0,
                                  pair_id="d12")


NUMERIC_FIELDS = ("a0", "a1", "a2", "a3", "a4", "a5", "v_ref", "v_lo", "v_hi",
                  "max_err_deg", "frequency_hz")


class TestProfileValidation:
    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            dataclasses.replace(TABLE2_D12, **{field: value})

    @pytest.mark.parametrize("value", [0.0, -5.0])
    def test_non_positive_frequency_rejected(self, value):
        with pytest.raises(InvalidParameterError, match="frequency_hz"):
            dataclasses.replace(TABLE2_D12, frequency_hz=value)

    @pytest.mark.parametrize("field,value", [("a0", "nan"), ("max_err_deg", "nan"),
                                             ("frequency_hz", "-5")])
    def test_load_profile_rejects_malformed_value(self, field, value):
        buf = io.StringIO()
        save_profile(TABLE2_D12, buf)
        lines = [f"{field} = {value}" if line.startswith(f"{field} =") else line
                 for line in buf.getvalue().splitlines()]
        with pytest.raises(FileFormatError):
            load_profile(io.StringIO("\n".join(lines)))
