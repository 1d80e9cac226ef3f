"""The calibrated interval sources the landing loop decides on, against the written-out
oracle (sector_oracle.cells), bit for bit: both ends by .hex(), so nan matches nan and the
sign of a zero counts."""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from triphase import detector
from triphase.detector import (
    PAIR_IDS,
    CalibrationPolynomial,
    MeasurementSample,
    builtin_profile_set,
    fit_calibration,
)
from triphase.geometry import RFConfig, Vector3, receiver_points
from triphase.guidance import GuidanceConfig
from triphase.simulator import DETECTOR_MODES, DroneState, simulate_landing

import sector_oracle as oracle

GEOM = receiver_points(7.0)
RF = RFConfig(2.46e9)
#: the largest |raw phase| a pair of the 7 cm receiver triangle senses, k D [deg]
REACH_DEG = RF.deg_per_cm * 7.0
THRESHOLDS = [1e-9, 1e-6, 0.02, 0.03, 1.5]


def profile(pair, coeffs, v_lo=-1.0, v_hi=1.0):
    return CalibrationPolynomial(*coeffs, v_ref=0.0, v_lo=v_lo, v_hi=v_hi, max_err_deg=1.0,
                                 pair_id=pair)


def fitted_set():
    """Each built-in curve with a 0.2 deg wobble, sampled at 33 voltages inside its +-80 deg
    span and fitted again: a profile of fit_calibration's own, v_ref its fitted zero."""
    fitted = {}
    for pair, poly in builtin_profile_set().items():
        volts = [poly.v_lo + (poly.v_hi - poly.v_lo) * (k + 0.5) / 33 for k in range(33)]
        samples = [MeasurementSample(poly.evaluate(v) + 0.2 * math.sin(9.0 * v), v)
                   for v in volts]
        fitted[pair] = fit_calibration(samples, degree=5, pair_id=pair)
    return fitted


SETS = {
    "builtin": builtin_profile_set(),
    "fitted": fitted_set(),
    # v_ref = 0 V: the cell around it straddles 0 V and its ends round to both sides
    "zero-ref": {"d12": profile("d12", (0.0, 1e-2, 0.0, 1.0, 0.0, 0.0)),
                 "d23": profile("d23", (0.0, 80.0, 0.0, 0.0, 0.0, 0.0)),
                 "d31": profile("d31", (0.0, 40.0, 0.0, 40.0, 0.0, 0.0))},
    # p' runs from 1e-3 to 3.001 on [-1, 1], too wide a range for any edges
    "boxless": {pair: profile(pair, (0.0, 1e-3, 0.0, 1.0, 0.0, 0.0)) for pair in PAIR_IDS},
}


def ulps(x, n):
    """The 2 n + 1 floats from n ulps below x to n ulps above it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def special_phases(poly, limit, thr):
    """Every phase where an interval may change: each seed-table phase, edge and +-limit,
    and the phases 1 to 4 ulps either side of each, as raw floats and as the floats a
    wrapped negative phase takes, 360 + theta rounded, less 360."""
    _, phases = poly._seed_table
    points = [*phases, limit, -limit,
              *(edge for pair in detector._edges(poly, thr) for edge in pair)]
    out = []
    for theta in points:
        if math.isfinite(theta):
            out += ulps(theta, 4)
            if theta < 0.0:
                out += [turn - 360.0 for turn in ulps(theta + 360.0, 4)]
    return out


def hexes(interval):
    lo, hi = interval
    return lo.hex(), hi.hex()


def assert_sources_match(profiles, thr, thetas_of):
    """Every calibrated source of the set for thr gives the oracle's interval, to the bit, at
    each phase thetas_of(poly, limit) lists."""
    limit, _, _, sources = DETECTOR_MODES["calibrated"](profiles, RF, thr)
    for pair, source in zip(PAIR_IDS, sources):
        poly = profiles[pair]
        edges = detector._edges(poly, thr)
        for theta in thetas_of(poly, limit):
            want = oracle.cells(poly, limit, thr, edges, theta)
            assert hexes(source(theta)) == hexes(want), (pair, thr, theta.hex())


def test_the_sets_cover_boxes_and_no_boxes():
    boxed = {name: {thr: sum(detector._edges(poly, thr) != detector._NO_EDGES
                             for poly in profiles.values()) for thr in THRESHOLDS}
             for name, profiles in SETS.items()}
    assert boxed["boxless"] == dict.fromkeys(THRESHOLDS, 0)
    for name in ("builtin", "fitted", "zero-ref"):
        assert boxed[name][1e-9] == boxed[name][1e-6] == 0 and boxed[name][0.02] == 3


@pytest.mark.parametrize("thr", THRESHOLDS)
@pytest.mark.parametrize("name", SETS)
def test_every_breakpoint_and_edge_gives_the_oracle_s_interval(name, thr):
    assert_sources_match(SETS[name], thr, lambda poly, limit: special_phases(poly, limit, thr))


@settings(deadline=None, max_examples=400)
@given(name=st.sampled_from(list(SETS)), thr=st.sampled_from(THRESHOLDS),
       j=st.integers(0, 2), turns=st.integers(-3, 3), data=st.data())
def test_any_phase_gives_the_oracle_s_interval(name, thr, j, turns, data):
    profiles = SETS[name]
    poly = profiles[PAIR_IDS[j]]
    near = st.sampled_from(special_phases(poly, detector.CALIBRATED_RANGE_DEG, thr))
    theta = data.draw(st.one_of(near, st.floats(-REACH_DEG, REACH_DEG)))
    theta += 360.0 * turns
    limit, _, _, sources = DETECTOR_MODES["calibrated"](profiles, RF, thr)
    want = oracle.cells(poly, limit, thr, detector._edges(poly, thr), theta)
    assert hexes(sources[j](theta)) == hexes(want)


def test_a_profile_pickled_after_runs_keeps_its_sources():
    # the built-in profiles are module singletons, so whatever a run builds for them stays
    profiles = builtin_profile_set()
    start, beacon = DroneState(Vector3(0.0, 0.0, 300.0)), Vector3(-57.4, 81.9, 0.0)
    for thr in (0.03, 0.02, 1e-6):
        simulate_landing(start, beacon, GEOM, RF, profiles,
                         GuidanceConfig(hold_threshold_v=thr))
    copied = pickle.loads(pickle.dumps(profiles))
    assert copied == profiles and all(copied[p] is not profiles[p] for p in PAIR_IDS)
    for thr in (0.03, 0.02, 1e-6, 0.05):
        assert_sources_match(copied, thr, lambda poly, limit: special_phases(poly, limit, thr))


def test_equal_profiles_each_get_their_own_sources():
    # a copy that compares equal is not the profile: each instance answers for itself
    profiles = builtin_profile_set()
    twins = {pair: dataclasses.replace(poly) for pair, poly in profiles.items()}
    assert twins == profiles
    for thr in (0.02, 0.03):
        assert_sources_match(twins, thr, lambda poly, limit: special_phases(poly, limit, thr))


def test_a_table_whose_phases_do_not_ascend_gives_the_oracle_s_interval():
    # rounding may leave a seed table's phases out of order or tied; bisect still picks a cell
    profiles = {pair: dataclasses.replace(poly) for pair, poly in builtin_profile_set().items()}
    for poly in profiles.values():
        volts, phases = poly._seed_table
        phases = list(phases)
        phases[100], phases[101], phases[150] = phases[101], phases[100], phases[149]
        poly.__dict__["_seed_table"] = volts, phases
    for thr in (0.02, 1e-6):
        assert_sources_match(profiles, thr, lambda poly, limit: special_phases(poly, limit, thr))


def test_a_new_threshold_leaves_the_sources_handed_out_intact():
    # a profile keeps the table for one threshold; a new one replaces it, never edits it
    profiles = {pair: dataclasses.replace(poly) for pair, poly in builtin_profile_set().items()}
    limit, _, _, sources = DETECTOR_MODES["calibrated"](profiles, RF, 0.02)
    for thr in (0.03, 1e-6):
        DETECTOR_MODES["calibrated"](profiles, RF, thr)
    for pair, source in zip(PAIR_IDS, sources):
        poly = profiles[pair]
        edges = detector._edges(poly, 0.02)
        for theta in special_phases(poly, limit, 0.02):
            want = oracle.cells(poly, limit, 0.02, edges, theta)
            assert hexes(source(theta)) == hexes(want), (pair, theta.hex())
    again = DETECTOR_MODES["calibrated"](profiles, RF, 1e-6)[3]
    assert all(a is b for a, b in zip(again, DETECTOR_MODES["calibrated"](profiles, RF, 1e-6)[3]))


def seed_hexes(poly):
    return [[x.hex() for x in column] for column in poly._seed_table]


def test_a_profile_pickles_as_its_fields_whatever_it_ran():
    # a profile pickles as a fresh copy of it does, and loading constructs it again, so nothing
    # it derived crosses a pickle: a loaded profile proves and builds its own
    profiles = {pair: dataclasses.replace(poly) for pair, poly in builtin_profile_set().items()}
    start, beacon = DroneState(Vector3(0.0, 0.0, 300.0)), Vector3(-57.4, 81.9, 0.0)
    for thr in (0.02, 0.03, 1e-6, 1.5):
        simulate_landing(start, beacon, GEOM, RF, profiles, GuidanceConfig(hold_threshold_v=thr))
    for poly in profiles.values():
        fresh = dataclasses.replace(poly)
        loaded = pickle.loads(pickle.dumps(poly))
        assert pickle.dumps(poly) == pickle.dumps(fresh)
        assert loaded == poly and loaded.__dict__.keys() == fresh.__dict__.keys()
    # a seed table edited in memory, as the test of unordered phases edits it, stays behind
    poly = dataclasses.replace(profiles["d12"])
    volts, phases = poly._seed_table
    phases = list(phases)
    phases[100], phases[101], phases[150] = phases[101], phases[100], phases[149]
    poly.__dict__["_seed_table"] = volts, phases
    loaded = pickle.loads(pickle.dumps(poly))
    assert seed_hexes(loaded) == seed_hexes(dataclasses.replace(poly)) != seed_hexes(poly)
