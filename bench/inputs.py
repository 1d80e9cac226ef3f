"""Seeded input generators for the benchmark workloads.

Nothing here imports triphase, so the inputs drawn for a seed stay the same
when the code under test changes.  Each generator yields an endless stream
in blocks.  Every block covers the same strata (heights, option combinations,
detector pairs) in a seeded order, so any run that consumes whole blocks
sees the same mix of easy and hard inputs whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: published Table-2 calibration coefficients a0..a5 (phase [deg] from voltage [V])
TABLE2_COEFFS = {
    "d12": (-114.203, 199.396, -228.453, 164.691, -55.965, 7.245),
    "d23": (-125.812, 211.489, -240.403, 172.357, -58.608, 7.596),
    "d31": (-129.954, 274.718, -328.593, 226.222, -73.488, 9.115),
}
PAIRS = tuple(TABLE2_COEFFS)

LANDING_BLOCK = 16
#: start heights of the timed landings.  Below about 125 cm some starts never
#: reach a hold (see LOW_START_Z_CM), so the timed ones start at 200 cm or higher
LANDING_Z_CM = (200.0, 1000.0)
#: start heights of the low-start probe: a few percent of these landings touch
#: down on the beacon without ever holding, and the traced run counts them
LOW_START_Z_CM = (100.0, 125.0)
LOW_START_PROBES = 64
#: start radius as a share of height; the 80 deg cone is wider than 0.42 z everywhere
LANDING_MAX_R_OVER_Z = 0.2

CONE_BLOCK = 16
CONE_Z_CM = (100.0, 1000.0)
CONE_THETA_LIMITS_DEG = (80.0, 90.0)
CONE_FREQS_GHZ = (2.45, 2.46)

CALIBRATE_BLOCK = 12
CALIBRATE_SAMPLES = 33
CALIBRATE_NOISE_V = 0.001
CALIBRATE_RANGE_DEG = 80.0


@dataclass(frozen=True)
class LandingInput:
    """Start height, beacon azimuth and radius from the start point, start heading."""

    z_cm: float
    phi_deg: float
    r_cm: float
    heading_deg: float


@dataclass(frozen=True)
class ConeInput:
    z_cm: float
    theta_limit_deg: float
    freq_ghz: float


@dataclass(frozen=True)
class CalibrateInput:
    """A measurement CSV for one detector pair, made from its Table-2 curve."""

    pair_id: str
    csv_text: str


def _rng(workload, seed):
    return random.Random(f"triphase-bench/{workload}/{seed}")


def _strata(rng, n):
    """n jittered points in [0, 1), one per equal-width stratum, in seeded order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


def _azimuth(rng):
    return 180.0 - 360.0 * rng.random()  # (-180, 180]


def _scale(u, bounds):
    lo, hi = bounds
    return lo + (hi - lo) * u


def landing_inputs(seed):
    rng = _rng("landing", seed)
    while True:
        for u in _strata(rng, LANDING_BLOCK):
            z = _scale(u, LANDING_Z_CM)
            yield LandingInput(z, _azimuth(rng), LANDING_MAX_R_OVER_Z * z * rng.random(),
                               _azimuth(rng))


def low_start_inputs():
    """The fixed low-start probe set: the same starts whatever the seed."""
    rng = _rng("low-start", 0)
    return [LandingInput(z, _azimuth(rng), LANDING_MAX_R_OVER_Z * z * rng.random(), _azimuth(rng))
            for z in (_scale(u, LOW_START_Z_CM) for u in _strata(rng, LOW_START_PROBES))]


def cone_inputs(seed):
    rng = _rng("cone", seed)
    combos = [(t, f) for t in CONE_THETA_LIMITS_DEG for f in CONE_FREQS_GHZ]
    while True:
        block = [ConeInput(_scale(u, CONE_Z_CM), *combos[k % len(combos)])
                 for k, u in enumerate(_strata(rng, CONE_BLOCK))]
        rng.shuffle(block)
        yield from block


def horner(coeffs, v):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def inverse(coeffs, theta_deg, lo=0.05, hi=3.2):
    """Voltage at which the (increasing) polynomial reaches theta_deg, by bisection."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if horner(coeffs, mid) <= theta_deg:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def measurement_csv(rng, pair_id):
    """Stratified voltages over the pair's +-80 deg interval; exact phases, noisy voltages."""
    coeffs = TABLE2_COEFFS[pair_id]
    v_lo = inverse(coeffs, -CALIBRATE_RANGE_DEG)
    v_hi = inverse(coeffs, CALIBRATE_RANGE_DEG)
    lines = ["theta_deg,voltage_v,power_dbm"]
    for k in range(CALIBRATE_SAMPLES):
        v = v_lo + (v_hi - v_lo) * (k + rng.random()) / CALIBRATE_SAMPLES
        theta = horner(coeffs, v)
        noisy = v + rng.gauss(0.0, CALIBRATE_NOISE_V)
        lines.append(f"{theta:.6f},{noisy:.6f},{rng.uniform(-30.0, -10.0):.1f}")
    return "\n".join(lines) + "\n"


def calibrate_inputs(seed):
    rng = _rng("calibrate", seed)
    while True:
        block = [PAIRS[k % len(PAIRS)] for k in range(CALIBRATE_BLOCK)]
        rng.shuffle(block)
        for pair_id in block:
            yield CalibrateInput(pair_id, measurement_csv(rng, pair_id))


GENERATORS = {
    "landing": landing_inputs,
    "cone": cone_inputs,
    "calibrate": calibrate_inputs,
}
