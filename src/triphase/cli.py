"""Command-line interface.

Subcommands: sweep, cone, fit, decide, simulate.  Lengths are centimeters,
angles degrees, frequency gigahertz on the command line (converted at the
boundary).  Exit codes: 0 success, 1 usage, 2 I/O, 3 numerical/ambiguity.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import detector, geometry, guidance, simulator
from .errors import FileFormatError, InvalidParameterError, TriphaseError

DEFAULT_SWEEP_FREQ_GHZ = 2.45

#: exit code per error class, the first match wins: usage, I/O, numerical
_EXIT_CODES = ((InvalidParameterError, 1), ((FileFormatError, OSError), 2), (TriphaseError, 3))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; remap onto this tool's convention
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def cm_list(text):
    return [float(x) for x in text.split(",") if x.strip()]


def _add_common(parser, with_freq=True):
    if with_freq:
        parser.add_argument("--freq-ghz", type=float, default=DEFAULT_SWEEP_FREQ_GHZ,
                            help=f"beacon frequency in GHz (default {DEFAULT_SWEEP_FREQ_GHZ})")
    parser.add_argument("--spacing-cm", type=float, default=7.0,
                        help="receiver input spacing D in cm (default 7)")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")


def _add_guidance(parser):
    defaults = guidance.GuidanceConfig  # a dataclass keeps each field default as a class attribute
    parser.add_argument("--hold-threshold", type=float, default=defaults.hold_threshold_v)
    parser.add_argument("--rotate-step", type=float, default=defaults.rotate_step_deg)
    parser.add_argument("--move-step", type=float, default=defaults.move_step_cm)


def _resolve_profiles(selector):
    builtin = detector.builtin_profile_set()
    if selector == "table2":
        return builtin
    profiles = {}
    for item in (p.strip() for p in selector.split(",") if p.strip()):
        name = item.removeprefix("table2-")
        poly = builtin[name] if name != item and name in builtin else detector.load_profile(item)
        if poly.pair_id in profiles:
            raise InvalidParameterError(f"more than one profile for pair {poly.pair_id}")
        profiles[poly.pair_id] = poly
    return profiles


def _out(args):
    """Where a command writes its CSV: stdout for '-', else the path."""
    return sys.stdout if args.out == "-" else args.out


def _summary(args, line):
    """Print a command's summary line, on stderr when its data goes to stdout."""
    print(line, file=sys.stderr if args.out == "-" else sys.stdout)


def _geometry(args, frequency_hz):
    """Receiver triangle from the common options, and the RF settings at frequency_hz."""
    return geometry.receiver_points(args.spacing_cm), geometry.RFConfig(frequency_hz)


def cmd_sweep(args):
    geom, rf = _geometry(args, args.freq_ghz * 1e9)
    rows = geometry.azimuth_sweep(args.r_cm, args.z_cm, geom, rf, args.n)
    geometry.write_sweep_csv(_out(args), rows)
    return 0


def cmd_cone(args):
    geom, rf = _geometry(args, args.freq_ghz * 1e9)
    rows = geometry.cone_profile(args.z_cm, args.theta_limit, geom, rf, args.n_azimuths)
    geometry.write_cone_csv(_out(args), rows)
    return 0


def cmd_fit(args):
    samples = detector.read_measurement_csv(args.samples)
    poly = detector.fit_calibration(samples, degree=args.degree, pair_id=args.pair_id,
                                    frequency_hz=args.freq_ghz * 1e9)
    detector.save_profile(poly, _out(args))
    _summary(args, f"max_err_deg={poly.max_err_deg:.6g}")
    return 0


def _guidance(args):
    """GuidanceConfig from the options `_add_guidance` declares."""
    return guidance.GuidanceConfig(hold_threshold_v=args.hold_threshold,
                                   rotate_step_deg=args.rotate_step,
                                   move_step_cm=args.move_step)


def cmd_decide(args):
    triple = guidance.VoltageTriple(args.v12, args.v23, args.v31)
    maneuvers = guidance.decide(triple, _guidance(args))
    print(guidance.trace_line(triple, guidance.classify_sector(triple), maneuvers))
    return 0


def cmd_simulate(args):
    profiles = _resolve_profiles(args.profile)
    scfg = simulator.SimConfig(descent_step_cm=args.descent_step,
                               min_height_cm=args.min_height,
                               max_iterations=args.max_iterations,
                               detector_mode=args.mode)
    # every mode runs at the profiles' frequency; a set without d12 fails whatever stands in
    geom, rf = _geometry(args, profiles.get("d12", detector.TABLE2_D12).frequency_hz)
    simulator._check_profiles(profiles, rf)
    start = simulator.DroneState(
        geometry.Vector3(args.start_x, args.start_y, args.start_z), args.heading)
    offset = geometry.landing_point(args.landing_r, args.landing_phi, args.start_z)
    # a world-frame offset from the start position, whatever the heading, on the ground
    landing = geometry.Vector3(args.start_x + offset.x, args.start_y + offset.y, 0.0)

    result = simulator.simulate_landing(start, landing, geom, rf, profiles, _guidance(args), scfg)
    simulator.write_trajectory_csv(_out(args), result.records)

    final = result.final_state.position
    err = math.hypot(landing.x - final.x, landing.y - final.y)
    if result.aborted:
        print(f"aborted: {result.diagnostic}", file=sys.stderr)
        return 3
    if result.converged:
        _summary(args, f"converged: first hold at iteration {result.first_hold_iteration}; "
                       f"touchdown at ({final.x:.2f}, {final.y:.2f}) cm; "
                       f"horizontal error {err:.2f} cm in {result.iterations} iterations")
    else:
        _summary(args, f"non-converged after {result.iterations} iterations "
                       f"(horizontal error {err:.2f} cm)")
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args keeps no state in it."""
    parser = _Parser(prog="triphase",
                     description="Triangular RF phase-shift landing sensor toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="phase shifts vs landing azimuth (CSV)")
    _add_common(p)
    p.add_argument("--r-cm", type=float, default=10.0, help="landing radius (default 10)")
    p.add_argument("--z-cm", type=float, default=100.0, help="drone height (default 100)")
    p.add_argument("--n", type=int, default=361, help="azimuth samples (default 361)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cone", help="non-ambiguity cone radii per height and azimuth (CSV)")
    _add_common(p)
    p.add_argument("--theta-limit", type=float, default=90.0,
                   help="non-ambiguous phase limit in degrees (default 90)")
    p.add_argument("--z-cm", type=cm_list,
                   default=[100.0 * k for k in range(1, 11)],
                   help="comma-separated heights in cm (default 100..1000)")
    p.add_argument("--n-azimuths", type=int, default=24,
                   help="azimuth samples per height (default 24)")
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("fit", help="fit a calibration polynomial from a measurement CSV")
    p.add_argument("samples", help="CSV with header theta_deg,voltage_v,power_dbm")
    p.add_argument("--degree", type=int, default=5, help="polynomial degree (default 5)")
    p.add_argument("--pair-id", choices=detector.PAIR_IDS, default="d12")
    p.add_argument("--freq-ghz", type=float, default=2.46,
                   help="frequency stored in the profile (default 2.46)")
    p.add_argument("--out", default="-", help="profile output path, '-' for stdout")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("decide", help="one guidance decision from three centered voltages")
    for name in ("v12", "v23", "v31"):
        p.add_argument(name, type=float)
    _add_guidance(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("simulate", help="closed-loop landing run, trajectory as CSV")
    _add_common(p, with_freq=False)
    p.add_argument("--profile", default="table2",
                   help="'table2' for the built-in measured profiles, or three "
                        "comma-separated built-in names (table2-d12, ...) or "
                        "profile file paths covering d12,d23,d31; the run uses "
                        "their common frequency")
    p.add_argument("--start-x", type=float, default=0.0)
    p.add_argument("--start-y", type=float, default=0.0)
    p.add_argument("--start-z", type=float, default=300.0)
    p.add_argument("--heading", type=float, default=0.0)
    p.add_argument("--landing-r", type=float, default=100.0,
                   help="beacon radius from the start position, cm")
    p.add_argument("--landing-phi", type=float, default=-35.0,
                   help="world-frame beacon azimuth from +Y toward +X, whatever --heading, deg")
    _add_guidance(p)
    defaults = simulator.SimConfig
    p.add_argument("--descent-step", type=float, default=defaults.descent_step_cm)
    p.add_argument("--min-height", type=float, default=defaults.min_height_cm)
    p.add_argument("--max-iterations", type=int, default=defaults.max_iterations)
    p.add_argument("--mode", choices=simulator.DETECTOR_MODES, default=defaults.detector_mode)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (TriphaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
