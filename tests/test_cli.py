import csv
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import triphase
from triphase.cli import main
from triphase.detector import TABLE2_D12, TABLE2_D31, load_profile, save_profile

TABLE1_D12 = [(-80, 0.223), (-70, 0.302), (0, 1.533), (0, 1.533), (70, 2.756), (80, 2.837)]


def write_samples(path, rows):
    with open(path, "w") as fh:
        fh.write("theta_deg,voltage_v,power_dbm\n")
        for theta, volts in rows:
            fh.write(f"{theta},{volts},-20\n")


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSweep:
    def test_default_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 361
        assert list(rows[0].keys()) == ["phi_deg", "th12_deg", "th23_deg", "th31_deg"]
        zero = next(r for r in rows if float(r["phi_deg"]) == 0.0)
        assert float(zero["th12_deg"]) == 0.0
        # six decimal places on every field
        first_data = out.read_text().splitlines()[1]
        assert all(len(f.split(".")[1]) == 6 for f in first_data.split(","))

    def test_crossing_magnitude_present(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        best, mag = None, None
        for r in read_csv(out):
            phi = float(r["phi_deg"])
            if 20.0 <= phi <= 40.0:
                gap = abs(abs(float(r["th12_deg"])) - abs(float(r["th31_deg"])))
                if mag is None or gap < mag:
                    best, mag = abs(float(r["th12_deg"])), gap
        assert best == pytest.approx(10.0, abs=2.0)

    def test_small_sample_count_is_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "--n", "2", "--out", str(tmp_path / "x.csv")]) == 1
        assert "n_samples" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--out", str(a)]) == 0
        assert main(["sweep", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCone:
    def test_published_extrema_at_ten_meters(self, tmp_path):
        out = tmp_path / "cone.csv"
        assert main(["cone", "--theta-limit", "90", "--z-cm", "1000",
                     "--freq-ghz", "2.45", "--out", str(out)]) == 0
        radii = [float(r["rmax_cm"]) for r in read_csv(out)]
        assert min(radii) == pytest.approx(486.0, rel=0.02)
        assert max(radii) == pytest.approx(585.0, rel=0.02)

    def test_zero_limit_is_usage_error(self, tmp_path):
        assert main(["cone", "--theta-limit", "0", "--out", str(tmp_path / "c.csv")]) == 1

    def test_header(self, tmp_path):
        out = tmp_path / "cone.csv"
        assert main(["cone", "--z-cm", "100", "--n-azimuths", "4", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "z_cm,phi_deg,rmax_cm"


class TestFit:
    def test_fit_measured_rows(self, tmp_path, capsys):
        samples = tmp_path / "d12.csv"
        write_samples(samples, TABLE1_D12)
        profile_path = tmp_path / "d12.profile"
        assert main(["fit", str(samples), "--degree", "5", "--pair-id", "d12",
                     "--out", str(profile_path)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("max_err_deg=")
        assert float(printed.split("=")[1]) <= 1.1
        loaded = load_profile(str(profile_path))
        assert loaded.pair_id == "d12"

    def test_fit_exact_quintic(self, tmp_path, capsys):
        coeffs = (-114.203, 199.396, -228.453, 164.691, -55.965, 7.245)
        def f(v):
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * v + c
            return acc
        volts = [0.25, 0.6, 1.0, 1.4, 1.8, 2.2, 2.5, 2.8]
        samples = tmp_path / "exact.csv"
        write_samples(samples, [(f(v), v) for v in volts])
        assert main(["fit", str(samples), "--out", str(tmp_path / "p.profile")]) == 0
        assert float(capsys.readouterr().out.split("=")[1]) <= 1e-6

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("theta_deg,voltage_v,power_dbm\n0,1.5,-20\nnope,2,-20\n")
        assert main(["fit", str(bad), "--out", str(tmp_path / "p.profile")]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_non_finite_power_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("theta_deg,voltage_v,power_dbm\n0,1.5,-20\n10,1.7,nan\n")
        assert main(["fit", str(bad), "--out", str(tmp_path / "p.profile")]) == 2
        assert "line 3: power_dbm" in capsys.readouterr().err

    def test_empty_file_is_io_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["fit", str(empty), "--out", str(tmp_path / "p.profile")]) == 2

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["fit", str(tmp_path / "nope.csv"), "--out", "-"]) == 2

    def test_file_is_read_before_the_frequency_is_checked(self, tmp_path):
        assert main(["fit", str(tmp_path / "nope.csv"), "--freq-ghz", "0", "--out", "-"]) == 2

    def test_stdout_profile_loads_bit_exact(self, tmp_path, capsys):
        samples = tmp_path / "d12.csv"
        write_samples(samples, TABLE1_D12)
        path = tmp_path / "d12.profile"
        assert main(["fit", str(samples), "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["fit", str(samples), "--out", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("max_err_deg=")
        from_stdout = load_profile(io.StringIO(captured.out))
        assert repr(dataclasses.astuple(from_stdout)) == repr(dataclasses.astuple(load_profile(path)))


class TestDecide:
    def test_escape_snapshot(self, capsys):
        assert main(["decide", "0.72", "0.53", "-1.08"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("2b,YAWL60")

    def test_hold(self, capsys):
        assert main(["decide", "0", "0", "0"]) == 0
        assert capsys.readouterr().out.strip().endswith("HOLD")

    def test_tracking_snapshot(self, capsys):
        assert main(["decide", "--", "-0.38", "1.00", "0.69"]) == 0
        assert capsys.readouterr().out.strip().endswith("1a,ROTR1;FWD1")

    def test_non_numeric_is_usage_error(self, capsys):
        assert main(["decide", "a", "0", "0"]) == 1

    def test_nan_rejected(self):
        assert main(["decide", "nan", "0", "0"]) == 1


class TestSimulate:
    def test_reference_run(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--landing-phi", "-35", "--landing-r", "100",
                     "--out", str(out)]) == 0
        assert "converged" in capsys.readouterr().out
        rows = read_csv(out)
        assert rows[0]["maneuvers"] == "YAWL60"
        assert rows[0]["sector"] == "2b"

    def test_nadir_run_holds_all_the_way(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--landing-r", "0", "--landing-phi", "0",
                     "--start-z", "50", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert all(r["maneuvers"] == "HOLD" for r in rows)

    def test_start_outside_cone(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--landing-r", "250", "--landing-phi", "90",
                     "--start-z", "300", "--out", str(out)])
        assert code == 3
        assert "non-ambiguous" in capsys.readouterr().err
        # partial log still written (header only)
        assert out.read_text().splitlines()[0].startswith("iter,")

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--landing-phi", "120", "--landing-r", "40", "--start-z", "200"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_named_builtin_profiles(self, tmp_path):
        assert main(["simulate", "--profile", "table2-d12,table2-d23,table2-d31",
                     "--landing-r", "20", "--landing-phi", "10", "--start-z", "80",
                     "--out", str(tmp_path / "t.csv")]) == 0

    def test_profile_items_are_stripped(self, tmp_path):
        spaced, table2 = tmp_path / "spaced.csv", tmp_path / "table2.csv"
        assert main(["simulate", "--profile", "table2-d12, table2-d23, table2-d31",
                     "--out", str(spaced)]) == 0
        assert main(["simulate", "--profile", "table2", "--out", str(table2)]) == 0
        assert spaced.read_bytes() == table2.read_bytes()

    @pytest.mark.parametrize("field,value", [("a0", "nan"), ("max_err_deg", "nan"),
                                             ("frequency_hz", "-5")])
    def test_malformed_profile_file_is_io_error(self, tmp_path, field, value):
        path = tmp_path / "d31.profile"
        save_profile(TABLE2_D31, path)
        path.write_text("".join(f"{field} = {value}\n" if line.startswith(f"{field} =") else line
                                for line in path.read_text().splitlines(keepends=True)))
        assert main(["simulate", "--profile", f"table2-d12,table2-d23,{path}",
                     "--out", str(tmp_path / "t.csv")]) == 2

    def test_incomplete_profile_set_is_usage_error(self, tmp_path):
        assert main(["simulate", "--profile", "table2-d12,table2-d23",
                     "--out", str(tmp_path / "t.csv")]) == 1

    @staticmethod
    def d12_at_5_8_ghz(tmp_path):
        path = tmp_path / "d12-5.8.profile"
        save_profile(dataclasses.replace(TABLE2_D12, frequency_hz=5.8e9), path)
        return path

    def test_pair_given_twice_is_usage_error(self, tmp_path, capsys):
        path = self.d12_at_5_8_ghz(tmp_path)
        assert main(["simulate", "--profile", f"table2-d12,table2-d23,table2-d31,{path}",
                     "--out", str(tmp_path / "t.csv")]) == 1
        assert "more than one profile for pair d12" in capsys.readouterr().err

    def test_profiles_at_different_frequencies_are_usage_error(self, tmp_path, capsys):
        path = self.d12_at_5_8_ghz(tmp_path)
        assert main(["simulate", "--profile", f"{path},table2-d23,table2-d31",
                     "--out", str(tmp_path / "t.csv")]) == 1
        assert "disagree on frequency" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["calibrated", "ideal-sine"])
    def test_profiles_at_different_frequencies_are_usage_error_in_every_mode(self, tmp_path,
                                                                           capsys, mode):
        # every mode runs at the profiles' frequency, so a mixed set has none to run at
        path = tmp_path / "d31-5.8.profile"
        save_profile(dataclasses.replace(TABLE2_D31, frequency_hz=5.8e9), path)
        assert main(["simulate", "--mode", mode, "--profile", f"table2-d12,table2-d23,{path}",
                     "--out", str(tmp_path / "t.csv")]) == 1
        assert "error: profile d31 and rf disagree on frequency" in capsys.readouterr().err

    @pytest.mark.parametrize("selector", [",", " , ,"])
    def test_no_profile_is_usage_error_naming_d12(self, tmp_path, capsys, selector):
        assert main(["simulate", "--profile", selector, "--out", str(tmp_path / "t.csv")]) == 1
        assert "error: calibration profiles need a d12 profile" in capsys.readouterr().err

    def test_bare_pair_name_is_not_a_builtin(self, tmp_path):
        # only the table2-* names select built-in profiles; 'd12' is a file path
        assert main(["simulate", "--profile", "d12,table2-d23,table2-d31",
                     "--out", str(tmp_path / "t.csv")]) == 2

    def test_frequency_comes_from_the_profiles(self, tmp_path):
        assert main(["simulate", "--freq-ghz", "5.8", "--out", str(tmp_path / "t.csv")]) == 1


def saved_d31(edit):
    """The built-in d31 profile as save_profile writes it (12 lines), then edited."""
    buf = io.StringIO()
    save_profile(TABLE2_D31, buf)
    return edit(buf.getvalue())


HEADER = "theta_deg,voltage_v,power_dbm\n"
MEASURED = HEADER + "".join(f"{t},{v},-20\n" for t, v in TABLE1_D12)

# command, the text of the file it reads, more options, exit code, and what stderr must hold:
# each branch of the profile reader, the measurement reader, the fit and the ray scan that
# rejects or skips an input
INPUT_BRANCHES = [
    pytest.param("simulate", saved_d31(lambda t: t + "v_hi 2.9\n"), [], 2,
                 "line 13: expected 'key = value'", id="profile-line-without-equals"),
    pytest.param("simulate", saved_d31(lambda t: "# d31\n\n" + t + "  # end\n"), [], 0, "",
                 id="profile-comment-and-blank-lines"),
    pytest.param("simulate", saved_d31(lambda t: t + "v_hi = 2.9\n"), [], 2,
                 "line 13: repeated key 'v_hi'", id="profile-repeated-key"),
    pytest.param("simulate", saved_d31(lambda t: t + "typo_key = 1\n"), [], 2,
                 "line 13: unknown key 'typo_key'", id="profile-unknown-key"),
    pytest.param("simulate", saved_d31(lambda t: "# d31, mesur\xe9\n" + t).encode("latin-1"),
                 [], 2, "not UTF-8 text at byte 0xe9", id="profile-latin-1-comment"),
    pytest.param("simulate", saved_d31(lambda t: t.replace("= d31", "= d99")), [], 2,
                 "pair_id must be one of", id="profile-unknown-pair"),
    pytest.param("simulate", saved_d31(lambda t: t.replace("v_lo = ", "v_lo = 3.0 #")), [], 2,
                 "need v_lo < v_hi", id="profile-empty-interval"),
    pytest.param("simulate", saved_d31(lambda t: t.replace("v_ref = ", "v_ref = 2.5 #")), [], 3,
                 "d31: phase at v_ref is", id="profile-reference-off-zero"),
    pytest.param("fit", "theta,volts,power\n0,1.5,-20\n", [], 2,
                 "line 1: expected header", id="csv-wrong-header"),
    pytest.param("fit", MEASURED + "10,1.7\n", [], 2,
                 "line 8: expected 3 fields, got 2", id="csv-two-fields"),
    pytest.param("fit", MEASURED.encode() + b"10,1.7\xff,-20\n", [], 2,
                 "not UTF-8 text at byte 0xff", id="csv-byte-0xff"),
    pytest.param("fit", HEADER + f'"{"1" * 140_000}",1.5,-20\n', [], 2,
                 "line 2: field larger than field limit", id="csv-field-over-limit"),
    pytest.param("fit", HEADER, [], 2,
                 "no measurement rows found", id="csv-header-only"),
    pytest.param("fit", MEASURED.replace("\n0,", "\n\n  \n0,", 1), [], 0, "",
                 id="csv-blank-rows"),
    pytest.param("fit", MEASURED, ["--degree", "6"], 1,
                 "degree must be an integer in [1, 5]", id="fit-degree-6"),
    pytest.param("fit", HEADER + "".join(f"{t},0,-20\n" for t in range(-50, 60, 10)), [], 3,
                 "degenerate design matrix", id="fit-all-zero-volts"),
    pytest.param("fit", HEADER + "".join(f"{t},{1 + t / 100},-20\n" for t in range(10, 80, 10)),
                 [], 3, "no zero crossing", id="fit-no-zero-crossing"),
    # reads no file: at 0.5 GHz and z = 1 cm, max|phase| falls along the phi = 0 ray
    pytest.param("cone", "", ["--z-cm", "1", "--theta-limit", "40", "--freq-ghz", "0.5",
                              "--n-azimuths", "2"], 3,
                 "error: max|phase| not monotone along the ray at r=6.3 cm; cannot bracket",
                 id="cone-non-monotone-ray"),
]


@pytest.mark.parametrize("command,text,options,code,message", INPUT_BRANCHES)
def test_input_branch_exit_code(tmp_path, capsys, command, text, options, code, message):
    path = tmp_path / "input"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = {"fit": ["fit", str(path)], "cone": ["cone"],
            "simulate": ["simulate", "--profile", f"table2-d12,table2-d23,{path}",
                         "--max-iterations", "3"]}[command]
    assert main([*argv, *options, "--out", str(tmp_path / "out")]) == code
    assert message in capsys.readouterr().err


class TestOutputDigests:
    """Default CLI outputs are pinned byte for byte."""

    DIGESTS = {
        "sweep": "4f5a4f45f3023195a47a86e5e38d0ab1ab08ec6f0f14fe9d33a98ccb0cd684af",
        "cone": "73854bd47c4e49822eed5ace1d67a75f0ac27177556e88fd72c6658902a1d34f",
        "simulate": "5f7d28d5334d8dc06a60caaa1a1f68fe7596565bd2392314b5d46c2c155bd134",
        "simulate --mode ideal-sine --landing-r 40 --start-z 200":
            "3f175efbe1f00c4806a29b33e542045eb4bd65b70805069e47c6273784f509c2",
        "simulate --mode triangular --landing-r 40 --start-z 200":
            "86b6a3428f216013313dc36d145a756da7e6717988b95852a5419b4b4f15c59d",
        "cone --z-cm 150,537.2 --theta-limit 80 --freq-ghz 2.46":
            "4bc5f55ece3382b981df830c47abe5b74c31c61e54cd1a76ebba20f45dd54928",
        "cone --z-cm 333 --theta-limit 45 --spacing-cm 5 --n-azimuths 36":
            "59c2b2d17e22bdc0bbaf7484b1af8e3df1aa43c0e64fa3427be109a8e9b00f42",
    }

    @pytest.mark.parametrize("command", sorted(DIGESTS))
    def test_file_output(self, tmp_path, command):
        out = tmp_path / "out.csv"
        assert main(command.split() + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[command]

    @pytest.mark.parametrize("command", ["sweep", "cone", "simulate"])
    def test_stdout_output(self, capsys, command):
        assert main([command, "--out", "-"]) == 0
        data = capsys.readouterr().out.encode()
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[command]

    def test_no_parsed_value_carries_over_between_calls(self, tmp_path):
        # the parser is built once per process; each call must see only its own arguments
        for command in ("cone --z-cm 333 --theta-limit 45 --spacing-cm 5 --n-azimuths 36",
                        "sweep", "cone"):
            out = tmp_path / "out.csv"
            assert main(command.split() + ["--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[command]


# command, option, the library parameter that checks it, and its domain: "finite" takes
# -1, 0 and 2.5, "positive" only 2.5, ">= 0" also 0, and "count" none of the bad values
NUMERIC_OPTIONS = [
    *((cmd, opt, name, "positive") for cmd in ("sweep", "cone")
      for opt, name in (("--freq-ghz", "frequency_hz"), ("--spacing-cm", "spacing_cm"))),
    ("sweep", "--r-cm", "r_cm", ">= 0"),
    ("sweep", "--z-cm", "z_cm", "positive"),
    ("sweep", "--n", "n_samples", "count"),
    ("cone", "--theta-limit", "theta_limit_deg", "positive"),
    ("cone", "--z-cm", "z", "positive"),
    ("cone", "--n-azimuths", "n_azimuths", "count"),
    ("fit", "--degree", "degree", "count"),
    ("fit", "--freq-ghz", "frequency_hz", "positive"),
    *(("decide", v, v, "finite") for v in ("v12", "v23", "v31")),
    *((cmd, opt, name, "positive") for cmd in ("decide", "simulate")
      for opt, name in (("--hold-threshold", "hold_threshold_v"),
                        ("--rotate-step", "rotate_step_deg"), ("--move-step", "move_step_cm"))),
    ("simulate", "--spacing-cm", "spacing_cm", "positive"),
    ("simulate", "--start-x", "x", "finite"),
    ("simulate", "--start-y", "y", "finite"),
    ("simulate", "--start-z", "z", "positive"),
    ("simulate", "--heading", "heading_deg", "finite"),
    ("simulate", "--landing-r", "r_cm", ">= 0"),
    ("simulate", "--landing-phi", "phi_deg", "finite"),
    ("simulate", "--descent-step", "descent_step_cm", "positive"),
    ("simulate", "--min-height", "min_height_cm", "positive"),
    ("simulate", "--max-iterations", "max_iterations", "count"),
]
BAD_NUMBERS = ["nan", "inf", "-1", "0", "abc", "2.5", "1e400", ","]
ACCEPTED = {"finite": {"-1", "0", "2.5"}, "positive": {"2.5"}, ">= 0": {"0", "2.5"},
            "count": set()}


@pytest.mark.parametrize("value", BAD_NUMBERS)
@pytest.mark.parametrize("command,option,name,domain", NUMERIC_OPTIONS,
                         ids=[f"{cmd}-{opt.lstrip('-')}" for cmd, opt, _, _ in NUMERIC_OPTIONS])
def test_bad_number_exit_code_names_the_parameter(tmp_path, capsys, command, option, name,
                                                  domain, value):
    out = str(tmp_path / "out")
    if command == "decide":
        volts = {"v12": "0", "v23": "0", "v31": "0"}
        if option in volts:
            volts[option] = value
            argv = ["decide", "--", *volts.values()]
        else:
            argv = ["decide", option, value, "0", "0", "0"]
    else:
        samples = tmp_path / "d12.csv"
        write_samples(samples, TABLE1_D12)
        base = {"sweep": ["--n", "3"], "cone": ["--z-cm", "100", "--n-azimuths", "2", "--theta-limit", "30"],
                "fit": [str(samples)], "simulate": ["--landing-r", "0", "--max-iterations", "3"]}
        argv = [command, *base[command], option, value, "--out", out]
    accepted = value in ACCEPTED[domain]
    assert main(argv) == (0 if accepted else 1)
    err = capsys.readouterr().err
    if accepted:
        return
    if (command, option, value) == ("cone", "--z-cm", ","):  # a list of no heights
        assert "error: z_list must hold at least one height" in err
        return
    try:
        (int if domain == "count" else float)(value)
    except ValueError:  # argparse rejects the text, naming the option
        assert f"argument {option}: invalid" in err
    else:  # the library rejects the number, naming its parameter
        assert f"error: {name} must" in err or f"error: position.{name} must" in err


class TestParsing:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command", ["sweep", "cone", "simulate"])
    def test_wave_speed_is_not_an_option(self, tmp_path, capsys, command):
        # the propagation speed is the speed of light, not a setting
        assert main([command, "--wave-speed", "3e8", "--out", str(tmp_path / "x.csv")]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_negative_spacing_rejected(self, tmp_path):
        assert main(["sweep", "--spacing-cm", "-7", "--out", str(tmp_path / "x.csv")]) == 1

    def test_infinite_voltage_rejected(self):
        assert main(["decide", "inf", "0", "0"]) == 1


# Run in a fresh interpreter, since this test process has numpy loaded.  argv: the source
# directory, then the command that should load numpy.  Prints whether numpy was loaded
# after the guidance path and after that command.
NUMPY_PROBE = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
import triphase
from triphase import cli, detector, geometry, simulator
geom, rf = geometry.receiver_points(7.0), geometry.RFConfig(2.46e9)
profiles = detector.builtin_profile_set()
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    codes = [cli.main(["simulate"]), cli.main(["decide", "0.72", "0.53", "-1.08"]),
             cli.main(["sweep"])]
    simulator.sense(simulator.DroneState(geometry.Vector3(0.0, 0.0, 300.0)),
                    geometry.Vector3(50.0, 20.0, 0.0), geom, rf, profiles)
    simulator.worst_case_transect(300.0, 100.0, geom, rf, profiles, n_samples=11)
    geometry.nonambiguous_range(300.0, 0.0, 80.0, geom, rf)
    buf = io.StringIO()
    detector.save_profile(detector.TABLE2_D12, buf)
    detector.load_profile(io.StringIO(buf.getvalue()))
    guidance_path = "numpy" in sys.modules
    codes.append(cli.main(sys.argv[2:]))
print(json.dumps([codes, guidance_path, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("command", [["cone", "--z-cm", "100"], ["fit", "samples.csv"]],
                         ids=["cone", "fit"])
def test_only_cone_and_fit_load_numpy(tmp_path, command):
    (tmp_path / "samples.csv").write_text(MEASURED)
    src = str(Path(triphase.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", NUMPY_PROBE, src, *command], cwd=tmp_path,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert json.loads(out) == [[0, 0, 0, 0], False, True]
