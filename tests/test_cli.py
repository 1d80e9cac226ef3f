import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triphase
from triphase import geometry
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

    def test_frequency_reaches_the_library_in_hertz(self, tmp_path, monkeypatch):
        # a 1 Hz error moves no radius by a printed digit, so the call itself is checked
        seen = []
        cone_profile = geometry.cone_profile
        monkeypatch.setattr(geometry, "cone_profile",
                            lambda *args: seen.append(args[3].frequency_hz) or cone_profile(*args))
        assert main(["cone", "--freq-ghz", "2.45", "--z-cm", "100", "--n-azimuths", "4",
                     "--out", str(tmp_path / "cone.csv")]) == 0
        assert seen == [2.45e9]


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

    @pytest.mark.parametrize("options,frequency_hz", [
        ([], 2.46e9),
        (["--freq-ghz", "2.45"], 2.45e9),
    ], ids=["default", "2.45"])
    def test_profile_stores_the_frequency_in_hertz(self, tmp_path, options, frequency_hz):
        samples, path = tmp_path / "d12.csv", tmp_path / "d12.profile"
        write_samples(samples, TABLE1_D12)
        assert main(["fit", str(samples), *options, "--out", str(path)]) == 0
        assert load_profile(path).frequency_hz == frequency_hz

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

    @pytest.mark.parametrize("options,summary", [
        ([], "converged: first hold at iteration 101; touchdown at (-56.85, 81.14) cm; "
             "horizontal error 0.92 cm in 300 iterations"),
        (["--max-iterations", "50"],
         "non-converged after 50 iterations (horizontal error 51.92 cm)"),
    ], ids=["converged", "budget"])
    def test_summary_line(self, tmp_path, capsys, options, summary):
        assert main(["simulate", "--landing-phi", "-35", "--landing-r", "100", *options,
                     "--out", str(tmp_path / "traj.csv")]) == 0
        assert capsys.readouterr().out == summary + "\n"

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

    def test_beacon_too_far_to_resolve_is_usage_error(self, tmp_path, capsys):
        # it read as centred and converged with a 1e17 cm horizontal error, exiting 0
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--landing-r", "1e17", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: beacon too far to resolve: up to ")
        assert captured.err.count("\n") == 1 and captured.out == "" and not out.exists()

    def test_sweep_of_a_beacon_too_far_to_resolve_is_usage_error(self, tmp_path, capsys):
        # it printed 0.000000 for every phase and exited 0
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--r-cm", "1e17", "--n", "3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: beacon too far to resolve: up to 1e+17 cm from the drone\n"
        assert captured.out == "" and not out.exists()

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
# v**5 overflows a float at these voltages
OVERFLOWING = HEADER + "".join(f"{-60 + 10 * i},{i + 1}e100,-20\n" for i in range(13))


def linear_d31(v_lo, v_hi):
    """A d31 profile of 1 deg per volt through 0 V on [v_lo, v_hi]."""
    return ("pair_id = d31\na0 = 0.0\na1 = 1.0\na2 = 0.0\na3 = 0.0\na4 = 0.0\na5 = 0.0\n"
            f"v_ref = 0.0\nv_lo = {v_lo!r}\nv_hi = {v_hi!r}\nmax_err_deg = 0.0\n"
            "frequency_hz = 2460000000.0\n")


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
    pytest.param("simulate", b"\xef\xbb\xbf" + saved_d31(lambda t: t).encode(), [], 0, "",
                 id="profile-utf-8-bom"),
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
    pytest.param("fit", MEASURED + "10\n", [], 2,
                 "line 8: expected 3 fields, got 1", id="csv-one-field"),
    pytest.param("fit", MEASURED.encode() + b"10,1.7\xff,-20\n", [], 2,
                 "not UTF-8 text at byte 0xff", id="csv-byte-0xff"),
    pytest.param("fit", HEADER + f'"{"1" * 140_000}",1.5,-20\n', [], 2,
                 "line 2: field larger than field limit", id="csv-field-over-limit"),
    pytest.param("fit", HEADER, [], 2,
                 "no measurement rows found", id="csv-header-only"),
    pytest.param("fit", MEASURED.replace("\n0,", "\n\n  \n0,", 1), [], 0, "",
                 id="csv-blank-rows"),
    pytest.param("fit", b"\xef\xbb\xbf" + MEASURED.encode(), [], 0, "", id="csv-utf-8-bom"),
    pytest.param("fit", MEASURED, ["--degree", "6"], 1,
                 "degree must be an integer in [1, 5]", id="fit-degree-6"),
    pytest.param("fit", HEADER + "".join(f"{t},0,-20\n" for t in range(-50, 60, 10)), [], 3,
                 "degenerate design matrix", id="fit-all-zero-volts"),
    pytest.param("fit", OVERFLOWING, [], 3,
                 "error: sample voltages up to 1.3e+101 V overflow the degree-5 design matrix",
                 id="fit-overflowing-volts"),
    pytest.param("simulate", linear_d31(-1e308, 1e308), [], 2,
                 "need v_lo < v_hi within +-8.98847e+307 V", id="profile-interval-overflows"),
    pytest.param("fit", HEADER + "".join(f"{t},{1 + t / 100},-20\n" for t in range(10, 80, 10)),
                 [], 3, "does not rise through 0 deg on [v_lo, v_hi]: +10.00 deg at 1.100 V, "
                 "+70.00 deg at 1.700 V", id="fit-no-zero-crossing"),
    pytest.param("fit", HEADER + "".join(f"{t},{1 - t / 100},-20\n" for t in range(-10, 50, 10)),
                 [], 3, "does not rise through 0 deg on [v_lo, v_hi]: +40.00 deg at 0.600 V, "
                 "-10.00 deg at 1.100 V", id="fit-falling-voltage"),
    pytest.param("fit", HEADER + "".join(f"{t},{1 + t / 100},-20\n" for t in range(-70, 0, 10)),
                 [], 3, "does not rise through 0 deg on [v_lo, v_hi]: -70.00 deg at 0.300 V, "
                 "-10.00 deg at 0.900 V", id="fit-below-zero"),
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


def test_a_profile_over_huge_voltages_synthesizes_finite_voltages(tmp_path, capsys):
    path = tmp_path / "d31.profile"
    path.write_text(linear_d31(-1e200, 1e200))
    assert main(["simulate", "--profile", f"table2-d12,table2-d23,{path}",
                 "--max-iterations", "3", "--out", "-"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3 and all(math.isfinite(float(row["v31"])) for row in rows)


def test_fit_on_overflowing_voltages_prints_one_error_line(tmp_path):
    (tmp_path / "samples.csv").write_text(OVERFLOWING)
    src = str(Path(triphase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "triphase.cli", "fit", "samples.csv"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == ("error: sample voltages up to 1.3e+101 V overflow the degree-5 "
                           "design matrix\n")


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
        # a 10 m landing near the paper's cone edge: 999 cycles, 569 of them holds
        "simulate --start-z 1000 --landing-r 400 --landing-phi 25 --heading 40":
            "617709bb4a0b696a02d253492b8a05108a99ee6a45793162f2e1957f599cfa21",
        # guidance steps other than 1: 300 cycles, one escape yaw, first hold at 200
        "simulate --rotate-step 2.5 --move-step 0.5 --hold-threshold 0.03":
            "27fd1a67900dcf7f7f4ad511d4ee7cbcc639aa5c342dff5f31caa9df86daa9d4",
        # a threshold without guarded edges (detector._NO_EDGES): 300 cycles, never converges
        "simulate --hold-threshold 1e-6":
            "0352607a645caa233f6d667050bc6a95e7c6e2bb67d14b98717ec1e23bac1c56",
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

    def test_no_interval_source_carries_over_between_thresholds(self, tmp_path):
        # the built-in profiles live as long as the process, and with them whatever a run
        # builds for each hold threshold
        for command in ("simulate --rotate-step 2.5 --move-step 0.5 --hold-threshold 0.03",
                        "simulate", "simulate --hold-threshold 1e-6", "simulate"):
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

    @pytest.mark.parametrize("text", ["-3e-2", "-3E-2", "-0.3e-1", "-.3e-1"])
    def test_negative_number_in_any_float_syntax_is_a_value(self, capsys, text):
        assert main(["decide", "0.01", "0.5", "-0.03"]) == 0
        want = capsys.readouterr().out
        assert main(["decide", "0.01", "0.5", text]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("text,shown", [("-inf", "-inf"), ("-Infinity", "-inf"),
                                            ("-nan", "nan"), ("-NaN", "nan")])
    def test_negative_non_finite_names_the_parameter(self, capsys, text, shown):
        assert main(["decide", "0.01", "0.5", text]) == 1
        assert capsys.readouterr().err == f"error: v31 must be a finite number, got {shown}\n"

    @pytest.mark.parametrize("out", ["file", "-"])
    def test_negative_exponent_option_value_matches_the_default(self, tmp_path, capsys, out):
        # the default --landing-phi is -35; --out - still means stdout
        path = tmp_path / "out.csv"
        assert main(["simulate", "--landing-phi", "-3.5e1",
                     "--out", str(path) if out == "file" else "-"]) == 0
        data = path.read_bytes() if out == "file" else capsys.readouterr().out.encode()
        assert hashlib.sha256(data).hexdigest() == TestOutputDigests.DIGESTS["simulate"]

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--r-cm", "-1e1"], "error: r_cm must be >= 0, got -10.0"),
        (["cone", "--z-cm", "-1e1"], "error: z must be > 0, got -10.0"),
        (["simulate", "--landing-r", "-inf"], "error: r_cm must be a finite number, got -inf"),
    ])
    def test_negative_option_value_reaches_the_library(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.strip() == message


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
             cli.main(["sweep"]), cli.main(["cone", "--z-cm", "100"])]
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


def test_only_fit_loads_numpy(tmp_path):
    (tmp_path / "samples.csv").write_text(MEASURED)
    src = str(Path(triphase.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", NUMPY_PROBE, src, "fit", "samples.csv"],
                         cwd=tmp_path, capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert json.loads(out) == [[0, 0, 0, 0, 0], False, True]


def test_simulate_output_does_not_depend_on_the_hash_seed(tmp_path):
    # str hashing differs per process under PYTHONHASHSEED; no byte of a run may follow it
    src = str(Path(triphase.__file__).resolve().parents[1])
    argv = ["simulate", "--landing-r", "150", "--landing-phi", "120", "--heading", "33",
            "--start-z", "500"]
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        outputs.append(subprocess.run([sys.executable, "-m", "triphase.cli", *argv], cwd=tmp_path,
                                      env=env, capture_output=True, check=True,
                                      timeout=60).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"iter,x_cm,") and outputs[0].count(b"\n") == 501


# argv, exit code and stdout of `python -m triphase.cli` in a fresh interpreter: the code
# the process exits with, which the in-process calls of main above never reach
PROCESS_EXITS = [
    pytest.param(["decide", "0.72", "0.53", "-1.08"], 0, "0.72,0.53,-1.08,2b,YAWL60\n",
                 id="success"),
    pytest.param(["decide", "0.72", "0.53"], 1, "", id="usage"),
    pytest.param(["fit", "missing.csv"], 2, "", id="io"),
    pytest.param(["cone", "--spacing-cm", "1", "--z-cm", "100", "--n-azimuths", "1"], 3, "",
                 id="numerical"),
]


@pytest.mark.parametrize("argv,code,stdout", PROCESS_EXITS)
def test_process_exit_code(tmp_path, argv, code, stdout):
    src = str(Path(triphase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "triphase.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (code, stdout)
    if code:  # every failure prints one line on stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    else:
        assert done.stderr == ""
