"""Command-line contract: exit codes, output formats, reproducibility."""

import contextlib
import io
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sqzsim.simulate
from sqzsim import HomodyneTrace, data_path, parse
from sqzsim.cli import _COMMANDS, _flags, main

CHIP = data_path("paper_chip.nl")
SRC = str(Path(sqzsim.__file__).resolve().parent.parent)


@pytest.fixture
def chip_file(tmp_path):
    target = tmp_path / "paper_chip.nl"
    shutil.copy(str(CHIP), target)
    return target


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "phase_rad,variance_db"
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def test_validate_ok(chip_file, capsys):
    assert main(["validate", str(chip_file)]) == 0
    assert "OK" in capsys.readouterr().out


def test_netlist_with_a_byte_order_mark_is_the_same_netlist(tmp_path, capsys):
    # some editors start every UTF-8 file with one
    plain = CHIP.read_bytes()
    assert parse(b"\xef\xbb\xbf" + plain) == parse(plain)
    bom = tmp_path / "bom.nl"
    bom.write_bytes(b"\xef\xbb\xbf" + plain)
    assert main(["validate", str(bom)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_reports_position_and_kind(tmp_path, capsys):
    bad = tmp_path / "bad.nl"
    bad.write_text("modes: sig\nloss sig eta=1.2\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4\n")
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "out-of-range" in err and "line 2" in err


def test_validate_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.nl")]) == 3
    assert "error" in capsys.readouterr().err


def test_simulate_noiseless_artifacts(chip_file, tmp_path, capsys):
    csv = tmp_path / "trace.csv"
    report_path = tmp_path / "report.json"
    code = main(["simulate", str(chip_file), "--noiseless",
                 "--csv", str(csv), "--report", str(report_path)])
    assert code == 0
    data = read_csv(csv)
    assert data.shape == (720, 2)
    assert data[:, 1].min() == pytest.approx(-2.00, abs=0.01)
    assert data[:, 1].max() == pytest.approx(2.80, abs=0.01)
    report = json.loads(report_path.read_text())
    assert report["eta_total"] == pytest.approx(0.70807148552448, rel=1e-9)
    assert report["budget"]["fresnel"] == 0.85777
    assert report["unc_db"] == 0.0
    out = capsys.readouterr().out
    assert "wrote" in out


def test_simulate_seeded_runs_are_byte_identical(chip_file, tmp_path):
    pairs = []
    for tag in ("a", "b"):
        csv = tmp_path / f"{tag}.csv"
        rep = tmp_path / f"{tag}.json"
        assert main(["simulate", str(chip_file), "--seed", "1",
                     "--csv", str(csv), "--report", str(rep)]) == 0
        pairs.append((csv.read_bytes(), rep.read_bytes()))
    assert pairs[0] == pairs[1]
    # and a different seed gives a different trace
    csv = tmp_path / "c.csv"
    rep = tmp_path / "c.json"
    assert main(["simulate", str(chip_file), "--seed", "2",
                 "--csv", str(csv), "--report", str(rep)]) == 0
    assert csv.read_bytes() != pairs[0][0]


def test_simulate_noisy_report_carries_model_extrema(chip_file, tmp_path):
    rep = tmp_path / "r.json"
    assert main(["simulate", str(chip_file), "--seed", "9",
                 "--csv", str(tmp_path / "t.csv"), "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    # extrema are read from the smoothed model, not the noisy samples
    assert report["raw_sq_db"] == pytest.approx(-2.00, abs=0.01)
    assert report["raw_asq_db"] == pytest.approx(2.80, abs=0.01)
    assert report["unc_db"] == pytest.approx(np.sqrt(2 * 30 / 1e5) * 10 / np.log(10), rel=1e-9)


def test_simulate_requires_seed_unless_noiseless(chip_file, tmp_path, capsys):
    assert main(["simulate", str(chip_file),
                 "--csv", str(tmp_path / "t.csv"), "--report", str(tmp_path / "r.json")]) == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_rejects_negative_seed(chip_file, tmp_path, capsys):
    assert main(["simulate", str(chip_file), "--seed", "-1",
                 "--csv", str(tmp_path / "t.csv"), "--report", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "t.csv").exists()


def test_simulate_vacuum_only_netlist_is_flat(tmp_path):
    netlist = tmp_path / "vac.nl"
    netlist.write_text("modes: sig\nhomodyne sig eta_pd=0.9 eta_e=0.9 ratio=0.5 sweep=0:6.283185307179586:16\n")
    csv = tmp_path / "t.csv"
    assert main(["simulate", str(netlist), "--noiseless",
                 "--csv", str(csv), "--report", str(tmp_path / "r.json")]) == 0
    data = read_csv(csv)
    assert np.allclose(data[:, 1], 0.0, atol=1e-12)


def test_simulate_rejects_invalid_netlist(tmp_path, capsys):
    bad = tmp_path / "bad.nl"
    bad.write_text("modes: sig\n")
    assert main(["simulate", str(bad), "--noiseless",
                 "--csv", str(tmp_path / "t.csv"), "--report", str(tmp_path / "r.json")]) == 2
    assert "missing-measurement" in capsys.readouterr().err


def test_simulate_loss_before_squeezer_is_infeasible(tmp_path, capsys):
    # eta_total counts the loss although it acts on vacuum, so the inversion
    # sees the squeezed variance below its loss floor
    netlist = tmp_path / "early_loss.nl"
    netlist.write_text("modes: sig\nloss sig eta=0.3\nsqueezer sig r=1.2\n"
                       "homodyne sig eta_pd=0.88 eta_e=0.95 ratio=0.5 sweep=0:6.283185307179586:16\n")
    csv = tmp_path / "t.csv"
    assert main(["simulate", str(netlist), "--noiseless",
                 "--csv", str(csv), "--report", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "infeasible" in err
    assert not csv.exists()


def test_simulate_overflowing_report_exits_2(tmp_path, capsys):
    # r=200 on a rotated axis: the trace reaches ~1700 dB and the report's
    # purity product overflows a float
    netlist = tmp_path / "huge.nl"
    netlist.write_text("modes: sig\nsqueezer sig r=200 phase=0.3\n"
                       "homodyne sig eta_pd=0.9 eta_e=0.9 ratio=0.5 sweep=0:3.14:8\n")
    csv = tmp_path / "t.csv"
    assert main(["simulate", str(netlist), "--noiseless",
                 "--csv", str(csv), "--report", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not csv.exists()


def test_simulate_beyond_memory_is_one_error_line(tmp_path):
    # 20 000 modes: the dense vacuum alone is 11.9 GiB, past the child's 2 GiB address space
    resource = pytest.importorskip("resource")
    netlist = tmp_path / "wide.nl"
    netlist.write_text("modes: " + " ".join(f"m{i}" for i in range(20000)) + "\nsqueezer m0 r=0.5\n"
                       "homodyne m0 eta_pd=0.9 eta_e=0.9 ratio=0.5 sweep=0:3:8\n")
    csv = tmp_path / "t.csv"

    def limit_memory():   # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    done = subprocess.run([sys.executable, "-m", "sqzsim.cli", "simulate", str(netlist), "--noiseless",
                           "--csv", str(csv), "--report", str(tmp_path / "r.json")],
                          capture_output=True, text=True, timeout=120, preexec_fn=limit_memory,
                          env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: not enough memory") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert not csv.exists()


def test_simulate_rejects_non_finite_model_trace(chip_file, tmp_path, capsys, monkeypatch):
    real_sweep = sqzsim.simulate.sweep

    def sweep_with_nan(*args):
        trace = real_sweep(*args)
        db = trace.variance_db.copy()
        db[3] = np.nan
        return HomodyneTrace(trace.phases, db)

    monkeypatch.setattr(sqzsim.simulate, "sweep", sweep_with_nan)
    csv = tmp_path / "t.csv"
    assert main(["simulate", str(chip_file), "--noiseless",
                 "--csv", str(csv), "--report", str(tmp_path / "r.json")]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not csv.exists()


@pytest.mark.parametrize("squeezer,message", [
    ("r=400 phase=0.3", "state contains non-finite values"),   # e^800 overflows in apply
    ("r=800", "channel contains non-finite values"),           # e^800 overflows in the block
])
def test_simulate_overflowing_squeezer_is_one_error_line(squeezer, message, tmp_path, capsys):
    netlist = tmp_path / "huge.nl"
    netlist.write_text(f"modes: sig\nsqueezer sig {squeezer}\n"
                       "homodyne sig eta_pd=0.9 eta_e=0.9 ratio=0.5 sweep=0:3.14:8\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy overflow warning would fail here
        assert main(["simulate", str(netlist), "--noiseless", "--csv", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("statements,factor", [
    ("homodyne a eta_pd=0.9 eta_e=0.9 ratio=0 sweep=0:3:8", "coupler_imbalance"),
    ("homodyne a eta_pd=0 eta_e=0.9 ratio=0.5 sweep=0:3:8", "photodiode"),
    ("loss a eta=0 label=facet\nhomodyne a eta_pd=0.9 eta_e=0.9 ratio=0.5 sweep=0:3:8", "facet"),
])
def test_simulate_zero_efficiency_names_the_zero_factor(statements, factor, tmp_path, capsys):
    netlist, csv, report = tmp_path / "zero.nl", tmp_path / "zero.csv", tmp_path / "zero.json"
    netlist.write_text(f"modes: a\nsqueezer a r=0.5\n{statements}\n")
    assert main(["simulate", str(netlist), "--noiseless", "--csv", str(csv), "--report", str(report)]) == 2
    assert not csv.exists() and not report.exists()
    assert capsys.readouterr().err == (f"error: eta_total is 0, so the loss model cannot be inverted: "
                                       f"budget factor(s) {factor} are 0\n")


@pytest.mark.parametrize("missing", ["csv", "report"])
def test_simulate_writes_both_outputs_or_neither(missing, tmp_path, capsys):
    paths = {"csv": tmp_path / "t.csv", "report": tmp_path / "r.json"}
    paths[missing] = tmp_path / "no" / paths[missing].name   # a directory that does not exist
    argv = ["simulate", str(CHIP), "--noiseless", "--csv", str(paths["csv"]), "--report", str(paths["report"])]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: [Errno 2] No such file or directory: '{paths[missing]}'\n"
    assert os.listdir(tmp_path) == []


def test_simulate_leaves_a_csv_it_did_not_create(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("old")
    assert main(["simulate", str(CHIP), "--noiseless", "--csv", str(csv), "--report", str(tmp_path)]) == 3
    assert capsys.readouterr().err.count("\n") == 1
    assert csv.read_text() == "old"
    assert os.listdir(tmp_path) == ["t.csv"]


def test_simulate_keeps_both_old_outputs_when_the_report_cannot_be_opened(tmp_path, capsys):
    (tmp_path / "r.json").mkdir()
    csv = tmp_path / "t.csv"
    csv.write_text("old")
    argv = ["simulate", str(CHIP), "--noiseless", "--csv", str(csv), "--report", str(tmp_path / "r.json")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path / 'r.json'}'\n"
    assert csv.read_text() == "old"
    assert sorted(os.listdir(tmp_path)) == ["r.json", "t.csv"] and os.listdir(tmp_path / "r.json") == []


def test_simulate_outputs_take_their_mode_from_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        assert main(["simulate", str(CHIP), "--noiseless", "--csv", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.json")]) == 0
    finally:
        os.umask(old)
    assert {name: os.stat(tmp_path / name).st_mode & 0o777 for name in os.listdir(tmp_path)} == {
        "t.csv": 0o640, "r.json": 0o640}


def test_simulate_writes_through_a_symlinked_output(tmp_path):
    (tmp_path / "t.csv").symlink_to("target.csv")
    assert main(["simulate", str(CHIP), "--noiseless", "--csv", str(tmp_path / "t.csv"),
                 "--report", str(tmp_path / "r.json")]) == 0
    assert (tmp_path / "t.csv").is_symlink()
    assert (tmp_path / "target.csv").read_text().startswith("phase_rad,variance_db\n")
    assert sorted(os.listdir(tmp_path)) == ["r.json", "t.csv", "target.csv"]


def test_simulate_rewrites_an_existing_output_in_place(tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("old " * 10_000)
    csv.chmod(0o604)
    os.link(csv, tmp_path / "link.csv")
    assert main(["simulate", str(CHIP), "--noiseless", "--csv", str(csv),
                 "--report", str(tmp_path / "r.json")]) == 0
    text = csv.read_text()
    assert text.startswith("phase_rad,variance_db\n") and "old" not in text
    assert (tmp_path / "link.csv").read_text() == text   # still one file, with its own mode
    assert os.stat(csv).st_mode & 0o777 == 0o604 and os.stat(csv).st_nlink == 2
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "r.json", "t.csv"]


def test_simulate_writes_to_a_device_without_renaming_over_it(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError(f"renamed {args}")
    monkeypatch.setattr(os, "replace", refuse)
    monkeypatch.setattr(os, "rename", refuse)
    assert main(["simulate", str(CHIP), "--noiseless", "--csv", str(tmp_path / "t.csv"),
                 "--report", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert os.listdir(tmp_path) == ["t.csv"]


@pytest.mark.parametrize("flag", ["--csv", "--report"])
def test_simulate_will_not_write_over_its_netlist(flag, chip_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = chip_file.read_bytes()
    paths = {"--csv": "t.csv", "--report": "r.json", flag: "./paper_chip.nl"}
    assert main(["simulate", "paper_chip.nl", "--noiseless", *(x for kv in paths.items() for x in kv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {flag} names the netlist 'paper_chip.nl'\n"
    assert chip_file.read_bytes() == before
    assert os.listdir(tmp_path) == ["paper_chip.nl"]


def test_simulate_rejects_one_path_for_both_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", str(CHIP), "--noiseless", "--csv", "t.csv", "--report", "./t.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --csv and --report name the same file './t.csv'\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [["validate"], ["simulate", "--noiseless"]])
def test_an_empty_netlist_path_names_itself(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*command, ""]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: [Errno 2] No such file or directory: ''\n"
    assert os.listdir(tmp_path) == []


def test_analyze_reference_numbers(capsys):
    assert main(["analyze", "--sq-db", "-2.00", "--asq-db", "2.80", "--eta", "0.71"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inferred_sq_db"] == pytest.approx(-3.1856, abs=1e-3)
    assert report["inferred_asq_db"] == pytest.approx(3.5704, abs=1e-3)
    assert report["purity_product"] == pytest.approx(1.0926, abs=1e-3)


def test_analyze_with_budget_flags(capsys):
    assert main(["analyze", "--sq-db", "-2.00", "--asq-db", "2.80",
                 "--eta-fresnel", "0.86", "--eta-filter", "0.99",
                 "--eta-pd", "0.88", "--eta-e", "0.95"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["eta_total"] == pytest.approx(0.7117704, rel=1e-9)
    assert report["budget"]["photodiode"] == 0.88


def test_analyze_zero_is_fixed_point(capsys):
    assert main(["analyze", "--sq-db", "0", "--asq-db", "0", "--eta", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inferred_sq_db"] == pytest.approx(0.0, abs=1e-9)
    assert report["inferred_asq_db"] == pytest.approx(0.0, abs=1e-9)


def test_analyze_infeasible_input(capsys):
    assert main(["analyze", "--sq-db", "-6", "--asq-db", "2", "--eta", "0.2"]) == 2
    assert "infeasible" in capsys.readouterr().err


# (sq_db, asq_db, unc_db, eta) -> what the error names
_ANALYZE_REJECTIONS = {
    # the purity product overflows a float
    ("1700", "1800", "0.05", "0.7"): "purity product of inferred sq/asq 1701.549",
    # the purity product underflows to 0, whose dB would print as -Infinity
    ("-3000", "-3000", "0.05", "1"): "purity product of inferred sq/asq -3000.0/-3000.0 dB underflows",
    # the linear variance overflows and cannot round-trip
    ("3100", "3100", "0.05", "0.7"): "raw_sq_db 3100.0 dB has no finite linear variance",
    # non-finite inputs would print as invalid JSON
    ("nan", "2.8", "0.05", "0.7"): "raw_sq_db nan is not finite",
    ("-2", "inf", "0.05", "0.7"): "raw_asq_db inf is not finite",
    ("-2", "2.8", "nan", "0.7"): "unc_db must be finite",
    ("-2", "2.8", "-1", "0.7"): "unc_db must be finite and >= 0",
    # a finite unc_db whose propagated uncertainty overflows would print as Infinity
    ("-2", "2.8", "1e308", "0.7"): "inferred_sq_unc_db inf is not finite",
    # a total efficiency outside [0, 1] is named by its table entry
    ("-2", "2.8", "0.05", "1.5"): "total must lie in [0, 1], got 1.5",
    ("-2", "2.8", "0.05", "-0.5"): "total must lie in [0, 1], got -0.5",
    ("-2", "2.8", "0.05", "nan"): "total must lie in [0, 1], got nan",
    # the inferred value is so large that the forward model no longer gives the raw one back
    ("2463.4233983981862", "52.091987960641106", "0.05", "1.9714629421149905e-228"):
        "loss-model inversion does not round-trip at 2463.4233983981862 dB",
    # squeezing above antisqueezing: the two values are swapped
    ("3", "-2", "0.05", "0.71"): "raw_sq_db 3.0 dB exceeds raw_asq_db -2.0 dB",
}


@pytest.mark.parametrize("sq_db,asq_db,unc_db,eta", list(_ANALYZE_REJECTIONS))
def test_analyze_out_of_range_values_exit_2(sq_db, asq_db, unc_db, eta, capsys):
    assert main(["analyze", "--sq-db", sq_db, "--asq-db", asq_db, "--unc-db", unc_db,
                 "--eta", eta]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert _ANALYZE_REJECTIONS[sq_db, asq_db, unc_db, eta] in captured.err
    assert captured.out == ""


def test_analyze_overflowing_db_is_one_error_line(capsys):
    # 10**310 is not a double: rejected before any arithmetic, so nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--sq-db", "3100", "--asq-db", "3100", "--eta", "0.7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("flags,message", [
    (["--eta", "0.71", "--eta-fresnel", "0.86"], "give either --eta or the per-factor budget flags"),
    (["--eta", "0.71", "--eta-coupler", "0.9"], "give either --eta or the per-factor budget flags"),
    (["--eta", "0.71", "--eta-visibility", "0.9"], "give either --eta or the per-factor budget flags"),
    (["--eta", "0.71", "--eta-prop", "0.5"], "give either --eta or the per-factor budget flags"),
    (["--eta-fresnel", "0.86", "--eta-filter", "0.99", "--eta-pd", "0.88"],
     "budget flags need --eta-fresnel, --eta-filter, --eta-pd and --eta-e"),
], ids=["mixed", "mixed-coupler", "mixed-visibility", "mixed-prop", "missing-eta-e"])
def test_analyze_rejects_mixed_or_incomplete_budget_flags(flags, message, capsys):
    assert main(["analyze", "--sq-db", "-2", "--asq-db", "2.8", *flags]) == 2
    assert message in capsys.readouterr().err


def test_extrapolate_values(capsys):
    assert main(["extrapolate", "--gain", "0.058014", "--pump-mw", "500", "--eta-eff", "0.95"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(-9.173886173192557, abs=1e-9)
    assert main(["extrapolate", "--gain", "0.058014", "--pump-mw", "0"]) == 0
    assert float(capsys.readouterr().out) == 0.0
    assert main(["extrapolate", "--gain", "0.058014", "--pump-mw", "40", "--eta-eff", "1"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(-3.19, abs=0.01)


def test_calibrate_values(capsys):
    assert main(["calibrate", "--snr-db", "12.8", "--n-chip", "2.211"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0].split()[1]) == pytest.approx(0.9475192539750228, rel=1e-12)
    assert float(lines[1].split()[1]) == pytest.approx(0.8577646076274904, rel=1e-12)
    assert main(["calibrate", "--n-chip", "1.0"]) == 0
    assert float(capsys.readouterr().out.split()[1]) == 1.0
    assert main(["calibrate"]) == 2


# scalar subcommand arguments -> what the one error line names; each printed
# nan, -inf or a traceback before
_SCALAR_REJECTIONS = {
    ("extrapolate", "--gain", "nan", "--pump-mw", "40"): "pump power and gain must be finite",
    ("extrapolate", "--gain", "inf", "--pump-mw", "0"): "pump power and gain must be finite",
    ("extrapolate", "--gain", "1", "--pump-mw", "1e6"): "underflows to 0",
    ("calibrate", "--snr-db", "nan"): "SNR nan dB has no finite linear value",
    ("calibrate", "--snr-db", "inf"): "SNR inf dB has no finite linear value",
    ("calibrate", "--snr-db", "4000"): "SNR 4000.0 dB has no finite linear value",
    ("calibrate", "--n-chip", "nan"): "refractive indices must be positive and finite",
    ("calibrate", "--n-chip", "inf"): "refractive indices must be positive and finite",
    # the one [0, 1] wording, naming the flag's parameter
    ("extrapolate", "--gain", "0.058", "--pump-mw", "40", "--eta-eff", "2"):
        "eta_eff must lie in [0, 1], got 2.0",
    # the eta_e line was printed before the bad index failed
    ("calibrate", "--snr-db", "12.8", "--n-chip", "nan"): "refractive indices must be positive",
}


@pytest.mark.parametrize("argv", list(_SCALAR_REJECTIONS))
def test_scalar_commands_reject_non_finite_results(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy RuntimeWarning would fail here
        assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert _SCALAR_REJECTIONS[argv] in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["analyze", "--sq-db", "-2"], ["extrapolate", "--gain", "1", "--pump", "4"],
    ["extrapolate", "--gain"], ["extrapolate", "--gain", "x", "--pump-mw", "4"],
    ["simulate", str(CHIP), "--seed", "1.5"], ["simulate", str(CHIP), "--noiseless=1"],
    ["simulate", str(CHIP), "--noise"], ["validate"], ["validate", str(CHIP), str(CHIP)],
], ids=["none", "unknown-command", "missing-flag", "unknown-flag", "no-value", "not-a-float",
        "not-an-int", "switch-with-value", "prefix", "missing-positional", "extra-positional"])
def test_bad_arguments_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["--help"], *([command, "-h"] for command in _COMMANDS)],
                         ids=["-h", "--help", *_COMMANDS])
def test_help_names_every_argument_and_exits_0(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if len(argv) == 1:
        names = list(_COMMANDS)
    else:   # the positionals, then the flags
        names = [*(name.upper() for name in _COMMANDS[argv[0]][2]), *_flags(argv[0])]
    assert names and all(name in captured.out.split() for name in names)


def test_flag_values_read_as_written(capsys):
    # the token after a flag is its value, a negative exponent form included
    outs = []
    for argv in (["--sq-db", "-2e0", "--asq-db", "2.8", "--eta", "0.71"],
                 ["--sq-db=-2e0", "--asq-db=2.8", "--eta=0.71"],
                 ["--eta", "0.5", "--asq-db", "2.8", "--sq-db", "-2", "--eta", "0.71"]):
        assert main(["analyze", *argv]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["raw_sq_db"] == -2.0
    assert main(["extrapolate", "--gain", "-1e-3", "--pump-mw", "40"]) == 2
    assert "got 40.0, -0.001" in capsys.readouterr().err


def test_positionals_stand_among_the_flags(tmp_path, capsys):
    csv, report = tmp_path / "trace.csv", tmp_path / "report.json"
    assert main(["simulate", "--noiseless", "--csv", str(csv), str(CHIP), "--report", str(report)]) == 0
    assert csv.exists() and report.exists()
    assert capsys.readouterr().err == ""


# edge values of the scalar commands' float flags, exponent-form negatives among them
_EDGES = st.sampled_from(["0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "2.2e-308", "1e308", "-1e308",
                          "1.7976931348623157e308", "nan", "-nan", "inf", "-inf", "-2e0", "-1e-3", "2.8",
                          "0.71", "1", "-2", "12.8", "2.211", "0.058014", "500"])


def _command(name, *flags):
    """argv for the command `name` with an edge value drawn for each of its flags."""
    return st.tuples(*[_EDGES] * len(flags)).map(
        lambda values: [name, *(token for pair in zip(flags, values) for token in pair)])


_SCALAR_ARGV = st.one_of(
    _command("analyze", "--sq-db", "--asq-db", "--unc-db", "--eta"),
    _command("analyze", "--sq-db", "--asq-db", "--eta-fresnel", "--eta-filter", "--eta-pd", "--eta-e"),
    _command("extrapolate", "--gain", "--pump-mw", "--eta-eff"),
    _command("calibrate", "--snr-db", "--n-chip", "--n-air"),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(_SCALAR_ARGV)
def test_scalar_commands_keep_the_one_line_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 2)
    if code == 0:
        assert err == "" and not re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE), out
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    # --flag v and --flag=v are one argument
    joined = [argv[0], *(f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2]))]
    assert _run(joined) == (code, out, err)
