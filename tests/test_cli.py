"""Command-line contract: exit codes, output formats, reproducibility."""

import json
import shutil
import warnings

import numpy as np
import pytest

import sqzsim.simulate
from sqzsim import HomodyneTrace, data_path, parse
from sqzsim.cli import main

CHIP = data_path("paper_chip.nl")


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


def test_bad_arguments_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--sq-db", "-2"])  # missing required --asq-db
    assert info.value.code == 2
