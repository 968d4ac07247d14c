"""Netlist parsing, pretty-printing, compilation and totality properties."""

import hashlib

import numpy as np
import pytest

from conftest import random_circuit_spec, random_fuzz_text
from sqzsim import (
    CircuitSpec,
    Coupler,
    Loss,
    NetlistParseError,
    Squeezer,
    apply_coupler,
    apply_loss,
    apply_phaseshift,
    apply_squeezer,
    compile_spec,
    data_path,
    effective_efficiency,
    parse,
    pretty_print,
    quadrature_variance,
    vacuum,
)
from sqzsim.netlist import MAX_SWEEP_POINTS

MINIMAL = "modes: sig\nsqueezer sig r=0.5\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:3.14159:64"


def test_parse_minimal_program():
    spec = parse(MINIMAL)
    assert spec.modes == ("sig",)
    assert len(spec.statements) == 1
    sq = spec.statements[0]
    assert isinstance(sq, Squeezer) and sq.r == 0.5 and sq.excess == 1.0
    m = spec.measurement
    assert (m.eta_pd, m.eta_e, m.ratio) == (1.0, 1.0, 0.5)
    assert m.sweep == (0.0, 3.14159, 64)
    assert m.rbw == 1.0e5 and m.vbw == 30.0


def err(source):
    with pytest.raises(NetlistParseError) as info:
        parse(source)
    return info.value


def test_out_of_range_reported_before_mode_resolution():
    e = err("loss sig eta=1.2")
    assert e.kind == "out-of-range"
    assert (e.line, e.col) == (1, 10)
    assert "out-of-range" in str(e)


@pytest.mark.parametrize("source,kind,line", [
    ("modes: sig\nwobble sig r=1\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 2),
    ("modes: sig\nsqueezer sig r=1 bogus=2\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 2),
    ("modes: sig\nsqueezer sig r=1 r=2\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 2),
    ("modes: sig\nsqueezer sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 2),
    ("modes: sig\nsqueezer sig r=1 pump_mw=4 gain=0.1\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 2),
    ("modes: sig\nsqueezer sig pump_mw=4\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 2),
    ("modes: sig sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 1),
    ("modes: sig\nsqueezer nope r=1\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "undeclared-mode", 2),
    ("modes: sig\nloss sig eta=abc\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "bad-number", 2),
    ("modes: sig\nloss sig eta=nan\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "bad-number", 2),
    ("modes: sig\nloss sig eta=1e\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "bad-number", 2),
    ("modes: sig\nsqueezer sig r=-0.1\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "out-of-range", 2),
    ("modes: sig\nsqueezer sig r=0.1 excess=0.5\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "out-of-range", 2),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1\n", "bad-number", 2),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:x\n", "bad-number", 2),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:1\n", "out-of-range", 2),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=1:1:8\n", "out-of-range", 2),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:1000000000\n", "out-of-range", 2),
    pytest.param("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:" + "9" * 5000,
                 "out-of-range", 2, id="sweep-count-of-5000-digits"),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4 vbw=2e6\n", "out-of-range", 2),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4 rbw=1e300 vbw=1e-300\n",
     "out-of-range", 2),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4 center_freq=0\n", "out-of-range", 2),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4 sweep_time=-1\n", "out-of-range", 2),
    ("modes: sig lo\ncoupler sig sig ratio=0.5\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "out-of-range", 2),
    ("modes: sig\nsqueezer sig r=0.5\n", "missing-measurement", 3),
    ("", "missing-measurement", 1),
])
def test_error_kinds_and_positions(source, kind, line):
    e = err(source)
    assert e.kind == kind
    assert e.line == line


@pytest.mark.parametrize("sweep", ["2.5:2.50:720", "0:1:100001"])
def test_sweep_rejections_point_at_the_sweep_token(sweep):
    line = f"homodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep={sweep}"
    e = err("modes: sig\n" + line)
    assert (e.kind, e.line, e.col) == ("out-of-range", 2, line.index("sweep=") + 1)


@pytest.mark.parametrize("token", ["center_freq=0", "sweep_time=-1"])
def test_metadata_rejections_point_at_the_key(token):
    line = f"homodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4 {token}"
    e = err("modes: sig\n" + line)
    assert (e.kind, e.line, e.col) == ("out-of-range", 2, line.index(token) + 1)


def test_sweep_count_cap_is_inclusive():
    spec = parse(f"modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:{MAX_SWEEP_POINTS}")
    assert spec.measurement.sweep == (0.0, 1.0, MAX_SWEEP_POINTS)


def test_duplicate_and_trailing_measurement():
    base = "modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4\n"
    e = err(base + "homodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4")
    assert e.kind == "duplicate-measurement" and e.line == 3
    e = err(base + "loss sig eta=0.5")
    assert e.kind == "unknown-keyword" and e.line == 3


def test_crlf_comments_and_inline_comments():
    source = "# header\r\nmodes: sig\r\nsqueezer sig r=0.1 # pump off\r\n\r\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4\r\n"
    spec = parse(source)
    assert spec.statements[0].r == 0.1


def test_parse_accepts_bytes():
    spec = parse(MINIMAL.encode("utf-8"))
    assert spec.modes == ("sig",)
    # undecodable bytes still give a positioned error, never a crash
    e = err(b"\xff\xfe junk")
    assert e.line == 1


def test_shipped_reference_netlist_parses():
    spec = parse(data_path("paper_chip.nl").read_text())
    assert spec.modes == ("sig",)
    sq, fresnel, filt = spec.statements
    assert sq.pump_mw == 40.0 and sq.gain == 0.058014
    assert sq.excess == pytest.approx(1.0939669, rel=1e-12)
    assert (fresnel.eta, fresnel.label) == (0.85777, "fresnel")
    assert (filt.eta, filt.label) == (0.99, "filter")
    m = spec.measurement
    assert (m.eta_pd, m.eta_e, m.ratio) == (0.88, 0.94752, 0.5)
    assert m.sweep == (0.0, 2 * np.pi, 720)


def test_pretty_print_round_trip_fixed_cases():
    for source in (MINIMAL, data_path("paper_chip.nl").read_text()):
        spec = parse(source)
        assert parse(pretty_print(spec)) == spec


def test_pretty_print_round_trip_random_specs():
    rng = np.random.default_rng(41)
    for _ in range(300):
        spec = random_circuit_spec(rng)
        text = pretty_print(spec)
        assert parse(text) == spec


# sha256 of the 20000 outcomes below, as the parser gave them before its
# statement kinds became table rows: any change to a parse or an error shows
FUZZ_OUTCOMES_SHA256 = "2c849d4e5e610fd7d0263c1664a3618b4302f28493c4d9ab8030cae8928a1004"


def test_fuzz_totality_sample():
    rng = np.random.default_rng(43)
    outcomes = {"spec": 0, "error": 0}
    digest = hashlib.sha256()
    for _ in range(20000):
        text = random_fuzz_text(rng)
        try:
            result = parse(text)
            assert isinstance(result, CircuitSpec)
            outcomes["spec"] += 1
            outcome = pretty_print(result)
        except NetlistParseError as exc:
            assert exc.line >= 1 and exc.col >= 1
            outcomes["error"] += 1
            outcome = (exc.kind, exc.line, exc.col, exc.message)
        digest.update(repr(outcome).encode() + b"\n")
    assert outcomes["error"] > 0  # the generator does exercise failures
    assert digest.hexdigest() == FUZZ_OUTCOMES_SHA256


@pytest.mark.parametrize("stranger", [object(), parse(MINIMAL).measurement], ids=["object", "homodyne"])
def test_non_element_statement_is_a_type_error(stranger):
    # the measurement is not an element: it lives in `measurement`, never in `statements`
    spec = CircuitSpec(modes=("sig",), statements=(Squeezer(mode="sig", r=0.5), stranger),
                       measurement=parse(MINIMAL).measurement)
    name = type(stranger).__name__
    with pytest.raises(TypeError, match=f"unknown statement type {name}"):
        pretty_print(spec)
    with pytest.raises(TypeError, match=f"unknown statement type {name}"):
        compile_spec(spec)


def test_compile_measurement_only_is_identity():
    spec = parse("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:6.283185307179586:8")
    channels, plan = compile_spec(spec)
    assert channels == []
    assert plan.mode == 0
    assert np.allclose(plan.phases, np.arange(8) * 2 * np.pi / 8)


def test_compile_loss_only_channels_scale_by_sqrt_eta():
    spec = parse("modes: sig\nloss sig eta=0.64\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4")
    channels, _ = compile_spec(spec)
    assert len(channels) == 1
    assert np.allclose(channels[0].X, 0.8 * np.eye(2))
    assert np.allclose(channels[0].Y, 0.36 * np.eye(2))


def test_compile_shipped_netlist_plan():
    spec = parse(data_path("paper_chip.nl").read_text())
    channels, plan = compile_spec(spec)
    assert len(channels) == 3  # squeezer (with excess noise), fresnel, filter
    assert effective_efficiency(spec.measurement) == pytest.approx(0.8338176, rel=1e-12)
    assert plan.phases.size == 720
    assert plan.phases[0] == 0.0
    assert plan.phases[180] == pytest.approx(np.pi / 2, rel=1e-12)


def test_compile_pump_parameterization():
    spec = parse("modes: sig\nsqueezer sig pump_mw=40 gain=0.058014\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4")
    channels, _ = compile_spec(spec)
    out = channels[0].apply(vacuum(1))
    r = 0.058014 * np.sqrt(40.0)
    assert quadrature_variance(out, 0, 0.0) == pytest.approx(np.exp(-2 * r), rel=1e-12)


def test_compile_matches_hand_built_sequence():
    rng = np.random.default_rng(47)
    checked = 0
    for _ in range(50):
        spec = random_circuit_spec(rng, allow_excess=False)
        channels, _ = compile_spec(spec)
        state = vacuum(len(spec.modes))
        for ch in channels:
            state = ch.apply(state)

        index = {name: i for i, name in enumerate(spec.modes)}
        expected = vacuum(len(spec.modes))
        for st in spec.statements:
            if isinstance(st, Squeezer):
                expected = apply_squeezer(expected, index[st.mode], st.effective_r(), st.phase)
            elif isinstance(st, Coupler):
                expected = apply_coupler(expected, index[st.mode_a], index[st.mode_b], st.ratio)
            elif isinstance(st, Loss):
                expected = apply_loss(expected, index[st.mode], st.eta)
            else:
                expected = apply_phaseshift(expected, index[st.mode], st.theta)
        assert np.allclose(state.cov, expected.cov, atol=1e-12)
        checked += len(spec.statements)
    assert checked > 50  # the random specs actually contained statements
