"""Netlist parsing, pretty-printing, compilation and totality properties."""

import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_circuit_spec, random_fuzz_text
from sqzsim import (
    CircuitSpec,
    Coupler,
    Homodyne,
    Loss,
    NetlistParseError,
    PhaseShift,
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
    run_spec,
    vacuum,
)
from sqzsim.netlist import _KEYS, _NUMBER, MAX_SWEEP_POINTS, _StatementError

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


@pytest.mark.parametrize("source,kind,line,col", [
    ("modes: sig\nwobble sig r=1\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 2, 1),
    ("modes: sig\nsqueezer sig r=1 bogus=2\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 2, 18),
    ("modes: sig\nsqueezer sig r=1 r=2\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 2, 18),
    ("modes: sig\nsqueezer sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 2, 1),
    ("modes: sig\nsqueezer sig r=1 pump_mw=4 gain=0.1\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 2, 14),
    ("modes: sig\nsqueezer sig pump_mw=4\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 2, 1),
    ("modes: sig sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 1, 12),
    ("modes: sig\nsqueezer nope r=1\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "undeclared-mode", 2, 10),
    ("modes: sig\nloss sig eta=abc\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "bad-number", 2, 10),
    ("modes: sig\nloss sig eta=nan\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "bad-number", 2, 10),
    ("modes: sig\nloss sig eta=1e\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "bad-number", 2, 10),
    ("modes: sig\nloss sig eta=1e999\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "bad-number", 2, 10),
    ("modes: sig\nsqueezer sig r=-0.1\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "out-of-range", 2, 14),
    ("modes: sig\nsqueezer sig r=0.1 excess=0.5\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "out-of-range", 2, 20),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1\n", "bad-number", 2, 41),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:x\n", "bad-number", 2, 41),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:1\n", "out-of-range", 2, 41),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=1:1:8\n", "out-of-range", 2, 41),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:1000000000\n", "out-of-range", 2, 41),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=1e308:-1e308:8\n", "out-of-range", 2, 41),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=1e17:1.0000000000000002e17:4\n", "out-of-range", 2, 41),
    pytest.param("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:" + "9" * 5000,
                 "out-of-range", 2, 41, id="sweep-count-of-5000-digits"),
    pytest.param("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:" + "\u0669" * 5000,
                 "out-of-range", 2, 41, id="sweep-count-of-5000-arabic-indic-nines"),
    pytest.param("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:" + "\u0660" * 5000 + "100001",
                 "out-of-range", 2, 41, id="sweep-count-over-the-cap-after-arabic-indic-zeros"),
    # a bare known key is not key=value
    ("modes: sig\nloss sig eta\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "unknown-keyword", 2, 10),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4 vbw=2e6\n", "out-of-range", 2, 53),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4 rbw=1e300 vbw=1e-300\n",
     "out-of-range", 2, 63),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4 center_freq=0\n", "out-of-range", 2, 53),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4 sweep_time=-1\n", "out-of-range", 2, 53),
    ("modes: sig lo\ncoupler sig sig ratio=0.5\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "out-of-range", 2, 13),
    ("modes: sig\nloss zz eta=0.5\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "undeclared-mode", 2, 6),
    ("modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4 rbw=10 vbw=30\n", "out-of-range", 2, 60),
    # a key given twice is at fault at its first token
    ("modes: sig\nloss sig eta=abc eta=0.5\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "bad-number", 2, 10),
    ("modes: sig\nloss sig eta=2 eta=0.5\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4", "out-of-range", 2, 10),
    ("modes: sig\nsqueezer sig r=0.5\n", "missing-measurement", 3, 1),
    ("", "missing-measurement", 1, 1),
])
def test_error_kinds_and_positions(source, kind, line, col):
    e = err(source)
    assert (e.kind, e.line, e.col) == (kind, line, col)


@pytest.mark.parametrize("sweep", ["2.5:2.50:720", "0:1:100001", "1e308:-1e308:8",
                                   "1e17:1.0000000000000002e17:4"])
def test_sweep_rejections_point_at_the_sweep_token(sweep):
    line = f"homodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep={sweep}"
    e = err("modes: sig\n" + line)
    assert (e.kind, e.line, e.col) == ("out-of-range", 2, line.index("sweep=") + 1)


@pytest.mark.parametrize("token", ["center_freq=0", "sweep_time=-1"])
def test_metadata_rejections_point_at_the_key(token):
    line = f"homodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4 {token}"
    e = err("modes: sig\n" + line)
    assert (e.kind, e.line, e.col) == ("out-of-range", 2, line.index(token) + 1)


# a count's leading zeros go by value, in any script: U+0660 and U+0668 are Arabic-Indic 0 and 8
@pytest.mark.parametrize("count", ["00000008", "\u0660" * 7 + "\u0668", "0" * 5000 + "8", "\u0660" * 5000 + "8",
                                   "0\u06600\u0668"],
                         ids=["ascii-zeros", "arabic-indic", "5000-ascii-zeros", "5000-arabic-indic-zeros", "mixed"])
def test_sweep_count_leading_zeros_in_any_script(count):
    spec = parse(f"modes: sig\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:6.28:{count}")
    assert spec.measurement.sweep == (0.0, 6.28, 8)


def test_numbers_may_use_any_scripts_decimal_digits():
    # U+0663 and U+0668 are Arabic-Indic 3 and 8, U+FF11 and U+FF15 fullwidth 1 and 5
    spec = parse("modes: sig\nsqueezer sig r=\u0663 phase=\uff11.\uff15\n"
                 "homodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:\u0668")
    assert (spec.statements[0].r, spec.statements[0].phase) == (3.0, 1.5)
    assert spec.measurement.sweep == (0.0, 1.0, 8)
    text = pretty_print(spec)
    assert text.isascii() and parse(text) == spec


def _number_pattern_outcome(text):
    """A number's value, or its error's (kind, message), as read by checking `_NUMBER` before float()."""
    if not _NUMBER.match(text):
        return "bad-number", f"'{text}' is not a number"
    value = float(text)
    return value if math.isfinite(value) else ("bad-number", f"'{text}' is not finite")


def test_number_reader_accepts_what_the_number_pattern_accepts():
    # the reader calls float() first, which takes more spellings than `_NUMBER`; it must
    # give `_NUMBER`'s outcome for every code point between two digits (a token holds no
    # whitespace), every ASCII character around a digit and float()'s other spellings
    read = _KEYS["theta"].read   # no range to check, so only the reading shows

    def outcome(text):
        try:
            return read("theta", text)
        except _StatementError as exc:
            return exc.kind, str(exc)
    texts = ["1" + c + "5" for c in map(chr, range(0x110000)) if not c.isspace()]
    texts += [form.format(c) for c in map(chr, range(128)) if not c.isspace() for form in ("{}", "{}5", "5{}")]
    texts += ["1_0", "_1", "1_", "1__0", "1_0.5", "1.0_5", "1e1_0", "\u0661_\u0660", "+.5", "-.5e-3", "1.5E+3",
              "inf", "+inf", "-inf", "Inf", "INF", "infinity", "-Infinity", "iNfInItY", "1e999", "-1e999", "1e-999",
              "nan", "+nan", "-NaN", "NAN", "0x10", "1e", "e1", ".", "", "+", "-", "1.", "\u0663.\u0665e\u0662"]
    assert [text for text in texts if outcome(text) != _number_pattern_outcome(text)] == []


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


# every separator `str.split()` knows but \n, which alone ends a line: 28 code points, among them
# \r, the file, group, unit and record separators, next line and the Unicode spaces
_SEPARATORS = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c != "\n"]


@pytest.mark.parametrize("sep", _SEPARATORS, ids=[f"U+{ord(c):04X}" for c in _SEPARATORS])
@pytest.mark.parametrize("statement,index,kind", [
    ("modes:{s}lo{s}{s}lo", 2, "unknown-keyword"),
    ("bogus{s}sig", 0, "unknown-keyword"),
    ("loss{s}lo{s}eta=0.5", 1, "undeclared-mode"),
    ("loss{s}sig{s}{s}eta=1.5", 2, "out-of-range"),
    ("loss{s}sig{s}eta=x", 2, "bad-number"),
    ("squeezer{s}sig{s}r=0.1{s}r=0.2", 3, "unknown-keyword"),
    ("squeezer{s}sig{s}pump_mw=4", 0, "unknown-keyword"),
], ids=["duplicate-mode", "unknown-statement", "undeclared", "out-of-range", "bad-number",
        "duplicate-parameter", "missing-parameter"])
def test_error_columns_with_unicode_whitespace(sep, statement, index, kind):
    line = sep * 2 + statement.format(s=sep) + sep + "# comment" + sep + "eta=2"
    code = line.partition("#")[0]
    starts = [i + 1 for i, c in enumerate(code) if not c.isspace() and (i == 0 or code[i - 1].isspace())]
    e = err(f"modes: sig\n{line}\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4\n")
    assert (e.kind, e.line, e.col) == (kind, 2, starts[index])


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


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1), st.data())
def test_parameter_order_does_not_matter_and_a_repeated_parameter_is_at_fault(seed, data):
    spec = random_circuit_spec(np.random.default_rng(seed))
    lines = []
    for line in pretty_print(spec).splitlines():
        words = line.split()
        params = [word for word in words if "=" in word]
        lines.append(" ".join([word for word in words if "=" not in word] + data.draw(st.permutations(params))))
    assert parse("\n".join(lines)) == spec
    # a valid key=value token given again later in its line is at fault where it is repeated
    at = data.draw(st.sampled_from([i for i, line in enumerate(lines) if "=" in line]))
    words = lines[at].split()
    first = data.draw(st.sampled_from([j for j, word in enumerate(words) if "=" in word]))
    later = data.draw(st.integers(first + 1, len(words)))
    words.insert(later, words[first])
    lines[at] = " ".join(words)
    e = err("\n".join(lines))
    assert (e.kind, e.line, e.col) == ("unknown-keyword", at + 1, len(" ".join(words[:later])) + 2)
    assert e.message == f"duplicate parameter '{words[first].partition('=')[0]}'"


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
    with pytest.raises(TypeError, match=f"unknown statement type {type(stranger).__name__}"):
        CircuitSpec(modes=("sig",), statements=(Squeezer(mode="sig", r=0.5), stranger),
                    measurement=parse(MINIMAL).measurement)


def test_spec_fields_of_the_wrong_type_are_a_type_error():
    measurement = parse(MINIMAL).measurement
    with pytest.raises(TypeError, match="statements must be a tuple, got list"):
        CircuitSpec(("sig",), [Squeezer(mode="sig", r=0.5)], measurement)
    with pytest.raises(TypeError, match="measurement must be a Homodyne, got Loss"):
        CircuitSpec(("sig",), (), Loss(mode="sig", eta=0.5))


def _homodyne(mode="sig", **fields):
    return Homodyne(**{"mode": mode, "eta_pd": 0.88, "eta_e": 0.95, "ratio": 0.5,
                       "sweep": (0.0, 3.14, 8), **fields})


@pytest.mark.parametrize("text,build", [
    ("squeezer sig r=0.5 pump_mw=4.0 gain=0.1\nhomodyne sig",
     lambda: Squeezer(mode="sig", r=0.5, pump_mw=4.0, gain=0.1)),
    ("squeezer sig\nhomodyne sig", lambda: Squeezer(mode="sig")),
    ("squeezer sig pump_mw=4.0\nhomodyne sig", lambda: Squeezer(mode="sig", pump_mw=4.0)),
    ("coupler sig sig ratio=0.5\nhomodyne sig", lambda: Coupler(mode_a="sig", mode_b="sig", ratio=0.5)),
    ("homodyne sig rbw=10.0 vbw=30.0", lambda: _homodyne(rbw=10.0, vbw=30.0)),
    ("loss x eta=0.9\nhomodyne sig", lambda: CircuitSpec(("sig",), (Loss(mode="x", eta=0.9),), _homodyne())),
    ("homodyne x", lambda: CircuitSpec(("sig",), (), _homodyne("x"))),
], ids=["r-and-pump", "no-source", "pump-without-gain", "same-coupler-modes", "vbw-above-rbw",
        "undeclared-element-mode", "undeclared-measured-mode"])
def test_hand_built_spec_is_rejected_in_the_parser_words(text, build):
    # what parse rejects once a statement's values are read, a constructor rejects in the same words
    with pytest.raises(NetlistParseError) as parsed:
        parse(f"modes: sig\n{text} eta_pd=0.88 eta_e=0.95 ratio=0.5 sweep=0:3.14:8\n")
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == parsed.value.message


_NOT_A_NUMBER = "is not a finite int or float that a double holds exactly"


@pytest.mark.parametrize("build,message", [
    (lambda: Squeezer(mode="sig"), "squeezer is missing required parameter(s) pump_mw, gain"),
    (lambda: Loss(mode="sig", eta="0.5"), f"eta='0.5' {_NOT_A_NUMBER}"),
    (lambda: _homodyne(rbw=10.0, vbw=30.0), "vbw=30.0 exceeds rbw=10.0"),
    (lambda: _homodyne(sweep=(0.0, 1.0, 1)), "sweep needs at least 2 points, got 1"),
    (lambda: _homodyne(sweep=(1.0, 1.0, 8)), "sweep (1.0, 1.0, 8) has equal bounds"),
    (lambda: Loss(mode="sig", eta=1.5), "eta=1.5 outside [0, 1]"),
    (lambda: _homodyne(eta_pd=2.0), "eta_pd=2.0 outside [0, 1]"),
    (lambda: Squeezer(mode="sig", r=0.5, excess=0.5), "excess=0.5 must be >= 1"),
    (lambda: _homodyne(center_freq=0.0), "center_freq=0.0 must be > 0"),
    (lambda: Loss(mode="sig", eta=0.5, label="Bad Label"), "label 'Bad Label' must be a lowercase identifier"),
    (lambda: CircuitSpec(("sig", "sig"), (), _homodyne()),
     "modes must be a non-empty tuple of distinct lowercase identifiers, got ('sig', 'sig')"),
    # the detection chain's fields, once checked where run_spec read them
    (lambda: _homodyne(eta_pd=1.2), "eta_pd=1.2 outside [0, 1]"),
    (lambda: _homodyne(eta_pd=1.5), "eta_pd=1.5 outside [0, 1]"),
    (lambda: _homodyne(eta_e=-0.1), "eta_e=-0.1 outside [0, 1]"),
    (lambda: _homodyne(ratio=1.5), "ratio=1.5 outside [0, 1]"),
    (lambda: _homodyne(visibility=-0.5), "visibility=-0.5 outside [0, 1]"),
    (lambda: _homodyne(eta_pd=math.nan), f"eta_pd=nan {_NOT_A_NUMBER}"),
    # sweeps whose n phases a double cannot keep distinct and in order
    (lambda: _homodyne(sweep=(1e308, -1e308, 8)),
     "sweep (1e+308, -1e+308, 8) needs a finite b - a and a step |b - a|/n above 2 ulp of its bounds"),
    (lambda: _homodyne(sweep=(1e17, 1.0000000000000002e17, 4)),
     "sweep (1e+17, 1.0000000000000002e+17, 4) needs a finite b - a and a step |b - a|/n "
     "above 2 ulp of its bounds"),
    # values parse could never give back
    (lambda: PhaseShift(mode="sig", theta=2**53 + 1), f"theta=9007199254740993 {_NOT_A_NUMBER}"),
    (lambda: PhaseShift(mode="sig", theta=10**400), f"theta={10**400!r} {_NOT_A_NUMBER}"),
    (lambda: _homodyne(sweep=[0.0, 1.0, 4]),
     "sweep [0.0, 1.0, 4] must be a tuple (a, b, n) of two finite numbers and an int"),
    (lambda: _homodyne(sweep=(0.0, 1.0, 4.0)),
     "sweep (0.0, 1.0, 4.0) must be a tuple (a, b, n) of two finite numbers and an int"),
    (lambda: CircuitSpec(("Sig",), (), _homodyne("Sig")),
     "modes must be a non-empty tuple of distinct lowercase identifiers, got ('Sig',)"),
    (lambda: CircuitSpec((), (), _homodyne()),
     "modes must be a non-empty tuple of distinct lowercase identifiers, got ()"),
], ids=["no-source", "string-eta", "vbw-above-rbw", "one-point-sweep", "equal-sweep-bounds", "eta-1.5",
        "eta_pd-2", "excess-0.5", "center_freq-0", "bad-label", "repeated-mode",
        "eta_pd-1.2", "eta_pd-1.5", "eta_e-negative", "ratio-1.5", "visibility-negative", "eta_pd-nan",
        "sweep-span-overflows", "sweep-step-below-ulp",
        "inexact-int", "huge-int", "list-sweep", "float-count", "upper-case-mode", "no-modes"])
def test_hand_built_statement_is_rejected_at_construction(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


def test_hand_built_values_of_other_number_types_round_trip():
    spec = CircuitSpec(("sig",), (Squeezer(mode="sig", r=np.float64(0.5), phase=1), Loss(mode="sig", eta=1)),
                       _homodyne(sweep=(0, 3, 8), rbw=10**5))
    assert parse(pretty_print(spec)) == spec


# breaks most field rules: non-finite, negative, huge, missing, not a number
_WILD = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0, None, 50.0, 1e308, 2**60, "0.5"])
_UNIT = st.floats(0.0, 1.0)
_ANGLE = st.floats(-10.0, 10.0)


@st.composite
def _hand_built(draw):
    """(modes, [(statement class, fields)], measurement fields), valid but for at most one wild value."""
    wild_at, drawn = draw(st.integers(0, 40)), []

    def value(good):
        drawn.append(None)
        return draw(_WILD) if len(drawn) == wild_at else draw(good)

    def optional(**pools):
        return {key: value(good) for key, good in pools.items() if draw(st.booleans())}

    modes = tuple(f"m{i}" for i in range(draw(st.integers(1, 3))))
    names = st.sampled_from(modes)
    statements = []
    for _ in range(draw(st.integers(0, 6))):
        cls = draw(st.sampled_from([Squeezer, PhaseShift, Loss] + [Coupler] * (len(modes) > 1)))
        mode = value(names)
        if cls is Squeezer:
            source = {"r": value(st.floats(0.0, 3.0))} if draw(st.booleans()) else {
                "pump_mw": value(st.floats(0.0, 200.0)), "gain": value(st.floats(0.0, 0.1))}
            fields = {"mode": mode, **source, **optional(phase=_ANGLE, excess=st.floats(1.0, 2.0))}
        elif cls is PhaseShift:
            fields = {"mode": mode, "theta": value(_ANGLE)}
        elif cls is Coupler:
            fields = {"mode_a": mode, "mode_b": value(names.filter(lambda name: name != mode)),
                      "ratio": value(_UNIT)}
        else:
            fields = {"mode": mode, "eta": value(_UNIT),
                      **optional(label=st.sampled_from(["facet", "filter", "Bad Label"]))}
        statements.append((cls, fields))
    sweep = st.tuples(_ANGLE, _ANGLE, st.integers(2, 40))
    chain = st.floats(0.1, 0.9)   # an efficiency of 0 leaves nothing to run
    measurement = {"mode": value(names), "eta_pd": value(chain), "eta_e": value(chain), "ratio": value(chain),
                   "sweep": value(sweep),
                   **optional(visibility=_UNIT, rbw=st.floats(1.0, 1e7), vbw=st.floats(1e-3, 1e3),
                              center_freq=st.floats(1e-3, 1e7), sweep_time=st.floats(1e-3, 1e3))}
    return modes, statements, measurement


@settings(max_examples=200)
@given(_hand_built())
def test_hand_built_spec_is_rejected_or_round_trips_and_runs(parts):
    # a constructor is the one check: what it accepts, parse accepts and run_spec runs or
    # rejects with one of the two errors the CLI maps to exit 2; no TypeError, KeyError or warning
    modes, statements, measurement = parts
    try:
        spec = CircuitSpec(modes, tuple(cls(**fields) for cls, fields in statements), Homodyne(**measurement))
    except ValueError:
        return
    assert parse(pretty_print(spec)) == spec
    for noiseless, seed in ((True, None), (False, 5)):
        try:
            run_spec(spec, noiseless=noiseless, seed=seed)
        except (ValueError, OverflowError):
            pass


def _word(value):
    if isinstance(value, tuple):
        return ":".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


def _netlist_text(parts):
    """`_hand_built` parts written as netlist text; a None value leaves its key out."""
    modes, statements, measurement = parts
    keywords = {Squeezer: "squeezer", PhaseShift: "phaseshift", Coupler: "coupler", Loss: "loss"}
    lines = ["modes: " + " ".join(modes)]
    for cls, values in [*statements, (Homodyne, measurement)]:
        words = [keywords.get(cls, "homodyne")]
        for key, value in values.items():
            if key.startswith("mode"):
                words.append(str(value))
            elif value is not None:
                words.append(f"{key}={_word(value)}")
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


def _values(statement):
    return {name: getattr(statement, name) for name, _ in statement._fields}


@settings(max_examples=200)
@given(_hand_built())
def test_parse_equals_the_public_constructors(parts):
    # parse checks each value once and skips the constructors' checks; what it
    # returns must be what the checking constructors build from the same fields
    try:
        spec = parse(_netlist_text(parts))
    except NetlistParseError:
        return
    rebuilt = CircuitSpec(spec.modes, tuple(type(st)(**_values(st)) for st in spec.statements),
                          Homodyne(**_values(spec.measurement)))
    assert rebuilt == spec
    assert [_values(st) for st in rebuilt.statements] == [_values(st) for st in spec.statements]


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
