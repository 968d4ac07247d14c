"""Line-oriented netlist format for the photonic chip, plus its compiler.

Grammar (one statement per line, `#` starts a comment, tokens are
whitespace separated, parameters are `key=value`, optional ones shown in
brackets with their defaults, which live in the `Squeezer`, `Homodyne`
and `HomodyneConfig` field defaults):

    # sqzsim netlist v1
    modes: sig lo
    squeezer sig (r=0.5 | pump_mw=40 gain=0.058) [phase=0.0] [excess=1.0]
    phaseshift sig theta=1.570796
    coupler sig lo ratio=0.5
    loss sig eta=0.99 [label=filter]
    homodyne sig eta_pd=0.88 eta_e=0.94752 ratio=0.5 sweep=0:6.283185307179586:720
             [visibility=1.0] [rbw=100000.0] [vbw=30.0]
             [center_freq=2000000.0] [sweep_time=1.0]

Mode names are lowercase identifiers and must be declared on a `modes:`
line before use. `sweep=a:b:n` means n equally spaced local-oscillator
phases from a (inclusive) to b (exclusive), with a != b and
2 <= n <= MAX_SWEEP_POINTS (100000). A squeezer is given either an
explicit `r` or a pump power with a single-pass gain (r = gain*sqrt(pump));
`excess` multiplies the antisqueezed variance produced from vacuum, with
1.0 the pure minimum-uncertainty squeezer. `center_freq` (Hz) and
`sweep_time` (s) are analyser metadata: they must be > 0 and round-trip
through `pretty_print`, but no computation reads them. Exactly one
homodyne statement is required and nothing may follow it.

Errors carry a position and one of six kinds: unknown-keyword,
undeclared-mode, bad-number, out-of-range, duplicate-measurement,
missing-measurement. Structural problems (unknown or missing or repeated
parameters, duplicate mode declarations, statements after the measurement)
report unknown-keyword; a coupler naming the same mode twice reports
out-of-range. Parameter values are validated before mode references, so
`loss sig eta=1.2` is an out-of-range error even if `sig` is undeclared.
"""

import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .gaussian import (
    coupler_channel,
    loss_channel,
    phaseshift_channel,
    squeezer_channel,
)
from .homodyne import HomodyneConfig, phase_grid

VERSION_HEADER = "# sqzsim netlist v1"
MAX_SWEEP_POINTS = 100_000

_IDENT = re.compile(r"[a-z][a-z0-9_]*\Z")
_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")
_INT = re.compile(r"\d+\Z")


class NetlistParseError(Exception):
    """Positioned parse failure; `kind` is one of the six documented kinds."""

    def __init__(self, kind, line, col, message):
        self.kind = kind
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, col {col}: {kind}: {message}")


@dataclass(frozen=True)
class Squeezer:
    mode: str
    r: float | None = None
    pump_mw: float | None = None
    gain: float | None = None
    phase: float = 0.0
    excess: float = 1.0

    def effective_r(self):
        return self.r if self.r is not None else self.gain * math.sqrt(self.pump_mw)


@dataclass(frozen=True)
class PhaseShift:
    mode: str
    theta: float


@dataclass(frozen=True)
class Coupler:
    mode_a: str
    mode_b: str
    ratio: float


@dataclass(frozen=True)
class Loss:
    mode: str
    eta: float
    label: str | None = None


@dataclass(frozen=True)
class Homodyne:
    mode: str
    eta_pd: float
    eta_e: float
    ratio: float
    sweep: tuple
    visibility: float = HomodyneConfig.visibility
    rbw: float = HomodyneConfig.rbw
    vbw: float = HomodyneConfig.vbw
    center_freq: float = 2.0e6
    sweep_time: float = 1.0

    def config(self):
        """The detection settings the simulation reads; the metadata stays here."""
        return HomodyneConfig(eta_pd=self.eta_pd, eta_e=self.eta_e, coupler_ratio=self.ratio,
                              visibility=self.visibility, rbw=self.rbw, vbw=self.vbw)


@dataclass(frozen=True)
class CircuitSpec:
    """Parsed netlist: declared modes, component statements in order, one measurement."""

    modes: tuple
    statements: tuple
    measurement: Homodyne


@dataclass(frozen=True, eq=False)
class MeasurementPlan:
    """Where and how to measure: mode index, LO phases, detection config."""

    mode: int
    phases: np.ndarray
    config: HomodyneConfig


def _err(kind, line, col, message):
    raise NetlistParseError(kind, line, col, message)


def _tokenize(line):
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


_UNIT = ("eta", "ratio", "eta_pd", "eta_e", "visibility")
_NONNEG = ("r", "pump_mw", "gain")
_POSITIVE = ("rbw", "vbw", "center_freq", "sweep_time")


def _parse_value(key, text, line, col):
    if key == "label":
        if not _IDENT.match(text):
            _err("unknown-keyword", line, col, f"label '{text}' must be a lowercase identifier")
        return text
    if key == "sweep":
        parts = text.split(":")
        if len(parts) != 3:
            _err("bad-number", line, col, f"sweep '{text}' must have the form a:b:n")
        if not _NUMBER.match(parts[0]) or not _NUMBER.match(parts[1]):
            _err("bad-number", line, col, f"sweep bounds in '{text}' are not numbers")
        if not math.isfinite(float(parts[0])) or not math.isfinite(float(parts[1])):
            _err("bad-number", line, col, f"sweep bounds in '{text}' are not finite")
        if not _INT.match(parts[2]):
            _err("bad-number", line, col, f"sweep count in '{text}' is not an integer")
        digits = parts[2].lstrip("0") or "0"
        # digit count first: int() refuses strings longer than 4300 digits
        if len(digits) > len(str(MAX_SWEEP_POINTS)) or int(digits) > MAX_SWEEP_POINTS:
            _err("out-of-range", line, col, f"sweep count in '{text}' exceeds {MAX_SWEEP_POINTS}")
        n = int(digits)
        if n < 2:
            _err("out-of-range", line, col, f"sweep needs at least 2 points, got {n}")
        a, b = float(parts[0]), float(parts[1])
        if a == b:
            _err("out-of-range", line, col, f"sweep '{text}' has equal bounds")
        return (a, b, n)
    if not _NUMBER.match(text):
        _err("bad-number", line, col, f"'{text}' is not a number")
    value = float(text)
    if not math.isfinite(value):
        _err("bad-number", line, col, f"'{text}' is not finite")
    if key in _UNIT and not 0.0 <= value <= 1.0:
        _err("out-of-range", line, col, f"{key}={text} outside [0, 1]")
    if key in _NONNEG and value < 0.0:
        _err("out-of-range", line, col, f"{key}={text} must be >= 0")
    if key in _POSITIVE and value <= 0.0:
        _err("out-of-range", line, col, f"{key}={text} must be > 0")
    if key == "excess" and value < 1.0:
        _err("out-of-range", line, col, f"excess={text} must be >= 1")
    return value


def _split_params(tokens, line, allowed):
    params = {}
    cols = {}
    for text, col in tokens:
        key, eq, value = text.partition("=")
        if not eq:
            _err("unknown-keyword", line, col, f"expected key=value, got '{text}'")
        if key not in allowed:
            _err("unknown-keyword", line, col, f"unknown parameter '{key}'")
        if key in params:
            _err("unknown-keyword", line, col, f"duplicate parameter '{key}'")
        params[key] = _parse_value(key, value, line, col)
        cols[key] = col
    return params, cols


def _require(params, keys, line, col, statement):
    missing = [k for k in keys if k not in params]
    if missing:
        _err("unknown-keyword", line, col, f"{statement} is missing required parameter(s) {', '.join(missing)}")


def _mode_tokens(tokens, count, line, head_col, statement):
    if len(tokens) < count:
        _err("unknown-keyword", line, head_col, f"{statement} needs {count} mode name(s)")
    for text, col in tokens[:count]:
        if "=" in text:
            _err("unknown-keyword", line, col, f"expected a mode name, got '{text}'")
    return tokens[:count], tokens[count:]


def parse(source):
    """Parse netlist text (str or UTF-8/latin-1-tolerant bytes) into a CircuitSpec.

    Raises NetlistParseError with the position of the first offending token;
    never raises anything else, whatever the input.
    """
    if isinstance(source, (bytes, bytearray)):
        source = bytes(source).decode("utf-8", errors="replace")
    lines = source.split("\n")
    declared = []
    statements = []
    measurement = None
    measurement_line = None

    for line_no, raw in enumerate(lines, start=1):
        tokens = _tokenize(raw.rstrip("\r"))
        if not tokens:
            continue
        head, head_col = tokens[0]
        rest = tokens[1:]

        if measurement is not None:
            if head == "homodyne":
                _err("duplicate-measurement", line_no, head_col,
                     f"second homodyne statement (first on line {measurement_line})")
            _err("unknown-keyword", line_no, head_col, "no statements allowed after the homodyne measurement")

        if head == "modes:":
            if not rest:
                _err("unknown-keyword", line_no, head_col, "modes: needs at least one identifier")
            for text, col in rest:
                if not _IDENT.match(text):
                    _err("unknown-keyword", line_no, col, f"'{text}' is not a valid mode identifier")
                if text in declared:
                    _err("unknown-keyword", line_no, col, f"duplicate mode declaration '{text}'")
                declared.append(text)
            continue

        if head == "squeezer":
            modes, params_tokens = _mode_tokens(rest, 1, line_no, head_col, "squeezer")
            params, cols = _split_params(params_tokens, line_no,
                                         ("r", "pump_mw", "gain", "phase", "excess"))
            if "r" in params and ("pump_mw" in params or "gain" in params):
                _err("unknown-keyword", line_no, cols["r"],
                     "give either r or pump_mw with gain, not both")
            if "r" not in params:
                _require(params, ("pump_mw", "gain"), line_no, head_col, "squeezer")
            _check_declared(modes, declared, line_no)
            statements.append(Squeezer(mode=modes[0][0], **params))
            continue

        if head == "phaseshift":
            modes, params_tokens = _mode_tokens(rest, 1, line_no, head_col, "phaseshift")
            params, _ = _split_params(params_tokens, line_no, ("theta",))
            _require(params, ("theta",), line_no, head_col, "phaseshift")
            _check_declared(modes, declared, line_no)
            statements.append(PhaseShift(mode=modes[0][0], theta=params["theta"]))
            continue

        if head == "coupler":
            modes, params_tokens = _mode_tokens(rest, 2, line_no, head_col, "coupler")
            params, _ = _split_params(params_tokens, line_no, ("ratio",))
            _require(params, ("ratio",), line_no, head_col, "coupler")
            if modes[0][0] == modes[1][0]:
                _err("out-of-range", line_no, modes[1][1], "coupler requires two distinct modes")
            _check_declared(modes, declared, line_no)
            statements.append(Coupler(mode_a=modes[0][0], mode_b=modes[1][0], ratio=params["ratio"]))
            continue

        if head == "loss":
            modes, params_tokens = _mode_tokens(rest, 1, line_no, head_col, "loss")
            params, _ = _split_params(params_tokens, line_no, ("eta", "label"))
            _require(params, ("eta",), line_no, head_col, "loss")
            _check_declared(modes, declared, line_no)
            statements.append(Loss(mode=modes[0][0], eta=params["eta"], label=params.get("label")))
            continue

        if head == "homodyne":
            modes, params_tokens = _mode_tokens(rest, 1, line_no, head_col, "homodyne")
            params, cols = _split_params(params_tokens, line_no,
                                         ("eta_pd", "eta_e", "ratio", "sweep", "visibility",
                                          "rbw", "vbw", "center_freq", "sweep_time"))
            _require(params, ("eta_pd", "eta_e", "ratio", "sweep"), line_no, head_col, "homodyne")
            measurement = Homodyne(mode=modes[0][0], **params)
            if measurement.vbw > measurement.rbw:
                _err("out-of-range", line_no, cols.get("vbw", cols.get("rbw", head_col)),
                     f"vbw={measurement.vbw} exceeds rbw={measurement.rbw}")
            if not math.isfinite(measurement.rbw / measurement.vbw):
                _err("out-of-range", line_no, cols.get("vbw", cols.get("rbw", head_col)),
                     f"rbw/vbw overflows: rbw={measurement.rbw}, vbw={measurement.vbw}")
            _check_declared(modes, declared, line_no)
            measurement_line = line_no
            continue

        _err("unknown-keyword", line_no, head_col, f"unknown statement '{head}'")

    if measurement is None:
        _err("missing-measurement", len(lines), 1, "netlist has no homodyne measurement statement")
    return CircuitSpec(modes=tuple(declared), statements=tuple(statements), measurement=measurement)


def _check_declared(mode_tokens, declared, line):
    for text, col in mode_tokens:
        if text not in declared:
            _err("undeclared-mode", line, col, f"mode '{text}' is not declared")


def _fmt(value):
    return repr(float(value))


def _non_default(statement, keys):
    """` key=value` for each optional key whose value differs from its field default."""
    defaults = {f.name: f.default for f in fields(statement)}
    return "".join(f" {k}={_fmt(getattr(statement, k))}" for k in keys
                   if getattr(statement, k) != defaults[k])


def pretty_print(spec):
    """Canonical text for a CircuitSpec; parses back to an identical spec."""
    out = [VERSION_HEADER, "modes: " + " ".join(spec.modes)]
    for st in spec.statements:
        if isinstance(st, Squeezer):
            line = f"squeezer {st.mode} "
            if st.r is not None:
                line += f"r={_fmt(st.r)}"
            else:
                line += f"pump_mw={_fmt(st.pump_mw)} gain={_fmt(st.gain)}"
            line += _non_default(st, ("phase", "excess"))
        elif isinstance(st, PhaseShift):
            line = f"phaseshift {st.mode} theta={_fmt(st.theta)}"
        elif isinstance(st, Coupler):
            line = f"coupler {st.mode_a} {st.mode_b} ratio={_fmt(st.ratio)}"
        elif isinstance(st, Loss):
            line = f"loss {st.mode} eta={_fmt(st.eta)}"
            if st.label is not None:
                line += f" label={st.label}"
        else:
            raise TypeError(f"unknown statement type {type(st).__name__}")
        out.append(line)
    m = spec.measurement
    a, b, n = m.sweep
    line = (f"homodyne {m.mode} eta_pd={_fmt(m.eta_pd)} eta_e={_fmt(m.eta_e)} "
            f"ratio={_fmt(m.ratio)} sweep={_fmt(a)}:{_fmt(b)}:{n}")
    out.append(line + _non_default(m, ("visibility", "rbw", "vbw", "center_freq", "sweep_time")))
    return "\n".join(out) + "\n"


def compile_spec(spec):
    """Compile a CircuitSpec to an ordered GaussianChannel list and a MeasurementPlan."""
    n = len(spec.modes)
    index = {name: i for i, name in enumerate(spec.modes)}
    channels = []
    for st in spec.statements:
        if isinstance(st, Squeezer):
            channels.append(squeezer_channel(n, index[st.mode], st.effective_r(),
                                             phase=st.phase, excess=st.excess))
        elif isinstance(st, PhaseShift):
            channels.append(phaseshift_channel(n, index[st.mode], st.theta))
        elif isinstance(st, Coupler):
            channels.append(coupler_channel(n, index[st.mode_a], index[st.mode_b], st.ratio))
        elif isinstance(st, Loss):
            channels.append(loss_channel(n, index[st.mode], st.eta))
        else:
            raise TypeError(f"unknown statement type {type(st).__name__}")
    m = spec.measurement
    return channels, MeasurementPlan(mode=index[m.mode], phases=phase_grid(*m.sweep), config=m.config())
