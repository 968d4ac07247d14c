"""Line-oriented netlist format for the photonic chip, plus its compiler.

Grammar (one statement per line, `#` starts a comment, tokens are
whitespace separated, parameters are `key=value`, optional ones shown in
brackets with their defaults, which live in the `Squeezer` and `Homodyne`
field defaults only):

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

Each statement kind is one `_ROWS` row (keyword, mode fields, keys in
print order, required keys, dataclass, cross-field check, channel builder)
read by `parse`, `pretty_print` and `compile_spec`; `_KEYS` holds each
key's value rule once. A new element is one row plus its dataclass.

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
from dataclasses import MISSING, dataclass

import numpy as np

from .budget import pump_to_r
from .gaussian import (
    coupler_channel,
    loss_channel,
    phaseshift_channel,
    squeezer_channel,
)
from .homodyne import phase_grid

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
        return self.r if self.r is not None else pump_to_r(self.pump_mw, self.gain)


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
    visibility: float = 1.0
    rbw: float = 1.0e5
    vbw: float = 30.0
    center_freq: float = 2.0e6
    sweep_time: float = 1.0


@dataclass(frozen=True)
class CircuitSpec:
    """Parsed netlist: declared modes, component statements in order, one measurement."""

    modes: tuple
    statements: tuple
    measurement: Homodyne


@dataclass(frozen=True, eq=False)
class MeasurementPlan:
    """Where to measure: mode index and LO phases."""

    mode: int
    phases: np.ndarray


def _err(kind, line, col, message):
    if line is None:   # a hand-built statement, which has no position
        raise ValueError(message)
    raise NetlistParseError(kind, line, col, message)


def _tokenize(line):
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _number(holds, rule):
    """Reader of a finite decimal number that must satisfy `holds`; `rule` words the out-of-range error."""
    def read(key, text, line, col):
        if not _NUMBER.match(text):
            _err("bad-number", line, col, f"'{text}' is not a number")
        value = float(text)
        if not math.isfinite(value):
            _err("bad-number", line, col, f"'{text}' is not finite")
        if not holds(value):
            _err("out-of-range", line, col, f"{key}={text} {rule}")
        return value
    return read


def _read_label(key, text, line, col):
    if not _IDENT.match(text):
        _err("unknown-keyword", line, col, f"label '{text}' must be a lowercase identifier")
    return text


def _read_sweep(key, text, line, col):
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


def _fmt(value):
    return repr(float(value))


_IN_0_1 = (_number(lambda v: 0.0 <= v <= 1.0, "outside [0, 1]"), _fmt)
_AT_LEAST_0 = (_number(lambda v: v >= 0.0, "must be >= 0"), _fmt)
_ABOVE_0 = (_number(lambda v: v > 0.0, "must be > 0"), _fmt)
_ANGLE = (_number(lambda v: True, ""), _fmt)

# key -> (reader: (key, text, line, col) -> value, writer: value -> text); the
# one home of each key's range, shared by every statement that takes the key
_KEYS = {
    "r": _AT_LEAST_0, "pump_mw": _AT_LEAST_0, "gain": _AT_LEAST_0,
    "phase": _ANGLE, "theta": _ANGLE,
    "excess": (_number(lambda v: v >= 1.0, "must be >= 1"), _fmt),
    "eta": _IN_0_1, "ratio": _IN_0_1, "eta_pd": _IN_0_1, "eta_e": _IN_0_1, "visibility": _IN_0_1,
    "rbw": _ABOVE_0, "vbw": _ABOVE_0, "center_freq": _ABOVE_0, "sweep_time": _ABOVE_0,
    "label": (_read_label, str),
    "sweep": (_read_sweep, lambda sweep: f"{_fmt(sweep[0])}:{_fmt(sweep[1])}:{sweep[2]}"),
}


def _one_squeezing_source(st, cols, line):
    if st.r is not None and (st.pump_mw is not None or st.gain is not None):
        _err("unknown-keyword", line, cols.get("r"), "give either r or pump_mw with gain, not both")


def _distinct_modes(st, cols, line):
    if st.mode_a == st.mode_b:
        _err("out-of-range", line, cols.get("mode_b"), "coupler requires two distinct modes")


def _bandwidths(st, cols, line):
    col = cols.get("vbw", cols.get("rbw"))   # the defaults pass both checks, so one is given
    if st.vbw > st.rbw:
        _err("out-of-range", line, col, f"vbw={st.vbw} exceeds rbw={st.rbw}")
    if not math.isfinite(st.rbw / st.vbw):
        _err("out-of-range", line, col, f"rbw/vbw overflows: rbw={st.rbw}, vbw={st.vbw}")


@dataclass(frozen=True)
class _Row:
    """One statement kind: how it is parsed, printed and compiled."""

    keyword: str
    cls: type
    mode_fields: tuple   # the dataclass fields naming modes, in token order
    keys: tuple          # the allowed parameters, in print order
    required: object     # the given fields -> the parameters that must be given
    check: object = None    # (statement, key and mode-field columns, line); raises NetlistParseError
    channel: object = None  # (n_modes, mode name -> index, statement) -> GaussianChannel


_ROWS = {row.keyword: row for row in (
    _Row("squeezer", Squeezer, ("mode",), ("r", "pump_mw", "gain", "phase", "excess"),
         required=lambda given: () if "r" in given else ("pump_mw", "gain"),
         check=_one_squeezing_source,
         channel=lambda n, at, st: squeezer_channel(n, at[st.mode], st.effective_r(), st.phase, st.excess)),
    _Row("phaseshift", PhaseShift, ("mode",), ("theta",), required=lambda given: ("theta",),
         channel=lambda n, at, st: phaseshift_channel(n, at[st.mode], st.theta)),
    _Row("coupler", Coupler, ("mode_a", "mode_b"), ("ratio",), required=lambda given: ("ratio",),
         check=_distinct_modes,
         channel=lambda n, at, st: coupler_channel(n, at[st.mode_a], at[st.mode_b], st.ratio)),
    _Row("loss", Loss, ("mode",), ("eta", "label"), required=lambda given: ("eta",),
         channel=lambda n, at, st: loss_channel(n, at[st.mode], st.eta)),
    _Row("homodyne", Homodyne, ("mode",),
         ("eta_pd", "eta_e", "ratio", "sweep", "visibility", "rbw", "vbw", "center_freq", "sweep_time"),
         required=lambda given: ("eta_pd", "eta_e", "ratio", "sweep"),
         check=_bandwidths),
)}
_MEASUREMENT = _ROWS["homodyne"]
_ELEMENTS = {row.cls: row for row in _ROWS.values() if row is not _MEASUREMENT}


def _statement(row, tokens, line, declared):
    """The row's statement from a line's tokens, keyword first.

    Checks mode names, each parameter's key then value, the required keys
    and the row's check before it looks up the modes' declarations.
    """
    head, head_col = tokens[0]
    count = len(row.mode_fields)
    if len(tokens) <= count:
        _err("unknown-keyword", line, head_col, f"{head} needs {count} mode name(s)")
    values, cols = {}, {}   # the dataclass fields (mode names, then parameters) and their columns
    for name, (text, col) in zip(row.mode_fields, tokens[1:]):
        if "=" in text:
            _err("unknown-keyword", line, col, f"expected a mode name, got '{text}'")
        values[name], cols[name] = text, col
    for text, col in tokens[count + 1:]:
        key, eq, value = text.partition("=")
        if not eq:
            _err("unknown-keyword", line, col, f"expected key=value, got '{text}'")
        if key not in row.keys:
            _err("unknown-keyword", line, col, f"unknown parameter '{key}'")
        if key in values:
            _err("unknown-keyword", line, col, f"duplicate parameter '{key}'")
        values[key], cols[key] = _KEYS[key][0](key, value, line, col), col
    missing = [key for key in row.required(values) if key not in values]
    if missing:
        _err("unknown-keyword", line, head_col,
             f"{head} is missing required parameter(s) {', '.join(missing)}")
    statement = row.cls(**values)
    _after_values(row, statement, row.check, declared, cols, line)
    return statement


def _after_values(row, st, check, declared, cols, line):
    """The checks on a statement once its values are read: `check`, then its modes' declarations."""
    if check is not None:
        check(st, cols, line)
    for name in row.mode_fields:
        if getattr(st, name) not in declared:
            _err("undeclared-mode", line, cols.get(name), f"mode '{getattr(st, name)}' is not declared")


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
        row = _ROWS.get(head)

        if measurement is not None:
            if row is _MEASUREMENT:
                _err("duplicate-measurement", line_no, head_col,
                     f"second homodyne statement (first on line {measurement_line})")
            _err("unknown-keyword", line_no, head_col, "no statements allowed after the homodyne measurement")

        if head == "modes:":
            if len(tokens) == 1:
                _err("unknown-keyword", line_no, head_col, "modes: needs at least one identifier")
            for text, col in tokens[1:]:
                if not _IDENT.match(text):
                    _err("unknown-keyword", line_no, col, f"'{text}' is not a valid mode identifier")
                if text in declared:
                    _err("unknown-keyword", line_no, col, f"duplicate mode declaration '{text}'")
                declared.append(text)
        elif row is None:
            _err("unknown-keyword", line_no, head_col, f"unknown statement '{head}'")
        elif row is _MEASUREMENT:
            measurement, measurement_line = _statement(row, tokens, line_no, declared), line_no
        else:
            statements.append(_statement(row, tokens, line_no, declared))

    if measurement is None:
        _err("missing-measurement", len(lines), 1, "netlist has no homodyne measurement statement")
    return CircuitSpec(modes=tuple(declared), statements=tuple(statements), measurement=measurement)


def _element_rows(spec):
    """The statements' rows; a hand-built spec that `parse` would reject past its values raises ValueError.

    The measurement's bandwidths are left to `run_spec`, which reads rbw/vbw only for a noisy trace.
    """
    rows = [_ELEMENTS.get(type(st)) for st in spec.statements]
    declared = frozenset(spec.modes)
    for row, st in zip(rows, spec.statements):
        if row is None:
            raise TypeError(f"unknown statement type {type(st).__name__}")
        _after_values(row, st, row.check, declared, {}, None)
    _after_values(_MEASUREMENT, spec.measurement, None, declared, {}, None)
    return rows


def _statement_text(row, st):
    """Keyword, mode names, then `key=value` for each key that differs from its field default."""
    words = [row.keyword, *(str(getattr(st, name)) for name in row.mode_fields)]
    for key in row.keys:
        value = getattr(st, key)
        if value != getattr(row.cls, key, MISSING):   # the class attribute is the field default
            words.append(f"{key}={_KEYS[key][1](value)}")
    return " ".join(words)


def pretty_print(spec):
    """Canonical text for a CircuitSpec; parses back to an identical spec."""
    out = [VERSION_HEADER, "modes: " + " ".join(spec.modes)]
    out += [_statement_text(row, st) for row, st in zip(_element_rows(spec), spec.statements)]
    out.append(_statement_text(_MEASUREMENT, spec.measurement))
    return "\n".join(out) + "\n"


def compile_spec(spec):
    """Compile a CircuitSpec to an ordered GaussianChannel list and a MeasurementPlan."""
    rows = _element_rows(spec)
    n = len(spec.modes)
    index = {name: i for i, name in enumerate(spec.modes)}
    channels = [row.channel(n, index, st) for row, st in zip(rows, spec.statements)]
    m = spec.measurement
    return channels, MeasurementPlan(mode=index[m.mode], phases=phase_grid(*m.sweep))
