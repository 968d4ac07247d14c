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
phases from a (inclusive) to b (exclusive), with a != b, 2 <= n <=
MAX_SWEEP_POINTS (100000), a finite b - a and a step |b - a|/n above 2 ulp
of the larger bound, so that the phases are distinct and in order. A
squeezer is given either an explicit `r` or a pump power with a single-pass
gain (r = gain*sqrt(pump)); `excess` multiplies the antisqueezed variance
produced from vacuum, with 1.0 the pure minimum-uncertainty squeezer.
`center_freq` (Hz) and `sweep_time` (s) are analyser metadata: they must be
> 0 and round-trip through `pretty_print`, but no computation reads them.
Exactly one homodyne statement is required and nothing may follow it.
Numbers, sweep counts included, may be written in any script's decimal
digits (`r=٣` is r=3.0); `pretty_print` writes ASCII.

Each statement kind is one `_Statement` subclass, a frozen `_record.Record`
declared with its keyword. Its fields, its cross-field `_check`, its
`_block` builder and its `_back` step are what `parse`, `pretty_print`,
`compile_spec` and `simulate`'s backward walk read; `_KEYS` holds each
key's value rule once, and each class its key -> `read` table and its
required keys. A new element is one class. The statement records and
`CircuitSpec` check themselves on construction with the parser's rules,
so any spec is one `parse` accepts; `parse` reads and range-checks each
`key=value` token in one call, fills each statement's fields without its
constructor's checks and runs only its `_check`.

Errors carry a position and one of six kinds: unknown-keyword,
undeclared-mode, bad-number, out-of-range, duplicate-measurement,
missing-measurement. Structural problems (unknown or missing or repeated
parameters, duplicate mode declarations, statements after the measurement)
report unknown-keyword; a coupler naming the same mode twice reports
out-of-range. Parameter values are validated before mode references, so
`loss sig eta=1.2` is an out-of-range error even if `sig` is undeclared.
A line's tokens are its `str.split()` words; the token at fault and its
column are found from them only when an error reports them (`_column`).

`_back` is a statement's step of the backward (Heisenberg-picture) walk
that computes the measured quadrature's variance (see `simulate`). Each mode
in the measured mode's backward light cone carries a pair (w, alpha): the
quadrature's coefficient vector on that mode is R(alpha) w. The walk takes
the steps of the cone's statements alone (`simulate._cone`), so a step
never meets a statement whose modes the cone does not hold; a coupler's
mode that the cone does not hold yet enters it with w = 0. A step uses
`cos` and `sin` as given, numpy's or `math`'s, and otherwise only +, - and
*, so the same step runs on an array of all LO phases or on one float.
This module imports no numpy.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple

from . import budget, gaussian, homodyne   # looked up at call time: parsing runs neither of the last two
from ._record import MISSING, Record
from .conversions import squeezer_scales

VERSION_HEADER = "# sqzsim netlist v1"
MAX_SWEEP_POINTS = 100_000

_IDENT = re.compile(r"[a-z][a-z0-9_]*\Z")
_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")
_INT = re.compile(r"\d+\Z")


class NetlistParseError(Exception):
    """Positioned parse failure; `kind` is one of the six documented kinds."""

    def __init__(self, kind, line, col, message):
        self.kind, self.line, self.col, self.message = kind, line, col, message
        super().__init__(f"line {line}, col {col}: {kind}: {message}")


class _StatementError(ValueError):
    """A line or a statement's fields are at fault; `parse` reports `kind` at the token `where` names (`_column`)."""

    def __init__(self, kind, where, message):
        super().__init__(message)
        self.kind, self.where = kind, where


def _err(kind, where, message):
    raise _StatementError(kind, where, message)


def _column(line, where):
    """1-based column of the token at fault in `line`: found again only when an error reports it.

    `where` is a token index, or field names of the line's statement: a
    mode field's token follows the keyword, in field order, and a
    parameter's is the first token that gives its key; the first of the
    fields that the line gives is at fault, else the keyword. The column
    is read off `str.split()` itself, whose last piece at maxsplit `where`
    is the text from that token on.
    """
    text = line.partition("#")[0]
    if not isinstance(where, int):
        tokens = text.split()
        modes = _KINDS[tokens[0]]._mode_fields
        at = {name: j for j, name in enumerate(modes, 1)}
        for j in range(len(modes) + 1, len(tokens)):
            at.setdefault(tokens[j].partition("=")[0], j)
        where = next((at[name] for name in where if name in at), 0)
    return len(text) - len(text.split(None, where)[where]) + 1


# a key's rule: `read(key, text)` reads a token's text and checks its range in one call, raising the
# parse error; `fault(key, value)` says what is wrong with a value given to a public constructor, or
# None; `write` prints a value. The errors name the key, whose token `_column` finds on error
_Key = namedtuple("_Key", "read fault write")


def _is_number(value):
    """A finite int or float that a double holds exactly, so that it prints and parses back as itself."""
    return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max and float(value) == value


def _number(low, high, rule):
    """Rule of a finite number in [low, high]; `rule` words the out-of-range error."""
    def read(key, text):
        try:
            value = float(text)   # takes every `_NUMBER` spelling, and `_`, inf and nan ones too
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or "_" in text:
            _err("bad-number", (key,), f"'{text}' is {'not finite' if _NUMBER.match(text) else 'not a number'}")
        if not low <= value <= high:
            _err("out-of-range", (key,), f"{key}={text} {rule}")
        return value

    def fault(key, value):
        if not _is_number(value):
            return f"{key}={value!r} is not a finite int or float that a double holds exactly"
        return None if low <= value <= high else f"{key}={value!r} {rule}"
    return _Key(read, fault, _fmt)


def _label_fault(key, value):
    return None if isinstance(value, str) and _IDENT.match(value) else f"label '{value}' must be a lowercase identifier"


def _read_label(key, text):
    if message := _label_fault(key, text):
        _err("unknown-keyword", (key,), message)
    return text


def _read_sweep(key, text):
    parts = text.split(":")
    if len(parts) != 3:
        _err("bad-number", (key,), f"sweep '{text}' must have the form a:b:n")
    if not _NUMBER.match(parts[0]) or not _NUMBER.match(parts[1]):
        _err("bad-number", (key,), f"sweep bounds in '{text}' are not numbers")
    a, b = float(parts[0]), float(parts[1])
    if not math.isfinite(a) or not math.isfinite(b):
        _err("bad-number", (key,), f"sweep bounds in '{text}' are not finite")
    if not _INT.match(parts[2]):
        _err("bad-number", (key,), f"sweep count in '{text}' is not an integer")
    # leading zeros go by value, in any script: each script's ten digits run from its zero
    digits = parts[2].lstrip("".join({chr(ord(c) - int(c)) for c in set(parts[2])})) or "0"
    # int() refuses strings longer than 4300 digits; a count that long is over the cap anyway
    n = int(digits) if len(digits) <= len(str(MAX_SWEEP_POINTS)) else MAX_SWEEP_POINTS + 1
    if (message := _sweep_fault(key, (a, b, n), f"'{text}'")) is not None:
        _err("out-of-range", (key,), message)
    return (a, b, n)


def _sweep_fault(key, value, shown=None):
    """What is wrong with `value` as a sweep, or None; `shown` quotes the token's text, if it was read."""
    if not (isinstance(value, tuple) and len(value) == 3 and _is_number(value[0]) and _is_number(value[1])
            and type(value[2]) is int):
        return f"sweep {value!r} must be a tuple (a, b, n) of two finite numbers and an int"
    a, b, n = float(value[0]), float(value[1]), value[2]
    shown = shown or repr(value)
    if n > MAX_SWEEP_POINTS:
        return f"sweep count in {shown} exceeds {MAX_SWEEP_POINTS}"
    if n < 2:
        return f"sweep needs at least 2 points, got {n}"
    if a == b:
        return f"sweep {shown} has equal bounds"
    if not (math.isfinite(b - a) and abs(b - a) / n > 2.0 * math.ulp(max(abs(a), abs(b)))):
        return f"sweep {shown} needs a finite b - a and a step |b - a|/n above 2 ulp of its bounds"
    return None


def _fmt(value):
    return repr(float(value))


_IN_0_1 = _number(0.0, 1.0, "outside [0, 1]")
_AT_LEAST_0 = _number(0.0, math.inf, "must be >= 0")
_ABOVE_0 = _number(math.ulp(0.0), math.inf, "must be > 0")   # the least double above 0
_ANGLE = _number(-math.inf, math.inf, "")

# the one home of each key's range, shared by every statement that takes the key
_KEYS = {
    "r": _AT_LEAST_0, "pump_mw": _AT_LEAST_0, "gain": _AT_LEAST_0,
    "phase": _ANGLE, "theta": _ANGLE,
    "excess": _number(1.0, math.inf, "must be >= 1"),
    "eta": _IN_0_1, "ratio": _IN_0_1, "eta_pd": _IN_0_1, "eta_e": _IN_0_1, "visibility": _IN_0_1,
    "rbw": _ABOVE_0, "vbw": _ABOVE_0, "center_freq": _ABOVE_0, "sweep_time": _ABOVE_0,
    "label": _Key(_read_label, _label_fault, str),
    "sweep": _Key(_read_sweep, _sweep_fault, lambda sweep: f"{_fmt(sweep[0])}:{_fmt(sweep[1])}:{sweep[2]}"),
}


def _missing(keyword, keys):
    return _StatementError("unknown-keyword", (), f"{keyword} is missing required parameter(s) {', '.join(keys)}")


FRAME_LIMIT = 64.0   # rad: a larger angle enters the backward walk reduced to one turn


def frame_angle(angle):
    """`angle` (a number, or a numpy array of LO phases) as the backward walk carries it in a frame angle alpha.

    Up to FRAME_LIMIT in size, the angle itself: frame angles are only
    added and subtracted, so shifts along one axis compose to exactly 0. A
    larger one, next to which a small angle's last bits would round away,
    is reduced to (-pi, pi] through `math`'s exact argument reduction. An
    array none of whose angles is larger comes back as it is; otherwise
    each angle is reduced as a number would be.
    """
    if not isinstance(angle, (int, float)):
        if -FRAME_LIMIT <= angle.min() and angle.max() <= FRAME_LIMIT:
            return angle
        reduced = angle.copy()
        reduced[:] = [frame_angle(x) for x in angle.tolist()]
        return reduced
    return angle if -FRAME_LIMIT <= angle <= FRAME_LIMIT else math.atan2(math.sin(angle), math.cos(angle))


_KINDS = {}   # keyword -> statement class, filled as each class is declared


class _Statement(Record):
    """Base of the statement kinds, one class each: `class Loss(_Statement, keyword="loss")`.

    Fields with a `_KEYS` rule are the kind's parameters; the others name modes. `_readers` maps each
    parameter to its rule's `read` and `_required` holds those without a `Record._defaults` entry.
    `_block(at)` is its raw channel block for `gaussian._layered`, `at` giving a mode's index.
    `_back(cone, cos, sin)` is its backward step, taken only for a statement in the measured
    mode's backward light cone (`simulate._cone`), so `cone` holds its mode (a coupler's, one
    of its two at least, the other entering with w = 0): it updates the (w1, w2, alpha) of its
    modes there and returns the variance it adds to the measured quadrature, or None when it adds none.
    Construction checks mode fields are str and each other field that is not its default obeys its
    `_KEYS` rule's `fault`, then runs `_check`; `pretty_print` writes the fields that differ from it.
    """

    def __init_subclass__(cls, keyword, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._keyword = keyword
        cls._mode_fields = tuple(name for name, _ in cls._fields if name not in _KEYS)
        cls._readers = {name: _KEYS[name].read for name, _ in cls._fields if name in _KEYS}
        cls._required = frozenset(cls._readers.keys() - cls._defaults.keys())
        _KINDS[keyword] = cls

    def __post_init__(self):
        for name in self._mode_fields:
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name}={getattr(self, name)!r} is not a mode name")
        for key in self._readers:
            value = getattr(self, key)
            if value is not self._defaults.get(key, MISSING) and (message := _KEYS[key].fault(key, value)):
                raise ValueError(message)
        self._check()

    def _check(self):
        """Raises _StatementError when the fields disagree; a kind with such a rule overrides it."""


class Squeezer(_Statement, keyword="squeezer"):
    mode: str
    r: float | None = None
    pump_mw: float | None = None
    gain: float | None = None
    phase: float = 0.0
    excess: float = 1.0

    def effective_r(self):
        return self.r if self.r is not None else budget.pump_to_r(self.pump_mw, self.gain)

    def _check(self):
        if self.r is not None:
            if self.pump_mw is not None or self.gain is not None:
                raise _StatementError("unknown-keyword", ("r",), "give either r or pump_mw with gain, not both")
        elif self.pump_mw is None or self.gain is None:
            raise _missing("squeezer", [key for key in ("pump_mw", "gain") if getattr(self, key) is None])

    def _block(self, at):
        return (at[self.mode],), *gaussian._squeezer_block(self.effective_r(), self.phase, self.excess)

    def _back(self, cone, cos, sin):
        """y = R(alpha - phase) w; adds (excess - 1)(e^r y2)^2, then w = (e^-r y1, e^r y2), alpha = phase.

        The angle is one subtraction, so a phase on the squeezer's axis gives y2 = 0 exactly.
        Raises the error of `gaussian._squeezer_block` for the same r and excess.
        """
        w1, w2, alpha = cone[self.mode]
        shrink, grow, _ = squeezer_scales(self.effective_r(), self.excess)
        phase = frame_angle(self.phase)
        d = alpha - phase
        c, s = cos(d), sin(d)
        y2 = grow * (s * w1 + c * w2)
        cone[self.mode] = (shrink * (c * w1 - s * w2), y2, phase)
        return None if self.excess == 1.0 else (self.excess - 1.0) * (y2 * y2)   # 0 * inf would be nan


class PhaseShift(_Statement, keyword="phaseshift"):
    mode: str
    theta: float

    def _block(self, at):
        return (at[self.mode],), *gaussian._phaseshift_block(self.theta)

    def _back(self, cone, cos, sin):
        """alpha = alpha - theta; w is not rotated, so shifts along one axis compose exactly."""
        w1, w2, alpha = cone[self.mode]
        cone[self.mode] = (w1, w2, alpha - frame_angle(self.theta))


class Coupler(_Statement, keyword="coupler"):
    mode_a: str
    mode_b: str
    ratio: float

    def _check(self):
        if self.mode_a == self.mode_b:
            raise _StatementError("out-of-range", ("mode_b",), "coupler requires two distinct modes")

    def _block(self, at):
        return (at[self.mode_a], at[self.mode_b]), *gaussian._coupler_block(self.ratio)

    def _back(self, cone, cos, sin):
        """w_b = R(alpha_b - alpha_a) w_b, then (w_a, w_b) = (t w_a - s w_b, s w_a + t w_b) at alpha_a.

        t = sqrt(ratio), s = sqrt(1 - ratio). A mode not yet in the cone enters with w = 0 in the
        other's frame: the result differs from dropping its terms only in the signs of zeros.
        """
        a, b = cone.get(self.mode_a), cone.get(self.mode_b)
        t, s = math.sqrt(self.ratio), math.sqrt(1.0 - self.ratio)
        a1, a2, alpha = a or (0.0, 0.0, b[2])
        b1, b2, beta = b or (0.0, 0.0, alpha)
        if beta is not alpha:   # one frame object: R(0) is the identity, and skipping it keeps float w floats
            d = beta - alpha
            c, r = cos(d), sin(d)
            b1, b2 = c * b1 - r * b2, r * b1 + c * b2
        cone[self.mode_a] = (t * a1 - s * b1, t * a2 - s * b2, alpha)
        cone[self.mode_b] = (s * a1 + t * b1, s * a2 + t * b2, alpha)


class Loss(_Statement, keyword="loss"):
    mode: str
    eta: float
    label: str | None = None

    def _block(self, at):
        return (at[self.mode],), *gaussian._loss_block(self.eta)

    def _back(self, cone, cos, sin):
        """Adds (1 - eta)|w|^2, then w = sqrt(eta) w."""
        w1, w2, alpha = cone[self.mode]
        t = math.sqrt(self.eta)
        cone[self.mode] = (t * w1, t * w2, alpha)
        return (1.0 - self.eta) * (w1 * w1 + w2 * w2)


class Homodyne(_Statement, keyword="homodyne"):
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

    def _check(self):
        if self.vbw > self.rbw:
            raise _StatementError("out-of-range", ("vbw", "rbw"), f"vbw={self.vbw} exceeds rbw={self.rbw}")
        if not math.isfinite(self.rbw / self.vbw):
            raise _StatementError("out-of-range", ("vbw", "rbw"),
                                  f"rbw/vbw overflows: rbw={self.rbw}, vbw={self.vbw}")


class CircuitSpec(Record):
    """Parsed netlist: declared modes, component statements in order, one measurement.

    `modes` must be distinct identifiers naming every mode used (else ValueError),
    `statements` a tuple of elements and `measurement` a `Homodyne` (else TypeError).
    """

    modes: tuple
    statements: tuple
    measurement: Homodyne

    def __post_init__(self):
        modes = self.modes
        if not (isinstance(modes, tuple) and modes
                and all(isinstance(name, str) and _IDENT.match(name) for name in modes)
                and len(set(modes)) == len(modes)):
            raise ValueError(f"modes must be a non-empty tuple of distinct lowercase identifiers, "
                             f"got {modes!r}")
        if not isinstance(self.statements, tuple):
            raise TypeError(f"statements must be a tuple, got {type(self.statements).__name__}")
        declared = frozenset(modes)
        for st in self.statements:
            if not isinstance(st, _Statement) or isinstance(st, Homodyne):
                raise TypeError(f"unknown statement type {type(st).__name__}")
            _check_declared(st, declared)
        if not isinstance(self.measurement, Homodyne):
            raise TypeError(f"measurement must be a Homodyne, got {type(self.measurement).__name__}")
        _check_declared(self.measurement, declared)


class MeasurementPlan(Record, eq=False):
    """Where to measure: mode index and LO phases."""

    mode: int
    phases: np.ndarray


def _check_declared(st, declared):
    for name in st._mode_fields:
        if getattr(st, name) not in declared:
            raise _StatementError("undeclared-mode", (name,), f"mode '{getattr(st, name)}' is not declared")


def _statement(kind, tokens, declared):
    """The `kind` statement of a line's tokens, keyword first.

    Checks mode names, each parameter's key then value, the required keys
    and the kind's `_check` before it looks up the modes' declarations.
    Raises _StatementError naming the token index, or the fields, at fault.
    """
    count = len(kind._mode_fields)
    if len(tokens) <= count:
        _err("unknown-keyword", 0, f"{tokens[0]} needs {count} mode name(s)")
    statement = object.__new__(kind)   # each value is checked as it is read, so no __post_init__
    values = statement.__dict__
    values.update(kind._defaults)
    for j, name in enumerate(kind._mode_fields, 1):
        if "=" in tokens[j]:
            _err("unknown-keyword", j, f"expected a mode name, got '{tokens[j]}'")
        values[name] = tokens[j]
    readers, given = kind._readers, set()
    for j in range(count + 1, len(tokens)):
        key, eq, text = tokens[j].partition("=")
        read = readers.get(key) if eq else None   # a bare known key is no key=value either
        if read is None:
            _err("unknown-keyword", j, f"unknown parameter '{key}'" if eq else f"expected key=value, got '{tokens[j]}'")
        if key in given:
            _err("unknown-keyword", j, f"duplicate parameter '{key}'")
        given.add(key)
        values[key] = read(key, text)
    if not kind._required <= given:
        raise _missing(tokens[0], [key for key in readers if key in kind._required and key not in given])
    statement._check()
    for name in kind._mode_fields:
        if values[name] not in declared:
            _err("undeclared-mode", (name,), f"mode '{values[name]}' is not declared")
    return statement


def parse(source):
    """Parse netlist text (str or UTF-8 bytes) into a CircuitSpec.

    Bytes may start with a byte-order mark, which is skipped; undecodable
    bytes are read as U+FFFD.

    Raises NetlistParseError with the position of the first offending token;
    never raises anything else, whatever the input.
    """
    if isinstance(source, (bytes, bytearray)):
        source = bytes(source).decode("utf-8-sig", errors="replace")
    lines = source.split("\n")
    declared = {}   # ordered, with O(1) lookups
    statements = []
    measurement = measurement_line = None

    try:
        for line_no, raw in enumerate(lines, start=1):
            tokens = raw.partition("#")[0].split()
            if not tokens:
                continue
            head = tokens[0]
            kind = _KINDS.get(head)
            if measurement is not None:
                if kind is Homodyne:
                    _err("duplicate-measurement", 0,
                         f"second homodyne statement (first on line {measurement_line})")
                _err("unknown-keyword", 0, "no statements allowed after the homodyne measurement")
            if head == "modes:":
                if len(tokens) == 1:
                    _err("unknown-keyword", 0, "modes: needs at least one identifier")
                for j, name in enumerate(tokens[1:], 1):
                    if not _IDENT.match(name):
                        _err("unknown-keyword", j, f"'{name}' is not a valid mode identifier")
                    if name in declared:
                        _err("unknown-keyword", j, f"duplicate mode declaration '{name}'")
                    declared[name] = None
            elif kind is None:
                _err("unknown-keyword", 0, f"unknown statement '{head}'")
            elif kind is Homodyne:
                measurement, measurement_line = _statement(kind, tokens, declared), line_no
            else:
                statements.append(_statement(kind, tokens, declared))
    except _StatementError as exc:
        raise NetlistParseError(exc.kind, line_no, _column(raw, exc.where), str(exc)) from None

    if measurement is None:
        raise NetlistParseError("missing-measurement", len(lines), 1,
                                "netlist has no homodyne measurement statement")
    # every part was checked on entry, so the spec's own checks would only repeat them
    return CircuitSpec._trusted(modes=tuple(declared), statements=tuple(statements), measurement=measurement)


def _statement_text(st):
    """Keyword, mode names, then `key=value` for each key that differs from its field default."""
    words = [st._keyword, *(str(getattr(st, name)) for name in st._mode_fields)]
    for key in st._readers:
        value = getattr(st, key)
        if value != st._defaults.get(key, MISSING):
            words.append(f"{key}={_KEYS[key].write(value)}")
    return " ".join(words)


def pretty_print(spec):
    """Canonical text for a CircuitSpec; parses back to an identical spec."""
    out = [VERSION_HEADER, "modes: " + " ".join(spec.modes)]
    out += [_statement_text(st) for st in spec.statements]
    out.append(_statement_text(spec.measurement))
    return "\n".join(out) + "\n"


def compile_spec(spec):
    """Compile a CircuitSpec to an ordered GaussianChannel list and a MeasurementPlan.

    Each channel is one layer of `gaussian._layered`: the block-diagonal
    sum of the blocks of statements on distinct modes, which commute.
    Applied in order, the channels give the state of the statements
    applied one by one, in fewer applies.
    """
    n = len(spec.modes)
    index = {name: i for i, name in enumerate(spec.modes)}
    channels = gaussian._layered(n, [st._block(index) for st in spec.statements])
    m = spec.measurement
    return channels, MeasurementPlan(mode=index[m.mode], phases=homodyne.phase_grid(*m.sweep))
