"""The backward walk that computes the model trace: against the 60-digit oracle, on both routes.

`simulate --noiseless` walks one phase at a time over Python floats (up
to `simulate.FLOAT_WALK_LIMIT`), and
`--seed` runs `run_spec`, which walks all phases at once over an array.
Both must print the oracle's numbers far past the squeezing that a forward
covariance matrix resolves in a double, and reject a chip past a double
with the same line. Both walk the measured mode's backward light cone
(`simulate._cone`) alone. Until `run_spec` stops building the dense state,
the two routes differ on chips that only the dense state cannot hold; those
cases are pinned here.
"""

import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
import sqzsim
from conftest import benchmark_module, random_circuit_spec
from sqzsim import (
    CircuitSpec,
    Coupler,
    Homodyne,
    Loss,
    PhaseShift,
    Squeezer,
    output_state,
    parse,
    phase_grid,
    run_spec,
)
from sqzsim.cli import main
from sqzsim.netlist import FRAME_LIMIT
from sqzsim.simulate import _cone, _model, run_noiseless

TOL_DB = 1e-9
SRC = str(Path(sqzsim.__file__).resolve().parent.parent)
ROUTES = {"noiseless": ["--noiseless"], "seeded": ["--seed", "1"]}
# enough digits that the oracle's forward covariance resolves the squeezed variance of six
# collinear squeezers at r = 15 (e^-180 next to e^180)
ORACLE_DIGITS = 200


def _oracle(spec):
    with oracle._mp.workdps(ORACLE_DIGITS):
        return oracle.forward(spec, phase_grid(*spec.measurement.sweep))


def _one_mode_chip(r):
    return f"modes: sig\nsqueezer sig r={r} phase=1.1\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=1.1:3.5:8\n"


_ANGLE = st.floats(-7.0, 7.0)


@st.composite
def _squeezed_chips(draw):
    """A spec of at most 3 modes and 6 statements, every squeezer at r <= 15; its sweep
    may start on a squeezer's axis."""
    modes = tuple(f"m{i}" for i in range(draw(st.integers(1, 3))))
    names = st.sampled_from(modes)
    statements, axes = [], [draw(_ANGLE)]
    for _ in range(draw(st.integers(0, 6))):
        cls = draw(st.sampled_from([Squeezer, Squeezer, PhaseShift, Loss] + [Coupler] * (len(modes) > 1)))
        mode = draw(names)
        if cls is Squeezer:
            phase = draw(st.sampled_from(axes) | _ANGLE)
            axes.append(phase)
            statements.append(Squeezer(mode=mode, r=draw(st.floats(0.0, 15.0)), phase=phase,
                                       excess=draw(st.sampled_from([1.0, 1.2]))))
        elif cls is PhaseShift:
            statements.append(PhaseShift(mode=mode, theta=draw(_ANGLE)))
        elif cls is Coupler:
            other = draw(names.filter(lambda name: name != mode))
            statements.append(Coupler(mode_a=mode, mode_b=other, ratio=draw(st.floats(0.0, 1.0))))
        else:
            statements.append(Loss(mode=mode, eta=draw(st.floats(0.2, 1.0))))
    start = draw(st.sampled_from(axes))
    sweep = (start, start + draw(st.floats(0.5, 7.0)), draw(st.integers(2, 24)))
    measurement = Homodyne(mode=draw(names), eta_pd=draw(st.sampled_from([1.0, 0.9])), eta_e=1.0,
                           ratio=0.5, sweep=sweep)
    return CircuitSpec(modes=modes, statements=tuple(statements), measurement=measurement)


@settings(max_examples=30)
@given(_squeezed_chips())
def test_walk_is_the_oracles_far_past_a_forward_double(spec):
    try:
        trace, report = run_spec(spec)
    except ValueError as exc:   # the budget inversion refuses a trace below its loss floor
        assert "infeasible" in str(exc)
        assume(False)
    want = _oracle(spec)
    assert max(abs(got - float(db)) for got, db in zip(trace.variance_db.tolist(), want.trace_db)) <= TOL_DB
    assert abs(report.raw_sq_db - float(want.raw_sq_db)) <= TOL_DB
    assert abs(report.raw_asq_db - float(want.raw_asq_db)) <= TOL_DB
    # the float route gives the array route's values bit for bit
    assert run_noiseless(spec) == (trace.phases.tolist(), trace.variance_db.tolist(), report)


@st.composite
def _chip_texts(draw):
    """Well-formed netlist text of at most 3 modes and 6 statements, every squeezer at r <= 15,
    given as `r` or as `pump_mw` with `gain`; its short sweep may start on a squeezer's axis."""
    modes = [f"m{i}" for i in range(draw(st.integers(1, 3)))]
    names = st.sampled_from(modes)
    kinds = ["squeezer", "squeezer", "phaseshift", "loss"] + ["coupler"] * (len(modes) > 1)
    lines, axes = ["modes: " + " ".join(modes)], [draw(_ANGLE)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        mode = draw(names)
        if kind == "squeezer":
            phase = draw(st.sampled_from(axes) | _ANGLE)
            axes.append(phase)
            if draw(st.booleans()):
                strength = f"r={draw(st.floats(0.0, 15.0))!r}"
            else:
                strength = f"pump_mw={draw(st.floats(0.0, 100.0))!r} gain={draw(st.floats(0.0, 1.5))!r}"
            excess = draw(st.sampled_from(["", " excess=1.2"]))
            lines.append(f"squeezer {mode} {strength} phase={phase!r}{excess}")
        elif kind == "phaseshift":
            lines.append(f"phaseshift {mode} theta={draw(_ANGLE)!r}")
        elif kind == "coupler":
            other = draw(names.filter(lambda name: name != mode))
            lines.append(f"coupler {mode} {other} ratio={draw(st.floats(0.0, 1.0))!r}")
        else:
            label = draw(st.sampled_from(["", " label=fresnel", " label=filter"]))
            lines.append(f"loss {mode} eta={draw(st.floats(0.2, 1.0))!r}{label}")
    start = draw(st.sampled_from(axes))
    sweep = f"{start!r}:{start + draw(st.floats(0.5, 7.0))!r}:{draw(st.integers(2, 24))}"
    eta_pd = draw(st.sampled_from(["1", "0.9"]))
    lines.append(f"homodyne {draw(names)} eta_pd={eta_pd} eta_e=1 ratio=0.5 sweep={sweep}")
    return "\n".join(lines) + "\n"


def _simulate_text(text, route):
    """(exit code, stdout, stderr, files left) of `main(["simulate", ...])` on a netlist text."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "chip.nl").write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["simulate", str(Path(tmp, "chip.nl")), *ROUTES[route],
                         "--csv", str(Path(tmp, "t.csv")), "--report", str(Path(tmp, "r.json"))])
        return code, out.getvalue(), err.getvalue(), sorted(os.listdir(tmp))


@settings(max_examples=30)
@given(_chip_texts())
def test_netlist_text_prints_the_oracles_extrema_on_both_routes(text):
    runs = [_simulate_text(text, route) for route in ROUTES]
    codes = {code for code, _, _, _ in runs}
    assert codes in ({0}, {2}), runs
    if codes == {2}:   # e.g. a trace below the budget's loss floor
        for _, out, err, files in runs:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert files == ["chip.nl"]
        return
    (printed,) = {out.splitlines()[-1] for _, out, _, _ in runs}
    extrema = re.fullmatch(r"raw squeezing (\S+) dB, antisqueezing (\S+) dB", printed)
    want = _oracle(parse(text))
    assert abs(float(extrema[1]) - float(want.raw_sq_db)) <= TOL_DB
    assert abs(float(extrema[2]) - float(want.raw_asq_db)) <= TOL_DB


def test_numpy_trig_gives_maths_bits_on_the_walks_angles():
    # the float walk and the array walk give the same bits only while numpy's float64 cos and sin
    # give math's, as they do where numpy calls the C library's: a numpy build with trig of its
    # own fails here, naming the cause, as well as in the byte-equality tests
    paper = parse(sqzsim.data_path("paper_chip.nl").read_text(encoding="utf-8"))
    angles = np.concatenate([phase_grid(*paper.measurement.sweep),
                             np.random.default_rng(26).uniform(-4 * FRAME_LIMIT, 4 * FRAME_LIMIT, 100_000)])
    values = angles.tolist()
    for np_trig, math_trig in ((np.cos, math.cos), (np.sin, math.sin)):
        want = [math_trig(x) for x in values]
        wrong = [x for x, got, bits in zip(values, np_trig(angles).tolist(), want) if got != bits]
        wrong += [x for x, bits in zip(values[:2000], want) if float(np_trig(x)) != bits]   # one at a time
        name = math_trig.__name__
        assert not wrong, f"np.{name} is not math.{name} at {len(wrong)} angles: {wrong[:3]}"


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("r,raw_sq_db", [
    (9, -78.17300674258533), (10, -86.85889638065036), (20, -173.71779276130073),
])
def test_far_squeezed_chip_prints_the_oracles_numbers(r, raw_sq_db, route, tmp_path, capsys):
    netlist, report = tmp_path / "chip.nl", tmp_path / "r.json"
    netlist.write_text(_one_mode_chip(r))
    assert main(["simulate", str(netlist), *ROUTES[route], "--csv", str(tmp_path / "t.csv"),
                 "--report", str(report)]) == 0
    got = json.loads(report.read_text())
    want = _oracle(parse(netlist.read_text()))
    assert abs(got["raw_sq_db"] - raw_sq_db) <= TOL_DB
    assert abs(got["raw_sq_db"] - float(want.raw_sq_db)) <= TOL_DB
    assert abs(got["raw_asq_db"] - float(want.raw_asq_db)) <= TOL_DB
    assert f"raw squeezing {got['raw_sq_db']!r} dB" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    # two shifts whose sum is beyond a double, on a squeezed mode
    "modes: sig\nsqueezer sig r=0.5\nphaseshift sig theta=1.7e308\nphaseshift sig theta=1.7e308\n"
    "homodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:3:8\n",
    # angles and LO phases whose last unit is far above a turn
    "modes: a b\nsqueezer a r=1 phase=1e17\nsqueezer b r=0.7 phase=-3e10\ncoupler a b ratio=0.3\n"
    "phaseshift a theta=123456.789\nhomodyne a eta_pd=0.9 eta_e=1 ratio=0.5 sweep=1e15:1.0000000000001e15:16\n",
])
def test_angles_far_beyond_a_turn_are_the_oracles(text):
    spec = parse(text)
    trace, report = run_spec(spec)
    want = _oracle(spec)
    assert max(abs(got - float(db)) for got, db in zip(trace.variance_db.tolist(), want.trace_db)) <= TOL_DB
    assert run_noiseless(spec) == (trace.phases.tolist(), trace.variance_db.tolist(), report)


@pytest.mark.parametrize("route", ROUTES)
def test_chip_past_a_double_on_the_measured_axis_is_one_error_line(route, tmp_path, capsys):
    # e^-800 and e^800: the measured variance underflows on the squeezer's axis and overflows off it
    netlist, csv = tmp_path / "chip.nl", tmp_path / "t.csv"
    netlist.write_text(_one_mode_chip(400))
    assert main(["simulate", str(netlist), *ROUTES[route], "--csv", str(csv),
                 "--report", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "error: model trace is not finite: the measured variance is beyond a double\n"
    assert not csv.exists()


def test_noiseless_chip_of_20000_modes_walks_its_cone_alone(tmp_path):
    # the dense vacuum alone would be 11.9 GiB, past the child's 2 GiB address space; a seeded
    # run still builds it and exits 2 (test_cli.py::test_simulate_beyond_memory_is_one_error_line)
    resource = pytest.importorskip("resource")
    netlist = tmp_path / "wide.nl"
    netlist.write_text("modes: " + " ".join(f"m{i}" for i in range(20000)) + "\nsqueezer m0 r=0.5\n"
                       "homodyne m0 eta_pd=0.9 eta_e=0.9 ratio=0.5 sweep=0:3:8\n")

    def limit_memory():   # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    done = subprocess.run([sys.executable, "-m", "sqzsim.cli", "simulate", str(netlist), "--noiseless",
                           "--csv", str(tmp_path / "t.csv"), "--report", str(tmp_path / "r.json")],
                          capture_output=True, text=True, timeout=120, preexec_fn=limit_memory,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    eta = 0.9 * 0.9
    db = [10.0 * math.log10(eta * (math.exp(-1.0) * math.cos(theta) ** 2 + math.exp(1.0) * math.sin(theta) ** 2)
                            + 1.0 - eta) for theta in (3.0 / 8.0 * k for k in range(8))]
    report = json.loads((tmp_path / "r.json").read_text())
    assert abs(report["raw_sq_db"] - min(db)) <= TOL_DB and abs(report["raw_asq_db"] - max(db)) <= TOL_DB


@pytest.mark.parametrize("route,code", [("noiseless", 0), ("seeded", 2)])
def test_squeezer_outside_the_cone_stops_only_the_dense_route(route, code, tmp_path, capsys):
    # the idler's e^800 overflows its channel block, and the measured mode never sees it; the
    # seeded route still compiles every statement into the dense state, so it refuses the chip
    # until run_spec runs the walk alone, which will make both routes exit 0
    netlist = tmp_path / "chip.nl"
    netlist.write_text("modes: sig idler\nsqueezer idler r=800\nsqueezer sig r=0.5\n"
                       "homodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:3.14:8\n")
    assert main(["simulate", str(netlist), *ROUTES[route], "--csv", str(tmp_path / "t.csv"),
                 "--report", str(tmp_path / "r.json")]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else "error: channel contains non-finite values\n")


def test_cone_keeps_the_statements_that_reach_the_measured_mode():
    # the squeezer reaches `a` through the coupler; the loss on `b` comes after it and never does
    spec = parse("modes: a b c\nsqueezer b r=0.5\nloss c eta=0.5\ncoupler a b ratio=0.3\nloss b eta=0.9\n"
                 "homodyne a eta_pd=0.9 eta_e=1 ratio=0.5 sweep=0:3:8\n")
    cone = _cone(spec)
    assert cone.modes == ("a", "b")
    assert cone.statements == (Squeezer(mode="b", r=0.5), Coupler(mode_a="a", mode_b="b", ratio=0.3))
    assert cone.measurement is spec.measurement


def _digest_specs():
    """The specs of `tests/test_digest.py`: the paper chip, `stress_chip(401)` and 400 random ones."""
    yield parse(sqzsim.data_path("paper_chip.nl").read_text())
    yield parse(benchmark_module("workloads").stress_chip(401).text)
    rng = np.random.default_rng(0)
    for _ in range(400):
        yield random_circuit_spec(rng)


def test_cone_gives_the_measured_modes_state():
    cut = 0
    for spec in _digest_specs():
        cone = _cone(spec)
        cut += len(cone.statements) < len(spec.statements)
        k, j = spec.modes.index(spec.measurement.mode), cone.modes.index(spec.measurement.mode)
        want = output_state(spec).cov[2 * k:2 * k + 2, 2 * k:2 * k + 2]
        got = output_state(cone).cov[2 * j:2 * j + 2, 2 * j:2 * j + 2]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert cut > 100   # the cut drops statements from many of them


def _noiseless_outcome(spec):
    """`run_noiseless(spec)`, or the type and message of the error it raises."""
    try:
        return run_noiseless(spec)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def test_both_walks_of_the_model_give_the_same_outcome(monkeypatch):
    # FLOAT_WALK_LIMIT 0 sends every run over arrays, inf every run over floats
    runs = {}
    for limit in (0, math.inf):
        monkeypatch.setattr(sqzsim.simulate, "FLOAT_WALK_LIMIT", limit)
        runs[limit] = [_noiseless_outcome(spec) for spec in _digest_specs()]
    for k, (arrays, floats) in enumerate(zip(runs[0], runs[math.inf], strict=True)):
        same = arrays == floats and repr(arrays) == repr(floats)   # repr tells -0.0 from 0.0
        assert same, f"digest spec {k}: the array walk gives {arrays!r:.200}, the float walk {floats!r:.200}"
    assert sum(isinstance(outcome[0], list) for outcome in runs[0]) > 300   # most of them run


@settings(max_examples=40)
@given(_chip_texts(), st.floats(0.05, 1.0))
def test_a_loss_before_the_detector_moves_each_point_toward_shot_noise(text, eta):
    spec = parse(text)
    body, homodyne = text.rsplit("homodyne", 1)
    lossy = parse(f"{body}loss {spec.measurement.mode} eta={eta!r}\nhomodyne{homodyne}")
    for floats in (True, False):
        try:
            before = _model(_cone(spec), floats)[1]
            after = _model(_cone(lossy), floats)[1]
        except ValueError as exc:   # the budget inversion refuses a trace below its loss floor
            assert "infeasible" in str(exc)
            assume(False)
        for old, new in zip(before, after, strict=True):
            assert old * new >= 0.0 or abs(new) <= 1e-12   # on the same side of shot noise
            assert abs(new) <= abs(old) + 1e-12
