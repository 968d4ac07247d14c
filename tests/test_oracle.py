"""sqzsim's traces against the 60-digit mpmath forward model in `oracle.py`, within 1e-12 dB."""

import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from conftest import benchmark_module
from sqzsim import (
    CircuitSpec,
    Coupler,
    Homodyne,
    Loss,
    PhaseShift,
    Squeezer,
    data_path,
    output_state,
    parse,
    phase_grid,
    run_spec,
)
from test_digest import GOLDEN, _runs

TOL_DB = 1e-12


def _check(spec, trace, report):
    """The noiseless `trace` and `report` of `spec` are the oracle's, point by point."""
    want = oracle.forward(spec, phase_grid(*spec.measurement.sweep))
    assert max(abs(got - float(db)) for got, db in zip(trace.variance_db.tolist(), want.trace_db)) <= TOL_DB
    assert abs(report.raw_sq_db - float(want.raw_sq_db)) <= TOL_DB
    assert abs(report.raw_asq_db - float(want.raw_asq_db)) <= TOL_DB
    return want


def test_paper_chip_is_the_oracles():
    spec = parse(data_path("paper_chip.nl").read_text())
    _check(spec, *run_spec(spec))


def test_stress_chip_is_the_oracles():
    spec = parse(benchmark_module("workloads").stress_chip(401).text)
    _check(spec, *run_spec(spec))


def test_coupler_ring_is_the_oracles():
    # flipping every coupler's sign convention changes, on couplers that close no odd
    # ring, only the signs of some modes, which no variance sees; around three it shows
    spec = parse("modes: a b c\nsqueezer a r=1\nsqueezer b r=0.7 phase=0.5\ncoupler a b ratio=0.3\n"
                 "coupler b c ratio=0.6\ncoupler a c ratio=0.4\n"
                 "homodyne c eta_pd=1 eta_e=1 ratio=0.5 sweep=0:3:8")
    _check(spec, *run_spec(spec))


def test_feasible_digest_specs_are_the_oracles():
    feasible = json.loads(GOLDEN.read_text(encoding="utf-8"))["raw_db"]
    checked = 0
    for name, spec, noiseless, _ in _runs():
        if noiseless and name in feasible:
            _check(spec, *run_spec(spec))
            checked += 1
    assert checked == sum(name.endswith("/noiseless") for name in feasible)


_UNIT = st.floats(0.0, 1.0)
_ANGLE = st.floats(-7.0, 7.0)


@st.composite
def _small_chips(draw):
    """A spec of at most 3 modes and 6 statements, every squeezer at r <= 1.2."""
    modes = tuple(f"m{i}" for i in range(draw(st.integers(1, 3))))
    names = st.sampled_from(modes)
    statements = []
    for _ in range(draw(st.integers(0, 6))):
        cls = draw(st.sampled_from([Squeezer, PhaseShift, Loss] + [Coupler] * (len(modes) > 1)))
        mode = draw(names)
        if cls is Squeezer:   # 0.08 * sqrt(200) = 1.13
            source = ({"r": draw(st.floats(0.0, 1.2))} if draw(st.booleans())
                      else {"pump_mw": draw(st.floats(0.0, 200.0)), "gain": draw(st.floats(0.0, 0.08))})
            statements.append(Squeezer(mode=mode, phase=draw(_ANGLE), excess=draw(st.floats(1.0, 1.5)), **source))
        elif cls is PhaseShift:
            statements.append(PhaseShift(mode=mode, theta=draw(_ANGLE)))
        elif cls is Coupler:
            other = draw(names.filter(lambda name: name != mode))
            statements.append(Coupler(mode_a=mode, mode_b=other, ratio=draw(_UNIT)))
        else:
            statements.append(Loss(mode=mode, eta=draw(st.floats(0.2, 1.0))))
    start = draw(_ANGLE)
    sweep = (start, start + draw(st.floats(0.5, 7.0)), draw(st.integers(2, 48)))
    measurement = Homodyne(mode=draw(names), eta_pd=draw(st.floats(0.5, 1.0)), eta_e=draw(st.floats(0.5, 1.0)),
                           ratio=draw(st.floats(0.2, 0.8)), visibility=draw(st.floats(0.8, 1.0)), sweep=sweep)
    return CircuitSpec(modes=modes, statements=tuple(statements), measurement=measurement)


@settings(max_examples=40)
@given(_small_chips())
def test_small_chips_are_the_oracles(spec):
    try:
        trace, report = run_spec(spec)
    except ValueError as exc:   # the budget inversion refuses a trace below its loss floor
        assert "infeasible" in str(exc)
        assume(False)
    want = _check(spec, trace, report)
    # the measured mode's covariance eigenvalues, to 1e-12 of the larger
    q = 2 * spec.modes.index(spec.measurement.mode)
    got = np.linalg.eigvalsh(output_state(spec).cov[q:q + 2, q:q + 2])
    assert np.allclose(got, [float(value) for value in want.eigenvalues], rtol=0.0, atol=1e-12 * got[1])
