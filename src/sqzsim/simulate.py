"""End-to-end netlist simulation: the model trace by a backward walk, then the report.

The model trace is the variance the homodyne reads at each LO phase. It is
computed in the Heisenberg picture of the chip's Gaussian channels
(Weedbrook et al., *Gaussian quantum information*, RMP 84, 621 (2012)):
the measured quadrature walks back through the statements, each step
(`_back` in `netlist`) adding the variance its statement puts on it, and
the modes still in its backward light cone add their vacuum inputs at the
end. Every term is nonnegative, so nothing cancels, and a variance far
below what a forward covariance matrix resolves in a double is still
exact. The statements outside that cone cannot reach the measured mode,
so `_cone` cuts them away first, and the walk's work and memory follow
the cone, not the declared modes.

The walk runs over numpy arrays, all phases at once (`run_spec`), or over
Python floats, one phase at a time. `run_noiseless` (the CLI's `simulate
--noiseless`) takes the float walk, which loads no numpy, while sweep
points x (cone statements + 1) is at most FLOAT_WALK_LIMIT; past that, importing
numpy costs less than the float walk, and it takes the array walk. Both
walks take their phases from `homodyne.phase_at` and convert to dB through
`to_db` of a list, so they give the same bits as long as numpy's `cos` and
`sin` give `math`'s, as they do where numpy calls the C library's.

The report's raw values are the extrema of the noiseless model trace; when
estimator noise is synthesized the reported uncertainty is the model
scatter sqrt(2/M) * 10/ln(10) dB per point.
"""

import math

from . import gaussian
from .budget import build_report
from .conversions import detected, to_db
from .homodyne import (
    HomodyneTrace,
    detection_factors,
    effective_efficiency,
    phase_at,
    phase_grid,
    sweep,
    synthesize_trace,
)
from .netlist import CircuitSpec, Loss, compile_spec, frame_angle

# sweep points x (cone statements + 1) up to which a noiseless run walks over Python floats: the
# float walk costs ~0.5 us per unit, so near the limit it costs what importing numpy does
FLOAT_WALK_LIMIT = 80_000


def _cone(spec):
    """`spec` cut to the measured mode's backward light cone, one reverse scan.

    A statement on a mode of the cone is in it, and its modes join the cone
    (a coupler's other mode enters). The cut keeps those statements in
    order and their modes in declared order. The measured quadrature's
    variance, and the measured mode's state, are those of the whole spec;
    every statement on the measured mode is kept, so `budget_factors` reads
    the same table.
    """
    modes, kept = {spec.measurement.mode}, []
    for st in reversed(spec.statements):
        for name in st._mode_fields:   # most statements miss the cone, so no list is built for them
            if getattr(st, name) in modes:
                modes.update([getattr(st, field) for field in st._mode_fields])
                kept.append(st)
                break
    kept.reverse()
    return CircuitSpec._trusted(modes=tuple([name for name in spec.modes if name in modes]),
                                statements=tuple(kept), measurement=spec.measurement)


def _walk(spec, theta, cos, sin):
    """Variance V(theta) of the measured quadrature before detection, by the backward walk.

    `spec` is a `_cone`, so every step acts on a mode the walk carries.
    `theta` is one LO phase (a float, with `math.cos` and `math.sin`) or an
    array of them (with numpy's); the result takes its shape. The measured
    mode starts with w = (1, 0) at alpha = `frame_angle(theta)`.
    """
    cone = {spec.measurement.mode: (1.0, 0.0, frame_angle(theta))}   # mode -> (w1, w2, alpha)
    total = 0.0 * theta   # +-0, which leaves the first term it is added to as it is
    for st in reversed(spec.statements):
        term = st._back(cone, cos, sin)
        if term is not None:
            total = total + term
    for w1, w2, _ in cone.values():   # the vacuum inputs
        total = total + (w1 * w1 + w2 * w2)
    return total


def _float_trace(spec):
    """(phases, dB values) of the detected model trace as lists, walked one phase at a time."""
    m = spec.measurement
    a, b, n = m.sweep
    eta = effective_efficiency(m)
    phases = [phase_at(a, b, n, k) for k in range(n)]
    return phases, to_db([detected(_walk(spec, theta, math.cos, math.sin), eta) for theta in phases])


def _array_trace(spec):
    """(phases, dB values) of the detected model trace as numpy arrays, walked over all phases at once."""
    import numpy as np

    m = spec.measurement
    phases = phase_grid(*m.sweep)
    with np.errstate(over="ignore", invalid="ignore"):   # a walk that overflows is rejected by `_report`
        variance = detected(_walk(spec, phases, np.cos, np.sin), effective_efficiency(m))
    return phases, np.array(to_db(variance.tolist()))


def _report(spec, db, unc_db):
    """The report of a model trace's dB values, a list or an array; ValueError when one is not finite."""
    if isinstance(db, list):
        # a finite dB value is within ~3300 dB of 0, so the sum is finite exactly when each value is
        lo, hi, finite = min(db), max(db), math.isfinite(sum(db))
    else:   # numpy's extrema are NaN when a value is
        lo, hi = float(db.min()), float(db.max())
        finite = math.isfinite(lo) and math.isfinite(hi)
    if not finite:
        raise ValueError("model trace is not finite: the measured variance is beyond a double")
    return build_report(lo, hi, unc_db, factors=budget_factors(spec))


def run_noiseless(spec):
    """(phases, dB values, report) of a noiseless run, the phases and values as lists of floats.

    They are those of `run_spec(spec)`, bit for bit. Up to FLOAT_WALK_LIMIT
    the walk of the cone is over Python floats and no numpy is loaded.
    """
    cone = _cone(spec)
    floats = spec.measurement.sweep[2] * (len(cone.statements) + 1) <= FLOAT_WALK_LIMIT
    phases, db = _float_trace(cone) if floats else _array_trace(cone)
    report = _report(cone, db, 0.0)
    return (phases, db, report) if floats else (phases.tolist(), db.tolist(), report)


def _propagate(spec):
    """Compile a spec and push vacuum through its channels: (output state, plan).

    A channel or state that overflows raises ValueError, so numpy's own
    overflow warnings are silenced here rather than printed ahead of it.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        channels, plan = compile_spec(spec)
        state = gaussian.vacuum(len(spec.modes))
        for channel in channels:
            state = channel.apply(state)
    return state, plan


def output_state(spec):
    """State of all declared modes after the compiled channel sequence."""
    return _propagate(spec)[0]


def budget_factors(spec):
    """Efficiency table of a spec's measured mode, the one its report inverts with.

    The measured mode's losses in statement order (under their labels,
    `anonymous` when unlabelled), then the `detection_factors` of its
    homodyne. A name already in the table gets `_2`, `_3`, ... appended,
    so every factor keeps its own entry.
    """
    m = spec.measurement
    entries = [(st.label if st.label is not None else "anonymous", st.eta)
               for st in spec.statements if isinstance(st, Loss) and st.mode == m.mode]
    table = {}
    for base, eta in [*entries, *detection_factors(m).items()]:
        name, k = base, 2
        while name in table:
            name, k = f"{base}_{k}", k + 1
        table[name] = eta
    return table


def run_spec(spec, noiseless=True, seed=None):
    """Simulate a netlist's spec; returns (trace, report).

    The returned trace is noisy when `noiseless` is false, in which case a
    seed is required for reproducibility. Detection reads the measurement's
    efficiency eta and, for a noisy trace, its M = rbw/vbw. A `CircuitSpec`
    is valid by construction, so nothing here re-checks it. The model trace
    and the report come from the backward walk of the measured mode's light
    cone (`_cone`), which runs first; a model trace that is not finite (a
    variance beyond a double) is rejected, not warned about by numpy.

    After the walk, `compile_spec`, `GaussianChannel.apply` and `sweep`
    still run on the whole chip's forward state, and their output is not
    used: the benchmark's per-layer metrics (and `tests/test_bench_spans.py`)
    read their timings from those calls, until a benchmark change takes them
    off this path. Until then a chip whose dense state overflows outside the
    measured mode's cone, or does not fit in memory, is rejected here, while
    `run_noiseless` walks it.
    """
    import numpy as np

    m = spec.measurement
    m_samples = m.rbw / m.vbw
    unc_db = 0.0 if noiseless else math.sqrt(2.0 / m_samples) * 10.0 / math.log(10.0)
    cone = _cone(spec)
    phases, db = _array_trace(cone)
    report = _report(cone, db, unc_db)
    state, plan = _propagate(spec)
    with np.errstate(over="ignore", invalid="ignore"):   # its output is not read
        sweep(state, plan.mode, effective_efficiency(m), plan.phases)   # timed by the benchmark
    model = HomodyneTrace(phases, db)
    trace = model if noiseless else synthesize_trace(model, m_samples, seed)
    return trace, report
