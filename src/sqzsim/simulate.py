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

Both routes run `_model`, whose walk is over numpy arrays, all phases at
once (`run_spec`), or over Python floats, one phase at a time.
`run_noiseless` (the CLI's `simulate --noiseless`) takes the float walk,
which loads no numpy, while sweep points x (cone statements + 1) is at most
FLOAT_WALK_LIMIT; past that, importing numpy costs less, and it takes the
array walk. Either walk takes its phases from `homodyne.phase_at` and hands
on a list of variances to one `to_db`, one finiteness check and one report,
so the routes give the same bits as long as numpy's `cos` and `sin` give
`math`'s, as they do where numpy calls the C library's.

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


def _model(cone, floats, unc_db=0.0):
    """(phases, dB values as a list, report) of a `_cone`'s model trace, walked over floats (the
    phases a list) or over arrays (the phases an array); ValueError when a dB value is not finite."""
    a, b, n = cone.measurement.sweep
    eta = effective_efficiency(cone.measurement)
    if floats:
        phases = [phase_at(a, b, n, k) for k in range(n)]
        variance = [detected(_walk(cone, theta, math.cos, math.sin), eta) for theta in phases]
    else:
        import numpy as np

        phases = phase_grid(a, b, n)
        with np.errstate(over="ignore", invalid="ignore"):   # a walk that overflows is rejected below
            variance = detected(_walk(cone, phases, np.cos, np.sin), eta).tolist()
    db = to_db(variance)
    # a finite dB value is within ~3300 dB of 0, so the sum is finite exactly when each value is
    if not math.isfinite(sum(db)):
        raise ValueError("model trace is not finite: the measured variance is beyond a double")
    return phases, db, build_report(min(db), max(db), unc_db, factors=budget_factors(cone))


def run_noiseless(spec):
    """(phases, dB values, report) of a noiseless run, the phases and values as lists of floats.

    They are those of `run_spec(spec)`, bit for bit. Up to FLOAT_WALK_LIMIT
    the walk of the cone is over Python floats and no numpy is loaded.
    """
    cone = _cone(spec)
    floats = spec.measurement.sweep[2] * (len(cone.statements) + 1) <= FLOAT_WALK_LIMIT
    phases, db, report = _model(cone, floats)
    return (phases if floats else phases.tolist()), db, report


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

    The trace is noisy when `noiseless` is false, and then needs a seed; a
    noiseless run takes none. Either mismatch is one ValueError before any
    work. Detection reads the measurement's eta and, for a noisy trace, its
    M = rbw/vbw; a `CircuitSpec` is valid by construction and not re-checked.
    The model trace and the report come first, from `_model`'s array walk of
    the measured mode's light cone (`_cone`); one that is not finite (a
    variance beyond a double) is a ValueError, not a numpy warning.

    After the walk, `compile_spec`, `GaussianChannel.apply` and `sweep` still
    run on the whole chip's forward state, unused but timed by the benchmark's
    per-layer metrics (and `tests/test_bench_spans.py`) until a benchmark
    change takes them off this path. Until then a chip whose dense state
    overflows outside the measured mode's cone, or does not fit in memory, is
    rejected here, while `run_noiseless` walks it.
    """
    if bool(noiseless) == (seed is not None):
        raise ValueError(f"a noisy run needs a seed and a noiseless one takes none, "
                         f"got noiseless={noiseless!r}, seed={seed!r}")
    import numpy as np

    m = spec.measurement
    m_samples = m.rbw / m.vbw
    unc_db = 0.0 if noiseless else math.sqrt(2.0 / m_samples) * 10.0 / math.log(10.0)
    phases, db, report = _model(_cone(spec), False, unc_db)
    state, plan = _propagate(spec)
    with np.errstate(over="ignore", invalid="ignore"):   # its output is not read
        sweep(state, plan.mode, effective_efficiency(m), plan.phases)   # timed by the benchmark
    model = HomodyneTrace(phases, db)
    trace = model if noiseless else synthesize_trace(model, m_samples, seed)
    return trace, report
