"""End-to-end netlist simulation: compile, propagate, sweep, report.

The report's raw values are the extrema of the noiseless model trace; when
estimator noise is synthesized the reported uncertainty is the model
scatter sqrt(2/M) * 10/ln(10) dB per point.
"""

import math

import numpy as np

from .budget import build_report
from .gaussian import vacuum
from .homodyne import detection_factors, effective_efficiency, sweep, synthesize_trace
from .netlist import Loss, compile_spec


def _propagate(spec):
    """Compile a spec and push vacuum through its channels: (output state, plan).

    A channel or state that overflows raises ValueError, so numpy's own
    overflow warnings are silenced here rather than printed ahead of it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        channels, plan = compile_spec(spec)
        state = vacuum(len(spec.modes))
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
    is valid by construction, so nothing here re-checks it. A model trace
    that is not finite (squeezing beyond double precision leaves a variance
    at or below 0) is rejected by `build_report`, not warned about by numpy.
    """
    m = spec.measurement
    eta = effective_efficiency(m)
    state, plan = _propagate(spec)
    model = sweep(state, plan.mode, eta, plan.phases)
    if noiseless:
        trace = model
        unc_db = 0.0
    else:
        m_samples = m.rbw / m.vbw
        trace = synthesize_trace(model, m_samples, seed)
        unc_db = math.sqrt(2.0 / m_samples) * 10.0 / math.log(10.0)
    report = build_report(float(model.variance_db.min()), float(model.variance_db.max()),
                          unc_db, factors=budget_factors(spec))
    return trace, report
