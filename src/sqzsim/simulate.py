"""End-to-end netlist simulation: compile, propagate, sweep, report.

The report's raw values are the extrema of the noiseless model trace; when
estimator noise is synthesized the reported uncertainty is the model
scatter sqrt(2/M) * 10/ln(10) dB per point.
"""

import math
from dataclasses import replace

from .budget import build_report
from .gaussian import vacuum
from .homodyne import effective_efficiency, sweep, synthesize_trace
from .netlist import Loss, compile_spec


def _propagate(spec):
    """Compile a spec and push vacuum through its channels: (output state, plan)."""
    channels, plan = compile_spec(spec)
    state = vacuum(len(spec.modes))
    for channel in channels:
        state = channel.apply(state)
    return state, plan


def output_state(spec):
    """State of all declared modes after the compiled channel sequence."""
    return _propagate(spec)[0]


def _measured_losses(spec):
    measured = spec.measurement.mode
    return [st for st in spec.statements if isinstance(st, Loss) and st.mode == measured]


def budget_factors(spec):
    """Per-factor efficiency table for a spec's measured mode.

    Labelled losses report under their labels (unlabelled ones as
    `anonymous`, suffixed when repeated); the homodyne chain contributes
    photodiode, electronics and any non-unit imbalance or visibility terms.
    """
    table = {}
    for st in _measured_losses(spec):
        base = st.label if st.label is not None else "anonymous"
        name, k = base, 2
        while name in table:
            name, k = f"{base}_{k}", k + 1
        table[name] = st.eta
    m = spec.measurement
    imbalance = 4.0 * m.ratio * (1.0 - m.ratio)
    if imbalance != 1.0:
        table["coupler_imbalance"] = imbalance
    if m.visibility != 1.0:
        table["visibility"] = m.visibility**2
    table["photodiode"] = m.eta_pd
    table["electronics"] = m.eta_e
    return table


def run_spec(spec, noiseless=True, seed=None):
    """Simulate a parsed netlist; returns (trace, report).

    The returned trace is noisy when `noiseless` is false, in which case a
    seed is required for reproducibility.
    """
    state, plan = _propagate(spec)
    model = sweep(state, plan.mode, plan.config, plan.phases)
    raw_sq_db, raw_asq_db = float(model.variance_db.min()), float(model.variance_db.max())
    if not (math.isfinite(raw_sq_db) and math.isfinite(raw_asq_db)):
        # states are not re-checked after each channel, so rounding loss at
        # squeezing beyond double precision surfaces here, at the output
        raise ValueError("model trace is not finite: squeezing beyond double precision")
    if noiseless:
        trace = model
        unc_db = 0.0
    else:
        trace = synthesize_trace(model, replace(plan.config, seed=seed))
        m_samples = plan.config.rbw / plan.config.vbw
        unc_db = math.sqrt(2.0 / m_samples) * 10.0 / math.log(10.0)

    losses = [st.eta for st in _measured_losses(spec)]
    eta_total = math.prod([effective_efficiency(plan.config), *losses])
    report = build_report(raw_sq_db, raw_asq_db, unc_db, eta=eta_total, factors=budget_factors(spec))
    return trace, report
