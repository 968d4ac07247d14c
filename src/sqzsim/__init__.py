"""Gaussian-state simulation and loss-budget analysis for single-pass chip squeezing.

Models a waveguide squeezer feeding an on-chip coupler and a balanced
homodyne detector, with the full detection-efficiency budget, noiseless
and spectrum-analyser-style traces, and the inverse analysis that infers
the squeezing at the circuit output from measured dB values. Vacuum
quadrature variance is normalised to 1, so dB values read directly off
traces.
"""

from .budget import (
    EfficiencyBudget,
    InfeasibleMeasurementError,
    SqueezingReport,
    build_report,
    electronic_efficiency,
    extrapolate_squeezing,
    forward_measured,
    fresnel_efficiency,
    infer_generated,
    pump_to_r,
    purity_product,
    report_to_json,
    total_efficiency,
)
from .conversions import from_db, to_db
from .fock import (
    FockState,
    TruncationError,
    apply_loss_fock,
    mean_photons,
    quadrature_variance_fock,
    squeezed_vacuum_fock,
)
from .gaussian import (
    GaussianChannel,
    GaussianState,
    apply_coupler,
    apply_loss,
    apply_phaseshift,
    apply_squeezer,
    quadrature_variance,
    reduce_modes,
    symplectic_form,
    tensor,
    vacuum,
)
from .homodyne import (
    HomodyneTrace,
    detection_factors,
    effective_efficiency,
    measure_variance,
    phase_grid,
    sweep,
    synthesize_trace,
    write_trace_csv,
)
from .netlist import (
    CircuitSpec,
    Coupler,
    Homodyne,
    Loss,
    MeasurementPlan,
    NetlistParseError,
    PhaseShift,
    Squeezer,
    compile_spec,
    parse,
    pretty_print,
)
from .simulate import budget_factors, output_state, run_spec

__version__ = "0.1.0"


def data_path(name):
    """Path to a bundled data file such as `paper_chip.nl`."""
    from importlib.resources import files

    return files("sqzsim").joinpath("data", name)
