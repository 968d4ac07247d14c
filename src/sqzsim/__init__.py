"""Gaussian-state simulation and loss-budget analysis for single-pass chip squeezing.

Models a waveguide squeezer feeding an on-chip coupler and a balanced
homodyne detector, with the full detection-efficiency budget, noiseless
and spectrum-analyser-style traces, and the inverse analysis that infers
the squeezing at the circuit output from measured dB values. Vacuum
quadrature variance is normalised to 1, so dB values read directly off
traces.

`import sqzsim` runs none of the modules below: each is registered in
`sys.modules` and runs on first attribute use, so a command runs only the
modules it calls, and numpy loads with the first array module that runs.
A public name is looked up in its module on every access and never
stored here, so `sqzsim.parse` is always what `sqzsim.netlist.parse` is now.
"""

from . import _lazy

# module -> the public names it exports through the package
_EXPORTS = {
    "budget": ("EfficiencyBudget", "InfeasibleMeasurementError", "SqueezingReport", "build_report",
        "electronic_efficiency", "extrapolate_squeezing", "forward_measured", "fresnel_efficiency",
        "infer_generated", "pump_to_r", "purity_product", "report_to_json", "total_efficiency"),
    "conversions": ("from_db", "to_db"),
    "fock": ("FockState", "TruncationError", "apply_loss_fock", "mean_photons",
        "quadrature_variance_fock", "squeezed_vacuum_fock"),
    "gaussian": ("GaussianChannel", "GaussianState", "apply_coupler", "apply_loss",
        "apply_phaseshift", "apply_squeezer", "quadrature_variance", "reduce_modes",
        "symplectic_form", "tensor", "vacuum"),
    "homodyne": ("HomodyneTrace", "detection_factors", "effective_efficiency", "measure_variance",
        "phase_grid", "sweep", "synthesize_trace", "write_trace_csv"),
    "netlist": ("CircuitSpec", "Coupler", "Homodyne", "Loss", "MeasurementPlan",
        "NetlistParseError", "PhaseShift", "Squeezer", "compile_spec", "parse", "pretty_print"),
    "simulate": ("budget_factors", "output_state", "run_spec"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "data_path"]
__version__ = "0.1.0"

for _module in _EXPORTS:
    _lazy.lazy_import(f"{__name__}.{_module}")
del _module


def __getattr__(name):
    """A public name, read from its module each time: stored here, a function patched in
    its module and then restored there would stay patched here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})


def data_path(name):
    """Path to a bundled data file such as `paper_chip.nl`."""
    from importlib.resources import files

    return files("sqzsim").joinpath("data", name)
