"""Balanced homodyne detection of one mode of a Gaussian state.

The detection chain (coupler imbalance, photodiodes, electronics, mode
matching) collapses to a single effective efficiency applied as a loss in
front of an ideal quadrature measurement. Spectrum-analyser traces are
noiseless variance-vs-phase sweeps in dB, optionally dressed with the
finite RBW/VBW estimator scatter.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .conversions import from_db, to_db
from .gaussian import apply_loss, quadrature_variance


@dataclass(frozen=True)
class HomodyneConfig:
    """Detection-chain settings; bandwidths in Hz."""

    eta_pd: float
    eta_e: float
    coupler_ratio: float
    visibility: float = 1.0
    rbw: float = 1.0e5
    vbw: float = 30.0
    seed: int | None = None

    def __post_init__(self):
        for name in ("eta_pd", "eta_e", "coupler_ratio", "visibility"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not self.vbw > 0.0 or self.rbw < self.vbw:
            raise ValueError("need rbw >= vbw > 0")


@dataclass(frozen=True, eq=False)
class HomodyneTrace:
    """Sampled (LO phase, variance in dB) series with its detection config."""

    phases: np.ndarray
    variance_db: np.ndarray
    config: HomodyneConfig
    noiseless: bool

    def __post_init__(self):
        phases = np.array(self.phases, dtype=float)
        variance_db = np.array(self.variance_db, dtype=float)
        if phases.ndim != 1 or phases.shape != variance_db.shape:
            raise ValueError("phases and variance_db must be 1-D arrays of equal length")
        phases.setflags(write=False)
        variance_db.setflags(write=False)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "variance_db", variance_db)


def detection_factors(config):
    """Name -> efficiency table of the detection chain, in multiplication order.

    The imbalance 4R(1-R) and mode-matching v^2 terms appear only when not 1.
    """
    table = {}
    imbalance = 4.0 * config.coupler_ratio * (1.0 - config.coupler_ratio)
    if imbalance != 1.0:
        table["coupler_imbalance"] = imbalance
    if config.visibility != 1.0:
        table["visibility"] = config.visibility**2
    table["photodiode"] = config.eta_pd
    table["electronics"] = config.eta_e
    return table


def effective_efficiency(config):
    """Total homodyne efficiency 4R(1-R) * v^2 * eta_pd * eta_e."""
    return math.prod(detection_factors(config).values())


def measure_variance(state, mode, theta, config):
    """Measured quadrature variance: eta_hd * V(theta) + (1 - eta_hd)."""
    eta = effective_efficiency(config)
    return quadrature_variance(apply_loss(state, mode, eta), mode, theta)


def phase_grid(a, b, n):
    """n equally spaced LO phases from a (inclusive) to b (exclusive)."""
    return a + (b - a) / n * np.arange(n)


def _resolve_phases(phase_spec):
    if isinstance(phase_spec, tuple) and len(phase_spec) == 3:
        a, b, n = phase_spec
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError("sweep needs at least 2 points")
        return phase_grid(a, b, n)
    phases = np.asarray(phase_spec, dtype=float)
    if phases.ndim != 1 or phases.size < 2:
        raise ValueError("sweep needs at least 2 points")
    return phases


def sweep(state, mode, config, phase_spec):
    """Noiseless variance-vs-phase trace in dB over `phase_spec` = (a, b, n) or an array."""
    phases = _resolve_phases(phase_spec)
    detected = apply_loss(state, mode, effective_efficiency(config))
    db = np.array([to_db(quadrature_variance(detected, mode, theta)) for theta in phases])
    return HomodyneTrace(phases=phases, variance_db=db, config=config, noiseless=True)


def synthesize_trace(trace, config=None):
    """Dress a noiseless trace with spectrum-analyser estimator scatter.

    Each point's linear variance is multiplied by an independent factor of
    mean 1 and relative standard deviation sqrt(2/M), M = rbw/vbw, drawn
    from the seeded generator in `config` (defaults to the trace's own).
    """
    config = trace.config if config is None else config
    if config.seed is None:
        raise ValueError("a seed is required to synthesize estimator noise")
    m_samples = config.rbw / config.vbw
    sigma = np.sqrt(2.0 / m_samples)
    rng = np.random.default_rng(config.seed)
    factors = 1.0 + sigma * rng.standard_normal(trace.variance_db.size)
    linear = from_db(trace.variance_db) * factors
    linear = np.maximum(linear, 1e-300)  # keeps the dB conversion finite at absurd M
    return HomodyneTrace(phases=trace.phases, variance_db=to_db(linear),
                         config=config, noiseless=False)


def write_trace_csv(trace, target):
    """Write `phase_rad,variance_db` CSV rows (LF endings, `.` decimal point)."""
    text = "phase_rad,variance_db\n" + "".join(
        f"{float(p)!r},{float(v)!r}\n" for p, v in zip(trace.phases, trace.variance_db)
    )
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    elif isinstance(target, io.TextIOBase):
        target.write(text)
    else:
        target.write(text.encode("utf-8"))
    return text
