"""Balanced homodyne detection of one mode of a Gaussian state.

The detection chain (coupler imbalance, photodiodes, electronics, mode
matching) collapses to a single effective efficiency eta, so the detector
reads eta * V(theta) + (1 - eta) off the measured mode's 2x2 covariance
block. Spectrum-analyser traces are noiseless variance-vs-phase sweeps in
dB, optionally dressed with the finite RBW/VBW estimator scatter.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .conversions import from_db, to_db
from .gaussian import quadrature_variance


@dataclass(frozen=True)
class HomodyneConfig:
    """Detection-chain settings; bandwidths in Hz."""

    eta_pd: float
    eta_e: float
    coupler_ratio: float
    visibility: float = 1.0
    rbw: float = 1.0e5
    vbw: float = 30.0

    def __post_init__(self):
        for name in ("eta_pd", "eta_e", "coupler_ratio", "visibility"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not 0.0 < self.vbw <= self.rbw or not math.isfinite(self.rbw / self.vbw):
            raise ValueError("need rbw >= vbw > 0 with a finite rbw/vbw")


@dataclass(frozen=True, eq=False)
class HomodyneTrace:
    """Sampled (LO phase, variance in dB) series with its detection config."""

    phases: np.ndarray
    variance_db: np.ndarray
    config: HomodyneConfig

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
    """Measured quadrature variance eta * V(theta) + (1 - eta), eta = effective_efficiency.

    `theta` is a scalar (gives a float) or an array of LO phases.
    """
    eta = effective_efficiency(config)
    return eta * quadrature_variance(state, mode, theta) + (1.0 - eta)


def phase_grid(a, b, n):
    """n equally spaced LO phases from a (inclusive) to b (exclusive)."""
    return a + (b - a) / n * np.arange(n)


def sweep(state, mode, config, phases):
    """Noiseless variance-vs-phase trace in dB over a 1-D array of at least 2 LO phases."""
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size < 2:
        raise ValueError("sweep needs at least 2 points")
    return HomodyneTrace(phases, to_db(measure_variance(state, mode, phases, config)), config)


def synthesize_trace(trace, seed):
    """Dress a noiseless trace with spectrum-analyser estimator scatter.

    Each point's linear variance is multiplied by an independent
    Gamma(M/2, scale 2/M) factor, M = rbw/vbw of the trace's config: the
    mean of M chi-squared(1) power samples, so always positive, of mean 1
    and variance 2/M. `seed` seeds the generator and is required.
    """
    if seed is None:
        raise ValueError("a seed is required to synthesize estimator noise")
    m_samples = trace.config.rbw / trace.config.vbw
    factors = np.random.default_rng(seed).gamma(m_samples / 2.0, 2.0 / m_samples,
                                                trace.variance_db.size)
    return HomodyneTrace(trace.phases, to_db(from_db(trace.variance_db) * factors), trace.config)


def write_trace_csv(trace, target):
    """Write `phase_rad,variance_db` CSV rows (LF endings, `.` decimal point)."""
    text = "phase_rad,variance_db\n" + "".join(
        f"{p!r},{v!r}\n" for p, v in zip(trace.phases.tolist(), trace.variance_db.tolist())
    )
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    elif isinstance(target, io.TextIOBase):
        target.write(text)
    else:
        target.write(text.encode("utf-8"))
    return text
