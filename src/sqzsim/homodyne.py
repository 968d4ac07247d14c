"""Balanced homodyne detection of one mode of a Gaussian state.

The detection chain (coupler imbalance, photodiodes, electronics, mode
matching) collapses to a single effective efficiency eta, so the detector
reads eta * V(theta) + (1 - eta) off the measured mode's 2x2 covariance
block. Spectrum-analyser traces are noiseless variance-vs-phase sweeps in
dB, optionally dressed with the finite RBW/VBW estimator scatter, which
depends only on M = rbw/vbw.
"""

import math

import numpy as np

from ._record import Record, read_only
from .conversions import detected, from_db, to_db
from .gaussian import quadrature_variance


class HomodyneTrace(Record, eq=False):
    """Sampled (LO phase, variance in dB) series."""

    phases: np.ndarray
    variance_db: np.ndarray

    def __post_init__(self):
        phases = np.array(self.phases, dtype=float)
        variance_db = np.array(self.variance_db, dtype=float)
        if phases.ndim != 1 or phases.shape != variance_db.shape:
            raise ValueError("phases and variance_db must be 1-D arrays of equal length")
        vars(self).update(phases=read_only(phases), variance_db=read_only(variance_db))


def detection_factors(homodyne):
    """Name -> efficiency table of a `Homodyne` statement's chain, in multiplication order.

    The imbalance 4R(1-R) and mode-matching v^2 terms appear only when not 1.
    """
    table = {}
    imbalance = 4.0 * homodyne.ratio * (1.0 - homodyne.ratio)
    if imbalance != 1.0:
        table["coupler_imbalance"] = imbalance
    if homodyne.visibility != 1.0:
        table["visibility"] = homodyne.visibility**2
    table["photodiode"] = homodyne.eta_pd
    table["electronics"] = homodyne.eta_e
    return table


def effective_efficiency(homodyne):
    """Total homodyne efficiency 4R(1-R) * v^2 * eta_pd * eta_e of a `Homodyne` statement."""
    return math.prod(detection_factors(homodyne).values())


def measure_variance(state, mode, theta, eta):
    """Measured quadrature variance eta * V(theta) + (1 - eta) at detection efficiency eta.

    `theta` is a scalar (gives a float) or an array of LO phases; eta must
    lie in [0, 1].
    """
    return detected(quadrature_variance(state, mode, theta), eta)


def phase_grid(a, b, n):
    """n equally spaced LO phases from a (inclusive) to b (exclusive)."""
    return a + (b - a) / n * np.arange(n)


def sweep(state, mode, eta, phases):
    """Noiseless trace in dB at efficiency eta over a 1-D array of at least 2 LO phases."""
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size < 2:
        raise ValueError("sweep needs at least 2 points")
    return HomodyneTrace(phases, to_db(measure_variance(state, mode, phases, eta)))


def synthesize_trace(trace, m_samples, seed):
    """Dress a noiseless trace with spectrum-analyser estimator scatter.

    Each point's linear variance is multiplied by an independent
    Gamma(M/2, scale 2/M) factor, M = `m_samples` = rbw/vbw with
    1 <= M < inf: the mean of M chi-squared(1) power samples, so always
    positive, of mean 1 and variance 2/M. `seed` seeds the generator and
    is required.
    """
    if not 1.0 <= m_samples < math.inf:
        raise ValueError(f"need 1 <= M = rbw/vbw < inf, got M={m_samples!r}")
    if seed is None:
        raise ValueError("a seed is required to synthesize estimator noise")
    factors = np.random.default_rng(seed).gamma(m_samples / 2.0, 2.0 / m_samples,
                                                trace.variance_db.size)
    return HomodyneTrace(trace.phases, to_db(from_db(trace.variance_db) * factors))


def write_trace_csv(trace, stream):
    """Write `phase_rad,variance_db` CSV rows (LF endings, `.` decimal point) to a text stream; return the text."""
    text = "phase_rad,variance_db\n" + "".join(
        f"{p!r},{v!r}\n" for p, v in zip(trace.phases.tolist(), trace.variance_db.tolist())
    )
    stream.write(text)
    return text
