"""Balanced homodyne detection of one mode of a Gaussian state.

The detection chain (coupler imbalance, photodiodes, electronics, mode
matching) collapses to a single effective efficiency eta, so the detector
reads eta * V(theta) + (1 - eta) off the measured mode's 2x2 covariance
block. Spectrum-analyser traces are noiseless variance-vs-phase sweeps in
dB, optionally dressed with the finite RBW/VBW estimator scatter, which
depends only on M = rbw/vbw.

The sweep's phases (`phase_at`) and the CSV text (`trace_csv`) each have one
formula, for numpy arrays and for Python floats alike, so `simulate`'s
noiseless route, which runs without numpy, writes the bytes of its array
route. numpy is imported by the functions that compute with arrays, so
importing this module loads none.

A phase column depends on its sweep alone, so `trace_csv` keeps the text
of the last column it formatted, keyed by the column's exact float64 bits
(so a -0.0 phase never reads as 0.0): a process that writes one sweep
again and again formats its phases once. A column longer than
`netlist.MAX_SWEEP_POINTS`, the longest sweep the parser accepts, is
formatted but not kept, so the memo holds at most one column of that many
points. Only phases are kept; each call formats its dB column anew.
"""

from __future__ import annotations

import functools
import math
import struct

from . import gaussian, netlist   # netlist.MAX_SWEEP_POINTS is read at call time
from ._record import Record, read_only
from .conversions import check_unit, detected, from_db, to_db


class HomodyneTrace(Record, eq=False):
    """Sampled (LO phase, variance in dB) series."""

    phases: np.ndarray
    variance_db: np.ndarray

    def __post_init__(self):
        import numpy as np

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
    check_unit("eta", eta)
    return detected(gaussian.quadrature_variance(state, mode, theta), eta)


def phase_at(a, b, n, k):
    """LO phase k of n equally spaced ones from a (inclusive) to b (exclusive).

    `k` is an int or an integer array: one formula gives the same doubles either way.
    """
    return a + (b - a) / n * k


def phase_grid(a, b, n):
    """n equally spaced LO phases from a (inclusive) to b (exclusive), as an array."""
    import numpy as np

    return phase_at(a, b, n, np.arange(n))


def sweep(state, mode, eta, phases):
    """Noiseless trace in dB at efficiency eta over a 1-D array of at least 2 LO phases."""
    import numpy as np

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
    import numpy as np

    factors = np.random.default_rng(seed).gamma(m_samples / 2.0, 2.0 / m_samples,
                                                trace.variance_db.size)
    return HomodyneTrace(trace.phases, to_db(from_db(trace.variance_db) * factors))


@functools.lru_cache(maxsize=1)
def _phase_prefixes(bits):
    """Row prefixes `f"{p!r},"` of a phase column, from its float64 bytes: a hit and a miss
    read the same doubles, and a numpy scalar's repr is never used. A tuple, as every caller
    shares it."""
    return tuple([f"{p!r}," for p in struct.unpack(f"{len(bits) // 8}d", bits)])


def trace_csv(phases, variance_db):
    """`phase_rad,variance_db` CSV text (LF endings, `.` decimal point): row k is
    `f"{phases[k]!r},{variance_db[k]!r}\n"`.

    `phases` is a list of floats or a 1-D float array, `variance_db` a
    sequence of floats. The phase column's text comes from the memo of the
    module docstring, keyed by the column's float64 bytes, so the two forms
    of one column give the same bytes.
    """
    if isinstance(phases, list):
        bits = struct.pack(f"{len(phases)}d", *phases)
    else:
        bits = phases.astype(float, copy=False).tobytes()
    memo = _phase_prefixes if len(phases) <= netlist.MAX_SWEEP_POINTS else _phase_prefixes.__wrapped__
    prefixes = memo(bits)
    return "phase_rad,variance_db\n" + "".join([f"{p}{v!r}\n" for p, v in zip(prefixes, variance_db)])


def write_trace_csv(trace, stream):
    """Write a trace's `trace_csv` text to a text stream; return the text."""
    text = trace_csv(trace.phases, trace.variance_db.tolist())
    stream.write(text)
    return text
