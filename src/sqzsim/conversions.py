"""Decibel helpers shared across the package.

All variances are normalised to the vacuum (shot-noise) level, so
10*log10(V) is directly the dB value plotted on a squeezing trace.
Scalars come back as plain floats, arrays as arrays.
"""

import numpy as np


def _as_scalar_or_array(value):
    return float(value) if np.ndim(value) == 0 else value


def to_db(variance):
    """Convert a shot-noise-normalised variance to dB."""
    return _as_scalar_or_array(10.0 * np.log10(variance))


def from_db(db):
    """Convert a dB value back to a linear, shot-noise-normalised variance."""
    return _as_scalar_or_array(10.0 ** (np.asarray(db, dtype=float) / 10.0))

