"""The rules every layer shares: the [0, 1] efficiency check, the loss model and dB.

All variances are normalised to the vacuum (shot-noise) level: 10*log10(V) is
the dB value on a squeezing trace, and efficiency eta takes V to eta*V + (1 - eta).
Scalars come back as plain floats, arrays as arrays. An int or float goes
through `math`, anything else through numpy, imported in that branch alone, so
a scalar command never loads it.
Both branches give the same edge values without a warning: to_db is -inf at 0
and nan below 0, from_db is inf beyond a double.
"""

import math


def _as_scalar_or_array(value):
    """A numpy result as a float when it is 0-d, else as it is."""
    return float(value) if value.ndim == 0 else value


def check_unit(name, value):
    """Raise ValueError unless `value` lies in [0, 1]; NaN fails too."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def detected(v, eta):
    """Variance `v` (a scalar or an array) seen through a loss of efficiency eta in [0, 1]."""
    check_unit("eta", eta)
    return eta * v + (1.0 - eta)


def to_db(variance):
    """Convert a shot-noise-normalised variance to dB: -inf at 0, nan below 0 or at nan."""
    if isinstance(variance, (int, float)):
        if variance > 0.0:
            return 10.0 * math.log10(variance)
        return -math.inf if variance == 0.0 else math.nan
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        return _as_scalar_or_array(10.0 * np.log10(variance))


def from_db(db):
    """Convert a dB value back to a linear, shot-noise-normalised variance; inf beyond a double."""
    if isinstance(db, (int, float)):
        exponent = db / 10.0
        try:
            return 10.0 ** exponent
        except OverflowError:
            return math.inf
    import numpy as np

    with np.errstate(over="ignore"):
        return _as_scalar_or_array(10.0 ** (np.asarray(db, dtype=float) / 10.0))
