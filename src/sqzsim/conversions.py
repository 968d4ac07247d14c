"""The rules every layer shares: the [0, 1] efficiency check, the loss model, dB and a squeezer's scales.

All variances are normalised to the vacuum (shot-noise) level: 10*log10(V) is
the dB value on a squeezing trace, and efficiency eta takes V to eta*V + (1 - eta)
(`detected`, a bare formula: each public function that takes an eta checks it once).
Scalars come back as plain floats, lists as lists and arrays as arrays. An
int, a float or each item of a list goes through `math`, anything else
through numpy, imported in that branch alone, so a scalar command never
loads it. `simulate` converts its model trace as a list on both of its
routes, so both print the same bits (`math.log10` and `np.log10` differ in
the last bit on some values).
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
    """Variance `v` (a scalar or an array) seen through a loss of efficiency eta; the caller checks eta."""
    return eta * v + (1.0 - eta)


def to_db(variance):
    """Convert a shot-noise-normalised variance (or each of a list or array) to dB: -inf at 0, nan below 0 or at nan."""
    if isinstance(variance, list):
        return [10.0 * math.log10(v) if v > 0.0 else -math.inf if v == 0.0 else math.nan for v in variance]
    if isinstance(variance, (int, float)):
        return to_db([variance])[0]
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        return _as_scalar_or_array(10.0 * np.log10(variance))


def squeezer_scales(r, excess):
    """(e^-r, e^r, (excess - 1) e^2r) of a squeezer with r >= 0 and excess >= 1.

    The one check of both squeezer models, the channel block and the
    backward walk: ValueError when one of the three is not a double; NaN or
    inf in either argument fails here too. The noise scale is 0 at excess 1.
    """
    try:
        shrink, grow = math.exp(-r), math.exp(r)
        noise = 0.0 if excess == 1.0 else (excess - 1.0) * math.exp(2.0 * r)
    except OverflowError:
        shrink = grow = noise = math.inf
    if not (math.isfinite(shrink) and math.isfinite(grow) and math.isfinite(noise)):
        raise ValueError("channel contains non-finite values")
    return shrink, grow, noise


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
