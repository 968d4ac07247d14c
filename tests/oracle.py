"""An independent high-precision forward model of a chip, to check sqzsim's numbers against.

`forward(spec, phases)` pushes vacuum through a `CircuitSpec`'s statements
in 60-digit mpmath arithmetic, starting from the spec's own float inputs,
and reads the measured mode at each float LO phase in `phases`. Pass it the
float grid that `homodyne.phase_grid` computes, so that both models see
the same phases. It shares no numerics with sqzsim: each element is
written here from its definition, in sqzsim's conventions (quadratures
ordered x1, p1, x2, p2, ..., vacuum covariance the identity, and a channel
maps C to X C X^T + Y).

Only the rows and columns of an element's modes change, so each statement
costs O(N) products on an N-mode chip; a 32-mode, 128-statement chip runs
in well under a second.
"""

from collections import namedtuple

import mpmath

from sqzsim import Coupler, Loss, PhaseShift, Squeezer

DIGITS = 60

_mp = mpmath.MPContext()
_mp.dps = DIGITS

# the measured variance in dB at each phase, its extrema, and the measured mode's 2x2
# covariance eigenvalues (smallest first, before detection), all as mpf
Forward = namedtuple("Forward", "trace_db raw_sq_db raw_asq_db eigenvalues")


def _rotation(theta):
    c, s = _mp.cos(theta), _mp.sin(theta)
    return [[c, -s], [s, c]]


def _element(st):
    """(X, Y, modes) of a statement: its channel on its own modes, in mpf."""
    zero, one = _mp.zero, _mp.one
    if isinstance(st, Squeezer):
        r = _mp.mpf(st.r) if st.r is not None else _mp.mpf(st.gain) * _mp.sqrt(st.pump_mw)
        rot = _rotation(st.phase)
        scaled = [[rot[i][0] * _mp.exp(-r), rot[i][1] * _mp.exp(r)] for i in range(2)]   # R diag(e^-r, e^r)
        X = [[_mp.fdot(scaled[i], rot[j]) for j in range(2)] for i in range(2)]   # ... R^T
        # the excess multiplies the antisqueezed variance e^2r made from vacuum, on the axis R (0, 1)
        noise = (_mp.mpf(st.excess) - 1) * _mp.exp(2 * r)
        axis = [rot[0][1], rot[1][1]]
        return X, [[noise * axis[i] * axis[j] for j in range(2)] for i in range(2)], (st.mode,)
    if isinstance(st, PhaseShift):
        return _rotation(st.theta), [[zero] * 2 for _ in range(2)], (st.mode,)
    if isinstance(st, Coupler):   # x_a -> t x_a + s x_b, x_b -> t x_b - s x_a, p alike; t^2 = ratio
        t, s = _mp.sqrt(st.ratio), _mp.sqrt(1 - _mp.mpf(st.ratio))
        X = [[t, zero, s, zero], [zero, t, zero, s], [-s, zero, t, zero], [zero, -s, zero, t]]
        return X, [[zero] * 4 for _ in range(4)], (st.mode_a, st.mode_b)
    if isinstance(st, Loss):
        t, floor = _mp.sqrt(st.eta), 1 - _mp.mpf(st.eta)
        return [[t, zero], [zero, t]], [[floor, zero], [zero, floor]], (st.mode,)
    raise TypeError(f"no oracle element for {type(st).__name__}")


def _apply(cov, X, Y, rows):
    """C -> X C X^T + Y in place, X and Y acting on the quadrature indices `rows`."""
    k, size = len(rows), len(cov)
    old = [cov[i][:] for i in rows]
    new = [[_mp.fdot(X[i], [old[m][j] for m in range(k)]) for j in range(size)] for i in range(k)]
    block = [[_mp.fdot([new[i][col] for col in rows], X[j]) + Y[i][j] for j in range(k)] for i in range(k)]
    for i, row in enumerate(rows):
        for j in range(size):
            cov[row][j] = cov[j][row] = new[i][j]
    for i, row in enumerate(rows):
        for j, col in enumerate(rows):
            cov[row][col] = block[i][j]


def forward(spec, phases):
    """The spec's measured trace at the float LO `phases`, its extrema and the mode's eigenvalues."""
    index = {name: i for i, name in enumerate(spec.modes)}
    size = 2 * len(spec.modes)
    cov = [[_mp.one if i == j else _mp.zero for j in range(size)] for i in range(size)]
    for st in spec.statements:
        X, Y, modes = _element(st)
        _apply(cov, X, Y, [q for name in modes for q in (2 * index[name], 2 * index[name] + 1)])
    m = spec.measurement
    q = 2 * index[m.mode]
    a, b, d = cov[q][q], cov[q][q + 1], cov[q + 1][q + 1]
    ratio = _mp.mpf(m.ratio)
    eta = 4 * ratio * (1 - ratio) * _mp.mpf(m.visibility) ** 2 * _mp.mpf(m.eta_pd) * _mp.mpf(m.eta_e)
    trace_db = []
    for theta in phases:
        c, s = _mp.cos(float(theta)), _mp.sin(float(theta))
        variance = a * c * c + 2 * b * c * s + d * s * s
        trace_db.append(10 * _mp.log10(eta * variance + 1 - eta))
    mean, spread = (a + d) / 2, _mp.sqrt(((a - d) / 2) ** 2 + b * b)
    return Forward(trace_db, min(trace_db), max(trace_db), (mean - spread, mean + spread))
