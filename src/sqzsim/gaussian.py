"""Multimode Gaussian states and Gaussian channels in the quadrature picture.

Conventions
-----------
Quadrature ordering is (x1, p1, x2, p2, ...). The vacuum covariance is the
identity (shot-noise units), so a quadrature variance V reads directly as
10*log10(V) dB on a homodyne trace. States and channels are immutable
values; every operation returns a new state.

An element channel (squeezer, phase shift, coupler, loss) stores only its
own 2x2 or 4x4 (X, Y) block and the ordered modes it acts on, so applying
it rewrites just those modes' rows and columns: O(N) work per element on
an N-mode state instead of a dense 2N x 2N product.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .conversions import _as_scalar_or_array, check_unit

SYMMETRY_RTOL = 1e-12    # relative symmetry tolerance for covariance input
UNCERTAINTY_TOL = -1e-9  # lower bound for eigenvalues of cov + i*Omega
CP_TOL = -1e-9           # lower bound for the channel complete-positivity check
_EYE2 = np.eye(2)
_EYE2.setflags(write=False)


def symplectic_form(n_modes):
    """The 2N x 2N symplectic form for (x1, p1, ...) ordering."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector and covariance matrix of N optical modes, vacuum variance = 1."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size == 0 or mean.size % 2:
            raise ValueError("mean must be a vector of length 2*n_modes")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("cov must be a 2N x 2N matrix matching the mean")
        if not np.isfinite(mean).all() or not np.isfinite(cov).all():
            raise ValueError("state contains non-finite values")
        self._store(mean, _symmetrised(cov, "covariance matrix is not symmetric"))
        test = self.cov + 1j * symplectic_form(self.n_modes)
        if float(np.linalg.eigvalsh(test).min()) < UNCERTAINTY_TOL:
            raise ValueError("covariance matrix violates the uncertainty relation")

    def _store(self, mean, cov):
        mean.setflags(write=False)
        cov.setflags(write=False)
        vars(self).update(mean=mean, cov=cov)

    @property
    def n_modes(self):
        return self.mean.size // 2


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Deterministic Gaussian channel (X, Y): mean -> X mean, cov -> X cov X^T + Y.

    Unifies symplectic operations (Y = 0) and losses. X and Y act on the
    ordered `modes` of an `n_modes`-mode state; `GaussianChannel(X, Y)`
    acts on all of them. Construction checks complete positivity,
    Y + i(Omega - X Omega X^T) >= 0.
    """

    X: np.ndarray
    Y: np.ndarray
    modes: tuple = field(init=False)
    n_modes: int = field(init=False)

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        Y = np.array(self.Y, dtype=float)
        if X.ndim != 2 or X.shape[0] != X.shape[1] or X.shape[0] % 2:
            raise ValueError("X must be a square 2N x 2N matrix")
        if Y.shape != X.shape:
            raise ValueError("Y must have the same shape as X")
        if not np.isfinite(X).all() or not np.isfinite(Y).all():
            raise ValueError("channel contains non-finite values")
        Y = _symmetrised(Y, "Y must be symmetric")
        n_modes = X.shape[0] // 2
        self._place(X, Y, n_modes, tuple(range(n_modes)))
        omega = symplectic_form(self.n_modes)
        test = self.Y + 1j * (omega - self.X @ omega @ self.X.T)
        if float(np.linalg.eigvalsh(test).min()) < CP_TOL:
            raise ValueError("channel is not completely positive")

    def _place(self, X, Y, n_modes, modes):
        """Store the read-only blocks, their modes and the row indices `apply` rewrites.

        The rows are a slice when they are contiguous (indexing gives views)
        and an index array otherwise, which numpy gathers faster than a list.
        """
        if modes == tuple(range(modes[0], modes[0] + len(modes))):
            rows = slice(2 * modes[0], 2 * (modes[0] + len(modes)))
        else:
            rows = np.array([i for m in modes for i in (2 * m, 2 * m + 1)], dtype=np.intp)
        X.setflags(write=False)
        Y.setflags(write=False)
        vars(self).update(X=X, Y=Y, modes=modes, n_modes=n_modes, _rows=rows)

    def apply(self, state):
        """The output state; only the rows and columns of `modes` are recomputed.

        R = X C[rows, :] with its block R[:, rows] X^T + Y, symmetrised, in
        the block columns becomes the new rows and R^T the new columns, so
        the result is exactly symmetric. The input state is valid, so only
        the rewritten entries can turn non-finite, and only those are checked.
        A zero mean stays zero under X, so it is shared rather than recomputed.
        """
        if state.n_modes != self.n_modes:
            raise ValueError("channel and state mode counts differ")
        rows, X = self._rows, self.X
        new_rows = X @ state.cov[rows]
        block = new_rows[:, rows] @ X.T + self.Y
        new_rows[:, rows] = 0.5 * (block + block.T)
        mean = state.mean
        if np.count_nonzero(mean):
            new_mean = X @ mean[rows]
            if not np.isfinite(new_mean).all():
                raise ValueError("state contains non-finite values")
            mean = mean.copy()
            mean[rows] = new_mean
        if not np.isfinite(new_rows).all():
            raise ValueError("state contains non-finite values")
        cov = state.cov.copy()
        cov[rows] = new_rows
        cov[:, rows] = new_rows.T
        return _unchecked_state(mean, cov)


def _symmetrised(matrix, message):
    scale = max(1.0, float(np.abs(matrix).max()))
    if float(np.abs(matrix - matrix.T).max()) > SYMMETRY_RTOL * scale:
        raise ValueError(message)
    return 0.5 * (matrix + matrix.T)


def _unchecked_state(mean, cov):
    """Frozen, unchecked GaussianState: for the vacuum and `apply`'s output, physical by construction."""
    state = object.__new__(GaussianState)
    state._store(mean, cov)
    return state


def _element(X, Y, n_modes, modes):
    """Element channel: its (X, Y) block on the ordered `modes` of an n_modes-mode state.

    Finite, completely positive and Y exactly symmetric by construction
    from scalars the builders have checked, so nothing is checked here.
    """
    channel = object.__new__(GaussianChannel)
    channel._place(X, Y, n_modes, modes)
    return channel


def vacuum(n_modes):
    """N-mode vacuum: zero mean, identity covariance."""
    if not isinstance(n_modes, (int, np.integer)) or n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    return _unchecked_state(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def _check_mode(n_modes, mode):
    if not isinstance(mode, (int, np.integer)) or not 0 <= mode < n_modes:
        raise ValueError(f"mode index {mode} out of range for {n_modes} modes")


def squeeze_symplectic(r, phase=0.0):
    """Single-mode squeezer, diag(e^-r, e^+r) with its axis rotated by `phase`."""
    rot = phaseshift_symplectic(phase)
    return (rot * [np.exp(-r), np.exp(r)]) @ rot.T   # rot @ diag(e^-r, e^r) @ rot.T


def phaseshift_symplectic(theta):
    """Single-mode quadrature rotation."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def coupler_symplectic(ratio):
    """Two-mode coupler with power splitting ratio R, cos(theta) = sqrt(R)."""
    t, s = np.sqrt(ratio), np.sqrt(1.0 - ratio)
    return np.array([[t, 0.0, s, 0.0], [0.0, t, 0.0, s], [-s, 0.0, t, 0.0], [0.0, -s, 0.0, t]])


def embed_single(block, mode, n_modes):
    """Embed a 2x2 matrix acting on one mode into the full 2N x 2N identity."""
    full = np.eye(2 * n_modes)
    sl = slice(2 * mode, 2 * mode + 2)
    full[sl, sl] = block
    return full


def embed_pair(block4, mode_a, mode_b, n_modes):
    """Embed a 4x4 matrix acting on an ordered mode pair into the full identity."""
    full = np.eye(2 * n_modes)
    sa = slice(2 * mode_a, 2 * mode_a + 2)
    sb = slice(2 * mode_b, 2 * mode_b + 2)
    full[sa, sa] = block4[0:2, 0:2]
    full[sa, sb] = block4[0:2, 2:4]
    full[sb, sa] = block4[2:4, 0:2]
    full[sb, sb] = block4[2:4, 2:4]
    return full


def apply_squeezer(state, mode, r, phase=0.0):
    """Squeeze one mode: x-variance times e^-2r, p-variance times e^+2r at phase 0."""
    with np.errstate(over="ignore", invalid="ignore"):   # an e^2r beyond a double raises ValueError
        return squeezer_channel(state.n_modes, mode, r, phase).apply(state)


def apply_phaseshift(state, mode, theta):
    """Rotate one mode's quadratures by theta."""
    return phaseshift_channel(state.n_modes, mode, theta).apply(state)


def apply_coupler(state, mode_a, mode_b, ratio):
    """Mix two modes on a coupler with power splitting ratio in [0, 1]."""
    return coupler_channel(state.n_modes, mode_a, mode_b, ratio).apply(state)


def apply_loss(state, mode, eta):
    """Attenuate one mode: cov block -> eta*block + (1-eta)*I, mean scaled by sqrt(eta)."""
    return loss_channel(state.n_modes, mode, eta).apply(state)


def quadrature_variance(state, mode, theta):
    """Variance of the quadrature x*cos(theta) + p*sin(theta) on one mode.

    Reads the mode's 2x2 covariance block [[a, b], [b, d]] as
    a*c^2 + 2b*c*s + d*s^2 with c, s = cos(theta), sin(theta). A scalar
    theta gives a float, an array of phases an array.
    """
    _check_mode(state.n_modes, mode)
    (a, b), (_, d) = state.cov[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2]
    c, s = np.cos(theta), np.sin(theta)
    return _as_scalar_or_array(a * c * c + 2.0 * b * c * s + d * s * s)


def tensor(state_a, state_b):
    """Product state of two Gaussian states (modes of `state_a` come first)."""
    na, nb = 2 * state_a.n_modes, 2 * state_b.n_modes
    cov = np.zeros((na + nb, na + nb))
    cov[:na, :na] = state_a.cov
    cov[na:, na:] = state_b.cov
    return GaussianState(np.concatenate([state_a.mean, state_b.mean]), cov)


def reduce_modes(state, modes):
    """Partial trace keeping the listed modes, in the order given."""
    modes = list(modes)
    if len(set(modes)) != len(modes) or not modes:
        raise ValueError("modes must be a non-empty list of distinct indices")
    for m in modes:
        _check_mode(state.n_modes, m)
    idx = np.array([i for m in modes for i in (2 * m, 2 * m + 1)])
    return GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)])


def squeezer_channel(n_modes, mode, r, phase=0.0, excess=1.0):
    """Squeezer as a channel, with optional excess noise on the antisqueezed axis.

    `excess` multiplies the antisqueezed variance produced from vacuum
    (1.0 gives the pure, minimum-uncertainty squeezer). Values below 1
    would violate complete positivity and are rejected.
    """
    _check_mode(n_modes, mode)
    if r < 0:
        raise ValueError("squeezing parameter r must be >= 0")
    if excess < 1.0:
        raise ValueError("excess noise factor must be >= 1")
    # the block's largest scale, e^r or (excess - 1) e^2r, must be a double at a
    # finite phase; NaN or inf in any argument fails here too
    try:
        scale = math.exp(r) if excess == 1.0 else (excess - 1.0) * math.exp(2.0 * r)
    except OverflowError:
        scale = math.inf
    if not (math.isfinite(scale) and math.isfinite(phase)):
        raise ValueError("channel contains non-finite values")
    noise = np.zeros((2, 2))
    if excess > 1.0:
        # (excess - 1) e^2r on the antisqueezed axis (-sin, cos) of the rotated squeezer
        axis = np.array([-np.sin(phase), np.cos(phase)])
        noise = (excess - 1.0) * np.exp(2.0 * r) * np.outer(axis, axis)
    return _element(squeeze_symplectic(r, phase), noise, n_modes, (mode,))


def phaseshift_channel(n_modes, mode, theta):
    _check_mode(n_modes, mode)
    if not math.isfinite(theta):
        raise ValueError("channel contains non-finite values")
    return _element(phaseshift_symplectic(theta), np.zeros((2, 2)), n_modes, (mode,))


def coupler_channel(n_modes, mode_a, mode_b, ratio):
    _check_mode(n_modes, mode_a)
    _check_mode(n_modes, mode_b)
    if mode_a == mode_b:
        raise ValueError("coupler requires two distinct modes")
    check_unit("ratio", ratio)
    return _element(coupler_symplectic(ratio), np.zeros((4, 4)), n_modes, (mode_a, mode_b))


def loss_channel(n_modes, mode, eta):
    _check_mode(n_modes, mode)
    check_unit("eta", eta)
    return _element(math.sqrt(eta) * _EYE2, (1.0 - eta) * _EYE2, n_modes, (mode,))
