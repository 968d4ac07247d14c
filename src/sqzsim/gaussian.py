"""Multimode Gaussian states and Gaussian channels in the quadrature picture.

Conventions
-----------
Quadrature ordering is (x1, p1, x2, p2, ...). The vacuum covariance is the
identity (shot-noise units), so a quadrature variance V reads directly as
10*log10(V) dB on a homodyne trace. A state is its covariance matrix alone:
every circuit starts from vacuum and no element displaces it, so the mean
is always zero, and every number sqzsim reports is a variance. States and
channels are immutable values; every operation returns a new state.

An element channel stores only its (X, Y) block and the ordered k modes it
acts on, so applying it rewrites just those modes' rows and columns:
O(k^2 N) work on an N-mode state instead of a dense 2N x 2N product. The
public builders give one element (squeezer, phase shift, coupler, loss)
its 2x2 or 4x4 block; each element's block has one formula, a `_*_block`
function of Python floats that returns its rows as lists. A compiled chip
is a sequence of layers: channels on disjoint modes commute, and their
product is their tensor product, so `_layered` groups a chip's raw blocks
into layers and joins each layer's blocks into one block-diagonal channel,
and a chip costs one apply per layer. `LAYER_MODES` caps k, so a layer's
block stays small however wide the chip.
"""

import math
from collections import defaultdict

import numpy as np

from ._record import Record, read_only
from .conversions import _as_scalar_or_array, check_unit, squeezer_scales

LAYER_MODES = 8          # most modes one layer of `_layered` acts on, so its block stays small on a wide chip
SYMMETRY_RTOL = 1e-12    # relative symmetry tolerance for covariance input
UNCERTAINTY_TOL = -1e-9  # lower bound for eigenvalues of cov + i*Omega
CP_TOL = -1e-9           # lower bound for the channel complete-positivity check


def symplectic_form(n_modes):
    """The 2N x 2N symplectic form for (x1, p1, ...) ordering."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


class GaussianState(Record, eq=False):
    """Covariance matrix of N optical modes, vacuum variance = 1."""

    cov: np.ndarray

    def __post_init__(self):
        cov = _square_matrix(self.cov, "cov")
        if not np.isfinite(cov).all():
            raise ValueError("state contains non-finite values")
        vars(self).update(cov=read_only(_symmetrised(cov, "covariance matrix is not symmetric")))
        test = self.cov + 1j * symplectic_form(self.n_modes)
        if float(np.linalg.eigvalsh(test).min()) < UNCERTAINTY_TOL:
            raise ValueError("covariance matrix violates the uncertainty relation")

    @property
    def n_modes(self):
        return self.cov.shape[0] // 2


class GaussianChannel(Record, eq=False):
    """Deterministic Gaussian channel (X, Y): cov -> X cov X^T + Y.

    Unifies symplectic operations (Y = 0) and losses. X and Y act on the
    ordered `modes` of an `n_modes`-mode state, two attributes `_element`
    sets; `GaussianChannel(X, Y)` acts on all of them. Construction checks complete positivity,
    Y + i(Omega - X Omega X^T) >= 0.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = _square_matrix(self.X, "X")
        Y = np.array(self.Y, dtype=float)
        if Y.shape != X.shape:
            raise ValueError("Y must have the same shape as X")
        if not np.isfinite(X).all() or not np.isfinite(Y).all():
            raise ValueError("channel contains non-finite values")
        Y = _symmetrised(Y, "Y must be symmetric")
        n_modes = X.shape[0] // 2
        vars(self).update(vars(_element(X, Y, n_modes, tuple(range(n_modes)))))   # the element on every mode
        omega = symplectic_form(self.n_modes)
        test = self.Y + 1j * (omega - self.X @ omega @ self.X.T)
        if float(np.linalg.eigvalsh(test).min()) < CP_TOL:
            raise ValueError("channel is not completely positive")

    def apply(self, state):
        """The output state; only the rows and columns of `modes` are recomputed.

        R = X C[rows, :] with its block R[:, rows] X^T + Y, halved and added
        to its transpose (so a representable block does not overflow), in
        the block columns becomes the new rows and R^T the new columns, so
        the result is exactly symmetric. The input state is valid, so only
        the rewritten entries can turn non-finite, and only those are checked.
        """
        if state.n_modes != self.n_modes:
            raise ValueError("channel and state mode counts differ")
        rows, X = self._rows, self.X
        new_rows = X @ state.cov[rows]
        block = new_rows[:, rows] @ X.T + self.Y
        half = 0.5 * block
        new_rows[:, rows] = half + half.T
        if not np.isfinite(new_rows).all():
            raise ValueError("state contains non-finite values")
        cov = state.cov.copy()
        cov[rows] = new_rows
        cov[:, rows] = new_rows.T
        return GaussianState._trusted(cov=read_only(cov))


def _square_matrix(matrix, name):
    """`matrix` as a float array, which must be a non-empty, square, even-sized 2-D matrix."""
    matrix = np.array(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
        raise ValueError(f"{name} must be a non-empty square 2N x 2N matrix, got shape {matrix.shape}")
    return matrix


def _symmetrised(matrix, message):
    """A finite `matrix` with each asymmetric pair averaged and each symmetric pair kept bit for bit.

    Entries are halved before two are combined, so no finite entry overflows.
    """
    half, half_t = 0.5 * matrix, 0.5 * matrix.T
    scale = max(1.0, float(np.abs(matrix).max()))
    if float(np.abs(half - half_t).max()) > 0.5 * SYMMETRY_RTOL * scale:
        raise ValueError(message)
    return np.where(matrix == matrix.T, matrix, half + half_t)


def _element(X, Y, n_modes, modes):
    """Element channel: its read-only (X, Y) block on the ordered `modes` of an n_modes-mode state.

    X and Y are float arrays or nested lists of floats. Finite, completely
    positive and Y exactly symmetric by construction from scalars the
    builders have checked, so nothing is checked here. It also stores the
    row indices `apply` rewrites: a slice when they are contiguous
    (indexing gives views) and an index array otherwise, which numpy
    gathers faster than a list.
    """
    if modes == tuple(range(modes[0], modes[0] + len(modes))):
        rows = slice(2 * modes[0], 2 * (modes[0] + len(modes)))
    else:
        rows = np.array([i for m in modes for i in (2 * m, 2 * m + 1)], dtype=np.intp)
    X, Y = read_only(np.asarray(X, dtype=float)), read_only(np.asarray(Y, dtype=float))
    return GaussianChannel._trusted(X=X, Y=Y, modes=modes, n_modes=n_modes, _rows=rows)


def _layers(block_modes):
    """Block positions grouped into layers, from each block's mode indices.

    A block joins the first layer after the last one that touches any of
    its modes and that has room for them within LAYER_MODES, opening a new
    layer when none has. So a layer's blocks act on distinct modes, and
    blocks that share a mode sit in increasing layers, in order. A layer's
    width only grows, so once it has no room for a block width it never
    will: `full` remembers, per width, the first layer that might still
    have room, and the layers before it are not scanned again.
    """
    layers, widths, after, full = [], [], {}, {}   # after: mode -> first layer free of it
    for i, modes in enumerate(block_modes):
        width = len(modes)
        first = k = full.get(width, 0)
        for m in modes:   # a loop, not max(): this runs for every statement of a chip
            free = after.get(m, 0)
            if free > k:
                k = free
        scan = k == first   # then the layers from `first` to the one found are full for `width`
        while k < len(layers) and widths[k] + width > LAYER_MODES:
            k += 1
        if scan:
            full[width] = k
        if k == len(layers):
            layers.append([])
            widths.append(0)
        layers[k].append(i)
        widths[k] += width
        k += 1
        for m in modes:
            after[m] = k
    return layers


def _layered(n_modes, blocks):
    """Element channels of raw `(modes, X, Y)` blocks in order, one per layer of `_layers`.

    A layer's channel acts on its blocks' modes in order, with the blocks'
    block-diagonal sum as its X and Y. Its blocks act on distinct modes and
    so commute, and applied in order the channels give the state of the
    blocks applied one by one, in fewer applies. Every layer's X and Y
    live in one zeroed buffer that one scatter fills, and each channel
    holds read-only views of its part.
    """
    parts, end = [], 0   # each layer's (modes, start in the buffer, size)
    # rows -> the corners, layer sizes and values (X then Y, row by row) of the blocks of that many rows
    groups = defaultdict(lambda: ([], [], []))
    for layer in _layers([block[0] for block in blocks]):
        # from a list: tuple() of a generator resizes its guess, which strands each
        # freed tuple on a free list of a size it never takes from again
        modes = tuple([m for i in layer for m in blocks[i][0]])
        size = 2 * len(modes)
        corner = end   # where the next block's X[0][0] goes
        for i in layer:
            _, X, Y = blocks[i]
            corners, sizes, values = groups[len(X)]
            corners.append(corner)
            sizes.append(size)
            for row in X:
                values += row
            for row in Y:
                values += row
            corner += len(X) * (size + 1)
        parts.append((modes, end, size))
        end += 2 * size * size
    cells, values = [np.zeros(0, np.intp)], []   # the empty piece lets a chip with no blocks concatenate
    for rows, (corners, sizes, group_values) in groups.items():
        y, i, j = np.indices((2, rows, rows)).reshape(3, -1)   # Y flag, row and column of each value
        sizes = np.array(sizes)[:, None]
        cells.append(np.array(corners)[:, None] + sizes * (i + sizes * y) + j)
        values += group_values
    buffer = np.zeros(end)
    buffer[np.concatenate(cells, axis=None)] = np.fromiter(values, float, len(values))
    read_only(buffer)   # and so every view of it
    return [_element(*buffer[start:start + 2 * size * size].reshape(2, size, size), n_modes, modes)
            for modes, start, size in parts]


def vacuum(n_modes):
    """N-mode vacuum: identity covariance."""
    if not isinstance(n_modes, (int, np.integer)) or n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    return GaussianState._trusted(cov=read_only(np.eye(2 * n_modes)))


def _check_mode(n_modes, mode):
    if not isinstance(mode, (int, np.integer)) or not 0 <= mode < n_modes:
        raise ValueError(f"mode index {mode} out of range for {n_modes} modes")


def squeeze_symplectic(r, phase=0.0):
    """Single-mode squeezer diag(e^-r, e^+r), axis rotated by `phase`: `squeezer_channel`'s X, checked alike."""
    return squeezer_channel(1, 0, r, phase).X.copy()


def phaseshift_symplectic(theta):
    """Single-mode quadrature rotation: `phaseshift_channel`'s X, checked alike."""
    return phaseshift_channel(1, 0, theta).X.copy()


def coupler_symplectic(ratio):
    """Two-mode coupler, power splitting ratio R and cos(theta) = sqrt(R): `coupler_channel`'s X, checked alike."""
    return coupler_channel(2, 0, 1, ratio).X.copy()


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
    """Attenuate one mode: cov block -> eta*block + (1-eta)*I."""
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
    return GaussianState(cov)


def reduce_modes(state, modes):
    """Partial trace keeping the listed modes, in the order given."""
    modes = list(modes)
    if len(set(modes)) != len(modes) or not modes:
        raise ValueError("modes must be a non-empty list of distinct indices")
    for m in modes:
        _check_mode(state.n_modes, m)
    idx = np.array([i for m in modes for i in (2 * m, 2 * m + 1)])
    return GaussianState(state.cov[np.ix_(idx, idx)])


def _squeezer_block(r, phase, excess):
    """Raw (X, Y) block, as lists of rows, of a squeezer with r >= 0 and excess >= 1.

    X is R(phase) diag(e^-r, e^r) R(phase)^T. Raises ValueError when e^-r,
    e^r or the noise scale (excess - 1) e^2r is not a double (`squeezer_scales`)
    or the phase is not finite; NaN or inf in any argument fails here too.
    """
    if not math.isfinite(phase):
        raise ValueError("channel contains non-finite values")
    shrink, grow, noise = squeezer_scales(r, excess)
    c, s = math.cos(phase), math.sin(phase)
    (a, b), (d, e) = (c * shrink, -s * grow), (s * shrink, c * grow)   # R diag(e^-r, e^r)
    # times R^T, each entry summed as a matrix product sums it: the factored form
    # c s (e^-r - e^r) rounds differently, and past r ~ 9 the forward model's
    # squeezed variance depends on those last bits
    X = [[a * c + b * -s, a * s + b * c], [d * c + e * -s, d * s + e * c]]
    cross = noise * -(s * c)   # the noise lies on the antisqueezed axis (-sin, cos)
    return X, [[noise * (s * s), cross], [cross, noise * (c * c)]]


def _phaseshift_block(theta):
    """Raw (X, Y) block, as lists of rows, of a phase shift by `theta`."""
    c, s = math.cos(theta), math.sin(theta)
    return [[c, -s], [s, c]], [[0.0, 0.0], [0.0, 0.0]]


def _coupler_block(ratio):
    """Raw (X, Y) block, as lists of rows, of a coupler with power splitting `ratio` in [0, 1]."""
    t, s = math.sqrt(ratio), math.sqrt(1.0 - ratio)
    return ([[t, 0.0, s, 0.0], [0.0, t, 0.0, s], [-s, 0.0, t, 0.0], [0.0, -s, 0.0, t]],
            [[0.0] * 4 for _ in range(4)])


def _loss_block(eta):
    """Raw (X, Y) block, as lists of rows, of a loss with transmission `eta` in [0, 1]."""
    t, noise = math.sqrt(eta), 1.0 - eta
    return [[t, 0.0], [0.0, t]], [[noise, 0.0], [0.0, noise]]


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
    return _element(*_squeezer_block(r, phase, excess), n_modes, (mode,))


def phaseshift_channel(n_modes, mode, theta):
    _check_mode(n_modes, mode)
    if not math.isfinite(theta):
        raise ValueError("channel contains non-finite values")
    return _element(*_phaseshift_block(theta), n_modes, (mode,))


def coupler_channel(n_modes, mode_a, mode_b, ratio):
    _check_mode(n_modes, mode_a)
    _check_mode(n_modes, mode_b)
    if mode_a == mode_b:
        raise ValueError("coupler requires two distinct modes")
    check_unit("ratio", ratio)
    return _element(*_coupler_block(ratio), n_modes, (mode_a, mode_b))


def loss_channel(n_modes, mode, eta):
    _check_mode(n_modes, mode)
    check_unit("eta", eta)
    return _element(*_loss_block(eta), n_modes, (mode,))
