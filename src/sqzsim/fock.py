"""Truncated Fock-space reference model for single-mode squeezed vacuum.

Brute-force cross-check for the covariance-matrix code: squeezed-vacuum
amplitudes, the lossy bosonic channel as a Kraus sum, and quadrature
variances with the same vacuum-variance-1 normalisation
(X_theta = a e^{-i theta} + a^dagger e^{+i theta}). Correctness over speed.

Squeezed-vacuum amplitudes over even photon numbers:

    c_{2n} = (cosh r)^{-1/2} (-tanh r)^n sqrt((2n)!) / (2^n n!)

Loss with efficiency eta is the generalised amplitude-damping family

    K_k |n> = sqrt(C(n, k) eta^{n-k} (1 - eta)^k) |n-k>
"""

import math

import numpy as np

from ._record import Record, read_only
from .conversions import check_unit

DEFAULT_N_MAX = 60
R_MAX = 1.2          # beyond this the cutoff at n_max=60 is not trustworthy
LEAK_TOL = 1e-6      # maximum tolerated probability outside the cutoff


class TruncationError(ValueError):
    """Raised when a requested state cannot be represented at the cutoff."""


class FockState(Record, eq=False):
    """Single-mode density matrix truncated at photon number n_max."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("rho must be a square matrix")
        if float(np.abs(rho - rho.conj().T).max()) > 1e-12:
            raise ValueError("rho must be Hermitian")
        trace = float(np.trace(rho).real)
        if not 1.0 - 1e-6 <= trace <= 1.0 + 1e-9:
            raise ValueError(f"trace {trace} outside [1 - 1e-6, 1]")
        if float(np.linalg.eigvalsh(rho).min()) < -1e-9:
            raise ValueError("rho is not positive semidefinite")
        vars(self).update(rho=read_only(rho))

    @property
    def n_max(self):
        return self.rho.shape[0] - 1


def squeezed_vacuum_fock(r, n_max=DEFAULT_N_MAX):
    """Squeezed vacuum as a truncated density matrix; only even levels populated."""
    if r < 0:
        raise ValueError("squeezing parameter r must be >= 0")
    if r > R_MAX:
        raise TruncationError(f"r = {r} exceeds the safe truncation limit {R_MAX}")
    psi = np.zeros(n_max + 1)
    psi[0] = 1.0 / math.sqrt(math.cosh(r))
    if r > 0:
        log_tanh = math.log(math.tanh(r))
        for n in range(1, n_max // 2 + 1):
            # log-domain sqrt((2n)!)/(2^n n!) to avoid overflow near the cutoff
            log_mag = (
                n * log_tanh
                + 0.5 * math.lgamma(2 * n + 1)
                - n * math.log(2.0)
                - math.lgamma(n + 1)
                - 0.5 * math.log(math.cosh(r))
            )
            psi[2 * n] = (-1.0) ** n * math.exp(log_mag)
    leak = 1.0 - float(psi @ psi)
    if leak > LEAK_TOL:
        raise TruncationError(f"truncation leakage {leak:.3g} exceeds {LEAK_TOL}")
    return FockState(np.outer(psi, psi).astype(complex))


def apply_loss_fock(state, eta):
    """Lossy channel with efficiency eta, as the full Kraus sum."""
    check_unit("eta", eta)
    dim = state.n_max + 1
    ns = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        diag = np.zeros(dim)
        for n in range(k, dim):
            diag[n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
        K = np.zeros((dim, dim))
        K[ns[: dim - k], ns[k:]] = diag[k:]
        out += K @ state.rho @ K.T
    return FockState(out)


def _ladder(dim):
    return np.diag(np.sqrt(np.arange(1, dim)), k=1)


def quadrature_variance_fock(state, theta):
    """Variance of X_theta = a e^{-i theta} + a^dagger e^{+i theta}; vacuum gives 1."""
    dim = state.n_max + 1
    # operators built two levels above the cutoff so a a^dagger is exact there
    a = _ladder(dim + 2)
    x = a * np.exp(-1j * theta) + a.conj().T * np.exp(1j * theta)
    rho = np.zeros((dim + 2, dim + 2), dtype=complex)
    rho[:dim, :dim] = state.rho
    mean = float(np.trace(rho @ x).real)
    second = float(np.trace(rho @ x @ x).real)
    return second - mean * mean


def mean_photons(state):
    """Expectation of the photon-number operator."""
    return float((np.diag(state.rho).real * np.arange(state.n_max + 1)).sum())
