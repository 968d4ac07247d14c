"""Fock-space oracle self-checks against closed forms, plus Gaussian agreement."""

import math

import numpy as np
import pytest

from sqzsim import (
    FockState,
    TruncationError,
    apply_loss,
    apply_loss_fock,
    apply_squeezer,
    mean_photons,
    quadrature_variance,
    quadrature_variance_fock,
    squeezed_vacuum_fock,
    vacuum,
)

# r reproducing the inferred squeezed variance (10^-0.2 - 0.29)/0.71 exactly
R_REFERENCE = -0.5 * math.log((10 ** -0.2 - 0.29) / 0.71)


def test_r_zero_gives_vacuum_projector():
    st = squeezed_vacuum_fock(0.0, n_max=20)
    expected = np.zeros((21, 21), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(st.rho, expected)


def test_odd_photon_numbers_unpopulated():
    st = squeezed_vacuum_fock(0.7)
    populations = np.diag(st.rho).real
    assert np.array_equal(populations[1::2], np.zeros(30))
    assert populations[2] > 0.0


def test_mean_photon_number_closed_form():
    st = squeezed_vacuum_fock(0.5, n_max=40)
    assert mean_photons(st) == pytest.approx(0.2715403174076219, abs=1e-9)


def test_trace_close_to_one():
    st = squeezed_vacuum_fock(1.0)
    trace = float(np.trace(st.rho).real)
    assert 1.0 - 1e-8 <= trace <= 1.0


def test_truncation_guards():
    with pytest.raises(TruncationError):
        squeezed_vacuum_fock(1.3)
    with pytest.raises(TruncationError):
        squeezed_vacuum_fock(1.0, n_max=20)  # leaks more than 1e-6
    with pytest.raises(ValueError):
        squeezed_vacuum_fock(-0.2)


def test_vacuum_quadrature_variance_is_one():
    st = squeezed_vacuum_fock(0.0)
    for theta in (0.0, 0.4, np.pi / 2):
        assert quadrature_variance_fock(st, theta) == pytest.approx(1.0, abs=1e-12)


def test_squeezed_quadratures_closed_form():
    st = squeezed_vacuum_fock(0.5)
    assert quadrature_variance_fock(st, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-9)
    assert quadrature_variance_fock(st, np.pi / 2) == pytest.approx(math.exp(1.0), abs=1e-9)


def test_quadrature_pi_periodicity():
    st = squeezed_vacuum_fock(0.9)
    for theta in (0.0, 0.3, 1.1):
        a = quadrature_variance_fock(st, theta)
        b = quadrature_variance_fock(st, theta + np.pi)
        assert abs(a - b) < 1e-12


def test_loss_identity_and_total_loss():
    st = squeezed_vacuum_fock(0.6)
    unchanged = apply_loss_fock(st, 1.0)
    assert np.allclose(unchanged.rho, st.rho, atol=1e-15)
    dumped = apply_loss_fock(st, 0.0)
    assert dumped.rho[0, 0].real == pytest.approx(1.0, abs=1e-10)
    assert mean_photons(dumped) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("eta", [-0.1, 1.5, math.nan])
def test_loss_rejects_eta_outside_unit_interval(eta):
    with pytest.raises(ValueError, match=r"^eta must lie in \[0, 1\], got"):
        apply_loss_fock(squeezed_vacuum_fock(0.6), eta)


def test_loss_preserves_trace_and_scales_photons():
    st = squeezed_vacuum_fock(0.8)
    n_before = mean_photons(st)
    for eta in (0.3, 0.71, 0.95):
        out = apply_loss_fock(st, eta)
        assert float(np.trace(out.rho).real) == pytest.approx(float(np.trace(st.rho).real), abs=1e-10)
        assert mean_photons(out) == pytest.approx(eta * n_before, abs=1e-9)


def test_loss_composition():
    st = squeezed_vacuum_fock(0.8)
    two_step = apply_loss_fock(apply_loss_fock(st, 0.9), 0.6)
    one_step = apply_loss_fock(st, 0.54)
    assert np.abs(two_step.rho - one_step.rho).max() < 1e-9


def test_reference_squeezing_point_through_loss():
    st = apply_loss_fock(squeezed_vacuum_fock(R_REFERENCE), 0.71)
    v = quadrature_variance_fock(st, 0.0)
    assert v == pytest.approx(0.6309573444801932, abs=1e-6)
    assert 10 * math.log10(v) == pytest.approx(-2.00, abs=1e-5)


def test_truncation_convergence():
    # The tail at n_max=50 contributes ~4e-6 to the variance at r=1.0, so the
    # 50 -> 60 step only settles below 1e-8 for r <= 0.8. What matters for the
    # oracle is that n_max=60 sits within the 1e-6 agreement budget everywhere.
    for r, step_tol in ((0.3, 1e-8), (0.5, 1e-8), (0.8, 1e-8), (1.0, 1e-5)):
        v50 = quadrature_variance_fock(squeezed_vacuum_fock(r, n_max=50), 0.0)
        v60 = quadrature_variance_fock(squeezed_vacuum_fock(r, n_max=60), 0.0)
        assert abs(v50 - v60) < step_tol
        assert abs(v60 - math.exp(-2 * r)) < 1e-6


def test_agreement_with_gaussian_model_sample():
    rng = np.random.default_rng(31)
    for _ in range(20):
        r = float(rng.uniform(0.0, 1.0))
        eta = float(rng.uniform(0.3, 1.0))
        theta = float(rng.uniform(0.0, 2 * np.pi))
        gauss = quadrature_variance(
            apply_loss(apply_squeezer(vacuum(1), 0, r), 0, eta), 0, theta)
        fock = quadrature_variance_fock(
            apply_loss_fock(squeezed_vacuum_fock(r), eta), theta)
        assert abs(gauss - fock) < 1e-6


def test_density_matrix_validation():
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 0] = 1.0
    bad[0, 1] = 0.5  # not Hermitian
    with pytest.raises(ValueError):
        FockState(bad)
    with pytest.raises(ValueError):
        FockState(0.5 * np.eye(3, dtype=complex))  # trace far from 1
