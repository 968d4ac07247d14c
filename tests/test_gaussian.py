"""Gaussian state and channel operations against closed forms and invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_circuit_spec, random_gaussian_state
from sqzsim import (
    GaussianChannel,
    GaussianState,
    apply_coupler,
    apply_loss,
    apply_phaseshift,
    apply_squeezer,
    compile_spec,
    output_state,
    quadrature_variance,
    reduce_modes,
    symplectic_form,
    tensor,
    vacuum,
)
from sqzsim.gaussian import (
    coupler_channel,
    coupler_symplectic,
    embed_pair,
    embed_single,
    loss_channel,
    phaseshift_channel,
    phaseshift_symplectic,
    squeeze_symplectic,
    squeezer_channel,
)

# inferred circuit-output variances behind the -2.00/+2.80 dB raw pair at eta = 0.71
V_GEN_SQ = (10 ** -0.2 - 0.29) / 0.71    # 0.4802216119439342
V_GEN_ASQ = (10 ** 0.28 - 0.29) / 0.71   # 2.2752967858637287


def test_vacuum_is_exact_identity():
    st = vacuum(1)
    assert np.array_equal(st.cov, np.eye(2))
    assert np.array_equal(st.mean, np.zeros(2))
    st2 = vacuum(2)
    assert np.array_equal(st2.cov, np.eye(4))
    assert st2.n_modes == 2


@pytest.mark.parametrize("bad", [0, -1, 1.5])
def test_vacuum_rejects_bad_mode_count(bad):
    with pytest.raises(ValueError):
        vacuum(bad)


def test_vacuum_variance_is_phase_invariant():
    st = vacuum(1)
    for theta in np.linspace(0.0, 2.0 * np.pi, 17):
        assert quadrature_variance(st, 0, theta) == pytest.approx(1.0, abs=1e-15)


def test_squeezer_r_zero_is_identity():
    st = vacuum(2)
    out = apply_squeezer(st, 1, 0.0)
    assert np.array_equal(out.cov, st.cov)
    assert np.array_equal(out.mean, st.mean)


def test_squeezer_closed_form_r_half():
    out = apply_squeezer(vacuum(1), 0, 0.5)
    assert quadrature_variance(out, 0, 0.0) == pytest.approx(0.36787944117144233, rel=1e-12)
    assert quadrature_variance(out, 0, np.pi / 2) == pytest.approx(2.718281828459045, rel=1e-12)
    # pure in, pure out: det of the covariance stays at the vacuum value
    assert np.linalg.det(out.cov) == pytest.approx(1.0, rel=1e-12)


def test_squeezer_reference_point():
    # r chosen so the squeezed variance sits near the inferred -3.19 dB level
    out = apply_squeezer(vacuum(1), 0, 0.36687)
    vx = quadrature_variance(out, 0, 0.0)
    vp = quadrature_variance(out, 0, np.pi / 2)
    assert vx == pytest.approx(np.exp(-2 * 0.36687), rel=1e-12)
    assert vx == pytest.approx(0.4801100166445514, rel=1e-12)
    assert vp == pytest.approx(2.082855939955005, rel=1e-12)
    assert 10 * np.log10(vx) == pytest.approx(-3.19, abs=0.005)


def test_squeezer_phase_rotates_axis():
    out = apply_squeezer(vacuum(1), 0, 0.7, phase=np.pi / 2)
    assert quadrature_variance(out, 0, 0.0) == pytest.approx(np.exp(1.4), rel=1e-10)
    assert quadrature_variance(out, 0, np.pi / 2) == pytest.approx(np.exp(-1.4), rel=1e-10)
    out = apply_squeezer(vacuum(1), 0, 0.7, phase=0.3)
    thetas = np.linspace(0.0, np.pi, 721)
    variances = [quadrature_variance(out, 0, t) for t in thetas]
    assert thetas[int(np.argmin(variances))] == pytest.approx(0.3, abs=0.01)


def test_phaseshift_rotates_measured_quadrature():
    squeezed = apply_squeezer(vacuum(1), 0, 0.6)
    rotated = apply_phaseshift(squeezed, 0, 0.8)
    for theta in (0.0, 0.37, 1.2):
        assert quadrature_variance(rotated, 0, theta) == pytest.approx(
            quadrature_variance(squeezed, 0, theta - 0.8), rel=1e-12)


def test_squeezer_rejects_bad_arguments():
    with pytest.raises(ValueError):
        apply_squeezer(vacuum(1), 0, -0.1)
    with pytest.raises(ValueError):
        apply_squeezer(vacuum(1), 1, 0.5)


def test_coupler_extreme_ratios():
    st = apply_squeezer(vacuum(2), 0, 0.5)
    # R = 1 keeps each mode in place
    kept = apply_coupler(st, 0, 1, 1.0)
    assert np.allclose(kept.cov, st.cov, atol=1e-15)
    # R = 0 swaps the modes (up to quadrature signs)
    swapped = apply_coupler(st, 0, 1, 0.0)
    assert quadrature_variance(swapped, 1, 0.0) == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert quadrature_variance(swapped, 0, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_coupler_balanced_mix_of_squeezed_and_vacuum():
    st = apply_squeezer(vacuum(2), 0, 0.36687)
    v_in = quadrature_variance(st, 0, 0.0)
    out = apply_coupler(st, 0, 1, 0.5)
    expected = (v_in + 1.0) / 2.0
    assert quadrature_variance(out, 0, 0.0) == pytest.approx(expected, rel=1e-12)
    assert quadrature_variance(out, 1, 0.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.7400550083222757, rel=1e-12)


def test_coupler_preserves_total_photon_number():
    rng = np.random.default_rng(11)
    for _ in range(50):
        st = random_gaussian_state(rng, n_modes=2)
        ratio = float(rng.uniform(0.0, 1.0))
        out = apply_coupler(st, 0, 1, ratio)
        before = np.trace(st.cov - np.eye(4)) + st.mean @ st.mean
        after = np.trace(out.cov - np.eye(4)) + out.mean @ out.mean
        assert after == pytest.approx(before, abs=1e-10)


def test_coupler_keeps_two_vacua_invariant():
    for ratio in (0.0, 0.17, 0.5, 0.93, 1.0):
        out = apply_coupler(vacuum(2), 0, 1, ratio)
        assert np.allclose(out.cov, np.eye(4), atol=1e-15)


def test_coupler_rejects_bad_arguments():
    with pytest.raises(ValueError):
        apply_coupler(vacuum(2), 0, 0, 0.5)
    with pytest.raises(ValueError, match=r"ratio must lie in \[0, 1\], got 1.2"):
        apply_coupler(vacuum(2), 0, 1, 1.2)
    with pytest.raises(ValueError, match=r"ratio must lie in \[0, 1\], got nan"):
        apply_coupler(vacuum(2), 0, 1, math.nan)
    with pytest.raises(ValueError):
        apply_coupler(vacuum(2), 0, 2, 0.5)


def test_loss_eta_one_is_identity():
    st = apply_squeezer(vacuum(1), 0, 0.8)
    out = apply_loss(st, 0, 1.0)
    assert np.array_equal(out.cov, st.cov)


def test_loss_reproduces_measured_reference_values():
    st = GaussianState(np.zeros(2), np.diag([V_GEN_SQ, V_GEN_ASQ]))
    out = apply_loss(st, 0, 0.71)
    v_sq = quadrature_variance(out, 0, 0.0)
    v_asq = quadrature_variance(out, 0, np.pi / 2)
    assert v_sq == pytest.approx(0.6309573444801932, rel=1e-12)
    assert v_asq == pytest.approx(1.9054607179632477, rel=1e-12)
    assert 10 * np.log10(v_sq) == pytest.approx(-2.00, abs=1e-9)
    assert 10 * np.log10(v_asq) == pytest.approx(2.80, abs=1e-9)


def test_loss_scales_mean_by_sqrt_eta():
    st = GaussianState(np.array([2.0, -1.0, 0.5, 0.0]), np.eye(4))
    out = apply_loss(st, 0, 0.49)
    assert out.mean[:2] == pytest.approx([2.0 * 0.7, -1.0 * 0.7], rel=1e-12)
    assert np.array_equal(out.mean[2:], st.mean[2:])


def test_loss_rejects_bad_eta():
    for eta in (-0.01, 1.01, math.nan):
        with pytest.raises(ValueError, match=rf"eta must lie in \[0, 1\], got {eta}"):
            apply_loss(vacuum(1), 0, eta)


def test_loss_equals_coupler_with_traced_ancilla():
    rng = np.random.default_rng(23)
    for _ in range(100):
        st = random_gaussian_state(rng)
        mode = int(rng.integers(0, st.n_modes))
        eta = float(rng.uniform(0.0, 1.0))
        direct = apply_loss(st, mode, eta)
        extended = tensor(st, vacuum(1))
        mixed = apply_coupler(extended, mode, st.n_modes, eta)
        reduced = reduce_modes(mixed, range(st.n_modes))
        assert np.allclose(direct.cov, reduced.cov, atol=1e-12)
        assert np.allclose(direct.mean, reduced.mean, atol=1e-12)


def test_lossless_ops_preserve_symplectic_form():
    rng = np.random.default_rng(5)
    for _ in range(200):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            S = embed_single(squeeze_symplectic(float(rng.uniform(0, 2)),
                                                float(rng.uniform(0, 2 * np.pi))), 0, 2)
        elif kind == 1:
            S = embed_single(phaseshift_symplectic(float(rng.uniform(0, 2 * np.pi))), 1, 2)
        else:
            S = embed_pair(coupler_symplectic(float(rng.uniform(0, 1))), 0, 1, 2)
        omega = symplectic_form(2)
        assert np.abs(S @ omega @ S.T - omega).max() < 1e-10


def test_uncertainty_relation_after_random_sequences():
    rng = np.random.default_rng(7)
    omega_cache = {}
    for _ in range(100):
        st = random_gaussian_state(rng, max_ops=8)
        omega = omega_cache.setdefault(st.n_modes, symplectic_form(st.n_modes))
        eigs = np.linalg.eigvalsh(st.cov + 1j * omega)
        assert eigs.min() >= -1e-9


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_package_products_pass_the_public_checks(seed):
    # channels and propagated states skip the eigenvalue checks; the public
    # constructors must accept every one of them
    rng = np.random.default_rng(seed)
    state = random_gaussian_state(rng, max_ops=8)
    GaussianState(state.mean, state.cov)
    spec = random_circuit_spec(rng)
    for channel in compile_spec(spec)[0]:
        GaussianChannel(channel.X, channel.Y)
    out = output_state(spec)
    GaussianState(out.mean, out.cov)
    empty = vacuum(out.n_modes)
    GaussianState(empty.mean, empty.cov)


def _dense(channel):
    """A local element channel written out as the full 2N x 2N (X, Y) pair."""
    n = channel.n_modes
    if len(channel.modes) == 1:
        X = embed_single(channel.X, channel.modes[0], n)
    else:
        X = embed_pair(channel.X, *channel.modes, n)
    rows = [i for m in channel.modes for i in (2 * m, 2 * m + 1)]
    Y = np.zeros((2 * n, 2 * n))
    Y[np.ix_(rows, rows)] = channel.Y
    return X, Y


@st.composite
def _element_channels(draw, n_modes):
    kind = draw(st.sampled_from(["squeezer", "phaseshift", "coupler", "loss"]))
    modes = st.integers(0, n_modes - 1)
    if kind == "squeezer":
        return squeezer_channel(n_modes, draw(modes), draw(st.floats(0.0, 3.0)),
                                draw(st.floats(0.0, 2.0 * np.pi)), draw(st.floats(1.0, 2.0)))
    if kind == "phaseshift":
        return phaseshift_channel(n_modes, draw(modes), draw(st.floats(-7.0, 7.0)))
    if kind == "loss":
        return loss_channel(n_modes, draw(modes), draw(st.floats(0.0, 1.0)))
    if n_modes < 2:
        return loss_channel(n_modes, 0, draw(st.floats(0.0, 1.0)))
    pair = draw(st.lists(modes, min_size=2, max_size=2, unique=True))
    return coupler_channel(n_modes, *pair, draw(st.floats(0.0, 1.0)))


@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_local_apply_equals_the_dense_product(n_modes, seed, displaced, data):
    # an element channel rewrites only its modes' rows and columns; the
    # result must be the dense X C X^T + Y of its embedded 2N x 2N form,
    # and X mean both for a displaced state and for the shared zero mean
    rng = np.random.default_rng(seed)
    state = random_gaussian_state(rng, n_modes=n_modes)
    if displaced:
        state = GaussianState(rng.normal(size=2 * n_modes), state.cov)
    channel = data.draw(_element_channels(n_modes))
    assert channel.X.shape == channel.Y.shape == (2 * len(channel.modes),) * 2
    mean_in, cov_in = state.mean.copy(), state.cov.copy()
    out = channel.apply(state)
    X, Y = _dense(channel)
    want_cov, want_mean = X @ state.cov @ X.T + Y, X @ state.mean
    assert np.abs(out.cov - want_cov).max() <= 1e-12 * np.abs(want_cov).max()
    assert np.abs(out.mean - want_mean).max() <= 1e-12 * max(1.0, np.abs(want_mean).max())
    assert np.array_equal(out.cov, out.cov.T)
    assert np.array_equal(state.cov, cov_in) and np.array_equal(state.mean, mean_in)
    # the public all-modes channel of the same dense pair takes the same path
    full = GaussianChannel(X, Y)
    assert full.modes == tuple(range(n_modes))
    assert np.abs(full.apply(state).cov - want_cov).max() <= 1e-12 * np.abs(want_cov).max()


def test_squeezing_beyond_double_precision_is_rejected():
    # e^400 is a double, the squeezed covariance e^800 is not
    channel = squeezer_channel(2, 1, 400.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            channel.apply(vacuum(2))


@pytest.mark.parametrize("call", [lambda: apply_squeezer(vacuum(1), 0, 400.0),
                                  lambda: squeezer_channel(1, 0, 800.0),
                                  # (excess - 1) e^2r overflows just past r = ln(max double)/2
                                  lambda: squeezer_channel(1, 0, 354.9, 0.0, 1.5),
                                  lambda: squeezer_channel(1, 0, 709.8, 0.3),
                                  lambda: squeezer_channel(1, 0, math.nan),
                                  lambda: squeezer_channel(1, 0, math.inf),
                                  lambda: squeezer_channel(1, 0, 0.5, math.nan),
                                  lambda: squeezer_channel(1, 0, 0.5, math.inf),
                                  lambda: squeezer_channel(1, 0, 0.5, 0.0, math.nan),
                                  lambda: squeezer_channel(1, 0, 0.5, 0.0, math.inf),
                                  lambda: phaseshift_channel(1, 0, math.inf),
                                  lambda: phaseshift_channel(1, 0, math.nan)],
                         ids=["apply-e800", "channel-e800", "excess-e2r", "rotated-e709.8",
                              "r-nan", "r-inf", "phase-nan", "phase-inf", "excess-nan",
                              "excess-inf", "theta-inf", "theta-nan"])
def test_direct_overflowing_squeezer_raises_only_value_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy overflow warning would fail here
        with pytest.raises(ValueError, match="non-finite"):
            call()


def test_quadrature_variance_pi_periodic():
    rng = np.random.default_rng(13)
    for _ in range(25):
        st = random_gaussian_state(rng)
        mode = int(rng.integers(0, st.n_modes))
        theta = float(rng.uniform(0, 2 * np.pi))
        a = quadrature_variance(st, mode, theta)
        b = quadrature_variance(st, mode, theta + np.pi)
        assert abs(a - b) < 1e-12


def test_mean_stays_zero_without_displacements():
    rng = np.random.default_rng(17)
    for _ in range(25):
        st = random_gaussian_state(rng)
        assert np.array_equal(st.mean, np.zeros(2 * st.n_modes))


def test_state_validation_rejects_bad_covariances():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), 0.1 * np.eye(2))  # below the uncertainty bound
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), np.eye(3))


def test_channel_complete_positivity_check():
    loss = loss_channel(1, 0, 0.5)
    assert np.allclose(loss.X, np.sqrt(0.5) * np.eye(2))
    with pytest.raises(ValueError):
        GaussianChannel(np.eye(2), -0.1 * np.eye(2))
    # a bare squeezing X with no added noise is fine (symplectic)
    ch = GaussianChannel(squeeze_symplectic(0.5), np.zeros((2, 2)))
    omega = symplectic_form(1)
    assert np.abs(ch.X @ omega @ ch.X.T - omega).max() < 1e-10
    assert np.abs(ch.Y).max() == 0.0


def test_squeezer_channel_excess_semantics():
    ch = squeezer_channel(1, 0, 0.36687, excess=1.1)
    out = ch.apply(vacuum(1))
    assert quadrature_variance(out, 0, 0.0) == pytest.approx(np.exp(-2 * 0.36687), rel=1e-12)
    assert quadrature_variance(out, 0, np.pi / 2) == pytest.approx(1.1 * np.exp(2 * 0.36687), rel=1e-12)
    with pytest.raises(ValueError):
        squeezer_channel(1, 0, 0.36687, excess=0.9)


def test_tensor_and_reduce_round_trip():
    rng = np.random.default_rng(29)
    a = random_gaussian_state(rng, n_modes=2)
    b = random_gaussian_state(rng, n_modes=1)
    joint = tensor(a, b)
    assert joint.n_modes == 3
    back = reduce_modes(joint, [0, 1])
    assert np.allclose(back.cov, a.cov, atol=1e-15)
    assert np.allclose(reduce_modes(joint, [2]).cov, b.cov, atol=1e-15)
    with pytest.raises(ValueError):
        reduce_modes(joint, [0, 0])
