"""Gaussian state and channel operations against closed forms and invariants."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    parse,
    quadrature_variance,
    reduce_modes,
    symplectic_form,
    tensor,
    vacuum,
)
from sqzsim.gaussian import (
    LAYER_MODES,
    _layers,
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
        before = np.trace(st.cov - np.eye(4))
        after = np.trace(out.cov - np.eye(4))
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
    st = GaussianState(np.diag([V_GEN_SQ, V_GEN_ASQ]))
    out = apply_loss(st, 0, 0.71)
    v_sq = quadrature_variance(out, 0, 0.0)
    v_asq = quadrature_variance(out, 0, np.pi / 2)
    assert v_sq == pytest.approx(0.6309573444801932, rel=1e-12)
    assert v_asq == pytest.approx(1.9054607179632477, rel=1e-12)
    assert 10 * np.log10(v_sq) == pytest.approx(-2.00, abs=1e-9)
    assert 10 * np.log10(v_asq) == pytest.approx(2.80, abs=1e-9)


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
    GaussianState(state.cov)
    spec = random_circuit_spec(rng)
    for channel in compile_spec(spec)[0]:
        GaussianChannel(channel.X, channel.Y)
    out = output_state(spec)
    GaussianState(out.cov)
    GaussianState(vacuum(out.n_modes).cov)


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


@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_local_apply_equals_the_dense_product(n_modes, seed, data):
    # an element channel rewrites only its modes' rows and columns; the
    # result must be the dense X C X^T + Y of its embedded 2N x 2N form
    rng = np.random.default_rng(seed)
    state = random_gaussian_state(rng, n_modes=n_modes)
    channel = data.draw(_element_channels(n_modes))
    assert channel.X.shape == channel.Y.shape == (2 * len(channel.modes),) * 2
    cov_in = state.cov.copy()
    out = channel.apply(state)
    X, Y = _dense(channel)
    want_cov = X @ state.cov @ X.T + Y
    assert np.abs(out.cov - want_cov).max() <= 1e-12 * np.abs(want_cov).max()
    assert np.array_equal(out.cov, out.cov.T)
    assert np.array_equal(state.cov, cov_in)
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


def test_squeezing_to_the_edge_of_double_precision_is_kept():
    # e^2r is about 1.5e308: the output is a double, and the symmetrised
    # block is halved before its two halves are added, so it does not overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply_squeezer(vacuum(1), 0, 354.8)
    assert out.cov[1, 1] == pytest.approx(math.exp(709.6), rel=1e-12)
    assert out.cov[0, 0] > 0.0 and out.cov[0, 1] == 0.0


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


def test_symplectic_matrices_are_the_channel_blocks():
    # one formula per element: the matrices are the X blocks the channels hold
    np.testing.assert_array_equal(squeeze_symplectic(0.4, 1.1), squeezer_channel(1, 0, 0.4, 1.1).X)
    np.testing.assert_array_equal(phaseshift_symplectic(-2.5), phaseshift_channel(1, 0, -2.5).X)
    np.testing.assert_array_equal(coupler_symplectic(0.3), coupler_channel(2, 0, 1, 0.3).X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):   # e^710 is not a double
            squeeze_symplectic(710.0)


@pytest.mark.parametrize("call,message", [
    (lambda: phaseshift_symplectic(math.nan), "channel contains non-finite values"),
    (lambda: phaseshift_symplectic(math.inf), "channel contains non-finite values"),
    (lambda: coupler_symplectic(math.nan), r"ratio must lie in \[0, 1\], got nan"),
    (lambda: coupler_symplectic(1.5), r"ratio must lie in \[0, 1\], got 1.5"),
    (lambda: squeeze_symplectic(-1.0), "squeezing parameter r must be >= 0"),
], ids=["theta-nan", "theta-inf", "ratio-nan", "ratio-1.5", "r-negative"])
def test_symplectic_matrices_reject_what_their_channels_reject(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_symplectic_matrices_are_writable_copies():
    matrix = coupler_symplectic(0.3)
    matrix[0, 0] = 2.0
    assert coupler_symplectic(0.3)[0, 0] == math.sqrt(0.3)


@pytest.mark.parametrize("statement,build", [
    ("squeezer a r=0.4 phase=1.1 excess=1.2", lambda: squeezer_channel(2, 0, 0.4, 1.1, 1.2)),
    ("squeezer b r=0.7", lambda: squeezer_channel(2, 1, 0.7)),
    ("phaseshift b theta=-2.5", lambda: phaseshift_channel(2, 1, -2.5)),
    ("coupler b a ratio=0.3", lambda: coupler_channel(2, 1, 0, 0.3)),
    ("loss a eta=0.71", lambda: loss_channel(2, 0, 0.71)),
], ids=["squeezer-excess", "squeezer", "phaseshift", "coupler", "loss"])
def test_compiled_one_statement_chip_is_its_channel_bit_for_bit(statement, build):
    spec = parse(f"modes: a b\n{statement}\nhomodyne a eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4\n")
    [channel] = compile_spec(spec)[0]
    want = build()
    assert (channel.modes, channel.n_modes) == (want.modes, want.n_modes)
    np.testing.assert_array_equal(channel.X, want.X)
    np.testing.assert_array_equal(channel.Y, want.Y)
    assert (channel.X.tobytes(), channel.Y.tobytes()) == (want.X.tobytes(), want.Y.tobytes())


def _plain_layers(block_modes):
    """The layering rule as a plain scan from each block's first free layer: the reference for `_layers`."""
    layers, widths, after = [], [], {}   # after: mode -> first layer free of it
    for i, modes in enumerate(block_modes):
        k = max(after.get(m, 0) for m in modes)
        while k < len(layers) and widths[k] + len(modes) > LAYER_MODES:
            k += 1
        if k == len(layers):
            layers.append([])
            widths.append(0)
        layers[k].append(i)
        widths[k] += len(modes)
        for m in modes:
            after[m] = k + 1
    return layers


_MODE = st.integers(0, 39)
_BLOCK = st.one_of(st.tuples(_MODE), st.lists(_MODE, min_size=2, max_size=2, unique=True).map(tuple))
# seven one-mode blocks on distinct modes leave a layer at 7 of LAYER_MODES, which a
# two-mode block then skips and a later one-mode block can still fill
_SEVEN = st.lists(_MODE, min_size=LAYER_MODES - 1, max_size=LAYER_MODES - 1, unique=True).map(
    lambda modes: [(m,) for m in modes])


@settings(max_examples=30)
@given(st.lists(st.one_of(_BLOCK.map(lambda block: [block]), _SEVEN), max_size=30).map(
    lambda runs: [block for run in runs for block in run]))
@example([(m,) for m in range(7)] + [(7, 8), (9,), (0, 1), (10,)])
def test_layers_are_those_of_the_plain_scan(block_modes):
    assert _layers(block_modes) == _plain_layers(block_modes)


def test_quadrature_variance_pi_periodic():
    rng = np.random.default_rng(13)
    for _ in range(25):
        st = random_gaussian_state(rng)
        mode = int(rng.integers(0, st.n_modes))
        theta = float(rng.uniform(0, 2 * np.pi))
        a = quadrature_variance(st, mode, theta)
        b = quadrature_variance(st, mode, theta + np.pi)
        assert abs(a - b) < 1e-12


_NOT_SQUARE = "cov must be a non-empty square 2N x 2N matrix, got shape "


@pytest.mark.parametrize("cov,message", [
    (np.array([[1.0, 0.5], [0.2, 1.0]]), "covariance matrix is not symmetric"),
    # cov - cov^T would overflow; the check halves each entry first
    (np.array([[1.0, 1.7e308], [-1.7e308, 1.0]]), "covariance matrix is not symmetric"),
    (0.1 * np.eye(2), "covariance matrix violates the uncertainty relation"),
    (np.eye(3), _NOT_SQUARE + "(3, 3)"),
    (np.zeros((0, 0)), _NOT_SQUARE + "(0, 0)"),
    (np.ones(4), _NOT_SQUARE + "(4,)"),
    (np.ones((2, 4)), _NOT_SQUARE + "(2, 4)"),
    (np.diag([1.0, math.nan]), "state contains non-finite values"),
    (np.diag([math.inf, 1.0]), "state contains non-finite values"),
], ids=["asymmetric", "asymmetric-near-max", "below-uncertainty", "odd", "empty", "vector",
        "rectangular", "nan", "inf"])
def test_state_validation_rejects_bad_covariances(cov, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy overflow warning would fail here
        with pytest.raises(ValueError, match=re.escape(message)):
            GaussianState(cov)


@pytest.mark.parametrize("matrix", [np.diag([1.5e308, 1.0]), np.array([[1.0, -0.0], [-0.0, 1.0]])],
                         ids=["near-max", "negative-zero"])
@pytest.mark.parametrize("store", [lambda m: GaussianState(m).cov,
                                   lambda m: GaussianChannel(np.eye(2), m).Y],
                         ids=["state-cov", "channel-Y"])
def test_symmetric_input_is_stored_bit_for_bit(store, matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # 1.5e308 + 1.5e308 would overflow
        stored = store(matrix)
    assert stored.tobytes() == matrix.tobytes()


def test_asymmetry_within_tolerance_is_averaged_to_an_exactly_symmetric_matrix():
    cov = np.array([[2.0, 0.3 + 1e-13], [0.3, 1.0]])
    stored = GaussianState(cov).cov
    assert np.array_equal(stored, stored.T)
    assert stored[0, 1] == 0.5 * cov[0, 1] + 0.5 * cov[1, 0]


@pytest.mark.parametrize("call,message", [
    (lambda: GaussianChannel(np.eye(3), np.zeros((3, 3))),
     "X must be a non-empty square 2N x 2N matrix, got shape (3, 3)"),
    (lambda: GaussianChannel(np.zeros((0, 0)), np.zeros((0, 0))),
     "X must be a non-empty square 2N x 2N matrix, got shape (0, 0)"),
    (lambda: GaussianChannel(np.eye(2), np.zeros((4, 4))), "Y must have the same shape as X"),
    (lambda: GaussianChannel(np.diag([1.0, math.nan]), np.zeros((2, 2))), "channel contains non-finite values"),
    (lambda: GaussianChannel(np.eye(2), np.diag([math.inf, 0.0])), "channel contains non-finite values"),
    (lambda: GaussianChannel(np.eye(2), np.array([[0.0, 1.7e308], [-1.7e308, 0.0]])), "Y must be symmetric"),
    (lambda: loss_channel(2, 0, 0.5).apply(vacuum(3)), "channel and state mode counts differ"),
], ids=["X-odd", "X-empty", "Y-shape", "X-nan", "Y-inf", "Y-asymmetric-near-max", "mode-counts"])
def test_channel_rejects_bad_blocks_and_other_mode_counts(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


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
