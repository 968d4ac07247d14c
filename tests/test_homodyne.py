"""Homodyne chain efficiency, trace synthesis and detection invariants."""

import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_gaussian_state
from sqzsim import (
    GaussianState,
    Homodyne,
    HomodyneTrace,
    apply_loss,
    apply_squeezer,
    effective_efficiency,
    measure_variance,
    phase_grid,
    purity_product,
    sweep,
    synthesize_trace,
    vacuum,
    write_trace_csv,
)


def chain(**fields):
    """A hand-built `Homodyne` statement on mode `sig`; ideal detection unless overridden."""
    return Homodyne(**{"mode": "sig", "eta_pd": 1.0, "eta_e": 1.0, "ratio": 0.5,
                       "sweep": (0.0, 1.0, 2), **fields})


IDEAL = 1.0
REFERENCE_CHAIN = chain(eta_pd=0.88, eta_e=0.94752)
REFERENCE_ETA = effective_efficiency(REFERENCE_CHAIN)
REFERENCE_M = REFERENCE_CHAIN.rbw / REFERENCE_CHAIN.vbw


def reference_chip_state():
    """State at the circuit output whose measured extrema are exactly -2.00/+2.80 dB."""
    eta_total = 0.85777 * 0.99 * REFERENCE_ETA
    vx = (10 ** -0.2 - (1.0 - eta_total)) / eta_total
    vp = (10 ** 0.28 - (1.0 - eta_total)) / eta_total
    return GaussianState(np.diag([vx, vp]))


def test_effective_efficiency_values():
    assert effective_efficiency(chain()) == 1.0
    assert effective_efficiency(REFERENCE_CHAIN) == pytest.approx(0.8338176, rel=1e-12)
    lopsided = chain(ratio=0.45)
    assert effective_efficiency(lopsided) == pytest.approx(0.99, rel=1e-12)


def test_config_validation():
    # the efficiency eta and M = rbw/vbw are the edges; a `Homodyne` checks its own fields
    for eta in (-0.1, 1.2, math.nan, math.inf):
        with pytest.raises(ValueError, match="eta must lie in"):
            measure_variance(vacuum(1), 0, 0.0, eta)
        with pytest.raises(ValueError, match="eta must lie in"):
            sweep(vacuum(1), 0, eta, phase_grid(0.0, 1.0, 4))
    trace = sweep(vacuum(1), 0, IDEAL, phase_grid(0.0, 1.0, 4))
    for m_samples in (10.0 / 30.0, 0.0, -1.0, math.nan, math.inf):   # vbw > rbw gives M < 1
        with pytest.raises(ValueError, match="rbw/vbw"):
            synthesize_trace(trace, m_samples, 1)


def test_vacuum_measures_at_shot_noise():
    for eta in (IDEAL, REFERENCE_ETA):
        for theta in (0.0, 1.0, np.pi / 2):
            assert measure_variance(vacuum(1), 0, theta, eta) == pytest.approx(1.0, abs=1e-12)


def test_full_chain_reproduces_measured_values():
    state = reference_chip_state()
    state = apply_loss(state, 0, 0.85777)  # chip facet
    state = apply_loss(state, 0, 0.99)     # pump filter
    v_sq = measure_variance(state, 0, 0.0, REFERENCE_ETA)
    v_asq = measure_variance(state, 0, np.pi / 2, REFERENCE_ETA)
    assert v_sq == pytest.approx(0.6309573444801932, abs=1e-12)
    assert v_asq == pytest.approx(1.9054607179632477, abs=1e-12)
    assert 10 * math.log10(v_sq) == pytest.approx(-2.00, abs=1e-9)
    assert 10 * math.log10(v_asq) == pytest.approx(2.80, abs=1e-9)


def test_sweep_flat_for_vacuum():
    trace = sweep(vacuum(1), 0, REFERENCE_ETA, phase_grid(0.0, 2 * np.pi, 32))
    assert np.allclose(trace.variance_db, 0.0, atol=1e-12)


def test_sweep_closed_form_extrema():
    state = apply_squeezer(vacuum(1), 0, 0.5)
    trace = sweep(state, 0, IDEAL, phase_grid(0.0, 2 * np.pi, 720))
    assert trace.variance_db.min() == pytest.approx(-4.342944819032518, abs=1e-9)
    assert trace.variance_db.max() == pytest.approx(4.342944819032518, abs=1e-9)


def test_sweep_accepts_explicit_phase_array():
    phases = np.array([0.0, np.pi / 2])
    trace = sweep(apply_squeezer(vacuum(1), 0, 0.3), 0, IDEAL, phases)
    assert trace.variance_db[0] < 0.0 < trace.variance_db[1]


def test_sweep_needs_two_points():
    with pytest.raises(ValueError):
        sweep(vacuum(1), 0, IDEAL, phase_grid(0.0, 1.0, 1))


def test_noiseless_trace_pi_periodic():
    state = apply_squeezer(vacuum(1), 0, 0.7, phase=0.4)
    trace = sweep(state, 0, REFERENCE_ETA, phase_grid(0.0, 2 * np.pi, 16))
    half = 8
    assert np.abs(trace.variance_db[:half] - trace.variance_db[half:]).max() < 1e-12


def test_trace_length_mismatch_rejected():
    with pytest.raises(ValueError):
        HomodyneTrace(phases=np.zeros(3), variance_db=np.zeros(2))


def test_synthesize_is_deterministic_per_seed():
    trace = sweep(apply_squeezer(vacuum(1), 0, 0.4), 0, REFERENCE_ETA,
                  phase_grid(0.0, 2 * np.pi, 64))
    a = synthesize_trace(trace, REFERENCE_M, 123)
    b = synthesize_trace(trace, REFERENCE_M, 123)
    c = synthesize_trace(trace, REFERENCE_M, 124)
    assert np.array_equal(a.variance_db, b.variance_db)
    assert not np.array_equal(a.variance_db, c.variance_db)
    assert np.array_equal(a.phases, trace.phases)


def test_synthesize_requires_seed():
    trace = sweep(vacuum(1), 0, REFERENCE_ETA, phase_grid(0.0, 1.0, 4))
    with pytest.raises(ValueError):
        synthesize_trace(trace, REFERENCE_M, seed=None)


def test_estimator_noise_statistics():
    # M = rbw/vbw = 100000/30, relative sigma sqrt(2/M) = 0.0244949
    n_points = 10000
    trace = sweep(vacuum(1), 0, REFERENCE_ETA, phase_grid(0.0, 2 * np.pi, n_points))
    noisy = synthesize_trace(trace, REFERENCE_M, 7)
    factors = 10 ** (noisy.variance_db / 10.0)  # model trace is exactly 1.0
    sigma_expected = math.sqrt(2.0 / REFERENCE_M)
    assert sigma_expected == pytest.approx(0.02449489742783178, rel=1e-12)
    assert abs(factors.mean() - 1.0) < 0.01
    assert abs(factors.std() - sigma_expected) < 0.05 * sigma_expected


def test_estimator_noise_vbw_equals_rbw_edge():
    # M = 1 drives the relative sigma to sqrt(2); the factors must stay positive
    trace = sweep(vacuum(1), 0, IDEAL, phase_grid(0.0, 2 * np.pi, 20000))
    noisy = synthesize_trace(trace, 1.0, 3)
    assert np.isfinite(noisy.variance_db).all()
    assert noisy.variance_db.min() > -300.0
    factors = 10 ** (noisy.variance_db / 10.0)  # model trace is exactly 1.0
    assert abs(factors.mean() - 1.0) < 0.03
    assert abs(factors.std() - math.sqrt(2.0)) < 0.05 * math.sqrt(2.0)


def test_degradation_is_monotone_in_each_factor():
    state = apply_squeezer(vacuum(1), 0, 0.5)
    grids = {
        "eta_pd": np.linspace(1.0, 0.5, 6),
        "eta_e": np.linspace(1.0, 0.5, 6),
        "visibility": np.linspace(1.0, 0.7, 6),
        "ratio": np.linspace(0.5, 0.2, 6),
    }
    for field, values in grids.items():
        previous = None
        for value in values:
            eta = effective_efficiency(chain(**{field: float(value)}))
            level = abs(10 * math.log10(measure_variance(state, 0, 0.0, eta)))
            anti = abs(10 * math.log10(measure_variance(state, 0, np.pi / 2, eta)))
            if previous is not None:
                assert level <= previous[0] + 1e-12
                assert anti <= previous[1] + 1e-12
            previous = (level, anti)


def test_measured_variance_never_below_loss_floor():
    rng = np.random.default_rng(53)
    for _ in range(50):
        state = random_gaussian_state(rng)
        mode = int(rng.integers(0, state.n_modes))
        eta = effective_efficiency(chain(eta_pd=float(rng.uniform(0.3, 1.0)),
                                         eta_e=float(rng.uniform(0.3, 1.0)),
                                         ratio=float(rng.uniform(0.1, 0.9))))
        theta = float(rng.uniform(0.0, 2 * np.pi))
        floor = 1.0 - eta
        assert measure_variance(state, mode, theta, eta) >= floor - 1e-12


@given(st.integers(min_value=0, max_value=2**63 - 1), st.integers(min_value=8, max_value=720))
def test_sampled_extrema_lie_within_the_grid_bound_of_the_eigenvalues(seed, n):
    # V(theta) = mean + (spread/2) cos(2(theta - theta0)): a grid of spacing 2pi/n
    # samples each extremum within pi/n, i.e. within spread * sin^2(pi/n)
    rng = np.random.default_rng(seed)
    state = random_gaussian_state(rng, max_ops=8)
    mode = int(rng.integers(0, state.n_modes))
    eta = effective_efficiency(chain(eta_pd=float(rng.uniform(0.3, 1.0)),
                                     eta_e=float(rng.uniform(0.3, 1.0)),
                                     ratio=float(rng.uniform(0.1, 0.9)),
                                     visibility=float(rng.uniform(0.8, 1.0))))
    lam = np.linalg.eigvalsh(state.cov[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2])
    lo, hi = eta * lam + (1.0 - eta)
    bound = (lam[1] - lam[0]) * math.sin(math.pi / n) ** 2
    tol = 1e-12 * hi
    measured = measure_variance(state, mode, phase_grid(0.0, 2 * np.pi, n), eta)
    assert lo - tol <= measured.min() <= lo + bound + tol
    assert hi - bound - tol <= measured.max() <= hi + tol


def test_extrema_product_matches_purity_product():
    state = reference_chip_state()
    state = apply_loss(apply_loss(state, 0, 0.85777), 0, 0.99)
    trace = sweep(state, 0, REFERENCE_ETA, phase_grid(0.0, 2 * np.pi, 720))
    lo, hi = float(trace.variance_db.min()), float(trace.variance_db.max())
    linear_product = 10 ** (lo / 10.0) * 10 ** (hi / 10.0)
    assert abs(linear_product - purity_product(lo, hi)) < 1e-10


def test_csv_export_format():
    trace = HomodyneTrace(phases=np.array([0.0, 0.5]), variance_db=np.array([0.0, -2.125]))
    buffer = io.StringIO()
    text = write_trace_csv(trace, buffer)
    assert buffer.getvalue() == text
    assert text == "phase_rad,variance_db\n0.0,0.0\n0.5,-2.125\n"
    assert "\r" not in text


def test_csv_rows_are_the_reprs_of_the_python_floats():
    awkward = [-0.0, 1e-300, 5e-324, 0.1 + 0.2, 2 * math.pi]
    trace = HomodyneTrace(phases=np.array(awkward), variance_db=np.array(awkward[::-1]))
    rows = write_trace_csv(trace, io.StringIO()).splitlines(keepends=True)
    assert rows[1:] == [f"{x!r},{y!r}\n" for x, y in zip(awkward, awkward[::-1])]
