"""End-to-end simulation: channel applications per run and the efficiency total."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzsim import (
    CircuitSpec,
    Coupler,
    GaussianChannel,
    Homodyne,
    Loss,
    PhaseShift,
    Squeezer,
    compile_spec,
    data_path,
    output_state,
    parse,
    run_spec,
    total_efficiency,
)


def test_paper_chip_run_applies_each_channel_once(monkeypatch):
    # one per statement, none for detection; the vacuum and every
    # propagated state are physical by construction, so nothing is eigensolved
    calls = {"apply": 0, "eigvalsh": 0}
    apply, eigvalsh = GaussianChannel.apply, np.linalg.eigvalsh

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(GaussianChannel, "apply", counted("apply", apply))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
    run_spec(parse(data_path("paper_chip.nl").read_text()))
    assert calls == {"apply": 3, "eigvalsh": 0}


def test_eta_total_counts_every_measured_loss_whatever_its_label():
    # the labels collide with the chain's own photodiode and visibility keys
    spec = parse("modes: sig\nsqueezer sig r=0.3\nloss sig eta=0.9 label=photodiode\n"
                 "loss sig eta=0.95 label=visibility\n"
                 "homodyne sig eta_pd=0.88 eta_e=0.95 ratio=0.5 sweep=0:3.14:8 visibility=0.97\n")
    _, report = run_spec(spec)
    assert report.eta_total == pytest.approx(0.88 * 0.95 * 0.9 * 0.95 * 0.97**2, rel=1e-15)
    assert report.budget == {"photodiode": 0.9, "visibility": 0.95, "visibility_2": 0.97**2,
                             "photodiode_2": 0.88, "electronics": 0.95}
    assert report.eta_total == total_efficiency(report.budget)


_LABELS = st.sampled_from([None, "fresnel", "photodiode", "photodiode_2", "visibility",
                           "electronics", "coupler_imbalance"])


@given(losses=st.lists(st.tuples(st.floats(0.3, 1.0), _LABELS), min_size=1, max_size=4),
       ratio=st.floats(0.2, 0.8), visibility=st.floats(0.8, 1.0), data=st.data())
def test_eta_total_is_the_budget_product_in_any_loss_order(losses, ratio, visibility, data):
    def report_for(order):
        statements = [Squeezer(mode="sig", r=0.5)]
        statements += [Loss(mode="sig", eta=eta, label=label) for eta, label in order]
        measurement = Homodyne(mode="sig", eta_pd=0.88, eta_e=0.95, ratio=ratio,
                               sweep=(0.0, 3.14, 8), visibility=visibility)
        return run_spec(CircuitSpec(("sig",), tuple(statements), measurement))[1]

    report = report_for(losses)
    assert report.eta_total == total_efficiency(report.budget)
    assert len(report.budget) >= len(losses) + 2
    assert report_for(data.draw(st.permutations(losses))).eta_total == report.eta_total



@pytest.mark.parametrize("fields,noiseless,message", [
    ({"eta_pd": 1.5}, True, "eta_pd must lie in"),
    ({"visibility": -0.5}, True, "visibility must lie in"),
    ({"ratio": 1.5}, True, "ratio must lie in"),
    ({"rbw": 10.0, "vbw": 30.0}, False, "rbw/vbw"),
])
def test_hand_built_homodyne_out_of_range_is_rejected(fields, noiseless, message):
    # a CircuitSpec built without the parser still has its detection chain checked
    measurement = Homodyne(**{"mode": "sig", "eta_pd": 0.88, "eta_e": 0.95, "ratio": 0.5,
                              "sweep": (0.0, 3.14, 8), **fields})
    spec = CircuitSpec(("sig",), (Squeezer(mode="sig", r=0.5),), measurement)
    with pytest.raises(ValueError, match=message):
        run_spec(spec, noiseless=noiseless, seed=None if noiseless else 1)

def _chip(n_modes, seed):
    """Seeded chip: a squeezer on every mode, then 3N random couplers, losses and phase shifts."""
    rng = np.random.default_rng(seed)
    names = [f"m{i}" for i in range(n_modes)]
    lines = ["modes: " + " ".join(names)]
    for name in names:
        lines.append(f"squeezer {name} r={rng.uniform(0.1, 0.8)!r} "
                     f"phase={rng.uniform(0.0, np.pi)!r} excess={rng.uniform(1.0, 1.2)!r}")
    for _ in range(3 * n_modes):
        kind = rng.integers(0, 3)
        a, b = rng.choice(n_modes, size=2, replace=False)
        if kind == 0:
            lines.append(f"coupler {names[a]} {names[b]} ratio={rng.uniform(0.05, 0.95)!r}")
        elif kind == 1:
            lines.append(f"loss {names[a]} eta={rng.uniform(0.8, 1.0)!r}")
        else:
            lines.append(f"phaseshift {names[a]} theta={rng.uniform(0.0, 2.0 * np.pi)!r}")
    lines.append(f"homodyne {names[0]} eta_pd=0.88 eta_e=0.95 ratio=0.5 sweep=0:6.28:8")
    return parse("\n".join(lines) + "\n")


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def _dense_output_state(spec):
    """Covariance after the chip by dense 2N x 2N propagation, cov -> X cov X^T + Y."""
    index = {name: i for i, name in enumerate(spec.modes)}
    dim = 2 * len(spec.modes)
    cov = np.eye(dim)
    for stmt in spec.statements:
        X, Y = np.eye(dim), np.zeros((dim, dim))
        a = 2 * index[stmt.mode_a if isinstance(stmt, Coupler) else stmt.mode]
        if isinstance(stmt, Squeezer):
            rot = _rotation(stmt.phase)
            X[a:a + 2, a:a + 2] = rot @ np.diag([np.exp(-stmt.r), np.exp(stmt.r)]) @ rot.T
            Y[a:a + 2, a:a + 2] = rot @ np.diag([0.0, (stmt.excess - 1.0) * np.exp(2 * stmt.r)]) @ rot.T
        elif isinstance(stmt, Coupler):
            b = 2 * index[stmt.mode_b]
            t, s = np.sqrt(stmt.ratio), np.sqrt(1.0 - stmt.ratio)
            for i in range(2):
                X[a + i, a + i] = X[b + i, b + i] = t
                X[a + i, b + i], X[b + i, a + i] = s, -s
        elif isinstance(stmt, Loss):
            X[a:a + 2, a:a + 2] = np.sqrt(stmt.eta) * np.eye(2)
            Y[a:a + 2, a:a + 2] = (1.0 - stmt.eta) * np.eye(2)
        else:
            assert isinstance(stmt, PhaseShift)
            X[a:a + 2, a:a + 2] = _rotation(stmt.theta)
        cov = X @ cov @ X.T + Y
    return cov


def test_compiled_channels_are_local_blocks():
    # no element carries the 2N x 2N identity: compile and apply are O(N) per statement
    channels = compile_spec(_chip(64, seed=3))[0]
    assert len(channels) == 4 * 64
    for channel in channels:
        assert channel.X.shape[0] <= 4 and channel.Y.shape[0] <= 4
        assert channel.n_modes == 64


def test_output_state_matches_dense_propagation():
    spec = _chip(32, seed=5)
    want = _dense_output_state(spec)
    got = output_state(spec).cov
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
