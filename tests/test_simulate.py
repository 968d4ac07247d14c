"""End-to-end simulation: channel applications per run and the efficiency total."""

import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sqzsim
from conftest import benchmark_module, random_circuit_spec
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
    gaussian,
    output_state,
    parse,
    run_spec,
    total_efficiency,
)
from sqzsim.gaussian import LAYER_MODES, _layers


def test_paper_chip_run_applies_each_channel_once(monkeypatch):
    # one per layer, none for detection: all three statements act on `sig`, so
    # each is its own layer; the vacuum and every propagated state are physical
    # by construction, so nothing is eigensolved
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




@pytest.mark.parametrize("r,raw_sq_db", [
    # the oracle's values: a forward covariance cancels to <= 0 on the squeezed axis here
    (10.0, -86.85889638065036), (12.0, -104.23067565678045), (200.0, -1737.1779276130073),
    (400.0, None),   # e^-800 and e^800: past a double on the measured axis, so rejected
])
@pytest.mark.parametrize("noiseless", [True, False])
def test_squeezing_beyond_double_precision_is_rejected_without_a_warning(r, raw_sq_db, noiseless):
    # Tier-1 turns warnings into errors
    spec = parse(f"modes: sig\nsqueezer sig r={r} phase=1.1\n"
                 "homodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=1.1:3.5:8\n")
    if raw_sq_db is None:
        with pytest.raises(ValueError, match="model trace is not finite"):
            run_spec(spec, noiseless=noiseless, seed=None if noiseless else 1)
    else:
        report = run_spec(spec, noiseless=noiseless, seed=None if noiseless else 1)[1]
        assert abs(report.raw_sq_db - raw_sq_db) <= 1e-9


@pytest.mark.parametrize("noiseless,seed", [(True, 5), (False, None), (False, 1.5), (False, -1), (False, "7"),
                                             (False, np.array(3))])
def test_run_spec_rejects_a_seed_that_does_not_fit_the_route_before_any_work(noiseless, seed, monkeypatch):
    # a noiseless run that takes a seed would ignore it; a noisy one without a seed, or with one
    # that numpy's generator refuses, fails at once, not after the walk and the forward pass
    # (a 0-d array passes operator.index but not the generator)
    def no_work(spec):
        raise AssertionError("run_spec worked before checking its seed")

    monkeypatch.setattr(sqzsim.simulate, "_cone", no_work)
    monkeypatch.setattr(sqzsim.simulate, "_propagate", no_work)
    if noiseless or seed is None:
        message = f"a noisy run needs a seed and a noiseless one takes none, got noiseless={noiseless}, seed={seed}"
    else:
        message = f"a noise seed is an integer >= 0, got seed={seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_spec(parse(data_path("paper_chip.nl").read_text()), noiseless=noiseless, seed=seed)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint8(7), True, 0])
def test_run_spec_takes_a_numpy_or_bool_seed_as_the_int_it_equals(seed):
    spec = parse(data_path("paper_chip.nl").read_text())
    trace = run_spec(spec, noiseless=False, seed=seed)[0]
    assert trace.variance_db.tolist() == run_spec(spec, noiseless=False, seed=int(seed))[0].variance_db.tolist()


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


def _statement_modes(spec):
    index = {name: i for i, name in enumerate(spec.modes)}
    return [tuple(index[getattr(st, name)] for name in st._mode_fields) for st in spec.statements]


def test_compiled_channels_are_capped_layers_in_statement_order():
    # no channel carries the 2N x 2N identity: each layer is a block on at most
    # LAYER_MODES modes, so compile and apply stay O(N) per statement
    spec = _chip(64, seed=3)
    channels = compile_spec(spec)[0]
    for channel in channels:
        assert len(set(channel.modes)) == len(channel.modes) <= LAYER_MODES
        assert channel.X.shape[0] == channel.Y.shape[0] <= 2 * LAYER_MODES
        assert channel.n_modes == 64
    statement_modes = _statement_modes(spec)
    layers = _layers(statement_modes)
    assert len(layers) == len(channels) < len(statement_modes)
    assert sorted(i for layer in layers for i in layer) == list(range(len(statement_modes)))
    layer_of = {i: k for k, layer in enumerate(layers) for i in layer}
    for layer, channel in zip(layers, channels):
        assert channel.modes == tuple(m for i in layer for m in statement_modes[i])
    last = {}   # mode -> layer of the last statement on it so far
    for i, modes in enumerate(statement_modes):
        for m in modes:
            assert last.get(m, -1) < layer_of[i]
            last[m] = layer_of[i]


def test_a_squeezer_on_every_mode_of_a_wide_chip_fills_capped_layers():
    # without the cap these 512 commuting squeezers would make one dense 1024 x 1024 block
    names = [f"m{i}" for i in range(512)]
    spec = parse("modes: " + " ".join(names) + "\n" + "".join(f"squeezer {name} r=0.1\n" for name in names)
                 + "homodyne m0 eta_pd=0.88 eta_e=0.95 ratio=0.5 sweep=0:6.28:8\n")
    channels = compile_spec(spec)[0]
    assert len(channels) == 512 // LAYER_MODES
    assert all(len(channel.modes) == LAYER_MODES and channel.X.shape == (2 * LAYER_MODES,) * 2
               for channel in channels)
    assert sorted(m for channel in channels for m in channel.modes) == list(range(512))


@pytest.fixture
def plan():
    gaussian._plan.cache_clear()
    yield gaussian._plan
    gaussian._plan.cache_clear()


def _other_values(spec, k=0):
    """`spec`'s topology, the same statement kinds on the same modes, with values drawn from `k`."""
    values = {"squeezer": {"r": 0.1 + 0.1 * k, "phase": 0.7 - 0.2 * k}, "phaseshift": {"theta": 0.4 + k},
              "coupler": {"ratio": (k + 1) / 10}, "loss": {"eta": (k + 1) / 10}}
    statements = tuple(type(st)(**{name: getattr(st, name) for name in st._mode_fields}, **values[st._keyword])
                       for st in spec.statements)
    return CircuitSpec(modes=spec.modes, statements=statements, measurement=spec.measurement)


def _layout(spec):
    """Every compiled channel's X and Y bytes, shape, modes, mode count and rows."""
    return [(c.X.tobytes(), c.Y.tobytes(), c.X.shape, c.Y.shape, c.modes, c.n_modes,
             c._rows if isinstance(c._rows, slice) else (c._rows.dtype.str, c._rows.tobytes()))
            for c in compile_spec(spec)[0]]


def _plan_specs():
    yield parse(data_path("paper_chip.nl").read_text())
    yield parse(benchmark_module("workloads").stress_chip(401).text)
    rng = np.random.default_rng(0)   # the digest's random specs
    for _ in range(400):
        yield random_circuit_spec(rng)


def test_a_layout_plan_cannot_change_a_channel(plan):
    # one plan per topology: a miss, a miss after another topology took the plan's
    # place, and a hit after the same topology compiled with other values all give
    # the same channels, bit for bit, and the same output state
    other = parse("modes: a b c d e\nloss e eta=0.5\nhomodyne a eta_pd=1 eta_e=1 ratio=0.5 sweep=0:1:4\n")
    index_rows = 0
    for spec in _plan_specs():
        plan.cache_clear()
        miss = _layout(spec)
        plan.cache_clear()
        state = output_state(spec).cov.tobytes()
        compile_spec(other)
        assert _layout(spec) == miss
        assert output_state(spec).cov.tobytes() == state
        compile_spec(_other_values(spec))
        hits = plan.cache_info().hits
        assert _layout(spec) == miss
        assert output_state(spec).cov.tobytes() == state
        assert plan.cache_info().hits == hits + 2
        index_rows += sum(not isinstance(layout[-1], slice) for layout in miss)
    assert index_rows > 0   # some layers' rows are index arrays, whose read-only flag is checked below
    for spec in _plan_specs():
        compile_spec(spec)
        assert plan.cache_info().currsize == 1
        index = {name: i for i, name in enumerate(spec.modes)}
        order, cells, layers, _ = plan(len(spec.modes), tuple(st._block(index)[0] for st in spec.statements))
        assert not cells.flags.writeable
        assert not any(rows.flags.writeable for *_, rows in layers if not isinstance(rows, slice))


def test_threads_compiling_two_topologies_get_the_channels_of_serial_compiles(plan):
    # eight threads, each with its own values, alternate between two topologies and so
    # keep evicting one another's plan from the one-plan memo
    topologies = [parse(data_path("paper_chip.nl").read_text()), _chip(16, seed=7)]
    specs = [[_other_values(spec, k) for spec in topologies] for k in range(8)]
    expected = []
    for own in specs:
        expected.append([])
        for spec in own:
            plan.cache_clear()
            expected[-1].append(_layout(spec))
    plan.cache_clear()
    wrong = []

    def work(k):
        for i in range(200):
            if _layout(specs[k][i % 2]) != expected[k][i % 2]:
                wrong.append((k, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    hits, misses, _, held = plan.cache_info()
    assert hits + misses == 8 * 200 and held == 1


def test_output_state_matches_dense_propagation():
    spec = _chip(32, seed=5)
    want = _dense_output_state(spec)
    got = output_state(spec).cov
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
