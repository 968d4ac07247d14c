"""End-to-end simulation: channel applications per run and the efficiency total."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzsim import (
    CircuitSpec,
    GaussianChannel,
    Homodyne,
    Loss,
    Squeezer,
    data_path,
    parse,
    run_spec,
    total_efficiency,
)


def test_paper_chip_run_applies_each_channel_once(monkeypatch):
    # one per statement, none for detection; the only eigenvalue check is
    # the vacuum built by the public constructor
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
    assert calls == {"apply": 3, "eigvalsh": 1}


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
