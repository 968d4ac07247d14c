"""End-to-end simulation: channel applications per run and the efficiency total."""

import numpy as np
import pytest

from sqzsim import GaussianChannel, data_path, parse, run_spec


def test_paper_chip_run_applies_each_channel_once(monkeypatch):
    # three statements plus one detection loss; the only eigenvalue check is
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
    assert calls == {"apply": 4, "eigvalsh": 1}


def test_eta_total_counts_every_measured_loss_whatever_its_label():
    spec = parse("modes: sig\nsqueezer sig r=0.3\nloss sig eta=0.9 label=photodiode\n"
                 "loss sig eta=0.95 label=visibility\n"
                 "homodyne sig eta_pd=0.88 eta_e=0.95 ratio=0.5 sweep=0:3.14:8\n")
    _, report = run_spec(spec)
    assert report.eta_total == pytest.approx(0.88 * 0.95 * 0.9 * 0.95, rel=1e-15)
