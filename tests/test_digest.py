"""Output bytes of a fixed set of runs: the guard for changes that must not move a number.

The set is the paper chip and the benchmark's `stress_chip(401)`, each
noiseless and with noise seeds 1 and 7, plus 400 `random_circuit_spec`
specs from `default_rng(0)`, each noiseless and with noise seed 3. One
sha256 covers each run's CSV and report-JSON bytes, or its error message.
`tests/data/digest_golden.json` holds every feasible run's raw extrema,
checked within 1e-12 dB, and the runs that are rejected; a change that
moves output bytes on purpose re-pins the sha256 and must still pass it.
Run this file as a script to write the golden file.
"""

import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import benchmark_module, random_circuit_spec
from sqzsim import data_path, parse, report_to_json, run_spec, write_trace_csv

GOLDEN = Path(__file__).resolve().parent / "data" / "digest_golden.json"
DIGEST_SHA256 = "48f4f6ea146af39ba313f29c455559d0bc16482b8e083a0207c7ce82edf473fb"


def _runs():
    """(name, spec, noiseless, seed) for every run of the set, in digest order."""
    chips = [("paper", parse(data_path("paper_chip.nl").read_text())),
             ("stress401", parse(benchmark_module("workloads").stress_chip(401).text))]
    for name, spec in chips:
        yield f"{name}/noiseless", spec, True, None
        for seed in (1, 7):
            yield f"{name}/seed{seed}", spec, False, seed
    rng = np.random.default_rng(0)
    for i in range(400):
        spec = random_circuit_spec(rng)
        yield f"random{i}/noiseless", spec, True, None
        yield f"random{i}/seed3", spec, False, 3


def _outcomes():
    """name -> (output bytes, raw extrema or None) for every run, in digest order."""
    out = {}
    for name, spec, noiseless, seed in _runs():
        try:
            trace, report = run_spec(spec, noiseless=noiseless, seed=seed)
        except (ValueError, OverflowError) as exc:   # the two kinds the CLI maps to exit 2
            out[name] = (f"{type(exc).__name__}: {exc}".encode(), None)
            continue
        data = write_trace_csv(trace, io.StringIO()).encode() + report_to_json(report).encode()
        out[name] = (data, (report.raw_sq_db, report.raw_asq_db))
    return out


@pytest.fixture(scope="module")
def outcomes():
    return _outcomes()


def test_digest_set_bytes(outcomes):
    digest = hashlib.sha256()
    for name, (data, _) in outcomes.items():
        digest.update(name.encode() + b"\n" + hashlib.sha256(data).digest())
    assert digest.hexdigest() == DIGEST_SHA256


def test_digest_set_raw_extrema_match_golden(outcomes):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    rejected = [name for name, (_, raw) in outcomes.items() if raw is None]
    assert rejected == golden["rejected"]
    feasible = {name: raw for name, (_, raw) in outcomes.items() if raw is not None}
    assert feasible.keys() == golden["raw_db"].keys()
    for name, (sq_db, asq_db) in feasible.items():
        want_sq, want_asq = golden["raw_db"][name]
        assert abs(sq_db - want_sq) <= 1e-12 and abs(asq_db - want_asq) <= 1e-12, name


if __name__ == "__main__":
    results = _outcomes()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({
        "rejected": [name for name, (_, raw) in results.items() if raw is None],
        "raw_db": {name: raw for name, (_, raw) in results.items() if raw is not None},
    }, indent=1) + "\n", encoding="utf-8")
