"""numpy loads on first use: the scalar subcommands never import it, and every other path still works.

Nor do they import `dataclasses` or `inspect`, and only `analyze` imports
`json`, for its report.

Each test runs a fresh interpreter with warnings as errors, because this
suite itself imports numpy before sqzsim and so never takes the lazy path.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqzsim
from conftest import benchmark_module
from sqzsim import data_path, parse, report_to_json, run_spec, write_trace_csv

SRC = str(Path(sqzsim.__file__).resolve().parent.parent)
PAPER = str(data_path("paper_chip.nl"))
EXPECTED = json.loads(data_path("paper_expected.json").read_text(encoding="utf-8"))
MALFORMED = benchmark_module("workloads").MALFORMED

# runs the CLI, then names on the last stderr line which of the watched modules it
# loaded: a loaded numpy has imported its submodules, a lazily registered one has none
CLI = """
import sys
from sqzsim.cli import main
code = main(sys.argv[1:])
loaded = ["numpy"] * any(name.startswith("numpy.") for name in sys.modules)
loaded += [name for name in ("dataclasses", "inspect", "json") if name in sys.modules]
print("loaded:", *loaded, file=sys.stderr)
sys.exit(code)
"""


def _python(*args):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-W", "error", *args], capture_output=True, text=True,
                          env=env, timeout=120)


def _loaded(done):
    """The watched modules that a run of `CLI` loaded, read off its last stderr line."""
    last = done.stderr.splitlines()[-1].split()
    assert last[0] == "loaded:", done.stderr
    return set(last[1:])


_BUDGET, _EXT = EXPECTED["budget_rounded"], EXPECTED["extrapolation"]
# the benchmark's scalar CLI commands besides the malformed netlist: (id, argv, exit code)
_ROWS = [
    ("validate", ["validate", PAPER], 0),
    ("analyze-budget", ["analyze", "--sq-db", repr(EXPECTED["raw_sq_db"]),
                        "--asq-db", repr(EXPECTED["raw_asq_db"]),
                        "--eta-fresnel", repr(_BUDGET["fresnel"]), "--eta-filter", repr(_BUDGET["filter"]),
                        "--eta-pd", repr(_BUDGET["photodiode"]), "--eta-e", repr(_BUDGET["electronics"])], 0),
    ("analyze-infeasible", ["analyze", "--sq-db", "-10.0", "--asq-db", repr(EXPECTED["raw_asq_db"]),
                            "--eta", repr(EXPECTED["eta_total"])], 2),
    ("extrapolate", ["extrapolate", "--gain", repr(_EXT["gain_per_sqrt_mw"]),
                     "--pump-mw", repr(_EXT["pump_mw"]), "--eta-eff", repr(_EXT["eta_eff_example"])], 0),
    ("calibrate", ["calibrate", "--snr-db", repr(EXPECTED["snr_db"]), "--n-chip", repr(EXPECTED["n_chip"])], 0),
]


@pytest.mark.parametrize("argv,code", [row[1:] for row in _ROWS], ids=[row[0] for row in _ROWS])
def test_scalar_command_never_loads_numpy(argv, code):
    done = _python("-c", CLI, *argv)
    assert done.returncode == code, done.stderr
    loaded = _loaded(done)
    assert not loaded & {"numpy", "dataclasses", "inspect"}
    if argv[0] != "analyze":   # only a report needs json
        assert "json" not in loaded


@pytest.mark.parametrize("kind,mutate", MALFORMED, ids=[kind for kind, _ in MALFORMED])
def test_malformed_netlist_is_rejected_without_numpy(tmp_path, kind, mutate):
    bad = tmp_path / "bad.nl"
    bad.write_text(mutate(Path(PAPER).read_text(encoding="utf-8")), encoding="utf-8")
    done = _python("-c", CLI, "validate", str(bad))
    assert done.returncode == 2, done.stderr
    assert f": {kind}: " in done.stderr
    assert _loaded(done) == set()


def test_simulate_process_writes_the_in_process_bytes(tmp_path):
    csv, report = tmp_path / "trace.csv", tmp_path / "report.json"
    done = _python("-m", "sqzsim.cli", "simulate", PAPER, "--seed", "3",
                   "--csv", str(csv), "--report", str(report))
    assert done.returncode == 0, done.stderr
    trace, expected = run_spec(parse(Path(PAPER).read_bytes()), noiseless=False, seed=3)
    assert csv.read_bytes() == write_trace_csv(trace, io.StringIO()).encode()
    assert report.read_bytes() == report_to_json(expected).encode()


def test_numpy_imported_after_sqzsim_works():
    done = _python("-c", """
import sys
import sqzsim
assert not any(name.startswith("numpy.") for name in sys.modules)
lazy = sys.modules["numpy"]
import numpy
assert numpy is lazy
assert numpy.linalg.eigvalsh(numpy.diag([2.0, 1.0])).tolist() == [1.0, 2.0]
assert sqzsim.vacuum(2).cov.tolist() == numpy.eye(4).tolist()
""")
    assert done.returncode == 0, done.stderr


def test_numpy_imported_before_sqzsim_stays_the_same_module():
    done = _python("-c", """
import sys
import numpy
import sqzsim._numpy
assert sqzsim._numpy.np is numpy and sys.modules["numpy"] is numpy
""")
    assert done.returncode == 0, done.stderr
