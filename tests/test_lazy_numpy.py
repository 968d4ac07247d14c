"""numpy and sqzsim's modules load on first use: scalar commands never import numpy, and every path works.

Nor do they import `dataclasses` or `inspect`, and only `analyze` imports
`json`, for its report. No command imports `argparse`, `simulate` included.
Of sqzsim's modules, only `validate` runs `netlist`, and it alone does not
run `budget`; no scalar command runs `gaussian`, `homodyne`, `simulate` or
`fock`.

Each test runs a fresh interpreter with warnings as errors, because this
suite itself imports numpy and sqzsim's modules.
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
# loaded: a sqzsim module that ran is a plain module (reading its type runs nothing)
CLI = """
import sys
import types
from sqzsim.cli import main
code = main(sys.argv[1:])
loaded = [name for name in ("numpy", "dataclasses", "inspect", "json", "argparse") if name in sys.modules]
loaded += [name for name, module in sys.modules.items()
           if name.startswith("sqzsim.") and type(module) is types.ModuleType]
print("loaded:", *loaded, file=sys.stderr)
sys.exit(code)
"""
# the sqzsim modules that only simulate and the library calls need
ARRAY_MODULES = {"sqzsim.gaussian", "sqzsim.homodyne", "sqzsim.simulate", "sqzsim.fock"}


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
    assert not loaded & ({"numpy", "dataclasses", "inspect", "argparse"} | ARRAY_MODULES)
    if argv[0] != "analyze":   # only a report needs json
        assert "json" not in loaded
    assert ("sqzsim.netlist" in loaded) == (argv[0] == "validate")
    assert ("sqzsim.budget" in loaded) == (argv[0] != "validate")


def test_simulate_process_loads_no_argparse(tmp_path):
    done = _python("-c", CLI, "simulate", PAPER, "--noiseless",
                   "--csv", str(tmp_path / "trace.csv"), "--report", str(tmp_path / "report.json"))
    assert done.returncode == 0, done.stderr
    loaded = _loaded(done)
    assert "argparse" not in loaded
    assert {"numpy", "sqzsim.simulate", "sqzsim.budget"} <= loaded


@pytest.mark.parametrize("kind,mutate", MALFORMED, ids=[kind for kind, _ in MALFORMED])
def test_malformed_netlist_is_rejected_without_numpy(tmp_path, kind, mutate):
    bad = tmp_path / "bad.nl"
    bad.write_text(mutate(Path(PAPER).read_text(encoding="utf-8")), encoding="utf-8")
    done = _python("-c", CLI, "validate", str(bad))
    assert done.returncode == 2, done.stderr
    assert f": {kind}: " in done.stderr
    loaded = _loaded(done)
    assert not loaded & ({"numpy", "dataclasses", "inspect", "json", "argparse", "sqzsim.budget"}
                         | ARRAY_MODULES)
    assert "sqzsim.netlist" in loaded


# the benchmark's tracer on the CLI path, as `benchmarks/cli_traced.py` runs it: installed
# after `import sqzsim.cli` alone, it must still reach every target, and leave no wrapper behind
TRACED_CLI = """
import importlib.util
import json
import sys
import types
import sqzsim.cli
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
try:
    code = sqzsim.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
wrapped = []
for name, module in list(sys.modules.items()):
    if name == "sqzsim" or name.startswith("sqzsim."):
        for attr in dir(module):
            value = getattr(module, attr)
            members = vars(value).items() if isinstance(value, type) else ()
            for label, member in [(attr, value), *((f"{attr}.{key}", v) for key, v in members)]:
                if isinstance(member, types.FunctionType) and hasattr(member, "__wrapped__"):
                    wrapped.append(f"{name}.{label}")
print(json.dumps({"code": code, "spans": sorted({span[0] for span in tracer.spans}), "wrapped": wrapped}))
"""


def test_tracer_on_the_cli_path_records_every_target_and_uninstalls(tmp_path):
    targets = {name for name, *_ in benchmark_module("spans").TARGETS}
    spans_py = str(Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py")
    done = _python("-c", TRACED_CLI, spans_py, "simulate", PAPER, "--seed", "3",
                   "--csv", str(tmp_path / "trace.csv"), "--report", str(tmp_path / "report.json"))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert set(result["spans"]) == targets and len(targets) == 9
    assert result["wrapped"] == []


# every name the package exported when `__init__.py` imported each from its module
EXPORTED = """
EfficiencyBudget InfeasibleMeasurementError SqueezingReport build_report electronic_efficiency
extrapolate_squeezing forward_measured fresnel_efficiency infer_generated pump_to_r purity_product
report_to_json total_efficiency from_db to_db FockState TruncationError apply_loss_fock mean_photons
quadrature_variance_fock squeezed_vacuum_fock GaussianChannel GaussianState apply_coupler apply_loss
apply_phaseshift apply_squeezer quadrature_variance reduce_modes symplectic_form tensor vacuum
HomodyneTrace detection_factors effective_efficiency measure_variance phase_grid sweep
synthesize_trace write_trace_csv CircuitSpec Coupler Homodyne Loss MeasurementPlan NetlistParseError
PhaseShift Squeezer compile_spec parse pretty_print budget_factors output_state run_spec
""".split()


def test_every_exported_name_is_listed_and_resolves():
    assert len(set(EXPORTED)) == 54 and set(EXPORTED) <= set(dir(sqzsim))
    star = {}
    exec("from sqzsim import *", star)
    for name in EXPORTED:
        assert getattr(sqzsim, name) is star[name] is not None
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sqzsim.no_such_name


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
assert "numpy" not in sys.modules
import numpy
assert numpy.linalg.eigvalsh(numpy.diag([2.0, 1.0])).tolist() == [1.0, 2.0]
assert sqzsim.vacuum(2).cov.tolist() == numpy.eye(4).tolist()
""")
    assert done.returncode == 0, done.stderr


def test_first_use_from_many_threads_at_once_waits_for_whole_modules():
    # more threads than cores, switching as often as the interpreter allows, all reading
    # not-yet-run modules at once: each must see every module whole
    done = _python("-c", """
import sys
import threading
import sqzsim
text = sqzsim.data_path("paper_chip.nl").read_bytes()
barrier = threading.Barrier(8)
errors, finished = [], []
def use():
    try:
        barrier.wait(timeout=30)
        spec = sqzsim.parse(text)
        assert sqzsim.vacuum(len(spec.modes)).n_modes == len(spec.modes)
        finished.append(1)
    except Exception as exc:
        errors.append(repr(exc))
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=use) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
assert errors == [] and len(finished) == 8, errors
""")
    assert done.returncode == 0, done.stderr


def test_numpy_imported_before_sqzsim_stays_the_same_module():
    done = _python("-c", """
import sys
import numpy
import sqzsim
assert sqzsim.gaussian.np is numpy and sys.modules["numpy"] is numpy
""")
    assert done.returncode == 0, done.stderr
