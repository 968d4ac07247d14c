"""The benchmark's span targets: every per-layer metric it derives from spans must still appear.

`benchmarks/spans.py` wraps named package functions at run time and skips
any that no longer exist, so a refactor that stops calling one of them
drops that layer's metrics from the benchmark output without an error.
This runs the benchmark's own in-process request under its tracer, with
both modules loaded read-only from `benchmarks/`.
"""

import json
from pathlib import Path

import pytest

import sqzsim
from conftest import benchmark_module

ROOT = Path(__file__).resolve().parent.parent
SPAN_PREFIXES = ("netlist.", "homodyne.", "budget.", "simulate.")
SPAN_GAUSSIAN = {"gaussian.propagate_ms", "gaussian.apply_calls", "gaussian.apply_us"}

spans = benchmark_module("spans")
workloads = benchmark_module("workloads")


def _span_metric_names():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    names = {m["name"] for m in declared}
    return {name for name in names if name.startswith(SPAN_PREFIXES) or name in SPAN_GAUSSIAN}


def test_every_span_target_exists():
    assert spans.absent_targets() == []


@pytest.mark.parametrize("chip", ["paper", "stress1"])
def test_traced_requests_yield_every_span_metric(chip):
    text = (sqzsim.data_path("paper_chip.nl").read_text(encoding="utf-8") if chip == "paper"
            else workloads.stress_chip(1).text)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for request, (noiseless, seed) in enumerate([(True, None), (False, 5)]):
            tracer.request = request
            workloads.inprocess_request(sqzsim, text, noiseless, seed)
    finally:
        tracer.uninstall()
    missing = _span_metric_names() - set(spans.layer_metrics(tracer.spans))
    assert not missing, f"per-layer metrics no longer produced: {sorted(missing)}"
