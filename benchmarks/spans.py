"""Span recording around the package's public functions, installed at run time.

The benchmark does not change the package: `Tracer.install` replaces each
target function, wherever a `sqzsim` module holds it under its own name,
with a wrapper that records a span, and `uninstall` puts the originals
back. A target that no longer exists is skipped and named by
`absent_targets`, so its metrics drop out of the results instead of failing.
"""

import statistics
import sys
import time

# (span name, defining module, attribute, size of the result or None)
TARGETS = (
    ("netlist.parse", "sqzsim.netlist", "parse", lambda spec: len(spec.statements)),
    ("netlist.compile_spec", "sqzsim.netlist", "compile_spec", lambda out: len(out[0])),
    ("gaussian.apply", "sqzsim.gaussian", "GaussianChannel.apply", None),
    ("homodyne.sweep", "sqzsim.homodyne", "sweep", lambda trace: trace.phases.size),
    ("homodyne.synthesize_trace", "sqzsim.homodyne", "synthesize_trace", None),
    ("homodyne.write_trace_csv", "sqzsim.homodyne", "write_trace_csv", None),
    ("budget.build_report", "sqzsim.budget", "build_report", None),
    ("budget.report_to_json", "sqzsim.budget", "report_to_json", None),
    ("simulate.run_spec", "sqzsim.simulate", "run_spec", None),
)


def _resolve(module_name, attr):
    """(owner, attribute name, original) for a target, or None if it no longer exists."""
    owner = sys.modules.get(module_name)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    original = getattr(owner, parts[-1], None) if owner is not None else None
    return None if original is None else (owner, parts[-1], original)


def absent_targets():
    """Span names whose target is missing from the imported package."""
    return [name for name, module_name, attr, _ in TARGETS if _resolve(module_name, attr) is None]


class Tracer:
    """In-memory spans: (name, start_ns, end_ns, parent index or -1, request id, size)."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []
        self._patches = []

    def span(self, name, fn, *args, size=None, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.request, None)
        if size is not None:
            try:
                self.spans[index] = (name, start, end, parent, self.request, int(size(result)))
            except (AttributeError, TypeError, IndexError):
                pass
        return result

    def _wrapper(self, name, original, size):
        def traced(*args, **kwargs):
            return self.span(name, original, *args, size=size, **kwargs)
        traced.__wrapped__ = original
        return traced

    def install(self):
        """Wrap every target that exists in the imported package."""
        for name, module_name, attr, size in TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                continue
            owner, leaf, original = found
            wrapper = self._wrapper(name, original, size)
            if owner is not sys.modules[module_name]:   # a method: patch the class
                self._patch(owner, leaf, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "sqzsim" or mod_name.startswith("sqzsim."):
                    if getattr(mod, leaf, None) is original:
                        self._patch(mod, leaf, original, wrapper)

    def _patch(self, owner, leaf, original, wrapper):
        setattr(owner, leaf, wrapper)
        self._patches.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches = []


# Per-request sums of span durations, reported as medians over the requests
# that made the call.
_SUMMED = {
    "netlist.parse_ms": ("netlist.parse",),
    "netlist.compile_ms": ("netlist.compile_spec",),
    "homodyne.sweep_ms": ("homodyne.sweep",),
    "homodyne.synthesize_ms": ("homodyne.synthesize_trace",),
    "homodyne.csv_ms": ("homodyne.write_trace_csv",),
    "budget.report_ms": ("budget.build_report", "budget.report_to_json"),
    "simulate.run_spec_ms": ("simulate.run_spec",),
}


def layer_metrics(spans):
    """Per-layer metrics from one run's spans.

    Propagation is the `GaussianChannel.apply` spans whose parent is
    `run_spec`; the applies inside `sweep` belong to the sweep. Self time
    is a span's duration minus that of its direct children.
    """
    def ms(span):
        return (span[2] - span[1]) / 1e6

    children = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)

    requests = {}
    for i, span in enumerate(spans):
        name, req = span[0], span[4]
        acc = requests.setdefault(req, {})
        for metric, names in _SUMMED.items():
            if name in names:
                acc[metric] = acc.get(metric, 0.0) + ms(span)
        if name == "netlist.parse" and span[5] is not None:
            acc["netlist.statements"] = span[5]
        if name == "homodyne.sweep" and span[5] is not None:
            acc["homodyne.sweep_points"] = acc.get("homodyne.sweep_points", 0) + span[5]
        if name == "simulate.run_spec":
            kids = children.get(i, [])
            applies = [spans[k] for k in kids if spans[k][0] == "gaussian.apply"]
            acc["gaussian.propagate_ms"] = acc.get("gaussian.propagate_ms", 0.0) + sum(map(ms, applies))
            acc["gaussian.apply_calls"] = acc.get("gaussian.apply_calls", 0) + len(applies)
            acc["simulate.self_ms"] = (acc.get("simulate.self_ms", 0.0) + ms(span)
                                       - sum(ms(spans[k]) for k in kids))

    metrics = {}
    keys = list(_SUMMED) + ["netlist.statements", "homodyne.sweep_points", "gaussian.propagate_ms",
                            "gaussian.apply_calls", "simulate.self_ms"]
    for key in keys:
        values = [acc[key] for acc in requests.values() if key in acc]
        if values:
            metrics[key] = statistics.median(values)

    def total(key):
        return sum(acc.get(key, 0) for acc in requests.values())

    if total("gaussian.apply_calls"):
        metrics["gaussian.apply_us"] = 1e3 * total("gaussian.propagate_ms") / total("gaussian.apply_calls")
    if total("homodyne.sweep_points"):
        metrics["homodyne.sweep_us_per_point"] = (1e3 * total("homodyne.sweep_ms")
                                                  / total("homodyne.sweep_points"))
    return metrics
