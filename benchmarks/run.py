"""sqzsim benchmark: one command, three workloads, every metric by name and unit.

    python3 benchmarks/run.py --workload paper_chip --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Each workload is a closed loop with one client in one process:

* `paper_chip`: the bundled netlist as users run it (parse, run_spec,
  CSV, report JSON), alternating noiseless and seeded-noisy requests.
  The 720-point sweep dominates.
* `stress_chip`: the same pipeline on a seeded 32-mode, 128-statement chip
  with an 8-point sweep. Compile and channel application dominate.
* `cli_mix`: one `python -m sqzsim.cli` process per request, cycling
  through simulate, validate, analyze, extrapolate and calibrate, including
  the documented rejections (exit 2). Interpreter start and imports dominate.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs each request
both untraced and with span wrappers installed, and reports the per-layer
metrics, import and CLI probes, and the tracing overhead. The last stdout
line is one JSON object; the full results, with provenance and (traced)
the spans, go to `benchmarks/results/`. Exit status is 1 when an output
check fails and 2 on bad arguments or a missing package source.
"""

import os

# One client and no helper threads: the numbers are for a single core's work.
# Set before anything imports numpy, and inherited by every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable
from pathlib import Path

import speed
import workloads as wl
from spans import Tracer, absent_targets, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("paper_chip", "stress_chip", "cli_mix")
SETUP_REPEATS = 9
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {"runs_per_s": "1/s", "run_ms.p50": "ms", "run_ms.p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us") or name.endswith("_us_per_point") or "_us." in name:
        return "us"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """The `launcher.py` process, which starts and times every child process of a run."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launcher.py")], cwd=ROOT,
                                     env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.children_maxrss_kb = 0

    def run(self, argv):
        """Run one process to completion; (wall seconds, exit code or None on timeout, stdout, stderr)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout": CHILD_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.poll()}")
        reply = json.loads(line)
        self.children_maxrss_kb = reply["children_maxrss_kb"]
        return reply["wall_s"], reply["code"], reply["stdout"], reply["stderr"]

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Run:
    """Counts, latencies and failures of one benchmark run, and its process launcher."""

    def __init__(self, launcher):
        self.launcher = launcher
        self.attempted = 0
        self.failures = []
        self.latencies_ms = []
        self.kernel_ms = []        # speed-gauge sample taken before each latency, plus one after
        self.overhead_pairs = []   # (untraced s, traced s) per request, traced runs only

    def record(self, error, what):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")
            if len(self.failures) <= 5:
                print(f"FAILED {what}: {error}", file=sys.stderr)


def measure_setup(run, argv):
    """Median wall time of fresh interpreters running the workload's first request.

    Returns (raw median, median scaled to the reference host speed).
    """
    run.launcher.run(argv)  # bytecode caches and the page cache warm once, as for any user
    times, kernels = [], []
    for _ in range(SETUP_REPEATS):
        kernels.append(speed.kernel_ms())
        wall, code, _, err = run.launcher.run(argv)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {err.strip()[-300:]}")
        times.append(wall)
    kernels.append(speed.kernel_ms())
    return statistics.median(times), statistics.median(speed.normalize(times, kernels))


def timed_loop(seconds, step, run=None):
    """Closed loop: call step(k) for k = 0, 1, ... until `seconds` have passed.

    With `run`, the speed gauge is sampled before each step and once after the last.
    """
    start = time.perf_counter()
    k = 0
    while True:
        if run is not None:
            run.kernel_ms.append(speed.kernel_ms())
        step(k)
        k += 1
        if time.perf_counter() - start >= seconds:
            if run is not None:
                run.kernel_ms.append(speed.kernel_ms())
            return time.perf_counter() - start


# --- in-process workloads ---------------------------------------------------

def inprocess_workload(workload, seed, seconds, trace, run, prov):
    import sqzsim as sq

    ledger = wl.CsvLedger()
    plan = wl.schedule(seed)
    if workload == "paper_chip":
        text, expected = wl.paper_inputs(ROOT)

        def check(noiseless, noise_seed, result):
            return wl.check_paper_result(expected, ledger, noiseless, noise_seed, result)
    else:
        chip = wl.stress_chip(seed)
        text = chip.text
        reference = wl.dense_reference_db(chip)

        def check(noiseless, noise_seed, result):
            return wl.check_stress_result(chip, reference, ledger, noiseless, noise_seed, result)
        prov["stress_chip"]["netlist_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    prov["noise_seeds"] = wl.noise_seeds(seed)

    for noiseless, noise_seed in plan[:2]:   # warm caches and lazy set-up
        wl.inprocess_request(sq, text, noiseless, noise_seed)

    tracer = Tracer()

    def attempt(k, traced):
        noiseless, noise_seed = plan[k % len(plan)]
        start = time.perf_counter()
        try:
            if traced:
                tracer.request = k
                tracer.install()
                try:
                    result = tracer.span("request", wl.inprocess_request, sq, text, noiseless, noise_seed)
                finally:
                    tracer.uninstall()
            else:
                result = wl.inprocess_request(sq, text, noiseless, noise_seed)
        except Exception as exc:  # any exception is a failed request, reported with its type
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        return elapsed, check(noiseless, noise_seed, result)

    def step(k):
        if not trace:
            elapsed, error = attempt(k, False)
            run.latencies_ms.append(1e3 * elapsed)
            run.record(error, f"request {k}")
            return
        order = (False, True) if (k // 2) % 2 == 0 else (True, False)
        walls = {}
        for traced in order:
            walls[traced], error = attempt(k, traced)
            run.record(error, f"request {k} ({'traced' if traced else 'untraced'})")
        run.overhead_pairs.append((walls[False], walls[True]))

    if trace:
        cli_walls = {}
        probes = trace_probes(run, sq, seed, cli_walls)
        elapsed = timed_loop(seconds, step)
        return elapsed, traced_layers(probes, cli_walls, tracer.spans), tracer.spans

    setup = measure_setup(run, [sys.executable, str(BENCH_DIR / "first_request.py"), workload, str(seed)])
    elapsed = timed_loop(seconds, step, run)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return elapsed, {"setup": setup, "peak_rss_mb": peak_kb / 1024.0}, None


# --- probes (traced runs) -----------------------------------------------------

NUMPY_PROBE = ("import time; t = time.perf_counter(); import numpy; "
               "print(time.perf_counter() - t)")
SQZSIM_PROBE = ("import time, numpy; t = time.perf_counter(); import sqzsim; "
                "print(time.perf_counter() - t)")


def trace_probes(run, sq, seed, cli_walls):
    """Import probes, one CLI cycle (walls added to `cli_walls`) and the apply_loss probes."""
    layers = {}
    samples = {"cli.python_ms": [], "cli.numpy_import_ms": [], "cli.sqzsim_import_ms": []}
    for i in range(PROBE_REPEATS + 1):
        for key, argv in (("cli.python_ms", ["-c", "pass"]),
                          ("cli.numpy_import_ms", ["-c", NUMPY_PROBE]),
                          ("cli.sqzsim_import_ms", ["-c", SQZSIM_PROBE])):
            wall, code, out, err = run.launcher.run([sys.executable, *argv])
            error = None if code == 0 else f"exit {code}: {err.strip()[-200:]}"
            run.record(error, f"probe {key}")
            if error is None and i > 0:   # the first round only warms caches
                samples[key].append(wall if key == "cli.python_ms" else float(out.strip()))
    for key, values in samples.items():
        if values:
            layers[key] = 1e3 * statistics.median(values)

    malformed = wl.MALFORMED[seed % len(wl.MALFORMED)]
    expected = wl.paper_inputs(ROOT)[1]
    for command in cli_cycle(0, wl.noise_seeds(seed, 2), malformed, work_dir(), expected):
        wall, error = run_cli_command(run, command, traced=False)
        run.record(error, f"probe cli {command.sub}")
        cli_walls.setdefault(command.sub, []).append(wall)

    apply_loss = getattr(sq, "apply_loss", None)
    if apply_loss is not None:
        for n_modes, reps in ((2, 400), (64, 12)):
            state = sq.vacuum(n_modes)
            apply_loss(state, 0, 0.9)
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                apply_loss(state, 0, 0.9)
                times.append(time.perf_counter() - start)
            layers[f"gaussian.apply_loss_us.n{n_modes}"] = 1e6 * statistics.median(times)
    return layers


def traced_layers(probes, cli_walls, spans):
    """All per-layer metrics of a traced run."""
    layers = dict(probes)
    layers.update({f"cli.{sub}_ms": 1e3 * statistics.median(walls) for sub, walls in cli_walls.items()})
    layers.update(layer_metrics(spans))
    absent = absent_targets()
    if absent:
        print(f"absent span targets, their metrics are left out: {', '.join(absent)}", file=sys.stderr)
    return layers


# --- cli_mix ----------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """One CLI process of the mix with its expected exit code and output check."""

    sub: str
    args: list
    expect_exit: int
    check: Callable[[str, str], str | None]   # (stdout, stderr) -> error text or None


def work_dir():
    path = BENCH_DIR / ".work"
    path.mkdir(exist_ok=True)
    return path


def cli_cycle(i, seed_pool, malformed, workdir, expected, ledger=None):
    """The eight commands of cycle i, as a user scripting the tool would run them.

    This is the expected-exit table: each command carries its exit code and,
    for the malformed netlist, the parse-error kind stderr must name.
    """
    paper = str(SRC / "sqzsim" / "data" / "paper_chip.nl")
    kind, mutate = malformed
    bad = workdir / f"malformed_{kind}.nl"
    if not bad.exists():
        bad.write_text(mutate(Path(paper).read_text(encoding="utf-8")), encoding="utf-8")
    noise_seed = seed_pool[i % len(seed_pool)]
    csv0, rep0 = workdir / "noiseless.csv", workdir / "noiseless.json"
    csv1, rep1 = workdir / "seeded.csv", workdir / "seeded.json"

    def trace_ok(csv_path):
        rows = csv_path.read_text(encoding="utf-8").splitlines()
        if rows[0] != "phase_rad,variance_db" or len(rows) < 3:
            return f"unexpected CSV header or length in {csv_path.name}"
        return wl.check_trace_values([float(r.split(",")[1]) for r in rows[1:]])

    def check_noiseless(out, err):
        report = json.loads(rep0.read_text(encoding="utf-8"))
        for key in ("raw_sq_db", "raw_asq_db"):
            if abs(report[key] - expected[key]) > wl.PAPER_TOL_DB:
                return f"{key} {report[key]!r} not within {wl.PAPER_TOL_DB} of {expected[key]}"
        return trace_ok(csv0)

    def check_seeded(out, err):
        error = trace_ok(csv1)
        if error is None and ledger is not None:
            error = ledger.check(noise_seed, csv1.read_text(encoding="utf-8"))
        return error

    def check_validate(out, err):
        return None if out.strip().endswith(": OK") else f"unexpected stdout {out.strip()!r}"

    def check_malformed(out, err):
        return None if f": {kind}: " in err else f"expected a {kind} error, got {err.strip()!r}"

    def check_analyze(out, err):
        report = json.loads(out)
        for key in ("inferred_sq_db", "inferred_asq_db"):
            if abs(report[key] - expected[key]) > wl.INFERRED_TOL_DB:
                return f"{key} {report[key]!r} not within {wl.INFERRED_TOL_DB} of {expected[key]}"
        return None

    def check_infeasible(out, err):
        return None if "infeasible" in err else f"expected an infeasible error, got {err.strip()!r}"

    def check_extrapolate(out, err):
        low, high = expected["extrapolation"]["expected_db_range"]
        value = float(out.strip())
        return None if low <= value <= high else f"extrapolated {value!r} dB outside [{low}, {high}]"

    def check_calibrate(out, err):
        values = dict(line.split() for line in out.strip().splitlines())
        if abs(float(values["eta_e"]) - 0.9475) > 1e-4 or abs(float(values["eta_fresnel"]) - 0.8578) > 1e-3:
            return f"calibration {values} off the paper's 0.9475 / 0.8578"
        return None

    budget = expected["budget_rounded"]
    ext = expected["extrapolation"]
    return [
        Command("simulate", ["simulate", paper, "--noiseless", "--csv", str(csv0), "--report", str(rep0)],
                0, check_noiseless),
        Command("simulate", ["simulate", paper, "--seed", str(noise_seed), "--csv", str(csv1),
                             "--report", str(rep1)], 0, check_seeded),
        Command("validate", ["validate", paper], 0, check_validate),
        Command("validate", ["validate", str(bad)], 2, check_malformed),
        Command("analyze", ["analyze", "--sq-db", repr(expected["raw_sq_db"]),
                            "--asq-db", repr(expected["raw_asq_db"]),
                            "--eta-fresnel", repr(budget["fresnel"]), "--eta-filter", repr(budget["filter"]),
                            "--eta-pd", repr(budget["photodiode"]), "--eta-e", repr(budget["electronics"])],
                0, check_analyze),
        Command("analyze", ["analyze", "--sq-db", "-10.0", "--asq-db", repr(expected["raw_asq_db"]),
                            "--eta", repr(expected["eta_total"])], 2, check_infeasible),
        Command("extrapolate", ["extrapolate", "--gain", repr(ext["gain_per_sqrt_mw"]),
                                "--pump-mw", repr(ext["pump_mw"]), "--eta-eff", repr(ext["eta_eff_example"])],
                0, check_extrapolate),
        Command("calibrate", ["calibrate", "--snr-db", repr(expected["snr_db"]),
                              "--n-chip", repr(expected["n_chip"])], 0, check_calibrate),
    ]


def run_cli_command(run, command, traced, spans_path=None):
    """Run one CLI process; (wall seconds, error text or None)."""
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(spans_path), *command.args]
    else:
        argv = [sys.executable, "-m", "sqzsim.cli", *command.args]
    wall, code, out, err = run.launcher.run(argv)
    if code != command.expect_exit:
        return wall, f"exit {code}, expected {command.expect_exit}: {err.strip()[-300:]}"
    try:
        return wall, command.check(out, err)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return wall, f"unreadable output: {type(exc).__name__}: {exc}"


def cli_workload(seed, seconds, trace, run, prov):
    workdir = work_dir()
    rng = random.Random(f"cli-{seed}")
    seed_pool = wl.noise_seeds(seed, 2)
    malformed = [rng.choice(wl.MALFORMED) for _ in range(64)]
    ledger = wl.CsvLedger()
    expected = wl.paper_inputs(ROOT)[1]
    prov["noise_seeds"] = seed_pool
    prov["malformed_kinds"] = sorted({kind for kind, _ in malformed})

    def commands():
        i = 0
        while True:
            yield from cli_cycle(i, seed_pool, malformed[i % len(malformed)], workdir, expected, ledger)
            i += 1

    stream = commands()
    spans = []
    cli_walls = {}

    def step(k):
        command = next(stream)
        if not trace:
            wall, error = run_cli_command(run, command, traced=False)
            run.latencies_ms.append(1e3 * wall)
            run.record(error, f"process {k} ({command.sub})")
            return
        order = (False, True) if (k // 2) % 2 == 0 else (True, False)
        walls = {}
        for traced in order:
            spans_path = workdir / "spans.json"
            walls[traced], error = run_cli_command(run, command, traced, spans_path)
            run.record(error, f"process {k} ({command.sub}, {'traced' if traced else 'untraced'})")
            if traced and spans_path.exists():
                offset = len(spans)
                for name, start, end, parent, _, size in json.loads(spans_path.read_text()):
                    spans.append((name, start, end, parent + offset if parent >= 0 else -1, k, size))
                spans_path.unlink()
        run.overhead_pairs.append((walls[False], walls[True]))
        cli_walls.setdefault(command.sub, []).append(walls[False])

    if trace:
        import sqzsim as sq

        probes = trace_probes(run, sq, seed, cli_walls)
        elapsed = timed_loop(seconds, step)
        return elapsed, traced_layers(probes, cli_walls, spans), spans

    first = cli_cycle(0, seed_pool, malformed[0], workdir, expected)[0]
    setup = measure_setup(run, [sys.executable, "-m", "sqzsim.cli", *first.args])
    elapsed = timed_loop(seconds, step, run)
    return elapsed, {"setup": setup, "peak_rss_mb": run.launcher.children_maxrss_kb / 1024.0}, None


# --- reporting --------------------------------------------------------------

def provenance(workload, seed, seconds, trace):
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "sqzsim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".nl", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        "stress_chip": {"modes": wl.STRESS_MODES, "statements": wl.STRESS_STATEMENTS,
                        "sweep_points": wl.STRESS_SWEEP_POINTS},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def latency_metrics(latencies_ms, failed):
    """Completed requests per second of request time, and latency quantiles."""
    return {
        "runs_per_s": (len(latencies_ms) - failed) / (sum(latencies_ms) / 1e3),
        "run_ms.p50": statistics.median(latencies_ms),
        "run_ms.p90": statistics.quantiles(latencies_ms, n=10, method="inclusive")[-1],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sqzsim" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'sqzsim'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Parent, children and speed gauge share one CPU, so the gauge sees the host load they see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import sqzsim
    if Path(sqzsim.__file__).resolve().parent != (SRC / "sqzsim").resolve():
        print(f"error: imported sqzsim from {sqzsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    prov = provenance(args.workload, args.seed, args.seconds, args.trace)
    run = Run(Launcher())
    try:
        if args.workload == "cli_mix":
            elapsed, extra, spans = cli_workload(args.seed, args.seconds, args.trace, run, prov)
        else:
            elapsed, extra, spans = inprocess_workload(args.workload, args.seed, args.seconds,
                                                       args.trace, run, prov)
    finally:
        run.launcher.close()
        shutil.rmtree(BENCH_DIR / ".work", ignore_errors=True)

    failed = len(run.failures)
    prov["requests"] = {"attempted": run.attempted, "failed": failed, "loop_seconds": elapsed}
    if args.trace:
        metrics = dict(extra)
        metrics["trace_overhead_frac"] = statistics.median(t / u for u, t in run.overhead_pairs) - 1.0
        units = {name: layer_unit(name) for name in metrics}
    else:
        raw = latency_metrics(run.latencies_ms, failed)
        metrics = latency_metrics(speed.normalize(run.latencies_ms, run.kernel_ms), failed)
        raw["setup_s"], metrics["setup_s"] = extra["setup"]
        metrics["peak_rss_mb"] = extra["peak_rss_mb"]
        units = END_TO_END_UNITS
        prov["requests"]["latency_samples"] = len(run.latencies_ms)
        prov["speed_gauge"] = {"reference_kernel_ms": speed.REFERENCE_KERNEL_MS,
                               "median_kernel_ms": statistics.median(run.kernel_ms),
                               "raw_metrics": raw}

    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]!r} {units[name]}")
    print(f"failed_frac {failed / run.attempted!r} frac ({failed} of {run.attempted})")
    for name, value in sorted(prov.get("speed_gauge", {}).get("raw_metrics", {}).items()):
        print(f"{name}.raw {value!r} {units[name]} (unscaled)")

    results = {"provenance": prov, "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
               "failed_frac": failed / run.attempted, "failures": run.failures,
               "latencies_ms": run.latencies_ms, "kernel_ms": run.kernel_ms, "spans": spans}
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(results), encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": results["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
