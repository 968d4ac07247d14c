"""Seeded inputs, requests and output checks for the sqzsim benchmark.

Everything here is derived from the workload seed, so the same seed gives
the same inputs. The package only ever receives netlist text or CLI
arguments; the references the outputs are checked against are computed
here, independently of the package.
"""

import io
import json
import math
import random
from dataclasses import dataclass

import numpy as np

# Any trace point below this is the estimator clamp (or worse) showing
# through, not a physical variance, and fails the request.
DB_FLOOR = -300.0
# Acceptance-suite tolerance on the paper chip's raw extrema (criterion 4).
PAPER_TOL_DB = 0.01
# Paper-chip inferred values must match within the criterion-5 tolerance.
INFERRED_TOL_DB = 0.05
# Stress-chip noiseless trace against the dense numpy reference. Far above
# float rounding (~1e-12 dB), far below any modelling change.
STRESS_TOL_DB = 1e-6

STRESS_MODES = 32
STRESS_STATEMENTS = 128
STRESS_SWEEP_POINTS = 8
NOISE_SEEDS_PER_RUN = 4


def noise_seeds(seed, count=NOISE_SEEDS_PER_RUN):
    """Estimator-noise seeds for one run; requests cycle through them so each repeats."""
    rng = random.Random(f"noise-{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


@dataclass(frozen=True)
class StressChip:
    text: str
    elements: tuple    # (kind, modes, params) in statement order
    mode: int          # measured mode index
    eta_hd: float      # effective homodyne efficiency
    phases: np.ndarray


def stress_chip(seed):
    """Seeded 32-mode chip: one squeezer per mode plus 96 random couplers, losses and phase shifts."""
    rng = random.Random(f"stress-{seed}")
    names = [f"m{i}" for i in range(STRESS_MODES)]
    lines = ["# sqzsim netlist v1", "# stress chip, seed " + str(seed), "modes: " + " ".join(names)]
    elements = []
    for i in range(STRESS_MODES):
        r, phase, excess = rng.uniform(0.1, 0.8), rng.uniform(0.0, math.pi), rng.uniform(1.0, 1.2)
        lines.append(f"squeezer {names[i]} r={r!r} phase={phase!r} excess={excess!r}")
        elements.append(("squeezer", (i,), (r, phase, excess)))
    for _ in range(STRESS_STATEMENTS - STRESS_MODES):
        kind = rng.choice(("coupler", "loss", "phaseshift"))
        if kind == "coupler":
            a, b = rng.sample(range(STRESS_MODES), 2)
            ratio = rng.uniform(0.05, 0.95)
            lines.append(f"coupler {names[a]} {names[b]} ratio={ratio!r}")
            elements.append(("coupler", (a, b), (ratio,)))
        elif kind == "loss":
            a, eta = rng.randrange(STRESS_MODES), rng.uniform(0.8, 1.0)
            lines.append(f"loss {names[a]} eta={eta!r}")
            elements.append(("loss", (a,), (eta,)))
        else:
            a, theta = rng.randrange(STRESS_MODES), rng.uniform(0.0, 2.0 * math.pi)
            lines.append(f"phaseshift {names[a]} theta={theta!r}")
            elements.append(("phaseshift", (a,), (theta,)))
    mode = rng.randrange(STRESS_MODES)
    eta_pd, eta_e, ratio = 0.88, 0.95, 0.5
    two_pi = 2.0 * math.pi
    lines.append(f"homodyne {names[mode]} eta_pd={eta_pd!r} eta_e={eta_e!r} ratio={ratio!r} "
                 f"sweep=0.0:{two_pi!r}:{STRESS_SWEEP_POINTS}")
    eta_hd = 4.0 * ratio * (1.0 - ratio) * eta_pd * eta_e
    phases = two_pi / STRESS_SWEEP_POINTS * np.arange(STRESS_SWEEP_POINTS)
    return StressChip("\n".join(lines) + "\n", tuple(elements), mode, eta_hd, phases)


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def dense_reference_db(chip):
    """Noiseless trace of a stress chip by dense 2N x 2N covariance propagation.

    cov -> X cov X^T + Y for each element, with X and Y written out in full,
    then eta_hd * u^T C u + (1 - eta_hd) on the measured mode's 2x2 block C.
    """
    dim = 2 * STRESS_MODES
    cov = np.eye(dim)
    for kind, modes, params in chip.elements:
        X, Y = np.eye(dim), np.zeros((dim, dim))
        a = 2 * modes[0]
        if kind == "squeezer":
            r, phase, excess = params
            rot = _rotation(phase)
            X[a:a + 2, a:a + 2] = rot @ np.diag([math.exp(-r), math.exp(r)]) @ rot.T
            Y[a:a + 2, a:a + 2] = rot @ np.diag([0.0, (excess - 1.0) * math.exp(2.0 * r)]) @ rot.T
        elif kind == "coupler":
            b = 2 * modes[1]
            t, s = math.sqrt(params[0]), math.sqrt(1.0 - params[0])
            for i in range(2):
                X[a + i, a + i] = X[b + i, b + i] = t
                X[a + i, b + i], X[b + i, a + i] = s, -s
        elif kind == "loss":
            eta = params[0]
            X[a:a + 2, a:a + 2] = math.sqrt(eta) * np.eye(2)
            Y[a:a + 2, a:a + 2] = (1.0 - eta) * np.eye(2)
        else:
            X[a:a + 2, a:a + 2] = _rotation(params[0])
        cov = X @ cov @ X.T + Y
    m = 2 * chip.mode
    block = cov[m:m + 2, m:m + 2]
    u = np.stack([np.cos(chip.phases), np.sin(chip.phases)])
    quad = np.einsum("ip,ij,jp->p", u, block, u)
    return 10.0 * np.log10(chip.eta_hd * quad + (1.0 - chip.eta_hd))


def inprocess_request(sq, text, noiseless, noise_seed):
    """One user request: parse the text, simulate, write the CSV and serialise the report.

    `sq` is the imported package; functions are looked up on it at call
    time so that span wrappers installed on it are used.
    """
    spec = sq.parse(text)
    trace, report = sq.run_spec(spec, noiseless=noiseless, seed=None if noiseless else noise_seed)
    buf = io.StringIO()
    sq.write_trace_csv(trace, buf)
    return trace, report, buf.getvalue(), sq.report_to_json(report)


def check_trace_values(values):
    """Error text if any trace point is non-finite or below the dB floor."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        return "trace has non-finite points"
    if values.size and float(values.min()) < DB_FLOOR:
        return f"trace point {float(values.min())!r} dB is below {DB_FLOOR} dB"
    return None


class CsvLedger:
    """First CSV text seen for each noise seed; later repeats must be identical."""

    def __init__(self):
        self.first = {}

    def check(self, key, csv_text):
        previous = self.first.setdefault(key, csv_text)
        if previous != csv_text:
            return f"CSV for seed {key} differs from its first run"
        return None


def check_paper_result(expected, ledger, noiseless, noise_seed, result):
    trace, report, csv_text, report_json = result
    error = check_trace_values(trace.variance_db)
    if error:
        return error
    for key in ("raw_sq_db", "raw_asq_db"):
        if abs(getattr(report, key) - expected[key]) > PAPER_TOL_DB:
            return f"{key} {getattr(report, key)!r} is not within {PAPER_TOL_DB} of {expected[key]}"
    if json.loads(report_json)["raw_sq_db"] != report.raw_sq_db:
        return "report JSON does not carry the report's raw_sq_db"
    if not noiseless:
        return ledger.check(noise_seed, csv_text)
    return None


def check_stress_result(chip, reference_db, ledger, noiseless, noise_seed, result):
    trace, report, csv_text, report_json = result
    error = check_trace_values(trace.variance_db)
    if error:
        return error
    if trace.phases.shape != chip.phases.shape or np.abs(trace.phases - chip.phases).max() > 1e-12:
        return "trace phases differ from the requested sweep"
    if noiseless:
        gap = float(np.abs(trace.variance_db - reference_db).max())
        if gap > STRESS_TOL_DB:
            return f"trace differs from the dense reference by {gap!r} dB"
        return None
    for got, want in ((report.raw_sq_db, reference_db.min()), (report.raw_asq_db, reference_db.max())):
        if abs(got - float(want)) > STRESS_TOL_DB:
            return f"report extremum {got!r} differs from the dense reference {float(want)!r}"
    if json.loads(report_json)["raw_asq_db"] != report.raw_asq_db:
        return "report JSON does not carry the report's raw_asq_db"
    return ledger.check(noise_seed, csv_text)


def paper_inputs(root):
    """(bundled netlist text, expected reference numbers) for `paper_chip`."""
    data = root / "src" / "sqzsim" / "data"
    text = (data / "paper_chip.nl").read_text(encoding="utf-8")
    expected = json.loads((data / "paper_expected.json").read_text(encoding="utf-8"))
    return text, expected


def schedule(seed):
    """Requests alternate noiseless and seeded-noisy; request k is schedule(seed)[k % len]."""
    plan = []
    for s in noise_seeds(seed):
        plan.append((True, None))
        plan.append((False, s))
    return plan


# Malformed netlists for `cli_mix`: each is the paper chip with one defect,
# with the parse-error kind `sqzsim validate` must report for it.
MALFORMED = (
    ("undeclared-mode", lambda t: t.replace("loss sig eta=0.99", "loss idler eta=0.99")),
    ("bad-number", lambda t: t.replace("eta=0.99 label=filter", "eta=0.9x9 label=filter")),
    ("out-of-range", lambda t: t.replace("eta=0.99 label=filter", "eta=1.5 label=filter")),
    ("unknown-keyword", lambda t: t.replace("loss sig eta=0.99", "amplifier sig eta=0.99")),
    ("missing-measurement", lambda t: "\n".join(
        line for line in t.split("\n") if not line.startswith("homodyne"))),
    ("duplicate-measurement", lambda t: t + t.strip().split("\n")[-1] + "\n"),
)
