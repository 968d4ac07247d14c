"""Detection-efficiency budget and loss-corrected squeezing inference.

Covers the individual efficiency formulas (Fresnel facet, electronic SNR),
their product, inversion of the loss model to infer the squeezing at the
circuit output from measured dB values, the minimum-uncertainty product
check, and extrapolation of squeezing versus pump power under a
single-pass r = gain*sqrt(P) law.
"""

import math

from ._record import FrozenDict, Record
from .conversions import check_unit, detected, from_db, to_db


class InfeasibleMeasurementError(ValueError):
    """Measured variance at or below the loss floor 1 - eta; inversion impossible."""


class EfficiencyBudget(Record):
    """Named efficiency factors of the detection chain; optional ones default to 1."""

    eta_fresnel: float
    eta_filter: float
    eta_pd: float
    eta_e: float
    eta_coupler: float = 1.0
    eta_visibility: float = 1.0
    eta_prop: float = 1.0

    def __post_init__(self):
        for name, _ in self._fields:
            check_unit(name, getattr(self, name))

    def factors(self):
        """Name -> efficiency table: the four chain factors, then any optional one not 1."""
        optional = {"coupler": self.eta_coupler, "visibility": self.eta_visibility,
                    "propagation": self.eta_prop}
        return {
            "fresnel": self.eta_fresnel,
            "filter": self.eta_filter,
            "photodiode": self.eta_pd,
            "electronics": self.eta_e,
            **{name: value for name, value in optional.items() if value != 1.0},
        }


def fresnel_efficiency(n1, n2):
    """Facet transmission 1 - ((n1 - n2)/(n1 + n2))^2 at an index step."""
    if not (0 < n1 < math.inf and 0 < n2 < math.inf):
        raise ValueError(f"refractive indices must be positive and finite, got {n1!r}, {n2!r}")
    if n1 + n2 == math.inf:   # halving both is exact there and keeps the sum finite
        n1, n2 = n1 / 2.0, n2 / 2.0
    return 1.0 - ((n1 - n2) / (n1 + n2)) ** 2


def electronic_efficiency(snr_db):
    """Electronic-noise penalty (S - 1)/S for a shot-to-dark SNR in dB, as -expm1(-ln S): precise at low SNR."""
    if snr_db <= 0:
        raise ValueError("SNR must be positive (in dB); noise would swamp the signal")
    if not math.isfinite(from_db(snr_db)):
        raise ValueError(f"SNR {snr_db!r} dB has no finite linear value")
    return -math.expm1(-snr_db * math.log(10.0) / 10.0)


def total_efficiency(factors):
    """Product of an efficiency table: an EfficiencyBudget or a name -> eta mapping.

    Factors are multiplied in sorted order so the result is exactly
    invariant under any reordering of the inputs; factors of exactly 1
    sort last and leave it unchanged.
    """
    if isinstance(factors, EfficiencyBudget):
        factors = factors.factors()
    return math.prod(sorted(factors.values()))


def forward_measured(v_gen_db, eta):
    """Variance seen after a loss channel of efficiency eta, in dB."""
    check_unit("eta", eta)
    return to_db(detected(from_db(v_gen_db), eta))


def infer_generated(v_meas_db, eta):
    """Invert the loss model: dB value at the circuit output before efficiency eta.

    Raises InfeasibleMeasurementError when the measured linear variance is
    at or below the vacuum floor 1 - eta (a negative generated variance).
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    v_meas = from_db(v_meas_db)
    floor = 1.0 - eta
    if v_meas <= floor:
        raise InfeasibleMeasurementError(
            f"measured variance {v_meas:.6g} is infeasible: at or below the "
            f"loss floor {floor:.6g} for eta={eta:.6g}")
    return to_db((v_meas - floor) / eta)


def purity_product(sq_db, asq_db):
    """Product of the two linear variances; exactly 1 for a minimum-uncertainty pair.

    Raises OverflowError, naming both inputs, when the product is not a finite
    double, and ValueError when it underflows to 0, which has no dB value.
    """
    product = from_db(sq_db + asq_db)
    if product == math.inf:
        raise OverflowError(f"purity product of inferred sq/asq {sq_db!r}/{asq_db!r} dB "
                            f"overflows a double")
    if product == 0.0:
        raise ValueError(f"purity product of inferred sq/asq {sq_db!r}/{asq_db!r} dB underflows to 0")
    return product


def pump_to_r(pump_mw, gain):
    """Single-pass squeezing parameter r = gain * sqrt(pump power)."""
    if not (0 <= pump_mw < math.inf and 0 <= gain < math.inf):
        raise ValueError(f"pump power and gain must be finite and >= 0, got {pump_mw!r}, {gain!r}")
    return gain * math.sqrt(pump_mw)


def extrapolate_squeezing(gain, pump_mw, eta_eff=1.0):
    """Best measurable squeezing in dB at a pump power, under effective efficiency eta_eff.

    Raises ValueError when the linear variance underflows to 0, which has no dB value.
    """
    check_unit("eta_eff", eta_eff)
    r = pump_to_r(pump_mw, gain)
    variance = detected(math.exp(-2.0 * r), eta_eff)
    if variance == 0.0:
        raise ValueError(f"squeezed variance at r={r!r} underflows to 0, which has no dB value")
    return to_db(variance)


class SqueezingReport(Record):
    """Raw and loss-corrected squeezing figures with the per-factor budget.

    The budget is held as a read-only `FrozenDict` copy, so the report hashes
    and no write to it can leave `eta_total` other than its product.
    """

    raw_sq_db: float
    raw_asq_db: float
    unc_db: float
    eta_total: float
    inferred_sq_db: float
    inferred_asq_db: float
    inferred_sq_unc_db: float
    inferred_asq_unc_db: float
    purity_product: float
    purity_product_db: float
    budget: dict

    def __post_init__(self):
        vars(self).update(budget=FrozenDict(self.budget))


def _inferred_unc_db(v_meas_db, unc_db, eta):
    # first-order propagation through the linear-variance inversion
    v_meas = from_db(v_meas_db)
    v_gen = (v_meas - (1.0 - eta)) / eta
    d_meas = v_meas * math.log(10.0) / 10.0 * unc_db
    return 10.0 / math.log(10.0) * (d_meas / eta) / v_gen


def build_report(raw_sq_db, raw_asq_db, unc_db=0.05, *, factors):
    """Assemble a SqueezingReport from raw dB values and a name -> eta table.

    The report carries the table as its budget and inverts the loss model
    with its total_efficiency, so eta_total is always the budget's product.
    Raw dB values must be finite with a linear variance that is a finite
    double, unc_db finite and >= 0, each factor in [0, 1] (the error names
    it) and the inferred uncertainties finite. A table whose product is 0
    has no inverse; the error names its factors that are 0. A raw_sq_db
    above raw_asq_db (the two swapped) is rejected naming both.
    """
    for name, value in (("raw_sq_db", raw_sq_db), ("raw_asq_db", raw_asq_db)):
        if not math.isfinite(value):
            raise ValueError(f"{name} {value!r} is not finite")
        if from_db(value) == math.inf:
            raise ValueError(f"{name} {value!r} dB has no finite linear variance, "
                             f"so it cannot round-trip through the loss model")
    if not 0.0 <= unc_db < math.inf:
        raise ValueError(f"unc_db must be finite and >= 0, got {unc_db!r}")
    table = dict(factors)
    for name, value in table.items():
        check_unit(name, value)
    eta = total_efficiency(table)
    if eta == 0.0:
        zero = [name for name, value in table.items() if value == 0.0]
        cause = f"budget factor(s) {', '.join(zero)} are 0" if zero else "the budget's product underflows"
        raise ValueError(f"eta_total is 0, so the loss model cannot be inverted: {cause}")
    inferred_sq = infer_generated(raw_sq_db, eta)
    inferred_asq = infer_generated(raw_asq_db, eta)
    for inferred, raw in ((inferred_sq, raw_sq_db), (inferred_asq, raw_asq_db)):
        if abs(forward_measured(inferred, eta) - raw) > 1e-9:
            raise ValueError(f"loss-model inversion does not round-trip at {raw!r} dB "
                             f"(beyond double precision)")
    if raw_sq_db > raw_asq_db:
        raise ValueError(f"raw_sq_db {raw_sq_db!r} dB exceeds raw_asq_db {raw_asq_db!r} dB: "
                         f"the squeezed quadrature is the smaller of the two")
    purity = purity_product(inferred_sq, inferred_asq)
    uncertainties = {name: _inferred_unc_db(raw, unc_db, eta) for name, raw in
                     (("inferred_sq_unc_db", raw_sq_db), ("inferred_asq_unc_db", raw_asq_db))}
    for name, value in uncertainties.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} {value!r} is not finite")
    return SqueezingReport(
        raw_sq_db=float(raw_sq_db),
        raw_asq_db=float(raw_asq_db),
        unc_db=float(unc_db),
        eta_total=float(eta),
        inferred_sq_db=inferred_sq,
        inferred_asq_db=inferred_asq,
        **uncertainties,
        purity_product=purity,
        purity_product_db=to_db(purity),
        budget=table,
    )


def report_to_json(report):
    """Serialise a report: its fields in declaration order, full-precision numbers."""
    import json   # here, not at the top: only the commands that write a report pay for it

    return json.dumps({name: getattr(report, name) for name, _ in report._fields}, indent=2) + "\n"
