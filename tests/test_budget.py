"""Efficiency formulas, loss-model inversion and the squeezing report."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from sqzsim import (
    EfficiencyBudget,
    InfeasibleMeasurementError,
    build_report,
    electronic_efficiency,
    extrapolate_squeezing,
    forward_measured,
    fresnel_efficiency,
    infer_generated,
    measure_variance,
    pump_to_r,
    purity_product,
    report_to_json,
    total_efficiency,
    vacuum,
)

REFERENCE_BUDGET = EfficiencyBudget(eta_fresnel=0.86, eta_filter=0.99, eta_pd=0.88, eta_e=0.95)


def test_fresnel_efficiency():
    assert fresnel_efficiency(1.0, 2.211) == pytest.approx(0.8577646076274904, rel=1e-12)
    assert fresnel_efficiency(1.5, 1.5) == 1.0
    assert fresnel_efficiency(1.0, 2.211) == fresnel_efficiency(2.211, 1.0)
    with pytest.raises(ValueError):
        fresnel_efficiency(0.0, 2.0)
    with pytest.raises(ValueError):
        fresnel_efficiency(1.0, -2.0)


def test_electronic_efficiency():
    assert electronic_efficiency(12.8) == pytest.approx(0.9475192539750228, rel=1e-12)
    assert electronic_efficiency(100.0) >= 0.9999
    assert electronic_efficiency(3.0103) == pytest.approx(0.5, abs=1e-8)
    with pytest.raises(ValueError):
        electronic_efficiency(0.0)
    with pytest.raises(ValueError):
        electronic_efficiency(-3.0)


def test_fresnel_efficiency_near_the_largest_double():
    # n1 + n2 overflows a double here
    for n1, n2 in ((1.7e308, 1e308), (1e308, 1.7e308)):
        assert fresnel_efficiency(n1, n2) == pytest.approx(0.9327846364883402, rel=1e-15)


def test_electronic_efficiency_keeps_precision_at_low_snr():
    # here S - 1 loses most of its digits, at 1e-320 dB all of them
    assert electronic_efficiency(1e-10) == pytest.approx(math.log(10.0) * 1e-11, rel=1e-9)
    assert electronic_efficiency(1e-320) == pytest.approx(math.log(10.0) * 1e-321, rel=1e-2)
    assert electronic_efficiency(1e-320) > 0.0
    assert electronic_efficiency(12.8) == 0.9475192539750228


def test_total_efficiency_reference_budget():
    assert total_efficiency(REFERENCE_BUDGET) == pytest.approx(0.7117704, rel=1e-12)
    assert abs(total_efficiency(REFERENCE_BUDGET) - 0.71) < 0.005
    unrounded = EfficiencyBudget(eta_fresnel=0.85777, eta_filter=0.99, eta_pd=0.88, eta_e=0.94752)
    assert total_efficiency(unrounded) == pytest.approx(0.70807148552448, rel=1e-12)
    ones = EfficiencyBudget(1.0, 1.0, 1.0, 1.0)
    assert total_efficiency(ones) == 1.0


def test_total_efficiency_exactly_order_invariant():
    values = (0.86, 0.99, 0.88, 0.95)
    totals = {total_efficiency(EfficiencyBudget(*perm)) for perm in itertools.permutations(values)}
    assert len(totals) == 1


def test_budget_validation_and_optional_factors():
    with pytest.raises(ValueError, match=r"eta_fresnel must lie in \[0, 1\], got 1.2"):
        EfficiencyBudget(1.2, 0.9, 0.9, 0.9)
    with pytest.raises(ValueError, match=r"eta_e must lie in \[0, 1\], got nan"):
        EfficiencyBudget(0.86, 0.99, 0.88, math.nan)
    budget = EfficiencyBudget(0.86, 0.99, 0.88, 0.95, eta_prop=0.98)
    assert budget.factors() == {
        "fresnel": 0.86, "filter": 0.99, "photodiode": 0.88,
        "electronics": 0.95, "propagation": 0.98,
    }
    assert total_efficiency(budget) == pytest.approx(0.7117704 * 0.98, rel=1e-12)


@pytest.mark.parametrize("call,message", [
    (lambda: forward_measured(-2.0, 1.5), "eta must lie in [0, 1], got 1.5"),
    (lambda: forward_measured(-2.0, -0.5), "eta must lie in [0, 1], got -0.5"),
    (lambda: measure_variance(vacuum(1), 0, 0.0, math.nan), "eta must lie in [0, 1], got nan"),
    (lambda: extrapolate_squeezing(0.058014, 40.0, 1.5), "eta_eff must lie in [0, 1], got 1.5"),
], ids=["forward_measured-above", "forward_measured-below", "measure_variance-nan", "extrapolate-eta_eff"])
def test_an_efficiency_is_checked_where_it_enters(call, message):
    # `detected` is the bare loss formula; each public function checks its eta once
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_infer_generated_reference_points():
    assert infer_generated(-2.0, 0.71) == pytest.approx(-3.185582988046317, abs=1e-9)
    assert infer_generated(2.8, 0.71) == pytest.approx(3.5703805332557135, abs=1e-9)
    assert infer_generated(0.0, 0.33) == pytest.approx(0.0, abs=1e-12)
    # the corrected values sit near the -3.2 / +3.6 dB levels
    assert infer_generated(-2.0, 0.71) == pytest.approx(-3.2, abs=0.02)
    assert infer_generated(2.8, 0.71) == pytest.approx(3.6, abs=0.03)


def test_infer_generated_feasibility_boundary():
    eta = 0.4
    floor_db = 10 * math.log10(1.0 - eta)
    with pytest.raises(InfeasibleMeasurementError):
        infer_generated(floor_db, eta)  # exactly at the floor
    with pytest.raises(InfeasibleMeasurementError):
        infer_generated(floor_db - 1e-6, eta)
    assert infer_generated(floor_db + 1e-6, eta) < -40.0
    with pytest.raises(ValueError):
        infer_generated(-1.0, 0.0)
    with pytest.raises(ValueError):
        infer_generated(-1.0, 1.5)


def test_inversion_round_trip_grid():
    for eta in np.linspace(0.05, 1.0, 20):
        for v in np.geomspace(0.05, 20.0, 25):
            v_db = 10 * math.log10(float(v))
            if 10 ** (v_db / 10) <= 1.0 - eta:
                continue
            inferred = infer_generated(v_db, float(eta))
            assert abs(forward_measured(inferred, float(eta)) - v_db) < 1e-12


def test_purity_product():
    assert purity_product(-2.4, 2.4) == 1.0
    inferred_sq = infer_generated(-2.0, 0.71)
    inferred_asq = infer_generated(2.8, 0.71)
    assert purity_product(inferred_sq, inferred_asq) == pytest.approx(1.0926466901583323, abs=1e-9)
    assert purity_product(-2.0, 2.8) == pytest.approx(10 ** 0.08, rel=1e-12)


def test_loss_inflates_apparent_impurity():
    # Holds in the deep-squeezing regime of interest (generated squeezing
    # at or below -2.5 dB, near-unity purity product): there the threshold
    # eta* = Vs(G-1)/((1-Vs)(G-Vs)) stays below the tested efficiencies.
    # For weakly squeezed, strongly impure pairs loss can deflate the
    # product instead, so those ranges are deliberately excluded.
    rng = np.random.default_rng(59)
    for _ in range(100):
        eta = float(rng.uniform(0.45, 0.99))
        sq = float(rng.uniform(-6.0, -2.5))
        product_db = 10 * math.log10(float(rng.uniform(1.01, 1.15)))
        asq = -sq + product_db
        raw_sq_meas = forward_measured(sq, eta)
        raw_asq_meas = forward_measured(asq, eta)
        raw_product = purity_product(raw_sq_meas, raw_asq_meas)
        inferred_product = purity_product(sq, asq)
        assert raw_product > 1.0
        assert inferred_product <= raw_product + 1e-12
    # the reference analysis itself: raw 1.2023 against inferred 1.0926
    raw = purity_product(-2.0, 2.8)
    inferred = purity_product(infer_generated(-2.0, 0.71), infer_generated(2.8, 0.71))
    assert inferred < raw


def test_pump_to_r():
    assert pump_to_r(0.0, 0.058014) == 0.0
    assert pump_to_r(40.0, 0.058014) == pytest.approx(0.36691275235401677, rel=1e-12)
    assert pump_to_r(500.0, 0.058014) == pytest.approx(1.2972324764667282, rel=1e-12)
    with pytest.raises(ValueError):
        pump_to_r(-1.0, 0.05)
    with pytest.raises(ValueError):
        pump_to_r(1.0, -0.05)


def test_extrapolate_squeezing_reference_points():
    assert extrapolate_squeezing(0.058014, 500.0, 1.0) == pytest.approx(-11.2676181255038, abs=1e-9)
    at_95 = extrapolate_squeezing(0.058014, 500.0, 0.95)
    assert at_95 == pytest.approx(-9.173886173192557, abs=1e-9)
    assert -10.0 < at_95 < -9.0
    assert extrapolate_squeezing(0.058014, 0.0, 1.0) == 0.0
    assert extrapolate_squeezing(0.058014, 0.0, 0.9) == pytest.approx(0.0, abs=1e-12)
    assert extrapolate_squeezing(0.058014, 40.0, 1.0) == pytest.approx(-3.19, abs=0.01)


def test_extrapolate_monotone_and_floored():
    pumps = np.linspace(0.0, 800.0, 30)
    ideal = [extrapolate_squeezing(0.058014, float(p), 1.0) for p in pumps]
    assert all(b < a for a, b in zip(ideal, ideal[1:]))
    floor = 10 * math.log10(1.0 - 0.9)
    lossy = [extrapolate_squeezing(0.058014, float(p), 0.9) for p in pumps]
    assert all(v > floor for v in lossy)


def test_build_report_reference_inputs():
    report = build_report(-2.0, 2.8, 0.05, factors={"total": 0.71})
    assert report.inferred_sq_db == pytest.approx(-3.185582988046317, abs=1e-9)
    assert report.inferred_asq_db == pytest.approx(3.5703805332557135, abs=1e-9)
    assert report.purity_product == pytest.approx(1.0926466901583323, abs=1e-9)
    assert report.purity_product_db == pytest.approx(0.3847975452093964, abs=1e-9)
    assert report.inferred_sq_unc_db == pytest.approx(0.09252731385536213, abs=1e-9)
    assert report.inferred_asq_unc_db == pytest.approx(0.0589757676177242, abs=1e-9)
    # inversion must reproduce the raw values under the forward loss model
    assert forward_measured(report.inferred_sq_db, 0.71) == pytest.approx(-2.0, abs=1e-9)
    assert forward_measured(report.inferred_asq_db, 0.71) == pytest.approx(2.8, abs=1e-9)


def test_build_report_with_budget_and_unity_eta():
    report = build_report(-2.0, 2.8, 0.05, factors=REFERENCE_BUDGET.factors())
    assert report.eta_total == total_efficiency(REFERENCE_BUDGET)
    assert report.eta_total == total_efficiency(report.budget)
    assert report.budget["fresnel"] == 0.86
    echoed = build_report(-2.0, 2.8, 0.05, factors={"total": 1.0})
    assert echoed.inferred_sq_db == pytest.approx(-2.0, abs=1e-12)
    assert echoed.inferred_asq_db == pytest.approx(2.8, abs=1e-12)
    with pytest.raises(TypeError):
        build_report(-2.0, 2.8, 0.05)  # the factor table is required
    with pytest.raises(ValueError, match="round-trip"):
        build_report(3100.0, 3100.0, factors={"total": 0.7})


def test_avoidable_loss_projection():
    # facet coated (eta -> 1), better detectors (pd*e -> 0.99), same filter
    inferred_sq = infer_generated(-2.0, 0.71)
    improved = EfficiencyBudget(eta_fresnel=1.0, eta_filter=0.99, eta_pd=0.99, eta_e=1.0)
    projected = forward_measured(inferred_sq, total_efficiency(improved))
    assert projected == pytest.approx(-3.0930326161977026, abs=1e-6)


def test_report_json_contract():
    report = build_report(-2.0, 2.8, 0.05, factors=REFERENCE_BUDGET.factors())
    text = report_to_json(report)
    payload = json.loads(text)
    assert list(payload) == [
        "raw_sq_db", "raw_asq_db", "unc_db", "eta_total", "inferred_sq_db",
        "inferred_asq_db", "inferred_sq_unc_db", "inferred_asq_unc_db",
        "purity_product", "purity_product_db", "budget",
    ]
    assert payload["budget"] == {"fresnel": 0.86, "filter": 0.99,
                                 "photodiode": 0.88, "electronics": 0.95}
    # full float precision survives the round trip
    assert payload["inferred_sq_db"] == report.inferred_sq_db
    assert text.endswith("\n")
    assert report_to_json(report) == text
