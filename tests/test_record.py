"""The value classes as users see them: constructor binding, repr, equality, hashing and immutability."""

import copy
import pickle

import pytest

from sqzsim import (
    CircuitSpec,
    Coupler,
    EfficiencyBudget,
    GaussianState,
    Homodyne,
    HomodyneTrace,
    Loss,
    Squeezer,
    build_report,
    report_to_json,
    vacuum,
)


def _spec():
    return CircuitSpec(("sig",), (Squeezer("sig", r=0.5), Loss("sig", 0.9, label="filter")),
                       Homodyne("sig", 0.88, 0.95, 0.5, (0.0, 3.0, 8)))


def test_repr_lists_every_field_in_order():
    squeezer = "Squeezer(mode='sig', r=0.5, pump_mw=None, gain=None, phase=0.0, excess=1.0)"
    assert repr(Squeezer("sig", r=0.5)) == squeezer
    assert repr(_spec()) == (
        f"CircuitSpec(modes=('sig',), statements=({squeezer}, Loss(mode='sig', eta=0.9, label='filter')), "
        "measurement=Homodyne(mode='sig', eta_pd=0.88, eta_e=0.95, ratio=0.5, sweep=(0.0, 3.0, 8), "
        "visibility=1.0, rbw=100000.0, vbw=30.0, center_freq=2000000.0, sweep_time=1.0))")
    report = build_report(-2.0, 2.8, 0.05, factors={"fresnel": 0.86, "filter": 0.99})
    assert repr(report) == (
        "SqueezingReport(raw_sq_db=-2.0, raw_asq_db=2.8, unc_db=0.05, eta_total=0.8513999999999999, "
        "inferred_sq_db=-2.4676475026613036, inferred_asq_db=3.146036866173561, "
        "inferred_sq_unc_db=0.06540351792094481, inferred_asq_unc_db=0.05422913434402115, "
        "purity_product=1.169065747667824, purity_product_db=0.6783893635122575, "
        "budget={'fresnel': 0.86, 'filter': 0.99})")


def test_equal_specs_are_equal_and_hash_alike():
    assert _spec() == _spec() and hash(_spec()) == hash(_spec())
    assert Loss("sig", 0.9) == Loss(mode="sig", eta=0.9, label=None)
    assert Loss("sig", 0.9) != Loss("sig", 0.8)


def test_a_record_never_equals_another_class_or_its_field_tuple():
    loss, coupler = Loss("a", 0.5), Coupler("a", "b", 0.5)
    assert loss != coupler and coupler != loss
    assert loss != ("a", 0.5, None) and ("a", 0.5, None) != loss


def test_fields_cannot_be_assigned_or_deleted():
    loss = Loss("sig", 0.9)
    with pytest.raises(AttributeError):
        loss.eta = 0.5
    with pytest.raises(AttributeError):
        del loss.eta
    with pytest.raises(AttributeError):
        EfficiencyBudget(0.86, 0.99, 0.88, 0.95).eta_prop = 0.5
    assert loss.eta == 0.9


@pytest.mark.parametrize("args,kwargs,message", [
    ((), {"eta": 0.9}, "missing .*'mode'"),
    (("sig",), {"eta": 0.9, "gain": 2.0}, "unexpected keyword argument 'gain'"),
    (("sig", 0.9), {"mode": "idler"}, "multiple values for argument 'mode'"),
    (("sig", 0.9, None, 1), {}, "positional arguments but"),
], ids=["missing", "unknown", "repeated", "too-many"])
def test_constructor_arguments_bind_as_a_call_does(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Loss(*args, **kwargs)


def test_states_and_traces_compare_by_identity():
    state = vacuum(1)
    assert state == state and state != GaussianState(state.cov)
    assert len({state, GaussianState(state.cov)}) == 2   # hashable, by identity
    trace = HomodyneTrace([0.0, 1.0], [0.0, 1.0])
    assert trace == trace and trace != HomodyneTrace([0.0, 1.0], [0.0, 1.0])


def test_report_budget_is_read_only_and_the_report_hashes():
    report = build_report(-2.0, 2.8, 0.05, factors={"total": 0.71})
    writes = [lambda b: b.__setitem__("total", 0.5), lambda b: b.__delitem__("total"),
              lambda b: b.update(total=0.5), lambda b: b.setdefault("extra", 0.5),
              lambda b: b.pop("total"), lambda b: b.popitem(), lambda b: b.clear()]
    for write in writes:
        with pytest.raises(TypeError, match="read-only"):
            write(report.budget)
    assert report.budget == {"total": 0.71} and report.eta_total == 0.71
    again = build_report(-2.0, 2.8, 0.05, factors={"total": 0.71})
    assert report == again and hash(report) == hash(again)
    assert len({report, again, build_report(-2.0, 2.8, 0.05, factors={"total": 0.7})}) == 2
    for clone in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert clone == report and report_to_json(clone) == report_to_json(report)


def test_report_json_bytes():
    factors = EfficiencyBudget(0.86, 0.99, 0.88, 0.95, eta_prop=0.97).factors()
    assert report_to_json(build_report(-2.0, 2.8, 0.05, factors=factors)) == """\
{
  "raw_sq_db": -2.0,
  "raw_asq_db": 2.8,
  "unc_db": 0.05,
  "eta_total": 0.690417288,
  "inferred_sq_db": -3.3210006454864063,
  "inferred_asq_db": 3.6388803187311423,
  "inferred_sq_unc_db": 0.09816539339318886,
  "inferred_asq_unc_db": 0.05969944791654488,
  "purity_product": 1.0759397865280047,
  "purity_product_db": 0.31787967324473615,
  "budget": {
    "fresnel": 0.86,
    "filter": 0.99,
    "photodiode": 0.88,
    "electronics": 0.95,
    "propagation": 0.97
  }
}
"""
