"""dB conversions: an int or float goes through `math`, an array through numpy, and the two agree."""

import math
import warnings

import numpy as np

from sqzsim import from_db, to_db


def test_scalar_and_array_paths_agree():
    variances = 10.0 ** np.random.default_rng(16).uniform(-30.0, 30.0, 20_000)
    db = to_db(variances)
    scalar_db = np.array([to_db(v) for v in variances.tolist()])
    np.testing.assert_allclose(scalar_db, db, rtol=1e-15, atol=0.0)
    linear = from_db(db)
    scalar_linear = np.array([from_db(d) for d in db.tolist()])
    np.testing.assert_allclose(scalar_linear, linear, rtol=1e-15, atol=0.0)


def test_scalars_come_back_as_floats():
    for value in (to_db(2), to_db(0.5), from_db(3), from_db(-2.5), to_db(np.float32(2.0))):
        assert type(value) is float


def test_scalar_edge_values_give_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert to_db(0.0) == -math.inf and to_db(0) == -math.inf
        assert math.isnan(to_db(-1.0)) and math.isnan(to_db(math.nan))
        assert to_db(math.inf) == math.inf
        assert from_db(4000.0) == math.inf
        assert from_db(-math.inf) == 0.0 and math.isnan(from_db(math.nan))
        # the numpy branch gives the same edge values, also without a warning
        db = to_db(np.array([0.0, -1.0]))
        assert db[0] == -math.inf and math.isnan(db[1])
        assert math.isnan(to_db(np.float32(-1)))
        assert from_db(np.array([4000.0]))[0] == math.inf
