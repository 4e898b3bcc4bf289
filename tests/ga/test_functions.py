"""Table 1 test-bed functions: minima, domains, vectorisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga.functions import (
    TEST_FUNCTIONS,
    f4_noiseless,
    get_function,
    reseed_f4,
)


def test_eight_functions_defined():
    assert len(TEST_FUNCTIONS) == 8
    assert [f.fid for f in TEST_FUNCTIONS] == list(range(1, 9))


def test_get_function_lookup_and_error():
    assert get_function(5).name == "foxholes"
    with pytest.raises(KeyError):
        get_function(9)


def test_f1_minimum_at_origin():
    fn = get_function(1)
    assert fn(np.zeros((1, 3)))[0] == 0.0
    assert fn(np.ones((1, 3)))[0] == 3.0


def test_f2_minimum_at_one_one():
    fn = get_function(2)
    assert fn(np.array([[1.0, 1.0]]))[0] == 0.0
    assert fn(np.array([[0.0, 0.0]]))[0] == 1.0


def test_f3_step_shifted_minimum_is_zero():
    """Table 1 lists min 0: the shifted step function 30 + sum(floor(x))."""
    fn = get_function(3)
    worst_floor = np.full((1, 5), -5.12)  # floor = -6 per variable
    assert fn(worst_floor)[0] == 0.0
    assert fn(np.zeros((1, 5)))[0] == 30.0


def test_f4_noise_distribution_and_reseed():
    fn = get_function(4)
    assert fn.noisy
    x = np.zeros((2000, 30))
    reseed_f4(42)
    vals = fn(x)
    # noiseless part is 0; samples must look like N(0, 1)
    assert abs(vals.mean()) < 0.1
    assert abs(vals.std() - 1.0) < 0.1
    reseed_f4(42)
    assert np.array_equal(fn(x), vals)  # reseed reproduces the stream
    assert f4_noiseless(x).sum() == 0.0


def test_f5_foxholes_global_minimum():
    fn = get_function(5)
    val = fn(np.array([[-32.0, -32.0]]))[0]
    assert val == pytest.approx(0.998004, abs=1e-4)
    # far from every foxhole the function is much larger
    assert fn(np.array([[0.5, 17.3]]))[0] > 1.2


def test_f6_rastrigin_minimum_and_bumps():
    fn = get_function(6)
    assert fn(np.zeros((1, 20)))[0] == pytest.approx(0.0, abs=1e-9)
    assert fn(np.full((1, 20), 0.5))[0] > 100  # cos ripple maxima


def test_f7_schwefel_minimum():
    fn = get_function(7)
    x = np.full((1, 10), 420.9687)
    assert fn(x)[0] == pytest.approx(-4189.83, abs=0.5)


def test_f8_griewank_minimum():
    fn = get_function(8)
    assert fn(np.zeros((1, 10)))[0] == pytest.approx(0.0, abs=1e-12)


def test_domain_validation():
    fn = get_function(1)
    with pytest.raises(ValueError, match="outside"):
        fn(np.full((1, 3), 6.0))
    with pytest.raises(ValueError, match="variables"):
        fn(np.zeros((1, 4)))


@pytest.mark.parametrize("fid", range(1, 9))
def test_nan_coordinate_rejected(fid):
    """``np.any(nan < lower)`` is False, so NaN used to reach ``f``."""
    fn = get_function(fid)
    x = np.zeros((2, fn.n_vars))
    x[1, -1] = np.nan
    with pytest.raises(ValueError, match="outside"):
        fn(x)
    # the closed domain itself, bounds included, still passes
    fn(np.array([[fn.lower] * fn.n_vars, [fn.upper] * fn.n_vars]))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=1000))
def test_property_minimum_is_lower_bound(fid, seed):
    """No sampled point beats the documented minimum (modulo F4's noise)."""
    fn = get_function(fid)
    rng = np.random.default_rng(seed)
    x = rng.uniform(fn.lower, fn.upper, size=(64, fn.n_vars))
    if fn.noisy:
        vals = f4_noiseless(x)
        floor = 0.0
    else:
        vals = fn(x)
        floor = fn.min_value
    assert np.all(vals >= floor - 1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_property_vectorised_matches_rowwise(fid):
    fn = get_function(fid)
    if fn.noisy:
        return  # stochastic: batch and row-wise draws differ by design
    rng = np.random.default_rng(fid)
    x = rng.uniform(fn.lower, fn.upper, size=(16, fn.n_vars))
    batch = fn(x)
    rows = np.array([fn(x[i : i + 1])[0] for i in range(16)])
    assert np.allclose(batch, rows)
