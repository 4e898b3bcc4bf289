"""Binary encoding: decode correctness, Gray mode, bounds, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga.encoding import BinaryEncoding
from repro.ga.functions import get_function


def encode_ints(enc, ints):
    """The inverse of ``enc.decode``'s field step: field integers
    ``(n, n_vars)`` to a chromosome, Gray-coded when ``enc.gray``."""
    ints = np.atleast_2d(np.asarray(ints, dtype=np.int64))
    shifts = np.arange(enc.bits_per_var - 1, -1, -1)
    bits = (ints[:, :, None] >> shifts) & 1
    if enc.gray:
        # binary -> Gray: g_i = b_i xor b_{i-1}
        gray = bits.copy()
        gray[:, :, 1:] = np.bitwise_xor(bits[:, :, 1:], bits[:, :, :-1])
        bits = gray
    return bits.reshape(ints.shape[0], enc.length).astype(np.uint8)


def test_decode_endpoints_and_midrange():
    enc = BinaryEncoding(n_vars=1, bits_per_var=4, lower=0.0, upper=15.0)
    zeros = np.zeros((1, 4), dtype=np.uint8)
    ones = np.ones((1, 4), dtype=np.uint8)
    assert enc.decode(zeros)[0, 0] == 0.0
    assert enc.decode(ones)[0, 0] == 15.0
    # 0b0101 = 5
    assert enc.decode(np.array([[0, 1, 0, 1]], dtype=np.uint8))[0, 0] == 5.0


def test_decode_multivariable_layout():
    enc = BinaryEncoding(n_vars=2, bits_per_var=2, lower=0.0, upper=3.0)
    chrom = np.array([[1, 0, 0, 1]], dtype=np.uint8)  # fields 0b10=2, 0b01=1
    assert enc.decode(chrom).tolist() == [[2.0, 1.0]]


def test_encode_decode_roundtrip():
    enc = BinaryEncoding(n_vars=3, bits_per_var=8, lower=-1.0, upper=1.0)
    ints = np.array([[0, 128, 255]])
    bits = encode_ints(enc, ints)
    decoded = enc.decode(bits)
    span = 255
    expected = -1.0 + 2.0 * ints / span
    assert np.allclose(decoded, expected)


def test_gray_roundtrip_matches_plain():
    plain = BinaryEncoding(n_vars=2, bits_per_var=6, lower=0.0, upper=63.0)
    gray = BinaryEncoding(n_vars=2, bits_per_var=6, lower=0.0, upper=63.0, gray=True)
    ints = np.array([[0, 63], [17, 42], [1, 32]])
    assert np.allclose(plain.decode(encode_ints(plain, ints)), ints)
    assert np.allclose(gray.decode(encode_ints(gray, ints)), ints)


def test_gray_adjacent_ints_differ_by_one_bit():
    enc = BinaryEncoding(n_vars=1, bits_per_var=8, lower=0.0, upper=255.0, gray=True)
    ints = np.arange(255)
    a = encode_ints(enc, ints[:, None])
    b = encode_ints(enc, (ints + 1)[:, None])
    hamming = np.sum(a != b, axis=1)
    assert np.all(hamming == 1)


def test_random_population_shape_and_values():
    enc = BinaryEncoding(n_vars=3, bits_per_var=10, lower=-5.12, upper=5.12)
    pop = enc.random_population(50, np.random.default_rng(0))
    assert pop.shape == (50, 30)
    assert pop.dtype == np.uint8
    assert set(np.unique(pop)) <= {0, 1}


def test_for_function_uses_table1_settings():
    fn = get_function(5)
    enc = BinaryEncoding.for_function(fn)
    assert enc.n_vars == 2
    assert enc.bits_per_var == 17
    assert enc.length == 34
    assert enc.nbytes == 5


def test_validation():
    with pytest.raises(ValueError):
        BinaryEncoding(n_vars=0, bits_per_var=4, lower=0, upper=1)
    with pytest.raises(ValueError):
        BinaryEncoding(n_vars=1, bits_per_var=4, lower=1.0, upper=1.0)
    with pytest.raises(ValueError):
        BinaryEncoding(n_vars=1, bits_per_var=31, lower=0, upper=1)
    enc = BinaryEncoding(n_vars=1, bits_per_var=4, lower=0, upper=1)
    with pytest.raises(ValueError, match="length"):
        enc.decode(np.zeros((1, 5), dtype=np.uint8))


@settings(max_examples=40, deadline=None)
@given(
    bits=st.integers(min_value=1, max_value=16),
    n_vars=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=999),
    gray=st.booleans(),
)
def test_property_decode_within_bounds(bits, n_vars, seed, gray):
    enc = BinaryEncoding(n_vars=n_vars, bits_per_var=bits, lower=-2.5, upper=7.5, gray=gray)
    pop = enc.random_population(32, np.random.default_rng(seed))
    x = enc.decode(pop)
    assert x.shape == (32, n_vars)
    assert np.all(x >= -2.5) and np.all(x <= 7.5)
