import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrma.entropy import entropy_decode, entropy_encode
from slrma.errors import CorruptStreamError
from slrma.quant import QuantizedSparseMatrix, dequantize, quantize


def test_quantize_rounding_boundary():
    q = quantize(np.array([[0.49, 0.5], [-0.5, -0.49]]), 1.0)
    assert np.array_equal(q.significance, [[False, True], [True, False]])
    assert np.array_equal(q.levels, [1, -1])


@pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf")])
def test_quantize_rejects_step_a_decoder_refuses(step):
    # the decoder rejects a container whose step is not positive and finite,
    # so the encoder must never write one
    with pytest.raises(ValueError):
        quantize(np.ones((2, 2)), step)


def test_quantize_exact_multiples_roundtrip():
    # a binary-representable step makes the roundtrip bit-exact
    m = np.array([[0.25, -0.75], [0.0, 1.5]])
    assert np.array_equal(dequantize(quantize(m, 0.25)), m)


def test_quantize_error_bound():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(13, 7))
    q = quantize(m, 0.01)
    assert np.abs(dequantize(q) - m).max() <= 0.005 + 1e-15


def test_quantize_levels_row_major():
    m = np.array([[0.0, 2.0], [3.0, 0.0]])
    q = quantize(m, 1.0)
    assert np.array_equal(q.levels, [2, 3])


def test_quantized_matrix_validation():
    with pytest.raises(ValueError):
        QuantizedSparseMatrix(2, 2, 1.0, np.ones((2, 2), dtype=bool),
                              np.array([1, 2, 3], dtype=np.int64))
    with pytest.raises(ValueError):
        QuantizedSparseMatrix(1, 2, 1.0, np.array([[True, False]]),
                              np.array([0], dtype=np.int64))


def roundtrip(q):
    return entropy_decode(entropy_encode(q), q.rows, q.cols, q.step)


def assert_same(a, b):
    assert a.rows == b.rows and a.cols == b.cols
    assert np.array_equal(a.significance, b.significance)
    assert np.array_equal(a.levels, b.levels)


def test_entropy_all_zero():
    q = quantize(np.zeros((5, 4)), 1.0)
    out = roundtrip(q)
    assert_same(q, out)
    assert out.levels.size == 0


def test_entropy_single_nonzero():
    m = np.zeros((3, 3))
    m[0, 0] = 7.0
    q = quantize(m, 1.0)
    out = roundtrip(q)
    assert_same(q, out)
    assert out.levels[0] == 7


def test_entropy_large_levels():
    m = np.array([[1e6, -99999.0], [0.0, 12345.0]])
    assert_same(quantize(m, 1.0), roundtrip(quantize(m, 1.0)))


def test_entropy_deterministic():
    rng = np.random.default_rng(1)
    q = quantize(rng.normal(size=(10, 10)) * 5, 0.5)
    assert entropy_encode(q) == entropy_encode(q)


@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.9))
@settings(max_examples=40, deadline=None)
def test_entropy_roundtrip_fuzz(seed, density):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 25))
    cols = int(rng.integers(1, 25))
    values = rng.normal(size=(rows, cols)) * 40
    values[rng.random(size=(rows, cols)) > density] = 0.0
    q = quantize(values, 0.03)
    assert_same(q, roundtrip(q))


def test_entropy_truncation_detected():
    rng = np.random.default_rng(2)
    q = quantize(rng.normal(size=(16, 16)) * 10, 0.05)
    payload = entropy_encode(q)
    with pytest.raises(CorruptStreamError):
        entropy_decode(payload[: max(1, len(payload) // 3)], 16, 16, 0.05)
