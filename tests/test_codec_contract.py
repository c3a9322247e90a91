"""The codec's contract as one property: every input to either pipeline
either round-trips to its own shape with finite output, or raises a
documented typed error (a usage `ValueError`, `SizeOverflowError`,
`BadLevelsError`, `NotConvergedError`, or `CorruptStreamError` from a
decoder refusing what overflows), and nothing else escapes, warnings
included."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrma.codec import (
    CodecParams,
    compress_image_set,
    compress_mesh_seq,
    decompress_image_set,
    decompress_mesh_seq,
)
from slrma.datasets import grid_strip_faces
from slrma.errors import (
    BadLevelsError,
    CorruptStreamError,
    NotConvergedError,
    SizeOverflowError,
)

DOCUMENTED = (ValueError, SizeOverflowError, BadLevelsError, NotConvergedError,
              CorruptStreamError)


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def matrices(draw, m, n):
    """An m x n matrix of a drawn rank, at a scale of 10^-300..10^300 or near 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, min(m, n)))
    x = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    return x * 10.0 ** draw(st.integers(-300, 300) | st.integers(-3, 3))


@st.composite
def cases(draw):
    """(pipeline, compress arguments, CodecParams): images of up to 8 x 8
    pixels or meshes of 4..16 vertices, up to 8 frames, k up to one past
    min(m, n), and one NaN in about one case in eight."""
    if draw(st.booleans()):
        w, h = (draw(st.sampled_from([1, 2, 4, 8]) | st.integers(1, 8)) for _ in range(2))
        m, n = w * h, draw(st.integers(1, 8))
        pipeline, data, rest = "image", [draw(matrices(m, n))], (w, h)
    else:
        m, n = draw(st.integers(4, 16)), draw(st.integers(1, 8))
        pipeline, rest = "mesh", (grid_strip_faces(m)[2],)
        data = [draw(matrices(m, n)) for _ in range(3)]
    if draw(st.integers(0, 7)) == 0:
        x = data[draw(st.integers(0, len(data) - 1))]
        x[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = np.nan
    target = draw(st.none() | st.floats(0.0, 0.99))
    params = CodecParams(
        k=draw(st.integers(1, min(m, n) + 1)),
        step_b=draw(log_uniform(-9, 3)),
        step_c=draw(log_uniform(-9, 3)),
        transform=draw(st.sampled_from(["dct", "dwt"])),
        levels=draw(st.integers(1, 3)),
        gamma=draw(log_uniform(-3, 3)) if target is None else None,
        target_pb=target,
    )
    return pipeline, (*data, *rest), params


def round_trip(pipeline, args, params):
    if pipeline == "image":
        x, w, h = args
        x_hat, w_hat, h_hat = decompress_image_set(compress_image_set(x, w, h, params))
        assert (w_hat, h_hat) == (w, h)
        return [(x, x_hat)]
    *coords, faces = args
    decoded = decompress_mesh_seq(compress_mesh_seq(*coords, faces, params), faces)
    return list(zip(coords, decoded))


@given(cases())
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("error")
def test_every_input_round_trips_or_raises_a_documented_error(case):
    pipeline, args, params = case
    try:
        pairs = round_trip(pipeline, args, params)
    except DOCUMENTED:
        return
    for x, x_hat in pairs:
        assert x_hat.shape == x.shape
        assert np.isfinite(x_hat).all()
