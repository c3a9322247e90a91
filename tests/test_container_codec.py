import dataclasses
import functools
import gc
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slrma.codec
import slrma.entropy
import slrma.transforms
from slrma.codec import (
    CodecParams,
    compress_image_set,
    compress_mesh_seq,
    decompress_image_set,
    decompress_mesh_seq,
)
from slrma.container import (
    ContainerHeader,
    PIPELINE_IMAGE,
    connectivity_digest,
    pack_container,
    unpack_container,
)
from slrma.datasets import synth_image_set, synth_mesh_seq
from slrma.entropy import entropy_encode
from slrma.errors import (
    BadMagicError,
    CorruptStreamError,
    DigestMismatchError,
    DisconnectedError,
    SizeOverflowError,
    VersionUnsupportedError,
)
from slrma.metrics import rmse
from slrma.quant import quantize
from slrma.solver import reconstruct
from slrma.transforms import dct1d, dct2d, graph_transform, mesh_adjacency

IMAGE_PARAMS = CodecParams(k=4, step_b=0.002, step_c=0.5, transform="dct",
                           gamma=50.0)


def factor_quantization_bound(basis, coeffs, step_b, step_c):
    """Frobenius bound on the product perturbation from quantizing factors.

    With |dB| <= step_b/2 and |dC| <= step_c/2 elementwise and orthonormal
    B: ||B^C^ - BC||_F <= ||dB||_F ||C||_2 + ||dC||_F + ||dB||_F ||dC||_F.
    """
    m, k = basis.shape
    n = coeffs.shape[1]
    db = np.sqrt(m * k) * step_b / 2.0
    dc = np.sqrt(k * n) * step_c / 2.0
    c_spec = np.linalg.norm(coeffs, 2)
    return db * c_spec + dc + db * dc


def small_image_set():
    return synth_image_set(8, 8, 12, rank=2, noise_sigma=1.0, seed=3)


def hand_container():
    """Deterministic container built from hand-picked factors."""
    basis = np.zeros((6, 2))
    basis[0, 0] = 0.625
    basis[3, 0] = -0.25
    basis[1, 1] = 1.125
    coeffs = np.array([[2.5, -1.25, 0.0], [0.75, 0.0, 3.5]])
    payload_b = entropy_encode(quantize(basis, 0.125))
    payload_c = entropy_encode(quantize(coeffs, 0.25))
    header = ContainerHeader(pipeline=PIPELINE_IMAGE, transform_kind="dct2d",
                             transform_params=(3, 2), m=6, n=3, k=2,
                             step_b=0.125, step_c=0.25)
    return pack_container(header, [payload_b, payload_c])


def test_header_roundtrip():
    blob = hand_container()
    header, payloads = unpack_container(blob)
    assert header.pipeline == PIPELINE_IMAGE
    assert header.transform_kind == "dct2d"
    assert header.transform_params == (3, 2)
    assert (header.m, header.n, header.k) == (6, 3, 2)
    assert header.step_b == 0.125 and header.step_c == 0.25
    assert len(payloads) == 2


def test_container_golden_layout():
    # frozen byte layout: magic, version, pipeline, kind, nparams, params
    blob = hand_container()
    assert blob[:4] == b"SLRM"
    assert blob[4] == 5 and blob[5] == 0
    assert blob[6] == 3 and blob[7] == 2  # dct2d, two params
    assert int.from_bytes(blob[8:12], "little") == 3
    assert int.from_bytes(blob[12:16], "little") == 2
    assert int.from_bytes(blob[16:20], "little") == 6
    # whole-container hash guards the full field order and entropy coding
    assert hashlib.sha256(blob).hexdigest() == (
        "4b02d78f8f95a02e6bbb7dc24a108ab0bd49fe85bccf350661ef38a98e2bae99"
    )


def test_hand_container_basis_payload_is_the_documented_example():
    # the worked example of the slrma.entropy docstring, field by field there
    _, payloads = unpack_container(hand_container())
    assert payloads[0] == bytes.fromhex("00 01 21 aa 9e 8b")


def test_container_rejects_bad_magic():
    blob = bytearray(hand_container())
    blob[:4] = b"JUNK"
    with pytest.raises(BadMagicError):
        unpack_container(bytes(blob))


def test_container_rejects_bad_version():
    # versions 1-4 range-coded their payloads: version 1 coded the sign and
    # Exp-Golomb suffix bits adaptively, version 2 coded every payload at
    # Exp-Golomb order 0, version 3 coded every cell and kept sign and suffix
    # bits in the range coder, and version 4 range-coded significance
    for version in (1, 2, 3, 4, 9):
        blob = bytearray(hand_container())
        blob[4] = version
        with pytest.raises(VersionUnsupportedError):
            unpack_container(bytes(blob))


@pytest.mark.parametrize("code", [0, 1, 2])
def test_container_refuses_a_kind_no_pipeline_writes(image_container, code):
    # codes 0-2 once named identity, dct1d and dwt1d
    for blob in (image_container, tiny_mesh_container()[1]):
        crafted = bytearray(blob)
        crafted[6] = code
        with pytest.raises(CorruptStreamError, match="unknown transform kind"):
            unpack_container(bytes(crafted))


def test_container_rejects_truncation():
    blob = hand_container()
    with pytest.raises(CorruptStreamError):
        unpack_container(blob[:-3])


def test_container_rejects_trailing_bytes():
    with pytest.raises(CorruptStreamError):
        unpack_container(hand_container() + b"x")


def with_header(blob, **fields):
    """`blob` with some header fields replaced and its payloads kept."""
    header, payloads = unpack_container(blob)
    return pack_container(dataclasses.replace(header, **fields), payloads)


@pytest.fixture(scope="module")
def image_container():
    data = small_image_set()  # 8x8 images, 12 of them: m=64, n=12, k=4
    return compress_image_set(data.x, data.w, data.h, IMAGE_PARAMS)


@pytest.mark.parametrize("fields", [
    dict(step_b=float("nan")), dict(step_c=float("inf")), dict(step_b=0.0),
    dict(step_c=-0.5), dict(m=32), dict(k=0), dict(k=13),
    dict(transform_params=(8,)), dict(k=3), dict(n=11), dict(step_b=1e308),
], ids=["nan-step_b", "inf-step_c", "zero-step_b", "negative-step_c",
        "m-not-wh", "k-zero", "k-above-n", "missing-param", "k-below", "n-below",
        "overflowing-step_b"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_decoder_rejects_crafted_header(image_container, fields):
    with pytest.raises(CorruptStreamError):
        decompress_image_set(with_header(image_container, **fields))


def test_decoder_rejects_a_header_too_large_to_decode(image_container):
    # k <= min(m, n) holds, so the header parses; its stack of 2**32 - 1
    # images is refused before anything is sized for it
    with pytest.raises(CorruptStreamError, match="exceeds"):
        decompress_image_set(with_header(image_container, n=2**32 - 1))


def traced_peak(fn):
    """Peak bytes traced by `tracemalloc` while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def no_basis(*args):
    raise AssertionError(f"built a 1D basis for {args}")


@pytest.mark.parametrize("transform, params", [
    ("dct", (8193, 1)), ("dct", (1, 8193)), ("dct", (16384, 1)), ("dwt", (16384, 1, 3)),
], ids=["dct-8193x1", "dct-1x8193", "dct-16384x1", "dwt-16384x1"])
def test_image_basis_size_is_bounded_before_any_basis(image_container, monkeypatch,
                                                      transform, params):
    # w^2 + h^2 above 2^26 cells (8192^2 alone is at it): refused before
    # dct1d or haar1d builds a w x w or h x h matrix (2 GiB at w = 16384)
    monkeypatch.setattr(slrma.transforms, "dct1d", no_basis)
    monkeypatch.setattr(slrma.transforms, "haar1d", no_basis)
    w, h = params[:2]
    kind = "dct2d" if transform == "dct" else "dwt2d"
    crafted = with_header(image_container, transform_kind=kind,
                          transform_params=params, m=w * h)
    with pytest.raises(CorruptStreamError, match="factors exceed"):
        decompress_image_set(crafted)
    encoder_params = dataclasses.replace(IMAGE_PARAMS, transform=transform)
    with pytest.raises(SizeOverflowError):
        compress_image_set(np.zeros((w * h, 12)), w, h, encoder_params)


def test_image_stack_is_bounded_before_any_payload(image_container, monkeypatch):
    # 8 x 8 images, 2**20 + 1 of them: 2**26 + 64 decoded cells
    def no_payload(*args):
        raise AssertionError("decoded a payload")

    monkeypatch.setattr(slrma.transforms, "dct1d", no_basis)
    monkeypatch.setattr(slrma.codec, "entropy_decode_all", no_payload)
    with pytest.raises(CorruptStreamError, match="stack .* exceeds"):
        decompress_image_set(with_header(image_container, n=2**20 + 1))
    # the encoder's own bound, without a 512 MB input to reach it
    with pytest.raises(SizeOverflowError, match="stack .* exceeds"):
        slrma.codec.image_transforms("dct2d", (8, 8), 2**20 + 1)


def test_image_basis_of_a_long_row_holds_one_factor(image_container):
    # a 4096 x 1 header: the decoder builds the 4096-point DCT (128 MiB) and
    # nothing of the 4096^2 2D basis, then refuses the 64 x 4 payloads
    crafted = with_header(image_container, transform_params=(4096, 1), m=4096)

    def decode():
        with pytest.raises(CorruptStreamError):
            decompress_image_set(crafted)

    assert traced_peak(decode) < 1.25 * 8 * 4096**2


def test_large_image_set_roundtrip():
    # 128 x 128 images: a 2D basis of 16384^2 entries would hold 2 GiB
    data = synth_image_set(128, 128, 4, rank=2, noise_sigma=2.0, seed=2)
    params = CodecParams(k=2, step_b=0.004, step_c=1.0, gamma=5.0)
    x_hat, w, h = decompress_image_set(compress_image_set(data.x, 128, 128, params))
    assert (w, h) == (128, 128)
    assert x_hat.shape == (128 * 128, 4)
    assert rmse(data.x, x_hat) < 2.5  # noise floor is sigma = 2


@pytest.fixture(scope="module")
def dwt_container():
    data = small_image_set()
    return compress_image_set(data.x, data.w, data.h,
                              dataclasses.replace(IMAGE_PARAMS, transform="dwt", levels=2))


@pytest.mark.parametrize("levels", [0, 4, 2**30], ids=["zero", "past-m", "2^30"])
def test_decoder_rejects_crafted_dwt_levels(dwt_container, levels):
    crafted = with_header(dwt_container, transform_params=(8, 8, levels))

    def decode():
        with pytest.raises(CorruptStreamError, match="levels|divisible"):
            decompress_image_set(crafted)

    assert traced_peak(decode) < 2**20  # 1 << 2**30 alone would take 128 MiB


def test_refused_headers_retain_nothing(image_container, dwt_container):
    # each header sizes a ~32 MiB basis and is refused at its payloads; the
    # sizes all differ, so no decode can be handed a basis another one built
    seq, mesh_blob = tiny_mesh_container()
    decodes = [
        lambda: decompress_image_set(
            with_header(image_container, transform_params=(2048, 1), m=2048)),
        lambda: decompress_image_set(
            with_header(dwt_container, transform_params=(2048, 8, 2), m=8 * 2048)),
        lambda: decompress_mesh_seq(with_header(mesh_blob, n=2040), seq.faces),
    ]
    gc.collect()
    tracemalloc.start()
    try:
        for decode in decodes:
            with pytest.raises(CorruptStreamError):
                decode()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2**20


def test_image_roundtrip_deterministic():
    data = small_image_set()
    one = compress_image_set(data.x, data.w, data.h, IMAGE_PARAMS)
    two = compress_image_set(data.x, data.w, data.h, IMAGE_PARAMS)
    assert one == two
    a, _, _ = decompress_image_set(one)
    b, _, _ = decompress_image_set(one)
    assert np.array_equal(a, b)


def test_image_near_lossless_limit():
    data = small_image_set()
    params = CodecParams(k=4, step_b=1e-9, step_c=1e-9, transform="dct",
                         gamma=50.0)
    blob = compress_image_set(data.x, data.w, data.h, params)
    x_hat, w, h = decompress_image_set(blob)
    assert (w, h) == (data.w, data.h)
    # match the unquantized reconstruction of the same factorization
    from slrma.solver import SolverConfig, slrma_solve

    phi = dct2d(8, 8)
    fact = slrma_solve(phi.forward(data.x), SolverConfig(gamma=50.0, k=4))
    x_ref = reconstruct(phi, fact)
    assert np.abs(x_hat - x_ref).max() < 1e-6


def test_image_error_within_quantization_bound():
    data = small_image_set()
    blob = compress_image_set(data.x, data.w, data.h, IMAGE_PARAMS)
    x_hat, _, _ = decompress_image_set(blob)

    from slrma.solver import SolverConfig, slrma_solve

    phi = dct2d(8, 8)
    fact = slrma_solve(phi.forward(data.x), SolverConfig(gamma=50.0, k=4))
    x_ref = reconstruct(phi, fact)
    bound = factor_quantization_bound(fact.basis, fact.coeffs,
                                      IMAGE_PARAMS.step_b, IMAGE_PARAMS.step_c)
    lossless_rmse = rmse(data.x, x_ref)
    assert rmse(data.x, x_hat) <= lossless_rmse + bound / np.sqrt(data.x.size) + 1e-12


def test_wide_image_set_roundtrip():
    # more frames than pixels: Z is 64 x 100, wider than tall
    data = synth_image_set(8, 8, 100, rank=4, noise_sigma=2.0, seed=2)
    params = CodecParams(k=4, step_b=0.004, step_c=1.0, gamma=5.0)
    blob = compress_image_set(data.x, data.w, data.h, params)
    x_hat, w, h = decompress_image_set(blob)
    assert (w, h) == (8, 8)
    assert x_hat.shape == (64, 100)
    assert rmse(data.x, x_hat) < 2.5  # noise floor is sigma = 2


def test_image_distortion_monotone_in_step():
    data = small_image_set()
    errs = []
    for step_b, step_c in ((0.016, 4.0), (0.008, 2.0), (0.004, 1.0)):
        params = CodecParams(k=4, step_b=step_b, step_c=step_c,
                             transform="dct", gamma=50.0)
        x_hat, _, _ = decompress_image_set(
            compress_image_set(data.x, data.w, data.h, params))
        errs.append(rmse(data.x, x_hat))
    assert errs[0] >= errs[1] >= errs[2]


def test_image_dwt_pipeline():
    data = small_image_set()
    params = CodecParams(k=3, step_b=0.004, step_c=1.0, transform="dwt",
                         levels=2, gamma=50.0)
    blob = compress_image_set(data.x, data.w, data.h, params)
    header, _ = unpack_container(blob)
    assert header.transform_kind == "dwt2d"
    assert header.transform_params == (8, 8, 2)
    x_hat, _, _ = decompress_image_set(blob)
    assert rmse(data.x, x_hat) < 30.0


def small_mesh():
    return synth_mesh_seq(64, 16, amplitude=60.0, seed=1)


MESH_PARAMS = CodecParams(k=3, step_b=0.002, step_c=0.5, transform="gt",
                          gamma=20.0)


def test_mesh_roundtrip_and_digest(monkeypatch):
    seq = small_mesh()
    blob = compress_mesh_seq(seq.xx, seq.xy, seq.xz, seq.faces, MESH_PARAMS)
    hx, hy, hz = decompress_mesh_seq(blob, seq.faces)
    assert hx.shape == seq.xx.shape
    # wrong connectivity must be rejected
    bad_faces = list(seq.faces)
    bad_faces[0] = (bad_faces[0][0], bad_faces[0][2], bad_faces[0][1] + 1)
    with pytest.raises((DigestMismatchError, IndexError, ValueError)):
        decompress_mesh_seq(blob, tuple(bad_faces))

    # and before the eigenbasis is built, even when the cache holds it
    hits = graph_transform.cache_info().hits
    decompress_mesh_seq(blob, seq.faces)
    assert graph_transform.cache_info().hits > hits

    def no_graph_transform(graph):
        raise AssertionError("built the graph basis of a mismatched mesh")

    monkeypatch.setattr(slrma.codec, "graph_transform", no_graph_transform)
    with pytest.raises(DigestMismatchError):
        decompress_mesh_seq(with_header(blob, digest=bytes(8)), seq.faces)


def test_mesh_frame_count_is_bounded_before_the_frame_dct(monkeypatch):
    # an n x n frame DCT at n = 8193 would hold 2**26 + 16385 cells
    seq = synth_mesh_seq(16, 4, seed=1)
    blob = compress_mesh_seq(seq.xx, seq.xy, seq.xz, seq.faces,
                             CodecParams(k=2, step_b=0.01, step_c=1.0, target_pb=0.5))

    def no_dct1d(n):
        raise AssertionError(f"built a {n}-point frame DCT")

    monkeypatch.setattr(slrma.codec, "dct1d", no_dct1d)
    with pytest.raises(CorruptStreamError, match="frames"):
        decompress_mesh_seq(with_header(blob, n=8193), seq.faces)
    wide = np.zeros((seq.m, 8193))
    with pytest.raises(SizeOverflowError):
        compress_mesh_seq(wide, wide, wide, seq.faces,
                          CodecParams(k=2, step_b=0.01, step_c=1.0, target_pb=0.5))


@pytest.mark.parametrize("kind, params", [("dct2d", (4, 4)), ("graph", (999,)),
                                           ("graph", ())],
                         ids=["image-kind", "other-m", "no-params"])
def test_mesh_decoder_refuses_a_foreign_transform(kind, params):
    seq, blob = tiny_mesh_container()
    with pytest.raises(CorruptStreamError, match="invalid for an m=16 mesh"):
        decompress_mesh_seq(with_header(blob, transform_kind=kind,
                                        transform_params=params), seq.faces)


def tiny_mesh_container():
    seq = synth_mesh_seq(16, 4, seed=1)
    blob = compress_mesh_seq(seq.xx, seq.xy, seq.xz, seq.faces,
                             CodecParams(k=2, step_b=0.01, step_c=1.0, target_pb=0.5))
    return seq, blob


def test_mesh_connectivity_is_derived_once_per_face_list(monkeypatch):
    seq, blob = tiny_mesh_container()
    calls = []

    def spy(fn):
        def counted(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return counted

    for name in ("mesh_adjacency", "connectivity_digest"):
        monkeypatch.setattr(slrma.codec, name, spy(getattr(slrma.codec, name)))
    slrma.codec._connectivity.cache_clear()
    first = decompress_mesh_seq(blob, seq.faces)
    assert calls == ["mesh_adjacency", "connectivity_digest"]
    second = decompress_mesh_seq(blob, seq.faces)
    assert calls == ["mesh_adjacency", "connectivity_digest"]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)

    # a cache hit still compares the header's digest, before any basis
    def no_graph_transform(graph):
        raise AssertionError("built the graph basis of a mismatched mesh")

    monkeypatch.setattr(slrma.codec, "graph_transform", no_graph_transform)
    with pytest.raises(DigestMismatchError):
        decompress_mesh_seq(with_header(blob, digest=bytes(8)), seq.faces)
    assert len(calls) == 2


def test_decompress_runs_the_chooser_once_per_container(image_container, monkeypatch):
    # a container's payloads decode in one pass: one selector check over
    # every section (two per payload), not one check per payload
    seq, mesh_blob = tiny_mesh_container()
    sections = []
    chooser = slrma.entropy._selectors

    def counted(magnitudes, sizes):
        sections.append(len(sizes))
        return chooser(magnitudes, sizes)

    monkeypatch.setattr(slrma.entropy, "_selectors", counted)
    decompress_image_set(image_container)
    assert sections == [4]
    decompress_mesh_seq(mesh_blob, seq.faces)
    assert sections == [4, 12]


def test_mesh_faces_as_tuples_lists_or_an_array_decode_alike():
    seq, blob = tiny_mesh_container()
    forms = [seq.faces, [list(face) for face in seq.faces],
             np.array(seq.faces, dtype=np.int32)]
    outs = []
    for faces in forms:
        slrma.codec._connectivity.cache_clear()  # each form on a miss, then a hit
        outs.append(decompress_mesh_seq(blob, faces))
        outs.append(decompress_mesh_seq(blob, faces))
        assert compress_mesh_seq(seq.xx, seq.xy, seq.xz, faces,
                                 CodecParams(k=2, step_b=0.01, step_c=1.0,
                                             target_pb=0.5)) == blob
    for out in outs[1:]:
        for a, b in zip(outs[0], out):
            assert np.array_equal(a, b)


def test_mesh_faces_past_the_vertex_count_are_refused_after_a_hit():
    seq, blob = tiny_mesh_container()
    decompress_mesh_seq(blob, seq.faces)
    cached = slrma.codec._connectivity.cache_info().currsize
    for bad in (seq.faces + ((0, 1, seq.m),), list(seq.faces) + [[seq.m + 5, 0, 1]]):
        with pytest.raises(DigestMismatchError):
            decompress_mesh_seq(blob, bad)
    assert slrma.codec._connectivity.cache_info().currsize == cached  # nothing cached


def test_mesh_vertex_count_is_bounded_by_the_faces():
    # the digest is an unkeyed hash of public faces, so a crafted container
    # can name any m with a matching one; vertices no face touches make the
    # graph disconnected before anything is sized by m
    seq, blob = tiny_mesh_container()
    m = 2**22
    crafted = with_header(blob, m=m, transform_params=(m,), digest=connectivity_digest(
        m, mesh_adjacency(seq.faces, m).edges))

    def decode():
        with pytest.raises(DisconnectedError):
            decompress_mesh_seq(crafted, seq.faces)

    assert traced_peak(decode) < 4 * 2**20


def test_mesh_static_sequence_dc_concentration():
    # identical frames: coefficient rows are constant, so the row DCT puts
    # everything into the DC column and the payload stays small
    rng = np.random.default_rng(5)
    m, n = 16, 10
    from slrma.datasets import grid_strip_faces

    _, _, faces = grid_strip_faces(m)
    frame = rng.normal(size=m) * 10 + 50.0
    xx = np.tile(frame[:, None], (1, n))
    xy = np.tile((frame * 0.8)[:, None], (1, n))
    xz = np.tile((frame * 0.6)[:, None], (1, n))
    params = CodecParams(k=1, step_b=0.002, step_c=0.5, gamma=1e-3)
    blob = compress_mesh_seq(xx, xy, xz, faces, params)
    u_gt = graph_transform(mesh_adjacency(faces, m))
    u_dct = dct1d(n)
    from slrma.solver import SolverConfig, slrma_solve

    fact = slrma_solve(u_gt.forward(xx), SolverConfig(gamma=1e-3, k=1))
    coeff_dct = u_dct.forward(fact.coeffs.T)
    energy = coeff_dct[:, 0] ** 2
    assert energy[0] > 0.999 * energy.sum()
    raw = 3 * m * n * 8
    assert len(blob) < raw / 4
    hx, hy, hz = decompress_mesh_seq(blob, faces)
    assert rmse(np.vstack([xx, xy, xz]), np.vstack([hx, hy, hz])) < 0.5


def test_mesh_zero_coefficient_stream():
    seq = small_mesh()
    params = CodecParams(k=3, step_b=0.002, step_c=1e9, transform="gt",
                         gamma=20.0)  # huge step: every coefficient quantizes to 0
    blob = compress_mesh_seq(seq.xx, seq.xy, seq.xz, seq.faces, params)
    hx, hy, hz = decompress_mesh_seq(blob, seq.faces)
    assert np.abs(hx).max() == 0.0
    assert np.abs(hy).max() == 0.0
    assert np.abs(hz).max() == 0.0


def test_mesh_hand_pipeline_identity():
    # 3-vertex mesh: build a container from hand factors and decode by hand
    faces = [(0, 1, 2)]
    m, n, k = 3, 4, 1
    u_gt = graph_transform(mesh_adjacency(faces, m))
    u_dct = dct1d(n)
    payloads = []
    basis_by_axis = []
    coeff_by_axis = []
    for axis in range(3):
        basis = np.zeros((m, k))
        basis[axis, 0] = 1.0
        coeff_dct = np.zeros((n, k))
        coeff_dct[0, 0] = (axis + 1) * 2.0
        basis_by_axis.append(basis)
        coeff_by_axis.append(coeff_dct)
        payloads.append(entropy_encode(quantize(basis, 0.5)))
        payloads.append(entropy_encode(quantize(coeff_dct, 0.5)))
    header = ContainerHeader(
        pipeline=1, transform_kind="graph", transform_params=(m,),
        m=m, n=n, k=k, step_b=0.5, step_c=0.5,
        digest=connectivity_digest(m, mesh_adjacency(faces, m).edges),
    )
    blob = pack_container(header, payloads)
    out = decompress_mesh_seq(blob, faces)
    for axis in range(3):
        coeffs = u_dct.inverse(coeff_by_axis[axis]).T
        expected = u_gt.inverse(basis_by_axis[axis] @ coeffs)
        assert np.abs(out[axis] - expected).max() < 1e-10


@functools.cache
def fuzz_case(kind):
    """(container at an explicit gamma, decoder to a list of arrays, their shapes)."""
    if kind == "image":
        data = small_image_set()
        blob = compress_image_set(data.x, data.w, data.h, IMAGE_PARAMS)
        return blob, lambda b: [decompress_image_set(b)[0]], [data.x.shape]
    seq = small_mesh()
    blob = compress_mesh_seq(seq.xx, seq.xy, seq.xz, seq.faces, MESH_PARAMS)
    return blob, lambda b: list(decompress_mesh_seq(b, seq.faces)), [seq.xx.shape] * 3


@pytest.mark.parametrize("kind", ["image", "mesh"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(flips=st.lists(st.tuples(st.integers(0, 96) | st.integers(0, 2**16),
                                st.integers(1, 255)), max_size=4),
       cut=st.none() | st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
@example(flips=[(12, 67)], cut=None)  # mesh: m below the faces' vertex count
@example(flips=[(35, 64)], cut=None)  # image: step_b 0.002 -> ~4e305
def test_mutated_container_decodes_or_raises_a_typed_error(kind, flips, cut):
    # header bytes (the first ~96) are flipped as often as payload bytes
    blob, decode, shapes = fuzz_case(kind)
    data = bytearray(blob)
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    if cut is not None:
        del data[cut % len(data):]
    try:
        out = decode(bytes(data))
    except (CorruptStreamError, BadMagicError, VersionUnsupportedError,
            DigestMismatchError):
        return
    assert [x.shape for x in out] == shapes
    assert all(np.isfinite(x).all() for x in out)


def test_rate_accounting_exact():
    data = small_image_set()
    blob = compress_image_set(data.x, data.w, data.h, IMAGE_PARAMS)
    from slrma.metrics import bits_per_pixel

    bits = 8 * len(blob)
    assert bits_per_pixel(len(blob), data.w, data.h, data.n) == bits / (8 * 8 * 12)
