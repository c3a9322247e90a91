import contextlib
import dataclasses
import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slrma import datasets
from slrma.cli import cli_main
from slrma.datasets import (
    ImageSet,
    MeshSequence,
    grid_strip_faces,
    load_image_set,
    load_mesh_sequence,
    read_off,
    read_pgm,
    save_image_set,
    save_mesh_sequence,
    synth_image_set,
    synth_mesh_seq,
    write_off,
    write_pgm,
)
from slrma.errors import (
    ConnectivityMismatchError,
    DimensionMismatchError,
    FormatError,
)
from slrma.lrma import lrma


def test_pgm_hand_vectorization(tmp_path):
    path = tmp_path / "a.pgm"
    write_pgm(path, np.array([[0, 255], [128, 64]], dtype=np.uint8))
    data = load_image_set([path])
    assert (data.w, data.h, data.n) == (2, 2, 1)
    assert np.array_equal(data.x[:, 0], [0.0, 128.0, 255.0, 64.0])


def test_pgm_comment_and_header(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
    img = read_pgm(path)
    assert np.array_equal(img, [[1, 2], [3, 4]])


def test_pgm_rejects_bad_inputs(tmp_path):
    bad_magic = tmp_path / "x.pgm"
    bad_magic.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(FormatError):
        read_pgm(bad_magic)
    bad_maxval = tmp_path / "y.pgm"
    bad_maxval.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(FormatError):
        read_pgm(bad_maxval)
    truncated = tmp_path / "z.pgm"
    truncated.write_bytes(b"P5\n4 4\n255\n\x00")
    with pytest.raises(FormatError):
        read_pgm(truncated)


def test_image_set_dimension_mismatch(tmp_path):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    write_pgm(a, np.zeros((2, 2)))
    write_pgm(b, np.zeros((3, 2)))
    with pytest.raises(DimensionMismatchError):
        load_image_set([a, b])


def test_image_set_write_read_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 256, size=(12, 5)).astype(np.float64)
    original = ImageSet(w=3, h=4, x=x)
    paths = save_image_set(original, tmp_path / "set")
    loaded = load_image_set(paths)
    assert np.array_equal(loaded.x, x)
    assert (loaded.w, loaded.h) == (3, 4)


def test_dataset_sizes_are_read_from_their_arrays():
    x = np.zeros((12, 7))
    image_set = ImageSet(3, 4, x)
    assert image_set.n == 7
    # how a benchmark op takes its input from a corpus
    assert dataclasses.replace(image_set, x=x[:, :5]).n == 5
    seq = synth_mesh_seq(16, 6, seed=1)
    assert (seq.m, seq.n) == (16, 6)
    assert MeshSequence(seq.faces, seq.xx, seq.xy, seq.xz).n == 6
    short = dataclasses.replace(seq, xx=seq.xx[:, :4], xy=seq.xy[:, :4], xz=seq.xz[:, :4])
    assert (short.m, short.n) == (16, 4)
    with pytest.raises(TypeError):
        ImageSet(w=3, h=4, n=40, x=x)
    with pytest.raises(TypeError):
        MeshSequence(m=16, n=6, faces=seq.faces, xx=seq.xx, xy=seq.xy, xz=seq.xz)


def test_off_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    verts = rng.normal(size=(5, 3)) * 137.2
    faces = ((0, 1, 2), (1, 2, 3), (2, 3, 4))
    path = tmp_path / "m.off"
    write_off(path, verts, faces)
    back_v, back_f = read_off(path)
    assert np.array_equal(back_v, verts)  # %.17g is lossless for float64
    assert back_f == faces


def test_off_rejects_bad_header(tmp_path):
    # a bad magic, a face index past the vertex count, a degenerate face
    vertices = "".join(f"{i} 0 0\n" for i in range(16))
    for text in ("OFX\n1 0 0\n0 0 0\n",
                 "OFF\n16 1 0\n" + vertices + "3 0 1 16\n",
                 "OFF\n16 1 0\n" + vertices + "3 11 15 15\n"):
        path = tmp_path / "bad.off"
        path.write_text(text)
        with pytest.raises(FormatError):
            read_off(path)


def test_off_rejects_non_triangle(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(FormatError):
        read_off(path)


def test_mesh_sequence_roundtrip(tmp_path):
    seq = synth_mesh_seq(16, 4, amplitude=50.0, seed=2)
    paths = save_mesh_sequence(seq, tmp_path / "seq")
    loaded = load_mesh_sequence(paths)
    assert np.array_equal(loaded.xx, seq.xx)
    assert np.array_equal(loaded.xy, seq.xy)
    assert np.array_equal(loaded.xz, seq.xz)
    assert loaded.faces == seq.faces


def test_mesh_sequence_connectivity_mismatch(tmp_path):
    seq = synth_mesh_seq(16, 2, amplitude=50.0, seed=3)
    paths = save_mesh_sequence(seq, tmp_path / "seq")
    verts, faces = read_off(paths[1])
    swapped = (faces[1],) + (faces[0],) + faces[2:]
    write_off(paths[1], verts, swapped)
    with pytest.raises(ConnectivityMismatchError):
        load_mesh_sequence(paths)


def test_synth_images_deterministic():
    a = synth_image_set(8, 8, 6, rank=3, noise_sigma=1.5, seed=9)
    b = synth_image_set(8, 8, 6, rank=3, noise_sigma=1.5, seed=9)
    assert np.array_equal(a.x, b.x)


def test_synth_images_exact_rank_one():
    data = synth_image_set(8, 8, 6, rank=1, noise_sigma=0.0, seed=0)
    res = lrma(data.x, 1)
    err = np.sqrt(np.sum((data.x - res.basis @ res.coeffs) ** 2) / data.x.size)
    assert err < 1e-8


def test_synth_images_exact_rank_four():
    data = synth_image_set(16, 16, 32, rank=4, noise_sigma=0.0, seed=2)
    sigma = np.linalg.svd(data.x, compute_uv=False)
    assert sigma[4] < 1e-8 * sigma[0]


def test_synth_images_spectral_gap_small_noise():
    data = synth_image_set(16, 16, 32, rank=4, noise_sigma=0.01, seed=2)
    sigma = np.linalg.svd(data.x, compute_uv=False)
    assert sigma[3] / sigma[4] >= 10.0


def test_synth_images_range():
    data = synth_image_set(16, 16, 32, rank=4, noise_sigma=2.0, seed=2)
    assert data.x.min() >= 0.0 and data.x.max() <= 255.0


def test_synth_mesh_deterministic():
    a = synth_mesh_seq(16, 4, seed=11)
    b = synth_mesh_seq(16, 4, seed=11)
    assert np.array_equal(a.xx, b.xx) and a.faces == b.faces


def test_synth_mesh_connected_and_valid():
    seq = synth_mesh_seq(64, 8, seed=1)
    from slrma.transforms import mesh_adjacency

    g = mesh_adjacency(seq.faces, seq.m)
    assert g.is_connected()
    assert seq.xx.shape == (64, 8)


@pytest.mark.parametrize("m", [2, 3])
def test_synth_mesh_rejects_too_few_vertices(m):
    # the static shape reads harmonics 1 to 3
    with pytest.raises(ValueError, match="at least 4 vertices"):
        synth_mesh_seq(m, 4)


def test_grid_strip_prime_vertex_count():
    rows, cols, faces = grid_strip_faces(13)
    from slrma.transforms import mesh_adjacency

    assert mesh_adjacency(faces, 13).is_connected()


# ---------------------------------------------------------------------------
# Reader fuzz: cut, flipped or spliced bytes of a valid file load or raise
# FormatError, and a refused file exits 2 through the CLI.

VALID_PGM = b"P5\n# a comment\n3 2\n255\n\x01\x02\x03\x04\x05\x06"
VALID_OFF = (b"OFF\n# a tetrahedron\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
             b"3 0 1 2\n3 0 1 3\n3 0 2 3\n3 1 2 3\n")


@st.composite
def mutants(draw, valid, pieces):
    """`valid` with a few bytes flipped, then pieces spliced in, then a cut;
    positions fall in the header as often as anywhere."""
    data = bytearray(valid)
    position = st.integers(0, 24) | st.integers(0, 2**16)
    for pos, mask in draw(st.lists(st.tuples(position, st.integers(1, 255)), max_size=3)):
        data[pos % len(data)] ^= mask
    for pos, piece in draw(st.lists(st.tuples(position, st.sampled_from(pieces) | st.binary(
            max_size=4)), max_size=3)):
        pos %= len(data) + 1
        data[pos:pos] = piece
    cut = draw(st.none() | position)
    if cut is not None:
        del data[cut % (len(data) + 1):]
    return bytes(data)


def assert_refused_through_the_cli(path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli_main(["measure", "--orig", str(path), "--recon", str(path)]) == 2
    assert err.getvalue().startswith("error: FormatError: ")


def token_pgm_header(data):
    """`read_pgm`'s header rule written out token by token, as it was read
    before the pattern: (w, h, maxval, raster offset), or None where it is
    refused. The reference `_PGM_HEADER` must match."""
    if not data.startswith(b"P5"):
        return None
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not re.fullmatch(rb"\d+", token):
            return None
        fields.append(int(token))
    return (*fields, pos + 1)  # one whitespace byte follows maxval


@given(mutants(VALID_PGM, [b"#", b"\n", b" ", b"\t", b"\r", b"9", b"99999", b"P5", b"-",
                           b"# c\n", b"\x00"]))
@settings(max_examples=200, deadline=None)
@example(b"P5\n3 2\n255")                # maxval ends the file
@example(b"P5 3 2 255 # no newline")     # a comment runs to the end
@example(b"P53 2 255 \x00\x00\x00\x00\x00\x00")  # no space after the magic
@example(b"P5\n3#c\n2 255\n" + bytes(6))  # a comment glued to a number
def test_mutated_pgm_loads_or_raises_format_error(tmp_path_factory, data):
    header = datasets._PGM_HEADER.match(data)
    fields = None if header is None else (*map(int, header.groups()), header.end() + 1)
    assert fields == token_pgm_header(data)
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(data)
    try:
        image = read_pgm(path)
    except FormatError:
        assert_refused_through_the_cli(path)
        return
    w, h, maxval, offset = fields
    assert maxval == 255
    assert image.tobytes() == data[offset : offset + w * h] and image.shape == (h, w)


@given(mutants(VALID_OFF, [b"#", b"\n", b" ", b"-1", b"4", b"9", b"0.5", b"nan", b"1e999",
                           b"3 0 0 1\n", b"\xff", b"OFF"]))
@settings(max_examples=200, deadline=None)
def test_mutated_off_loads_or_raises_format_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.off"
    path.write_bytes(data)
    try:
        verts, faces = read_off(path)
    except FormatError:
        assert_refused_through_the_cli(path)
        return
    assert verts.shape[1] == 3 and np.isfinite(verts).all()
    assert all(len(set(face)) == 3 and 0 <= min(face) and max(face) < len(verts)
               for face in faces)
