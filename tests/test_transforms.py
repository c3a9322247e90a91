import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slrma.transforms
from slrma.errors import BadLevelsError, DisconnectedError
from slrma.transforms import (
    BASES_KEPT,
    GraphSpec,
    dct1d,
    dct2d,
    dwt2d,
    graph_transform,
    haar1d,
    laplacian,
    mesh_adjacency,
)

RT2 = np.sqrt(2.0)


def dense_basis(phi):
    """The m x m basis `phi` applies, read off its synthesis of the identity."""
    return phi.inverse(np.eye(phi.size))


def kron_oracle(phi):
    """A 2D transform's basis as the Kronecker product of its two factors."""
    return np.kron(phi.matrix, phi.inner)


def ortho_dev(phi):
    m = dense_basis(phi)
    eye = np.eye(m.shape[0])
    return max(np.abs(m.T @ m - eye).max(), np.abs(m @ m.T - eye).max())


def test_dct1d_degenerate():
    assert np.array_equal(dct1d(1).matrix, [[1.0]])


def test_dct1d_hand_m2():
    mat = dct1d(2).matrix
    assert np.allclose(mat[:, 0], [1 / RT2, 1 / RT2])
    assert np.allclose(mat[:, 1], [1 / RT2, -1 / RT2])


def test_dct1d_orthonormal():
    assert ortho_dev(dct1d(8)) < 1e-12


def test_haar_hand_m2():
    analysis = haar1d(2, 1).matrix.T
    assert np.allclose(analysis[0], [1 / RT2, 1 / RT2])
    assert np.allclose(analysis[1], [1 / RT2, -1 / RT2])


def test_haar_constant_concentrates():
    phi = haar1d(8, 3)
    c = 2.5
    coeffs = phi.forward(np.full((8, 1), c))
    assert abs(coeffs[0, 0] - c * np.sqrt(8)) < 1e-10
    assert np.abs(coeffs[1:]).max() < 1e-10


def test_dct_constant_concentrates():
    phi = dct1d(8)
    coeffs = phi.forward(np.full((8, 1), 1.75))
    assert np.abs(coeffs[1:]).max() < 1e-10


def test_haar_orthonormal():
    assert ortho_dev(haar1d(8, 3)) < 1e-12


def dense_haar(m, levels):
    """`haar1d`'s analysis matrix as the product of `levels` dense butterflies."""
    r = 1.0 / np.sqrt(2.0)
    analysis = np.eye(m)
    size = m
    for _ in range(levels):
        half = size // 2
        step = np.eye(m)
        step[:size, :size] = 0.0
        for i in range(half):
            step[i, 2 * i] = step[i, 2 * i + 1] = step[half + i, 2 * i] = r
            step[half + i, 2 * i + 1] = -r
        analysis = step @ analysis
        size //= 2
    return analysis


HAAR_CASES = [(m, levels) for m in (2, 4, 6, 8, 12, 16, 24, 40, 64, 96, 512)
              for levels in range(1, 10) if m % (1 << levels) == 0]


@pytest.mark.parametrize("m, levels", HAAR_CASES)
def test_haar_rows_match_the_dense_butterfly_product(m, levels):
    assert np.array_equal(haar1d(m, levels).matrix.T, dense_haar(m, levels))


def test_haar_bad_levels():
    with pytest.raises(BadLevelsError, match="not divisible"):
        haar1d(6, 2)
    for levels in (0, -1):
        with pytest.raises(BadLevelsError, match=f"levels={levels} is below 1"):
            haar1d(8, levels)
    # 2^levels past m is refused before the integer 1 << levels is formed
    for levels in (4, 2**30):
        with pytest.raises(BadLevelsError, match="not divisible"):
            haar1d(8, levels)


def test_dct2d_degenerate():
    assert np.array_equal(dense_basis(dct2d(1, 1)), [[1.0]])


def test_dct2d_constant_image_dc_only():
    phi = dct2d(2, 2)
    coeffs = phi.forward(np.full((4, 1), 9.0))
    assert abs(coeffs[0, 0] - 18.0) < 1e-12
    assert np.abs(coeffs[1:]).max() < 1e-12


def test_dct2d_kronecker_identity_oracle():
    # vec of the outer product a b^T transforms to the per-axis transforms
    rng = np.random.default_rng(0)
    w = h = 4
    a = rng.normal(size=h)  # along image rows
    b = rng.normal(size=w)  # along image columns
    image = np.outer(a, b)
    vec = image.flatten(order="F")
    phi = dct2d(w, h)
    got = phi.forward(vec[:, None])[:, 0]
    expected = np.kron(dct1d(w).matrix.T @ b, dct1d(h).matrix.T @ a)
    assert np.abs(got - expected).max() < 1e-12


def test_dct2d_vectorization_convention():
    # a horizontal ramp (constant in each column of the image) keeps its
    # energy in the first row of the reshaped coefficient grid
    w, h = 8, 4
    image = np.tile(np.arange(w, dtype=float), (h, 1))
    phi = dct2d(w, h)
    coeffs = phi.forward(image.flatten(order="F")[:, None])[:, 0]
    grid = coeffs.reshape(h, w, order="F")
    off = grid[1:, :]
    assert np.abs(off).max() < 1e-10
    assert np.abs(grid[0, 1:]).max() > 1.0


SEPARABLE_CASES = [("dct", 16, 16), ("dct", 8, 4), ("dct", 4, 8), ("dct", 1, 12),
                   ("dct", 12, 1), ("dwt", 16, 16), ("dwt", 16, 8), ("dwt", 8, 32)]


def separable(kind, w, h):
    return dct2d(w, h) if kind == "dct" else dwt2d(w, h, 2)


@pytest.mark.parametrize("kind, w, h", SEPARABLE_CASES,
                         ids=[f"{kind}-{w}x{h}" for kind, w, h in SEPARABLE_CASES])
def test_separable_apply_matches_the_kron_oracle(kind, w, h):
    # square, w != h, 1 x n and n x 1 images; a 2D basis is never formed
    phi = separable(kind, w, h)
    assert phi.size == w * h
    basis = kron_oracle(phi)
    x = np.random.default_rng(w * 100 + h).normal(size=(w * h, 5))
    for got, want in ((phi.forward(x), basis.T @ x), (phi.inverse(x), basis @ x)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_separable_basis_is_orthonormal():
    for kind, w, h in SEPARABLE_CASES:
        assert ortho_dev(separable(kind, w, h)) < 1e-12


def test_dwt2d_orthonormal_and_levels():
    assert ortho_dev(dwt2d(8, 8, 3)) < 1e-10
    with pytest.raises(BadLevelsError):
        dwt2d(8, 6, 3)


def test_dwt2d_checks_both_sides_before_building_either(monkeypatch):
    # a 1024-point Haar factor is 8 MiB; h = 1 cannot take 3 levels
    built = []

    def spy(m, levels):
        built.append(m)
        return haar1d(m, levels)

    monkeypatch.setattr(slrma.transforms, "haar1d", spy)
    for w, h in ((1024, 1), (1, 1024)):
        with pytest.raises(BadLevelsError, match="m=1 not divisible"):
            dwt2d(w, h, 3)
    assert built == []
    dwt2d.__wrapped__(8, 16, 2)
    assert built == [8, 16]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_parseval_all_kinds(seed):
    rng = np.random.default_rng(seed)
    transforms = [
        dct1d(16),
        haar1d(16, 2),
        dct2d(4, 4),
        dwt2d(4, 4, 2),
        graph_transform(GraphSpec(5, ((0, 1), (1, 2), (2, 3), (3, 4)))),
    ]
    for phi in transforms:
        x = rng.normal(size=(phi.size, 1))
        assert abs(np.linalg.norm(phi.forward(x)) - np.linalg.norm(x)) < 1e-10


def test_graph_transform_hand_path2():
    g = GraphSpec(2, ((0, 1),))
    lap = laplacian(g)
    assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])
    phi = graph_transform(g)
    assert np.allclose(phi.matrix[:, 0], [1 / RT2, 1 / RT2])
    assert np.allclose(np.abs(phi.matrix[:, 1]), [1 / RT2, 1 / RT2])
    eigs = np.diag(phi.matrix.T @ lap @ phi.matrix)
    assert np.allclose(eigs, [0.0, 2.0], atol=1e-12)


def test_graph_transform_cycle4_spectrum():
    g = GraphSpec(4, ((0, 1), (0, 3), (1, 2), (2, 3)))
    phi = graph_transform(g)
    eigs = np.sort(np.diag(phi.matrix.T @ laplacian(g) @ phi.matrix))
    assert np.allclose(eigs, [0.0, 2.0, 2.0, 4.0], atol=1e-10)


def test_laplacian_annihilates_constants():
    g = GraphSpec(6, ((0, 1), (0, 3), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)))
    assert np.abs(laplacian(g) @ np.ones(6)).max() < 1e-12


def test_graph_transform_disconnected():
    # two components; then a vertex no edge touches, answered from the edges
    for g in (GraphSpec(4, ((0, 1), (2, 3))), GraphSpec(5, ((0, 1), (1, 2), (2, 3)))):
        assert not g.is_connected()
        with pytest.raises(DisconnectedError):
            graph_transform(g)


def test_graph_transform_eigenvalues_sorted_nonnegative():
    g = GraphSpec(5, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4)))
    phi = graph_transform(g)
    eigs = np.diag(phi.matrix.T @ laplacian(g) @ phi.matrix)
    assert (np.diff(eigs) > -1e-10).all()
    assert eigs.min() > -1e-10
    assert int(np.sum(eigs < 1e-9)) == 1


def test_mesh_adjacency_single_triangle():
    g = mesh_adjacency([(0, 1, 2)], 3)
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_mesh_adjacency_shared_edge():
    g = mesh_adjacency([(0, 1, 2), (1, 2, 3)], 4)
    assert len(g.edges) == 5


def test_mesh_adjacency_tetrahedron():
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    g = mesh_adjacency(faces, 4)
    assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_mesh_adjacency_bad_index():
    with pytest.raises(IndexError):
        mesh_adjacency([(0, 1, 7)], 4)


def loop_mesh_adjacency(faces, vertex_count):
    """`mesh_adjacency` as a loop over faces: the reference for the array form."""
    edges = set()
    for face in faces:
        if len(face) != 3:
            raise ValueError(f"face {face!r} is not a triangle")
        a, b, c = (int(v) for v in face)
        for u, v in ((a, b), (a, c), (b, c)):
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise IndexError(f"vertex {max(u, v)} outside [0, {vertex_count})")
            if u == v:
                raise ValueError(f"degenerate face {face!r}")
            edges.add((min(u, v), max(u, v)))
    return GraphSpec(vertex_count, tuple(sorted(edges)))


def outcome(build, faces, vertex_count):
    try:
        return build(faces, vertex_count)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


@st.composite
def face_lists(draw):
    """Face lists over [0, m), mostly valid; some faces out of range,
    degenerate, not triangles or float-valued; as tuples or an int array."""
    m = draw(st.integers(1, 12))
    vertex = st.integers(0, m - 1)
    stray = st.integers(-3, m + 3)
    face = st.tuples(vertex, vertex, vertex).filter(lambda f: len(set(f)) == 3)
    faces = draw(st.lists(face | st.tuples(stray, stray, stray) if m >= 3 else
                          st.tuples(stray, stray, stray), max_size=12))
    if faces and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(faces) - 1))
        faces[i] = draw(st.sampled_from([faces[i][:2], faces[i] + (0,),
                                         tuple(float(v) for v in faces[i])]))
    elif faces and draw(st.booleans()):
        faces = np.array(faces, dtype=draw(st.sampled_from([np.int64, np.int32])))
    return faces, m


@given(face_lists())
@settings(max_examples=400, deadline=None)
def test_mesh_adjacency_matches_the_face_loop(case):
    faces, m = case
    want = outcome(loop_mesh_adjacency, faces, m)
    got = outcome(mesh_adjacency, faces, m)
    assert got == want
    if isinstance(got, GraphSpec):
        assert all(type(v) is int for edge in got.edges for v in edge)


@pytest.mark.parametrize("faces, m", [
    ([(0, 1, 2), (2, 2, 9)], 4),     # a repeated vertex is found before the stray one
    ([(0, 1, 2), (-1, 3, 3)], 4),    # the pair (a, b) names its larger end
    (np.array([(0, 1, 2), (1, 3, 1)]), 4),
    ([(0, 1, 2), (0, 1)], 3),
    ([], 3),
])
def test_mesh_adjacency_first_offending_face(faces, m):
    assert outcome(mesh_adjacency, faces, m) == outcome(loop_mesh_adjacency, faces, m)


def path_graph(m):
    return GraphSpec(m, tuple((i, i + 1) for i in range(m - 1)))


# each cached builder with the arguments of its i-th distinct shape
CACHED_BUILDERS = {
    "dct1d": (dct1d, lambda i: (i + 1,)),
    "dct2d": (dct2d, lambda i: (i + 1, 2)),
    "dwt2d": (dwt2d, lambda i: (2 * (i + 1), 2, 1)),
    "graph_transform": (graph_transform, lambda i: (path_graph(i + 2),)),
}


@pytest.mark.parametrize("name", CACHED_BUILDERS)
def test_cached_basis_is_a_read_only_fresh_build(name):
    builder, args_of = CACHED_BUILDERS[name]
    args = args_of(5)
    phi = builder(*args)
    assert builder(*args) is phi
    fresh = builder.__wrapped__(*args)
    assert (phi.kind, phi.params) == (fresh.kind, fresh.params)
    for factor, fresh_factor in ((phi.matrix, fresh.matrix), (phi.inner, fresh.inner)):
        if factor is None:  # a 1D or graph basis has one matrix
            assert fresh_factor is None
            continue
        assert factor.tobytes() == fresh_factor.tobytes()
        with pytest.raises(ValueError):
            factor[0, 0] = 0.0


@pytest.mark.parametrize("name", CACHED_BUILDERS)
def test_basis_cache_is_bounded(name):
    builder, args_of = CACHED_BUILDERS[name]
    for i in range(BASES_KEPT + 3):
        builder(*args_of(i))
    info = builder.cache_info()
    assert info.maxsize == BASES_KEPT
    assert info.currsize == BASES_KEPT


def test_basis_cache_keys_on_argument_types():
    # params reach container headers, so they keep the caller's own types
    assert dct2d(3.0, 3.0).params == (3.0, 3.0)
    assert type(dct2d(3, 3).params[0]) is int
