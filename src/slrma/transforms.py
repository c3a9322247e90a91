"""Orthonormal analysis bases: DCT, multi-level Haar, and graph transforms.

Conventions pinned here and relied on by the codec:

- 2D transforms use column-major image vectorization: pixel (r, c) of an
  h-row by w-column image sits at vector index c*h + r, and the 2D matrix
  is kron(basis_w, basis_h).
- Haar output ordering is coarsest scaling band first, then detail bands
  coarse to fine.
- Graph transform columns are Laplacian eigenvectors by ascending
  eigenvalue, signs fixed as in ``numerics``.

The builders the codec calls (`dct1d`, `dct2d`, `dwt2d`, `graph_transform`)
each keep their last `BASES_KEPT` bases in a `functools.lru_cache`, so
repeated compress and decompress calls on one shape build each basis once.
A cached basis is shared by every caller, so its matrix is read-only; the
uncached build stays reachable as the builder's `__wrapped__`.

Sizes can come from a container header, so each is bounded before it is
allocated for: `dct2d`/`dwt2d` by KRON_ELEMENT_BUDGET, `haar1d`'s levels by
m's bit length, and `GraphSpec.is_connected` by the vertices edges touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BadLevelsError, DisconnectedError, SizeOverflowError
from .numerics import KRON_ELEMENT_BUDGET, kronecker, sym_eig

KIND_IDENTITY = "identity"
KIND_DCT1D = "dct1d"
KIND_DWT1D = "dwt1d"
KIND_DCT2D = "dct2d"
KIND_DWT2D = "dwt2d"
KIND_GRAPH = "graph"

# Bases each cached builder keeps. A dense 2D basis of a w x h image holds
# 8*(w*h)**2 bytes (128 MB at 64 x 64), and the cache holds it until it is
# evicted or `cache_clear()` is called. The caches are typed: a basis's
# params go into container headers, so one built from 16.0 must not answer
# a call with 16.
BASES_KEPT = 4


def _read_only(mat):
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True)
class OrthogonalTransform:
    """An m x m orthonormal matrix plus the recipe that built it."""

    matrix: np.ndarray
    kind: str
    params: tuple[int, ...] = ()

    @property
    def size(self):
        return self.matrix.shape[0]

    def forward(self, x):
        """Analysis: coefficients of the columns of x."""
        return self.matrix.T @ x

    def inverse(self, coeffs):
        """Synthesis: reconstruct columns from coefficients."""
        return self.matrix @ coeffs


@dataclass(frozen=True)
class GraphSpec:
    """Undirected unweighted graph given by canonical (lo, hi) edges."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def is_connected(self):
        """Whether a walk from vertex 0 reaches every vertex; "no", sizing
        nothing by `vertex_count`, when the edges touch fewer vertices."""
        m = self.vertex_count
        if m == 0:
            return False
        if m == 1:
            return True
        if len({v for edge in self.edges for v in edge}) < m:
            return False
        adj = [[] for _ in range(m)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = np.zeros(m, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        return bool(seen.all())


def graph_spec(vertex_count, edges):
    """Canonicalize an edge list: 0-based, no self-loops, deduplicated."""
    if vertex_count < 1:
        raise ValueError("vertex_count must be positive")
    canon = set()
    for a, b in edges:
        a, b = int(a), int(b)
        if not (0 <= a < vertex_count and 0 <= b < vertex_count):
            raise IndexError(f"edge ({a}, {b}) outside [0, {vertex_count})")
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        canon.add((min(a, b), max(a, b)))
    return GraphSpec(vertex_count, tuple(sorted(canon)))


@lru_cache(maxsize=BASES_KEPT, typed=True)
def dct1d(m):
    """Orthonormal DCT-II basis; column j is the frequency-j basis vector."""
    if m < 1:
        raise ValueError("m must be positive")
    i = np.arange(m)[:, None]
    j = np.arange(m)[None, :]
    mat = np.sqrt(2.0 / m) * np.cos(np.pi * (2 * i + 1) * j / (2 * m))
    mat[:, 0] = np.sqrt(1.0 / m)
    return OrthogonalTransform(_read_only(mat), KIND_DCT1D, (m,))


def _haar_butterfly(size):
    half = size // 2
    w = np.zeros((size, size))
    r = 1.0 / np.sqrt(2.0)
    for i in range(half):
        w[i, 2 * i] = r
        w[i, 2 * i + 1] = r
        w[half + i, 2 * i] = r
        w[half + i, 2 * i + 1] = -r
    return w


def haar1d(m, levels):
    """Multi-level orthonormal Haar basis, scaling band first."""
    if m < 1:
        raise ValueError("m must be positive")
    if levels < 1:
        raise BadLevelsError(f"levels={levels} is below 1")
    # 2^levels divides m >= 1 only if it is at most m; the guard keeps a
    # header's u32 `levels` from sizing the integer 1 << levels
    if levels >= int(m).bit_length() or m % (1 << levels) != 0:
        raise BadLevelsError(f"m={m} not divisible by 2^{levels}")
    analysis = np.eye(m)
    size = m
    for _ in range(levels):
        step = np.eye(m)
        step[:size, :size] = _haar_butterfly(size)
        analysis = step @ analysis
        size //= 2
    return OrthogonalTransform(analysis.T, KIND_DWT1D, (m, levels))


def _check_2d_size(w, h):
    """Refuse a w x h image basis whose (w*h)^2 elements exceed the Kronecker
    budget, before either 1D basis is built."""
    if (w * h) ** 2 > KRON_ELEMENT_BUDGET:
        raise SizeOverflowError(f"a {w} x {h} image basis would hold {(w * h) ** 2} "
                                f"elements (budget {KRON_ELEMENT_BUDGET})")


@lru_cache(maxsize=BASES_KEPT, typed=True)
def dct2d(w, h):
    """2D DCT for h x w images under column-major vectorization."""
    _check_2d_size(w, h)
    mat = kronecker(dct1d(w).matrix, dct1d(h).matrix)
    return OrthogonalTransform(_read_only(mat), KIND_DCT2D, (w, h))


@lru_cache(maxsize=BASES_KEPT, typed=True)
def dwt2d(w, h, levels):
    """Separable 2D Haar wavelet basis; both sides must support `levels`."""
    _check_2d_size(w, h)
    mat = kronecker(haar1d(w, levels).matrix, haar1d(h, levels).matrix)
    return OrthogonalTransform(_read_only(mat), KIND_DWT2D, (w, h, levels))


def laplacian(g: GraphSpec):
    """Combinatorial Laplacian L = F - E (degree minus adjacency)."""
    m = g.vertex_count
    lap = np.zeros((m, m))
    for a, b in g.edges:
        lap[a, b] -= 1.0
        lap[b, a] -= 1.0
        lap[a, a] += 1.0
        lap[b, b] += 1.0
    return lap


@lru_cache(maxsize=BASES_KEPT, typed=True)
def graph_transform(g: GraphSpec):
    """Eigenvector basis of the Laplacian, ascending eigenvalue order."""
    if not g.is_connected():
        raise DisconnectedError("graph transform requires a connected graph")
    # The BFS check is exact: a connected graph has one zero eigenvalue, and
    # its next one stays far above rounding at any size dense `eigh` takes.
    vectors = np.ascontiguousarray(sym_eig(laplacian(g)).vectors[:, ::-1])
    return OrthogonalTransform(_read_only(vectors), KIND_GRAPH, (g.vertex_count,))


def _check_face(face, vertex_count):
    """Raise as `mesh_adjacency` does for a face that is not a triangle on
    [0, vertex_count): its pairs (a, b), (a, c), (b, c) are checked in that
    order, each for range and then for a repeated vertex. Returns (a, b, c).
    """
    if len(face) != 3:
        raise ValueError(f"face {face!r} is not a triangle")
    a, b, c = (int(v) for v in face)
    for u, v in ((a, b), (a, c), (b, c)):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise IndexError(f"vertex {max(u, v)} outside [0, {vertex_count})")
        if u == v:
            raise ValueError(f"degenerate face {face!r}")
    return a, b, c


def mesh_adjacency(faces, vertex_count):
    """Graph of a triangle mesh: union of the edges of every face.

    Faces that numpy reads as an f x 3 integer array are checked and joined
    as arrays; the first offending face, in order, raises the error
    `_check_face` gives it. Any other face list is read face by face.
    """
    try:
        tri = np.asarray(faces)
    except ValueError:  # ragged
        tri = None
    if tri is None or tri.ndim != 2 or tri.shape[1] != 3 or tri.dtype.kind not in "iu":
        tri = np.array([_check_face(face, vertex_count) for face in faces],
                       dtype=np.int64).reshape(-1, 3)
    in_range = ((tri >= 0) & (tri < vertex_count)).all(axis=1)
    distinct = (tri[:, 0] != tri[:, 1]) & (tri[:, 0] != tri[:, 2]) & (tri[:, 1] != tri[:, 2])
    bad = ~(in_range & distinct)
    if bad.any():
        _check_face(faces[int(np.argmax(bad))], vertex_count)
    tri = tri.astype(np.int64, copy=False)
    ends = np.stack([tri[:, [0, 0, 1]], tri[:, [1, 2, 2]]])  # pairs (a,b), (a,c), (b,c)
    # each edge once, sorted: sort its keys lo*m + hi and drop repeats
    # (not `np.unique`, whose first call imports `numpy.ma`, ~1 MB)
    keys = np.sort(ends.min(axis=0) * vertex_count + ends.max(axis=0), axis=None)
    fresh = np.ones(keys.shape, dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    lo, hi = np.divmod(keys[fresh], vertex_count)
    return GraphSpec(vertex_count, tuple(zip(lo.tolist(), hi.tolist())))
