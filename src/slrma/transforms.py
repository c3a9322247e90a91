"""Orthonormal analysis bases: DCT, multi-level Haar, and graph transforms.

Conventions pinned here and relied on by the codec:

- 2D transforms use column-major image vectorization: pixel (r, c) of an
  h-row by w-column image sits at vector index c*h + r, and the 2D basis
  is kron(basis_w, basis_h), kept as its two factors and applied one image
  axis at a time; its (w*h)^2 matrix is never formed.
- Haar output ordering is coarsest scaling band first, then detail bands
  coarse to fine.
- Graph transform columns are Laplacian eigenvectors by ascending
  eigenvalue, signs fixed as in ``numerics``.

Only per-mesh state is cached, and a mesh's graph is sized by the caller's
own faces: `graph_transform` keeps the eigenbases of its last `BASES_KEPT`
graphs in a `functools.lru_cache`, so a mesh's O(m^3) eigenbasis is built
once across compress, decompress and sweep calls; a cached basis is shared,
so its array is read-only. The DCT and Haar builders cache nothing (their
bases cost microseconds at the codec's sizes), so nothing a container
header sizes outlives the call that built it.

Sizes can come from a container header, so each is bounded before it is
allocated for: an image's w and h and a mesh's frame count by the codec
(`MAX_CELLS`), `haar1d`'s levels by m's bit length (`dwt2d` checks both
sides before it builds either), and `GraphSpec.is_connected` by the
vertices edges touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BadLevelsError, DisconnectedError
from .numerics import sym_eig

KIND_IDENTITY = "identity"
KIND_DCT1D = "dct1d"
KIND_DWT1D = "dwt1d"
KIND_DCT2D = "dct2d"
KIND_DWT2D = "dwt2d"
KIND_GRAPH = "graph"

# Meshes whose state each per-mesh cache (`graph_transform` here and
# `codec._connectivity`) keeps. An m-vertex graph basis holds 8*m**2 bytes
# until four newer graphs evict it or `cache_clear()` is called.
BASES_KEPT = 4


@dataclass(frozen=True)
class OrthogonalTransform:
    """An orthonormal basis plus the recipe that built it: the m x m `matrix`
    of a 1D or graph transform, or kron(matrix, inner) of a 2D one, whose
    w x w `matrix` acts along an image's columns and h x h `inner` along its
    rows."""

    matrix: np.ndarray
    kind: str
    params: tuple[int, ...] = ()
    inner: np.ndarray = None

    @property
    def size(self):
        m = self.matrix.shape[0]
        return m if self.inner is None else m * self.inner.shape[0]

    def forward(self, x):
        """Analysis: coefficients of the columns of x."""
        if self.inner is None:
            return self.matrix.T @ x
        return _separable(self.matrix.T, self.inner.T, x)

    def inverse(self, coeffs):
        """Synthesis: reconstruct columns from coefficients."""
        if self.inner is None:
            return self.matrix @ coeffs
        return _separable(self.matrix, self.inner, coeffs)


def _separable(outer, inner, x):
    """kron(outer, inner) @ x for a (w*h) x n x: `outer` on x as a w x (h*n)
    matrix, then `inner` on each of the w resulting h x n blocks."""
    w, h, n = outer.shape[0], inner.shape[0], x.shape[1]
    y = (outer @ x.reshape(w, h * n)).reshape(w, h, n)
    return (inner @ y).reshape(w * h, n)


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


def dct1d(m):
    """Orthonormal DCT-II basis; column j is the frequency-j basis vector."""
    if m < 1:
        raise ValueError("m must be positive")
    # in place: a header may size m, and the build then holds one m x m array
    mat = np.pi * (2 * np.arange(m)[:, None] + 1) * np.arange(m)
    mat /= 2 * m
    np.cos(mat, out=mat)
    mat *= np.sqrt(2.0 / m)
    mat[:, 0] = np.sqrt(1.0 / m)
    return OrthogonalTransform(mat, KIND_DCT1D, (m,))


def _check_haar(m, levels):
    """Raise unless an m-point Haar basis can take `levels` levels."""
    if m < 1:
        raise ValueError("m must be positive")
    if levels < 1:
        raise BadLevelsError(f"levels={levels} is below 1")
    # 2^levels divides m >= 1 only if it is at most m; the guard keeps a
    # header's u32 `levels` from sizing the integer 1 << levels
    if levels >= int(m).bit_length() or m % (1 << levels) != 0:
        raise BadLevelsError(f"m={m} not divisible by 2^{levels}")


def haar1d(m, levels):
    """Multi-level orthonormal Haar basis, scaling band first."""
    _check_haar(m, levels)
    # Each level turns the first `size` rows into the scaled sums, then
    # differences, of their even and odd rows, bit for bit the dense butterfly
    # product: the two rows of a pair share no nonzero column.
    analysis = np.eye(m)
    r = 1.0 / np.sqrt(2.0)
    size = m
    for _ in range(levels):
        half = size // 2
        even, odd = analysis[0:size:2].copy(), analysis[1:size:2].copy()
        np.add(even, odd, out=analysis[:half])
        np.subtract(even, odd, out=analysis[half:size])
        analysis[:size] *= r
        size = half
        del even, odd  # before the next level's copies, so the build peaks at 2 m^2
    return OrthogonalTransform(analysis.T, KIND_DWT1D, (m, levels))


def dct2d(w, h):
    """2D DCT for h x w images under column-major vectorization."""
    return OrthogonalTransform(dct1d(w).matrix, KIND_DCT2D, (w, h), dct1d(h).matrix)


def dwt2d(w, h, levels):
    """Separable 2D Haar wavelet; both sides must support `levels`, and both
    are checked before either factor is built."""
    _check_haar(w, levels)
    _check_haar(h, levels)
    return OrthogonalTransform(haar1d(w, levels).matrix, KIND_DWT2D, (w, h, levels),
                               haar1d(h, levels).matrix)


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
    vectors.flags.writeable = False  # cached, so shared by every caller
    return OrthogonalTransform(vectors, KIND_GRAPH, (g.vertex_count,))


def mesh_adjacency(faces, vertex_count):
    """Graph of a triangle mesh: union of the edges of every face.

    Faces are read in order, and the first that is not a triangle on
    [0, vertex_count) raises, naming the face: one without three ids, or
    with an id that is not integer-valued, raises ValueError; then its pairs
    (a, b), (a, c), (b, c) are checked in that order, each for range
    (IndexError, naming the vertex outside it) and then for a repeated
    vertex (ValueError).
    """
    edges = set()
    for face in faces:
        if len(face) != 3:
            raise ValueError(f"face {face!r} is not a triangle")
        try:
            a, b, c = ids = [int(v) for v in face]
        except (ValueError, OverflowError):  # NaN or an infinity
            ids = None
        if ids != list(face):
            raise ValueError(f"face {face!r} has a vertex id that is not an integer")
        for u, v in ((a, b), (a, c), (b, c)):
            for w in (u, v):
                if not 0 <= w < vertex_count:
                    raise IndexError(f"vertex {w} of face {face!r} outside "
                                     f"[0, {vertex_count})")
            if u == v:
                raise ValueError(f"degenerate face {face!r}")
            edges.add((min(u, v), max(u, v)))
    return GraphSpec(vertex_count, tuple(sorted(edges)))
