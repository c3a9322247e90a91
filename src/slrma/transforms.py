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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BadLevelsError, DisconnectedError
from .numerics import kronecker, sym_eig

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

    def degree_sequence(self):
        deg = np.zeros(self.vertex_count, dtype=np.int64)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def is_connected(self):
        m = self.vertex_count
        if m == 0:
            return False
        if m == 1:
            return True
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


def identity(m):
    return OrthogonalTransform(np.eye(m), KIND_IDENTITY, (m,))


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
    if m % (1 << levels) != 0:
        raise BadLevelsError(f"m={m} not divisible by 2^{levels}")
    analysis = np.eye(m)
    size = m
    for _ in range(levels):
        step = np.eye(m)
        step[:size, :size] = _haar_butterfly(size)
        analysis = step @ analysis
        size //= 2
    return OrthogonalTransform(analysis.T, KIND_DWT1D, (m, levels))


@lru_cache(maxsize=BASES_KEPT, typed=True)
def dct2d(w, h):
    """2D DCT for h x w images under column-major vectorization."""
    mat = kronecker(dct1d(w).matrix, dct1d(h).matrix)
    return OrthogonalTransform(_read_only(mat), KIND_DCT2D, (w, h))


@lru_cache(maxsize=BASES_KEPT, typed=True)
def dwt2d(w, h, levels):
    """Separable 2D Haar wavelet basis; both sides must support `levels`."""
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


def mesh_adjacency(faces, vertex_count):
    """Graph of a triangle mesh: union of the edges of every face."""
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
