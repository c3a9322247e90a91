"""Dataset I/O (binary PGM image sets, ASCII OFF mesh sequences) and
deterministic synthetic corpora for tests and benchmarks.

Vectorization convention (shared with ``transforms``): pixel (r, c) of an
h-row by w-column image goes to vector index c*h + r, i.e. columns of the
data matrix are Fortran-order flattenings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConnectivityMismatchError, DimensionMismatchError, FormatError
from .transforms import mesh_adjacency


@dataclass
class ImageSet:
    w: int
    h: int
    x: np.ndarray  # wh x n, grayscale values in [0, 255]

    @property
    def n(self):
        return self.x.shape[1]


@dataclass
class MeshSequence:
    faces: tuple            # triangles, constant across frames
    xx: np.ndarray          # m x n
    xy: np.ndarray
    xz: np.ndarray

    @property
    def m(self):
        return self.xx.shape[0]

    @property
    def n(self):
        return self.xx.shape[1]

    def stacked(self):
        return np.vstack([self.xx, self.xy, self.xz])


# ---------------------------------------------------------------------------
# PGM (binary P5, maxval 255)

# Magic, then width, height and maxval: each a decimal number that ends at
# whitespace or at the end of the file, after whitespace or #-to-newline
# comments. One whitespace byte follows maxval, then the raster.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)*(\d+)(?=\s|\Z)" * 3)


def read_pgm(path):
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise FormatError(f"{path}: malformed PGM header")
    try:
        w, h, maxval = map(int, header.groups())
    except ValueError as exc:  # a number past Python's int digit limit
        raise FormatError(f"{path}: malformed PGM header ({exc})") from exc
    pos = header.end() + 1
    if not w or not h:
        raise FormatError(f"{path}: empty {w}x{h} image")
    if maxval != 255:
        raise FormatError(f"{path}: maxval {maxval} unsupported (need 255)")
    raster = data[pos : pos + w * h]
    if len(raster) != w * h:
        raise FormatError(f"{path}: raster truncated")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def write_pgm(path, image):
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("image must be 2-D")
    h, w = image.shape
    u8 = np.clip(np.floor(np.abs(image) + 0.5) * np.sign(image), 0, 255)
    u8 = u8.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(u8.tobytes())


def load_image_set(paths):
    """Stack PGM images, in the given order, as columns of one matrix."""
    if not paths:
        raise FormatError("no image files given")
    columns = []
    shape = None
    for path in paths:
        img = read_pgm(path)
        if shape is None:
            shape = img.shape
        elif img.shape != shape:
            raise DimensionMismatchError(
                f"{path}: size {img.shape[::-1]} differs from {shape[::-1]}"
            )
        columns.append(img.astype(np.float64).flatten(order="F"))
    h, w = shape
    return ImageSet(w=w, h=h, x=np.stack(columns, axis=1))


def save_image_set(image_set: ImageSet, directory, prefix="img"):
    """Write one PGM per column; returns the file paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for j in range(image_set.n):
        img = image_set.x[:, j].reshape(image_set.h, image_set.w, order="F")
        path = directory / f"{prefix}_{j:04d}.pgm"
        write_pgm(path, img)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# OFF (ASCII, triangles only)

def read_off(path):
    """(vertices, faces) of an OFF file; text that is not UTF-8, a count or
    a coordinate that does not parse, and a face `mesh_adjacency` refuses
    all raise FormatError."""
    try:
        tokens = []
        for line in Path(path).read_text().splitlines():
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
        if not tokens or tokens[0] != "OFF":
            raise FormatError(f"{path}: missing OFF header")
        nv, nf = int(tokens[1]), int(tokens[2])
        if nv < 1 or nf < 0:
            raise FormatError(f"{path}: {nv} vertices and {nf} faces")
        pos = 4  # skip the edge count
        verts = np.array(tokens[pos : pos + 3 * nv], dtype=np.float64)
        verts = verts.reshape(nv, 3)
        pos += 3 * nv
        faces = []
        for _ in range(nf):
            cnt = int(tokens[pos])
            if cnt != 3:
                raise FormatError(f"{path}: non-triangle face of size {cnt}")
            faces.append(tuple(int(t) for t in tokens[pos + 1 : pos + 4]))
            pos += 4
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: malformed OFF data ({exc})") from exc
    try:
        mesh_adjacency(faces, nv)
    except FormatError as exc:
        raise FormatError(f"{path}: malformed OFF data ({exc})") from exc
    if not np.isfinite(verts).all():
        raise FormatError(f"{path}: a vertex coordinate is NaN or Inf")
    return verts, tuple(faces)


def write_off(path, vertices, faces):
    vertices = np.asarray(vertices, dtype=np.float64)
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    for v in vertices:
        lines.append("%.17g %.17g %.17g" % (v[0], v[1], v[2]))
    for f in faces:
        lines.append("3 %d %d %d" % (f[0], f[1], f[2]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_mesh_sequence(paths):
    """Read one OFF per frame; connectivity must be identical throughout."""
    if not paths:
        raise FormatError("no mesh files given")
    frames = []
    faces = None
    for path in paths:
        verts, f = read_off(path)
        if faces is None:
            faces = f
            m = len(verts)
        elif f != faces or len(verts) != m:
            raise ConnectivityMismatchError(
                f"{path}: vertex/face structure differs from the first frame"
            )
        frames.append(verts)
    coords = np.stack(frames, axis=2)  # m x 3 x n
    return MeshSequence(faces=faces, xx=coords[:, 0, :].copy(),
                        xy=coords[:, 1, :].copy(),
                        xz=coords[:, 2, :].copy())


def save_mesh_sequence(seq: MeshSequence, directory, prefix="frame"):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for j in range(seq.n):
        verts = np.stack([seq.xx[:, j], seq.xy[:, j], seq.xz[:, j]], axis=1)
        path = directory / f"{prefix}_{j:04d}.off"
        write_off(path, verts, seq.faces)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Synthetic corpora

_BUMP_ANCHORS = ((0.28, 0.30), (0.72, 0.30), (0.30, 0.72), (0.70, 0.70),
                 (0.50, 0.50), (0.50, 0.28), (0.28, 0.50), (0.72, 0.50))
_BUMP_WIDTHS = ((0.18, 0.13), (0.12, 0.18), (0.14, 0.14), (0.17, 0.12),
                (0.12, 0.17), (0.15, 0.15), (0.18, 0.12), (0.13, 0.13))


def synth_image_set(w, h, n, rank=4, noise_sigma=0.0, seed=0):
    """Low-rank image set: one broad luminance bump plus faint swing bumps.

    Each component is a separable Gaussian bump whose intensity drifts
    sinusoidally over the frames, so the clean stack has rank exactly
    ``rank``; white noise is added afterwards and the result clipped to
    [0, 255]. Deterministic for a fixed seed.
    """
    if not 1 <= rank <= min(w * h, n):
        raise ValueError("rank must lie in [1, min(w*h, n)]")
    rng = np.random.default_rng(seed)
    t = np.arange(n) / n

    def bump(cx, cy, sx, sy):
        gx = np.exp(-0.5 * ((np.arange(w) - cx) / sx) ** 2)
        gy = np.exp(-0.5 * ((np.arange(h) - cy) / sy) ** 2)
        return np.outer(gy, gx).flatten(order="F")

    cx = (0.5 + rng.uniform(-0.03, 0.03)) * (w - 1)
    cy = (0.5 + rng.uniform(-0.03, 0.03)) * (h - 1)
    base_pattern = bump(cx, cy, 0.55 * w, 0.25 * h)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    base_amp = 55.0 * (1.0 + 0.30 * np.sin(2.0 * np.pi * t + phase))
    base = np.outer(base_pattern, base_amp)

    swing = np.zeros_like(base)
    for r in range(1, rank):
        ax, ay = _BUMP_ANCHORS[(r - 1) % len(_BUMP_ANCHORS)]
        sx, sy = _BUMP_WIDTHS[(r - 1) % len(_BUMP_WIDTHS)]
        cx = (ax + rng.uniform(-0.02, 0.02)) * (w - 1)
        cy = (ay + rng.uniform(-0.02, 0.02)) * (h - 1)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        freq = 1 + (r - 1) % 4
        amp = 8.5 * 0.55 ** (r - 1) * np.sin(2.0 * np.pi * freq * t + phase)
        swing += np.outer(bump(cx, cy, sx * w, sy * h), amp)

    clean = base + swing
    if rank > 1:
        lo = clean.min()
        if lo < 2.0:
            # shrink the swing components only; the rank is unchanged
            swing *= (base.min() - 2.0) / max(base.min() - lo, 1e-12)
            clean = base + swing
        hi = clean.max()
        if hi > 249.0:
            swing *= (249.0 - base.max()) / max(hi - base.max(), 1e-12)
            clean = base + swing
    x = clean + rng.normal(0.0, noise_sigma, clean.shape)
    return ImageSet(w=w, h=h, x=np.clip(x, 0.0, 255.0))


def grid_strip_faces(m):
    """Triangulated near-square grid when m factors, else a zigzag strip."""
    g = int(np.sqrt(m))
    while m % g:
        g -= 1
    rows, cols = g, m // g
    faces = []
    if rows >= 2:
        for r in range(rows - 1):
            for c in range(cols - 1):
                v = r * cols + c
                faces.append((v, v + 1, v + cols))
                faces.append((v + 1, v + cols + 1, v + cols))
    else:
        for i in range(m - 2):
            faces.append((i, i + 1, i + 2))
    return rows, cols, tuple(faces)


def synth_mesh_seq(m, n, amplitude=100.0, seed=0):
    """Grid-strip mesh whose vertices ride low-frequency sinusoidal waves.

    Spatial wave profiles are taken from the low end of the mesh graph's
    own harmonic basis (Laplacian eigenvectors), so the motion is smooth
    over the surface; time profiles are sinusoids. A few faint mid-band
    waves give the sequence a realistic residual floor. Deterministic for
    a fixed seed.
    """
    from .transforms import graph_transform, mesh_adjacency

    if m < 4 or n < 1:  # the static shape reads harmonics 1 to 3
        raise ValueError("need at least 4 vertices and 1 frame")
    rng = np.random.default_rng(seed)
    rows, cols, faces = grid_strip_faces(m)
    harmonics = graph_transform(mesh_adjacency(faces, m)).matrix
    shape_scale = 3.0 * amplitude
    offsets = amplitude * np.array([0.40, 0.34, 0.28])

    # Static shape: the two smoothest nonconstant harmonics act as
    # ramp-like x/y axes, z is a dome; the whole mesh drifts slowly
    # through space so the center-of-mass track is a mode of its own.
    base = np.stack([
        shape_scale * harmonics[:, 1],
        shape_scale * harmonics[:, 2],
        0.5 * shape_scale * harmonics[:, 3],
    ])
    main = amplitude * np.array([0.5, 0.4, 0.3, 0.22])
    t = np.arange(n) / n
    coords = np.zeros((3, m, n))
    for d in range(3):
        drift = offsets[d] * (1.0 + 0.9 * np.sin(2.0 * np.pi * 5 * t + rng.uniform(0, 2 * np.pi)))
        coords[d] = base[d][:, None] + drift[None, :]
        low = min(6, m)
        for idx, amp in enumerate(main):
            # Deterministic harmonic pairs: one smooth pick plus one from
            # the next band, distinct across waves, so the per-axis waves
            # stay independent and individually sparse in the basis. A
            # faint spread over all the smooth harmonics keeps every wave
            # coupled to every low mode.
            pick_a = 1 + (idx + d) % min(5, m - 1)
            pick_b = min(6 + (idx + 2 * d) % 4, m - 1)
            f = 1 + (idx + d) % 4
            weights = rng.uniform(0.5, 1.0, size=2)
            spatial = harmonics[:, [pick_a, pick_b]] @ weights
            spread = rng.uniform(0.1, 0.2, size=low - 1) * rng.choice([-1, 1], size=low - 1)
            spatial += harmonics[:, 1:low] @ spread
            spatial *= np.sqrt(m) / np.linalg.norm(spatial)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            coords[d] += amp * np.outer(spatial, np.sin(2.0 * np.pi * f * t + phase))
        if m > 12:
            # Faint wide-band texture: a geometric ladder over the mid and
            # high harmonics, so residual detail spans every magnitude.
            for w in range(2):
                # steep head carries the texture energy; the faint tail
                # spreads across every remaining harmonic at low magnitude
                head = min(10, (m - 10) // 2)
                ladder = amplitude * np.concatenate([
                    np.geomspace(0.25, 0.08, head),
                    np.geomspace(3e-4, 5e-5, m - 10 - head),
                ])
                signs = rng.choice([-1.0, 1.0], size=m - 10)
                spatial = harmonics[:, 10:] @ (ladder * signs)
                f = 2 + (w + d) % 3
                phase = rng.uniform(0.0, 2.0 * np.pi)
                coords[d] += np.outer(spatial, np.sin(2.0 * np.pi * f * t + phase))
    return MeshSequence(faces=faces, xx=coords[0], xy=coords[1], xz=coords[2])
