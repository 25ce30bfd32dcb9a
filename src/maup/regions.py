"""Binary-mask geometry: foreground partitioning, dilation, periphery.

The foreground of a support mask is split into spatially compact regions by
seeding points with farthest-point sampling and labelling every foreground
pixel with its nearest seed (a discrete Voronoi partition, held as one int
label map). Dilation and the periphery band use a discrete disk
structuring element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyMaskError, SeedError
from .tensors import BitMask


@dataclass(frozen=True)
class StructuringElement:
    """Discrete disk of offsets (dy, dx) with dy^2 + dx^2 <= radius^2."""

    radius: int

    def __post_init__(self):
        if self.radius < 1:
            raise ConfigError(f"radius must be >= 1, got {self.radius}")

    @classmethod
    def disk(cls, radius: int) -> "StructuringElement":
        return cls(radius=radius)


def farthest_point_seeds(fg: BitMask, n: int, seed) -> np.ndarray:
    """Pick up to ``n`` well-spread foreground pixels.

    The first pixel is drawn uniformly at random (seeded); each later pixel
    maximizes its Euclidean distance to the already chosen set, breaking ties
    toward the smallest (row, col). Returns min(n, foreground size) points as
    an n x 2 int64 (row, col) array, in the order they were chosen.
    """
    if n < 1:
        raise ConfigError(f"need n >= 1, got {n}")
    coords = np.argwhere(fg.bits == 1)
    if len(coords) == 0:
        raise EmptyMaskError("cannot place seeds on an empty foreground")
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(len(coords)))]
    rows, cols = coords.T.copy()  # contiguous int64 axes
    # min squared distance from every fg pixel to the chosen set; exact in int64
    d2 = np.full(len(coords), np.iinfo(np.int64).max)
    dr, dc = np.empty_like(d2), np.empty_like(d2)
    for _ in range(min(n, len(coords)) - 1):
        np.subtract(rows, rows[chosen[-1]], out=dr)
        np.subtract(cols, cols[chosen[-1]], out=dc)
        dr *= dr
        dc *= dc
        dr += dc
        np.minimum(d2, dr, out=d2)
        chosen.append(int(d2.argmax()))  # first max = smallest (row, col) among ties
    return coords[chosen]


def voronoi_partition(fg: BitMask, seeds) -> np.ndarray:
    """Label each foreground pixel with the index of its nearest seed (squared Euclidean).

    ``seeds`` is an n x 2 (row, col) integer array or a list of pairs. Returns
    an H x W int64 label map holding -1 off the foreground. Ties go to the
    seed with the lowest index. Every seed claims at least itself, so every
    label in [0, len(seeds)) occurs. The steps are :func:`seed_distances`
    and :func:`voronoi_labels`.
    """
    return voronoi_labels(fg, seed_distances(fg, seeds))


def seed_distances(fg: BitMask, seeds) -> np.ndarray:
    """n x N int64 squared distances from n distinct foreground seeds to the N foreground pixels.

    Pixels come in row-major order. Row i depends on seed i alone, so the
    first m rows are the distances of the first m seeds.
    """
    seed_arr = np.asarray(seeds, dtype=np.int64)
    pairs = seed_arr.tolist()
    if not pairs:
        raise SeedError("need at least one seed")
    if len(set(map(tuple, pairs))) != len(pairs):
        raise SeedError("seeds must be distinct")
    for r, c in pairs:
        if not (0 <= r < fg.height and 0 <= c < fg.width) or fg.bits[r, c] != 1:
            raise SeedError(f"seed ({r}, {c}) lies outside the foreground")
    rows, cols = np.nonzero(fg.bits)
    dr = rows - seed_arr[:, :1]
    dc = cols - seed_arr[:, 1:]
    dr *= dr
    dc *= dc
    dr += dc
    return dr


def voronoi_labels(fg: BitMask, d2: np.ndarray) -> np.ndarray:
    """The label map of :func:`voronoi_partition` from :func:`seed_distances`' rows."""
    labels = np.full(fg.bits.shape, -1, dtype=np.int64)
    labels[fg.bits == 1] = d2.argmin(axis=0)  # first min = lowest seed index
    return labels


def dilate(m: BitMask, se: StructuringElement) -> BitMask:
    """Morphological dilation: out(y,x) = 1 iff some offset hits a set pixel.

    Reads outside the frame count as 0, so the output never wraps. The rows
    ``dy`` of the disk come outermost first; row ``dy`` is the horizontal run
    ``|dx| <= isqrt(r^2 - dy^2)``, widened from the last row's run by two
    shifted ORs per step and ORed into the output shifted by ``dy``.
    """
    h, w = m.height, m.width
    # offsets that stay in the frame all lie within this radius, so a larger disk sets the same bits
    r = min(se.radius, math.isqrt((h - 1) ** 2 + (w - 1) ** 2) + 1)
    out = np.zeros_like(m.bits)
    band, half = m.bits.copy(), 0  # the run of half-width 0: dx = 0 alone
    for dy in sorted(range(-r, r + 1), key=abs, reverse=True):  # half-widths never shrink
        for half in range(half + 1, math.isqrt(r * r - dy * dy) + 1):
            band[:, half:] |= m.bits[:, :-half]
            band[:, :-half] |= m.bits[:, half:]
        y0, y1 = max(0, dy), h + min(0, dy)
        if y0 < y1:
            out[y0:y1] |= band[y0 - dy : y1 - dy]
    return BitMask(out)


def periphery_mask(support: BitMask, se: StructuringElement) -> BitMask:
    """Band of pixels added by dilation: dilate(support) minus support.

    May be empty when the support covers the whole frame; callers decide how
    to handle that (negative prompting is disabled downstream).
    """
    return BitMask(dilate(support, se).bits & (1 - support.bits))

