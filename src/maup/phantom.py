"""Synthetic episodes for desk-scale end-to-end checks.

A phantom scene has three kinds of tissue, each a cluster in channel space:
the organ, the tissue band immediately around it, and far background. The
cluster directions are orthonormal except that the band direction is tilted
toward the organ direction as ``contrast`` drops, which makes surrounding
tissue progressively harder to tell apart from the organ itself.

The query is a shifted and rescaled copy of the support scene with fresh
per-pixel feature noise. The ``two-lobe`` family additionally places a
decoy lobe made of band tissue next to the organ in both scenes; the decoy
shows up in the query intensity image but not in the ground truth, so flood
fill segmenters include it unless a negative prompt suppresses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .regions import StructuringElement, periphery_mask
from .tensors import BitMask, FeatureMap, ScalarMap

FAMILIES = ("disk", "ellipse", "two-lobe", "annulus")

_FEATURE_NORM = 2.0  # magnitude of every cluster mean vector
_BAND_RADIUS = 3  # width of the tissue band painted around the organ


@dataclass(frozen=True)
class PhantomSpec:
    """Parameters of one synthetic episode."""

    family: str
    size: int = 32
    channels: int = 16
    contrast: float = 1.0
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecError(f"unknown family {self.family!r}, pick one of {FAMILIES}")
        if self.size < 16:
            raise SpecError(f"size must be >= 16, got {self.size}")
        if self.channels < 3:
            raise SpecError(f"need >= 3 channels for the cluster basis, got {self.channels}")
        if not 0.0 < self.contrast <= 1.0:
            raise SpecError(f"contrast must be in (0, 1], got {self.contrast}")
        if not 0.0 <= self.noise < math.inf:
            raise SpecError(f"noise must be finite and >= 0, got {self.noise}")
        if self.seed < 0:
            raise SpecError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Phantom:
    """One generated episode: support pair, query pair, query intensity."""

    support_features: FeatureMap
    support_mask: BitMask
    query_features: FeatureMap
    query_gt: BitMask
    query_intensity: ScalarMap


def _disk_mask(size: int, cy: float, cx: float, ry: float, rx: float) -> np.ndarray:
    yy, xx = np.ogrid[:size, :size]
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def _scene_masks(spec: PhantomSpec, cy, cx, radius, lobe_dx):
    """Organ and decoy masks for one scene; decoy is empty except two-lobe."""
    size = spec.size
    if spec.family == "disk":
        organ = _disk_mask(size, cy, cx, radius, radius)
        decoy = np.zeros((size, size), dtype=bool)
    elif spec.family == "ellipse":
        organ = _disk_mask(size, cy, cx, 0.8 * radius, 1.25 * radius)
        decoy = np.zeros((size, size), dtype=bool)
    elif spec.family == "annulus":
        outer = _disk_mask(size, cy, cx, 1.15 * radius, 1.15 * radius)
        inner = _disk_mask(size, cy, cx, 0.5 * 1.15 * radius, 0.5 * 1.15 * radius)
        organ = outer & ~inner
        decoy = np.zeros((size, size), dtype=bool)
    else:  # two-lobe
        organ = _disk_mask(size, cy, cx - lobe_dx, radius, radius)
        decoy = _disk_mask(size, cy, cx + lobe_dx, radius, radius)
    return organ, decoy


def _paint_features(rng, spec, basis, organ, decoy, band) -> FeatureMap:
    mu_fg, mu_peri, mu_bg = basis
    canvas = np.empty((spec.channels, spec.size, spec.size), dtype=np.float64)
    canvas[:] = mu_bg[:, None, None]
    canvas[:, band] = mu_peri[:, None]
    canvas[:, decoy] = mu_peri[:, None]
    canvas[:, organ] = mu_fg[:, None]
    with np.errstate(over="ignore"):  # a huge noise overflows to inf, which FeatureMap rejects
        if spec.noise > 0.0:
            canvas = canvas + spec.noise * rng.standard_normal(canvas.shape)
        return FeatureMap(canvas.astype(np.float32))


def _orthonormal_triple(rng, channels: int) -> np.ndarray:
    """Three orthonormal directions via Gram-Schmidt (no LAPACK, so results
    are identical across BLAS builds and the golden files stay portable)."""
    raw = rng.standard_normal((channels, 3))
    q = np.empty_like(raw)
    for j in range(3):
        v = raw[:, j].copy()
        for i in range(j):
            v -= (q[:, i] @ v) * q[:, i]
        q[:, j] = v / np.sqrt(v @ v)
    return q


def generate_phantom(spec: PhantomSpec) -> Phantom:
    """Build one deterministic episode from a spec.

    The same spec (including seed) always yields bit-identical tensors.
    Raises SpecError if the organ ends up clipped to nothing.
    """
    rng = np.random.default_rng(spec.seed)
    size = spec.size

    # cluster basis: orthonormal triple with the band direction tilted toward
    # the organ direction by (1 - contrast)
    q = _orthonormal_triple(rng, spec.channels)
    theta = spec.contrast * math.pi / 2.0
    mu_fg = _FEATURE_NORM * q[:, 0]
    mu_peri = _FEATURE_NORM * (math.cos(theta) * q[:, 0] + math.sin(theta) * q[:, 1])
    mu_bg = _FEATURE_NORM * q[:, 2]
    basis = (mu_fg, mu_peri, mu_bg)

    # support geometry: jittered center and radius
    cy = size / 2.0 + rng.uniform(-size / 16.0, size / 16.0)
    cx = size / 2.0 + rng.uniform(-size / 16.0, size / 16.0)
    base = 0.16 * size if spec.family == "two-lobe" else 0.2 * size
    radius = base * rng.uniform(0.85, 1.15)
    lobe_dx = 0.21 * size

    # query transform: shift the scene and rescale it around its center
    shift_y, shift_x = (int(v) for v in rng.integers(-size // 10, size // 10 + 1, size=2))
    scale = rng.uniform(0.9, 1.1)

    s_organ, s_decoy = _scene_masks(spec, cy, cx, radius, lobe_dx)
    q_organ, q_decoy = _scene_masks(
        spec, cy + shift_y, cx + shift_x, radius * scale, lobe_dx * scale
    )
    if not s_organ.any() or not q_organ.any():
        raise SpecError("organ clipped to an empty mask; loosen the geometry")

    support_mask, query_gt = BitMask(s_organ.astype(np.uint8)), BitMask(q_organ.astype(np.uint8))
    se = StructuringElement.disk(_BAND_RADIUS)
    s_band = periphery_mask(support_mask, se).bits == 1
    q_band = periphery_mask(query_gt, se).bits == 1

    support_features = _paint_features(rng, spec, basis, s_organ, s_decoy, s_band)
    query_features = _paint_features(rng, spec, basis, q_organ, q_decoy, q_band)

    intensity = (q_organ | q_decoy).astype(np.float32)
    return Phantom(
        support_features=support_features,
        support_mask=support_mask,
        query_features=query_features,
        query_gt=query_gt,
        query_intensity=ScalarMap(intensity),
    )
