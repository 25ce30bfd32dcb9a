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
from functools import cached_property

import numpy as np

from .errors import SpecError
from .regions import StructuringElement, periphery_mask
from .tensors import BitMask, FeatureMap, ScalarMap

FAMILIES = ("disk", "ellipse", "two-lobe", "annulus")

_FEATURE_NORM = 2.0  # magnitude of every cluster mean vector
_BAND_RADIUS = 3  # width of the tissue band painted around the organ
_PAINT_BLOCK = 1 << 16  # float64 values per block of painted channels


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
        if self.channels * self.size**2 > np.iinfo(np.intp).max:
            raise SpecError(f"channels x size^2 exceeds numpy's index limit: {self.channels} x {self.size}^2")
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
    decoy = np.zeros((size, size), dtype=bool)
    if spec.family == "disk":
        organ = _disk_mask(size, cy, cx, radius, radius)
    elif spec.family == "ellipse":
        organ = _disk_mask(size, cy, cx, 0.8 * radius, 1.25 * radius)
    elif spec.family == "annulus":
        outer = _disk_mask(size, cy, cx, 1.15 * radius, 1.15 * radius)
        inner = _disk_mask(size, cy, cx, 0.5 * 1.15 * radius, 0.5 * 1.15 * radius)
        organ = outer & ~inner
    else:  # two-lobe
        organ = _disk_mask(size, cy, cx - lobe_dx, radius, radius)
        decoy = _disk_mask(size, cy, cx + lobe_dx, radius, radius)
    return organ, decoy


def _scene(spec, basis, noise, cy, cx, radius, lobe_dx) -> tuple[FeatureMap, BitMask, np.ndarray]:
    """One scene's float32 features, organ mask and decoy.

    A feature is its tissue's basis vector plus the scaled noise, in float64,
    painted a block of channels at a time, so no float64 copy of the whole
    scene is made beside the noise fields.
    """
    organ, decoy = _scene_masks(spec, cy, cx, radius, lobe_dx)
    if not organ.any():
        raise SpecError("organ clipped to an empty mask; loosen the geometry")
    mask = BitMask(organ.astype(np.uint8))
    band = periphery_mask(mask, StructuringElement.disk(_BAND_RADIUS)).bits == 1
    mu_fg, mu_peri, mu_bg = basis
    peri = band | decoy  # the decoy is band tissue
    out = np.empty((spec.channels, spec.size, spec.size), dtype=np.float32)
    step = max(1, _PAINT_BLOCK // organ.size)
    with np.errstate(over="ignore"):  # a huge noise overflows to inf, which FeatureMap rejects
        for c in range(0, spec.channels, step):
            block = slice(c, c + step)
            canvas = np.empty(out[block].shape, dtype=np.float64)
            canvas[:] = mu_bg[block, None, None]
            canvas[:, peri] = mu_peri[block, None]
            canvas[:, organ] = mu_fg[block, None]
            if spec.noise > 0.0:
                canvas += spec.noise * noise[block]
            out[block] = canvas
    return FeatureMap(out), mask, decoy


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


@dataclass(frozen=True, eq=False)
class PhantomDraws:
    """The random draws of one phantom seed at one size and channel count.

    They depend on nothing else, so every family, contrast and noise level
    paints from the same draws (see :func:`paint_phantom`). ``rng`` stands
    where the two noise fields start; :attr:`noise` draws them on first use,
    so a noise-free phantom never does.
    """

    triple: np.ndarray  # C x 3 orthonormal directions of the cluster basis
    center: tuple[float, float]  # support scene center (cy, cx)
    radius_factor: float  # support organ radius over its family's base radius
    shift: tuple[int, int]  # query scene shift (dy, dx)
    scale: float  # query scene scale
    size: int
    rng: np.random.Generator

    @cached_property
    def noise(self) -> tuple[np.ndarray, np.ndarray]:
        """Standard-normal C x size x size fields of the support and the query scene."""
        shape = (len(self.triple), self.size, self.size)
        return self.rng.standard_normal(shape), self.rng.standard_normal(shape)


def phantom_draws(seed: int, size: int, channels: int) -> PhantomDraws:
    """Draw one seed's basis triple and geometry jitter, in :func:`generate_phantom`'s order."""
    rng = np.random.default_rng(seed)
    triple = _orthonormal_triple(rng, channels)
    # support geometry: jittered center and radius
    cy = size / 2.0 + rng.uniform(-size / 16.0, size / 16.0)
    cx = size / 2.0 + rng.uniform(-size / 16.0, size / 16.0)
    radius_factor = rng.uniform(0.85, 1.15)
    # query transform: shift the scene and rescale it around its center
    shift_y, shift_x = (int(v) for v in rng.integers(-size // 10, size // 10 + 1, size=2))
    scale = rng.uniform(0.9, 1.1)
    return PhantomDraws(triple, (cy, cx), radius_factor, (shift_y, shift_x), scale, size, rng)


def generate_phantom(spec: PhantomSpec) -> Phantom:
    """Build one deterministic episode from a spec.

    The same spec (including seed) always yields bit-identical tensors.
    Raises SpecError if the organ ends up clipped to nothing.
    """
    return paint_phantom(spec, phantom_draws(spec.seed, spec.size, spec.channels))


def paint_phantom(spec: PhantomSpec, draws: PhantomDraws) -> Phantom:
    """The phantom of ``spec`` from the draws of its seed, size and channel count."""
    size, q = spec.size, draws.triple

    # cluster basis: orthonormal triple with the band direction tilted toward
    # the organ direction by (1 - contrast)
    theta = spec.contrast * math.pi / 2.0
    mu_fg = _FEATURE_NORM * q[:, 0]
    mu_peri = _FEATURE_NORM * (math.cos(theta) * q[:, 0] + math.sin(theta) * q[:, 1])
    mu_bg = _FEATURE_NORM * q[:, 2]
    basis = (mu_fg, mu_peri, mu_bg)

    cy, cx = draws.center
    base = 0.16 * size if spec.family == "two-lobe" else 0.2 * size
    radius = base * draws.radius_factor
    lobe_dx = 0.21 * size
    (shift_y, shift_x), scale = draws.shift, draws.scale

    s_noise, q_noise = draws.noise if spec.noise > 0.0 else (None, None)
    support_features, support_mask, _ = _scene(spec, basis, s_noise, cy, cx, radius, lobe_dx)
    query_features, query_gt, q_decoy = _scene(
        spec, basis, q_noise, cy + shift_y, cx + shift_x, radius * scale, lobe_dx * scale
    )
    intensity = (query_gt.bits | q_decoy).astype(np.float32)
    return Phantom(
        support_features=support_features,
        support_mask=support_mask,
        query_features=query_features,
        query_gt=query_gt,
        query_intensity=ScalarMap(intensity),
    )
