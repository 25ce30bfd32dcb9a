"""Prototype extraction by masked average pooling.

A prototype is the channel-space mean feature vector of a masked region,
a length-C float64 array; the prototypes of a partition are the rows of one
P x C matrix. Sums are accumulated in float64 over pixels in row-major order
so results are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyMaskError, EmptyPeripheryError, ShapeError
from .tensors import BitMask, FeatureMap


def _pool(f: FeatureMap, sel: np.ndarray) -> np.ndarray:
    """Mean feature vector over the pixels where the boolean H x W ``sel`` is set."""
    count = int(sel.sum())
    if count == 0:
        raise EmptyMaskError("masked average pool over an empty mask")
    flat = f.data.reshape(f.channels, -1)
    return flat[:, sel.reshape(-1)].sum(axis=1, dtype=np.float64) / count


def masked_average_pool(f: FeatureMap, m: BitMask) -> np.ndarray:
    """Mean feature vector over the pixels where the mask is set."""
    if (f.height, f.width) != (m.height, m.width):
        raise ShapeError(
            f"feature map is {f.height}x{f.width} but mask is {m.height}x{m.width}"
        )
    return _pool(f, m.bits.astype(bool))


def regional_prototypes(f_s: FeatureMap, labels: np.ndarray) -> np.ndarray:
    """P x C matrix whose row k pools the pixels labelled k, for k in [0, max label].

    ``labels`` is a label map from :func:`voronoi_partition`; an empty label
    raises EmptyMaskError.
    """
    if labels.shape != (f_s.height, f_s.width):
        raise ShapeError(f"feature map is {f_s.height}x{f_s.width} but labels are {labels.shape}")
    n = max(int(labels.max()), 0) + 1
    return np.stack([_pool(f_s, labels == k) for k in range(n)])


def periphery_prototype(f_s: FeatureMap, periphery: BitMask) -> np.ndarray:
    """Prototype of the band surrounding the support foreground."""
    if periphery.foreground_count == 0:
        raise EmptyPeripheryError("periphery band is empty")
    return masked_average_pool(f_s, periphery)
