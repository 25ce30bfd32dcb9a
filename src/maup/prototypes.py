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


def regional_prototypes(f_s: FeatureMap, labels: np.ndarray) -> np.ndarray:
    """P x C matrix whose row k pools the pixels labelled k, for k in [0, max label].

    ``labels`` is a label map from :func:`voronoi_partition`; negative labels are
    left out and an empty label raises EmptyMaskError. One stable sort of the
    labels and one gather serve every row, each label a block in row-major order.
    """
    if labels.shape != (f_s.height, f_s.width):
        raise ShapeError(f"feature map is {f_s.height}x{f_s.width} but labels are {labels.shape}")
    flat_labels = labels.ravel()
    counts = np.bincount(flat_labels[flat_labels >= 0], minlength=1)
    if not counts.all():
        raise EmptyMaskError("masked average pool over an empty mask")
    order = np.argsort(flat_labels, kind="stable")[flat_labels.size - int(counts.sum()) :]
    # fancy indexing returns the gather F-ordered: each block sums as a boolean-mask gather would
    gathered = f_s.data.reshape(f_s.channels, -1)[:, order]
    out, bounds = np.empty((len(counts), f_s.channels)), [0, *np.cumsum(counts).tolist()]
    for k in range(len(counts)):
        gathered[:, bounds[k] : bounds[k + 1]].sum(axis=1, dtype=np.float64, out=out[k])
    return np.divide(out, counts[:, None], out=out)


def periphery_prototype(f_s: FeatureMap, periphery: BitMask) -> np.ndarray:
    """The band around the support foreground, pooled as one label by :func:`regional_prototypes`."""
    if periphery.foreground_count == 0:
        raise EmptyPeripheryError("periphery band is empty")
    return regional_prototypes(f_s, periphery.bits.astype(np.int64) - 1)[0]
