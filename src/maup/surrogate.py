"""The export frame check, and a surrogate segmenter that consumes a prompt set.

A deliberately simple surrogate segmenter (threshold + flood fill +
negative suppression) turns a prompt set's grid points into a mask, so
end-to-end behavior can be scored with Dice on synthetic phantoms.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ShapeError
from .prompting import PromptSet, to_image_xy
from .tensors import BitMask, ScalarMap


def build_export(ps: PromptSet, n_regions: int, height: int, width: int) -> PromptSet:
    """``ps`` with ``n_regions`` set, once every point lies in the height x width frame."""
    for r, c in ps.positives.tolist() + ps.negatives.tolist():
        if not (0 <= r < height and 0 <= c < width):
            x, y = to_image_xy(np.array([[r, c]]), ps.scale)[0].tolist()
            raise ShapeError(f"exported prompt (x={x}, y={y}) escapes the scaled frame")
    return replace(ps, n_regions=n_regions)


def surrogate_segment(prompts: PromptSet, gt_like: ScalarMap, threshold: float) -> BitMask:
    """Score-free stand-in for a promptable segmenter.

    Grows 4-connected regions of ``gt_like >= threshold`` from the positive
    points, then discards any grown region that also contains a negative
    point. An out-of-bounds prompt's error names it in image coordinates.
    """
    h, w = gt_like.height, gt_like.width
    stride = w + 2  # a closed one-pixel border keeps the neighbours i +- 1, i +- stride in range

    def flat(points):
        out = []
        for r, c in points.tolist():
            if not (0 <= r < h and 0 <= c < w):
                x, y = to_image_xy(np.array([[r, c]]), prompts.scale)[0].tolist()
                raise ShapeError(f"prompt (x={x}, y={y}) is out of bounds for a {h}x{w} map")
            out.append((r + 1) * stride + c + 1)
        return out

    pos = flat(prompts.positives)
    neg = flat(prompts.negatives)
    padded = np.zeros((h + 2, stride), dtype=np.uint8)
    padded[1:-1, 1:-1] = gt_like.values.astype(np.float64) >= threshold
    open_ = bytearray(padded)
    _flood(open_, stride, neg)  # close every component holding a negative
    grown = np.zeros_like(padded)
    grown.flat[_flood(open_, stride, pos)] = 1
    return BitMask(grown[1:-1, 1:-1])


def _flood(open_: bytearray, stride: int, seeds: list[int]) -> list[int]:
    """Close and return every open pixel 4-connected to an open seed.

    ``open_`` is a flat row-major grid, ``stride`` pixels to a row, whose
    border is closed. Each pixel is closed once and pushes its 4 neighbours
    once, so the cost is linear in the pixels reached.
    """
    todo = list(seeds)
    reached = []
    while todo:
        i = todo.pop()
        if open_[i]:
            open_[i] = 0
            reached.append(i)
            todo += (i - stride, i - 1, i + 1, i + stride)
    return reached


def dice(pred: BitMask, gt: BitMask) -> float:
    """Dice overlap coefficient; 1.0 when both masks are empty."""
    if pred.bits.shape != gt.bits.shape:
        raise ShapeError("dice operands differ in shape")
    a = pred.foreground_count
    b = gt.foreground_count
    if a == 0 and b == 0:
        return 1.0
    inter = int((pred.bits & gt.bits).sum())
    return 2.0 * inter / (a + b)
