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
    off = _off_frame(ps, height, width)
    if off is not None:
        raise ShapeError(f"exported prompt (x={off[0]}, y={off[1]}) escapes the scaled frame")
    return replace(ps, n_regions=n_regions)


def _off_frame(ps: PromptSet, height: int, width: int) -> list[int] | None:
    """Image (x, y) of the first positive, else the first negative, off the height x width grid."""
    for r, c in ps.positives.tolist() + ps.negatives.tolist():
        if not (0 <= r < height and 0 <= c < width):
            return to_image_xy(np.array([[r, c]]), ps.scale)[0].tolist()
    return None


def surrogate_segment(prompts: PromptSet, gt_like: ScalarMap, threshold: float) -> BitMask:
    """Score-free stand-in for a promptable segmenter.

    Grows 4-connected regions of ``gt_like >= threshold`` from the positive
    points, then discards any grown region that also contains a negative
    point: :func:`label_components`, then :func:`component_mask`. An
    out-of-bounds prompt's error names it in image coordinates.
    """
    return component_mask(prompts, label_components(gt_like, threshold))


def label_components(gt_like: ScalarMap, threshold: float) -> np.ndarray:
    """H x W int64 labels of the 4-connected components of ``gt_like >= threshold``.

    Components are numbered 1, 2, ... in row-major order of their first
    pixel; 0 marks the pixels below the threshold.
    """
    h, w = gt_like.height, gt_like.width
    stride = w + 2  # a closed one-pixel border keeps the neighbours i +- 1, i +- stride in range
    padded = np.zeros((h + 2, stride), dtype=np.uint8)
    padded[1:-1, 1:-1] = gt_like.values.astype(np.float64) >= threshold
    open_ = bytearray(padded)
    labels = np.zeros(padded.shape, dtype=np.int64)
    n = 0
    for i in np.flatnonzero(padded).tolist():
        if open_[i]:
            n += 1
            labels.flat[_flood(open_, stride, [i])] = n
    return labels[1:-1, 1:-1].copy()


def component_mask(prompts: PromptSet, labels: np.ndarray) -> BitMask:
    """The components of a label map that hold a positive point and no negative point.

    ``labels`` is :func:`label_components`' map. The first out-of-frame
    positive, else the first out-of-frame negative, raises a ShapeError.
    """
    return BitMask(kept_components(prompts, labels).view(np.uint8)[labels])


def kept_components(prompts: PromptSet, labels: np.ndarray) -> np.ndarray:
    """:func:`component_mask` per label: True for a component with a positive and no negative.

    Label 0, the pixels below the threshold, is never kept.
    """
    h, w = labels.shape
    off = _off_frame(prompts, h, w)
    if off is not None:
        raise ShapeError(f"prompt (x={off[0]}, y={off[1]}) is out of bounds for a {h}x{w} map")
    keep = np.zeros(labels.max() + 1, dtype=bool)
    keep[labels[tuple(prompts.positives.T)]] = True
    keep[labels[tuple(prompts.negatives.T)]] = False
    keep[0] = False
    return keep


def component_table(labels: np.ndarray, gt: BitMask) -> tuple[np.ndarray, np.ndarray, int]:
    """Per label of a component map, its pixel count and its ground-truth pixels; and the truth's size."""
    if labels.shape != gt.bits.shape:
        raise ShapeError("dice operands differ in shape")
    flat = labels.ravel()
    n = int(flat.max()) + 1
    return np.bincount(flat, minlength=n), np.bincount(flat[gt.bits.ravel() == 1], minlength=n), gt.foreground_count


def table_dice(keep: np.ndarray, table: tuple[np.ndarray, np.ndarray, int]) -> float:
    """``dice`` of the kept components' mask against the truth of :func:`component_table`.

    The counts are the integers ``dice`` sums, so the float is the same.
    """
    pixels, overlap, truth = table
    a = int(pixels[keep].sum())
    if a == 0 and truth == 0:
        return 1.0
    return 2.0 * int(overlap[keep].sum()) / (a + truth)


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
