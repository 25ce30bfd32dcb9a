"""The prompt hand-off record, and a surrogate segmenter that consumes it.

A prompt set is exported as canonical JSON in image coordinates, the form a
promptable segmenter takes. A deliberately simple surrogate segmenter
(threshold + flood fill + negative suppression) turns an export into a
mask, so end-to-end behavior can be scored with Dice on synthetic phantoms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .prompting import PromptSet
from .tensors import BitMask, ScalarMap


@dataclass(frozen=True, eq=False)
class PromptExport:
    """Prompt hand-off record; serializes to canonical JSON.

    Points are N x 2 int64 image ``(x, y)`` arrays (label 1 positives, label 0
    negatives); ``sources`` tags the positive rows as the :class:`PromptSet` did.
    """

    positives: np.ndarray
    sources: tuple[str, ...]
    negatives: np.ndarray
    k_used: int
    tau_mean: float | None
    tau_uncert: float | None
    tau_neg: float | None
    n_regions: int
    seed: int
    scale: int
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "positives": [
                {"x": x, "y": y, "label": 1, "source": source}
                for (x, y), source in zip(self.positives.tolist(), self.sources)
            ],
            "negatives": [
                {"x": x, "y": y, "label": 0, "source": "negative"} for x, y in self.negatives.tolist()
            ],
            "k_used": self.k_used,
            "tau_mean": self.tau_mean,
            "tau_uncert": self.tau_uncert,
            "tau_neg": self.tau_neg,
            "n_regions": self.n_regions,
            "seed": self.seed,
            "scale": self.scale,
            "flags": list(self.flags),
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def to_image_xy(points: np.ndarray, scale: int) -> np.ndarray:
    """N x 2 grid (row, col) -> N x 2 image (x, y), center-of-patch convention."""
    return points[:, ::-1] * scale + scale // 2


def to_grid_point(xy: np.ndarray, scale: int) -> np.ndarray:
    """Inverse of :func:`to_image_xy` for coordinates it produced."""
    return (xy[:, ::-1] - scale // 2) // scale


def build_export(ps: PromptSet, n_regions: int, height: int, width: int) -> PromptExport:
    """Scale a prompt set out to image coordinates."""
    positives, negatives = to_image_xy(ps.positives, ps.scale), to_image_xy(ps.negatives, ps.scale)
    for x, y in positives.tolist() + negatives.tolist():
        if not (0 <= x < width * ps.scale and 0 <= y < height * ps.scale):
            raise ShapeError(f"exported prompt (x={x}, y={y}) escapes the scaled frame")
    return PromptExport(
        positives=positives,
        sources=ps.sources,
        negatives=negatives,
        k_used=ps.k_used,
        tau_mean=ps.tau_mean,
        tau_uncert=ps.tau_uncert,
        tau_neg=ps.tau_neg,
        n_regions=n_regions,
        seed=ps.seed,
        scale=ps.scale,
        flags=ps.flags,
    )


def surrogate_segment(prompts: PromptExport, gt_like: ScalarMap, threshold: float) -> BitMask:
    """Score-free stand-in for a promptable segmenter.

    Grows 4-connected regions of ``gt_like >= threshold`` from the positive
    points, then discards any grown region that also contains a negative
    point. Exported coordinates are mapped back to the grid via the recorded
    scale factor.
    """
    h, w = gt_like.height, gt_like.width
    stride = w + 2  # a closed one-pixel border keeps the neighbours i +- 1, i +- stride in range

    def flat(xy):
        out = []
        for (x, y), (r, c) in zip(xy.tolist(), to_grid_point(xy, prompts.scale).tolist()):
            if not (0 <= r < h and 0 <= c < w):
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
