"""Similarity statistics over a query feature map.

Each prototype (a row of a P x C matrix) yields a per-pixel cosine
similarity map; the P x H x W stack of those maps is reduced to a mean map
and a population-variance uncertainty map. Candidate pixels are extracted
by thresholding a map at a percentile of its own values.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyCandidateError, EmptyStackError, ShapeError
from .tensors import FeatureMap, ScalarMap


def similarity_stack(f_q: FeatureMap, protos: np.ndarray) -> np.ndarray:
    """Cosine similarity of every query pixel to every row of a P x C matrix.

    Returns P x H x W float32 maps in row order, computed in float64 by one
    (P x C) @ (C x HW) product and rounded once to float32. Pixels or
    prototypes with zero norm get similarity 0 instead of NaN. The three
    steps are :func:`query_side`, :func:`similarity_scores` and
    :func:`rounded_cosines`.
    """
    feats, pix_norm = query_side(f_q)
    scores = similarity_scores(protos, feats)
    return rounded_cosines(scores, protos, pix_norm).astype(np.float32).reshape(-1, f_q.height, f_q.width)


def query_side(f_q: FeatureMap) -> tuple[np.ndarray, np.ndarray]:
    """A query's C x HW float64 features and their HW pixel norms (an einsum over that copy)."""
    feats = f_q.data.reshape(f_q.channels, -1).astype(np.float64)
    return feats, np.sqrt(np.einsum("ij,ij->j", feats, feats))


def similarity_scores(protos: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """The raw P x HW float64 product of P x C prototype rows and a query side's C x HW features."""
    protos = np.asarray(protos, dtype=np.float64)
    if protos.ndim != 2 or protos.shape[1] != len(feats):
        raise ShapeError(f"feature map has {len(feats)} channels, prototypes are {protos.shape}")
    return protos @ feats


def rounded_cosines(scores: np.ndarray, protos: np.ndarray, pix_norm: np.ndarray) -> np.ndarray:
    """P x HW cosines from a raw product, clipped to [-1, 1], rounded to float32 in float64; 0 where a norm is 0.

    Elementwise with per-row norms, so equal score rows give equal cosine
    rows whatever the other rows are. ``scores`` is read, never written.
    """
    norms = np.linalg.norm(np.asarray(protos, dtype=np.float64), axis=1)
    sims = norms[:, None] * pix_norm  # the denominators, divided in place
    lo = norms.min(initial=np.inf) * pix_norm.min(initial=np.inf)
    hi = norms.max(initial=0.0) * pix_norm.max(initial=0.0)
    if 0.0 < lo and hi < np.inf:  # every denominator positive and finite
        np.divide(scores, sims, out=sims)
    else:
        nonzero = sims > 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(scores, sims, out=sims, where=nonzero)
        sims[~nonzero] = 0.0
    np.clip(sims, -1.0, 1.0, out=sims)
    np.positive(sims, out=sims, dtype=np.float32, casting="same_kind")  # rounds in place, no float32 copy
    return sims


def cosine_map(f_q: FeatureMap, p: np.ndarray) -> ScalarMap:
    """Per-pixel cosine similarity to one length-C prototype: a one-row stack."""
    return ScalarMap(similarity_stack(f_q, np.asarray(p)[None])[0])


def mean_map(stack: np.ndarray) -> ScalarMap:
    """Pixelwise arithmetic mean over a P x H x W stack."""
    if len(stack) == 0:
        raise EmptyStackError("cannot average an empty similarity stack")
    return ScalarMap(stack.mean(axis=0, dtype=np.float64))


def uncertainty_map(stack: np.ndarray, mean: ScalarMap) -> ScalarMap:
    """Pixelwise population variance (divisor N) around the given mean."""
    if len(stack) == 0:
        raise EmptyStackError("cannot take variance of an empty similarity stack")
    if stack.shape[1:] != mean.values.shape:
        raise ShapeError("mean map shape does not match the stack")
    return _variance(stack.astype(np.float64), mean)  # the one float64 copy


def stack_moments(stack: np.ndarray) -> tuple[ScalarMap, ScalarMap]:
    """:func:`mean_map` and :func:`uncertainty_map` of a float64 stack, overwriting it with squared deviations."""
    mean = mean_map(stack)
    return mean, _variance(stack, mean)


def _variance(diff: np.ndarray, mean: ScalarMap) -> ScalarMap:
    diff -= mean.values  # the float32 mean upcasts exactly
    diff *= diff
    return ScalarMap(diff.mean(axis=0))


def percentile_threshold(map_: ScalarMap, pct: float) -> float:
    """``np.percentile(values, pct)`` bit for bit: numpy's partition kth set, then its lerp."""
    if not 0.0 < pct < 100.0:
        raise ConfigError(f"percentile must be in (0, 100), got {pct}")
    vals = map_.values.astype(np.float64).ravel()
    last = vals.size - 1
    virtual = last * (pct / 100)
    lo, hi = (int(virtual), int(virtual) + 1) if virtual < last else (-1, -1)  # -1: the maximum
    vals.partition(sorted({0, last, lo % vals.size, hi % vals.size}))
    a, b, t = vals[lo], vals[hi], virtual - lo
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def candidate_mask(map_: ScalarMap, tau: float, tag: str) -> np.ndarray:
    """H x W bool mask of the values >= tau (in float64); ``tag`` names the map in errors."""
    hot = map_.values >= np.float64(tau)
    if not hot.any():
        raise EmptyCandidateError(f"no pixel of the {tag} map reaches {tau}")
    return hot


def write_pgm(map_: ScalarMap, path) -> None:
    """Dump a map as an 8-bit binary PGM (P5), min-max normalized."""
    vals = map_.values.astype(np.float64)
    lo, hi = float(vals.min()), float(vals.max())
    if hi > lo:
        scaled = np.rint((vals - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros_like(vals, dtype=np.uint8)
    header = f"P5\n{map_.width} {map_.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + scaled.tobytes(order="C"))
