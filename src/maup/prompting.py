"""Point-prompt selection from similarity statistics.

Positive prompts come from two paths that can be toggled independently:

* mean path: threshold the mean similarity map at a percentile, derive an
  adaptive cluster count k from the thresholded region's complexity, and
  keep the k K-means cluster centers (snapped to candidate pixels);
* uncertainty path: threshold the variance map the same way and draw 2
  seeded random picks from the candidates.

Negative prompts threshold the periphery similarity map, drop pixels that
collide with positives, and spread a small number of K-means centers over
what remains. All randomness flows through seeded generators in a fixed
draw order, so identical inputs and seed give identical prompts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ClusterError, ConfigError, EmptyCandidateError, MaupError, OverlapError, ShapeError
from .simmaps import candidate_mask, percentile_threshold
from .tensors import ScalarMap

MEAN_TAG = "mean-centroid"
UNCERTAINTY_TAG = "uncertainty"
N_UNCERTAINTY_PICKS = 2
MAX_REDRAWS = 10
LLOYD_MAX_ITER = 100
LLOYD_TOL = 1e-4  # a center moving less than this ends Lloyd's iteration


@dataclass(frozen=True)
class PromptConfig:
    """Knobs for one prompting run.

    ``mmp``/``ump``/``np`` toggle the mean, uncertainty and negative paths.
    ``scale`` maps feature-grid pixels to image pixels at export time.
    """

    mmp: bool = True
    ump: bool = True
    np: bool = True
    gamma: float = 5.0
    n_min: int = 3
    n_max: int = 10
    n_neg: int = 3
    radius: int = 5
    n_regions: int = 30
    percentile: float = 95.0
    seed: int = 0
    scale: int = 14

    def __post_init__(self):
        if self.n_min > self.n_max:
            raise ConfigError(f"n_min {self.n_min} exceeds n_max {self.n_max}")
        if not 0 < self.gamma < math.inf:
            raise ConfigError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0.0 < self.percentile < 100.0:
            raise ConfigError(f"percentile must be in (0, 100), got {self.percentile}")
        if min(self.n_min, self.n_neg, self.radius, self.n_regions, self.scale) < 1:
            raise ConfigError("n_min, n_neg, radius, n_regions and scale must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True, eq=False)
class PromptSet:
    """Everything one prompting run selected, plus the thresholds it used.

    Points are M x 2 int64 (row, col) grid arrays. ``sources[i]`` names the path
    that chose positive row i: MEAN_TAG rows first, then UNCERTAINTY_TAG rows.
    ``k_used`` is the adaptive k of the mean path (0 with it off); K-means
    keeps at most one prompt per distinct candidate, so the MEAN_TAG rows
    number at most min(k_used, distinct candidates).
    ``n_regions`` is None until :func:`maup.surrogate.build_export` sets it.
    """

    positives: np.ndarray
    sources: tuple[str, ...]
    negatives: np.ndarray
    k_used: int
    seed: int
    scale: int
    tau_mean: float | None = None
    tau_uncert: float | None = None
    tau_neg: float | None = None
    flags: tuple[str, ...] = ()
    n_regions: int | None = None

    def __post_init__(self):
        negatives = self.negatives.tolist()
        if negatives and set(map(tuple, self.positives.tolist())) & set(map(tuple, negatives)):
            raise OverlapError("positive and negative prompts overlap")

    def to_dict(self) -> dict:
        """The prompts.json record: label 1 positives, label 0 negatives, at image (x, y)."""
        positives = to_image_xy(self.positives, self.scale)
        negatives = to_image_xy(self.negatives, self.scale)
        return {
            "positives": [
                {"x": x, "y": y, "label": 1, "source": source}
                for (x, y), source in zip(positives.tolist(), self.sources)
            ],
            "negatives": [
                {"x": x, "y": y, "label": 0, "source": "negative"} for x, y in negatives.tolist()
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
    """N x 2 grid (row, col) -> N x 2 image (x, y), center-of-patch convention, exact for any scale."""
    xy = points[:, ::-1].astype(object) * int(scale) + int(scale) // 2
    try:
        return xy.astype(np.int64)  # int64 where every coordinate fits, Python ints otherwise
    except OverflowError:
        return xy


def _once(memo: dict, key, fn, *args):
    """``fn(*args)``, computed once per ``memo`` key; a MaupError it raised is raised again."""
    if key not in memo:
        try:
            memo[key] = fn(*args)
        except MaupError as e:
            memo[key] = e
            raise
    if isinstance(memo[key], MaupError):
        raise memo[key]
    return memo[key]


def episode_seed_streams(seed) -> tuple[np.random.SeedSequence, ...]:
    """Derive the three per-stage seed streams (partition, positives, negatives)."""
    return tuple(np.random.SeedSequence(seed).spawn(3))


def complexity(hot: np.ndarray) -> float:
    """Size-plus-boundary score c of a thresholded region, given as its H x W boolean mask.

    The area is divided by the frame area H*W and the perimeter by the frame's
    edge budget 2*(H+W), so c stays resolution-independent and lands near
    [0, 2] for blob-like regions.
    """
    area = int(np.count_nonzero(hot))
    if not area:
        raise EmptyCandidateError("no pixel reaches the mean threshold")
    pairs = np.count_nonzero(hot[:, 1:] & hot[:, :-1]) + np.count_nonzero(hot[1:] & hot[:-1])
    perimeter = 4 * area - 2 * int(pairs)  # as area_and_perimeter counts exposed 4-neighbour edges
    return area / hot.size + perimeter / (2 * sum(hot.shape))


def adaptive_k(c: float, cfg: PromptConfig) -> int:
    """Cluster count floor(cfg.gamma * c), clamped to [cfg.n_min, cfg.n_max] before it is an int.

    The bounds are integers, so flooring after the clamp gives the same k;
    they are compared as floats, as ``np.clip`` compares them.
    """
    return math.floor(min(max(cfg.gamma * c, float(cfg.n_min)), float(cfg.n_max)))


def _kmeans_pp_init(coords: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seed k centers by squared-distance-weighted picks, each drawn as ``rng.choice`` draws it."""
    n = len(coords)
    centers = np.empty((k, 2), dtype=np.float64)
    d2 = np.full(n, np.inf)  # inf before the first pick, which is uniform
    for j in range(k):
        total = d2.sum()
        if 0.0 < total < np.inf:
            cdf = np.cumsum(d2 / total)  # rng.choice(n, p=d2 / total), without its checks
            pick = int((cdf / cdf[-1]).searchsorted(rng.random(), side="right"))
        else:
            pick = int(rng.integers(n))
        centers[j] = coords[pick]
        step = coords - centers[j]
        step *= step
        np.minimum(d2, step[:, 0] + step[:, 1], out=d2)
    return centers


def _assign(coords: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center labels (ties to the lowest index) and the N x k squared distances."""
    step = coords[:, None] - centers
    step *= step
    d2 = step[:, :, 0] + step[:, :, 1]
    return d2.argmin(axis=1), d2


def lloyd_cluster(
    coords: np.ndarray, k: int, seed
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Lloyd's iteration with seeded k-means++ initialization.

    Returns (centers, labels, the final N x k squared distances, initial WCSS,
    final WCSS). Assignment ties go to the lowest center index. A cluster that
    loses all members is reseeded at the point currently farthest from its own
    center, which never increases the objective. Stops after ``LLOYD_MAX_ITER`` rounds
    or a round without reseeds that repeats the labels or moves every center < ``LLOYD_TOL``.

    Centers are ``np.bincount`` coordinate sums over counts. For integer
    coordinates (every maup caller passes grid pixels) those sums are exact
    in any order, so each center equals its cluster's ``mean`` bit for bit.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    if n == 0:
        raise EmptyCandidateError("cannot cluster zero points")
    if not 1 <= k <= n:
        raise ConfigError(f"need 1 <= k <= {n}, got {k}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(coords, k, rng)
    labels, d2 = _assign(coords, centers)
    wcss_init = float(d2[np.arange(n), labels].sum())
    weights = coords.T.ravel()  # both axes, one after the other, as np.bincount weights
    lanes = np.array([[0], [k]])  # axis a of a point adds to bin a * k + its label
    for _ in range(LLOYD_MAX_ITER):
        counts = np.bincount(labels, minlength=k)
        empties = [j for j, count in enumerate(counts.tolist()) if not count]
        size = np.maximum(counts, 1) if empties else counts  # an empty cluster's center is reseeded below
        sums = np.bincount((labels + lanes).ravel(), weights, 2 * k)
        new_centers = (sums.reshape(2, k) / size).T
        if empties:
            own_d2 = d2[np.arange(n), labels]
            for j in empties:
                far = int(np.argmax(own_d2))
                new_centers[j] = coords[far]
                own_d2[far] = -1.0  # keep a second empty cluster off this point
        moved = max(math.sqrt(dr * dr + dc * dc) for dr, dc in (new_centers - centers).tolist())
        centers, previous = new_centers, labels
        labels, d2 = _assign(coords, centers)
        if not empties and (moved < LLOYD_TOL or (labels == previous).all()):
            break
    wcss_final = float(d2[np.arange(n), labels].sum())
    if wcss_final > wcss_init + 1e-9:
        raise ClusterError("k-means objective increased")  # descent must hold
    return centers, labels, d2, wcss_init, wcss_final


def kmeans(points: np.ndarray, k: int, seed) -> np.ndarray:
    """Cluster N x 2 integer (row, col) points and return one of them per cluster.

    Each returned point is the one nearest its cluster's real-valued center
    (ties toward the smallest index; an empty cluster draws from all points).
    ``k`` larger than the number of distinct points is reduced and duplicate
    snaps are dropped, so 1 to k rows come back (int64, in cluster order).
    """
    pts = np.asarray(points, dtype=np.int64)
    if len(pts) == 0:
        raise EmptyCandidateError("cannot run k-means on zero candidates")
    ordered = pts[np.lexsort((pts[:, 1], pts[:, 0]))]  # row-major: equal points are neighbours
    step = ordered[1:] != ordered[:-1]
    k = min(k, 1 + np.count_nonzero(step[:, 0] | step[:, 1]))  # distinct points
    _, labels, d2, _, _ = lloyd_cluster(pts, k, seed)
    members = labels[:, None] == np.arange(k)
    nearest = np.where(members, d2, np.inf).argmin(axis=0)  # first min = smallest index
    lonely = ~members.any(axis=0)
    if lonely.any():
        nearest[lonely] = d2[:, lonely].argmin(axis=0)
    return pts[list(dict.fromkeys(nearest.tolist()))]


def _generator(seed) -> tuple[np.random.Generator, dict]:
    """A generator from ``seed`` and its starting state."""
    rng = np.random.default_rng(seed)
    return rng, rng.bit_generator.state


def _kmeans_and_state(points: np.ndarray, k: int, rng: np.random.Generator):
    """:func:`kmeans` drawing from ``rng``, and the state it leaves ``rng`` in."""
    return kmeans(points, k, rng), rng.bit_generator.state


def positive_prompts(
    mean: ScalarMap, uncert: ScalarMap, cfg: PromptConfig, seed
) -> PromptSet:
    """Select positive prompts from the enabled paths.

    The mean path contributes k cluster centers of the thresholded mean map;
    the uncertainty path adds 2 random candidate picks, redrawing up to
    10 times on collision with already selected points and then falling back
    to the smallest unused row-major candidates. With fewer than 2 usable
    candidates the uncertainty path contributes nothing.

    Returns a :class:`PromptSet` without negatives; a path that is off gives
    no points, and k 0 or a threshold None.
    """
    return _positives({}, mean, uncert, cfg, seed)


def _positives(memo: dict, mean: ScalarMap, uncert: ScalarMap, cfg: PromptConfig, seed) -> PromptSet:
    """:func:`positive_prompts` with the mean path's K-means and the uncertainty threshold looked up in ``memo``.

    Memo keys "generator" (one generator, reset to its starting state by
    every call), ("kmeans", "mean", candidate bytes, k) and ("hot",
    "uncertainty", uncertainty map bytes), which holds the threshold and the
    candidate mask. The K-means entry holds the generator's state after the
    first run, and every lookup sets it back, so the uncertainty picks draw
    as they would after a run of their own: the mean path is the first
    consumer of a fresh generator, and one memo serves one ``seed`` and
    ``cfg.percentile``.
    """
    if not (cfg.mmp or cfg.ump):
        raise ConfigError("at least one positive path (mmp or ump) must be enabled")
    if mean.values.shape != uncert.values.shape:
        raise ShapeError("mean and uncertainty maps differ in shape")
    rng, fresh = _once(memo, "generator", _generator, seed)
    rng.bit_generator.state = fresh  # building a generator from a seed stream costs more than a reset
    mean_pts = uncert_pts = np.empty((0, 2), dtype=np.int64)
    k, tau_mean, tau_uncert = 0, None, None

    if cfg.mmp:
        tau_mean, hot = _thresholded(mean, cfg.percentile, "mean")
        k = adaptive_k(complexity(hot), cfg)
        cands = np.argwhere(hot)
        key = ("kmeans", "mean", cands.tobytes(), k)
        mean_pts, rng.bit_generator.state = _once(memo, key, _kmeans_and_state, cands, k, rng)

    if cfg.ump:
        key = ("hot", "uncertainty", uncert.values.tobytes())
        tau_uncert, hot = _once(memo, key, _thresholded, uncert, cfg.percentile, "uncertainty")
        hot = hot.ravel()
        cands = np.flatnonzero(hot)  # flat indices, row-major
        taken = (mean_pts[:, 0] * uncert.width + mean_pts[:, 1]).tolist()
        if len(cands) - np.count_nonzero(hot[taken]) >= N_UNCERTAINTY_PICKS:
            for _ in range(N_UNCERTAINTY_PICKS):
                for _ in range(MAX_REDRAWS):
                    pick = int(cands[rng.integers(len(cands))])
                    if pick not in taken:
                        break
                else:
                    pick = next(i for i in cands.tolist() if i not in taken)
                taken.append(pick)
        picks = [divmod(i, uncert.width) for i in taken[len(mean_pts) :]]
        uncert_pts = np.array(picks, dtype=np.int64).reshape(-1, 2)

    sources = (MEAN_TAG,) * len(mean_pts) + (UNCERTAINTY_TAG,) * len(uncert_pts)
    return PromptSet(
        np.concatenate([mean_pts, uncert_pts]), sources, np.empty((0, 2), dtype=np.int64),
        k_used=k, seed=cfg.seed, scale=cfg.scale, tau_mean=tau_mean, tau_uncert=tau_uncert,
    )


def negative_prompts(
    neg_map: ScalarMap,
    positives: np.ndarray,
    n_neg: int,
    seed,
    percentile: float,
) -> tuple[np.ndarray, float]:
    """Spread negative prompts over the hottest periphery-similarity pixels.

    Candidates colliding with the M x 2 (row, col) ``positives`` are removed
    first. Returns an N x 2 int64 prompt array and the threshold; the array is
    empty (never raises) when nothing survives, and callers flag that.
    """
    return _negatives({}, neg_map, positives, n_neg, seed, percentile)


def _negatives(memo: dict, neg_map: ScalarMap, positives, n_neg: int, seed, percentile: float):
    """:func:`negative_prompts` with its threshold, candidates and K-means looked up in ``memo``.

    Memo keys ("hot", "negative", periphery map bytes), which holds the
    threshold and the candidate mask, and ("kmeans", "negative", surviving
    candidate bytes).
    One memo serves one ``seed``, ``n_neg`` and ``percentile``.
    """
    if n_neg < 1:
        raise ConfigError(f"need n_neg >= 1, got {n_neg}")
    key = ("hot", "negative", neg_map.values.tobytes())
    tau_neg, hot = _once(memo, key, _thresholded, neg_map, percentile, "negative")
    pos = np.asarray(positives, dtype=np.int64).reshape(-1, 2)
    pos = pos[((pos >= 0) & (pos < hot.shape)).all(axis=1)]  # only in-frame points collide
    hot = hot.copy()  # the memo's mask stays whole
    hot[pos[:, 0], pos[:, 1]] = False
    remaining = np.argwhere(hot)
    if not len(remaining):
        return remaining, tau_neg
    key = ("kmeans", "negative", remaining.tobytes())
    return _once(memo, key, kmeans, remaining, min(n_neg, len(remaining)), seed), tau_neg


def _thresholded(map_: ScalarMap, percentile: float, tag: str) -> tuple[float, np.ndarray]:
    """A map's percentile threshold and the candidate mask it gives."""
    tau = percentile_threshold(map_, percentile)
    return tau, candidate_mask(map_, tau, tag)


def generate_prompts(
    mean: ScalarMap,
    uncert: ScalarMap,
    neg_map: ScalarMap | None,
    cfg: PromptConfig,
) -> PromptSet:
    """Run both prompting stages and package the result.

    ``neg_map`` is None when the periphery band was empty (or the negative
    path is off); the returned set then carries no negatives and a flag.
    Seeds for the two stages are derived from ``cfg.seed`` with the same
    stream split the episode pipeline uses.
    """
    _, pos_seed, neg_seed = episode_seed_streams(cfg.seed)
    return select_prompts(positive_prompts(mean, uncert, cfg, pos_seed), neg_map, cfg, neg_seed)


def select_prompts(ps: PromptSet, neg_map: ScalarMap | None, cfg: PromptConfig, neg_seed) -> PromptSet:
    """:func:`generate_prompts` from :func:`positive_prompts`' set ``ps``, which is only read."""
    return _select({}, ps, neg_map, cfg, neg_seed)


def _select(memo: dict, ps: PromptSet, neg_map: ScalarMap | None, cfg: PromptConfig, neg_seed) -> PromptSet:
    """:func:`select_prompts` with the negatives' stages looked up in ``memo`` (see :func:`_negatives`)."""
    if not cfg.np:
        return ps  # positive_prompts' set: no negatives, no tau_neg, no flags
    neg_pts, tau_neg, flags = np.empty((0, 2), dtype=np.int64), None, ()
    if neg_map is None:
        flags = ("np-disabled-empty-periphery",)
    else:
        neg_pts, tau_neg = _negatives(memo, neg_map, ps.positives, cfg.n_neg, neg_seed, cfg.percentile)
        if not len(neg_pts):
            flags = ("np-exhausted-by-positives",)
    return replace(ps, negatives=neg_pts, tau_neg=tau_neg, flags=flags)
