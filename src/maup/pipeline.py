"""Episode orchestration and sweeps.

An episode prepares the support side once (a partition of the support
foreground and its prototypes), builds a query's similarity statistics
against it, runs prompt selection, and exports the prompts (see
:mod:`maup.surrogate`). Sweeps score toggle rows and region counts on
synthetic phantoms with the surrogate segmenter.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyMaskError, MaupError, ShapeError
from .phantom import Phantom, PhantomSpec, generate_phantom
from .prompting import PromptConfig, PromptSet, _once, _positives, _select, episode_seed_streams
from .prototypes import regional_prototypes
from .regions import (
    StructuringElement,
    farthest_point_seeds,
    periphery_mask,
    voronoi_partition,
)
from .simmaps import cosine_rows, mean_map, query_side, similarity_scores, uncertainty_map
from .surrogate import build_export, component_mask, dice, label_components, surrogate_segment
from .tensors import BitMask, FeatureMap, ScalarMap, save_tensor


@dataclass(frozen=True)
class EpisodeResult:
    """In-memory artifacts of one episode run."""

    prompts: PromptSet
    partition: np.ndarray  # H x W support label map, -1 off the foreground
    mean: ScalarMap
    uncertainty: ScalarMap
    negative: ScalarMap | None
    n_regions: int


class Support(NamedTuple):
    """The support side of an episode, prepared once and reusable for any number of queries."""

    labels: np.ndarray  # H x W label map, -1 off the foreground
    protos: np.ndarray  # P x C float64 regional prototypes, row k pools label k
    periphery: np.ndarray | None  # length-C periphery prototype; None with np off or an empty band


def prepare_support(
    support_features: FeatureMap, support_mask: BitMask, cfg: PromptConfig
) -> Support:
    """Partition the support foreground and pool its prototypes.

    Uses ``cfg.n_regions`` and ``cfg.seed``; with ``cfg.np`` set it also
    pools the periphery band of radius ``cfg.radius``.
    """
    return _support({}, support_features, support_mask, cfg, cfg.n_regions)


def _support(memo: dict, f: FeatureMap, m: BitMask, cfg: PromptConfig, n_seeds: int) -> Support:
    """The support of ``cfg``, its seeds a prefix of one greedy draw for ``n_seeds`` regions.

    Memo keys: "streams", "seeds", "band" (with ``cfg.np`` only) and
    ("support", n_f, np). A negative-path-off support is the negative-path-on
    one at the same n_f without its periphery row when the memo holds that:
    the band is pooled as label P, so the regional rows are equal.
    """
    fps_seed, _, _ = _once(memo, "streams", episode_seed_streams, cfg.seed)
    seeds = _once(memo, "seeds", _seeds, f, m, n_seeds, fps_seed)[: cfg.n_regions]
    on = memo.get(("support", cfg.n_regions, True))
    if not cfg.np and isinstance(on, Support):
        return on._replace(periphery=None)
    band = _once(memo, "band", periphery_mask, m, StructuringElement.disk(cfg.radius)) if cfg.np else None
    return _once(memo, ("support", cfg.n_regions, cfg.np), _prepare, f, m, seeds, band)


def _seeds(features: FeatureMap, mask: BitMask, n: int, fps_seed) -> np.ndarray:
    """Farthest-point seeds for n regions (fewer on a smaller foreground) of a checked support."""
    if (features.height, features.width) != (mask.height, mask.width):
        raise ShapeError("support features and support mask disagree on H x W")
    if mask.foreground_count == 0:
        raise EmptyMaskError("RPG: empty foreground")
    return farthest_point_seeds(mask, n, fps_seed)


def _prepare(features: FeatureMap, mask: BitMask, seeds: np.ndarray, band: BitMask | None) -> Support:
    labels = voronoi_partition(mask, seeds)
    if band is None:
        return Support(labels, regional_prototypes(features, labels), None)
    # the band (dilation minus support) never meets the foreground: pool it as label P
    rows = regional_prototypes(features, np.where(band.bits == 1, len(seeds), labels))
    return Support(labels, rows[: len(seeds)], rows[-1] if len(rows) > len(seeds) else None)


def query_maps(
    support: Support, query_features: FeatureMap, cfg: PromptConfig
) -> tuple[ScalarMap, ScalarMap, ScalarMap | None]:
    """(mean, uncertainty, periphery) maps of one query against a prepared support.

    One similarity product covers every regional row and, when ``cfg.np`` is
    set and the support has one, the periphery row as its last row; the
    periphery map is None otherwise.
    """
    return _maps({}, support, query_features, cfg)


def _maps(memo: dict, support: Support, q: FeatureMap, cfg: PromptConfig):
    """:func:`query_maps` with the query side looked up in ``memo``.

    Memo keys: "query" (the query's float64 features and pixel norms) and
    ("sibling", n_f), which a negative-path-on row set leaves for the
    negative-path-off one at the same n_f: its prototypes, raw product and
    maps. The off row set takes those maps when its prototypes and product
    equal the first rows of the on ones. The cosines are elementwise with
    per-row norms, so equal rows give equal bytes; both products still run,
    since a P-row product need not equal the first P rows of a longer one.
    """
    if q.channels != support.protos.shape[1]:
        raise ShapeError("support and query features disagree on channel count")
    n = len(support.protos)
    with_neg = cfg.np and support.periphery is not None
    protos = np.vstack([support.protos, support.periphery]) if with_neg else support.protos
    feats, pix_norm = _once(memo, "query", query_side, q)
    scores = similarity_scores(protos, feats)
    if not cfg.np and ("sibling", cfg.n_regions) in memo:
        on_protos, on_scores, mean, uncert = memo.pop(("sibling", cfg.n_regions))  # one product per n_f alive
        if np.array_equal(protos, on_protos[:n]) and np.array_equal(scores, on_scores[:n]):
            return mean, uncert, None
    cosines = cosine_rows(scores, protos, pix_norm).reshape(-1, q.height, q.width)
    mean = mean_map(cosines[:n])
    uncert = uncertainty_map(cosines[:n], mean)
    if cfg.np:
        memo[("sibling", cfg.n_regions)] = (protos, scores, mean, uncert)
    return mean, uncert, ScalarMap(cosines[-1].copy()) if with_neg else None  # not a view pinning the rows


def execute_episode(
    support_features: FeatureMap,
    support_mask: BitMask,
    query_features: FeatureMap,
    cfg: PromptConfig,
) -> EpisodeResult:
    """Run the full prompting chain on in-memory tensors.

    The steps are :func:`prepare_support`, :func:`query_maps`,
    :func:`~maup.prompting.positive_prompts` and
    :func:`~maup.prompting.select_prompts`, with the seed streams derived once.
    """
    return _episode({}, support_features, support_mask, query_features, cfg, cfg.n_regions)


def _episode(
    memo: dict, f: FeatureMap, m: BitMask, q: FeatureMap, cfg: PromptConfig, n_seeds: int
) -> EpisodeResult:
    """:func:`execute_episode` with its stages looked up in ``memo``.

    Memo keys beyond :func:`_support`'s and :func:`_maps`': ("maps", n_f, np),
    ("positives", mean bytes, uncertainty bytes, mmp, ump), so equal maps
    share positives, and the K-means and negative candidate keys of
    :func:`~maup.prompting._positives` and :func:`~maup.prompting._negatives`,
    so equal candidates share clusters.
    Keys name only n_f, the toggles and the inputs of a stage: one memo
    serves one support, query and seed, with every other config field the same.
    """
    support = _support(memo, f, m, cfg, n_seeds)
    mean, uncert, neg_map = _once(memo, ("maps", cfg.n_regions, cfg.np), _maps, memo, support, q, cfg)
    _, pos_seed, neg_seed = _once(memo, "streams", episode_seed_streams, cfg.seed)
    key = ("positives", mean.values.tobytes(), uncert.values.tobytes(), cfg.mmp, cfg.ump)
    positives = _once(memo, key, _positives, memo, mean, uncert, cfg, pos_seed)
    prompts = _select(memo, positives, neg_map, cfg, neg_seed)
    return EpisodeResult(prompts, support.labels, mean, uncert, neg_map, len(support.protos))


@dataclass(frozen=True)
class AblationRow:
    family: str
    mmp: bool
    ump: bool
    np: bool
    n_f: int
    seed: int
    dice: float | None
    status: str  # "ok" | "failed: <reason>"

    def sort_key(self):
        return (self.family, self.mmp, self.ump, self.np, self.n_f, self.seed)


@dataclass(frozen=True)
class AblationReport:
    rows: tuple[AblationRow, ...]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["family", "mmp", "ump", "np", "n_f", "seed", "dice", "status"])
            for r in self.rows:
                writer.writerow(
                    [
                        r.family,
                        "on" if r.mmp else "off",
                        "on" if r.ump else "off",
                        "on" if r.np else "off",
                        r.n_f,
                        r.seed,
                        "" if r.dice is None else f"{r.dice:.6f}",
                        r.status,
                    ]
                )

    def summary(self) -> list[tuple]:
        """Mean dice per (family, toggles, n_f) over rows that succeeded."""
        groups: dict[tuple, list[float]] = {}
        for r in self.rows:
            if r.dice is not None:
                groups.setdefault((r.family, r.mmp, r.ump, r.np, r.n_f), []).append(r.dice)
        return [
            key + (sum(vals) / len(vals), len(vals))
            for key, vals in sorted(groups.items())
        ]

    def format_summary(self) -> str:
        lines = [f"{'family':10} {'mmp':4} {'ump':4} {'np':4} {'n_f':>4} {'mean dice':>10} {'n':>4}"]
        for family, mmp, ump, np_, n_f, mean_d, n in self.summary():
            lines.append(
                f"{family:10} {'on' if mmp else 'off':4} {'on' if ump else 'off':4} "
                f"{'on' if np_ else 'off':4} {n_f:>4} {mean_d:>10.4f} {n:>4}"
            )
        return "\n".join(lines)


def ablation_run(
    families: list[PhantomSpec],
    toggles: list[tuple[bool, bool, bool]],
    nf_values: list[int] | None = None,
    seeds: list[int] = (0,),
    base_config: PromptConfig | None = None,
    threshold: float = 0.5,
) -> AblationReport:
    """Sweep toggle rows (and optionally region counts) over phantom families.

    Every (family, toggle, n_f, seed) cell is one episode scored with the
    surrogate segmenter. The cells of one (family, seed) share one memo, so
    each value is computed once for the cells it serves (see :func:`_episode`);
    the memo's "components" key holds the query's thresholded components, and
    each cell's mask is those holding a positive and no negative.
    Failed cells keep their row with an empty dice and a failure note. Rows
    come back sorted by family name, toggles, n_f and seed.
    """
    if not families or not toggles:
        raise ConfigError("need at least one family and one toggle row")
    if not seeds:
        raise ConfigError("need at least one sweep seed")
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"sweep seeds must be >= 0, got {min(seeds)}")
    if not math.isfinite(threshold):
        raise ConfigError(f"threshold must be finite, got {threshold}")
    base = base_config if base_config is not None else PromptConfig(scale=1)
    nfs = list(nf_values) if nf_values else [base.n_regions]
    toggles = sorted(toggles, key=lambda t: not t[2])  # negative path on first: off rows reuse its support

    rows = []
    for fam, seed in product(families, seeds):
        spec, memo = replace(fam, seed=seed), {}
        for nf, (mmp, ump, np_) in product(nfs, toggles):
            key = (fam.family, mmp, ump, np_, nf, seed)
            try:  # a config error wins over a phantom error
                cfg = replace(base, mmp=mmp, ump=ump, np=np_, n_regions=nf, seed=seed, scale=1)
                ph = _once(memo, "phantom", generate_phantom, spec)
                # only n_f >= 1 is valid: max(nfs) is the largest valid n_f
                res = _episode(memo, ph.support_features, ph.support_mask, ph.query_features, cfg, max(nfs))
                h, w = ph.query_features.height, ph.query_features.width
                prompts = build_export(res.prompts, res.n_regions, h, w)
                labels = _once(memo, "components", label_components, ph.query_intensity, threshold)
                d = dice(component_mask(prompts, labels), ph.query_gt)
                rows.append(AblationRow(*key, d, "ok"))
            except MaupError as e:
                rows.append(AblationRow(*key, None, f"failed: {e}"))
    rows.sort(key=AblationRow.sort_key)
    return AblationReport(rows=tuple(rows))


def save_phantom(spec: PhantomSpec, out_dir) -> dict[str, Path]:
    """Write one phantom episode's tensors to a directory, one ``<field>.maup`` per field."""
    ph = generate_phantom(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {f.name: out / f"{f.name}.maup" for f in fields(Phantom)}
    for name, path in paths.items():
        save_tensor(getattr(ph, name), path)
    return paths
