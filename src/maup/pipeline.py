"""Episode orchestration, prompt export, surrogate evaluation, sweeps.

An episode takes a support feature map + mask and a query feature map,
builds the similarity statistics, runs prompt selection, and exports the
prompts as canonical JSON in image coordinates. A deliberately simple
surrogate segmenter (threshold + flood fill + negative suppression) turns
prompt sets into masks so end-to-end behavior can be scored with Dice on
synthetic phantoms, both one-off and in ablation sweeps.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyMaskError, MaupError, ShapeError
from .phantom import Phantom, PhantomSpec, generate_phantom
from .prompting import (
    PromptConfig,
    PromptSet,
    episode_seed_streams,
    generate_prompts,
)
from .prototypes import periphery_prototype, regional_prototypes
from .regions import (
    StructuringElement,
    farthest_point_seeds,
    periphery_mask,
    voronoi_partition,
)
from .simmaps import mean_map, similarity_stack, uncertainty_map, write_pgm
from .tensors import BitMask, FeatureMap, PointRC, ScalarMap, load_tensor, save_tensor


class ExportPoint(NamedTuple):
    """One exported prompt in image coordinates."""

    x: int
    y: int
    label: int  # 1 positive, 0 negative
    source: str


@dataclass(frozen=True)
class EpisodeSpec:
    """File-level description of one episode."""

    support_feature_path: str
    support_mask_path: str
    query_feature_path: str
    output_dir: str
    query_gt_mask_path: str | None = None
    config: PromptConfig = field(default_factory=PromptConfig)
    heatmaps: bool = False


@dataclass(frozen=True)
class EpisodeResult:
    """In-memory artifacts of one episode run."""

    prompts: PromptSet
    partition: np.ndarray  # H x W support label map, -1 off the foreground
    mean: ScalarMap
    uncertainty: ScalarMap
    negative: ScalarMap | None
    n_regions: int


@dataclass(frozen=True)
class PromptExport:
    """Prompt hand-off record; serializes to canonical JSON."""

    positives: tuple[ExportPoint, ...]
    negatives: tuple[ExportPoint, ...]
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
                {"x": p.x, "y": p.y, "label": p.label, "source": p.source}
                for p in self.positives
            ],
            "negatives": [
                {"x": p.x, "y": p.y, "label": p.label, "source": p.source}
                for p in self.negatives
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


def to_image_xy(p: PointRC, scale: int) -> tuple[int, int]:
    """Grid pixel -> image pixel, center-of-patch convention."""
    return p.col * scale + scale // 2, p.row * scale + scale // 2


def to_grid_point(x: int, y: int, scale: int) -> PointRC:
    """Inverse of :func:`to_image_xy` for coordinates it produced."""
    return PointRC((y - scale // 2) // scale, (x - scale // 2) // scale)


def build_export(ps: PromptSet, n_regions: int, height: int, width: int) -> PromptExport:
    """Scale a prompt set out to image coordinates."""
    positives = []
    for pp in ps.positives:
        x, y = to_image_xy(pp.point, ps.scale)
        positives.append(ExportPoint(x=x, y=y, label=1, source=pp.source))
    negatives = []
    for p in ps.negatives:
        x, y = to_image_xy(p, ps.scale)
        negatives.append(ExportPoint(x=x, y=y, label=0, source="negative"))
    for pt in positives + negatives:
        if not (0 <= pt.x < width * ps.scale and 0 <= pt.y < height * ps.scale):
            raise ShapeError(f"exported prompt {pt} escapes the scaled frame")
    return PromptExport(
        positives=tuple(positives),
        negatives=tuple(negatives),
        k_used=ps.k_used,
        tau_mean=ps.tau_mean,
        tau_uncert=ps.tau_uncert,
        tau_neg=ps.tau_neg,
        n_regions=n_regions,
        seed=ps.seed,
        scale=ps.scale,
        flags=ps.flags,
    )


def execute_episode(
    support_features: FeatureMap,
    support_mask: BitMask,
    query_features: FeatureMap,
    cfg: PromptConfig,
) -> EpisodeResult:
    """Run the full prompting chain on in-memory tensors."""
    if (support_features.height, support_features.width) != (
        support_mask.height,
        support_mask.width,
    ):
        raise ShapeError("support features and support mask disagree on H x W")
    if query_features.channels != support_features.channels:
        raise ShapeError("support and query features disagree on channel count")
    fg = support_mask.foreground_count
    if fg == 0:
        raise EmptyMaskError("RPG: empty foreground")

    fps_seed, _, _ = episode_seed_streams(cfg.seed)
    n_regions = min(cfg.n_regions, fg)
    seeds = farthest_point_seeds(support_mask, n_regions, fps_seed)
    partition = voronoi_partition(support_mask, seeds)
    protos = regional_prototypes(support_features, partition)
    if cfg.np:
        band = periphery_mask(support_mask, StructuringElement.disk(cfg.radius))
        if band.foreground_count > 0:
            protos = np.vstack([protos, periphery_prototype(support_features, band)])
    # one product for all maps; the periphery prototype, when present, is the last row
    stack = similarity_stack(query_features, protos)
    regional = stack[: len(seeds)]
    mean = mean_map(regional)
    uncert = uncertainty_map(regional, mean)
    neg_map = ScalarMap(stack[len(seeds)]) if len(stack) > len(seeds) else None

    prompts = generate_prompts(mean, uncert, neg_map, cfg)
    return EpisodeResult(
        prompts=prompts,
        partition=partition,
        mean=mean,
        uncertainty=uncert,
        negative=neg_map,
        n_regions=len(seeds),
    )


def _load(path, expect, stage: str):
    try:
        return load_tensor(path, expect=expect)
    except MaupError as e:
        raise type(e)(f"{stage}: {e}") from e


def run_episode(spec: EpisodeSpec) -> PromptExport:
    """Execute a file-level episode and write prompts.json (and heatmaps)."""
    cfg = spec.config
    support_f = _load(spec.support_feature_path, FeatureMap, "support features")
    support_m = _load(spec.support_mask_path, BitMask, "support mask")
    query_f = _load(spec.query_feature_path, FeatureMap, "query features")
    if spec.query_gt_mask_path is not None:
        gt = _load(spec.query_gt_mask_path, BitMask, "query ground truth")
        if (gt.height, gt.width) != (query_f.height, query_f.width):
            raise ShapeError("query ground truth: H x W does not match query features")

    result = execute_episode(support_f, support_m, query_f, cfg)
    export = build_export(result.prompts, result.n_regions, query_f.height, query_f.width)

    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "prompts.json").write_text(export.canonical_json())
    if spec.heatmaps:
        write_pgm(result.mean, out_dir / "mean.pgm")
        write_pgm(result.uncertainty, out_dir / "uncertainty.pgm")
        if result.negative is not None:
            write_pgm(result.negative, out_dir / "negative.pgm")
    return export


def surrogate_segment(prompts: PromptExport, gt_like: ScalarMap, threshold: float) -> BitMask:
    """Score-free stand-in for a promptable segmenter.

    Grows 4-connected regions of ``gt_like >= threshold`` from the positive
    points, then discards any grown region that also contains a negative
    point. Exported coordinates are mapped back to the grid via the recorded
    scale factor.
    """
    h, w = gt_like.height, gt_like.width
    stride = w + 2  # a closed one-pixel border keeps the neighbours i +- 1, i +- stride in range

    def flat(points):
        out = []
        for p in points:
            g = to_grid_point(p.x, p.y, prompts.scale)
            if not (0 <= g.row < h and 0 <= g.col < w):
                raise ShapeError(f"prompt {p} is out of bounds for a {h}x{w} map")
            out.append((g.row + 1) * stride + g.col + 1)
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


def run_phantom_episode(
    family_spec: PhantomSpec, cfg: PromptConfig, threshold: float = 0.5
) -> tuple[float, PromptExport]:
    """Generate a phantom, prompt it, segment it, and score it."""
    return _score_phantom(generate_phantom(family_spec), cfg, threshold)


def _score_phantom(ph: Phantom, cfg: PromptConfig, threshold: float) -> tuple[float, PromptExport]:
    result = execute_episode(ph.support_features, ph.support_mask, ph.query_features, cfg)
    export = build_export(
        result.prompts, result.n_regions, ph.query_features.height, ph.query_features.width
    )
    pred = surrogate_segment(export, ph.query_intensity, threshold)
    return dice(pred, ph.query_gt), export


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
    surrogate segmenter; the cells of one (family, seed) share one generated
    phantom. Failed cells keep their row with an empty dice and a failure
    note. Rows come back sorted by family name, toggles, n_f and seed.
    """
    if not families or not toggles:
        raise ConfigError("need at least one family and one toggle row")
    base = base_config if base_config is not None else PromptConfig(scale=1)
    nfs = list(nf_values) if nf_values else [base.n_regions]

    rows = []
    for fam, seed in product(families, seeds):
        try:
            ph = generate_phantom(replace(fam, seed=seed))
        except MaupError as e:
            ph = e  # each cell of this (family, seed) fails with it
        for (mmp, ump, np_), nf in product(toggles, nfs):
            try:
                cfg = replace(base, mmp=mmp, ump=ump, np=np_, n_regions=nf, seed=seed, scale=1)
                if isinstance(ph, MaupError):
                    raise ph
                d, _ = _score_phantom(ph, cfg, threshold)
                rows.append(AblationRow(fam.family, mmp, ump, np_, nf, seed, d, "ok"))
            except MaupError as e:
                rows.append(AblationRow(fam.family, mmp, ump, np_, nf, seed, None, f"failed: {e}"))
    rows.sort(key=AblationRow.sort_key)
    return AblationReport(rows=tuple(rows))


def save_phantom(spec: PhantomSpec, out_dir) -> dict[str, Path]:
    """Write one phantom episode's tensors to a directory."""
    ph = generate_phantom(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "support_features": out / "support_features.maup",
        "support_mask": out / "support_mask.maup",
        "query_features": out / "query_features.maup",
        "query_gt": out / "query_gt.maup",
        "query_intensity": out / "query_intensity.maup",
    }
    save_tensor(ph.support_features, paths["support_features"])
    save_tensor(ph.support_mask, paths["support_mask"])
    save_tensor(ph.query_features, paths["query_features"])
    save_tensor(ph.query_gt, paths["query_gt"])
    save_tensor(ph.query_intensity, paths["query_intensity"])
    return paths
