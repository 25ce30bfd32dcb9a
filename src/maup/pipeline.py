"""Episode orchestration and sweeps.

An episode prepares the support side once (a partition of the support
foreground and its prototypes), builds a query's similarity statistics
against it, runs prompt selection, and exports the prompts (see
:mod:`maup.surrogate`). Sweeps score toggle rows and region counts on
synthetic phantoms with the surrogate segmenter.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyMaskError, MaupError, ShapeError
from .phantom import Phantom, PhantomSpec, paint_phantom, phantom_draws
from .prompting import PromptConfig, PromptSet, _once, _prompts, episode_seed_streams
from .prototypes import regional_prototypes
from .regions import StructuringElement, farthest_point_seeds, periphery_mask, seed_distances, voronoi_labels
from .simmaps import query_side, rounded_cosines, similarity_scores, stack_moments
# build_export is not called here: perfbench's STAGES looks it up as ("pipeline", "build_export")
from .surrogate import build_export, component_table, kept_components, label_components, table_dice
from .tensors import BitMask, FeatureMap, ScalarMap


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

    Memo keys: "streams", "seeds", "distances" (from every seed to the
    foreground; n_f regions take the nearest of the first n_f rows), "band"
    (with ``cfg.np`` only) and ("support", n_f, np). A negative-path-off
    support is the negative-path-on one at the same n_f without its periphery
    row when the memo holds that: the band is pooled as label P, so the
    regional rows are equal.
    """
    fps_seed, _, _ = _once(memo, "streams", episode_seed_streams, cfg.seed)
    seeds = _once(memo, "seeds", _seeds, f, m, n_seeds, fps_seed)
    on = memo.get(("support", cfg.n_regions, True))
    if not cfg.np and isinstance(on, Support):
        return on._replace(periphery=None)
    d2 = _once(memo, "distances", seed_distances, m, seeds)[: cfg.n_regions]
    band = _once(memo, "band", periphery_mask, m, StructuringElement.disk(cfg.radius)) if cfg.np else None
    return _once(memo, ("support", cfg.n_regions, cfg.np), _prepare, f, m, d2, band)


def _seeds(features: FeatureMap, mask: BitMask, n: int, fps_seed) -> np.ndarray:
    """Farthest-point seeds for n regions (fewer on a smaller foreground) of a checked support."""
    if (features.height, features.width) != (mask.height, mask.width):
        raise ShapeError("support features and support mask disagree on H x W")
    if mask.foreground_count == 0:
        raise EmptyMaskError("RPG: empty foreground")
    return farthest_point_seeds(mask, n, fps_seed)


def _prepare(features: FeatureMap, mask: BitMask, d2: np.ndarray, band: BitMask | None) -> Support:
    """The support of the seeds whose foreground distances are the rows of ``d2``."""
    labels, n = voronoi_labels(mask, d2), len(d2)
    if band is None:
        return Support(labels, regional_prototypes(features, labels), None)
    # the band (dilation minus support) never meets the foreground: pool it as label P
    rows = regional_prototypes(features, np.where(band.bits == 1, n, labels))
    return Support(labels, rows[:n], rows[-1] if len(rows) > n else None)


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
    The epilogue keeps one float64 P x HW buffer: the cosines, rounded to
    float32 in it, then their squared deviations (see
    :func:`~maup.simmaps.stack_moments`).
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
    cosines = rounded_cosines(scores, protos, pix_norm).reshape(-1, q.height, q.width)
    neg_map = ScalarMap(cosines[-1]) if with_neg else None  # a float32 copy, not a view pinning the rows
    mean, uncert = stack_moments(cosines[:n])
    if cfg.np:
        memo[("sibling", cfg.n_regions)] = (protos, scores, mean, uncert)
    return mean, uncert, neg_map


def execute_episode(
    support_features: FeatureMap,
    support_mask: BitMask,
    query_features: FeatureMap,
    cfg: PromptConfig,
) -> EpisodeResult:
    """Run the full prompting chain on in-memory tensors.

    The steps are :func:`prepare_support`, :func:`query_maps` and
    :func:`~maup.prompting.generate_prompts`, with the seed streams derived once.
    """
    return _episode({}, support_features, support_mask, query_features, cfg, cfg.n_regions)


def _episode(
    memo: dict, f: FeatureMap, m: BitMask, q: FeatureMap, cfg: PromptConfig, n_seeds: int
) -> EpisodeResult:
    """:func:`execute_episode` with its stages looked up in ``memo``.

    Memo keys: those of :func:`_support`, ("maps", n_f, np) for :func:`_maps`
    and those of :func:`~maup.prompting._prompts`.
    Keys name only n_f, the toggles and the inputs of a stage: one memo
    serves one support, query and seed, with every other config field the same.
    """
    support = _support(memo, f, m, cfg, n_seeds)
    mean, uncert, neg_map = _once(memo, ("maps", cfg.n_regions, cfg.np), _maps, memo, support, q, cfg)
    prompts = _prompts(memo, mean, uncert, neg_map, cfg)
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
) -> AblationReport:
    """Sweep toggle rows (and optionally region counts) over phantom families.

    Every (family, toggle, n_f, seed) cell is one episode scored with the
    surrogate segmenter. Each value is computed once, at the level where it
    varies: a seed's phantom draws (by size and channel count) and its cell
    configs serve every family, and the cells of one (family, seed) share
    one memo (see :func:`_episode`). That memo's "components" key holds the
    components of the query intensity at 0.5 and "table" their pixel and
    ground-truth counts; a cell's Dice sums the counts of the components
    holding a positive and no negative.
    Failed cells keep their row with an empty dice and a failure note. Rows
    come back sorted by family name, toggles, n_f and seed.
    """
    if not families or not toggles:
        raise ConfigError("need at least one family and one toggle row")
    if not seeds:
        raise ConfigError("need at least one sweep seed")
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"sweep seeds must be >= 0, got {min(seeds)}")
    base = base_config if base_config is not None else PromptConfig()
    nfs = list(nf_values) if nf_values else [base.n_regions]
    n_seeds = max(nfs)  # only n_f >= 1 is valid: this is the largest valid n_f
    toggles = sorted(toggles, key=lambda t: not t[2])  # negative path on first: off rows reuse its support

    rows = []
    for seed in seeds:
        draws, cfgs = {}, {}  # one seed's phantom draws and cell configs, shared by the families
        for fam in families:
            spec, memo = replace(fam, seed=seed), {}
            for nf, toggle in product(nfs, toggles):
                key = (fam.family, *toggle, nf, seed)
                try:  # a config error wins over a phantom error
                    cfg = _once(cfgs, (nf, toggle), _cell_config, base, toggle, nf, seed)
                    ph = _once(memo, "phantom", _phantom, draws, spec)
                    res = _episode(memo, ph.support_features, ph.support_mask, ph.query_features, cfg, n_seeds)
                    labels = _once(memo, "components", label_components, ph.query_intensity, 0.5)
                    keep = kept_components(res.prompts, labels)  # raises on an off-frame prompt
                    d = table_dice(keep, _once(memo, "table", component_table, labels, ph.query_gt))
                    rows.append(AblationRow(*key, d, "ok"))
                except MaupError as e:
                    rows.append(AblationRow(*key, None, f"failed: {e}"))
    rows.sort(key=AblationRow.sort_key)
    return AblationReport(rows=tuple(rows))


def _cell_config(base: PromptConfig, toggle: tuple[bool, bool, bool], nf: int, seed: int) -> PromptConfig:
    mmp, ump, np_ = toggle
    return replace(base, mmp=mmp, ump=ump, np=np_, n_regions=nf, seed=seed, scale=1)


def _phantom(draws: dict, spec: PhantomSpec) -> Phantom:
    """The phantom of ``spec``, painted from its seed's draws, which ``draws`` holds by size and channels."""
    d = _once(draws, (spec.size, spec.channels), phantom_draws, spec.seed, spec.size, spec.channels)
    return paint_phantom(spec, d)
