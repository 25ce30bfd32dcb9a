import itertools
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

import maup.cli as cli
import maup.pipeline as pl
import maup.prompting as mp
import maup.prototypes as pp
import maup.regions as rg
import maup.simmaps as sm
from maup.cli import _cmd_run, build_parser, main
from maup.errors import ConfigError, EmptyMaskError, FormatError, MaupError, ShapeError, SpecError
from maup.phantom import FAMILIES, PhantomSpec, generate_phantom
from maup.pipeline import (
    AblationReport,
    AblationRow,
    EpisodeResult,
    Support,
    ablation_run,
    build_export,
    dice,
    execute_episode,
    prepare_support,
    query_maps,
    save_phantom,
    surrogate_segment,
)
from maup.prompting import MEAN_TAG, UNCERTAINTY_TAG, PromptConfig, PromptSet, generate_prompts, to_image_xy
from maup.simmaps import candidate_mask
from maup.surrogate import component_mask, component_table, kept_components, label_components, table_dice
from maup.tensors import BitMask, FeatureMap, ScalarMap, save_tensor

from oracles import (
    build_export_reference,
    flood_dice_oracle,
    flood_oracle,
    generate_phantom_reference,
    surrogate_reference,
    to_image_xy_reference,
)

GOLDEN = Path(__file__).parent / "golden" / "prompts_disk_seed7.json"
# a ViT-patch-scale episode (37x37 grid, 1024 channels) at nf=60, negative path on / off
PAPER_SCALE_GOLDEN = {
    True: GOLDEN.parent / "prompts_two_lobe_37x37x1024_nf60.json",
    False: GOLDEN.parent / "prompts_two_lobe_37x37x1024_nf60_no_np.json",
}


def reference_episode(support_features, support_mask, query_features, cfg):
    """``execute_episode`` as it was before the support/query split, every stage inline.

    Support-side stages that ``maup.pipeline`` calls are looked up on it, and
    the similarity stack and its reductions on ``maup.simmaps``, so a test
    that substitutes one substitutes it here too; the periphery row is pooled
    on its own with :func:`maup.prototypes.periphery_prototype`.
    """
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
    fps_seed, _, _ = mp.episode_seed_streams(cfg.seed)
    seeds = pl.farthest_point_seeds(support_mask, min(cfg.n_regions, fg), fps_seed)
    partition = rg.voronoi_partition(support_mask, seeds)  # pipeline calls its two steps
    protos = pl.regional_prototypes(support_features, partition)
    if cfg.np:
        band = pl.periphery_mask(support_mask, pl.StructuringElement.disk(cfg.radius))
        if band.foreground_count > 0:
            protos = np.vstack([protos, pp.periphery_prototype(support_features, band)])
    stack = sm.similarity_stack(query_features, protos)
    regional = stack[: len(seeds)]
    mean = sm.mean_map(regional)
    uncert = sm.uncertainty_map(regional, mean)
    neg_map = ScalarMap(stack[len(seeds)]) if len(stack) > len(seeds) else None
    prompts = generate_prompts(mean, uncert, neg_map, cfg)
    return EpisodeResult(prompts, partition, mean, uncert, neg_map, len(seeds))


def reference_ablation(families, toggles, nf_values, seeds, threshold=0.5):
    """``ablation_run`` as a per-cell loop: one reference episode per cell, nothing shared."""
    base = PromptConfig(scale=1)
    rows = []
    for fam, seed in itertools.product(families, seeds):
        try:
            ph = generate_phantom(replace(fam, seed=seed))
        except MaupError as e:
            ph = e
        for (mmp, ump, np_), nf in itertools.product(toggles, nf_values):
            try:
                cfg = replace(base, mmp=mmp, ump=ump, np=np_, n_regions=nf, seed=seed, scale=1)
                if isinstance(ph, MaupError):
                    raise ph
                res = reference_episode(ph.support_features, ph.support_mask, ph.query_features, cfg)
                export = build_export(res.prompts, res.n_regions, ph.query_features.height, ph.query_features.width)
                d = dice(surrogate_segment(export, ph.query_intensity, threshold), ph.query_gt)
                rows.append(AblationRow(fam.family, mmp, ump, np_, nf, seed, d, "ok"))
            except MaupError as e:
                rows.append(AblationRow(fam.family, mmp, ump, np_, nf, seed, None, f"failed: {e}"))
    rows.sort(key=AblationRow.sort_key)
    return AblationReport(rows=tuple(rows))


def kmeans_role(seed):
    """The prompt path of a ``maup.prompting.kmeans`` call, told by its seed.

    The mean path clusters with its generator, which the uncertainty picks
    draw from next; the negative path passes its seed stream.
    """
    return "mean" if isinstance(seed, np.random.Generator) else "negative"


def episode_bytes(res, height, width):
    """Everything an episode hands on: the export text, the label map and every map's bytes."""
    maps = [res.mean, res.uncertainty] + ([res.negative] if res.negative is not None else [])
    text = build_export(res.prompts, res.n_regions, height, width).canonical_json()
    return text, res.partition.tobytes(), [m.values.tobytes() for m in maps]


VALID_TOGGLES = [t for t in itertools.product([False, True], repeat=3) if t[0] or t[1]]
SWEEP_TOGGLES = [(False, True, False), (True, True, False), (True, True, True)]  # ump | mmp+ump | all


def grid(points):
    """(row, col) pairs as an N x 2 int64 grid array."""
    return np.array(points, dtype=np.int64).reshape(-1, 2)


def export_with(points_pos, points_neg, scale=1):
    """An exported prompt set of (row, col) grid points, whose negatives may repeat a positive.

    The surrogate accepts any points, so the negatives are set past PromptSet's overlap check.
    """
    sources = (MEAN_TAG,) * len(points_pos)
    ps = PromptSet(grid(points_pos), sources, grid([]), len(points_pos), 0, scale, n_regions=1)
    object.__setattr__(ps, "negatives", grid(points_neg))
    return ps


def labelled_reference(above, positives, negatives):
    """Components of ``above`` holding a positive minus those holding a negative, via scipy."""
    labels, _ = ndimage.label(above)  # default structure = 4-connectivity
    keep = {labels[p] for p in positives} - {0} - {labels[q] for q in negatives}
    return np.isin(labels, sorted(keep)).astype(np.uint8)


@st.composite
def fill_cases(draw):
    """A frame of 1..12 x 1..12 pixels and prompts anywhere in it, repeats allowed."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    above = draw(arrays(np.bool_, (h, w)))
    point = st.tuples(st.integers(0, h - 1), st.integers(0, w - 1))
    return above, draw(st.lists(point, max_size=6)), draw(st.lists(point, max_size=4))


def serpentine(n):
    """One n x n path: every even row, joined by alternating end pixels on odd rows."""
    above = np.zeros((n, n), dtype=bool)
    above[::2] = True
    above[1::4, -1] = True
    above[3::4, 0] = True
    return above


def phantom_bytes(ph):
    arrays = (ph.support_features.data, ph.support_mask.bits, ph.query_features.data, ph.query_gt.bits,
              ph.query_intensity.values)
    return [a.tobytes() for a in arrays]


def disk_intensity(h, w, cy, cx, r, value=1.0):
    yy, xx = np.ogrid[:h, :w]
    vals = np.where((yy - cy) ** 2 + (xx - cx) ** 2 <= r * r, value, 0.0)
    return ScalarMap(vals.astype(np.float32))


class TestCoordinateExport:
    @pytest.mark.parametrize("scale", [1, 2, 7, 14])
    def test_round_trip_through_image_coords(self, scale):
        points = np.array([[0, 0], [3, 9], [31, 31]])
        xy = to_image_xy(points, scale)
        assert xy.dtype == np.int64 and xy.shape == (3, 2)
        assert to_image_xy(np.empty((0, 2), dtype=np.int64), scale).shape == (0, 2)

    @settings(max_examples=200, deadline=None)
    @given(
        points=arrays(np.int64, st.tuples(st.integers(0, 5), st.just(2)), elements=st.integers(0, 4096)),
        scale=st.integers(1, 10**30),
    )
    @example(points=np.array([[0, 0], [31, 31]]), scale=10**18)  # wrapped to negative in int64
    @example(points=np.array([[31, 31]]), scale=10**20)  # past int64 before any product
    def test_image_coords_are_exact_at_any_scale(self, points, scale):
        want = [list(to_image_xy_reference(row, col, scale)) for row, col in points.tolist()]
        assert to_image_xy(points, scale).tolist() == want

    def test_center_of_patch_convention(self):
        assert to_image_xy(np.array([[2, 3]]), 14).tolist() == [[3 * 14 + 7, 2 * 14 + 7]]
        assert to_image_xy(np.array([[2, 3]]), 1).tolist() == [[3, 2]]

    def test_exported_coords_stay_in_scaled_frame(self):
        ph = generate_phantom(PhantomSpec(family="disk", seed=1))
        cfg = PromptConfig(seed=1, scale=14)
        res = execute_episode(ph.support_features, ph.support_mask, ph.query_features, cfg)
        export = build_export(res.prompts, res.n_regions, 32, 32)
        for x, y in to_image_xy(np.concatenate([export.positives, export.negatives]), export.scale).tolist():
            assert 0 <= x < 32 * 14
            assert 0 <= y < 32 * 14

    def test_canonical_json_is_sorted_and_newline_terminated(self):
        export = export_with([(1, 2)], [(3, 4)])
        text = export.canonical_json()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert list(parsed.keys()) == sorted(parsed.keys())
        assert export.canonical_json() == text


class TestExecuteEpisode:
    def test_empty_foreground_message(self):
        f = FeatureMap(np.zeros((2, 4, 4), dtype=np.float32))
        empty = BitMask(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(EmptyMaskError, match="RPG: empty foreground"):
            execute_episode(f, empty, f, PromptConfig())

    def test_support_shape_mismatch(self):
        f = FeatureMap(np.zeros((2, 4, 4), dtype=np.float32))
        m = BitMask(np.ones((5, 5), dtype=np.uint8))
        with pytest.raises(ShapeError):
            execute_episode(f, m, f, PromptConfig())

    def test_channel_mismatch(self):
        f = FeatureMap(np.zeros((2, 4, 4), dtype=np.float32))
        q = FeatureMap(np.zeros((3, 4, 4), dtype=np.float32))
        m = BitMask(np.ones((4, 4), dtype=np.uint8))
        with pytest.raises(ShapeError):
            execute_episode(f, m, q, PromptConfig())

    def test_region_count_clamped_to_tiny_foreground(self):
        rng = np.random.default_rng(0)
        f = FeatureMap(rng.standard_normal((4, 8, 8)).astype(np.float32))
        bits = np.zeros((8, 8), dtype=np.uint8)
        bits[2, 2] = bits[2, 3] = bits[5, 5] = 1
        res = execute_episode(f, BitMask(bits), f, PromptConfig(n_regions=30, seed=0))
        assert res.n_regions == 3
        assert res.partition.max() + 1 == 3

    def test_query_resolution_may_differ_from_support(self):
        rng = np.random.default_rng(4)
        support_f = FeatureMap(rng.standard_normal((6, 16, 16)).astype(np.float32))
        bits = np.zeros((16, 16), dtype=np.uint8)
        bits[4:10, 5:12] = 1
        query_f = FeatureMap(rng.standard_normal((6, 24, 20)).astype(np.float32))
        res = execute_episode(support_f, BitMask(bits), query_f, PromptConfig(seed=4, scale=1))
        assert res.mean.values.shape == (24, 20)
        export = build_export(res.prompts, res.n_regions, 24, 20)
        for x, y in to_image_xy(np.concatenate([export.positives, export.negatives]), export.scale).tolist():
            assert 0 <= x < 20 and 0 <= y < 24

    def test_containment_of_all_prompt_kinds(self):
        ph = generate_phantom(PhantomSpec(family="two-lobe", contrast=0.4, noise=0.1, seed=9))
        cfg = PromptConfig(seed=9, scale=1)
        res = execute_episode(ph.support_features, ph.support_mask, ph.query_features, cfg)
        ps = res.prompts
        maps = [(res.mean, ps.tau_mean), (res.uncertainty, ps.tau_uncert), (res.negative, ps.tau_neg)]
        q_mean, q_unc, q_neg = (
            {tuple(p) for p in np.argwhere(candidate_mask(m, tau, "map")).tolist()} for m, tau in maps
        )
        for p, source in zip(ps.positives.tolist(), ps.sources, strict=True):
            assert tuple(p) in (q_mean if source == MEAN_TAG else q_unc)
        assert set(map(tuple, ps.negatives.tolist())) <= q_neg

    @pytest.mark.parametrize("np_on", [True, False])
    def test_paper_scale_golden_bytes(self, np_on):
        spec = PhantomSpec(
            family="two-lobe", size=37, channels=1024, contrast=0.5, noise=0.1, seed=11
        )
        ph = generate_phantom(spec)
        cfg = PromptConfig(n_regions=60, seed=11, np=np_on)
        res = execute_episode(ph.support_features, ph.support_mask, ph.query_features, cfg)
        text = build_export(res.prompts, res.n_regions, 37, 37).canonical_json()
        assert text == PAPER_SCALE_GOLDEN[np_on].read_text()


class TestSupportQuerySplit:
    def split_export(self, ph, cfg):
        support = prepare_support(ph.support_features, ph.support_mask, cfg)
        prompts = generate_prompts(*query_maps(support, ph.query_features, cfg), cfg)
        height, width = ph.query_features.height, ph.query_features.width
        return build_export(prompts, len(support.protos), height, width).canonical_json()

    def test_disk_golden_bytes(self):
        ph = generate_phantom(PhantomSpec(family="disk", contrast=1.0, noise=0.0, seed=7))
        assert self.split_export(ph, PromptConfig(seed=7)) == GOLDEN.read_text()

    @pytest.mark.parametrize("np_on", [True, False])
    def test_paper_scale_golden_bytes(self, np_on):
        spec = PhantomSpec(
            family="two-lobe", size=37, channels=1024, contrast=0.5, noise=0.1, seed=11
        )
        cfg = PromptConfig(n_regions=60, seed=11, np=np_on)
        assert self.split_export(generate_phantom(spec), cfg) == PAPER_SCALE_GOLDEN[np_on].read_text()

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        size=st.sampled_from([16, 23, 32]),
        channels=st.sampled_from([3, 16, 40]),
        nf=st.sampled_from([1, 2, 5, 30, 60, 500]),
        toggles=st.sampled_from(VALID_TOGGLES),
        radius=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_split_and_episode_match_the_reference(self, family, size, channels, nf, toggles, radius, seed):
        mmp, ump, np_ = toggles
        ph = generate_phantom(
            PhantomSpec(family=family, size=size, channels=channels, contrast=0.4, noise=0.1, seed=seed)
        )
        cfg = PromptConfig(mmp=mmp, ump=ump, np=np_, n_regions=nf, radius=radius, seed=seed, scale=3)
        args = (ph.support_features, ph.support_mask, ph.query_features, cfg)
        want = episode_bytes(reference_episode(*args), size, size)
        assert episode_bytes(execute_episode(*args), size, size) == want
        support = prepare_support(ph.support_features, ph.support_mask, cfg)
        mean, uncert, neg = query_maps(support, ph.query_features, cfg)
        prompts = generate_prompts(mean, uncert, neg, cfg)
        split = EpisodeResult(prompts, support.labels, mean, uncert, neg, len(support.protos))
        assert episode_bytes(split, size, size) == want

    def test_one_support_many_queries(self):
        cfg = PromptConfig(n_regions=15, seed=3, scale=1)
        ph = generate_phantom(PhantomSpec(family="two-lobe", contrast=0.4, noise=0.1, seed=3))
        support = prepare_support(ph.support_features, ph.support_mask, cfg)
        for family in FAMILIES:
            q = generate_phantom(PhantomSpec(family=family, contrast=0.5, noise=0.1, seed=8)).query_features
            prompts = generate_prompts(*query_maps(support, q, cfg), cfg)
            got = build_export(prompts, len(support.protos), 32, 32).canonical_json()
            res = execute_episode(ph.support_features, ph.support_mask, q, cfg)
            assert got == build_export(res.prompts, res.n_regions, 32, 32).canonical_json()

    def test_support_fields(self):
        ph = generate_phantom(PhantomSpec(family="disk", seed=2))
        on = prepare_support(ph.support_features, ph.support_mask, PromptConfig(n_regions=7, seed=2))
        off = prepare_support(ph.support_features, ph.support_mask, PromptConfig(n_regions=7, seed=2, np=False))
        assert isinstance(on, Support)
        assert on.labels.shape == (32, 32) and on.protos.shape == (7, 16)
        assert on.periphery.shape == (16,) and off.periphery is None
        assert on.labels.tobytes() == off.labels.tobytes() and on.protos.tobytes() == off.protos.tobytes()
        # the np-off product leaves the periphery row out even when the support has one
        assert query_maps(on, ph.query_features, PromptConfig(n_regions=7, seed=2, np=False))[2] is None

    def test_full_frame_support_has_no_periphery_row(self):
        f = FeatureMap(np.random.default_rng(1).standard_normal((4, 6, 6)).astype(np.float32))
        full = BitMask(np.ones((6, 6), dtype=np.uint8))
        support = prepare_support(f, full, PromptConfig(n_regions=3))
        assert support.periphery is None
        assert query_maps(support, f, PromptConfig(n_regions=3))[2] is None

    def test_periphery_map_owns_its_values(self):
        # a view into the (P+1)-row product would keep the whole product alive with the map
        ph = generate_phantom(PhantomSpec(family="disk", seed=2))
        cfg = PromptConfig(n_regions=7, seed=2)
        res = execute_episode(ph.support_features, ph.support_mask, ph.query_features, cfg)
        assert res.negative is not None and res.negative.values.flags.owndata
        support = prepare_support(ph.support_features, ph.support_mask, cfg)
        assert query_maps(support, ph.query_features, cfg)[2].values.flags.owndata

    def test_query_channel_mismatch(self):
        f = FeatureMap(np.zeros((2, 4, 4), dtype=np.float32))
        support = prepare_support(f, BitMask(np.ones((4, 4), dtype=np.uint8)), PromptConfig())
        with pytest.raises(ShapeError, match="channel count"):
            query_maps(support, FeatureMap(np.zeros((3, 4, 4), dtype=np.float32)), PromptConfig())

    def test_one_seed_stream_spawn_per_episode(self, monkeypatch):
        calls, real = [], mp.episode_seed_streams

        def counted(seed):
            calls.append(seed)
            return real(seed)

        monkeypatch.setattr(pl, "episode_seed_streams", counted)
        monkeypatch.setattr(mp, "episode_seed_streams", counted)
        ph = generate_phantom(PhantomSpec(family="annulus", seed=4))
        execute_episode(ph.support_features, ph.support_mask, ph.query_features, PromptConfig(seed=4))
        assert calls == [4]


class TestRunEpisode:
    """`maup run`'s file-level episode: tensor files in, prompts.json and heatmaps out."""

    @staticmethod
    def run_args(paths, out_dir, *extra, support_feat="support_features"):
        return [
            "run",
            "--support-feat", str(paths[support_feat]),
            "--support-mask", str(paths["support_mask"]),
            "--query-feat", str(paths["query_features"]),
            "--out", str(out_dir),
            *extra,
        ]

    def run_disk_episode(self, tmp_path, *extra, seed=7):
        paths = save_phantom(
            PhantomSpec(family="disk", contrast=1.0, noise=0.0, seed=seed), tmp_path / "ph"
        )
        gt = ("--query-gt", str(paths["query_gt"]))
        assert main(self.run_args(paths, tmp_path / "out", "--seed", str(seed), *gt, *extra)) == 0
        return tmp_path / "out" / "prompts.json"

    def test_golden_episode_bytes(self, tmp_path):
        prompts_path = self.run_disk_episode(tmp_path, seed=7)
        assert prompts_path.read_bytes() == GOLDEN.read_bytes()

    def test_two_runs_are_byte_identical(self, tmp_path):
        p1 = self.run_disk_episode(tmp_path / "a", seed=3)
        p2 = self.run_disk_episode(tmp_path / "b", seed=3)
        assert p1.read_bytes() == p2.read_bytes()

    def test_np_off_exports_no_negatives(self, tmp_path, monkeypatch):
        original, exports = cli.build_export, []

        def recording(*args):  # the PromptSet `maup run` writes
            exports.append(original(*args))
            return exports[-1]

        monkeypatch.setattr(cli, "build_export", recording)
        prompts_path = self.run_disk_episode(tmp_path, "--no-np", seed=5)
        (export,) = exports
        assert export.negatives.shape == (0, 2)
        assert json.loads(prompts_path.read_text())["negatives"] == []

    def test_heatmaps_written_on_request(self, tmp_path):
        paths = save_phantom(PhantomSpec(family="disk", seed=2), tmp_path / "ph")
        assert main(self.run_args(paths, tmp_path / "out", "--seed", "2", "--heatmaps")) == 0
        for name in ("mean.pgm", "uncertainty.pgm", "negative.pgm"):
            assert (tmp_path / "out" / name).exists()

    def test_missing_file_carries_stage_context(self, tmp_path):
        nope = {name: tmp_path / "nope.maup" for name in ("support_features", "support_mask", "query_features")}
        with pytest.raises(OSError):
            _cmd_run(build_parser().parse_args(self.run_args(nope, tmp_path / "out")))

    def test_wrong_tensor_type_carries_stage_context(self, tmp_path):
        paths = save_phantom(PhantomSpec(family="disk", seed=2), tmp_path / "ph")
        args = self.run_args(paths, tmp_path / "out", support_feat="support_mask")  # mask in the features slot
        with pytest.raises(FormatError, match="support features"):
            _cmd_run(build_parser().parse_args(args))

    def test_corrupt_file_carries_stage_context(self, tmp_path):
        paths = save_phantom(PhantomSpec(family="disk", seed=2), tmp_path / "ph")
        bad = tmp_path / "ph" / "query_features.maup"
        bad.write_bytes(bad.read_bytes()[:10])  # truncate mid-header
        with pytest.raises(FormatError, match="query features"):
            _cmd_run(build_parser().parse_args(self.run_args(paths, tmp_path / "out")))

    def test_misaligned_gt_rejected(self, tmp_path):
        paths = save_phantom(PhantomSpec(family="disk", seed=2), tmp_path / "ph")
        small_gt = tmp_path / "gt.maup"
        save_tensor(BitMask(np.ones((4, 4), dtype=np.uint8)), small_gt)
        args = self.run_args(paths, tmp_path / "out", "--query-gt", str(small_gt))
        with pytest.raises(ShapeError, match="ground truth"):
            _cmd_run(build_parser().parse_args(args))
        assert not (tmp_path / "out" / "prompts.json").exists()


class TestSurrogate:
    def test_single_positive_fills_the_disk(self):
        gt_like = disk_intensity(16, 16, 8, 8, 4)
        export = export_with([(8, 8)], [])
        out = surrogate_segment(export, gt_like, 0.5)
        assert np.array_equal(out.bits, (gt_like.values >= 0.5).astype(np.uint8))

    def test_negative_suppresses_its_component(self):
        a = disk_intensity(20, 20, 5, 5, 3).values
        b = disk_intensity(20, 20, 14, 14, 3).values
        gt_like = ScalarMap(np.maximum(a, b))
        export = export_with([(5, 5), (14, 14)], [(14, 14)])
        out = surrogate_segment(export, gt_like, 0.5)
        assert np.array_equal(out.bits, (a >= 0.5).astype(np.uint8))

    def test_no_positives_gives_empty_mask(self):
        out = surrogate_segment(export_with([], []), disk_intensity(8, 8, 4, 4, 2), 0.5)
        assert out.foreground_count == 0

    def test_out_of_bounds_prompt(self):
        with pytest.raises(ShapeError):
            surrogate_segment(export_with([(9, 9)], []), disk_intensity(8, 8, 4, 4, 2), 0.5)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_bfs_oracle_on_random_blobs(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.random((12, 12)).astype(np.float32)
        gt_like = ScalarMap(vals)
        pos = [(int(y), int(x)) for y, x in rng.integers(0, 12, (3, 2))]
        neg = [(int(y), int(x)) for y, x in rng.integers(0, 12, (2, 2))]
        out = surrogate_segment(export_with(pos, neg), gt_like, 0.6)
        expected = flood_oracle(vals >= 0.6, pos, neg)
        assert np.array_equal(out.bits, np.array(expected, dtype=np.uint8))

    @settings(deadline=None, max_examples=300)
    @given(case=fill_cases())
    @example(case=(np.ones((1, 1), bool), [(0, 0)], []))
    @example(case=(np.ones((1, 1), bool), [(0, 0)], [(0, 0)]))
    @example(case=(np.array([[1, 1, 0, 1, 1]], bool), [(0, 0), (0, 4)], [(0, 1)]))
    @example(case=(np.array([[1], [0], [1], [1]], bool), [(3, 0), (2, 0), (1, 0)], []))
    @example(case=(np.array([[0, 1], [1, 1]], bool), [(0, 0), (1, 1)], [(0, 0)]))
    @example(case=(np.array([[1, 1, 0], [0, 1, 0], [1, 0, 1]], bool), [(0, 0), (1, 1), (2, 2)], [(0, 1)]))
    def test_matches_references_on_any_frame(self, case):
        # covers 1x1, 1xW and Hx1 frames, prompts on closed pixels, several
        # prompts per component and a negative inside a positive's component
        above, pos, neg = case
        out = surrogate_segment(export_with(pos, neg), ScalarMap(above.astype(np.float32)), 0.5)
        expected = np.array(flood_oracle(above, pos, neg), dtype=np.uint8)
        assert np.array_equal(out.bits, expected)
        assert np.array_equal(out.bits, labelled_reference(above, pos, neg))

    def test_serpentine_128(self):
        above = serpentine(128)
        gt_like = ScalarMap(above.astype(np.float32))
        assert ndimage.label(above)[1] == 1
        out = surrogate_segment(export_with([(0, 0)], []), gt_like, 0.5)
        assert np.array_equal(out.bits, above.astype(np.uint8))
        assert np.array_equal(out.bits, labelled_reference(above, [(0, 0)], []))
        vetoed = surrogate_segment(export_with([(0, 0)], [(126, 64)]), gt_like, 0.5)
        assert vetoed.foreground_count == 0

    def test_scaled_prompts_map_back_to_grid(self):
        gt_like = disk_intensity(16, 16, 8, 8, 4)
        export = PromptSet(
            positives=np.array([[8, 8]]),
            sources=(MEAN_TAG,),
            negatives=np.empty((0, 2), dtype=np.int64),
            k_used=1,
            seed=0,
            scale=14,
            n_regions=1,
        )
        out = surrogate_segment(export, gt_like, 0.5)
        assert out.foreground_count == (gt_like.values >= 0.5).sum()


def shape_error_or(run):
    """What ``run`` returns, or the type and text of the ShapeError it raises."""
    try:
        return run()
    except ShapeError as e:
        return type(e), str(e)


@st.composite
def frames(draw):
    """A 1x1 to 40x40 grid and a scale of 1 to 14."""
    return draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(st.integers(1, 14))


def point_arrays(draw, lo, hi, max_size, avoid=()):
    """An N x 2 int64 array of 0 to ``max_size`` points in [lo, hi), none in ``avoid``."""
    point = st.tuples(st.integers(lo[0], hi[0] - 1), st.integers(lo[1], hi[1] - 1))
    points = draw(st.lists(point.filter(lambda p: p not in avoid), max_size=max_size))
    return np.array(points, dtype=np.int64).reshape(-1, 2)


class TestArrayExportReference:
    """The array export equals the per-point export it replaced: same JSON, mask and ShapeError."""

    @settings(deadline=None, max_examples=300)
    @given(
        frame=frames(),
        data=st.data(),
        taus=st.tuples(*[st.one_of(st.none(), st.floats(-2.0, 2.0))] * 3),
        flags=st.lists(st.sampled_from(["np-disabled-empty-periphery", "np-exhausted-by-positives"]), max_size=1),
    )
    def test_build_export_matches_the_point_loop(self, frame, data, taus, flags):
        h, w, scale = frame
        # points up to two pixels off the grid, and empty sets
        lo, hi = (-2, -2), (h + 2, w + 2)
        pos = point_arrays(data.draw, lo, hi, 8)
        neg = point_arrays(data.draw, lo, hi, 4, avoid=set(map(tuple, pos.tolist())))
        n_mean = data.draw(st.integers(0, len(pos)))
        sources = (MEAN_TAG,) * n_mean + (UNCERTAINTY_TAG,) * (len(pos) - n_mean)
        ps = PromptSet(pos, sources, neg, n_mean, 3, scale, *taus, tuple(flags))
        got = shape_error_or(lambda: build_export(ps, 7, h, w).canonical_json())
        want = shape_error_or(
            lambda: json.dumps(build_export_reference(ps, 7, h, w), sort_keys=True, indent=2) + "\n"
        )
        assert got == want

    @settings(deadline=None, max_examples=300)
    @given(frame=frames(), data=st.data())
    def test_surrogate_matches_the_point_loop(self, frame, data):
        h, w, scale = frame
        above = data.draw(arrays(np.bool_, (h, w)))
        # grid points up to two pixels off the frame; a negative may repeat a positive
        lo, hi = (-2, -2), (h + 2, w + 2)
        export = export_with(point_arrays(data.draw, lo, hi, 6), point_arrays(data.draw, lo, hi, 4), scale)
        got = shape_error_or(lambda: surrogate_segment(export, ScalarMap(above.astype(np.float32)), 0.5).bits)
        # the reference maps the written image points back; build_export would refuse the off-frame ones
        want = shape_error_or(lambda: np.array(surrogate_reference(export.to_dict(), above), dtype=np.uint8))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)


class TestComponentLabels:
    """The sweep's surrogate: components labelled once, then one lookup per prompt set."""

    @settings(deadline=None, max_examples=300)
    @given(case=fill_cases())
    @example(case=(np.ones((1, 1), bool), [(0, 0)], []))
    @example(case=(np.zeros((1, 1), bool), [(0, 0)], [(0, 0)]))
    @example(case=(np.array([[1, 1, 0, 1, 1]], bool), [(0, 0), (0, 4)], [(0, 1)]))
    @example(case=(np.array([[1], [0], [1], [1]], bool), [(3, 0), (1, 0)], [(1, 0)]))
    @example(case=(np.array([[0, 1], [1, 1]], bool), [(0, 0), (1, 1)], [(0, 1)]))
    @example(case=(np.array([[1, 1, 0], [0, 1, 0], [1, 0, 1]], bool), [(0, 0), (1, 1), (2, 2)], [(0, 1)]))
    def test_components_and_their_mask_match_the_flood_oracle(self, case):
        # 1x1, 1xW and Hx1 frames, prompts on closed pixels, and a positive and a
        # negative in one component
        above, pos, neg = case
        labels = label_components(ScalarMap(above.astype(np.float32)), 0.5)
        assert labels.shape == above.shape and np.array_equal(labels > 0, above)
        # label k is the flood of its first pixel, numbered in row-major order of those pixels
        firsts = [int(np.flatnonzero(labels == k)[0]) for k in range(1, labels.max() + 1)]
        assert firsts == sorted(firsts)
        for k, first in enumerate(firsts, start=1):
            flood = np.array(flood_oracle(above, [divmod(first, above.shape[1])], []), dtype=bool)
            assert np.array_equal(labels == k, flood)
        mask = component_mask(export_with(pos, neg), labels)
        assert np.array_equal(mask.bits, np.array(flood_oracle(above, pos, neg), dtype=np.uint8))

    @settings(deadline=None, max_examples=300)
    @given(case=fill_cases(), data=st.data())
    @example(case=(np.zeros((1, 1), bool), [], []), data=None)  # both masks empty: dice 1.0
    @example(case=(np.array([[1, 1, 0, 1, 1]], bool), [(0, 2), (0, 0)], [(0, 1)]), data=None)
    @example(case=(np.array([[1], [0], [1], [1]], bool), [(1, 0), (2, 0)], []), data=None)
    @example(case=(np.array([[1, 1], [0, 1]], bool), [(1, 0)], []), data=None)  # positive on background
    def test_table_dice_equals_the_mask_dice(self, case, data):
        # positives on background, a negative in a positive's component, empty prompt
        # sets, and 1xW and Hx1 frames; the sweep scores every cell from one table
        above, pos, neg = case
        gt = above if data is None else data.draw(arrays(np.bool_, above.shape))
        truth = BitMask(gt.astype(np.uint8))
        labels = label_components(ScalarMap(above.astype(np.float32)), 0.5)
        export = export_with(pos, neg)
        got = table_dice(kept_components(export, labels), component_table(labels, truth))
        want = dice(component_mask(export, labels), truth)
        assert type(got) is float and got == want == flood_dice_oracle(above, pos, neg, gt)

    def test_table_of_a_misaligned_truth_fails_as_dice_does(self):
        labels = label_components(ScalarMap(np.ones((2, 3), np.float32)), 0.5)
        got = shape_error_or(lambda: component_table(labels, BitMask(np.ones((3, 2), np.uint8))))
        assert got == (ShapeError, "dice operands differ in shape")

    @pytest.mark.parametrize(
        "pos, neg, named",
        [
            ([(1, 1), (9, 2)], [(-1, 3)], "x=35, y=133"),  # both off the frame: the positive is named
            ([(1, 1)], [(2, 2), (3, 8)], "x=119, y=49"),  # only a negative off the frame
        ],
    )
    def test_out_of_frame_positives_are_reported_before_negatives(self, pos, neg, named):
        above = disk_intensity(8, 8, 4, 4, 2).values >= 0.5
        labels = label_components(ScalarMap(above.astype(np.float32)), 0.5)
        export = export_with(pos, neg, scale=14)
        got = shape_error_or(lambda: component_mask(export, labels))
        assert got == (ShapeError, f"prompt ({named}) is out of bounds for a 8x8 map")
        assert got == shape_error_or(lambda: surrogate_reference(export.to_dict(), above))


class TestDice:
    def test_identical_masks(self):
        m = BitMask(np.eye(5, dtype=np.uint8))
        assert dice(m, m) == 1.0

    def test_disjoint_masks(self):
        a = BitMask(np.array([[1, 0], [0, 0]], dtype=np.uint8))
        b = BitMask(np.array([[0, 0], [0, 1]], dtype=np.uint8))
        assert dice(a, b) == 0.0

    def test_half_coverage(self):
        gt = np.zeros((10, 10), dtype=np.uint8)
        gt[:4, :5] = 1  # 20 pixels
        pred = np.zeros_like(gt)
        pred[:2, :5] = 1  # half of gt, no false positives
        assert dice(BitMask(pred), BitMask(gt)) == pytest.approx(2 * 10 / (10 + 20))

    def test_both_empty(self):
        e = BitMask(np.zeros((3, 3), dtype=np.uint8))
        assert dice(e, e) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dice(BitMask(np.zeros((2, 2), dtype=np.uint8)), BitMask(np.zeros((3, 3), dtype=np.uint8)))

    @pytest.mark.parametrize("seed", range(5))
    def test_range_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = BitMask((rng.random((8, 8)) < 0.4).astype(np.uint8))
        b = BitMask((rng.random((8, 8)) < 0.4).astype(np.uint8))
        d = dice(a, b)
        assert 0.0 <= d <= 1.0
        assert d == dice(b, a)


class TestAblation:
    def test_single_toggle_row_counts(self, tmp_path):
        fams = [PhantomSpec(family="disk")]
        report = ablation_run(fams, [(True, True, True)], seeds=[0, 1, 2])
        assert len(report.rows) == 3
        assert all(r.status == "ok" for r in report.rows)
        csv_path = tmp_path / "r.csv"
        report.write_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "family,mmp,ump,np,n_f,seed,dice,status"
        assert len(lines) == 4

    def test_nf_sweep_cardinality(self):
        fams = [PhantomSpec(family="disk")]
        report = ablation_run(
            fams, [(True, True, True)], nf_values=[1, 5, 15, 30, 60], seeds=[0, 1]
        )
        assert len(report.rows) == 1 * 1 * 5 * 2

    def test_failed_rows_are_flagged_not_dropped(self, monkeypatch):
        real = pl._select  # select_prompts with the sweep's memo: the per-cell step

        def flaky(memo, positives, neg_map, cfg, neg_seed):
            if cfg.seed == 1:
                raise EmptyMaskError("synthetic failure")
            return real(memo, positives, neg_map, cfg, neg_seed)

        monkeypatch.setattr(pl, "_select", flaky)
        report = pl.ablation_run(
            [PhantomSpec(family="disk")], [(True, True, True)], seeds=[0, 1, 2]
        )
        assert len(report.rows) == 3
        statuses = {r.seed: r.status for r in report.rows}
        assert statuses[0] == "ok" and statuses[2] == "ok"
        assert statuses[1].startswith("failed:")
        assert report.rows[1].dice is None

    @pytest.mark.parametrize("contrast, noise", [(1.0, 0.0), (0.4, 0.1), (0.2, 0.3)])
    def test_csv_bytes_match_the_per_cell_reference(self, tmp_path, contrast, noise):
        families = [PhantomSpec(family=f, size=16, contrast=contrast, noise=noise) for f in FAMILIES]
        args = (families, VALID_TOGGLES, [0, 1, 5, 30, 60, 500, 5], [0, 1, 2])
        ablation_run(*args).write_csv(tmp_path / "got.csv")
        reference_ablation(*args).write_csv(tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert b"failed: n_min, n_neg, radius, n_regions and scale must be >= 1" in got  # nf 0

    @pytest.mark.parametrize(
        "stage, bad, fails",
        [
            # the seeds of one (family, seed), shared by every n_f: like a real
            # seeding failure it depends on the seed stream (sweep seed 1), not on n
            ("farthest_point_seeds", lambda args: args[2].entropy == 1, lambda row: row.seed == 1),
            # the periphery row
            ("periphery_mask", lambda args: True, lambda row: row.np),
            # the negative-path-off product at n_f 5: 5 regional rows
            ("similarity_scores", lambda args: len(args[0]) == 5, lambda row: not row.np and row.n_f == 5),
            # the negative-path-on product at n_f 5: 5 regional rows and the periphery row;
            # the off row set then has no sibling maps and computes its own
            ("similarity_scores", lambda args: len(args[0]) == 6, lambda row: row.np and row.n_f == 5),
        ],
    )
    def test_a_shared_stage_failure_fails_its_cells_as_before(self, monkeypatch, stage, bad, fails):
        real = getattr(pl, stage)

        def broken(*args):
            if bad(args):
                raise EmptyMaskError(f"synthetic {stage} failure")
            return real(*args)

        for module in (pl, sm):  # the reference reaches the product through maup.simmaps
            if hasattr(module, stage):
                monkeypatch.setattr(module, stage, broken)
        args = ([PhantomSpec(family="disk"), PhantomSpec(family="ellipse")], VALID_TOGGLES, [1, 5], [0, 1])
        report = ablation_run(*args)
        assert report == reference_ablation(*args)
        for row in report.rows:
            assert row.status == (f"failed: synthetic {stage} failure" if fails(row) else "ok"), row

    # counted stages of one sweep call, in the order of its expected counts
    SHARED_STAGES = [
        "phantom_draws",  # one seed's random draws, shared by the families of one size and channel count
        "paint_phantom",  # one phantom per (family, seed)
        "episode_seed_streams",  # one per (family, seed)
        "farthest_point_seeds",  # one seeding per (family, seed), a prefix per n_f
        "periphery_mask",  # one band per (family, seed), none without the negative path
        "seed_distances",  # one seed-to-foreground distance matrix per (family, seed)
        "voronoi_labels",  # one support per (family, n_f, seed), from a prefix of the distance rows
        "regional_prototypes",
        "query_side",  # one float64 query and its pixel norms per (family, seed)
        "similarity_scores",  # one product per row set: negative path off, on
        "rounded_cosines",  # one epilogue per row set, less the off row sets that take their sibling's maps
        "label_components",  # one component labelling per (family, seed)
        "component_table",  # one table of component and ground-truth pixel counts per (family, seed)
        "_positives",  # positive_prompts, one per distinct (maps, mmp, ump)
        "_select",  # select_prompts, per cell
    ]
    EPILOGUES = SHARED_STAGES.index("rounded_cosines")
    NFS = [1, 5, 15, 30, 60]

    def shared_work(self, monkeypatch, tmp_path, toggles):
        """Stage calls of one sweep call over every family and five n_f; its CSV must equal the reference.

        The counts come in SHARED_STAGES order, then K-means calls on the mean
        path and on the negative path, then uncertainty thresholds.
        """
        counts = dict.fromkeys(self.SHARED_STAGES, 0)

        def counting(name):
            real = getattr(pl, name)

            def counted(*args):
                counts[name] += 1
                return real(*args)

            return counted

        for name in self.SHARED_STAGES:
            monkeypatch.setattr(pl, name, counting(name))
        roles = Counter()
        real_kmeans = mp.kmeans

        def kmeans_by_role(points, k, seed):
            roles[kmeans_role(seed)] += 1
            return real_kmeans(points, k, seed)

        monkeypatch.setattr(mp, "kmeans", kmeans_by_role)
        real_thresholded, thresholds = mp._thresholded, Counter()

        def thresholded_by_role(map_, percentile, tag):
            thresholds[tag] += 1
            return real_thresholded(map_, percentile, tag)

        monkeypatch.setattr(mp, "_thresholded", thresholded_by_role)
        families = [PhantomSpec(family=f, contrast=0.4, noise=0.1) for f in FAMILIES]
        args = (families, toggles, self.NFS, [0])
        report = ablation_run(*args)
        assert len(report.rows) == 20 * len(toggles) and all(r.status == "ok" for r in report.rows)
        got = tuple(counts.values()) + (roles["mean"], roles["negative"], thresholds["uncertainty"])
        report.write_csv(tmp_path / "got.csv")
        reference_ablation(*args).write_csv(tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        return got

    def unequal_siblings(self):
        """(family, n_f) pairs of the sweep whose off product differs from the on product's regional rows.

        Whether a P-row product equals the first P rows of a (P+1)-row one
        depends on the BLAS kernel (a one-row product is a matrix-vector
        product), so the count of epilogues is derived, not assumed.
        """
        out = []
        for f in FAMILIES:
            ph = generate_phantom(PhantomSpec(family=f, contrast=0.4, noise=0.1, seed=0))
            feats, _ = sm.query_side(ph.query_features)
            for nf in self.NFS:
                support = prepare_support(ph.support_features, ph.support_mask, PromptConfig(n_regions=nf, seed=0))
                on = sm.similarity_scores(np.vstack([support.protos, support.periphery]), feats)
                if not np.array_equal(sm.similarity_scores(support.protos, feats), on[:-1]):
                    out.append((f, nf))
        return out

    def distinct_clusterings(self, toggles):
        """(mean, negative, uncertainty): distinct K-means and uncertainty-threshold inputs over the
        sweep's cells, each run as its own episode.

        A sweep runs K-means once per distinct (candidate points, k) of a role
        within a (family, seed), and thresholds each distinct uncertainty map
        once. Which candidate sets and maps repeat across n_f depends on the
        maps, and so on the BLAS kernel, so the counts are derived, not assumed.
        """
        inputs, uncertainty = set(), set()
        real_kmeans = mp.kmeans

        def recorded(points, k, seed):
            inputs.add((family, kmeans_role(seed), np.asarray(points).tobytes(), k))
            return real_kmeans(points, k, seed)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mp, "kmeans", recorded)
            for family in FAMILIES:
                ph = generate_phantom(PhantomSpec(family=family, contrast=0.4, noise=0.1, seed=0))
                for (mmp, ump, np_), nf in itertools.product(toggles, self.NFS):
                    cfg = PromptConfig(mmp=mmp, ump=ump, np=np_, n_regions=nf, seed=0, scale=1)
                    res = execute_episode(ph.support_features, ph.support_mask, ph.query_features, cfg)
                    if ump:
                        uncertainty.add((family, res.uncertainty.values.tobytes()))
        roles = Counter(role for _, role, _, _ in inputs)
        return roles["mean"], roles["negative"], len(uncertainty)

    def test_shared_work_per_sweep_call(self, monkeypatch, tmp_path):
        # positives: ump and mmp+ump; mmp+ump+np shares the mmp+ump ones, its maps being equal.
        # Epilogues: 20 on row sets, and an off row set only where its product is not the
        # on product's regional rows (at n_f 1 in every family with this numpy and BLAS).
        # K-means: once per distinct candidate set and role in each family; the uncertainty
        # threshold once per distinct uncertainty map, which ump and mmp+ump rows share
        unequal = len(self.unequal_siblings())
        clusterings = self.distinct_clusterings(SWEEP_TOGGLES)
        assert 0 < clusterings[0] < 40 and 0 < clusterings[1] < 20  # fewer than one per cell that clusters
        assert 0 < clusterings[2] <= 20  # at most one per (family, n_f), not one per positive selection
        want = (1, 4, 4, 4, 4, 4, 20, 20, 4, 40, 20 + unequal, 4, 4, 40, 60) + clusterings
        assert self.shared_work(monkeypatch, tmp_path, SWEEP_TOGGLES) == want

    @pytest.mark.parametrize(
        "toggles, want",
        [
            (SWEEP_TOGGLES[::-1], (1, 4, 4, 4, 4, 4, 20, 20, 4, 40, None, 4, 4, 40, 60)),  # None: 20 + unequal
            ([(True, True, True)], (1, 4, 4, 4, 4, 4, 20, 20, 4, 20, 20, 4, 4, 20, 20)),
            (SWEEP_TOGGLES[:2], (1, 4, 4, 4, 0, 4, 20, 20, 4, 20, 20, 4, 4, 40, 40)),
        ],
        ids=["reversed", "all-on", "np-off-rows"],
    )
    def test_shared_work_in_any_toggle_order_or_subset(self, monkeypatch, tmp_path, toggles, want):
        i = self.EPILOGUES
        epilogues = want[i] if want[i] is not None else 20 + len(self.unequal_siblings())
        want = want[:i] + (epilogues,) + want[i + 1 :] + self.distinct_clusterings(toggles)
        assert self.shared_work(monkeypatch, tmp_path, toggles) == want

    def test_unequal_maps_select_positives_per_row_set(self, monkeypatch, tmp_path):
        # the regional rows of the negative-path-on product at n_f 5 (5 regional
        # rows and the periphery row) move up by one float32 epsilon, relative, at
        # pixel (0, 0): the off product no longer equals them, so the off row set
        # runs its own epilogue and, its maps differing, selects its own mmp+ump
        # positives, while the other groups still share theirs
        real_scores, real_cosines, real_positives = sm.similarity_scores, pl.rounded_cosines, pl._positives
        epilogues, calls = [], []

        def nudged(protos, feats):
            scores = real_scores(protos, feats)
            if len(protos) == 6:
                scores[:-1, 0] += np.abs(scores[:-1, 0]) * np.finfo(np.float32).eps
            return scores

        def counted_cosines(scores, protos, pix_norm):
            epilogues.append(len(protos))
            return real_cosines(scores, protos, pix_norm)

        def counted(memo, mean, uncert, cfg, seed):
            calls.append((cfg.n_regions, cfg.mmp))
            return real_positives(memo, mean, uncert, cfg, seed)

        for module in (pl, sm):  # the reference reaches the product through maup.simmaps
            monkeypatch.setattr(module, "similarity_scores", nudged)
        monkeypatch.setattr(pl, "rounded_cosines", counted_cosines)
        monkeypatch.setattr(pl, "_positives", counted)  # positive_prompts with the sweep's memo
        families = [PhantomSpec(family=f, contrast=0.4, noise=0.1) for f in FAMILIES]
        args = (families, SWEEP_TOGGLES, self.NFS, [0])
        ablation_run(*args).write_csv(tmp_path / "got.csv")
        assert Counter(epilogues)[5] == len(FAMILIES)  # the nudged group's off row set, once per family
        assert len(calls) == 40 + len(FAMILIES)
        per_nf = Counter(nf for nf, mmp in calls if mmp)  # mmp+ump selections per n_f, over the families
        assert per_nf == {nf: (2 if nf == 5 else 1) * len(FAMILIES) for nf in self.NFS}
        reference_ablation(*args).write_csv(tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @settings(deadline=None, max_examples=25)
    @given(
        family=st.sampled_from(FAMILIES),
        size=st.sampled_from([16, 24, 32]),
        channels=st.integers(3, 16),
        nfs=st.lists(st.integers(2, 40), max_size=3).map(lambda nfs: [1] + nfs),
        seed=st.integers(0, 5),
        refuse=st.booleans(),
    )
    @example(family="disk", size=32, channels=16, nfs=[1, 5, 30], seed=0, refuse=False)
    @example(family="two-lobe", size=32, channels=16, nfs=[1, 5, 30], seed=0, refuse=True)
    def test_every_cell_equals_its_own_episode(self, family, size, channels, nfs, seed, refuse):
        # an off row set takes its on sibling's maps exactly when its product equals the
        # on product's regional rows; with `refuse`, every product with an odd row count
        # moves up one ulp at pixel 0, so no on/off pair is equal and every off row set
        # computes its own maps. Either way each cell's maps, prompts and CSV row are
        # those of its own fresh execute_episode
        real_scores, real_episode, cells = pl.similarity_scores, pl._episode, []

        def nudged(protos, feats):
            scores = real_scores(protos, feats)
            if len(scores) % 2:
                scores[0, 0] = np.nextafter(scores[0, 0], np.inf)
            return scores

        def recorded(memo, f, m, q, cfg, n_seeds):
            res = real_episode(memo, f, m, q, cfg, n_seeds)
            cells.append((cfg, res))
            return res

        spec = PhantomSpec(family=family, size=size, channels=channels, contrast=0.4, noise=0.1)
        ph = generate_phantom(replace(spec, seed=seed))
        h, w = ph.query_features.height, ph.query_features.width
        with pytest.MonkeyPatch.context() as patch:
            if refuse:
                patch.setattr(pl, "similarity_scores", nudged)
            with pytest.MonkeyPatch.context() as recording:
                recording.setattr(pl, "_episode", recorded)
                report = ablation_run([spec], SWEEP_TOGGLES, nfs, [seed])
            assert len(cells) == len(report.rows) == 3 * len(nfs)
            rows = []
            for cfg, res in cells:
                fresh = execute_episode(ph.support_features, ph.support_mask, ph.query_features, cfg)
                assert episode_bytes(res, h, w) == episode_bytes(fresh, h, w)
                export = build_export(fresh.prompts, fresh.n_regions, h, w)
                d = dice(surrogate_segment(export, ph.query_intensity, 0.5), ph.query_gt)
                rows.append(AblationRow(family, cfg.mmp, cfg.ump, cfg.np, cfg.n_regions, seed, d, "ok"))
            assert report.rows == tuple(sorted(rows, key=AblationRow.sort_key))

            feats, _ = sm.query_side(ph.query_features)
            for nf in nfs:
                on = next(res for cfg, res in cells if cfg.n_regions == nf and cfg.np)
                offs = [res for cfg, res in cells if cfg.n_regions == nf and not cfg.np]
                support = prepare_support(ph.support_features, ph.support_mask, PromptConfig(n_regions=nf, seed=seed))
                n = len(support.protos)
                on_rows = support.protos if support.periphery is None else np.vstack([support.protos, support.periphery])
                equal = np.array_equal(pl.similarity_scores(support.protos, feats), pl.similarity_scores(on_rows, feats)[:n])
                assert all((off.mean is on.mean) == equal for off in offs), (nf, equal)
                assert not (refuse and equal)

    @pytest.mark.parametrize("toggles", [SWEEP_TOGGLES, SWEEP_TOGGLES[::-1]], ids=["forward", "reversed"])
    def test_every_cell_exports_the_prompts_of_its_own_episode(self, toggles):
        # Dice cannot see a negative or an uncertainty pick that moves, so every cell's exported
        # PromptSet is compared with a fresh episode's. Cells share K-means runs by candidate set,
        # and a shared mean-path run hands on the generator state the uncertainty picks draw from
        real_episode, real_export, cells, exports = pl._episode, pl.build_export, [], []

        def recorded(memo, f, m, q, cfg, n_seeds):
            cells.append((f, m, q, cfg))
            return real_episode(memo, f, m, q, cfg, n_seeds)

        def captured(prompts, n_regions, height, width):
            exports.append(real_export(prompts, n_regions, height, width))
            return exports[-1]

        families = [PhantomSpec(family=f, contrast=0.4, noise=0.1) for f in FAMILIES]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pl, "_episode", recorded)
            patch.setattr(pl, "build_export", captured)
            report = ablation_run(families, toggles, self.NFS, [0, 1, 2])
        assert len(cells) == len(exports) == len(report.rows) == len(FAMILIES) * 3 * len(self.NFS) * 3
        assert all(r.status == "ok" for r in report.rows)
        for (f, m, q, cfg), got in zip(cells, exports):
            fresh = execute_episode(f, m, q, cfg)
            want = build_export(fresh.prompts, fresh.n_regions, q.height, q.width)
            assert got.canonical_json() == want.canonical_json(), cfg
        covered = Counter((cfg.mmp, cfg.ump, cfg.np, cfg.n_regions, cfg.seed) for _, _, _, cfg in cells)
        assert set(covered.values()) == {len(FAMILIES)}  # each cell once per family

    def test_a_failing_band_is_computed_once_per_family_and_seed(self, monkeypatch):
        calls = []

        def broken(*args):
            calls.append(args)
            raise EmptyMaskError("synthetic periphery_mask failure")

        monkeypatch.setattr(pl, "periphery_mask", broken)
        families = [PhantomSpec(family="disk"), PhantomSpec(family="ellipse")]
        args = (families, SWEEP_TOGGLES, [1, 5, 15], [0, 1])
        report = ablation_run(*args)
        assert len(calls) == 2 * 2  # (family, seed) pairs
        assert report == reference_ablation(*args)
        for row in report.rows:
            assert row.status == ("failed: synthetic periphery_mask failure" if row.np else "ok"), row

    def test_phantom_generated_once_per_family_and_seed(self, monkeypatch):
        import maup.pipeline as pl

        calls, draws = [], []
        real_paint, real_draws = pl.paint_phantom, pl.phantom_draws

        def counted(spec, d):
            calls.append((spec.family, spec.seed))
            return real_paint(spec, d)

        def counted_draws(seed, size, channels):
            draws.append(seed)
            return real_draws(seed, size, channels)

        monkeypatch.setattr(pl, "paint_phantom", counted)
        monkeypatch.setattr(pl, "phantom_draws", counted_draws)
        fams = [PhantomSpec(family="disk"), PhantomSpec(family="annulus")]
        report = pl.ablation_run(
            fams, [(True, True, True), (True, True, False)], nf_values=[1, 5], seeds=[0, 1]
        )
        assert len(report.rows) == 2 * 2 * 2 * 2
        assert sorted(calls) == [("annulus", 0), ("annulus", 1), ("disk", 0), ("disk", 1)]
        assert draws == [0, 1]  # one seed's draws at a time, shared by both families

    def test_phantoms_from_shared_draws_equal_their_own(self, monkeypatch):
        # two sizes, two channel counts and noise 0 and > 0 in one sweep: each seed draws once
        # per (size, channels), and every family's phantom is the one its spec generates
        real_paint, painted = pl.paint_phantom, []

        def recorded(spec, draws):
            painted.append((spec, real_paint(spec, draws)))
            return painted[-1][1]

        monkeypatch.setattr(pl, "paint_phantom", recorded)
        families = [
            PhantomSpec("disk", size=16, channels=3, noise=0.0),
            PhantomSpec("two-lobe", size=20, channels=5, noise=0.2, contrast=0.4),
            PhantomSpec("annulus", size=16, channels=3, noise=0.1),
            PhantomSpec("ellipse", size=20, channels=5, noise=0.0),
            PhantomSpec("disk", size=16, channels=5, noise=0.3),
        ]
        report = pl.ablation_run(families, [(True, True, True)], nf_values=[1, 5], seeds=[0, 3, 11])
        assert len(painted) == len(families) * 3 and all(r.status == "ok" for r in report.rows)
        for spec, got in painted:
            assert phantom_bytes(got) == phantom_bytes(generate_phantom_reference(spec)), spec

    def test_failed_phantom_fails_each_of_its_cells(self, monkeypatch):
        import maup.pipeline as pl

        real_paint = pl.paint_phantom

        def flaky(spec, draws):
            if spec.seed == 1:
                raise SpecError("synthetic phantom failure")
            return real_paint(spec, draws)

        monkeypatch.setattr(pl, "paint_phantom", flaky)
        report = pl.ablation_run(
            [PhantomSpec(family="disk")],
            [(True, True, True), (False, True, False)],
            nf_values=[1, 5],
            seeds=[0, 1],
        )
        assert len(report.rows) == 2 * 2 * 2
        failed = [r for r in report.rows if r.seed == 1]
        assert len(failed) == 4
        assert all(r.dice is None and r.status == "failed: synthetic phantom failure" for r in failed)
        assert all(r.status == "ok" for r in report.rows if r.seed == 0)

    def test_cluster_error_fails_cells_not_the_sweep(self, monkeypatch):
        import maup.prompting as mp

        def broken(coords, k, seed):
            raise mp.ClusterError("k-means objective increased")

        monkeypatch.setattr(mp, "lloyd_cluster", broken)
        report = ablation_run([PhantomSpec(family="disk")], [(True, True, True)], seeds=[0, 1])
        assert len(report.rows) == 2
        assert all(r.status == "failed: k-means objective increased" for r in report.rows)

    def test_summary_groups(self):
        report = ablation_run(
            [PhantomSpec(family="disk")],
            [(True, True, True), (False, True, False)],
            seeds=[0, 1],
        )
        summary = report.summary()
        assert len(summary) == 2
        for row in summary:
            assert row[-1] == 2  # two seeds per group

    def test_needs_families_and_toggles(self):
        with pytest.raises(ConfigError):
            ablation_run([], [(True, True, True)])
        with pytest.raises(ConfigError):
            ablation_run([PhantomSpec(family="disk")], [])

    def test_negative_seed_fails_before_any_cell(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pl, "phantom_draws", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="seed"):
            ablation_run([PhantomSpec(family="disk")], [(True, True, True)], seeds=[0, -1])
        assert calls == []

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_threshold_fails_before_any_cell(self, monkeypatch, threshold):
        # a nan threshold segments nothing and would read as dice 0.0 on every ok row
        calls = []
        monkeypatch.setattr(pl, "phantom_draws", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="threshold"):
            ablation_run([PhantomSpec(family="disk")], [(True, True, True)], threshold=threshold)
        assert calls == []

    @pytest.mark.parametrize("seeds", [[], range(3, 1)])
    def test_no_seeds_fails_before_any_cell(self, monkeypatch, seeds):
        # an empty seed list would write a header-only report and read as success
        calls = []
        monkeypatch.setattr(pl, "phantom_draws", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="seed"):
            ablation_run([PhantomSpec(family="disk")], [(True, True, True)], seeds=list(seeds))
        assert calls == []

    def test_export_bounds_guard(self):
        from maup.prompting import PromptSet

        ps = PromptSet(
            positives=np.array([[5, 5]]),
            sources=(MEAN_TAG,),
            negatives=np.empty((0, 2), dtype=np.int64),
            k_used=1,
            seed=0,
            scale=1,
        )
        with pytest.raises(ShapeError):
            build_export(ps, 1, 4, 4)  # point (5,5) outside a 4x4 frame


def phantom_dice(spec: PhantomSpec, cfg: PromptConfig, threshold: float = 0.5) -> float:
    """Generate a phantom, prompt it, segment it with the surrogate, and score it."""
    ph = generate_phantom(spec)
    res = execute_episode(ph.support_features, ph.support_mask, ph.query_features, cfg)
    export = build_export(res.prompts, res.n_regions, ph.query_features.height, ph.query_features.width)
    return dice(surrogate_segment(export, ph.query_intensity, threshold), ph.query_gt)


class TestPoolingCalls:
    """Every prototype of a support, the periphery row included, comes from one pooling call."""

    def count_pools(self, monkeypatch):
        """Count calls of every pooling entry point, on maup.pipeline and on maup.prototypes."""
        counts = {}
        for name in ("regional_prototypes", "periphery_prototype"):
            real = getattr(pp, name)
            counts[name] = 0

            def counted(*args, _name=name, _real=real):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(pp, name, counted)
            monkeypatch.setattr(pl, name, counted, raising=False)
        return counts

    def test_one_pool_per_episode_with_the_negative_path(self, monkeypatch):
        counts = self.count_pools(monkeypatch)
        ph = generate_phantom(PhantomSpec(family="disk", contrast=0.4, noise=0.1, seed=2))
        res = execute_episode(ph.support_features, ph.support_mask, ph.query_features, PromptConfig(seed=2))
        assert res.negative is not None
        assert counts == {"regional_prototypes": 1, "periphery_prototype": 0}

    def test_one_pool_per_family_nf_and_seed(self, monkeypatch):
        counts = self.count_pools(monkeypatch)
        families = [PhantomSpec(family=f, contrast=0.4, noise=0.1) for f in FAMILIES]
        report = ablation_run(families, SWEEP_TOGGLES, nf_values=[1, 5, 15, 30, 60], seeds=[0])
        assert len(report.rows) == 60 and all(r.status == "ok" for r in report.rows)
        assert counts == {"regional_prototypes": 20, "periphery_prototype": 0}


class TestEndToEnd:
    def test_disk_family_dice(self):
        scores = []
        for seed in range(10):
            d = phantom_dice(
                PhantomSpec(family="disk", contrast=1.0, noise=0.0, seed=seed),
                PromptConfig(seed=seed, scale=1),
            )
            scores.append(d)
        assert sum(scores) / len(scores) >= 0.9

    def test_negative_prompts_never_kill_the_organ(self):
        for seed in range(10):
            d_full = phantom_dice(
                PhantomSpec(family="two-lobe", contrast=0.4, noise=0.1, seed=seed),
                PromptConfig(seed=seed, scale=1),
            )
            assert d_full > 0.9, f"seed {seed} lost the organ: {d_full}"
