"""Degenerate inputs: thin and one-pixel grids, one-pixel and full-frame masks, flat and huge features.

Every run either raises a MaupError or keeps the contract: a bit-identical
rerun, every prompt inside the frame, no pixel both a positive and a
negative prompt, and k_used in [n_min, n_max] whenever the mean path is on.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import maup.pipeline as pl
from maup.errors import MaupError
from maup.phantom import Phantom, PhantomSpec
from maup.pipeline import AblationRow, ablation_run, build_export, execute_episode
from maup.prompting import PromptConfig, to_image_xy
from maup.surrogate import dice, surrogate_segment
from maup.tensors import BitMask, FeatureMap, ScalarMap

TOGGLES = [(True, False, False), (False, True, True), (True, True, True)]


@st.composite
def grids(draw):
    """1 x 1, 1 x W or H x 1."""
    n = draw(st.integers(2, 16))
    return draw(st.sampled_from([(1, 1), (1, n), (n, 1)]))


@st.composite
def masks(draw, shape):
    """One set pixel anywhere in the frame, or every pixel set."""
    if draw(st.booleans()):
        return BitMask(np.ones(shape, dtype=np.uint8))
    bits = np.zeros(shape, dtype=np.uint8)
    bits[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] = 1
    return BitMask(bits)


@st.composite
def features(draw, channels, shape):
    """All zero, one constant vector at every pixel, or +-1e30 in every entry."""
    kind = draw(st.sampled_from(["zero", "constant", "huge"]))
    if kind == "zero":
        return FeatureMap(np.zeros((channels, *shape), dtype=np.float32))
    if kind == "constant":
        vec = draw(st.lists(st.sampled_from([0.0, 1.0, -2.5, 1e-30]), min_size=channels, max_size=channels))
        return FeatureMap(np.broadcast_to(np.array(vec, dtype=np.float32)[:, None, None], (channels, *shape)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=channels * shape[0] * shape[1],
                          max_size=channels * shape[0] * shape[1]))
    return FeatureMap((np.array(signs) * 1e30).astype(np.float32).reshape(channels, *shape))


@st.composite
def configs(draw):
    mmp, ump, np_ = draw(st.sampled_from(TOGGLES))
    n_min = draw(st.integers(1, 4))
    return PromptConfig(
        mmp=mmp,
        ump=ump,
        np=np_,
        gamma=draw(st.sampled_from([0.5, 5.0, 1e308])),
        n_min=n_min,
        n_max=n_min + draw(st.integers(0, 6)),
        n_neg=draw(st.integers(1, 4)),
        radius=draw(st.integers(1, 3)),
        n_regions=draw(st.integers(1, 6)),
        percentile=draw(st.sampled_from([1.0, 50.0, 95.0, 99.9])),
        seed=draw(st.integers(0, 2**32 - 1)),
        scale=draw(st.sampled_from([1, 14])),
    )


@st.composite
def episodes(draw):
    channels = draw(st.integers(1, 4))
    support_shape, query_shape = draw(grids()), draw(grids())
    return (
        draw(features(channels, support_shape)),
        draw(masks(support_shape)),
        draw(features(channels, query_shape)),
        draw(masks(query_shape)),
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except MaupError as e:
        return e


def episode_bytes(res, height, width):
    maps = [res.mean, res.uncertainty] + ([res.negative] if res.negative is not None else [])
    text = build_export(res.prompts, res.n_regions, height, width).canonical_json()
    return text, res.partition.tobytes(), [m.values.tobytes() for m in maps]


def assert_same_error(a, b):
    assert type(a) is type(b) and str(a) == str(b)


class TestDegenerateEpisodes:
    @settings(max_examples=300, deadline=None)
    @given(episode=episodes(), cfg=configs())
    def test_error_or_every_invariant(self, episode, cfg):
        support_f, support_m, query_f, _ = episode
        first = outcome(execute_episode, support_f, support_m, query_f, cfg)
        second = outcome(execute_episode, support_f, support_m, query_f, cfg)
        if isinstance(first, MaupError):
            assert_same_error(first, second)
            return
        h, w = query_f.height, query_f.width
        assert episode_bytes(first, h, w) == episode_bytes(second, h, w)
        ps = first.prompts
        positives, negatives = ps.positives.tolist(), ps.negatives.tolist()
        for r, c in positives + negatives:
            assert 0 <= r < h and 0 <= c < w
        assert not set(map(tuple, positives)) & set(map(tuple, negatives))
        assert len(set(map(tuple, positives))) == len(positives)
        if cfg.mmp:
            assert cfg.n_min <= ps.k_used <= cfg.n_max
        export = build_export(ps, first.n_regions, h, w)
        for x, y in to_image_xy(np.concatenate([export.positives, export.negatives]), cfg.scale).tolist():
            assert 0 <= x < w * cfg.scale and 0 <= y < h * cfg.scale


class TestDegenerateSweeps:
    @settings(max_examples=60, deadline=None)
    @given(episode=episodes(), nfs=st.lists(st.integers(1, 5), min_size=1, max_size=2, unique=True),
           seeds=st.lists(st.integers(0, 50), min_size=1, max_size=2, unique=True))
    def test_rows_equal_their_episodes_and_a_rerun(self, episode, nfs, seeds):
        support_f, support_m, query_f, query_gt = episode
        intensity = ScalarMap(query_gt.bits.astype(np.float32))

        def phantom(spec, draws):
            return Phantom(support_f, support_m, query_f, query_gt, intensity)

        spec = PhantomSpec(family="disk")
        original = pl.paint_phantom
        pl.paint_phantom = phantom  # the sweep's phantoms are these tensors, at every seed
        try:
            report = outcome(ablation_run, [spec], TOGGLES, nfs, seeds)
            again = outcome(ablation_run, [spec], TOGGLES, nfs, seeds)
        finally:
            pl.paint_phantom = original
        assert not isinstance(report, MaupError), report  # every cell's failure stays in its row
        assert report.rows == again.rows

        want = []
        for seed, (mmp, ump, np_), nf in ((s, t, n) for s in seeds for t in TOGGLES for n in nfs):
            cfg = replace(PromptConfig(scale=1), mmp=mmp, ump=ump, np=np_, n_regions=nf, seed=seed)
            res = outcome(execute_episode, support_f, support_m, query_f, cfg)
            key = ("disk", mmp, ump, np_, nf, seed)
            if isinstance(res, MaupError):
                want.append(AblationRow(*key, None, f"failed: {res}"))
                continue
            export = build_export(res.prompts, res.n_regions, query_f.height, query_f.width)
            d = outcome(lambda: dice(surrogate_segment(export, intensity, 0.5), query_gt))
            want.append(AblationRow(*key, None, f"failed: {d}") if isinstance(d, MaupError)
                        else AblationRow(*key, d, "ok"))
        assert list(report.rows) == sorted(want, key=AblationRow.sort_key)
