import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maup.errors import ConfigError, EmptyMaskError, SeedError
from maup.regions import (
    StructuringElement,
    dilate,
    farthest_point_seeds,
    periphery_mask,
    seed_distances,
    voronoi_labels,
    voronoi_partition,
)
from maup.tensors import BitMask

from oracles import area_and_perimeter, dilate_oracle, disk_offsets, perimeter_oracle, voronoi_oracle


def random_mask(seed, h=16, w=16, density=0.3, non_empty=True):
    rng = np.random.default_rng(seed)
    bits = (rng.random((h, w)) < density).astype(np.uint8)
    if non_empty and bits.sum() == 0:
        bits[rng.integers(h), rng.integers(w)] = 1
    return BitMask(bits)


def oracle_labels(fg, seeds):
    """The label map voronoi_oracle's assignment describes, -1 off the foreground."""
    want = np.full(fg.bits.shape, -1, dtype=np.int64)
    for (y, x), i in voronoi_oracle(fg.bits, seeds.tolist()).items():
        want[y, x] = i
    return want


def assert_label_map_invariants(labels, fg, n):
    """-1 exactly off the foreground, and every label in [0, n) used at least once."""
    assert labels.shape == fg.bits.shape
    assert np.array_equal(labels >= 0, fg.bits == 1)
    assert (labels >= -1).all()
    assert np.array_equal(np.unique(labels[labels >= 0]), np.arange(n))


def disk_mask(h, w, cy, cx, r):
    yy, xx = np.ogrid[:h, :w]
    return BitMask((((yy - cy) ** 2 + (xx - cx) ** 2) <= r * r).astype(np.uint8))


class TestStructuringElement:
    def test_radius_one_is_plus_shape(self):
        assert set(disk_offsets(1)) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_offsets_follow_radius_rule(self, r):
        offsets = disk_offsets(r)
        assert all(dy * dy + dx * dx <= r * r for dy, dx in offsets)
        assert (0, 0) in offsets
        assert set(offsets) == {(-dy, -dx) for dy, dx in offsets}

    def test_bad_radius(self):
        with pytest.raises(ConfigError):
            StructuringElement.disk(0)

    def test_offsets_come_from_the_radius_alone(self):
        with pytest.raises(TypeError):
            StructuringElement(radius=1, offsets=((0, 0), (0, 1)))
        with pytest.raises(FrozenInstanceError):
            StructuringElement.disk(1).offsets = ((0, 0),)


class TestFarthestPointSeeds:
    def test_two_pixels_both_selected(self):
        bits = np.zeros((1, 11), dtype=np.uint8)
        bits[0, 0] = bits[0, 10] = 1
        for seed in range(5):
            pts = farthest_point_seeds(BitMask(bits), 2, seed)
            assert pts.dtype == np.int64 and pts.shape == (2, 2)
            assert set(map(tuple, pts.tolist())) == {(0, 0), (0, 10)}

    def test_row_second_seed_is_far_end(self):
        bits = np.ones((1, 11), dtype=np.uint8)
        fg = BitMask(bits)
        # find a seed whose first uniform draw lands on column 0
        for seed in range(100):
            first = np.random.default_rng(seed).integers(11)
            if first == 0:
                pts = farthest_point_seeds(fg, 2, seed)
                assert pts[0].tolist() == [0, 0]
                assert pts[1].tolist() == [0, 10]
                return
        pytest.fail("no seed draws column 0 first")

    def test_count_clamped_to_foreground(self):
        fg = random_mask(1, 8, 8, density=0.1)
        pts = farthest_point_seeds(fg, 100, 0)
        assert len(pts) == fg.foreground_count
        assert len(set(map(tuple, pts.tolist()))) == len(pts)

    def test_determinism(self):
        fg = random_mask(2)
        assert np.array_equal(farthest_point_seeds(fg, 6, 42), farthest_point_seeds(fg, 6, 42))

    def test_empty_foreground(self):
        with pytest.raises(EmptyMaskError):
            farthest_point_seeds(BitMask(np.zeros((4, 4), dtype=np.uint8)), 1, 0)

    @settings(deadline=None, max_examples=200)
    @given(
        bits=arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12)), elements=st.integers(0, 1)),
        n=st.integers(1, 40),
        extra=st.integers(0, 150),
        seed=st.integers(0, 2**32 - 1),
        spawned=st.booleans(),
    )
    def test_first_seeds_equal_a_shorter_run(self, bits, n, extra, seed, spawned):
        # greedy: the first draw and the argmax tie rule do not depend on n, so a
        # longer run's first min(n, fg) seeds are the shorter run (ablation sweeps
        # take every n_f's seeds as a prefix of one run)
        assume(bits.any())
        fg = BitMask(bits)
        stream = np.random.SeedSequence(seed).spawn(3)[0] if spawned else seed
        longer = farthest_point_seeds(fg, n + extra, stream)
        assert np.array_equal(farthest_point_seeds(fg, n, stream), longer[: min(n, fg.foreground_count)])

    def test_spread_beats_random_subsets(self):
        fg = disk_mask(32, 32, 16, 16, 12)
        pts = farthest_point_seeds(fg, 30, 0)
        arr = np.asarray(pts, dtype=np.float64)

        def min_pairwise(a):
            d = np.sqrt(((a[:, None, :] - a[None, :, :]) ** 2).sum(-1))
            return d[np.triu_indices(len(a), k=1)].min()

        fps_spread = min_pairwise(arr)
        coords = np.argwhere(fg.bits == 1)
        rng = np.random.default_rng(123)
        random_spreads = []
        for _ in range(1000):
            idx = rng.choice(len(coords), size=30, replace=False)
            random_spreads.append(min_pairwise(coords[idx].astype(np.float64)))
        assert fps_spread >= np.median(random_spreads)


class TestVoronoiPartition:
    def test_single_seed_covers_everything(self):
        fg = random_mask(3)
        seeds = farthest_point_seeds(fg, 1, 0)
        labels = voronoi_partition(fg, seeds)
        assert np.array_equal(labels, np.where(fg.bits == 1, 0, -1))

    def test_row_split_between_two_seeds(self):
        fg = BitMask(np.ones((1, 4), dtype=np.uint8))
        labels = voronoi_partition(fg, [(0, 0), (0, 3)])  # a list of pairs, or an array
        assert labels.tolist() == [[0, 0, 1, 1]]
        assert np.array_equal(voronoi_partition(fg, np.array([[0, 0], [0, 3]])), labels)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_pixel_oracle(self, seed):
        fg = random_mask(seed, h=16, w=16)
        n = min(5, fg.foreground_count)
        seeds = farthest_point_seeds(fg, n, seed)
        labels = voronoi_partition(fg, seeds)
        assert np.array_equal(labels, oracle_labels(fg, seeds))

    @pytest.mark.parametrize("seed", range(15))
    def test_partition_invariants(self, seed):
        fg = random_mask(seed * 7 + 1, h=12, w=12, density=0.4)
        n = min(6, fg.foreground_count)
        labels = voronoi_partition(fg, farthest_point_seeds(fg, n, seed))
        assert_label_map_invariants(labels, fg, n)

    def test_seed_outside_foreground(self):
        fg = BitMask(np.eye(4, dtype=np.uint8))
        with pytest.raises(SeedError):
            voronoi_partition(fg, np.array([[0, 1]]))
        for off_frame in ([4, 0], [0, -1]):
            with pytest.raises(SeedError, match="outside the foreground"):
                voronoi_partition(fg, np.array([[0, 0], off_frame]))

    def test_duplicate_seeds(self):
        fg = BitMask(np.ones((2, 2), dtype=np.uint8))
        with pytest.raises(SeedError):
            voronoi_partition(fg, np.array([[0, 0], [0, 0]]))

    @settings(deadline=None)
    @given(
        bits=st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
            lambda hw: arrays(np.uint8, hw, elements=st.integers(0, 1))
        ),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_label_map_properties(self, bits, n, seed):
        assume(bits.any())
        fg = BitMask(bits)
        seeds = farthest_point_seeds(fg, n, seed)
        labels = voronoi_partition(fg, seeds)
        assert np.array_equal(labels, oracle_labels(fg, seeds))
        assert_label_map_invariants(labels, fg, len(seeds))

    def test_no_seeds(self):
        with pytest.raises(SeedError):
            voronoi_partition(BitMask(np.ones((2, 2), dtype=np.uint8)), [])

    def test_fps_bad_n(self):
        with pytest.raises(ConfigError):
            farthest_point_seeds(BitMask(np.ones((2, 2), dtype=np.uint8)), 0, 0)


def dilate_reference(m, se):
    """``dilate`` as first written: one slice-OR per offset."""
    h, w = m.height, m.width
    out = np.zeros_like(m.bits)
    for dy, dx in disk_offsets(se.radius):
        y0, y1 = max(0, dy), h + min(0, dy)
        x0, x1 = max(0, dx), w + min(0, dx)
        if y0 < y1 and x0 < x1:
            out[y0:y1, x0:x1] |= m.bits[y0 - dy : y1 - dy, x0 - dx : x1 - dx]
    return out


class TestDilate:
    def test_all_zero_stays_zero(self):
        m = BitMask(np.zeros((5, 5), dtype=np.uint8))
        assert dilate(m, StructuringElement.disk(2)).foreground_count == 0

    def test_single_pixel_radius_one_gives_plus(self):
        bits = np.zeros((5, 5), dtype=np.uint8)
        bits[2, 2] = 1
        out = dilate(BitMask(bits), StructuringElement.disk(1))
        expected = np.zeros((5, 5), dtype=np.uint8)
        for y, x in [(2, 2), (1, 2), (3, 2), (2, 1), (2, 3)]:
            expected[y, x] = 1
        assert np.array_equal(out.bits, expected)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_loop_oracle(self, seed, r):
        m = random_mask(seed, 20, 20, density=0.15, non_empty=False)
        se = StructuringElement.disk(r)
        out = dilate(m, se)
        assert np.array_equal(out.bits, np.array(dilate_oracle(m.bits, disk_offsets(r)), dtype=np.uint8))

    @settings(max_examples=300, deadline=None)
    @given(
        bits=st.integers(1, 39).flatmap(
            lambda h: st.integers(1, 39).flatmap(
                lambda w: arrays(np.uint8, (h, w), elements=st.integers(0, 1))
            )
        ),
        se=st.integers(1, 7).map(StructuringElement.disk),
    )
    def test_matches_per_offset_reference(self, bits, se):
        m = BitMask(bits)
        out = dilate(m, se).bits
        want = dilate_reference(m, se)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        bits=st.integers(1, 24).flatmap(
            lambda h: st.integers(1, 24).flatmap(
                lambda w: arrays(np.uint8, (h, w), elements=st.integers(0, 1))
            )
        )
    )
    @example(bits=np.ones((1, 1), dtype=np.uint8))
    @example(bits=np.array([[0, 0, 1, 0, 0, 0, 0]], dtype=np.uint8))
    @example(bits=np.array([[0], [0], [0], [0], [1]], dtype=np.uint8))
    def test_huge_radius_equals_the_frame_bound(self, bits):
        m = BitMask(bits)
        bound = math.isqrt((m.height - 1) ** 2 + (m.width - 1) ** 2) + 1
        want = dilate_reference(m, StructuringElement.disk(bound))
        assert dilate(m, StructuringElement.disk(10**9)).bits.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (5, 6), (6, 6)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_loop_oracle_past_the_frame_bound(self, shape, seed):
        m = random_mask(seed, *shape, density=0.2, non_empty=False)
        bound = math.isqrt((m.height - 1) ** 2 + (m.width - 1) ** 2) + 1
        for r in range(1, bound + 4):
            se = StructuringElement.disk(r)
            want = np.array(dilate_oracle(m.bits, disk_offsets(r)), dtype=np.uint8)
            assert np.array_equal(dilate(m, se).bits, want), r

    def test_large_radius_builds_no_large_disk(self):
        # dilate clamps the radius to the frame's diagonal, so a huge disk walks no more rows
        # than one that just covers a 32x32 frame, and sets the same bits
        m = random_mask(7, 32, 32)
        out = dilate(m, StructuringElement(radius=3200))
        assert np.array_equal(out.bits, dilate(m, StructuringElement.disk(45)).bits)

    def test_extensive_and_increasing(self):
        se = StructuringElement.disk(2)
        m1 = random_mask(11, 12, 12, density=0.2)
        bigger = np.clip(m1.bits + random_mask(12, 12, 12, density=0.1).bits, 0, 1)
        m2 = BitMask(bigger)
        d1, d2 = dilate(m1, se), dilate(m2, se)
        assert np.all(d1.bits >= m1.bits)
        assert np.all(d2.bits >= d1.bits)

    def test_commutes_with_interior_translation(self):
        se = StructuringElement.disk(2)
        bits = np.zeros((20, 20), dtype=np.uint8)
        bits[8:11, 8:11] = np.random.default_rng(5).integers(0, 2, (3, 3), dtype=np.uint8)
        bits[9, 9] = 1
        shifted = np.roll(bits, (2, 3), axis=(0, 1))
        a = np.roll(dilate(BitMask(bits), se).bits, (2, 3), axis=(0, 1))
        b = dilate(BitMask(shifted), se).bits
        assert np.array_equal(a, b)


class TestPeriphery:
    def test_single_pixel_ring(self):
        bits = np.zeros((5, 5), dtype=np.uint8)
        bits[2, 2] = 1
        ring = periphery_mask(BitMask(bits), StructuringElement.disk(1))
        expected = np.zeros((5, 5), dtype=np.uint8)
        for y, x in [(1, 2), (3, 2), (2, 1), (2, 3)]:
            expected[y, x] = 1
        assert np.array_equal(ring.bits, expected)

    def test_full_frame_has_empty_periphery(self):
        full = BitMask(np.ones((4, 4), dtype=np.uint8))
        assert periphery_mask(full, StructuringElement.disk(3)).foreground_count == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_set_algebra(self, seed):
        m = random_mask(seed, 14, 14, density=0.25)
        se = StructuringElement.disk(2)
        ring = periphery_mask(m, se)
        grown = dilate(m, se)
        assert not np.any(ring.bits & m.bits)
        assert np.array_equal(ring.bits | m.bits, grown.bits)


class TestAreaPerimeter:
    """The oracles' whole-array counter that `complexity`'s tests compare with, against the pixel loop."""

    def test_empty(self):
        assert area_and_perimeter(BitMask(np.zeros((3, 3), dtype=np.uint8))) == (0, 0)

    def test_single_pixel(self):
        assert area_and_perimeter(BitMask(np.ones((1, 1), dtype=np.uint8))) == (1, 4)

    def test_three_square_in_five_frame(self):
        bits = np.zeros((5, 5), dtype=np.uint8)
        bits[1:4, 1:4] = 1
        assert area_and_perimeter(BitMask(bits)) == (9, 12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_solid_square_perimeter(self, k):
        bits = np.zeros((k + 2, k + 2), dtype=np.uint8)
        bits[1 : k + 1, 1 : k + 1] = 1
        area, per = area_and_perimeter(BitMask(bits))
        assert (area, per) == (k * k, 4 * k)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_loop_oracle(self, seed):
        m = random_mask(seed, 15, 15, density=0.35, non_empty=False)
        area, per = area_and_perimeter(m)
        assert area == int(m.bits.sum())
        assert per == perimeter_oracle(m.bits)
        assert per <= 4 * area


class TestSeedDistancePrefixes:
    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        density=st.floats(0.05, 1.0),
        n=st.integers(1, 40),
    )
    def test_labels_of_every_prefix_equal_their_own_partition(self, seed, h, w, density, n):
        # a sweep builds one distance matrix for the largest n_f and takes each n_f's labels
        # from its first n_f rows
        fg = random_mask(seed, h, w, density)
        seeds = farthest_point_seeds(fg, n, seed)
        d2 = seed_distances(fg, seeds)
        assert d2.dtype == np.int64 and d2.shape == (len(seeds), fg.foreground_count)
        for m in range(1, len(seeds) + 1):
            labels = voronoi_labels(fg, d2[:m])
            assert np.array_equal(labels, voronoi_partition(fg, seeds[:m]))
            oracle = voronoi_oracle(fg.bits, seeds[:m].tolist())
            assert all(labels[y, x] == k for (y, x), k in oracle.items())
