import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maup.errors import EmptyMaskError, EmptyPeripheryError, ShapeError
from maup.pipeline import prepare_support
from maup.prompting import PromptConfig
from maup.prototypes import periphery_prototype, regional_prototypes
from maup.regions import StructuringElement, farthest_point_seeds, periphery_mask, voronoi_partition
from maup.tensors import BitMask, FeatureMap

from oracles import pool_oracle, pool_reference


def random_case(seed, c=8, h=16, w=16, density=0.3):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((c, h, w)).astype(np.float32)
    bits = (rng.random((h, w)) < density).astype(np.uint8)
    if bits.sum() == 0:
        bits[0, 0] = 1
    return FeatureMap(data), BitMask(bits)


def pool(f, m):
    """Mean feature vector over the set pixels of a mask: the mask pooled as label 0."""
    return regional_prototypes(f, m.bits.astype(np.int64) - 1)[0]


class TestMaskedAveragePool:
    def test_constant_map(self):
        f = FeatureMap(np.full((4, 3, 3), 3.0, dtype=np.float32))
        m = BitMask(np.eye(3, dtype=np.uint8))
        p = pool(f, m)
        assert np.allclose(p, 3.0)

    def test_top_row_mean(self):
        f = FeatureMap(np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32))
        m = BitMask(np.array([[1, 1], [0, 0]], dtype=np.uint8))
        p = pool(f, m)
        assert p.tolist() == [1.5]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop_oracle(self, seed):
        f, m = random_case(seed)
        p = pool(f, m)
        expected = pool_oracle(f.data, m.bits)
        assert np.allclose(p, expected, rtol=1e-6, atol=1e-6)

    def test_empty_mask(self):
        f, _ = random_case(0)
        with pytest.raises(EmptyMaskError):
            pool(f, BitMask(np.zeros((16, 16), dtype=np.uint8)))

    def test_shape_mismatch(self):
        f, _ = random_case(0)
        with pytest.raises(ShapeError):
            pool(f, BitMask(np.ones((4, 4), dtype=np.uint8)))

    def test_linearity(self):
        f, m = random_case(4)
        g, _ = random_case(5)
        combo = FeatureMap(2.0 * f.data + 0.5 * g.data)
        lhs = pool(combo, m)
        rhs = 2.0 * pool(f, m) + 0.5 * pool(g, m)
        assert np.allclose(lhs, rhs, atol=1e-6)

    def test_partition_weighted_mean(self):
        f, m = random_case(6, density=0.5)
        seeds = farthest_point_seeds(m, 4, 0)
        labels = voronoi_partition(m, seeds)
        whole = pool(f, m)
        weighted = np.zeros_like(whole)
        for k in range(len(seeds)):
            region = BitMask(labels == k)
            weighted += region.foreground_count * pool(f, region)
        weighted /= m.foreground_count
        assert np.allclose(whole, weighted, atol=1e-6)


class TestRegionalPrototypes:
    def test_single_region_equals_pool_over_foreground(self):
        f, m = random_case(7)
        labels = voronoi_partition(m, farthest_point_seeds(m, 1, 0))
        ps = regional_prototypes(f, labels)
        assert ps.shape == (1, f.channels)
        assert np.array_equal(ps[0], pool(f, m))

    def test_constant_map_gives_identical_prototypes(self):
        f = FeatureMap(np.full((2, 8, 8), 1.25, dtype=np.float32))
        m = BitMask(np.ones((8, 8), dtype=np.uint8))
        labels = voronoi_partition(m, farthest_point_seeds(m, 5, 1))
        ps = regional_prototypes(f, labels)
        assert ps.shape == (5, 2)
        assert np.allclose(ps, 1.25)

    @pytest.mark.parametrize("seed", range(5))
    def test_each_matches_per_region_pool(self, seed):
        f, m = random_case(seed + 20, density=0.5)
        n = min(6, m.foreground_count)
        labels = voronoi_partition(m, farthest_point_seeds(m, n, seed))
        ps = regional_prototypes(f, labels)
        assert ps.shape == (n, f.channels) and ps.dtype == np.float64
        for i in range(n):
            assert np.array_equal(ps[i], pool(f, BitMask(labels == i)))


    def test_label_map_must_fit_and_use_every_label(self):
        f, _ = random_case(8)
        with pytest.raises(ShapeError):
            regional_prototypes(f, np.zeros((4, 4), dtype=np.int64))
        with pytest.raises(EmptyMaskError):
            regional_prototypes(f, np.full((16, 16), -1))  # nothing labelled
        gap = np.full((16, 16), -1)
        gap[0, 0] = 1  # label 0 unused
        with pytest.raises(EmptyMaskError):
            regional_prototypes(f, gap)


class TestPeripheryPrototype:
    def test_constant_map(self):
        f = FeatureMap(np.full((3, 6, 6), -2.0, dtype=np.float32))
        bits = np.zeros((6, 6), dtype=np.uint8)
        bits[3, 3] = 1
        ring = periphery_mask(BitMask(bits), StructuringElement.disk(1))
        p = periphery_prototype(f, ring)
        assert np.allclose(p, -2.0)

    def test_ramp_ring_mean(self):
        # one channel whose value equals the column index
        data = np.tile(np.arange(6, dtype=np.float32), (6, 1))[None]
        f = FeatureMap(data)
        bits = np.zeros((6, 6), dtype=np.uint8)
        bits[2, 2] = 1
        ring = periphery_mask(BitMask(bits), StructuringElement.disk(1))
        # ring pixels: (1,2) (3,2) (2,1) (2,3) -> columns 2, 2, 1, 3
        assert periphery_prototype(f, ring).tolist() == [2.0]

    def test_equals_the_band_pooled_as_one_label(self):
        f, m = random_case(9)
        ring = periphery_mask(m, StructuringElement.disk(2))
        assert ring.foreground_count
        assert np.array_equal(periphery_prototype(f, ring), pool(f, ring))

    def test_shape_mismatch(self):
        f, _ = random_case(0)
        with pytest.raises(ShapeError):
            periphery_prototype(f, BitMask(np.ones((4, 4), dtype=np.uint8)))

    def test_empty_periphery(self):
        f = FeatureMap(np.zeros((1, 3, 3), dtype=np.float32))
        with pytest.raises(EmptyPeripheryError):
            periphery_prototype(f, BitMask(np.zeros((3, 3), dtype=np.uint8)))


def spread_features(rng, c, h, w):
    """Float32 features with channel scales from 1e-30 to 1e30 and pixels spread over
    twelve decades within a channel, so float64 sums round and their order shows in the bits."""
    scale = 10.0 ** rng.uniform(-30, 30, size=(c, 1, 1))
    spread = 10.0 ** rng.uniform(-6, 6, size=(c, h, w))
    return FeatureMap((rng.standard_normal((c, h, w)) * scale * spread).astype(np.float32))


def assert_pools_bit_exact(f, labels):
    want = pool_reference(f.data, labels)
    assert regional_prototypes(f, labels).tobytes() == want.tobytes()
    for k in range(len(want)):
        assert periphery_prototype(f, BitMask(labels == k)).tobytes() == want[k].tobytes()


class TestBitExactPooling:
    """One sort and one gather give every row the bytes of a per-label boolean-mask pool."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        n_labels=st.integers(1, 12),
        holes=st.sampled_from([0.0, 0.3, 0.9]),
        channels=st.integers(1, 24),
    )
    @example(seed=1, shape=(1, 37), n_labels=5, holes=0.3, channels=7)
    @example(seed=2, shape=(29, 1), n_labels=5, holes=0.3, channels=7)
    @example(seed=3, shape=(1, 1), n_labels=1, holes=0.0, channels=1)
    def test_random_label_maps_with_holes(self, seed, shape, n_labels, holes, channels):
        h, w = shape
        rng = np.random.default_rng(seed)
        n_labels = min(n_labels, h * w)
        labels = rng.integers(0, n_labels, size=(h, w))
        labels[rng.random((h, w)) < holes] = -1
        labels.ravel()[rng.permutation(h * w)[:n_labels]] = np.arange(n_labels)  # every label occurs
        assert_pools_bit_exact(spread_features(rng, channels, h, w), labels)

    def test_label_past_the_reduction_buffer(self):
        # label 0 holds 16,351 pixels, twice numpy's 8,192-element reduction buffer
        rng = np.random.default_rng(5)
        labels = np.zeros((130, 130), dtype=np.int64)
        others = rng.permutation(130 * 130)[:549]
        labels.ravel()[others] = np.repeat([-1, 1, 2], 183)
        assert int((labels == 0).sum()) == 16351
        assert_pools_bit_exact(spread_features(rng, 3, 130, 130), labels)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
        n_regions=st.integers(1, 40),
        radius=st.integers(1, 6),
    )
    @example(seed=4, shape=(1, 20), n_regions=3, radius=2)
    @example(seed=5, shape=(20, 1), n_regions=3, radius=2)
    def test_band_pooled_as_label_p(self, seed, shape, n_regions, radius):
        rng = np.random.default_rng(seed)
        bits = (rng.random(shape) < 0.4).astype(np.uint8)
        bits.ravel()[rng.integers(bits.size)] = 1
        mask, f = BitMask(bits), spread_features(rng, 5, *shape)
        labels = voronoi_partition(mask, farthest_point_seeds(mask, min(n_regions, int(bits.sum())), seed))
        band = periphery_mask(mask, StructuringElement.disk(radius))
        p = int(labels.max()) + 1
        assert_pools_bit_exact(f, np.where(band.bits == 1, p, labels))

        support = prepare_support(f, mask, PromptConfig(n_regions=n_regions, seed=seed, radius=radius))
        assert support.protos.tobytes() == pool_reference(f.data, support.labels).tobytes()
        if band.foreground_count:
            want = pool_reference(f.data, band.bits.astype(np.int64) - 1)[0]
            assert support.periphery.tobytes() == want.tobytes()
            assert periphery_prototype(f, band).tobytes() == want.tobytes()
        else:
            assert support.periphery is None
