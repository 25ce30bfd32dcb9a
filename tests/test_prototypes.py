import numpy as np
import pytest

from maup.errors import EmptyMaskError, EmptyPeripheryError, ShapeError
from maup.prototypes import masked_average_pool, periphery_prototype, regional_prototypes
from maup.regions import StructuringElement, farthest_point_seeds, periphery_mask, voronoi_partition
from maup.tensors import BitMask, FeatureMap

from oracles import pool_oracle


def random_case(seed, c=8, h=16, w=16, density=0.3):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((c, h, w)).astype(np.float32)
    bits = (rng.random((h, w)) < density).astype(np.uint8)
    if bits.sum() == 0:
        bits[0, 0] = 1
    return FeatureMap(data), BitMask(bits)


class TestMaskedAveragePool:
    def test_constant_map(self):
        f = FeatureMap(np.full((4, 3, 3), 3.0, dtype=np.float32))
        m = BitMask(np.eye(3, dtype=np.uint8))
        p = masked_average_pool(f, m)
        assert np.allclose(p, 3.0)

    def test_top_row_mean(self):
        f = FeatureMap(np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32))
        m = BitMask(np.array([[1, 1], [0, 0]], dtype=np.uint8))
        p = masked_average_pool(f, m)
        assert p.tolist() == [1.5]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop_oracle(self, seed):
        f, m = random_case(seed)
        p = masked_average_pool(f, m)
        expected = pool_oracle(f.data, m.bits)
        assert np.allclose(p, expected, rtol=1e-6, atol=1e-6)

    def test_empty_mask(self):
        f, _ = random_case(0)
        with pytest.raises(EmptyMaskError):
            masked_average_pool(f, BitMask(np.zeros((16, 16), dtype=np.uint8)))

    def test_shape_mismatch(self):
        f, _ = random_case(0)
        with pytest.raises(ShapeError):
            masked_average_pool(f, BitMask(np.ones((4, 4), dtype=np.uint8)))

    def test_linearity(self):
        f, m = random_case(4)
        g, _ = random_case(5)
        combo = FeatureMap(2.0 * f.data + 0.5 * g.data)
        lhs = masked_average_pool(combo, m)
        rhs = 2.0 * masked_average_pool(f, m) + 0.5 * masked_average_pool(g, m)
        assert np.allclose(lhs, rhs, atol=1e-6)

    def test_partition_weighted_mean(self):
        f, m = random_case(6, density=0.5)
        seeds = farthest_point_seeds(m, 4, 0)
        labels = voronoi_partition(m, seeds)
        whole = masked_average_pool(f, m)
        weighted = np.zeros_like(whole)
        for k in range(len(seeds)):
            region = BitMask(labels == k)
            weighted += region.foreground_count * masked_average_pool(f, region)
        weighted /= m.foreground_count
        assert np.allclose(whole, weighted, atol=1e-6)


class TestRegionalPrototypes:
    def test_single_region_equals_pool_over_foreground(self):
        f, m = random_case(7)
        labels = voronoi_partition(m, farthest_point_seeds(m, 1, 0))
        ps = regional_prototypes(f, labels)
        assert ps.shape == (1, f.channels)
        assert np.array_equal(ps[0], masked_average_pool(f, m))

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
            assert np.array_equal(ps[i], masked_average_pool(f, BitMask(labels == i)))


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

    def test_equals_masked_average_pool(self):
        f, m = random_case(9)
        ring = periphery_mask(m, StructuringElement.disk(2))
        if ring.foreground_count:
            assert np.array_equal(periphery_prototype(f, ring), masked_average_pool(f, ring))

    def test_empty_periphery(self):
        f = FeatureMap(np.zeros((1, 3, 3), dtype=np.float32))
        with pytest.raises(EmptyPeripheryError):
            periphery_prototype(f, BitMask(np.zeros((3, 3), dtype=np.uint8)))
