from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maup.prompting as mp
from maup.errors import ClusterError, ConfigError, EmptyCandidateError, MaupError
from maup.prompting import (
    MEAN_TAG,
    UNCERTAINTY_TAG,
    ComplexityScore,
    PromptConfig,
    adaptive_k,
    complexity,
    generate_prompts,
    kmeans,
    lloyd_cluster,
    negative_prompts,
    positive_prompts,
)
from maup.simmaps import extract_candidates, percentile_threshold
from maup.tensors import PointRC, ScalarMap

from oracles import two_means_oracle


def lloyd_reference(coords, k, seed, max_iter=100, tol=1e-4):
    """``lloyd_cluster`` as first written, with a per-cluster ``mean`` loop:
    the bit-exact reference for integer coordinates. It shares the module's
    seeding and assignment, so it differs only in the center update."""
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    rng = np.random.default_rng(seed)
    centers = mp._kmeans_pp_init(coords, k, rng)
    labels, d2 = mp._assign(coords, centers)
    wcss_init = float(d2[np.arange(n), labels].sum())
    for _ in range(max_iter):
        new_centers = centers.copy()
        for j in range(k):
            sel = labels == j
            if sel.any():
                new_centers[j] = coords[sel].mean(axis=0)
        empties = [j for j in range(k) if not (labels == j).any()]
        if empties:
            own_d2 = d2[np.arange(n), labels].copy()
            for j in empties:
                far = int(np.argmax(own_d2))
                new_centers[j] = coords[far]
                own_d2[far] = -1.0
        moved = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        labels, d2 = mp._assign(coords, centers)
        if moved < tol and not empties:
            break
    wcss_final = float(d2[np.arange(n), labels].sum())
    return centers, labels, wcss_init, wcss_final


def scalar(arr):
    return ScalarMap(np.asarray(arr, dtype=np.float32))


def hot_map(h, w, hot_pixels, hot=1.0, cold=0.0):
    vals = np.full((h, w), cold, dtype=np.float32)
    for y, x in hot_pixels:
        vals[y, x] = hot
    return ScalarMap(vals)


class TestComplexity:
    def test_single_hot_pixel_in_ten_frame(self):
        m = hot_map(10, 10, [(4, 4)])
        score = complexity(m, 0.5)
        assert score.area == 1 and score.perimeter == 4
        assert score.area_norm == pytest.approx(0.01)
        assert score.perimeter_norm == pytest.approx(0.1)
        assert score.c == pytest.approx(0.11)

    def test_full_frame(self):
        m = scalar(np.ones((6, 6)))
        score = complexity(m, 0.5)
        assert score.area_norm == pytest.approx(1.0)

    def test_bigger_square_scores_higher(self):
        small = hot_map(10, 10, [(y, x) for y in (4, 5) for x in (4, 5)])
        big = hot_map(10, 10, [(y, x) for y in range(3, 7) for x in range(3, 7)])
        assert complexity(big, 0.5).c > complexity(small, 0.5).c

    def test_nested_solid_squares_are_monotone(self):
        prev = None
        for k in range(1, 8):
            m = hot_map(12, 12, [(y, x) for y in range(2, 2 + k) for x in range(2, 2 + k)])
            c = complexity(m, 0.5).c
            if prev is not None:
                assert c > prev
            prev = c

    def test_empty_binarization_guard(self):
        with pytest.raises(EmptyCandidateError):
            complexity(scalar(np.zeros((4, 4))), 1.0)


class TestAdaptiveK:
    @pytest.mark.parametrize(
        "gamma,c,expected",
        [
            (1.0, 0.0, 3),  # floor(0) clamps up to n_min
            (1.0, 0.4, 3),
            (10.0, 0.76, 7),
            (1.0, 7.6, 7),
            (1.0, 99.0, 10),  # clamps down to n_max
            (5.0, 1.0, 5),
        ],
    )
    def test_clamped_floor(self, gamma, c, expected):
        score = ComplexityScore(area=0, perimeter=0, area_norm=c, perimeter_norm=0.0, c=c)
        assert adaptive_k(score, gamma, 3, 10) == expected

    def test_bad_bounds(self):
        score = ComplexityScore(area=0, perimeter=0, area_norm=1.0, perimeter_norm=0.0, c=1.0)
        with pytest.raises(ConfigError):
            adaptive_k(score, 5.0, 10, 3)
        with pytest.raises(ConfigError):
            adaptive_k(score, -1.0, 3, 10)


class TestKMeans:
    def test_single_cluster_returns_nearest_to_centroid(self):
        points = [PointRC(0, 0), PointRC(0, 4), PointRC(4, 0), PointRC(4, 4), PointRC(2, 1)]
        # centroid = (2.0, 1.8); nearest candidate is (2, 1)
        assert kmeans(points, 1, 0) == [PointRC(2, 1)]

    def test_k_equals_point_count_returns_the_points(self):
        points = [PointRC(0, 0), PointRC(3, 7), PointRC(9, 2)]
        for seed in range(5):
            assert set(kmeans(points, 3, seed)) == set(points)

    def test_k_reduced_to_distinct_count(self):
        points = [PointRC(1, 1), PointRC(1, 1), PointRC(5, 5)]
        out = kmeans(points, 3, 0)
        assert set(out) == {PointRC(1, 1), PointRC(5, 5)}

    def test_two_blobs_get_one_point_each(self):
        rng = np.random.default_rng(8)
        blob_a = [PointRC(5 + int(dy), 5 + int(dx)) for dy, dx in rng.integers(-1, 2, (6, 2))]
        blob_b = [PointRC(50 + int(dy), 50 + int(dx)) for dy, dx in rng.integers(-1, 2, (6, 2))]
        points = blob_a + blob_b
        for seed in range(10):
            out = kmeans(points, 2, seed)
            assert len(out) == 2
            near_a = [p for p in out if abs(p.row - 5) <= 1 and abs(p.col - 5) <= 1]
            near_b = [p for p in out if abs(p.row - 50) <= 1 and abs(p.col - 50) <= 1]
            assert len(near_a) == 1 and len(near_b) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_two_means_matches_exhaustive_optimum(self, seed):
        rng = np.random.default_rng(seed + 200)
        pts = [(int(y), int(x)) for y, x in rng.integers(0, 12, (10, 2))]
        pts = list(dict.fromkeys(pts))  # dedupe, keep order
        coords = np.asarray(pts, dtype=np.float64)
        centers, labels, _, wcss_final = lloyd_cluster(coords, 2, seed)
        best = two_means_oracle(pts)
        # Lloyd can stop in a local optimum; on these fixtures it rarely does
        assert wcss_final <= best + 1e-6 or wcss_final == pytest.approx(best, rel=1e-9) or (
            wcss_final - best
        ) / max(best, 1.0) < 0.25

    @pytest.mark.parametrize("seed", range(20))
    def test_descent_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        coords = rng.integers(0, 20, (n, 2)).astype(np.float64)
        coords = np.unique(coords, axis=0)
        k = int(rng.integers(1, len(coords) + 1))
        _, _, wcss0, wcss1 = lloyd_cluster(coords, k, seed)
        assert wcss1 <= wcss0 + 1e-9

    def test_results_are_candidates(self):
        rng = np.random.default_rng(77)
        points = [PointRC(int(y), int(x)) for y, x in rng.integers(0, 30, (40, 2))]
        points = list(dict.fromkeys(points))
        out = kmeans(points, 5, 3)
        assert all(p in points for p in out)

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidateError):
            kmeans([], 2, 0)
        with pytest.raises(EmptyCandidateError):
            lloyd_cluster(np.empty((0, 2)), 1, 0)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            kmeans([PointRC(0, 0)], 0, 0)
        with pytest.raises(ValueError):
            lloyd_cluster(np.array([[0.0, 0.0]]), 2, 0)

    def test_stacked_init_centers_trigger_relocation(self, monkeypatch):
        # both centers start on the same point, so one cluster is empty after
        # the first assignment and must be reseeded at the farthest point
        import maup.prompting as mp

        monkeypatch.setattr(
            mp, "_kmeans_pp_init", lambda coords, k, rng: np.zeros((k, 2), dtype=np.float64)
        )
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        centers, labels, w0, w1 = lloyd_cluster(coords, 2, 0)
        assert w1 <= w0 + 1e-9
        assert sorted(set(labels.tolist())) == [0, 1]
        assert w1 == pytest.approx(0.5)  # {(0,0),(0,1)} vs {(5,5)}

    def test_objective_increase_is_a_cluster_error(self, monkeypatch):
        # every assignment after the initial one picks the farthest center,
        # which breaks the descent invariant the final check guards
        import maup.prompting as mp

        real_init, real_assign = mp._kmeans_pp_init, mp._assign
        fresh = []

        def init(coords, k, rng):
            fresh.append(True)
            return real_init(coords, k, rng)

        def assign(coords, centers):
            labels, d2 = real_assign(coords, centers)
            return (labels, d2) if fresh and fresh.pop() else (d2.argmax(axis=1), d2)

        monkeypatch.setattr(mp, "_kmeans_pp_init", init)
        monkeypatch.setattr(mp, "_assign", assign)
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [9.0, 9.0], [9.0, 8.0]])
        with pytest.raises(ClusterError, match="objective increased") as exc:
            lloyd_cluster(coords, 2, 0)
        assert isinstance(exc.value, MaupError)

    @settings(deadline=None, max_examples=150)
    @given(
        grid=st.tuples(st.integers(1, 64), st.integers(1, 64)),
        n=st.integers(1, 120),
        k_share=st.floats(0.0, 1.0),
        stacked_init=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lloyd_is_bit_identical_to_reference(self, grid, n, k_share, stacked_init, seed):
        # integer grid coordinates, duplicates allowed; a stacked init puts
        # every center on the first point, so empty clusters get reseeded
        rng = np.random.default_rng(seed)
        coords = np.column_stack([rng.integers(0, g, n) for g in grid]).astype(np.float64)
        k = 1 + int(k_share * (n - 1))
        init = (lambda c, k, r: np.repeat(c[:1], k, axis=0)) if stacked_init else mp._kmeans_pp_init
        with mock.patch.object(mp, "_kmeans_pp_init", init):
            got = lloyd_cluster(coords, k, seed)
            want = lloyd_reference(coords, k, seed)
        assert np.array_equal(got[0], want[0]) and got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2] and got[3] == want[3]

    def test_all_identical_points_stay_stable(self):
        coords = np.array([[3.0, 3.0], [3.0, 3.0]])
        _, labels, w0, w1 = lloyd_cluster(coords, 2, 1)
        assert w0 == w1 == 0.0

    def test_determinism(self):
        rng = np.random.default_rng(5)
        points = [PointRC(int(y), int(x)) for y, x in rng.integers(0, 40, (25, 2))]
        points = list(dict.fromkeys(points))
        assert kmeans(points, 4, 11) == kmeans(points, 4, 11)


class TestPositivePrompts:
    def test_degenerate_uniform_uncertainty(self):
        cfg = PromptConfig(mmp=False, ump=True, np=False, seed=0)
        mean = scalar(np.zeros((6, 6)))
        uncert = scalar(np.zeros((6, 6)))
        out, k, tau_mean, tau_uncert = positive_prompts(mean, uncert, cfg, 0)
        assert (k, tau_mean, tau_uncert) == (0, None, 0.0)
        assert len(out) == 2
        assert all(p.source == UNCERTAINTY_TAG for p in out)
        assert len({p.point for p in out}) == 2

    def test_sharp_peak_centroids_stay_inside_candidates(self):
        peak = [(y, x) for y in range(4, 7) for x in range(4, 7)]
        mean = hot_map(12, 12, peak)
        uncert = scalar(np.zeros((12, 12)))
        cfg = PromptConfig(mmp=True, ump=False, np=False, seed=1)
        out, _, tau_mean, tau_uncert = positive_prompts(mean, uncert, cfg, 1)
        tau = percentile_threshold(mean, cfg.percentile)
        assert (tau_mean, tau_uncert) == (tau, None)
        q_mean = set(extract_candidates(mean, tau, "mean"))
        assert out and all(p.point in q_mean for p in out)
        assert all(p.source == MEAN_TAG for p in out)

    def test_disjoint_hot_regions_give_k_plus_two(self):
        mean = hot_map(20, 20, [(y, x) for y in range(2, 6) for x in range(2, 6)])
        uncert = hot_map(20, 20, [(y, x) for y in range(14, 18) for x in range(14, 18)])
        cfg = PromptConfig(mmp=True, ump=True, np=False, seed=3)
        out, k_used, _, _ = positive_prompts(mean, uncert, cfg, 3)
        k = sum(1 for p in out if p.source == MEAN_TAG)
        u = sum(1 for p in out if p.source == UNCERTAINTY_TAG)
        tau = percentile_threshold(mean, cfg.percentile)
        expected_k = adaptive_k(complexity(mean, tau), cfg.gamma, cfg.n_min, cfg.n_max)
        assert k == k_used == expected_k
        assert u == 2
        assert len(out) == k + 2
        assert len({p.point for p in out}) == len(out)

    def test_both_paths_disabled(self):
        cfg = PromptConfig(mmp=False, ump=False, np=True)
        with pytest.raises(ConfigError):
            positive_prompts(scalar(np.zeros((4, 4))), scalar(np.zeros((4, 4))), cfg, 0)

    def test_map_shape_mismatch(self):
        from maup.errors import ShapeError

        with pytest.raises(ShapeError):
            positive_prompts(scalar(np.zeros((4, 4))), scalar(np.zeros((5, 5))), PromptConfig(), 0)

    def test_uncertainty_skipped_when_not_enough_free_candidates(self):
        # mean path takes all three hot pixels; uncertainty shares them plus one
        hot = [(0, 0), (0, 5), (5, 0)]
        mean = hot_map(6, 6, hot)
        uncert = hot_map(6, 6, hot + [(5, 5)])
        cfg = PromptConfig(mmp=True, ump=True, np=False, seed=0)
        out = positive_prompts(mean, uncert, cfg, 0)[0]
        assert sum(1 for p in out if p.source == UNCERTAINTY_TAG) == 0
        assert {p.point for p in out} == {PointRC(*p) for p in hot}

    def test_collision_fallback_is_deterministic(self):
        hot = [(0, 0), (0, 5), (5, 0)]
        mean = hot_map(6, 6, hot)
        uncert = hot_map(6, 6, hot + [(4, 4), (5, 5)])
        cfg = PromptConfig(mmp=True, ump=True, np=False, seed=9)
        out1 = positive_prompts(mean, uncert, cfg, 9)[0]
        out2 = positive_prompts(mean, uncert, cfg, 9)[0]
        assert out1 == out2
        ump_points = {p.point for p in out1 if p.source == UNCERTAINTY_TAG}
        assert ump_points == {PointRC(4, 4), PointRC(5, 5)}

    def test_heavy_collisions_always_land_on_free_candidates(self):
        # ten mean prompts occupy ten of twelve uncertainty candidates, so
        # redraws collide often and the lexicographic fallback must kick in
        # (hot sets sit above 5% of the 12x12 frame, keeping tau on the plateau)
        hot = [(y, 2 * x) for y in (0, 10) for x in range(5)]
        mean = hot_map(12, 12, hot)
        free = [PointRC(5, 3), PointRC(5, 11)]
        uncert = hot_map(12, 12, hot + [(p.row, p.col) for p in free])
        cfg = PromptConfig(mmp=True, ump=True, np=False, gamma=100.0, seed=0)
        for seed in range(200):
            out = positive_prompts(mean, uncert, cfg, seed)[0]
            assert sum(1 for p in out if p.source == MEAN_TAG) == 10
            ump = {p.point for p in out if p.source == UNCERTAINTY_TAG}
            assert ump == set(free)


class TestNegativePrompts:
    def test_constant_map_spreads_three(self):
        neg = scalar(np.zeros((8, 8)))
        positives = [PointRC(0, 0), PointRC(1, 1)]
        out, tau = negative_prompts(neg, positives, 3, 0)
        assert tau == 0.0
        assert len(out) == 3
        assert not set(out) & set(positives)

    def test_hot_ring_keeps_negatives_on_ring(self):
        yy, xx = np.ogrid[:16, :16]
        d2 = (yy - 8) ** 2 + (xx - 8) ** 2
        ring = (d2 >= 16) & (d2 <= 36)
        vals = np.where(ring, 0.9, -0.2).astype(np.float32)
        neg = ScalarMap(vals)
        out, _ = negative_prompts(neg, [PointRC(8, 8)], 3, 1)
        assert len(out) == 3
        for p in out:
            assert ring[p.row, p.col]

    def test_positives_exhaust_candidates(self):
        vals = np.zeros((4, 4), dtype=np.float32)
        vals[0, 0] = vals[0, 1] = 1.0
        neg = ScalarMap(vals)
        out, tau = negative_prompts(neg, [PointRC(0, 0), PointRC(0, 1)], 3, 0)
        assert out == [] and tau == 1.0

    def test_bad_n_neg(self):
        with pytest.raises(ValueError):
            negative_prompts(scalar(np.zeros((4, 4))), [], 0, 0)

    def test_prompt_set_rejects_overlap(self):
        from maup.prompting import PromptPoint, PromptSet

        p = PointRC(1, 1)
        with pytest.raises(ValueError):
            PromptSet(
                positives=(PromptPoint(p, MEAN_TAG),),
                negatives=(p,),
                k_used=1,
                seed=0,
                scale=1,
            )

    def test_containment_in_candidate_set(self):
        rng = np.random.default_rng(6)
        neg = ScalarMap(rng.standard_normal((12, 12)).astype(np.float32) * 0.3)
        positives = [PointRC(0, 0)]
        out, tau_neg = negative_prompts(neg, positives, 3, 2)
        tau = percentile_threshold(neg, 95.0)
        assert tau_neg == tau
        q_neg = set(extract_candidates(neg, tau, "negative"))
        assert out and set(out) <= q_neg


class TestGeneratePrompts:
    def make_maps(self):
        mean = hot_map(16, 16, [(y, x) for y in range(3, 7) for x in range(3, 7)])
        uncert = hot_map(16, 16, [(y, x) for y in range(10, 14) for x in range(10, 14)])
        rng = np.random.default_rng(0)
        neg = ScalarMap((rng.random((16, 16)) * 0.2).astype(np.float32))
        return mean, uncert, neg

    def test_full_set_invariants(self):
        mean, uncert, neg = self.make_maps()
        cfg = PromptConfig(seed=5, scale=1)
        ps = generate_prompts(mean, uncert, neg, cfg)
        assert cfg.n_min <= ps.k_used <= cfg.n_max
        assert not {p.point for p in ps.positives} & set(ps.negatives)
        assert ps.tau_mean is not None and ps.tau_uncert is not None and ps.tau_neg is not None
        n_mean = sum(1 for p in ps.positives if p.source == MEAN_TAG)
        n_ump = sum(1 for p in ps.positives if p.source == UNCERTAINTY_TAG)
        assert n_mean == ps.k_used
        assert n_ump in (0, 2)

    def test_np_off_yields_no_negatives(self):
        mean, uncert, neg = self.make_maps()
        ps = generate_prompts(mean, uncert, neg, PromptConfig(np=False, seed=1))
        assert ps.negatives == ()
        assert ps.tau_neg is None
        assert ps.flags == ()

    def test_empty_periphery_flag(self):
        mean, uncert, _ = self.make_maps()
        ps = generate_prompts(mean, uncert, None, PromptConfig(seed=1))
        assert ps.negatives == ()
        assert "np-disabled-empty-periphery" in ps.flags

    def test_exhausted_negative_flag(self):
        # negative map hot only where the mean path must place its prompts
        hot = [(0, 0), (0, 3), (3, 0)]
        mean = hot_map(4, 4, hot)
        uncert = scalar(np.full((4, 4), -1.0))
        neg = hot_map(4, 4, hot, hot=1.0, cold=-1.0)
        cfg = PromptConfig(mmp=True, ump=False, np=True, seed=2)
        ps = generate_prompts(mean, uncert, neg, cfg)
        assert ps.negatives == ()
        assert "np-exhausted-by-positives" in ps.flags

    @pytest.mark.parametrize("toggles", [(True, True, True), (False, True, True), (True, False, True)])
    def test_input_maps_are_left_unchanged(self, toggles):
        # a sweep hands one set of maps to several configs, so prompting must only read them
        mmp, ump, np_ = toggles
        maps = self.make_maps()
        before = [m.values.tobytes() for m in maps]
        for m in maps:
            m.values.flags.writeable = False  # any write raises instead of passing silently
        for seed in range(4):
            generate_prompts(*maps, PromptConfig(mmp=mmp, ump=ump, np=np_, seed=seed, scale=1))
        assert [m.values.tobytes() for m in maps] == before

    def test_determinism_across_calls(self):
        mean, uncert, neg = self.make_maps()
        cfg = PromptConfig(seed=123)
        a = generate_prompts(mean, uncert, neg, cfg)
        b = generate_prompts(mean, uncert, neg, cfg)
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PromptConfig(n_min=5, n_max=2)
        with pytest.raises(ConfigError):
            PromptConfig(gamma=0.0)
        with pytest.raises(ConfigError):
            PromptConfig(percentile=100.0)
        for bad in (
            {"n_min": 0},
            {"n_min": 0, "n_max": 0},
            {"n_min": -1},
            {"n_neg": 0},
            {"radius": 0},
            {"n_regions": 0},
            {"scale": 0},
        ):
            with pytest.raises(ConfigError):
                PromptConfig(**bad)


class TestComputedOnce:
    """One episode with every path on computes each threshold and the complexity once."""

    def count_calls(self, monkeypatch, name):
        import maup.prompting as mp
        from maup.phantom import PhantomSpec, generate_phantom
        from maup.pipeline import execute_episode

        calls = []
        real = getattr(mp, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mp, name, counted)
        ph = generate_phantom(PhantomSpec(family="two-lobe", contrast=0.5, noise=0.1, seed=3))
        res = execute_episode(
            ph.support_features, ph.support_mask, ph.query_features, PromptConfig(seed=3, scale=1)
        )
        assert res.prompts.tau_mean is not None and res.prompts.tau_uncert is not None
        assert res.prompts.tau_neg is not None
        return len(calls)

    def test_one_percentile_per_enabled_path(self, monkeypatch):
        assert self.count_calls(monkeypatch, "percentile_threshold") == 3

    def test_one_complexity_score(self, monkeypatch):
        assert self.count_calls(monkeypatch, "complexity") == 1
