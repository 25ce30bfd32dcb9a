import dataclasses
import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maup.prompting as mp
from maup.errors import (
    ClusterError,
    ConfigError,
    EmptyCandidateError,
    MaupError,
    OverlapError,
    ShapeError,
)
from maup.prompting import (
    MEAN_TAG,
    UNCERTAINTY_TAG,
    PromptConfig,
    PromptSet,
    adaptive_k,
    complexity,
    generate_prompts,
    kmeans,
    lloyd_cluster,
    negative_prompts,
    positive_prompts,
    select_prompts,
)
from maup.regions import area_and_perimeter
from maup.simmaps import candidate_mask, percentile_threshold
from maup.tensors import BitMask, ScalarMap

from oracles import candidates_oracle, two_means_oracle


def assign_reference(coords, centers):
    """``_assign`` as first written: one N x k x 2 broadcast, squared and summed."""
    d2 = ((coords[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2


def kmeans_pp_reference(coords, k, rng):
    """``_kmeans_pp_init`` as first written: each weighted pick is an ``rng.choice`` call."""
    n = len(coords)
    centers = np.empty((k, 2), dtype=np.float64)
    centers[0] = coords[int(rng.integers(n))]
    d2 = ((coords - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centers[j] = coords[pick]
        d2 = np.minimum(d2, ((coords - centers[j]) ** 2).sum(axis=1))
    return centers


def lloyd_reference(coords, k, seed, max_iter=100, tol=1e-4):
    """``lloyd_cluster`` as first written, with a per-cluster ``mean`` loop and
    the broadcast assignment: the bit-exact reference for integer coordinates.
    It shares only the module's k-means++ seeding."""
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    rng = np.random.default_rng(seed)
    centers = mp._kmeans_pp_init(coords, k, rng)
    labels, d2 = assign_reference(coords, centers)
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
        labels, d2 = assign_reference(coords, centers)
        if moved < tol and not empties:
            break
    wcss_final = float(d2[np.arange(n), labels].sum())
    return centers, labels, wcss_init, wcss_final


# The list-based prompting code that the array code replaced, kept as the
# bit-exact reference: candidates are row-major lists of (row, col) tuples,
# thresholds come from np.percentile, and k-means runs on lloyd_reference.


def percentile_reference(map_, pct):
    return float(np.percentile(map_.values.astype(np.float64), pct))


def candidates_reference(map_, tau, tag):
    points = list(candidates_oracle(map_.values, tau))
    if not points:
        raise EmptyCandidateError(f"no pixel of the {tag} map reaches {tau}")
    return points


def complexity_reference(mean, tau_mean):
    bits = (mean.values.astype(np.float64) >= tau_mean).astype(np.uint8)
    if not bits.any():
        raise EmptyCandidateError("no pixel reaches the mean threshold")
    area, perimeter = area_and_perimeter(BitMask(bits))
    h, w = mean.height, mean.width
    return area / (h * w) + perimeter / (2 * (h + w))


def kmeans_reference(points, k, seed):
    if not points:
        raise EmptyCandidateError("cannot run k-means on zero candidates")
    if k < 1:
        raise ConfigError(f"need k >= 1, got {k}")
    coords = np.asarray(points, dtype=np.float64)
    k = min(k, len(np.unique(coords, axis=0)))
    centers, labels, _, _ = lloyd_reference(coords, k, seed)
    chosen = []
    for j in range(len(centers)):
        members = np.flatnonzero(labels == j)
        pool = members if len(members) else np.arange(len(points))
        d2 = ((coords[pool] - centers[j]) ** 2).sum(axis=1)
        chosen.append(points[int(pool[int(np.argmin(d2))])])  # first min = smallest index
    return list(dict.fromkeys(chosen))


def positive_reference(mean, uncert, cfg, seed):
    rng = np.random.default_rng(seed)
    out, taken = [], set()
    k = 0
    tau_mean = tau_uncert = None
    if cfg.mmp:
        tau_mean = percentile_reference(mean, cfg.percentile)
        q_mean = candidates_reference(mean, tau_mean, "mean")
        k = adaptive_k(complexity_reference(mean, tau_mean), cfg)
        for p in kmeans_reference(q_mean, k, rng):
            out.append((p, MEAN_TAG))
            taken.add(p)
    if cfg.ump:
        tau_uncert = percentile_reference(uncert, cfg.percentile)
        q_uncert = candidates_reference(uncert, tau_uncert, "uncertainty")
        if len([p for p in q_uncert if p not in taken]) >= mp.N_UNCERTAINTY_PICKS:
            for _ in range(mp.N_UNCERTAINTY_PICKS):
                pick = None
                for _ in range(mp.MAX_REDRAWS):
                    cand = q_uncert[int(rng.integers(len(q_uncert)))]
                    if cand not in taken:
                        pick = cand
                        break
                if pick is None:
                    pick = min(p for p in q_uncert if p not in taken)
                out.append((pick, UNCERTAINTY_TAG))
                taken.add(pick)
    return out, k, tau_mean, tau_uncert


def negative_reference(neg_map, positives, n_neg, seed, percentile=95.0):
    if n_neg < 1:
        raise ConfigError(f"need n_neg >= 1, got {n_neg}")
    tau_neg = percentile_reference(neg_map, percentile)
    pos = set(positives)
    remaining = [p for p in candidates_reference(neg_map, tau_neg, "negative") if p not in pos]
    if not remaining:
        return [], tau_neg
    return kmeans_reference(remaining, min(n_neg, len(remaining)), seed), tau_neg


def select_reference(mean, uncert, neg_map, cfg, pos_seed, neg_seed):
    positives, k_used, tau_mean, tau_uncert = positive_reference(mean, uncert, cfg, pos_seed)
    negatives, tau_neg, flags = [], None, []
    if cfg.np and neg_map is None:
        flags.append("np-disabled-empty-periphery")
    elif cfg.np:
        negatives, tau_neg = negative_reference(
            neg_map, [p for p, _ in positives], cfg.n_neg, neg_seed, cfg.percentile
        )
        if not negatives:
            flags.append("np-exhausted-by-positives")
    return PromptSet(
        np.array([p for p, _ in positives], dtype=np.int64).reshape(-1, 2),
        tuple(source for _, source in positives),
        np.array(negatives, dtype=np.int64).reshape(-1, 2),
        k_used, cfg.seed, cfg.scale, tau_mean, tau_uncert, tau_neg, tuple(flags),
    )


def exact(value):
    """A float threshold by its bits (so 0.0 and -0.0 differ), None as is."""
    return None if value is None else np.float64(value).tobytes()


def outcome(run):
    """Everything a prompting call returns, or the typed error it raises."""
    try:
        ps = run()
    except MaupError as e:
        return type(e).__name__, str(e)
    taus = tuple(exact(t) for t in (ps.tau_mean, ps.tau_uncert, ps.tau_neg))
    return as_points(ps.positives), ps.sources, as_points(ps.negatives), ps.k_used, taus, ps.flags


def as_points(arr):
    """An N x 2 prompt array as a list of (row, col) tuples, checking its dtype and shape."""
    assert arr.dtype == np.int64 and arr.ndim == 2 and arr.shape[1] == 2
    return [(r, c) for r, c in arr.tolist()]


def fields_of(ps: PromptSet) -> dict:
    """A prompt set's fields, point arrays as lists: arrays make ``==`` on the set ambiguous."""
    return {f.name: getattr(ps, f.name) for f in dataclasses.fields(ps)} | {
        "positives": as_points(ps.positives), "negatives": as_points(ps.negatives)
    }


_SHAPES = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(2, 12)),
    st.tuples(st.integers(2, 12), st.just(1)),
    st.tuples(st.integers(1, 24), st.integers(1, 24)),
)
_KINDS = ("ties", "constant", "huge", "signed-zero", "normal")


def kind_map(rng, shape, kind):
    """A test map: few distinct values, one value, values near +-1e30, +-0.0, or noise."""
    if kind == "ties":
        vals = rng.integers(0, 3, shape)
    elif kind == "constant":
        vals = np.full(shape, rng.choice([0.0, -0.0, 0.25, -1.0]))
    elif kind == "huge":
        vals = rng.choice([-1.0, 1.0], shape) * 1e30 * rng.choice([1.0, 1.0 + 2**-20, 3.0], shape)
    elif kind == "signed-zero":
        vals = rng.choice([0.0, -0.0, 1.0], shape)
    else:
        vals = rng.standard_normal(shape)
    return ScalarMap(np.asarray(vals, dtype=np.float32))


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
        assert area_and_perimeter(BitMask((m.values >= 0.5).astype(np.uint8))) == (1, 4)
        assert complexity(m.values >= 0.5) == pytest.approx(1 / 100 + 4 / 40)

    def test_full_frame(self):
        m = scalar(np.ones((6, 6)))
        assert complexity(m.values >= 0.5) == pytest.approx(1.0 + 24 / 24)  # area 36/36, perimeter 24/24

    def test_bigger_square_scores_higher(self):
        small = hot_map(10, 10, [(y, x) for y in (4, 5) for x in (4, 5)])
        big = hot_map(10, 10, [(y, x) for y in range(3, 7) for x in range(3, 7)])
        assert complexity(big.values >= 0.5) > complexity(small.values >= 0.5)

    def test_nested_solid_squares_are_monotone(self):
        prev = None
        for k in range(1, 8):
            m = hot_map(12, 12, [(y, x) for y in range(2, 2 + k) for x in range(2, 2 + k)])
            c = complexity(m.values >= 0.5)
            if prev is not None:
                assert c > prev
            prev = c

    def test_empty_binarization_guard(self):
        with pytest.raises(EmptyCandidateError):
            complexity(np.zeros((4, 4), dtype=bool))


class TestLeanComplexity:
    @settings(deadline=None, max_examples=200)
    @given(
        hot=st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
            lambda hw: st.lists(st.booleans(), min_size=hw[0] * hw[1], max_size=hw[0] * hw[1]).map(
                lambda bits: np.array(bits, dtype=bool).reshape(hw)
            )
        )
    )
    def test_complexity_counts_as_area_and_perimeter(self, hot):
        if not hot.any():
            with pytest.raises(EmptyCandidateError):
                complexity(hot)
            return
        area, perimeter = area_and_perimeter(BitMask(hot.astype(np.uint8)))
        assert complexity(hot) == area / hot.size + perimeter / (2 * sum(hot.shape))

    @settings(deadline=None, max_examples=300)
    @given(
        gamma=st.floats(1e-300, 1.7e308, allow_nan=False, allow_infinity=False),
        c=st.floats(0.0, 50.0, allow_nan=False),
        bounds=st.tuples(st.integers(1, 2**70), st.integers(0, 2**70)).map(lambda t: (t[0], t[0] + t[1])),
    )
    def test_adaptive_k_clamps_as_np_clip(self, gamma, c, bounds):
        # bounds past 2**53 are compared as the floats np.clip makes of them
        cfg = PromptConfig(gamma=gamma, n_min=bounds[0], n_max=bounds[1])
        assert adaptive_k(c, cfg) == int(np.clip(np.floor(cfg.gamma * c), cfg.n_min, cfg.n_max))


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
        assert adaptive_k(c, PromptConfig(gamma=gamma, n_min=3, n_max=10)) == expected

    def test_bad_bounds(self):
        # the config that adaptive_k reads its bounds and gamma from rejects them
        with pytest.raises(ConfigError, match="exceeds"):
            PromptConfig(n_min=10, n_max=3)
        with pytest.raises(ConfigError, match="gamma"):
            PromptConfig(gamma=-1.0)

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, 0.0])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ConfigError, match="gamma"):
            PromptConfig(gamma=gamma)

    @pytest.mark.parametrize("c", [0.0, 1e-300, 0.5, 2.0, 4.0])
    def test_product_past_the_float_range_clamps_to_n_max(self, c):
        cfg = PromptConfig(gamma=1e308, n_min=2, n_max=7)
        expected = 2 if c * 1e308 < 2 else 7  # 2.0 * 1e308 and 4.0 * 1e308 are inf
        assert adaptive_k(c, cfg) == expected

    def test_huge_gamma_on_a_noise_map_gives_n_max(self):
        rng = np.random.default_rng(0)
        noise = ScalarMap(rng.standard_normal((32, 32)).astype(np.float32))
        cfg = PromptConfig(mmp=True, ump=False, np=False, gamma=1e308, percentile=50)
        assert positive_prompts(noise, noise, cfg, 0).k_used == cfg.n_max

    @pytest.mark.parametrize("gamma", [1e-300, 0.3, 5.0, 1e6, 1e300])
    @pytest.mark.parametrize("c", [0.0, 0.11, 1.37, 2.0])
    def test_same_integer_as_the_unclamped_floor(self, gamma, c):
        cfg = PromptConfig(gamma=gamma)
        assert adaptive_k(c, cfg) == max(cfg.n_min, min(cfg.n_max, int(np.floor(gamma * c))))


class TestKMeans:
    def test_single_cluster_returns_nearest_to_centroid(self):
        points = [(0, 0), (0, 4), (4, 0), (4, 4), (2, 1)]
        # centroid = (2.0, 1.8); nearest candidate is (2, 1)
        assert kmeans(points, 1, 0).tolist() == [[2, 1]]

    def test_k_equals_point_count_returns_the_points(self):
        points = [(0, 0), (3, 7), (9, 2)]
        for seed in range(5):
            assert set(as_points(kmeans(points, 3, seed))) == set(points)

    def test_k_reduced_to_distinct_count(self):
        points = [(1, 1), (1, 1), (5, 5)]
        out = as_points(kmeans(points, 3, 0))
        assert set(out) == {(1, 1), (5, 5)}

    def test_two_blobs_get_one_point_each(self):
        rng = np.random.default_rng(8)
        blob_a = [(5 + int(dy), 5 + int(dx)) for dy, dx in rng.integers(-1, 2, (6, 2))]
        blob_b = [(50 + int(dy), 50 + int(dx)) for dy, dx in rng.integers(-1, 2, (6, 2))]
        points = blob_a + blob_b
        for seed in range(10):
            out = as_points(kmeans(points, 2, seed))
            assert len(out) == 2
            near_a = [(r, c) for r, c in out if abs(r - 5) <= 1 and abs(c - 5) <= 1]
            near_b = [(r, c) for r, c in out if abs(r - 50) <= 1 and abs(c - 50) <= 1]
            assert len(near_a) == 1 and len(near_b) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_two_means_matches_exhaustive_optimum(self, seed):
        rng = np.random.default_rng(seed + 200)
        pts = [(int(y), int(x)) for y, x in rng.integers(0, 12, (10, 2))]
        pts = list(dict.fromkeys(pts))  # dedupe, keep order
        coords = np.asarray(pts, dtype=np.float64)
        centers, labels, _, _, wcss_final = lloyd_cluster(coords, 2, seed)
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
        _, _, _, wcss0, wcss1 = lloyd_cluster(coords, k, seed)
        assert wcss1 <= wcss0 + 1e-9

    def test_results_are_candidates(self):
        rng = np.random.default_rng(77)
        points = [(int(y), int(x)) for y, x in rng.integers(0, 30, (40, 2))]
        points = list(dict.fromkeys(points))
        out = as_points(kmeans(points, 5, 3))
        assert all(p in points for p in out)

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidateError):
            kmeans([], 2, 0)
        with pytest.raises(EmptyCandidateError):
            lloyd_cluster(np.empty((0, 2)), 1, 0)

    def test_bad_k(self):
        with pytest.raises(ConfigError):
            kmeans([(0, 0)], 0, 0)
        with pytest.raises(ConfigError):
            lloyd_cluster(np.array([[0.0, 0.0]]), 2, 0)

    def test_stacked_init_centers_trigger_relocation(self, monkeypatch):
        # both centers start on the same point, so one cluster is empty after
        # the first assignment and must be reseeded at the farthest point
        import maup.prompting as mp

        monkeypatch.setattr(
            mp, "_kmeans_pp_init", lambda coords, k, rng: np.zeros((k, 2), dtype=np.float64)
        )
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        centers, labels, _, w0, w1 = lloyd_cluster(coords, 2, 0)
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
        assert got[2].tobytes() == assign_reference(coords, want[0])[1].tobytes()
        assert got[3] == want[2] and got[4] == want[3]

    @settings(deadline=None, max_examples=300)
    @given(
        grid=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        n=st.integers(1, 80),
        k_share=st.floats(0.0, 1.0),
        repeats=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kmeans_pp_init_draws_as_rng_choice(self, grid, n, k_share, repeats, seed):
        # a 1 x 1 grid makes every point equal (zero total weight); repeated
        # points give zero weights next to positive ones
        rng = np.random.default_rng(seed)
        coords = np.column_stack([rng.integers(0, g, n) for g in grid]).astype(np.float64)
        coords = np.repeat(coords, repeats, axis=0)
        k = 1 + int(k_share * (len(coords) - 1))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = mp._kmeans_pp_init(coords, k, got_rng)
        want = kmeans_pp_reference(coords, k, want_rng)
        assert got.tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()  # the same draws were consumed

    def test_kmeans_pp_init_with_all_points_equal_draws_uniformly(self):
        coords = np.full((6, 2), 4.0)
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = mp._kmeans_pp_init(coords, 4, got_rng)
        assert got.tobytes() == kmeans_pp_reference(coords, 4, want_rng).tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_lloyd_stops_when_labels_repeat(self, monkeypatch):
        # two far-apart pairs settle after one update: the labels repeat at once,
        # and the loop ends there instead of spending a round to see no center move
        rounds = []
        real = mp._assign

        def counted(coords, centers):
            rounds.append(centers.copy())
            return real(coords, centers)

        monkeypatch.setattr(mp, "_assign", counted)
        monkeypatch.setattr(mp, "_kmeans_pp_init", lambda coords, k, rng: coords[[0, 2]].copy())
        coords = np.array([[0.0, 0.0], [0.0, 2.0], [9.0, 9.0], [9.0, 11.0]])
        monkeypatch.setattr(mp, "LLOYD_TOL", -1.0)  # no center movement ends the loop
        centers, labels, _, _, w1 = lloyd_cluster(coords, 2, 0)
        assert len(rounds) == 2  # the initial assignment and one update
        assert centers.tolist() == [[0.0, 1.0], [9.0, 10.0]] and w1 == 4.0

    def test_all_identical_points_stay_stable(self):
        coords = np.array([[3.0, 3.0], [3.0, 3.0]])
        _, labels, _, w0, w1 = lloyd_cluster(coords, 2, 1)
        assert w0 == w1 == 0.0

    def test_determinism(self):
        rng = np.random.default_rng(5)
        points = [(int(y), int(x)) for y, x in rng.integers(0, 40, (25, 2))]
        points = list(dict.fromkeys(points))
        assert np.array_equal(kmeans(points, 4, 11), kmeans(points, 4, 11))


class TestPositivePrompts:
    def test_degenerate_uniform_uncertainty(self):
        cfg = PromptConfig(mmp=False, ump=True, np=False, seed=0)
        mean = scalar(np.zeros((6, 6)))
        uncert = scalar(np.zeros((6, 6)))
        ps = positive_prompts(mean, uncert, cfg, 0)
        assert (ps.k_used, ps.tau_mean, ps.tau_uncert) == (0, None, 0.0)
        assert ps.sources.count(MEAN_TAG) == 0
        assert ps.sources == (UNCERTAINTY_TAG,) * 2 and len(set(as_points(ps.positives))) == 2
        assert ps.negatives.shape == (0, 2) and ps.tau_neg is None and ps.flags == ()

    def test_sharp_peak_centroids_stay_inside_candidates(self):
        peak = [(y, x) for y in range(4, 7) for x in range(4, 7)]
        mean = hot_map(12, 12, peak)
        uncert = scalar(np.zeros((12, 12)))
        cfg = PromptConfig(mmp=True, ump=False, np=False, seed=1)
        ps = positive_prompts(mean, uncert, cfg, 1)
        tau = percentile_threshold(mean, cfg.percentile)
        assert (ps.tau_mean, ps.tau_uncert) == (tau, None)
        q_mean = set(as_points(np.argwhere(candidate_mask(mean, tau, "mean"))))
        assert len(ps.positives) and set(as_points(ps.positives)) <= q_mean
        assert ps.sources == (MEAN_TAG,) * len(ps.positives)  # no uncertainty picks

    def test_disjoint_hot_regions_give_k_plus_two(self):
        mean = hot_map(20, 20, [(y, x) for y in range(2, 6) for x in range(2, 6)])
        uncert = hot_map(20, 20, [(y, x) for y in range(14, 18) for x in range(14, 18)])
        cfg = PromptConfig(mmp=True, ump=True, np=False, seed=3)
        ps = positive_prompts(mean, uncert, cfg, 3)
        tau = percentile_threshold(mean, cfg.percentile)
        expected_k = adaptive_k(complexity(mean.values >= tau), cfg)
        assert ps.sources.count(MEAN_TAG) == ps.k_used == expected_k
        assert ps.sources == (MEAN_TAG,) * ps.k_used + (UNCERTAINTY_TAG,) * 2
        assert len(set(as_points(ps.positives))) == ps.k_used + 2

    def test_both_paths_disabled(self):
        cfg = PromptConfig(mmp=False, ump=False, np=True)
        with pytest.raises(ConfigError):
            positive_prompts(scalar(np.zeros((4, 4))), scalar(np.zeros((4, 4))), cfg, 0)

    def test_map_shape_mismatch(self):
        with pytest.raises(ShapeError):
            positive_prompts(scalar(np.zeros((4, 4))), scalar(np.zeros((5, 5))), PromptConfig(), 0)

    def test_uncertainty_skipped_when_not_enough_free_candidates(self):
        # mean path takes all three hot pixels; uncertainty shares them plus one
        hot = [(0, 0), (0, 5), (5, 0)]
        mean = hot_map(6, 6, hot)
        uncert = hot_map(6, 6, hot + [(5, 5)])
        cfg = PromptConfig(mmp=True, ump=True, np=False, seed=0)
        ps = positive_prompts(mean, uncert, cfg, 0)
        assert UNCERTAINTY_TAG not in ps.sources
        assert set(as_points(ps.positives)) == set(hot)

    def test_collision_fallback_is_deterministic(self):
        hot = [(0, 0), (0, 5), (5, 0)]
        mean = hot_map(6, 6, hot)
        uncert = hot_map(6, 6, hot + [(4, 4), (5, 5)])
        cfg = PromptConfig(mmp=True, ump=True, np=False, seed=9)
        out1 = positive_prompts(mean, uncert, cfg, 9)
        out2 = positive_prompts(mean, uncert, cfg, 9)
        assert fields_of(out1) == fields_of(out2)
        assert out1.sources[-2:] == (UNCERTAINTY_TAG,) * 2
        assert set(as_points(out1.positives[-2:])) == {(4, 4), (5, 5)}

    def test_heavy_collisions_always_land_on_free_candidates(self):
        # ten mean prompts occupy ten of twelve uncertainty candidates, so
        # redraws collide often and the lexicographic fallback must kick in
        # (hot sets sit above 5% of the 12x12 frame, keeping tau on the plateau)
        hot = [(y, 2 * x) for y in (0, 10) for x in range(5)]
        mean = hot_map(12, 12, hot)
        free = [(5, 3), (5, 11)]
        uncert = hot_map(12, 12, hot + free)
        cfg = PromptConfig(mmp=True, ump=True, np=False, gamma=100.0, seed=0)
        for seed in range(200):
            ps = positive_prompts(mean, uncert, cfg, seed)
            assert ps.sources == (MEAN_TAG,) * 10 + (UNCERTAINTY_TAG,) * 2
            assert set(as_points(ps.positives[10:])) == set(free)


class TestNegativePrompts:
    def test_constant_map_spreads_three(self):
        neg = scalar(np.zeros((8, 8)))
        positives = [(0, 0), (1, 1)]
        out, tau = negative_prompts(neg, positives, 3, 0, 95.0)
        assert tau == 0.0
        assert len(out) == 3
        assert not set(as_points(out)) & set(positives)

    def test_hot_ring_keeps_negatives_on_ring(self):
        yy, xx = np.ogrid[:16, :16]
        d2 = (yy - 8) ** 2 + (xx - 8) ** 2
        ring = (d2 >= 16) & (d2 <= 36)
        vals = np.where(ring, 0.9, -0.2).astype(np.float32)
        neg = ScalarMap(vals)
        out, _ = negative_prompts(neg, [(8, 8)], 3, 1, 95.0)
        assert len(out) == 3
        for r, c in as_points(out):
            assert ring[r, c]

    def test_positives_exhaust_candidates(self):
        vals = np.zeros((4, 4), dtype=np.float32)
        vals[0, 0] = vals[0, 1] = 1.0
        neg = ScalarMap(vals)
        out, tau = negative_prompts(neg, [(0, 0), (0, 1)], 3, 0, 95.0)
        assert as_points(out) == [] and tau == 1.0

    def test_bad_n_neg(self):
        with pytest.raises(ConfigError):
            negative_prompts(scalar(np.zeros((4, 4))), [], 0, 0, 95.0)

    def test_prompt_set_rejects_overlap(self):
        with pytest.raises(OverlapError, match="positive and negative prompts overlap") as exc:
            PromptSet(
                positives=np.array([[1, 1]]),
                sources=(MEAN_TAG,),
                negatives=np.array([[1, 1]]),
                k_used=1,
                seed=0,
                scale=1,
            )
        assert isinstance(exc.value, MaupError)
        # a shared row or column is no overlap; replace runs the check again
        ps = PromptSet(np.array([[1, 1], [2, 5]]), (MEAN_TAG, UNCERTAINTY_TAG), np.array([[1, 5]]), 1, 0, 1)
        with pytest.raises(OverlapError):
            dataclasses.replace(ps, negatives=np.array([[0, 0], [2, 5]]))

    def test_containment_in_candidate_set(self):
        rng = np.random.default_rng(6)
        neg = ScalarMap(rng.standard_normal((12, 12)).astype(np.float32) * 0.3)
        positives = [(0, 0)]
        out, tau_neg = negative_prompts(neg, positives, 3, 2, 95.0)
        tau = percentile_threshold(neg, 95.0)
        assert tau_neg == tau
        q_neg = set(as_points(np.argwhere(candidate_mask(neg, tau, "negative"))))
        assert len(out) and set(as_points(out)) <= q_neg


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
        assert not set(as_points(ps.positives)) & set(as_points(ps.negatives))
        assert ps.tau_mean is not None and ps.tau_uncert is not None and ps.tau_neg is not None
        assert len(ps.sources) == len(ps.positives)
        n_mean = ps.sources.count(MEAN_TAG)
        n_ump = ps.sources.count(UNCERTAINTY_TAG)
        assert n_mean == ps.k_used
        assert n_ump in (0, 2)

    def test_np_off_yields_no_negatives(self):
        mean, uncert, neg = self.make_maps()
        ps = generate_prompts(mean, uncert, neg, PromptConfig(np=False, seed=1))
        assert as_points(ps.negatives) == []
        assert ps.tau_neg is None
        assert ps.flags == ()

    def test_empty_periphery_flag(self):
        mean, uncert, _ = self.make_maps()
        ps = generate_prompts(mean, uncert, None, PromptConfig(seed=1))
        assert as_points(ps.negatives) == []
        assert "np-disabled-empty-periphery" in ps.flags

    def test_exhausted_negative_flag(self):
        # negative map hot only where the mean path must place its prompts
        hot = [(0, 0), (0, 3), (3, 0)]
        mean = hot_map(4, 4, hot)
        uncert = scalar(np.full((4, 4), -1.0))
        neg = hot_map(4, 4, hot, hot=1.0, cold=-1.0)
        cfg = PromptConfig(mmp=True, ump=False, np=True, seed=2)
        ps = generate_prompts(mean, uncert, neg, cfg)
        assert as_points(ps.negatives) == []
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
        assert fields_of(a) == fields_of(b)

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

    def test_negative_seed_is_a_config_error(self):
        # numpy's SeedSequence would raise an untyped ValueError on it later
        with pytest.raises(ConfigError, match="seed"):
            PromptConfig(seed=-1)


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


class TestListReference:
    """The array code equals the list-based code it replaced, bit for bit."""

    @settings(deadline=None, max_examples=200)
    @given(
        n=st.integers(1, 60),
        k=st.integers(1, 12),
        grid=st.integers(1, 40),
        integer_centers=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_assign_matches_broadcast_formula(self, n, k, grid, integer_centers, seed):
        rng = np.random.default_rng(seed)
        coords = rng.integers(0, grid, (n, 2)).astype(np.float64)
        if integer_centers:
            centers = rng.integers(0, grid, (k, 2)).astype(np.float64)
        else:
            centers = rng.uniform(-1, grid, (k, 2))
        got_labels, got_d2 = mp._assign(coords, centers)
        want_labels, want_d2 = assign_reference(coords, centers)
        assert got_d2.shape == want_d2.shape and got_d2.tobytes() == want_d2.tobytes()
        assert np.array_equal(got_labels, want_labels)

    @settings(deadline=None, max_examples=200)
    @given(
        n=st.integers(1, 50),
        grid=st.tuples(st.integers(1, 30), st.integers(1, 30)),
        k_extra=st.integers(0, 3),
        k_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        spacing=st.sampled_from([1, 2**32]),
    )
    def test_kmeans_matches_list_reference(self, n, grid, k_extra, k_share, seed, spacing):
        # duplicate points allowed; k runs from 1 to a few past n; a spacing of 2**32 puts
        # row * width past int64, where a flat row-major key would wrap
        rng = np.random.default_rng(seed)
        points = [(int(r) * spacing, int(c) * spacing) for r, c in zip(*(rng.integers(0, g, n) for g in grid))]
        k = 1 + int(k_share * (n - 1)) + k_extra
        got = as_points(kmeans(np.array(points, dtype=np.int64), k, seed))
        assert got == kmeans_reference(points, k, seed)
        assert got == as_points(kmeans(points, k, seed))  # a list of pairs is accepted as well

    @settings(deadline=None, max_examples=300)
    @given(
        shape=_SHAPES,
        kinds=st.tuples(*[st.sampled_from(_KINDS)] * 3),
        toggles=st.sampled_from([t for t in product((False, True), repeat=3) if t[0] or t[1]]),
        pct=st.one_of(st.sampled_from([5.0, 50.0, 95.0, 99.0]), st.floats(0.001, 99.999)),
        n_neg=st.integers(1, 40),
        gamma=st.sampled_from([0.5, 5.0, 100.0]),
        neg_present=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_select_prompts_matches_list_reference(
        self, shape, kinds, toggles, pct, n_neg, gamma, neg_present, seed
    ):
        rng = np.random.default_rng(seed)
        mean, uncert, neg = (kind_map(rng, shape, kind) for kind in kinds)
        mmp, ump, np_ = toggles
        cfg = PromptConfig(
            mmp=mmp, ump=ump, np=np_, percentile=pct, n_neg=n_neg, gamma=gamma, n_min=1,
            n_max=12, seed=seed, scale=1,
        )
        neg = neg if neg_present else None
        _, pos_seed, neg_seed = mp.episode_seed_streams(seed)
        got = outcome(
            lambda: select_prompts(positive_prompts(mean, uncert, cfg, pos_seed), neg, cfg, neg_seed)
        )
        want = outcome(lambda: select_reference(mean, uncert, neg, cfg, pos_seed, neg_seed))
        assert got == want

    @settings(deadline=None, max_examples=200)
    @given(
        shape=_SHAPES,
        kind=st.sampled_from(_KINDS),
        n_pos=st.integers(0, 8),
        n_neg_share=st.floats(0.0, 1.0),
        pct=st.floats(0.001, 99.999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_negative_prompts_match_list_reference(
        self, shape, kind, n_pos, n_neg_share, pct, seed
    ):
        # n_neg runs up to the candidate count; positives may repeat or leave the frame
        rng = np.random.default_rng(seed)
        neg = kind_map(rng, shape, kind)
        rows, cols = (rng.integers(-1, side + 1, n_pos).tolist() for side in shape)
        positives = list(zip(rows, cols))
        n_cand = len(candidates_reference(neg, percentile_reference(neg, pct), "negative"))
        n_neg = 1 + int(n_neg_share * n_cand)
        got, tau = negative_prompts(neg, np.array(positives, dtype=np.int64), n_neg, seed, pct)
        want, want_tau = negative_reference(neg, positives, n_neg, seed, pct)
        assert as_points(got) == want
        assert exact(tau) == exact(want_tau)


class TestPointObjects:
    def test_select_prompts_builds_points_only_for_its_prompts(self):
        # candidates, clusters, draws and the prompts themselves stay arrays: a
        # PromptSet carries its points as N x 2 int64 arrays, no per-point objects
        rng = np.random.default_rng(0)
        yy, xx = np.mgrid[:64, :64]
        blob = np.exp(-((yy - 20) ** 2 + (xx - 30) ** 2) / 200.0)
        mean = ScalarMap(blob + rng.random((64, 64)) * 0.01)
        uncert = ScalarMap(rng.random((64, 64)) * 0.1)
        neg = ScalarMap(rng.random((64, 64)))
        cfg = PromptConfig(seed=4, scale=1, percentile=50.0)
        _, pos_seed, neg_seed = mp.episode_seed_streams(cfg.seed)
        want = select_prompts(positive_prompts(mean, uncert, cfg, pos_seed), neg, cfg, neg_seed)
        got = select_prompts(positive_prompts(mean, uncert, cfg, pos_seed), neg, cfg, neg_seed)
        assert fields_of(got) == fields_of(want)
        assert len(got.negatives) and len(got.positives) == want.k_used + 2
        for points in (got.positives, got.negatives):
            assert type(points) is np.ndarray and points.dtype == np.int64 and points.shape[1:] == (2,)
