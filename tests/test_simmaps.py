import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maup.errors import ConfigError, EmptyCandidateError, EmptyStackError, ShapeError
from maup.simmaps import (
    cosine_map,
    candidate_mask,
    mean_map,
    percentile_threshold,
    query_side,
    rounded_cosines,
    similarity_scores,
    similarity_stack,
    stack_moments,
    uncertainty_map,
    write_pgm,
)
from maup.tensors import FeatureMap, ScalarMap

from oracles import (
    candidates_oracle,
    cosine_oracle,
    cosine_rows_reference,
    mean_oracle,
    percentile_oracle,
    variance_oracle,
)


def random_features(seed, c=16, h=8, w=8):
    rng = np.random.default_rng(seed)
    return FeatureMap(rng.standard_normal((c, h, w)).astype(np.float32))


def random_stack(seed, n=6, h=8, w=8):
    rng = np.random.default_rng(seed)
    return np.stack([rng.uniform(-1.0, 1.0, (h, w)).astype(np.float32) for _ in range(n)])


# small values with many exact zeros, so zero-norm pixels and zero prototypes occur
_entries = st.one_of(st.just(0.0), st.floats(-100.0, 100.0, width=32))


def stack_reference(f_q, protos):
    """``similarity_stack`` as first written, with a second query-sized
    float64 temporary for the pixel norms: the bit-exact reference."""
    protos = np.asarray(protos, dtype=np.float64)
    feats = f_q.data.reshape(f_q.channels, -1).astype(np.float64)
    dots = protos @ feats
    pix_norm = np.sqrt((feats * feats).sum(axis=0))
    denom = np.linalg.norm(protos, axis=1)[:, None] * pix_norm
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(denom > 0.0, dots / denom, 0.0)
    return np.clip(sims, -1.0, 1.0).astype(np.float32).reshape(-1, f_q.height, f_q.width)


class TestCosineMap:
    def test_self_similarity_is_one(self):
        v = np.array([1.0, -2.0, 0.5], dtype=np.float32)
        f = FeatureMap(np.tile(v[:, None, None], (1, 2, 2)))
        out = cosine_map(f, v.astype(np.float64))
        assert np.allclose(out.values, 1.0, atol=1e-6)

    def test_antipodal_is_minus_one(self):
        v = np.array([1.0, -2.0, 0.5], dtype=np.float32)
        f = FeatureMap(np.tile(-v[:, None, None], (1, 2, 2)))
        out = cosine_map(f, v.astype(np.float64))
        assert np.allclose(out.values, -1.0, atol=1e-6)

    def test_zero_norm_maps_to_zero(self):
        f = FeatureMap(np.zeros((3, 2, 2), dtype=np.float32))
        out = cosine_map(f, np.ones(3))
        assert np.all(out.values == 0.0)
        out2 = cosine_map(random_features(0, c=3), np.zeros(3))
        assert np.all(out2.values == 0.0)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            cosine_map(random_features(0, c=4), np.ones(3))
        with pytest.raises(ShapeError):
            cosine_map(random_features(0, c=4), np.ones((2, 2)))
        with pytest.raises(ShapeError):
            similarity_stack(random_features(0, c=4), np.ones((2, 3)))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scalar_loop_oracle(self, seed):
        f = random_features(seed)
        rng = np.random.default_rng(seed + 1000)
        p = rng.standard_normal(16)
        out = cosine_map(f, p)
        expected = np.array(cosine_oracle(f.data, p))
        assert np.allclose(out.values, expected, atol=1e-6)
        assert out.values.min() >= -1.0 and out.values.max() <= 1.0

    def test_scale_invariance(self):
        f = random_features(3)
        p = np.random.default_rng(4).standard_normal(16)
        a = cosine_map(f, p).values
        b = cosine_map(FeatureMap(2.5 * f.data), p).values
        assert np.allclose(a, b, atol=1e-6)


class TestStackReductions:
    def test_stack_of_one(self):
        f = random_features(1)
        p = np.ones(16)
        stack = similarity_stack(f, p[None])
        assert stack.shape == (1, 8, 8) and stack.dtype == np.float32
        assert np.array_equal(stack[0], cosine_map(f, p).values)

    def test_duplicate_prototype_duplicates_map(self):
        f = random_features(2)
        p = np.arange(1, 17, dtype=np.float64)
        stack = similarity_stack(f, np.stack([p, p]))
        assert np.array_equal(stack[0], stack[1])

    def test_thirty_prototypes_match_per_map_oracle(self):
        f = random_features(5, h=6, w=6)
        rng = np.random.default_rng(99)
        protos = rng.standard_normal((30, 16))
        stack = similarity_stack(f, protos)
        assert stack.shape == (30, 6, 6)
        for p, m in zip(protos, stack):
            assert np.allclose(m, cosine_oracle(f.data, p), atol=1e-6)

    def test_mean_of_identical_maps(self):
        m = np.random.default_rng(0).uniform(-1, 1, (4, 4)).astype(np.float32)
        assert np.array_equal(mean_map(np.stack([m, m, m])).values, m)

    def test_mean_of_zero_and_one(self):
        stack = np.stack([np.zeros((3, 3), np.float32), np.ones((3, 3), np.float32)])
        assert np.all(mean_map(stack).values == 0.5)

    @pytest.mark.parametrize("seed", range(8))
    def test_mean_matches_loop_oracle(self, seed):
        stack = random_stack(seed)
        got = mean_map(stack).values
        expected = np.array(mean_oracle(list(stack)))
        assert np.allclose(got, expected, atol=1e-7)

    def test_empty_stack(self):
        with pytest.raises(EmptyStackError):
            mean_map(np.zeros((0, 1, 1), np.float32))
        with pytest.raises(EmptyStackError):
            uncertainty_map(np.zeros((0, 1, 1), np.float32), ScalarMap(np.zeros((1, 1), np.float32)))

    def test_variance_of_identical_maps_is_zero(self):
        m = np.random.default_rng(1).uniform(-1, 1, (4, 4)).astype(np.float32)
        stack = np.stack([m, m, m, m])
        u = uncertainty_map(stack, mean_map(stack))
        assert np.all(u.values == 0.0)

    def test_variance_of_zero_one_pair(self):
        stack = np.stack([np.zeros((2, 2), np.float32), np.ones((2, 2), np.float32)])
        u = uncertainty_map(stack, mean_map(stack))
        assert np.allclose(u.values, 0.25)

    @pytest.mark.parametrize("seed", range(8))
    def test_variance_identity_and_oracle(self, seed):
        stack = random_stack(seed + 50)
        mu = mean_map(stack)
        u = uncertainty_map(stack, mu)
        arr = stack.astype(np.float64)
        identity = (arr * arr).mean(axis=0) - mu.values.astype(np.float64) ** 2
        assert np.allclose(u.values, identity, atol=1e-6)
        assert u.values.min() >= -1e-9
        expected = np.array(variance_oracle(list(stack)))
        assert np.allclose(u.values, expected, atol=1e-6)

    def test_reductions_commute_with_stack_order(self):
        stack = random_stack(7)
        rev = stack[::-1]
        assert np.array_equal(mean_map(stack).values, mean_map(rev).values)
        u1 = uncertainty_map(stack, mean_map(stack)).values
        u2 = uncertainty_map(rev, mean_map(rev)).values
        assert np.array_equal(u1, u2)

    def test_variance_shape_mismatch(self):
        stack = random_stack(9)
        with pytest.raises(ShapeError):
            uncertainty_map(stack, ScalarMap(np.zeros((2, 2), dtype=np.float32)))

    @settings(deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)),
        data=st.data(),
    )
    def test_stack_rows_match_cosine_oracle(self, shape, data):
        c, h, w = shape
        f = FeatureMap(data.draw(arrays(np.float32, (c, h, w), elements=_entries)))
        n = data.draw(st.integers(1, 4))
        protos = data.draw(arrays(np.float64, (n, c), elements=_entries))
        stack = similarity_stack(f, protos)
        assert stack.shape == (n, h, w) and stack.dtype == np.float32
        assert stack.min() >= -1.0 and stack.max() <= 1.0
        for p, m in zip(protos, stack):
            assert np.allclose(m, cosine_oracle(f.data, p), atol=1e-6)

    @settings(deadline=None, max_examples=60)
    @given(
        c=st.integers(1, 1100),
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        n=st.integers(1, 8),
        exponents=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        zero_share=st.sampled_from([0.0, 0.25, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(c=1, h=1, w=1, n=1, exponents=(0, 0), zero_share=0.0, seed=0)
    @example(c=1024, h=12, w=12, n=8, exponents=(-30, 30), zero_share=0.25, seed=1)
    @example(c=1100, h=7, w=9, n=3, exponents=(30, 30), zero_share=0.25, seed=2)
    @example(c=384, h=5, w=5, n=4, exponents=(-30, -30), zero_share=1.0, seed=3)
    def test_stack_is_bit_identical_to_reference(self, c, h, w, n, exponents, zero_share, seed):
        # per-pixel and per-prototype magnitudes 10**e with e between the two
        # drawn exponents; zero_share of the pixels and prototypes are zeroed
        rng = np.random.default_rng(seed)
        lo, hi = sorted(exponents)
        feats = rng.standard_normal((c, h * w)) * 10.0 ** rng.integers(lo, hi + 1, h * w)
        feats[:, rng.random(h * w) < zero_share] = 0.0
        protos = rng.standard_normal((n, c)) * 10.0 ** rng.integers(lo, hi + 1, (n, 1))
        protos[rng.random(n) < zero_share] = 0.0
        f = FeatureMap(feats.astype(np.float32).reshape(c, h, w))
        got, want = similarity_stack(f, protos), stack_reference(f, protos)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0

    @settings(deadline=None, max_examples=100)
    @given(
        c=st.integers(1, 40),
        hw=st.integers(1, 60),
        n=st.integers(1, 8),
        zero_rows=st.sets(st.integers(0, 8)),
        zero_pixels=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(c=3, hw=4, n=2, zero_rows={2}, zero_pixels=False, seed=0)
    @example(c=3, hw=4, n=2, zero_rows=set(), zero_pixels=True, seed=1)
    def test_equal_score_rows_give_equal_cosine_rows(self, c, hw, n, zero_rows, zero_pixels, seed):
        # the sibling rule _maps relies on: the first n rows of a longer product give the
        # bytes of an n-row product with the same rows, whichever path (plain or masked
        # divide) each takes
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((c, hw))
        if zero_pixels:
            feats[:, rng.random(hw) < 0.3] = 0.0
        protos = rng.standard_normal((n + 1, c))
        protos[[k for k in zero_rows if k <= n]] = 0.0
        f = FeatureMap(feats.astype(np.float32).reshape(c, 1, hw))
        query, pix_norm = query_side(f)
        scores = similarity_scores(protos, query)
        kept = scores.copy()
        full = rounded_cosines(scores, protos, pix_norm)
        assert np.array_equal(scores, kept)  # the product is read, never written
        part = rounded_cosines(scores[:n].copy(), protos[:n], pix_norm)
        assert full[:n].tobytes() == part.tobytes()
        assert full.astype(np.float32).tobytes() == similarity_stack(f, protos).tobytes()

    @settings(deadline=None, max_examples=100)
    @given(
        c=st.integers(1, 40),
        hw=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        n=st.integers(1, 8),
        zero_rows=st.sets(st.integers(0, 7)),
        zero_pixels=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(c=3, hw=(2, 2), n=2, zero_rows=set(), zero_pixels=False, seed=0)  # the plain divide
    @example(c=3, hw=(2, 2), n=2, zero_rows={1}, zero_pixels=False, seed=1)  # a zero-norm prototype
    @example(c=3, hw=(5, 5), n=2, zero_rows=set(), zero_pixels=True, seed=2)  # zero pixels
    def test_stack_equals_the_float32_epilogue(self, c, hw, n, zero_rows, zero_pixels, seed):
        # one epilogue, rounded in its float64 buffer and then cast, gives the bytes the
        # float32 epilogue gave, on the plain and on the masked divide
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((c, hw[0] * hw[1]))
        if zero_pixels:
            feats[:, rng.random(hw[0] * hw[1]) < 0.3] = 0.0
        protos = rng.standard_normal((n, c))
        protos[[k for k in zero_rows if k < n]] = 0.0
        f = FeatureMap(feats.astype(np.float32).reshape(c, *hw))
        query, pix_norm = query_side(f)
        scores = similarity_scores(protos, query)
        want = cosine_rows_reference(scores, protos, pix_norm).reshape(n, *hw)
        got = similarity_stack(f, protos)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=100)
    @given(
        c=st.integers(1, 40),
        hw=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        n=st.integers(1, 70),
        zero_pixels=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fused_epilogue_gives_the_stack_bytes(self, c, hw, n, zero_pixels, seed):
        # one float64 buffer, rounded to float32 in place, then its mean and variance in
        # place: the bytes of the float32 stack and its two reductions
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((c, hw[0] * hw[1]))
        if zero_pixels:
            feats[:, rng.random(hw[0] * hw[1]) < 0.3] = 0.0
        protos = rng.standard_normal((n, c))
        f = FeatureMap(feats.astype(np.float32).reshape(c, *hw))
        query, pix_norm = query_side(f)
        scores = similarity_scores(protos, query)
        stack = similarity_stack(f, protos)
        rounded = rounded_cosines(scores, protos, pix_norm)
        assert rounded.dtype == np.float64 and np.array_equal(rounded, stack.reshape(n, -1))
        mean, uncert = stack_moments(rounded.reshape(n, *hw))
        want_mean = mean_map(stack)
        assert mean.values.tobytes() == want_mean.values.tobytes()
        assert uncert.values.tobytes() == uncertainty_map(stack, want_mean).values.tobytes()

    @settings(deadline=None)
    @given(
        stack=st.tuples(st.integers(1, 8), st.integers(1, 5), st.integers(1, 5)).flatmap(
            lambda shape: arrays(np.float32, shape, elements=st.floats(-1.0, 1.0, width=32))
        )
    )
    def test_variance_is_bit_identical_to_the_two_temporary_form(self, stack):
        mean = mean_map(stack)
        diff = stack.astype(np.float64) - mean.values.astype(np.float64)
        want = ScalarMap((diff * diff).mean(axis=0))
        assert uncertainty_map(stack, mean).values.tobytes() == want.values.tobytes()

    def test_stack_holds_one_float64_copy_of_the_query(self):
        # the traced peak of one call stays within 1.5x the query's float64
        # size: one copy for the product and the norms, no second temporary
        c, h, w, n = 384, 32, 32, 31
        rng = np.random.default_rng(0)
        f = FeatureMap(rng.standard_normal((c, h, w)).astype(np.float32))
        protos = rng.standard_normal((n, c))
        tracemalloc.start()
        try:
            similarity_stack(f, protos)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * c * h * w

    @settings(deadline=None)
    @given(
        stack=st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(1, 5)).flatmap(
            lambda shape: arrays(np.float32, shape, elements=st.floats(-1.0, 1.0, width=32))
        )
    )
    def test_reductions_match_oracles(self, stack):
        mu = mean_map(stack)
        assert np.allclose(mu.values, mean_oracle(list(stack)), atol=1e-7)
        u = uncertainty_map(stack, mu)
        assert np.allclose(u.values, variance_oracle(list(stack)), atol=1e-6)


class TestPercentile:
    def test_constant_map(self):
        m = ScalarMap(np.full((5, 5), 0.7, dtype=np.float32))
        for pct in (5.0, 50.0, 95.0):
            assert percentile_threshold(m, pct) == pytest.approx(0.7)

    def test_one_to_hundred_at_95(self):
        vals = np.arange(1, 101, dtype=np.float32).reshape(10, 10)
        assert percentile_threshold(ScalarMap(vals), 95.0) == pytest.approx(95.05)

    def test_median_of_three(self):
        m = ScalarMap(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
        assert percentile_threshold(m, 50.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("pct", [10.0, 50.0, 95.0, 99.0])
    def test_matches_sort_interpolate_oracle(self, seed, pct):
        rng = np.random.default_rng(seed)
        m = ScalarMap(rng.standard_normal((7, 9)).astype(np.float32))
        got = percentile_threshold(m, pct)
        assert got == pytest.approx(percentile_oracle(m.values.ravel(), pct), rel=1e-12)

    @pytest.mark.parametrize("pct", [0.0, 100.0, -3.0, 120.0])
    def test_out_of_range_pct(self, pct):
        m = ScalarMap(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(ConfigError):
            percentile_threshold(m, pct)

    @settings(deadline=None, max_examples=400)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        values=st.sampled_from(["ties", "signed-zero", "huge", "normal"]),
        pct=st.one_of(
            st.sampled_from([1e-9, 5.0, 25.0, 50.0, 95.0, 99.0, 100.0 - 1e-12]),
            st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_equal_np_percentile(self, shape, values, pct, seed):
        # the partition must land on numpy's order statistics, signed zeros included
        rng = np.random.default_rng(seed)
        vals = {
            "ties": lambda: rng.integers(0, 3, shape),
            "signed-zero": lambda: rng.choice([0.0, -0.0, 1.0, -1.0], shape),
            "huge": lambda: rng.choice([-1.0, 1.0], shape) * 1e30 * (1.0 + rng.random(shape)),
            "normal": lambda: rng.standard_normal(shape),
        }[values]()
        m = ScalarMap(np.asarray(vals, dtype=np.float32))
        want = float(np.percentile(m.values.astype(np.float64), pct))
        assert np.float64(percentile_threshold(m, pct)).tobytes() == np.float64(want).tobytes()


def extract_candidates(m, tau, tag):
    """The pixels of ``candidate_mask`` as an N x 2 (row, col) array, row-major."""
    return np.argwhere(candidate_mask(m, tau, tag))


class TestExtractCandidates:
    def test_tau_at_min_selects_everything(self):
        rng = np.random.default_rng(0)
        m = ScalarMap(rng.standard_normal((4, 5)).astype(np.float32))
        cands = extract_candidates(m, float(m.values.min()), "mean")
        assert len(cands) == 20

    def test_tau_at_max_selects_argmax(self):
        vals = np.zeros((3, 3), dtype=np.float32)
        vals[1, 2] = vals[2, 0] = 5.0
        cands = extract_candidates(ScalarMap(vals), 5.0, "mean")
        assert {tuple(p) for p in cands.tolist()} == {(1, 2), (2, 0)}

    def test_row_major_order(self):
        vals = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=np.float32)
        cands = extract_candidates(ScalarMap(vals), 1.0, "mean")
        assert cands.dtype == np.int64 and cands.tolist() == [[0, 0], [1, 0], [1, 1]]

    @settings(deadline=None, max_examples=200)
    @given(
        shape=st.tuples(st.integers(1, 20), st.integers(1, 20)),
        levels=st.integers(1, 4),
        tau_pick=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_row_major_pixel_loop(self, shape, levels, tau_pick, seed):
        # float32 values against a float64 tau just above or below one of them
        rng = np.random.default_rng(seed)
        m = ScalarMap((rng.integers(0, levels, shape) * 0.1).astype(np.float32))
        level = float(m.values.ravel()[rng.integers(m.values.size)])
        tau = [level, np.nextafter(level, np.inf), np.nextafter(level, -np.inf), 0.1][tau_pick]
        want = candidates_oracle(m.values, tau)
        if not want:
            with pytest.raises(EmptyCandidateError):
                extract_candidates(m, tau, "mean")
            return
        got = extract_candidates(m, tau, "mean")
        assert got.dtype == np.int64 and got.shape == (len(want), 2)
        assert [tuple(p) for p in got.tolist()] == want

    def test_about_five_percent_pass_the_95th(self):
        rng = np.random.default_rng(42)
        m = ScalarMap(rng.standard_normal((20, 20)).astype(np.float32))
        tau = percentile_threshold(m, 95.0)
        cands = extract_candidates(m, tau, "mean")
        assert 15 <= len(cands) <= 25  # 5% of 400 = 20, give or take rounding

    def test_unreachable_tau(self):
        m = ScalarMap(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(EmptyCandidateError):
            extract_candidates(m, 1.0, "mean")

    @pytest.mark.parametrize("seed", range(6))
    def test_percentile_candidates_never_empty_and_monotone(self, seed):
        rng = np.random.default_rng(seed)
        m = ScalarMap(rng.standard_normal((10, 10)).astype(np.float32))
        previous = None
        for pct in (50.0, 75.0, 90.0, 99.0):
            cands = extract_candidates(m, percentile_threshold(m, pct), "mean")
            assert len(cands) >= 1
            cands = {tuple(p) for p in cands.tolist()}
            if previous is not None:
                assert cands <= previous
            previous = cands


class TestPgmExport:
    def test_header_and_payload(self, tmp_path):
        vals = np.array([[0.0, 0.5], [1.0, 0.25]], dtype=np.float32)
        path = tmp_path / "m.pgm"
        write_pgm(ScalarMap(vals), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert list(raw[len(b"P5\n2 2\n255\n") :]) == [0, 128, 255, 64]

    def test_constant_map_is_all_zero(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm(ScalarMap(np.full((2, 3), 7.0, dtype=np.float32)), path)
        assert path.read_bytes().endswith(b"\x00" * 6)
