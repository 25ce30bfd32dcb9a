import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from maup.errors import SpecError
from maup.phantom import FAMILIES, PhantomSpec, generate_phantom, paint_phantom, phantom_draws
from maup.prototypes import regional_prototypes
from maup.simmaps import cosine_map

from oracles import generate_phantom_reference


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(SpecError):
            PhantomSpec(family="cube")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size": 8},
            {"channels": 2},
            {"contrast": 0.0},
            {"contrast": 1.5},
            {"noise": -0.1},
            {"seed": -1},
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(SpecError):
            PhantomSpec(family="disk", **kwargs)

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_non_finite_noise(self, noise):
        # nan passed a bare `noise < 0` check and then painted no noise at all
        with pytest.raises(SpecError, match="noise"):
            PhantomSpec(family="disk", noise=noise)


class TestGeneration:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_generates(self, family):
        ph = generate_phantom(PhantomSpec(family=family, seed=3, noise=0.1))
        assert ph.support_mask.foreground_count > 0
        assert ph.query_gt.foreground_count > 0
        assert np.isfinite(ph.support_features.data).all()
        assert np.isfinite(ph.query_features.data).all()

    @settings(deadline=None, max_examples=60)
    @given(
        family=st.sampled_from(FAMILIES),
        size=st.integers(16, 48),
        channels=st.integers(3, 24),
        contrast=st.floats(0.0, 1.0, exclude_min=True),
        noise=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(family="disk", size=32, channels=16, contrast=1.0, noise=0.1, seed=3)
    @example(family="ellipse", size=32, channels=16, contrast=1.0, noise=0.1, seed=3)
    @example(family="two-lobe", size=32, channels=16, contrast=1.0, noise=0.1, seed=3)
    @example(family="annulus", size=32, channels=16, contrast=1.0, noise=0.1, seed=3)
    def test_query_intensity_is_binary(self, family, size, channels, contrast, noise, seed):
        # every field of the spec leaves the intensity a 0/1 organ-or-decoy mask, so a sweep's
        # components are the same at any threshold in (0, 1]: ablation_run labels them at 0.5
        spec = PhantomSpec(family, size=size, channels=channels, contrast=contrast, noise=noise, seed=seed)
        try:
            ph = generate_phantom(spec)
        except SpecError:
            return  # the organ is clipped away: no episode to check
        values = ph.query_intensity.values
        assert values.shape == (size, size) and set(np.unique(values)) <= {0.0, 1.0}

    def test_same_seed_is_bit_identical(self):
        spec = PhantomSpec(family="two-lobe", contrast=0.5, noise=0.2, seed=11)
        a = generate_phantom(spec)
        b = generate_phantom(spec)
        assert a.support_features.data.tobytes() == b.support_features.data.tobytes()
        assert a.query_features.data.tobytes() == b.query_features.data.tobytes()
        assert np.array_equal(a.support_mask.bits, b.support_mask.bits)
        assert np.array_equal(a.query_gt.bits, b.query_gt.bits)

    def test_different_seeds_differ(self):
        a = generate_phantom(PhantomSpec(family="disk", noise=0.1, seed=0))
        b = generate_phantom(PhantomSpec(family="disk", noise=0.1, seed=1))
        assert a.query_features.data.tobytes() != b.query_features.data.tobytes()

    def test_query_is_a_transformed_support(self):
        differing = 0
        for seed in range(6):
            ph = generate_phantom(PhantomSpec(family="disk", seed=seed))
            if not np.array_equal(ph.query_gt.bits, ph.support_mask.bits):
                differing += 1
        assert differing >= 4  # shift/scale jitter rarely degenerates to identity

    def test_noise_free_organ_similarity_dominates_background(self):
        ph = generate_phantom(PhantomSpec(family="disk", contrast=1.0, noise=0.0, seed=5))
        proto = regional_prototypes(ph.support_features, ph.support_mask.bits.astype(np.int64) - 1)[0]
        sims = cosine_map(ph.query_features, proto).values
        organ = ph.query_gt.bits.astype(bool)
        assert sims[organ].min() > sims[~organ].max()


class TestFamilyGeometry:
    def test_annulus_has_a_hole(self):
        ph = generate_phantom(PhantomSpec(family="annulus", seed=2))
        gt = ph.query_gt.bits
        assert ph.query_gt.foreground_count > 0
        _, n_fg = ndimage.label(gt)
        _, n_bg = ndimage.label(1 - gt)
        assert n_fg == 1
        assert n_bg == 2  # enclosed hole plus the outside

    def test_two_lobe_decoy_is_outside_ground_truth(self):
        ph = generate_phantom(PhantomSpec(family="two-lobe", contrast=0.4, noise=0.1, seed=4))
        intensity = ph.query_intensity.values >= 0.5
        gt = ph.query_gt.bits.astype(bool)
        decoy = intensity & ~gt
        assert decoy.sum() > 0
        _, n_blobs = ndimage.label(intensity)
        assert n_blobs == 2
        # lobes must not touch (4-connectivity) or negatives would kill the organ
        grown = ndimage.binary_dilation(gt)
        assert not (grown & decoy).any()

    def test_two_lobe_decoy_resembles_periphery_not_organ(self):
        ph = generate_phantom(PhantomSpec(family="two-lobe", contrast=0.4, noise=0.0, seed=6))
        gt = ph.query_gt.bits.astype(bool)
        decoy = (ph.query_intensity.values >= 0.5) & ~gt
        organ_proto = regional_prototypes(ph.support_features, ph.support_mask.bits.astype(np.int64) - 1)[0]
        sims = cosine_map(ph.query_features, organ_proto).values
        assert sims[gt].min() > sims[decoy].max()


def phantom_arrays(ph):
    return [ph.support_features.data, ph.support_mask.bits, ph.query_features.data, ph.query_gt.bits,
            ph.query_intensity.values]


def same_phantom(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(phantom_arrays(a), phantom_arrays(b)))


class TestSharedDraws:
    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([16, 23, 32]),
        channels=st.sampled_from([3, 5, 16]),
        specs=st.lists(
            st.tuples(st.sampled_from(FAMILIES), st.sampled_from([0.0, 0.1, 0.7]), st.sampled_from([1.0, 0.4])),
            min_size=1, max_size=8,
        ),
    )
    def test_every_family_painted_from_one_draw_equals_its_own_phantom(self, seed, size, channels, specs):
        # one seed's draws serve families, noise levels and contrasts in any order; a
        # noise-free spec before a noisy one leaves the noise fields undrawn until needed
        draws = phantom_draws(seed, size, channels)
        for family, noise, contrast in specs:
            spec = PhantomSpec(family, size=size, channels=channels, contrast=contrast, noise=noise, seed=seed)
            try:
                want = generate_phantom_reference(spec)
            except SpecError:
                with pytest.raises(SpecError):
                    paint_phantom(spec, draws)
                continue
            assert same_phantom(paint_phantom(spec, draws), want)
            assert same_phantom(generate_phantom(spec), want)

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_channels_past_one_paint_block_equal_the_reference(self, family, noise):
        # a 32 x 32 scene is painted 64 channels at a time: 150 channels end in a partial block
        spec = PhantomSpec(family, size=32, channels=150, contrast=0.5, noise=noise, seed=9)
        assert same_phantom(generate_phantom(spec), generate_phantom_reference(spec))

    def test_noise_fields_are_drawn_once_and_only_when_needed(self):
        draws = phantom_draws(4, 16, 3)
        paint_phantom(PhantomSpec("disk", size=16, channels=3, seed=4), draws)
        assert "noise" not in vars(draws)
        first = paint_phantom(PhantomSpec("annulus", size=16, channels=3, noise=0.2, seed=4), draws)
        fields = draws.noise
        again = paint_phantom(PhantomSpec("annulus", size=16, channels=3, noise=0.2, seed=4), draws)
        assert draws.noise is fields and same_phantom(first, again)
