"""Synthetic scenes and the direct gradient-descent fitting harness."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatloss import (
    BoxAnnotation,
    FitConfig,
    InitMode,
    LossConfig,
    LossVariant,
    NonFiniteLossError,
    PlacementError,
    SceneAnnotation,
    SigmaParams,
    SynthParams,
    ValidationError,
    fit_direct,
    generate_scene,
    loss_with_grad,
    render_heatmap,
    render_mask,
    run_desk_experiment,
    supervision_bundle,
)
from heatloss.grid import Grid
from heatloss.losses import LossStep, _loss_scale
from heatloss.errors import HeatlossError
from heatloss.synth import _fit_loop, expit
from helpers import reference_fit, reference_scene

SIGMA = SigmaParams(eta=1.0, eps_sigma=3.0)


def fit_config(**overrides):
    return FitConfig(**{"loss": LossConfig(LossVariant.MASK_FOCAL), "steps": 1, "learning_rate": 0.5, **overrides})


def small_scene(n_heads=3, seed=7):
    return generate_scene(
        SynthParams(seed=seed, width=48, height=48, n_heads=n_heads, min_center_gap=14.0)
    )


class TestExpit:
    def test_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expit(np.array([-1000.0, 40.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_interior_matches_scalar_formula(self):
        rng = np.random.default_rng(31)
        x = np.concatenate([np.linspace(-40.0, 40.0, 4001), rng.uniform(-50.0, 50.0, 4000)])
        ref = np.array([1.0 / (1.0 + math.exp(-v)) for v in x])
        assert np.all(np.abs(expit(x) - ref) <= 2 * np.spacing(ref))


class TestGenerateScene:
    def test_zero_heads_yields_empty_scene(self):
        scene = generate_scene(SynthParams(seed=1, width=10, height=12, n_heads=0))
        assert scene.boxes == ()
        assert (scene.width, scene.height) == (10, 12)

    def test_same_seed_is_bit_identical(self):
        params = SynthParams(seed=99, width=64, height=64, n_heads=6, min_center_gap=10.0)
        a, b = generate_scene(params), generate_scene(params)
        assert a == b

    def test_different_seeds_differ(self):
        base = dict(width=64, height=64, n_heads=6, min_center_gap=10.0)
        assert generate_scene(SynthParams(seed=1, **base)) != generate_scene(SynthParams(seed=2, **base))

    def test_pairwise_gaps_hold_exhaustively(self):
        scene = generate_scene(
            SynthParams(seed=42, width=128, height=128, n_heads=5, min_center_gap=20.0)
        )
        assert len(scene.boxes) == 5
        for i, a in enumerate(scene.boxes):
            for b in scene.boxes[i + 1 :]:
                assert math.hypot(a.cx - b.cx, a.cy - b.cy) >= 20.0

    @pytest.mark.parametrize("gap", [0.0, 1e200, 2e299], ids=["no-gap", "gap-1e200", "gap-2e299"])
    def test_gap_holds_where_squares_overflow(self, gap):
        """Offsets near 10**300 square past the float64 range; from about 1.34e154 the gap's own square does
        too, and the distance itself decides, so no pair closer than the gap is accepted."""
        scene = generate_scene(SynthParams(seed=1, width=10**300, height=8, n_heads=3, min_center_gap=gap))
        assert len(scene.boxes) == 3
        for a, b in itertools.combinations(scene.boxes, 2):
            assert math.hypot(a.cx - b.cx, a.cy - b.cy) >= gap

    def test_centers_are_integer_pixels_and_sides_in_range(self):
        scene = generate_scene(
            SynthParams(seed=5, width=32, height=32, n_heads=4, size_range=(2.0, 5.0))
        )
        for box in scene.boxes:
            assert box.cx == int(box.cx) and box.cy == int(box.cy)
            assert 2.0 <= box.w <= 5.0 and 2.0 <= box.h <= 5.0

    def test_infeasible_placement_raises_named_error(self):
        with pytest.raises(PlacementError, match="min_center_gap"):
            generate_scene(SynthParams(seed=3, width=8, height=8, n_heads=9, min_center_gap=50.0))

    def test_impossible_head_count_fails_at_the_first_unplaceable_head(self):
        # no buffer is sized by n_heads up front, so a count far too large to store fails as placement
        with pytest.raises(PlacementError, match="^could not place head 1 with min_center_gap=50.0 "):
            generate_scene(SynthParams(seed=3, width=8, height=8, n_heads=10**11, min_center_gap=50.0))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            SynthParams(seed=1, width=8, height=8, n_heads=1, size_range=(0.0, 4.0))
        with pytest.raises(ValidationError):
            SynthParams(seed=1, width=8, height=8, n_heads=-1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_range_is_one_rule(self, seed):
        message = f"^seed must be a 64-bit unsigned integer, got {seed}$"
        with pytest.raises(ValidationError, match=message):
            SynthParams(seed=seed, width=8, height=8, n_heads=1)
        with pytest.raises(ValidationError, match=message):
            fit_config(seed=seed)

    @pytest.mark.parametrize("build, message", [
        (lambda: SynthParams(seed=1, width=0, height=8, n_heads=1), "scene dimensions must be >= 1, got 0x8"),
        (lambda: SynthParams(seed=1, width=8, height=-3, n_heads=1), "scene dimensions must be >= 1, got 8x-3"),
        (lambda: SynthParams(seed=1, width=8, height=8, n_heads=1, min_center_gap=-1.0),
         "min_center_gap must be >= 0, got -1.0"),
        (lambda: SynthParams(seed=1, width=8, height=8, n_heads=1, min_center_gap=math.nan),
         "min_center_gap must be >= 0, got nan"),
        (lambda: fit_config(init="NO_SUCH_INIT"), "unknown init mode 'NO_SUCH_INIT'"),
        (lambda: fit_config(steps=0), "steps must be >= 1, got 0"),
        (lambda: fit_config(learning_rate=0.0), "learning_rate must be > 0, got 0.0"),
        (lambda: fit_config(learning_rate=math.inf), "learning_rate must be > 0, got inf"),
        (lambda: fit_config(record_every=0), "record_every must be >= 1, got 0"),
    ])
    def test_rejection_names_the_value(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()

    def test_init_mode_by_name(self):
        assert fit_config(init="SEEDED_NOISE", seed=3).init is InitMode.SEEDED_NOISE


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**64 - 1),
    width=st.integers(1, 64),
    height=st.integers(1, 64),
    n_heads=st.integers(0, 40),
    gap=st.one_of(st.integers(0, 20).map(float), st.floats(0.0, 20.0)),
    min_side=st.floats(0.5, 16.0),
    extra_side=st.one_of(st.just(0.0), st.floats(0.0, 16.0)),
)
def test_scene_matches_reference_placement(seed, width, height, n_heads, gap, min_side, extra_side):
    params = SynthParams(seed, width, height, n_heads, (min_side, min_side + extra_side), gap)
    try:
        expected = reference_scene(params)
    except PlacementError as exc:
        with pytest.raises(PlacementError) as raised:
            generate_scene(params)
        assert str(raised.value) == str(exc)
    else:
        assert generate_scene(params) == expected


class TestSupervisionBundle:
    def test_binary_variants_get_binary_map(self):
        scene = small_scene()
        bundle = supervision_bundle(scene, SIGMA, LossVariant.ALPHA_FOCAL)
        assert bundle.heatmap.is_binary()
        np.testing.assert_array_equal(bundle.heatmap.values, render_mask(scene).values)
        assert bundle.n_objects == len(scene.boxes)

    def test_mask_variants_get_truncated_consistent_heatmap(self):
        scene = small_scene()
        bundle = supervision_bundle(scene, SIGMA, LossVariant.MASK_FOCAL)
        mask = render_mask(scene).values
        np.testing.assert_array_equal(bundle.heatmap.values, render_heatmap(scene, SIGMA).values * mask)
        np.testing.assert_array_equal(bundle.heatmap.values > 0.0, mask == 1.0)
        pred = Grid(np.full(bundle.heatmap.shape, 0.5))
        loss_with_grad(pred, bundle, LossConfig(LossVariant.MASK_FOCAL, beta=0.5, gamma=2.0))

    def test_keypoint_variants_keep_full_heatmap(self):
        scene = small_scene()
        bundle = supervision_bundle(scene, SIGMA, LossVariant.HEATMAP_FOCAL)
        assert (bundle.heatmap.values > 0.0).sum() > render_mask(scene).values.sum()
        assert (bundle.heatmap.values == 1.0).sum() == len(scene.boxes)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    width=st.integers(1, 256),
    height=st.integers(1, 48),
    boxes=st.lists(
        st.tuples(
            st.integers(0, 2**16),
            st.integers(0, 2**16),
            st.floats(0.25, 8.0),
            st.floats(1.0, 200.0),
            st.booleans(),
        ),
        max_size=4,
    ),
)
def test_every_supervision_bundle_prepares_every_loss(width, height, boxes):
    """Boxes up to 200 times longer than wide: the kernel underflows inside them."""
    scene = SceneAnnotation(
        width,
        height,
        tuple(
            BoxAnnotation(x % width, y % height, *((side * ratio, side) if wide else (side, side * ratio)))
            for x, y, side, ratio, wide in boxes
        ),
    )
    for variant in LossVariant:
        bundle = supervision_bundle(scene, SIGMA, variant)
        cfg = LossConfig(variant)
        LossStep(bundle.heatmap, cfg, bundle.heatmap.shape, _loss_scale(cfg, bundle.n_objects))


# (height, width, heads) of the scenes, and the losses, that fits are compared on
REFERENCE_SCENES = [(64, 64, 5), (13, 29, 2), (1, 17, 1), (24, 24, 0)]
REFERENCE_LOSSES = [
    LossConfig(LossVariant.FOCAL_SCALAR, gamma=2.0),
    LossConfig(LossVariant.ALPHA_FOCAL, alpha=0.5, gamma=2.0),
    LossConfig(LossVariant.HEATMAP_FOCAL, beta=4.0, gamma=2.0),
    LossConfig(LossVariant.MASK_FOCAL, beta=0.5, gamma=4.0),
    *(
        LossConfig(variant, beta=beta, gamma=gamma, eps1=eps1)
        for variant, beta, gamma in (
            (LossVariant.POLY1_PIXELWISE, 4.0, 2.0),
            (LossVariant.MASK_FOCAL_POLY1, 0.5, 4.0),
        )
        for eps1 in (0.0, 0.5)
    ),
]

# Scenes with far fewer pixel classes than pixels, and classes shared between
# heads: 12 heads on 96x64, two heads on adjacent integer centres (two tied
# 1.0 keypoints), no heads at all, and one 120x1 box inside which the kernel
# underflows to 0, so its rectangle is wider than the heatmap's support.
CLASS_SCENES = {
    "96x64_12_heads": generate_scene(SynthParams(seed=3, width=96, height=64, n_heads=12)),
    "adjacent_centres": SceneAnnotation(
        24, 20, (BoxAnnotation(10.0, 9.0, 7.0, 7.0), BoxAnnotation(11.0, 9.0, 7.0, 7.0))
    ),
    "no_heads": generate_scene(SynthParams(seed=4, width=40, height=40, n_heads=0)),
    "elongated_box": SceneAnnotation(128, 16, (BoxAnnotation(64.0, 8.0, 120.0, 1.0),)),
}


def assert_losses_within_bound(scene, losses, reference, magnitudes):
    """The same recorded steps, and each loss within ``(n_px + 1) 2**-52`` times its magnitude.

    The fit sums each pixel class's term times its pixel count; the reference
    sums the same terms pixel by pixel.  Whatever their order, two sums of at
    most ``n_px`` rounded products, each times the same scale, differ by at
    most about ``2 (n_px + 1) u |scale| sum(|term|)``, with ``u = 2**-53``.
    Where every term has one sign (``eps1`` in [0, 1]) the magnitude is
    ``|loss|``, a relative bound; where the terms may mix signs (``eps1``
    below 0) it is the reference's ``|scale| sum(|term|)`` at that step.
    """
    assert [step for step, _ in losses] == [step for step, _ in reference]
    rel = (scene.width * scene.height + 1) * 2.0**-52
    for (_, value), (_, expected), magnitude in zip(losses, reference, magnitudes):
        assert abs(value - expected) <= rel * magnitude


def assert_matches_reference(scene, cfg):
    trace = fit_direct(scene, SIGMA, cfg)
    losses, final_pred, final_count, _ = reference_fit(scene, SIGMA, cfg)
    assert_losses_within_bound(scene, trace.losses, losses, [abs(value) for _, value in losses])
    assert trace.final_pred.values.tobytes() == final_pred.values.tobytes()
    assert trace.final_count == final_count


class TestFitDirect:
    def test_trace_length_contract(self):
        scene = small_scene(n_heads=1)
        for steps, every in ((1, 1), (5, 2), (10, 3), (10, 10)):
            cfg = FitConfig(
                loss=LossConfig(LossVariant.MASK_FOCAL, beta=0.5, gamma=2.0),
                steps=steps,
                learning_rate=0.5,
                record_every=every,
            )
            trace = fit_direct(scene, SIGMA, cfg)
            assert len(trace.losses) == math.ceil(steps / every)
            assert trace.losses[0][0] == 1

    def test_empty_scene_decays_to_zero_count(self):
        scene = generate_scene(SynthParams(seed=2, width=24, height=24, n_heads=0))
        cfg = FitConfig(
            loss=LossConfig(LossVariant.MASK_FOCAL, beta=0.5, gamma=2.0),
            steps=60,
            learning_rate=0.5,
            init=InitMode.ZEROS_LOGIT,
        )
        trace = fit_direct(scene, SIGMA, cfg)
        first = [loss for _, loss in trace.losses[:10]]
        assert all(a > b for a, b in zip(first, first[1:]))
        assert trace.final_count == 0 and trace.gt_count == 0

    def test_seeded_noise_requires_seed_and_is_deterministic(self):
        with pytest.raises(ValidationError):
            FitConfig(
                loss=LossConfig(LossVariant.MASK_FOCAL),
                steps=1,
                learning_rate=0.1,
                init=InitMode.SEEDED_NOISE,
            )
        scene = small_scene(n_heads=2)
        cfg = FitConfig(
            loss=LossConfig(LossVariant.MASK_FOCAL, beta=0.5, gamma=2.0),
            steps=20,
            learning_rate=0.5,
            init=InitMode.SEEDED_NOISE,
            seed=123,
        )
        a, b = fit_direct(scene, SIGMA, cfg), fit_direct(scene, SIGMA, cfg)
        assert a.losses == b.losses
        np.testing.assert_array_equal(a.final_pred.values, b.final_pred.values)

    def test_non_finite_loss_aborts_with_diagnostic(self):
        scene = small_scene(n_heads=2)
        cfg = FitConfig(
            loss=LossConfig(LossVariant.MASK_FOCAL, alpha=1e308, beta=0.5, gamma=2.0),
            steps=5,
            learning_rate=1e6,
        )
        # no update runs before step 1, so the loss config is to blame, not the learning rate
        message = "^loss became non-finite at step 1; alpha, eps1 or gamma is likely too large$"
        with pytest.raises(NonFiniteLossError, match=message):
            fit_direct(scene, SIGMA, cfg)

    def test_count_weight_overflows_where_no_class_term_does(self):
        """An empty scene is one background class of term about -5e305 at 0.5, weighted by its pixel count."""
        loss = LossConfig(LossVariant.POLY1_PIXELWISE, eps1=1e306, gamma=0.0)
        cfg = FitConfig(loss=loss, steps=1, learning_rate=0.5)
        small, large = SceneAnnotation(4, 4, ()), SceneAnnotation(40, 40, ())
        message = "^loss became non-finite at step 1; alpha, eps1 or gamma is likely too large$"
        with pytest.raises(NonFiniteLossError, match=message):
            fit_direct(large, SIGMA, cfg)
        with pytest.raises(NonFiniteLossError, match="at step 1$"):
            reference_fit(large, SIGMA, cfg)
        assert fit_direct(small, SIGMA, cfg).losses == ((1, 8e306),)
        with pytest.raises(NonFiniteLossError, match=message):
            run_desk_experiment([small, large], [loss], SIGMA, cfg)

    @pytest.mark.parametrize("every", [1, 5])
    def test_non_finite_loss_on_an_unrecorded_step_is_reported_there(self, every):
        scene = SceneAnnotation(
            16, 16, (BoxAnnotation(5.0, 5.0, 6.0, 6.0), BoxAnnotation(11.0, 10.0, 6.0, 6.0))
        )
        loss = LossConfig(
            LossVariant.MASK_FOCAL_POLY1,
            alpha=2.2158254524245735e303,
            beta=0.0,
            gamma=0.5,
            eps1=-1000.0,
        )
        cfg = FitConfig(loss=loss, steps=10, learning_rate=13.522921485538442, record_every=every)
        with pytest.raises(NonFiniteLossError, match="at step 2; the learning rate"):
            fit_direct(scene, SIGMA, cfg)
        with pytest.raises(NonFiniteLossError, match="at step 2$"):
            reference_fit(scene, SIGMA, cfg)

    def test_overflowing_update_aborts_with_diagnostic(self):
        scene = small_scene(n_heads=2)
        cfg = FitConfig(
            loss=LossConfig(LossVariant.FOCAL_SCALAR, gamma=2.0), steps=5, learning_rate=1.7e308
        )
        with pytest.raises(NonFiniteLossError, match=r"learning rate 1\.7e\+308"):
            fit_direct(scene, SIGMA, cfg)

    @pytest.mark.parametrize("init", [InitMode.UNIFORM_HALF, InitMode.SEEDED_NOISE], ids=lambda m: m.value)
    @pytest.mark.parametrize("scene_shape", REFERENCE_SCENES, ids=lambda s: "%dx%d_%d_heads" % s)
    @pytest.mark.parametrize("loss", REFERENCE_LOSSES, ids=lambda c: f"{c.variant.value}_eps1_{c.eps1}")
    def test_matches_reference_loop(self, loss, scene_shape, init):
        height, width, heads = scene_shape
        scene = generate_scene(SynthParams(seed=11, width=width, height=height, n_heads=heads))
        cfg = FitConfig(loss=loss, steps=40, learning_rate=0.5, init=init, record_every=3, seed=5)
        assert_matches_reference(scene, cfg)

    @pytest.mark.parametrize("init", [InitMode.UNIFORM_HALF, InitMode.SEEDED_NOISE], ids=lambda m: m.value)
    @pytest.mark.parametrize("loss", [
        LossConfig(LossVariant.POLY1_PIXELWISE, beta=4.0, gamma=2.0, eps1=-3.0),
        LossConfig(LossVariant.MASK_FOCAL_POLY1, beta=0.5, gamma=4.0, eps1=-3.0),
    ], ids=lambda c: c.variant.value)
    def test_mixed_sign_terms_match_reference_within_their_magnitude(self, loss, init):
        """At eps1 = -3 the term ``d^g (ln(1 - d) + 3 d)`` changes sign near d = 0.94,
        and a learning rate of 24 throws some predictions past it: a step's terms
        cancel, so its loss is bounded against ``|scale| sum(|term|)``, not ``|loss|``."""
        scene = generate_scene(SynthParams(seed=11, width=12, height=10, n_heads=2))
        cfg = FitConfig(loss=loss, steps=40, learning_rate=24.0, init=init, record_every=1, seed=5)
        trace = fit_direct(scene, SIGMA, cfg)
        losses, final_pred, final_count, magnitudes = reference_fit(scene, SIGMA, cfg)
        assert any(m > 1.5 * abs(value) for (_, value), m in zip(losses, magnitudes))  # the terms mix signs
        assert_losses_within_bound(scene, trace.losses, losses, magnitudes)
        assert trace.final_pred.values.tobytes() == final_pred.values.tobytes()
        assert trace.final_count == final_count

    @pytest.mark.parametrize("every", [1, 7])
    @pytest.mark.parametrize("scene_name", list(CLASS_SCENES))
    @pytest.mark.parametrize("loss", REFERENCE_LOSSES, ids=lambda c: f"{c.variant.value}_eps1_{c.eps1}")
    def test_pixel_classes_match_reference_loop(self, loss, scene_name, every):
        cfg = FitConfig(loss=loss, steps=30, learning_rate=0.5, record_every=every)
        assert_matches_reference(CLASS_SCENES[scene_name], cfg)

    # pairs of fits that must agree bit for bit: (init, record_every) against (other_init, 7)
    @pytest.mark.parametrize("init,every,other_init", [
        (InitMode.ZEROS_LOGIT, 7, InitMode.UNIFORM_HALF),
        # a recorded loss does not depend on record_every: the first trace taken at steps 1, 8, 15, ...
        *((init, 1, init) for init in InitMode),
    ], ids=["zeros_logit_is_uniform_half", *(f"record_every_{m.value}" for m in InitMode)])
    @pytest.mark.parametrize("loss", REFERENCE_LOSSES, ids=lambda c: f"{c.variant.value}_eps1_{c.eps1}")
    def test_equivalent_fits_are_bit_identical(self, loss, init, every, other_init):
        assert expit(np.zeros(1))[0] == 0.5
        trace, other = (
            fit_direct(CLASS_SCENES["96x64_12_heads"], SIGMA, FitConfig(
                loss=loss, steps=30, learning_rate=0.5, init=fit_init, record_every=fit_every, seed=5
            ))
            for fit_init, fit_every in ((init, every), (other_init, 7))
        )
        assert trace.losses[:: 7 // every] == other.losses
        assert trace.final_pred.values.tobytes() == other.final_pred.values.tobytes()
        assert trace.final_count == other.final_count

    def test_recorded_losses_non_increasing_at_pinned_configuration(self):
        scene = generate_scene(
            SynthParams(seed=42, width=64, height=64, n_heads=5, min_center_gap=20.0)
        )
        cfg = FitConfig(
            loss=LossConfig(LossVariant.MASK_FOCAL, alpha=1.0, beta=0.5, gamma=4.0),
            steps=2000,
            learning_rate=0.5,
            init=InitMode.UNIFORM_HALF,
            record_every=1,
        )
        trace = fit_direct(scene, SIGMA, cfg)
        values = [loss for _, loss in trace.losses]
        assert all(later <= earlier for earlier, later in zip(values, values[1:]))

    def test_global_minimum_sits_at_clipped_target(self):
        scene = small_scene(n_heads=2)
        cfg = LossConfig(LossVariant.MASK_FOCAL, beta=0.5, gamma=4.0)
        bundle = supervision_bundle(scene, SIGMA, cfg.variant)
        target = np.where(
            bundle.heatmap.values > 0.0,
            np.clip(bundle.heatmap.values, cfg.clamp, 1 - cfg.clamp),
            cfg.clamp,
        )
        best = loss_with_grad(Grid(target), bundle, cfg).value
        rng = np.random.default_rng(81)
        for _ in range(25):
            perturbed = np.clip(target + rng.uniform(-0.2, 0.2, target.shape), 0.0, 1.0)
            assert loss_with_grad(Grid(perturbed), bundle, cfg).value >= best

    @pytest.mark.xfail(
        reason="plain gradient descent stalls around |pred - target| ~ 0.2 at this "
        "step budget: the gamma=4 objective is flat to fourth order at its optimum",
        strict=True,
    )
    def test_prediction_within_five_percent_of_target_after_budget(self):
        scene = generate_scene(
            SynthParams(seed=42, width=64, height=64, n_heads=5, min_center_gap=20.0)
        )
        cfg = FitConfig(
            loss=LossConfig(LossVariant.MASK_FOCAL, alpha=1.0, beta=0.5, gamma=4.0),
            steps=2000,
            learning_rate=0.5,
            init=InitMode.UNIFORM_HALF,
            record_every=100,
        )
        trace = fit_direct(scene, SIGMA, cfg)
        bundle = supervision_bundle(scene, SIGMA, cfg.loss.variant)
        target = np.where(
            bundle.heatmap.values > 0.0,
            np.clip(bundle.heatmap.values, cfg.loss.clamp, 1 - cfg.loss.clamp),
            cfg.loss.clamp,
        )
        assert np.abs(trace.final_pred.values - target).max() <= 0.05


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    width=st.integers(1, 24),
    height=st.integers(1, 24),
    heads=st.integers(0, 6),
    scene_seed=st.integers(0, 2**32 - 1),
    loss=st.sampled_from(REFERENCE_LOSSES),
    init=st.sampled_from([InitMode.UNIFORM_HALF, InitMode.SEEDED_NOISE]),
    every=st.integers(1, 9),
    steps=st.integers(1, 12),
)
def test_fit_matches_reference_loop_on_random_scenes(
    width, height, heads, scene_seed, loss, init, every, steps
):
    scene = generate_scene(SynthParams(seed=scene_seed, width=width, height=height, n_heads=heads))
    cfg = FitConfig(
        loss=loss, steps=steps, learning_rate=0.5, init=init, record_every=every, seed=scene_seed
    )
    assert_matches_reference(scene, cfg)


def fit_outcome(fit):
    """What a fit returns, or the type and message of what it raises."""
    try:
        return fit()
    except HeatlossError as exc:
        return type(exc), str(exc)


def error_scene(heads, side):
    return generate_scene(
        SynthParams(seed=11 + heads, width=side, height=side, n_heads=heads, size_range=(3.0, 6.0))
    )


# (loss, learning rate, sigma, earlier scene and its error, later scene and its error at
# an earlier step).  The errors are those that one fit per scene raises.
LATER_SCENE_FAILS_FIRST = {
    "non_finite_gradient": (
        LossConfig(LossVariant.POLY1_PIXELWISE, alpha=1e305, beta=0.5, gamma=2.0, eps1=-10.0),
        1e-304,
        SIGMA,
        error_scene(2, 16),
        (ValidationError, "loss gradient became non-finite at step 6"),
        error_scene(0, 16),
        (ValidationError, "loss gradient became non-finite at step 2"),
    ),
    "non_finite_loss": (
        LossConfig(LossVariant.MASK_FOCAL_POLY1, alpha=1e306, beta=0.5, gamma=2.0, eps1=-10.0),
        1e-308,
        SIGMA,
        error_scene(2, 16),
        (NonFiniteLossError, "loss became non-finite at step 31; the learning rate 1e-308 is likely too large"),
        error_scene(0, 16),
        (NonFiniteLossError, "loss became non-finite at step 1; alpha, eps1 or gamma is likely too large"),
    ),
    "update_overflow": (
        LossConfig(LossVariant.POLY1_PIXELWISE, alpha=1e305, beta=0.5, gamma=0.0, eps1=-10.0),
        300.0,
        SIGMA,
        error_scene(2, 8),
        (ValidationError, "loss gradient became non-finite at step 2"),
        SceneAnnotation(2, 2, ()),
        (NonFiniteLossError, "the logit update overflowed at step 1; the learning rate 300.0 is too large"),
    ),
    # a kernel width that underflows to 0 fails the heatmap render
    "preparation": (
        LossConfig(LossVariant.POLY1_PIXELWISE, alpha=1e305, beta=0.5, gamma=2.0, eps1=-10.0),
        1e-304,
        SigmaParams(eta=1.0, eps_sigma=1e308),
        error_scene(0, 16),
        (ValidationError, "loss gradient became non-finite at step 2"),
        SceneAnnotation(4, 4, (BoxAnnotation(1.0, 2.0, 2.0, 2.0),)),
        (
            ValidationError,
            "the kernel width of box 0 underflows: sigma = 5.033689734995427e-308 "
            "(eta = 1.0, eps_sigma = 1e+308) gives 2 sigma^2 = 0",
        ),
    ),
}


# the extreme loss and learning rate of each case above, under which some scenes fail
EXTREME_FITS = [(loss, lr) for loss, lr, *_ in LATER_SCENE_FAILS_FIRST.values()]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 20), st.integers(1, 20), st.integers(0, 4), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=4,
    ),
    fit=st.sampled_from([(loss, 0.5) for loss in REFERENCE_LOSSES] + EXTREME_FITS),
    init=st.sampled_from(list(InitMode)),
    every=st.integers(1, 9),
    steps=st.integers(1, 40),
)
# the later scene fails first in the batch: at an earlier step, or with another error
@example([(12, 12, 2, 1), (12, 12, 0, 2)], EXTREME_FITS[0], InitMode.UNIFORM_HALF, 1, 12)
@example([(8, 8, 4, 1), (8, 8, 0, 2)], EXTREME_FITS[2], InitMode.SEEDED_NOISE, 3, 5)
def test_batch_equals_batch_of_one(shapes, fit, init, every, steps):
    """One loop over several scenes gives each scene its own fit, bit for bit, or
    raises some scene's own error; the experiment raises the first failing scene's."""
    scenes = [
        generate_scene(SynthParams(seed=seed, width=width, height=height, n_heads=heads))
        for height, width, heads, seed in shapes
    ]
    loss, lr = fit
    cfg = FitConfig(loss=loss, steps=steps, learning_rate=lr, init=init, record_every=every, seed=7)
    alone = [fit_outcome(lambda: fit_direct(scene, SIGMA, cfg)) for scene in scenes]
    errors = [outcome for outcome in alone if isinstance(outcome, tuple)]
    if errors:
        # the loop raises some scene's own error, so refitting the scenes alone meets one
        assert fit_outcome(lambda: _fit_loop(scenes, SIGMA, cfg)) in errors
        assert fit_outcome(lambda: run_desk_experiment(scenes, [loss], SIGMA, cfg)) == errors[0]
        return
    batch = _fit_loop(scenes, SIGMA, cfg)
    assert len(batch) == len(scenes)
    for scene, trace, own in zip(scenes, batch, alone):
        losses, final_pred, final_count, magnitudes = reference_fit(scene, SIGMA, cfg)
        assert trace.losses == own.losses
        assert_losses_within_bound(scene, trace.losses, losses, magnitudes)
        assert trace.final_pred.values.tobytes() == own.final_pred.values.tobytes() == final_pred.values.tobytes()
        assert trace.final_count == own.final_count == final_count
        assert trace.gt_count == len(scene.boxes)
    (_, report), = run_desk_experiment(scenes, [loss], SIGMA, cfg)
    assert report.per_image == tuple((t.final_count, t.gt_count) for t in batch)


@pytest.mark.parametrize("every", [1, 4])
@pytest.mark.parametrize("case", list(LATER_SCENE_FAILS_FIRST))
def test_batch_raises_the_first_failing_scenes_error(case, every):
    """The error is the earliest scene's, even where a later scene fails at an earlier step."""
    loss, lr, sigma, first, first_error, later, later_error = LATER_SCENE_FAILS_FIRST[case]
    cfg = FitConfig(loss=loss, steps=40, learning_rate=lr, record_every=every)
    assert fit_outcome(lambda: fit_direct(first, sigma, cfg)) == first_error
    assert fit_outcome(lambda: fit_direct(later, sigma, cfg)) == later_error
    for scenes, error in (
        ([first], first_error),
        ([later], later_error),
        ([first, later], first_error),
        ([later, first], later_error),
        ([first, first, later], first_error),
        ([first, later, later], first_error),
    ):
        assert fit_outcome(lambda: _fit_loop(scenes, sigma, cfg)) in (first_error, later_error)
        assert fit_outcome(lambda: run_desk_experiment(scenes, [loss], sigma, cfg)) == error
    # the first variant fits; the second raises
    variants = [LossConfig(LossVariant.MASK_FOCAL), loss]
    assert fit_outcome(lambda: run_desk_experiment([first], variants, sigma, cfg)) == first_error


class TestDeskExperiment:
    def test_single_scene_single_variant(self):
        scene = small_scene(n_heads=2)
        fit = FitConfig(
            loss=LossConfig(LossVariant.MASK_FOCAL, beta=0.5, gamma=2.0),
            steps=50,
            learning_rate=0.5,
        )
        results = run_desk_experiment([scene], [fit.loss], SIGMA, fit)
        assert len(results) == 1
        _, report = results[0]
        assert report.m == 1

    def test_duplicate_variants_give_identical_reports(self):
        scene = small_scene(n_heads=2)
        cfg = LossConfig(LossVariant.HEATMAP_FOCAL, beta=4.0, gamma=2.0)
        fit = FitConfig(loss=cfg, steps=40, learning_rate=0.5)
        results = run_desk_experiment([scene], [cfg, cfg], SIGMA, fit)
        assert results[0][1] == results[1][1]

    def test_zeros_logit_report_is_uniform_half_report(self):
        scenes = [small_scene(n_heads=heads, seed=heads) for heads in range(4)]
        half, zeros = (
            run_desk_experiment(scenes, REFERENCE_LOSSES, SIGMA, FitConfig(
                loss=REFERENCE_LOSSES[0], steps=60, learning_rate=0.5, init=init
            ))
            for init in (InitMode.UNIFORM_HALF, InitMode.ZEROS_LOGIT)
        )
        assert {cfg.variant for cfg, _ in half} == set(LossVariant)
        assert half == zeros

    def test_empty_inputs_rejected(self):
        fit = FitConfig(loss=LossConfig(LossVariant.MASK_FOCAL), steps=1, learning_rate=0.5)
        with pytest.raises(ValidationError):
            run_desk_experiment([], [fit.loss], SIGMA, fit)

    def test_two_variant_comparison_over_ten_scenes(self):
        scenes = [
            generate_scene(SynthParams(seed=s, width=48, height=48, n_heads=3, min_center_gap=14.0))
            for s in range(10)
        ]
        variants = [
            LossConfig(LossVariant.HEATMAP_FOCAL, beta=4.0, gamma=2.0),
            LossConfig(LossVariant.MASK_FOCAL_POLY1, beta=0.5, gamma=4.0),
        ]
        fit = FitConfig(loss=variants[0], steps=300, learning_rate=0.5)
        results = run_desk_experiment(scenes, variants, SIGMA, fit)
        assert [cfg.variant for cfg, _ in results] == [v.variant for v in variants]
        for _, report in results:
            assert report.m == 10
            assert all(truth == 3 for _, truth in report.per_image)
