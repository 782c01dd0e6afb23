"""Synthetic scenes and the direct gradient-descent fitting harness."""

import math
import warnings

import numpy as np
import pytest

from heatloss import (
    FitConfig,
    InitMode,
    LossConfig,
    LossVariant,
    NonFiniteLossError,
    PlacementError,
    SigmaParams,
    SynthParams,
    ValidationError,
    fit_direct,
    generate_scene,
    loss_with_grad,
    run_desk_experiment,
    supervision_bundle,
)
from heatloss.grid import Grid
from heatloss.synth import expit

SIGMA = SigmaParams(eta=1.0, eps_sigma=3.0)


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

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            SynthParams(seed=1, width=8, height=8, n_heads=1, size_range=(0.0, 4.0))
        with pytest.raises(ValidationError):
            SynthParams(seed=1, width=8, height=8, n_heads=-1)


class TestSupervisionBundle:
    def test_binary_variants_get_binary_map_twice(self):
        scene = small_scene()
        bundle = supervision_bundle(scene, SIGMA, LossVariant.ALPHA_FOCAL)
        assert bundle.heatmap.is_binary()
        np.testing.assert_array_equal(bundle.heatmap.values, bundle.mask.values)
        assert bundle.n_objects == len(scene.boxes)

    def test_mask_variants_get_truncated_consistent_heatmap(self):
        scene = small_scene()
        bundle = supervision_bundle(scene, SIGMA, LossVariant.MASK_FOCAL)
        support = bundle.heatmap.values > 0.0
        np.testing.assert_array_equal(support, bundle.mask.values == 1.0)
        pred = Grid(np.full(bundle.heatmap.shape, 0.5))
        loss_with_grad(pred, bundle, LossConfig(LossVariant.MASK_FOCAL, beta=0.5, gamma=2.0))

    def test_keypoint_variants_keep_full_heatmap(self):
        scene = small_scene()
        bundle = supervision_bundle(scene, SIGMA, LossVariant.HEATMAP_FOCAL)
        assert (bundle.heatmap.values > 0.0).sum() > bundle.mask.values.sum()
        assert (bundle.heatmap.values == 1.0).sum() == len(scene.boxes)


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
        with pytest.raises(NonFiniteLossError, match="learning rate"):
            fit_direct(scene, SIGMA, cfg)

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
            bundle.mask.values == 1.0,
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
            bundle.mask.values == 1.0,
            np.clip(bundle.heatmap.values, cfg.loss.clamp, 1 - cfg.loss.clamp),
            cfg.loss.clamp,
        )
        assert np.abs(trace.final_pred.values - target).max() <= 0.05


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
