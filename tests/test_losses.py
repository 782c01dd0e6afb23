"""Loss family: worked values, reduction identities, and algebraic properties."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from heatloss import (
    DimensionMismatchError,
    Grid,
    GroundTruthBundle,
    LossConfig,
    LossVariant,
    ScalarSample,
    ValidationError,
    batched_loss_values,
    focal_scalar,
    loss_with_grad,
)
from heatloss.losses import random_instance


def bundle(heat, n):
    return GroundTruthBundle(Grid(np.asarray(heat, float)), n)


def grid(values):
    return Grid(np.asarray(values, float))


class TestFocalScalar:
    def test_perfect_prediction_is_near_zero(self):
        assert abs(focal_scalar(ScalarSample(1.0, 1), 2.0)) <= 1e-11

    def test_gamma_zero_is_cross_entropy(self):
        assert focal_scalar(ScalarSample(0.5, 1), 0.0) == pytest.approx(-math.log(0.5), abs=1e-15)
        assert focal_scalar(ScalarSample(0.5, 1), 0.0) == pytest.approx(0.693147, abs=1e-6)

    def test_worked_value(self):
        got = focal_scalar(ScalarSample(0.9, 1), 2.0)
        assert got == pytest.approx(-(0.1**2) * math.log(0.9), rel=1e-9)
        assert got == pytest.approx(0.00105361, abs=1e-7)

    def test_background_label_mirrors_probability(self):
        assert focal_scalar(ScalarSample(0.2, 0), 1.5) == focal_scalar(ScalarSample(0.8, 1), 1.5)

    def test_rejects_invalid_sample(self):
        with pytest.raises(ValidationError):
            ScalarSample(1.2, 1)
        with pytest.raises(ValidationError):
            ScalarSample(0.5, 2)


class TestAlphaFocal:
    def test_worked_value(self):
        gt = bundle([[1.0, 0.0]], 1)
        cfg = LossConfig(LossVariant.ALPHA_FOCAL, alpha=1, gamma=2)
        got = loss_with_grad(grid([[0.9, 0.1]]), gt, cfg).value
        assert got == pytest.approx(-2.0 * (0.1**2) * math.log(0.9), rel=1e-12)
        assert got == pytest.approx(0.00210722, abs=1e-7)

    def test_perfect_prediction_bound(self):
        rng = np.random.default_rng(11)
        heat = rng.integers(0, 2, (12, 12)).astype(float)
        gt = bundle(heat, 5)
        cfg = LossConfig(LossVariant.ALPHA_FOCAL, alpha=1.0, gamma=2.0)
        clamped = np.clip(heat, cfg.clamp, 1 - cfg.clamp)
        value = loss_with_grad(Grid(clamped), gt, cfg).value
        bound = 2 * cfg.alpha * cfg.clamp**cfg.gamma * abs(math.log(cfg.clamp)) * heat.size / 5
        assert 0 <= value <= bound

    def test_gamma_zero_matches_cross_entropy_oracle(self):
        rng = np.random.default_rng(5)
        heat = rng.integers(0, 2, (8, 8)).astype(float)
        pred = rng.uniform(0.01, 0.99, (8, 8))
        n = 4
        cfg = LossConfig(LossVariant.ALPHA_FOCAL, alpha=1.0, gamma=0.0)
        got = loss_with_grad(Grid(pred), bundle(heat, n), cfg).value
        bce = -np.where(heat == 1.0, np.log(pred), np.log(1.0 - pred)).sum() / n
        assert got == pytest.approx(bce, abs=1e-12)

    def test_non_binary_ground_truth_rejected(self):
        gt = bundle([[0.5, 0.0]], 1)
        with pytest.raises(ValidationError):
            loss_with_grad(grid([[0.5, 0.5]]), gt, LossConfig(LossVariant.ALPHA_FOCAL))


@pytest.mark.parametrize("variant", list(LossVariant))
def test_zero_objects_fall_back_to_one(variant):
    """Every grid variant flags an empty bundle and normalizes it by 1; ``FOCAL_SCALAR`` is unnormalized."""
    pred, gt, cfg = random_instance(variant, np.random.default_rng(5))
    result = loss_with_grad(pred, replace(gt, n_objects=0), cfg)
    assert result.degenerate_n is (variant is not LossVariant.FOCAL_SCALAR)
    one = loss_with_grad(pred, replace(gt, n_objects=1), cfg)
    assert result.value == one.value
    assert result.grad.values.tobytes() == one.grad.values.tobytes()
    assert not one.degenerate_n


class TestHeatmapFocal:
    def test_worked_value(self):
        gt = bundle([[1.0, 0.5]], 1)
        cfg = LossConfig(LossVariant.HEATMAP_FOCAL, alpha=1, beta=4, gamma=2)
        got = loss_with_grad(grid([[0.9, 0.1]]), gt, cfg).value
        expected = -((0.1**2) * math.log(0.9) + (0.5**4) * (0.1**2) * math.log(0.9))
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(0.00111945, abs=1e-7)

    def test_binary_ground_truth_equals_alpha_focal_for_any_beta(self):
        rng = np.random.default_rng(21)
        heat = rng.integers(0, 2, (10, 10)).astype(float)
        pred = Grid(rng.uniform(0.01, 0.99, (10, 10)))
        gt = bundle(heat, 3)
        for beta in (0.0, 1.0, 4.0):
            cfg = LossConfig(LossVariant.HEATMAP_FOCAL, alpha=1.0, beta=beta, gamma=2.0)
            a = loss_with_grad(pred, gt, cfg)
            b = loss_with_grad(pred, gt, replace(cfg, variant=LossVariant.ALPHA_FOCAL))
            assert a.value == b.value
            np.testing.assert_array_equal(a.grad.values, b.grad.values)

    def test_beta_zero_collapses_to_relabelled_negatives(self):
        rng = np.random.default_rng(22)
        heat = rng.uniform(0.0, 1.0, (8, 8))
        heat[2, 3] = 1.0
        pred = Grid(rng.uniform(0.01, 0.99, (8, 8)))
        cfg = LossConfig(LossVariant.HEATMAP_FOCAL, alpha=1.0, beta=0.0, gamma=2.0)
        got = loss_with_grad(pred, bundle(heat, 2), cfg).value
        relabelled = np.where(heat == 1.0, 1.0, 0.0)
        oracle = loss_with_grad(
            pred, bundle(relabelled, 2), replace(cfg, variant=LossVariant.ALPHA_FOCAL)
        ).value
        assert got == pytest.approx(oracle, abs=1e-12)


class TestMaskFocal:
    def test_zero_prediction_error_contributes_nothing(self):
        gt = bundle([[0.5]], 1)
        cfg = LossConfig(LossVariant.MASK_FOCAL, alpha=1, beta=0.5, gamma=4)
        assert loss_with_grad(grid([[0.5]]), gt, cfg).value == 0.0

    def test_worked_positive_value(self):
        gt = bundle([[0.5]], 1)
        cfg = LossConfig(LossVariant.MASK_FOCAL, alpha=1, beta=0.5, gamma=4)
        got = loss_with_grad(grid([[0.9]]), gt, cfg).value
        assert got == pytest.approx(-math.sqrt(0.5) * 0.4**4 * math.log(0.6), rel=1e-9)
        assert got == pytest.approx(0.0092473, abs=1e-6)

    def test_worked_negative_value(self):
        gt = bundle([[0.0]], 1)
        cfg = LossConfig(LossVariant.MASK_FOCAL, alpha=1, beta=0.5, gamma=4)
        got = loss_with_grad(grid([[0.1]]), gt, cfg).value
        assert got == pytest.approx(-(0.1**4) * math.log(0.9), rel=1e-9)
        assert got == pytest.approx(1.0536e-5, abs=1e-9)

    def test_contribution_strictly_increasing_in_error(self):
        cfg = LossConfig(LossVariant.MASK_FOCAL, alpha=1.0, beta=0.8, gamma=2.0)
        gt = bundle([[0.7]], 1)
        deltas = np.linspace(0.01, 0.29, 15)
        values = [loss_with_grad(grid([[0.7 + d]]), gt, cfg).value for d in deltas]
        assert all(a < b for a, b in zip(values, values[1:]))
        # gamma = 0 keeps monotonicity through the log term alone
        cfg0 = replace(cfg, gamma=0.0)
        values = [loss_with_grad(grid([[0.7 + d]]), gt, cfg0).value for d in deltas]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_beta_weighting_non_increasing_for_partial_heat(self):
        gt = bundle([[0.6]], 1)
        betas = (0.0, 0.5, 1.0, 2.0, 4.0)
        values = [
            loss_with_grad(grid([[0.9]]), gt, LossConfig(LossVariant.MASK_FOCAL, beta=b, gamma=2.0)).value
            for b in betas
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        gt_keypoint = bundle([[1.0]], 1)
        values = [
            loss_with_grad(
                grid([[0.9]]), gt_keypoint, LossConfig(LossVariant.MASK_FOCAL, beta=b, gamma=2.0)
            ).value
            for b in betas
        ]
        assert len(set(values)) == 1

    def test_keypoint_mask_on_binary_heatmap_equals_heatmap_focal(self):
        rng = np.random.default_rng(31)
        heat = rng.integers(0, 2, (9, 9)).astype(float)
        pred = Grid(rng.uniform(0.01, 0.99, (9, 9)))
        gt = bundle(heat, 2)
        for beta in (0.0, 1.5, 4.0):
            cfg = LossConfig(LossVariant.MASK_FOCAL, alpha=1.0, beta=beta, gamma=3.0)
            assert loss_with_grad(pred, gt, cfg).value == pytest.approx(
                loss_with_grad(pred, gt, replace(cfg, variant=LossVariant.HEATMAP_FOCAL)).value, abs=1e-12
            )


class TestPoly1:
    def test_worked_value(self):
        gt = bundle([[0.5]], 1)
        cfg = LossConfig(LossVariant.MASK_FOCAL_POLY1, alpha=1, beta=0.5, gamma=4, eps1=1)
        got = loss_with_grad(grid([[0.9]]), gt, cfg).value
        expected = -(0.4**4 * math.log(0.6) - math.sqrt(0.5) * 0.4**5)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(0.0203181, abs=1e-6)

    def test_zero_perturbation_equals_base_everywhere(self):
        rng = np.random.default_rng(41)
        for variant, base_variant in (
            (LossVariant.MASK_FOCAL_POLY1, LossVariant.MASK_FOCAL),
            (LossVariant.POLY1_PIXELWISE, LossVariant.HEATMAP_FOCAL),
        ):
            for _ in range(20):
                pred, gt, cfg = random_instance(base_variant, rng, size=8)
                poly_cfg = replace(cfg, variant=variant, eps1=0.0)
                a = loss_with_grad(pred, gt, poly_cfg)
                b = loss_with_grad(pred, gt, replace(cfg, variant=base_variant))
                assert a.value == b.value
                np.testing.assert_array_equal(a.grad.values, b.grad.values)

    def test_zero_error_pixel_contributes_nothing_for_any_eps1(self):
        gt = bundle([[0.5]], 1)
        for eps1 in (0.0, 0.5, 1.0, 2.0):
            cfg = LossConfig(LossVariant.MASK_FOCAL_POLY1, beta=0.5, gamma=4, eps1=eps1)
            assert loss_with_grad(grid([[0.5]]), gt, cfg).value == 0.0


class TestLossWithGrad:
    def test_clipped_target_prediction_leaves_only_negative_terms(self):
        rng = np.random.default_rng(51)
        mask = (rng.random((10, 10)) < 0.4).astype(float)
        heat = np.where(mask == 1.0, rng.uniform(0.05, 0.95, (10, 10)), 0.0)
        gt = bundle(heat, 4)
        cfg = LossConfig(LossVariant.MASK_FOCAL, beta=0.7, gamma=2.0)
        pred = Grid(np.clip(heat, cfg.clamp, 1 - cfg.clamp))
        got = loss_with_grad(pred, gt, cfg).value
        q = np.clip(heat, cfg.clamp, 1 - cfg.clamp)[mask == 0.0]
        negatives_only = -(cfg.alpha / 4) * (q**cfg.gamma * np.log1p(-q)).sum()
        assert got == pytest.approx(negatives_only, rel=1e-12)

    def test_alpha_scales_value_and_gradient_linearly(self):
        rng = np.random.default_rng(52)
        for variant in LossVariant:
            if variant is LossVariant.FOCAL_SCALAR:
                continue  # the scalar lift carries no alpha weighting
            pred, gt, cfg = random_instance(variant, rng)
            k = 3.0
            a = loss_with_grad(pred, gt, cfg)
            b = loss_with_grad(pred, gt, replace(cfg, alpha=cfg.alpha * k))
            assert b.value == pytest.approx(k * a.value, rel=1e-12)
            np.testing.assert_allclose(b.grad.values, k * a.grad.values, rtol=1e-12)

    def test_non_negative_for_all_variants(self):
        rng = np.random.default_rng(53)
        for variant in LossVariant:
            for _ in range(25):
                pred, gt, cfg = random_instance(variant, rng)
                assert loss_with_grad(pred, gt, cfg).value >= 0.0

    def test_dimension_mismatch_rejected(self):
        gt = bundle([[1.0, 0.0]], 1)
        with pytest.raises(DimensionMismatchError):
            loss_with_grad(grid([[0.5]]), gt, LossConfig(LossVariant.ALPHA_FOCAL))

    def test_out_of_range_prediction_rejected(self):
        gt = bundle([[1.0]], 1)
        cfg = LossConfig(LossVariant.ALPHA_FOCAL)
        with pytest.raises(ValidationError):
            loss_with_grad(Grid(np.array([[1.5]])), gt, cfg)
        for bad in (1.5, -0.5, np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError):
                batched_loss_values(np.array([[[0.5]], [[bad]]]), gt, cfg)
        empty = batched_loss_values(np.empty((0, 1, 1)), gt, cfg)
        assert empty.shape == (0,)

    def test_focal_scalar_grid_matches_scalar_sum(self):
        rng = np.random.default_rng(54)
        heat = rng.integers(0, 2, (6, 6)).astype(float)
        pred = rng.uniform(0.05, 0.95, (6, 6))
        cfg = LossConfig(LossVariant.FOCAL_SCALAR, gamma=2.0)
        got = loss_with_grad(Grid(pred), bundle(heat, 3), cfg).value
        oracle = sum(
            focal_scalar(ScalarSample(float(p), int(c)), 2.0)
            for p, c in zip(pred.ravel(), heat.ravel())
        )
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_loss_config_validation(self):
        with pytest.raises(ValidationError):
            LossConfig(LossVariant.MASK_FOCAL, alpha=0.0)
        with pytest.raises(ValidationError):
            LossConfig(LossVariant.MASK_FOCAL, gamma=-1.0)
        with pytest.raises(ValidationError):
            LossConfig(LossVariant.MASK_FOCAL, clamp=0.5)
        with pytest.raises(ValidationError):
            LossConfig("NO_SUCH_VARIANT")
        assert LossConfig("MASK_FOCAL").variant is LossVariant.MASK_FOCAL

    @pytest.mark.parametrize("build, message", [
        (lambda: LossConfig(LossVariant.MASK_FOCAL, beta=-0.5), "beta must be finite and >= 0, got -0.5"),
        (lambda: LossConfig(LossVariant.MASK_FOCAL, beta=math.nan), "beta must be finite and >= 0, got nan"),
        (lambda: LossConfig(LossVariant.MASK_FOCAL, eps1=math.inf), "eps1 must be finite, got inf"),
        (lambda: bundle([[0.5, 1.5]], 1), "heatmap values must lie in [0, 1]"),
        (lambda: bundle([[0.5, 1.0]], -1), "n_objects must be >= 0, got -1"),
    ])
    def test_rejection_names_the_value(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()
