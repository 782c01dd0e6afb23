"""Analytic gradients against central finite differences of the loss value."""

import tracemalloc

import numpy as np
import pytest

from heatloss import (
    Grid,
    GroundTruthBundle,
    LossConfig,
    LossVariant,
    batched_loss_values,
    loss_with_grad,
)
from heatloss.losses import max_grad_deviation, random_instance


@pytest.mark.parametrize("variant", list(LossVariant))
def test_gradient_matches_central_differences(variant):
    worst = max_grad_deviation(variant, size=8, instances=60, seed=987)
    assert worst <= 1e-6


def test_grad_check_memory_is_bounded():
    # perturbing all 576 pixels in one batch peaked at about 50 MB; blocks of 64 near 6 MB
    tracemalloc.start()
    try:
        max_grad_deviation(LossVariant.MASK_FOCAL, size=24, instances=1, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("variant", list(LossVariant))
def test_batched_values_agree_with_single_evaluation(variant):
    rng = np.random.default_rng(61)
    pred, gt, cfg = random_instance(variant, rng)
    batch = np.stack([pred.values, np.flipud(pred.values)])
    values = batched_loss_values(batch, gt, cfg)
    assert values[0] == loss_with_grad(pred, gt, cfg).value
    assert values[1] == loss_with_grad(Grid(np.flipud(pred.values)), gt, cfg).value


def test_subgradient_zero_at_prediction_error_kink():
    gt = GroundTruthBundle(Grid(np.array([[0.5]])), 1)
    for variant in (LossVariant.MASK_FOCAL, LossVariant.MASK_FOCAL_POLY1):
        cfg = LossConfig(variant, beta=0.5, gamma=0.0, eps1=1.0)
        grad = loss_with_grad(Grid(np.array([[0.5]])), gt, cfg).grad.values
        assert grad[0, 0] == 0.0


def test_gradient_zero_outside_clamp_interior():
    gt = GroundTruthBundle(Grid(np.array([[1.0, 0.0]])), 1)
    cfg = LossConfig(LossVariant.ALPHA_FOCAL, gamma=2.0)
    grad = loss_with_grad(Grid(np.array([[0.0, 1.0]])), gt, cfg).grad.values
    np.testing.assert_array_equal(grad, np.zeros((1, 2)))


def test_gradient_descends_the_loss():
    rng = np.random.default_rng(62)
    for variant in LossVariant:
        pred, gt, cfg = random_instance(variant, rng)
        result = loss_with_grad(pred, gt, cfg)
        stepped = np.clip(pred.values - 1e-3 * result.grad.values, 0.0, 1.0)
        assert loss_with_grad(Grid(stepped), gt, cfg).value <= result.value
