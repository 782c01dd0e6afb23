"""Property tests of the loss kernels over random shapes, configs and edge predictions.

Shapes include 1xN and Nx1 strips.  Ground truth and predictions come from a
drawn seed through ``random_instance``; ``with_edges`` then moves about a
third of the predictions to exactly 0, ``clamp``, ``1 - clamp`` or 1.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatloss import (
    FitConfig,
    Grid,
    GroundTruthBundle,
    HeatlossError,
    InitMode,
    LossConfig,
    LossVariant,
    ScalarSample,
    SigmaParams,
    SynthParams,
    ValidationError,
    batched_loss_values,
    fit_direct,
    focal_scalar,
    generate_scene,
    loss_with_grad,
)
from heatloss.losses import random_instance

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
POLY_VARIANTS = (LossVariant.POLY1_PIXELWISE, LossVariant.MASK_FOCAL_POLY1)

_sides = st.integers(2, 9)
shapes = st.one_of(
    st.tuples(st.just(1), _sides), st.tuples(_sides, st.just(1)), st.tuples(_sides, _sides)
)
seeds = st.integers(0, 2**32 - 1)
variants = st.sampled_from(list(LossVariant))
clamps = st.sampled_from([1e-6, 1e-4, 1e-2, 0.25])


def with_edges(pred: np.ndarray, clamp: float, rng: np.random.Generator):
    """``pred`` with about a third of its pixels at 0, clamp, 1 - clamp or 1, and their mask."""
    edges = rng.choice([0.0, clamp, 1.0 - clamp, 1.0], size=pred.shape)
    moved = rng.random(pred.shape) < 1 / 3
    return np.where(moved, edges, pred), moved


@PROPERTY
@given(
    st.sampled_from([
        (LossVariant.POLY1_PIXELWISE, LossVariant.HEATMAP_FOCAL),
        (LossVariant.MASK_FOCAL_POLY1, LossVariant.MASK_FOCAL),
    ]),
    shapes,
    seeds,
)
def test_poly1_at_zero_eps1_is_its_base_bit_for_bit(pair, shape, seed):
    poly, base = pair
    rng = np.random.default_rng(seed)
    pred, gt, cfg = random_instance(base, rng, shape)
    pred = Grid(with_edges(pred.values, cfg.clamp, rng)[0])
    a = loss_with_grad(pred, gt, replace(cfg, variant=poly, eps1=0.0))
    b = loss_with_grad(pred, gt, replace(cfg, variant=base))
    assert a.value == b.value
    assert a.grad.values.tobytes() == b.grad.values.tobytes()


@PROPERTY
@given(variants, shapes, seeds, clamps)
def test_every_variant_is_focal_loss_on_binary_ground_truth(variant, shape, seed, clamp):
    rng = np.random.default_rng(seed)
    pred, gt, cfg = random_instance(LossVariant.ALPHA_FOCAL, rng, shape)
    cfg = replace(cfg, variant=variant, clamp=clamp)
    values = with_edges(pred.values, clamp, rng)[0]
    # the poly-1 variants add eps1 (1 - p_t)^(g+1) per pixel
    eps1 = cfg.eps1 if variant in POLY_VARIANTS else 0.0
    total = 0.0
    for p, c in zip(values.ravel(), gt.heatmap.values.ravel()):
        q = min(max(float(p), clamp), 1.0 - clamp)
        p_t = q if c == 1.0 else 1.0 - q
        total += focal_scalar(ScalarSample(float(p), int(c)), cfg.gamma, clamp)
        total += eps1 * (1.0 - p_t) ** (cfg.gamma + 1.0)
    if variant is not LossVariant.FOCAL_SCALAR:
        total *= cfg.alpha / max(gt.n_objects, 1)
    # the mask variants take ln(1 - |1 - q|), which keeps about ulp(1) / clamp
    # less relative precision than ln q at q = clamp
    result = loss_with_grad(Grid(values), gt, cfg)
    assert result.value == pytest.approx(total, rel=1e-9, abs=1e-300)
    # mask reduces to heatmap on keypoint masks, gradient included
    base = {LossVariant.MASK_FOCAL: LossVariant.HEATMAP_FOCAL, LossVariant.MASK_FOCAL_POLY1: LossVariant.POLY1_PIXELWISE}
    if variant in base:
        base_grad = loss_with_grad(Grid(values), gt, replace(cfg, variant=base[variant])).grad.values
        np.testing.assert_allclose(result.grad.values, base_grad, rtol=1e-12, atol=0)


@PROPERTY
@given(variants, shapes, seeds, st.integers(1, 4))
def test_stack_slice_equals_the_2d_call_bit_for_bit(variant, shape, seed, depth):
    rng = np.random.default_rng(seed)
    _, gt, cfg = random_instance(variant, rng, shape)
    stack = np.stack([with_edges(rng.random(shape), cfg.clamp, rng)[0] for _ in range(depth)])
    values = batched_loss_values(stack, gt, cfg)
    assert values.shape == (depth,)
    for value, pred in zip(values, stack):
        assert value == loss_with_grad(Grid(pred), gt, cfg).value


@PROPERTY
@given(variants, shapes, seeds)
def test_gradient_matches_central_differences_inside_the_clamp(variant, shape, seed):
    rng = np.random.default_rng(seed)
    pred, gt, cfg = random_instance(variant, rng, shape)
    step, n = 1e-6, pred.values.size
    grad = loss_with_grad(pred, gt, cfg).grad.values.ravel()
    eye = np.eye(n).reshape((n,) + shape)
    values = batched_loss_values(np.concatenate([pred.values + step * eye, pred.values - step * eye]), gt, cfg)
    fd = (values[:n] - values[n:]) / (2.0 * step)
    assert np.all(np.abs(grad - fd) <= 1e-6 * (1.0 + np.abs(grad)))


@PROPERTY
@given(variants, shapes, seeds)
def test_gradient_matches_central_differences_near_the_clamp_edges(variant, shape, seed):
    """About a third of the pixels 1e-3 inside a 1e-2 clamp, so both points at step 1e-6 stay inside.

    The third derivative there, about 2 / q^3 for ln q, keeps the truncation
    error near 2.5e-7; a moved pixel also keeps 1e-3 from the |p - q| kink.
    """
    rng = np.random.default_rng(seed)
    pred, gt, cfg = random_instance(variant, rng, shape)
    clamp = 1e-2
    near = rng.choice([clamp + 1e-3, 1.0 - clamp - 1e-3], size=shape)
    moved = (rng.random(shape) < 1 / 3) & (np.abs(near - gt.heatmap.values) >= 1e-3)
    pred, cfg = np.where(moved, near, pred.values), replace(cfg, clamp=clamp)
    step, n = 1e-6, pred.size
    grad = loss_with_grad(Grid(pred), gt, cfg).grad.values.ravel()
    eye = np.eye(n).reshape((n,) + shape)
    values = batched_loss_values(np.concatenate([pred + step * eye, pred - step * eye]), gt, cfg)
    fd = (values[:n] - values[n:]) / (2.0 * step)
    assert np.all(np.abs(grad - fd) <= 1e-6 * (1.0 + np.abs(grad)))


@PROPERTY
@given(st.sampled_from([LossVariant.MASK_FOCAL, LossVariant.MASK_FOCAL_POLY1]), shapes, seeds, clamps)
def test_subgradient_is_zero_at_the_prediction_error_kink(variant, shape, seed, clamp):
    """``pred == heat`` on random clamp-interior pixels: the subgradient there is 0, finite elsewhere."""
    rng = np.random.default_rng(seed)
    pred, gt, cfg = random_instance(variant, rng, shape)
    heat = gt.heatmap.values
    kink = (heat > clamp) & (heat < 1.0 - clamp) & (rng.random(shape) < 0.5)
    grad = loss_with_grad(Grid(np.where(kink, heat, pred.values)), gt, replace(cfg, clamp=clamp)).grad.values
    assert np.all(grad[kink] == 0.0)
    assert np.all(np.isfinite(grad))


@PROPERTY
@given(variants, shapes, seeds, clamps)
def test_gradient_is_zero_at_the_clamp_and_the_unit_edges(variant, shape, seed, clamp):
    rng = np.random.default_rng(seed)
    pred, gt, cfg = random_instance(variant, rng, shape)
    values, moved = with_edges(pred.values, clamp, rng)
    grad = loss_with_grad(Grid(values), gt, replace(cfg, clamp=clamp)).grad.values
    assert np.all(grad[moved] == 0.0)


@st.composite
def extreme_cases(draw):
    """A valid config with settings up to 1e308 and clamps down to 1e-300, a prediction
    with values at 0, on the clamp and at 1, and ground truth the variant accepts."""
    cfg = LossConfig(
        draw(variants),
        alpha=draw(st.floats(0.0, 1e308, exclude_min=True)),
        beta=draw(st.floats(0.0, 1e308)),
        gamma=draw(st.floats(0.0, 1e308)),
        eps1=draw(st.floats(-1e308, 1e308)),
        clamp=draw(st.floats(1e-300, 0.5, exclude_max=True)),
    )
    rng = np.random.default_rng(draw(seeds))
    pred, gt, _ = random_instance(cfg.variant, rng, draw(shapes))
    return cfg, with_edges(pred.values, cfg.clamp, rng)[0], gt


FIT_SCENE = generate_scene(SynthParams(seed=5, width=8, height=6, n_heads=2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(extreme_cases(), st.floats(0.0, 1e308, exclude_min=True), st.sampled_from(list(InitMode)))
# background work overflows (gamma ln(1-q)) and turns invalid (0 * inf) at the keypoint, which overwrites it
@example(
    (
        LossConfig(LossVariant.HEATMAP_FOCAL, gamma=1e308),
        np.array([[0.9999, 0.5], [0.2, 0.0001]]),
        GroundTruthBundle(Grid(np.array([[1.0, 0.3], [0.0, 0.0]])), 1),
    ),
    0.5,
    InitMode.UNIFORM_HALF,
)
def test_a_valid_loss_evaluation_never_warns(case, learning_rate, init):
    """Every entry point returns or raises its own error; numpy never warns."""
    cfg, pred, gt = case
    try:
        loss_with_grad(Grid(pred), gt, cfg)
    except ValidationError:
        pass
    assert batched_loss_values(pred[None], gt, cfg).shape == (1,)
    fit = FitConfig(steps=3, learning_rate=learning_rate, init=init, record_every=2, seed=1)
    try:
        fit_direct(FIT_SCENE, SigmaParams(eta=1.0, eps_sigma=3.0), fit, cfg)
    except HeatlossError:
        pass
