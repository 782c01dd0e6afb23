"""Deterministic synthetic scenes and direct gradient-descent fitting.

The fitter optimizes a free logit grid so that its sigmoid matches the
supervision target of a chosen loss variant, isolating the loss's
optimization behavior from any network architecture.

Randomness contract: all draws come from the Philox4x64-10 counter-based
generator keyed by ``(seed, stream)``; uniform doubles are built from the
top 53 bits of each raw 64-bit output.  Stream ``i`` drives placement of
head ``i``; stream ``2**32`` drives the optional noise initialization.  This
derivation is fixed and must not change: repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .counting import count_image, compute_metrics, CountReport
from .errors import NonFiniteLossError, PlacementError, ValidationError
from .grid import Grid
from .ground_truth import BoxAnnotation, SceneAnnotation, SigmaParams
from .ground_truth import render_binary_map, render_heatmap, render_mask
from .losses import _BINARY_GT_VARIANTS, _MASK_VARIANTS, GroundTruthBundle, LossConfig, LossStep, LossVariant
# perfbench/tracing.py wraps ``heatloss.synth.loss_with_grad`` by name
from .losses import loss_with_grad  # noqa: F401

_NOISE_STREAM = 2**32  # placement streams use 0..n_heads-1
_PLACEMENT_ATTEMPTS = 1000


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid; exactly 0.0 once ``exp(-x)`` overflows, 1.0 from x ~ 37."""
    return _expit_into(x, np.empty(np.shape(x)))


def _expit_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` written into ``out``, one ufunc at a time."""
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


class InitMode(Enum):
    UNIFORM_HALF = "UNIFORM_HALF"
    ZEROS_LOGIT = "ZEROS_LOGIT"
    SEEDED_NOISE = "SEEDED_NOISE"


@dataclass(frozen=True)
class SynthParams:
    """Scene-generation knobs; same seed always yields the same scene."""

    seed: int
    width: int
    height: int
    n_heads: int
    size_range: tuple[float, float] = (6.0, 12.0)
    min_center_gap: float = 0.0

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2**64):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.width < 1 or self.height < 1:
            raise ValidationError(f"scene dimensions must be >= 1, got {self.width}x{self.height}")
        if self.n_heads < 0:
            raise ValidationError(f"n_heads must be >= 0, got {self.n_heads}")
        lo, hi = self.size_range
        if not (0 < lo <= hi) or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError(f"size_range must satisfy 0 < min <= max, got {self.size_range}")
        if not (math.isfinite(self.min_center_gap) and self.min_center_gap >= 0):
            raise ValidationError(f"min_center_gap must be >= 0, got {self.min_center_gap}")


@dataclass(frozen=True)
class FitConfig:
    """Gradient-descent settings for fitting a prediction grid to one loss."""

    loss: LossConfig
    steps: int
    learning_rate: float
    init: InitMode = InitMode.UNIFORM_HALF
    record_every: int = 1
    seed: int | None = None  # required by SEEDED_NOISE only

    def __post_init__(self) -> None:
        if isinstance(self.init, str):
            try:
                object.__setattr__(self, "init", InitMode(self.init))
            except ValueError as exc:
                raise ValidationError(f"unknown init mode {self.init!r}") from exc
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.record_every < 1:
            raise ValidationError(f"record_every must be >= 1, got {self.record_every}")
        if self.init is InitMode.SEEDED_NOISE and self.seed is None:
            raise ValidationError("SEEDED_NOISE initialization requires a seed")
        if self.seed is not None and not (0 <= self.seed < 2**64):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class FitTrace:
    """Loss history plus the fitted prediction and its peak count."""

    losses: tuple[tuple[int, float], ...]
    final_pred: Grid
    final_count: int
    gt_count: int


class _UniformStream:
    """Uniform doubles in [0, 1) from Philox keyed by (seed, stream)."""

    def __init__(self, seed: int, stream: int) -> None:
        self._bits = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))

    def block(self, n: int) -> np.ndarray:
        raw = self._bits.random_raw(n)
        return (raw >> np.uint64(11)) * 2.0**-53


def generate_scene(params: SynthParams) -> SceneAnnotation:
    """Place ``n_heads`` boxes by per-head rejection sampling.

    Centers are drawn on integer pixel coordinates (so rendered heatmaps
    contain exact-1 keypoints); sides are continuous uniforms in
    ``size_range``.  Each head gets its own random stream and up to 1000
    attempts to respect ``min_center_gap`` against already placed heads.
    """
    boxes: list[BoxAnnotation] = []
    gap_sq = params.min_center_gap**2
    for head in range(params.n_heads):
        stream = _UniformStream(params.seed, head)
        for _ in range(_PLACEMENT_ATTEMPTS):
            u_x, u_y, u_w, u_h = stream.block(4).tolist()
            cx = float(int(u_x * params.width))
            cy = float(int(u_y * params.height))
            lo, hi = params.size_range
            w = lo + u_w * (hi - lo)
            h = lo + u_h * (hi - lo)
            if all((cx - b.cx) ** 2 + (cy - b.cy) ** 2 >= gap_sq for b in boxes):
                boxes.append(BoxAnnotation(cx, cy, w, h))
                break
        else:
            raise PlacementError(
                f"could not place head {head} with min_center_gap={params.min_center_gap} "
                f"on a {params.width}x{params.height} scene within {_PLACEMENT_ATTEMPTS} attempts"
            )
    return SceneAnnotation(params.width, params.height, tuple(boxes))


def supervision_bundle(
    scene: SceneAnnotation,
    sigma: SigmaParams,
    variant: LossVariant,
    stride: int = 1,
) -> GroundTruthBundle:
    """Render the ground-truth bundle a loss variant expects for ``scene``.

    Binary-label variants get the binary feature map as both heatmap and
    mask.  Mask variants get the heatmap truncated to box interiors
    (heatmap * mask) and, as mask, that heatmap's support, the form their
    mask-support precondition asks for (inside a very elongated box the
    kernel can underflow to 0); keypoint variants get the untruncated heatmap.
    """
    if variant in _BINARY_GT_VARIANTS:
        binary = render_binary_map(scene, stride)
        return GroundTruthBundle(binary, binary, len(scene.boxes))
    mask = render_mask(scene, stride)
    heat = render_heatmap(scene, sigma, stride)
    if variant in _MASK_VARIANTS:
        heat = Grid(heat.values * mask.values)
        mask = Grid((heat.values > 0.0).astype(np.float64))
    return GroundTruthBundle(heat, mask, len(scene.boxes))


def _pixel_classes(bundle: GroundTruthBundle) -> tuple[GroundTruthBundle, np.ndarray]:
    """The distinct heatmap values as a ``(1, U)`` bundle, and each pixel's class.

    The key is the heatmap value alone, and each class's mask is its value's
    support: ``supervision_bundle`` makes the mask ``heatmap > 0`` for the
    mask variants, and no other variant reads the mask.
    """
    values, classes = np.unique(bundle.heatmap.values.ravel(), return_inverse=True)
    mask = (values > 0.0).astype(np.float64)
    return GroundTruthBundle(Grid(values[None]), Grid(mask[None]), bundle.n_objects), classes


def fit_direct(scene: SceneAnnotation, sigma: SigmaParams, cfg: FitConfig) -> FitTrace:
    """Full-batch gradient descent of a free logit grid against one loss.

    The prediction is ``sigmoid(theta)``; each step applies
    ``theta -= lr * dL/dpred * pred * (1 - pred)``.  The loss is recorded at
    step 1 and every ``record_every`` steps thereafter, before the update, so
    the first entry is the initialization loss.

    Every variant is a sum of per-pixel terms times one scale, and the
    sigmoid, the clamp gate and the update act on each pixel alone, so pixels
    with equal heatmap value and equal initial logit follow bit-identical
    trajectories.  Under a constant initialization the fit therefore runs one
    logit per distinct heatmap value (a pixel class) and scatters the logits
    back to the grid once, at the end; under ``SEEDED_NOISE`` every pixel is
    its own class.  A recorded loss is the scale times the pairwise sum of
    the class terms gathered back onto the grid, the very sum a whole-grid
    step takes.  An unrecorded step gathers only when a bound cannot prove
    that sum finite, so a non-finite loss is reported at the same step.  The
    loss is prepared once per fit; the sigmoid, the loss and the update write
    into buffers the fit owns.
    """
    bundle = supervision_bundle(scene, sigma, cfg.loss.variant)
    shape = bundle.heatmap.shape
    if cfg.init is InitMode.SEEDED_NOISE:
        # every pixel is its own class; the identity view neither sorts nor gathers
        classes = np.s_[:]
        noise = _UniformStream(cfg.seed, _NOISE_STREAM).block(shape[0] * shape[1])
        theta = 2.0 * noise.reshape(shape) - 1.0
    else:
        # UNIFORM_HALF and ZEROS_LOGIT coincide: sigmoid(0) == 0.5 exactly
        bundle, classes = _pixel_classes(bundle)
        theta = np.zeros(bundle.heatmap.shape)
    loss_step = LossStep(bundle, cfg.loss, bundle.heatmap.shape)
    scale = loss_step.scale
    # The grid sum of n_px terms of magnitude at most `peak` is at most about
    # peak * n_px.  So `peak * bound < 1e300`, with |scale| taken as at least 1,
    # proves both that sum and the scaled loss finite without gathering.
    bound = shape[0] * shape[1] * max(1.0, abs(scale))
    pred, one_minus = np.empty_like(theta), np.empty_like(theta)
    losses: list[tuple[int, float]] = []
    for step in range(1, cfg.steps + 1):
        term, grad = loss_step.terms(_expit_into(theta, pred))
        if not (math.isfinite(grad.min()) and math.isfinite(grad.max())):
            raise ValidationError(f"loss gradient became non-finite at step {step}")
        recorded = (step - 1) % cfg.record_every == 0
        if recorded or not (max(float(term.max()), -float(term.min())) * bound < 1e300):
            value = scale * float(term.ravel()[classes].sum())
            if not math.isfinite(value):
                raise NonFiniteLossError(
                    f"loss became non-finite at step {step}; the learning rate "
                    f"{cfg.learning_rate} is likely too large"
                )
            if recorded:
                losses.append((step, value))
        # theta -= lr * grad * pred * (1 - pred), in that order, in grad's buffer
        try:
            with np.errstate(over="raise", invalid="raise"):
                np.multiply(cfg.learning_rate, grad, out=grad)
                np.multiply(grad, pred, out=grad)
                np.multiply(grad, np.subtract(1.0, pred, out=one_minus), out=grad)
                np.subtract(theta, grad, out=theta)
        except FloatingPointError:
            raise NonFiniteLossError(
                f"the logit update overflowed at step {step}; the learning rate "
                f"{cfg.learning_rate} is too large"
            ) from None
    final_pred = Grid(expit(theta.ravel()[classes].reshape(shape)))
    return FitTrace(
        losses=tuple(losses),
        final_pred=final_pred,
        final_count=count_image(final_pred),
        gt_count=len(scene.boxes),
    )


def run_desk_experiment(
    scenes: list[SceneAnnotation],
    variants: list[LossConfig],
    sigma: SigmaParams,
    fit: FitConfig,
) -> list[tuple[LossConfig, CountReport]]:
    """Fit every scene under every loss variant and aggregate count metrics.

    All variants share the same initialization and seeds, so reports are
    comparable; results are ordered by the input variant order.
    """
    if not scenes or not variants:
        raise ValidationError("desk experiment needs at least one scene and one variant")
    results: list[tuple[LossConfig, CountReport]] = []
    for loss_cfg in variants:
        per_image = []
        for scene in scenes:
            trace = fit_direct(scene, sigma, replace(fit, loss=loss_cfg))
            per_image.append((trace.final_count, trace.gt_count))
        results.append((loss_cfg, compute_metrics(per_image)))
    return results
