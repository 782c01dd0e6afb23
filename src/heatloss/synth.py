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
from .losses import GroundTruthBundle, LossConfig, LossVariant, loss_with_grad

_NOISE_STREAM = 2**32  # placement streams use 0..n_heads-1
_PLACEMENT_ATTEMPTS = 1000


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid; exactly 0.0 once ``exp(-x)`` overflows, 1.0 from x ~ 37."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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

    def next(self) -> float:
        raw = int(self._bits.random_raw(1)[0])
        return (raw >> 11) * 2.0**-53

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
            u_x, u_y, u_w, u_h = (stream.next() for _ in range(4))
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
    (heatmap * mask), which is the only form consistent with their
    mask-support precondition; keypoint variants get the untruncated heatmap.
    """
    if variant in (LossVariant.FOCAL_SCALAR, LossVariant.ALPHA_FOCAL):
        binary = render_binary_map(scene, stride)
        return GroundTruthBundle(binary, binary, len(scene.boxes))
    mask = render_mask(scene, stride)
    heat = render_heatmap(scene, sigma, stride)
    if variant in (LossVariant.MASK_FOCAL, LossVariant.MASK_FOCAL_POLY1):
        heat = Grid(heat.values * mask.values)
    return GroundTruthBundle(heat, mask, len(scene.boxes))


def _initial_logits(shape: tuple[int, int], cfg: FitConfig) -> np.ndarray:
    if cfg.init is InitMode.SEEDED_NOISE:
        stream = _UniformStream(cfg.seed, _NOISE_STREAM)
        return 2.0 * stream.block(shape[0] * shape[1]).reshape(shape) - 1.0
    # UNIFORM_HALF (prediction 1/2 everywhere) and ZEROS_LOGIT coincide:
    # sigmoid(0) == 0.5 exactly.
    return np.zeros(shape)


def fit_direct(scene: SceneAnnotation, sigma: SigmaParams, cfg: FitConfig) -> FitTrace:
    """Full-batch gradient descent of a free logit grid against one loss.

    The prediction is ``sigmoid(theta)``; each step applies
    ``theta -= lr * dL/dpred * pred * (1 - pred)``.  The loss is recorded at
    step 1 and every ``record_every`` steps thereafter, before the update, so
    the first entry is the initialization loss.
    """
    bundle = supervision_bundle(scene, sigma, cfg.loss.variant)
    theta = _initial_logits(bundle.heatmap.shape, cfg)
    losses: list[tuple[int, float]] = []
    for step in range(1, cfg.steps + 1):
        pred = expit(theta)
        result = loss_with_grad(Grid(pred), bundle, cfg.loss)
        if not math.isfinite(result.value):
            raise NonFiniteLossError(
                f"loss became non-finite at step {step}; the learning rate "
                f"{cfg.learning_rate} is likely too large"
            )
        if (step - 1) % cfg.record_every == 0:
            losses.append((step, result.value))
        theta -= cfg.learning_rate * result.grad.values * pred * (1.0 - pred)
    final_pred = Grid(expit(theta))
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
