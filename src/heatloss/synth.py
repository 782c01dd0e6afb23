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
from .errors import HeatlossError, NonFiniteLossError, PlacementError, ValidationError
from .grid import Grid, _check_float_sized
from .ground_truth import BoxAnnotation, SceneAnnotation, SigmaParams
from .ground_truth import render_binary_map, render_heatmap, render_mask
from .losses import _BINARY_GT_VARIANTS, _MASK_VARIANTS, GroundTruthBundle, LossConfig, LossStep, LossVariant
from .losses import _loss_scale
# perfbench/tracing.py wraps ``heatloss.synth.loss_with_grad`` by name
from .losses import loss_with_grad  # noqa: F401

_NOISE_STREAM = 2**32  # placement streams use 0..n_heads-1
_PLACEMENT_ATTEMPTS = 1000


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid; exactly 0.0 once ``exp(-x)`` overflows, 1.0 from x ~ 37."""
    with np.errstate(all="ignore"):
        return _expit_into(x, np.empty(np.shape(x)))


def _expit_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` written into ``out``, one ufunc at a time, under the caller's error state."""
    np.negative(x, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def _check_seed(seed: int) -> None:
    """A Philox key word: an unsigned 64-bit integer."""
    if not (0 <= seed < 2**64):
        raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")


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
        _check_seed(self.seed)
        if self.width < 1 or self.height < 1:
            raise ValidationError(f"scene dimensions must be >= 1, got {self.width}x{self.height}")
        _check_float_sized("scene dimensions", self.width, self.height)
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
        if self.seed is not None:
            _check_seed(self.seed)


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


@np.errstate(over="ignore")  # an overflowing square is an offset past 2**511.5, beyond any finite gap_sq
def generate_scene(params: SynthParams) -> SceneAnnotation:
    """Place ``n_heads`` boxes by per-head rejection sampling.

    Centers are drawn on integer pixel coordinates (so rendered heatmaps
    contain exact-1 keypoints); sides are continuous uniforms in
    ``size_range``.  Each head gets its own random stream and up to 1000
    attempts to respect ``min_center_gap`` against already placed heads.

    The placed centres are kept in two arrays, doubled as they fill, so each
    attempt is one numpy test against all of them.  The centres are integers,
    so every squared offset below 2**53 is exact.
    """
    boxes: list[BoxAnnotation] = []
    xs, ys = np.empty(0), np.empty(0)
    gap_sq = params.min_center_gap * params.min_center_gap  # `**` would raise past 1e154; inf from about 1.34e154
    for head in range(params.n_heads):
        stream = _UniformStream(params.seed, head)
        for _ in range(_PLACEMENT_ATTEMPTS):
            u_x, u_y, u_w, u_h = stream.block(4).tolist()
            cx = float(int(u_x * params.width))
            cy = float(int(u_y * params.height))
            lo, hi = params.size_range
            w = lo + u_w * (hi - lo)
            h = lo + u_h * (hi - lo)
            if math.isinf(gap_sq):  # inf >= inf would accept any pair: compare the distances themselves
                far = np.hypot(cx - xs[:head], cy - ys[:head]).min(initial=np.inf) >= params.min_center_gap
            else:  # unnamed temporaries, which numpy reuses in place; naming them would prevent that
                far = ((cx - xs[:head]) ** 2 + (cy - ys[:head]) ** 2).min(initial=np.inf) >= gap_sq
            if far:
                if head == xs.size:
                    xs, ys = (np.concatenate([a, np.empty(head + 1)]) for a in (xs, ys))
                xs[head], ys[head] = cx, cy
                boxes.append(BoxAnnotation(cx, cy, w, h))
                break
        else:
            raise PlacementError(
                f"could not place head {head} with min_center_gap={params.min_center_gap} "
                f"on a {params.width}x{params.height} scene within {_PLACEMENT_ATTEMPTS} attempts"
            )
    return SceneAnnotation(params.width, params.height, tuple(boxes))


def supervision_bundle(scene: SceneAnnotation, sigma: SigmaParams, variant: LossVariant) -> GroundTruthBundle:
    """Render the ground-truth bundle a loss variant expects for ``scene``, at stride 1.

    Binary-label variants get the binary feature map as heatmap.  Mask
    variants get the heatmap truncated to box interiors (heatmap * mask),
    whose support they read as the mask (inside a very elongated box the
    kernel can underflow to 0); keypoint variants get the untruncated heatmap.
    """
    if variant in _BINARY_GT_VARIANTS:
        return GroundTruthBundle(render_binary_map(scene), len(scene.boxes))
    heat = render_heatmap(scene, sigma)
    if variant in _MASK_VARIANTS:
        heat = Grid(heat.values * render_mask(scene).values)
    return GroundTruthBundle(heat, len(scene.boxes))


def _class_vector(
    scene: SceneAnnotation, sigma: SigmaParams, cfg: FitConfig
) -> tuple[np.ndarray, np.ndarray | slice, np.ndarray, np.ndarray]:
    """One scene's classes: the heatmap value and pixel count of each, each pixel's class, the initial logits.

    Under ``SEEDED_NOISE`` every pixel is its own class, and the identity
    view stands for the classes, so nothing is sorted or gathered; otherwise
    a class is a distinct heatmap value.
    """
    heat = supervision_bundle(scene, sigma, cfg.loss.variant).heatmap.values.ravel()
    if cfg.init is InitMode.SEEDED_NOISE:
        noise = 2.0 * _UniformStream(cfg.seed, _NOISE_STREAM).block(heat.size) - 1.0
        return heat, np.s_[:], np.ones(heat.size), noise
    # UNIFORM_HALF and ZEROS_LOGIT coincide: sigmoid(0) == 0.5 exactly
    values, classes, counts = np.unique(heat, return_inverse=True, return_counts=True)
    return values, classes, counts.astype(np.float64), np.zeros(values.size)


def _fit_loop(scenes: list[SceneAnnotation], sigma: SigmaParams, cfg: FitConfig) -> list[FitTrace]:
    """Fit every scene under ``cfg`` in one loop: one :func:`fit_direct` per scene, in order.

    Every variant is a sum of per-pixel terms times one scale, and the
    sigmoid, the clamp gate and the update act on each pixel alone, so pixels
    with equal heatmap value and equal initial logit follow bit-identical
    trajectories.  Under a constant initialization a scene therefore fits one
    logit per distinct heatmap value (a pixel class); under ``SEEDED_NOISE``
    every pixel is its own class.  The scenes' class vectors lie one after
    another (a segment each) in one ``(1, U)`` grid with one prepared loss,
    whose scale is an array that gives each class its own scene's scale.  On
    every step a scene's loss is its scale times the sum of its class terms
    weighted by their pixel counts, all scenes' sums in one reduction: the
    grid sum up to rounding, with no term gathered back onto a grid.  The
    logits are scattered back to each grid once, at the end.

    A scene fails where its own fit would: in preparation, or at a step whose
    gradient, loss or logit update is not finite.  The loop raises the first
    failure it meets, in any scene, which may be a later scene's, at an
    earlier step.
    """
    heats, classes, counts, logits = zip(*(_class_vector(scene, sigma, cfg) for scene in scenes))
    starts = np.cumsum([0] + [heat.size for heat in heats])  # segment j: starts[j]:starts[j + 1]
    heat, counts, theta = (np.concatenate(parts)[None] for parts in (heats, counts, logits))
    scales = np.array([_loss_scale(cfg.loss, len(scene.boxes)) for scene in scenes])
    loss_step = LossStep(Grid(heat), cfg.loss, heat.shape, np.repeat(scales, np.diff(starts)))
    pred, one_minus = np.empty_like(theta), np.empty_like(theta)
    losses: list[list[tuple[int, float]]] = [[] for _ in scenes]
    with np.errstate(all="ignore"):  # the checks below decide what is an error
        for step in range(1, cfg.steps + 1):
            term, grad = loss_step.terms(_expit_into(theta, pred))
            if not (math.isfinite(grad.min()) and math.isfinite(grad.max())):
                raise ValidationError(f"loss gradient became non-finite at step {step}")
            # every scene's loss: its scale times the sum of its class terms weighted by their pixel counts
            np.multiply(term, counts, out=term)
            values = (scales * np.add.reduceat(term[0], starts[:-1])).tolist()
            if not all(map(math.isfinite, values)):
                cause = "alpha, eps1 or gamma" if step == 1 else f"the learning rate {cfg.learning_rate}"
                raise NonFiniteLossError(f"loss became non-finite at step {step}; {cause} is likely too large")
            if (step - 1) % cfg.record_every == 0:
                for scene_losses, value in zip(losses, values):
                    scene_losses.append((step, value))
            # theta -= lr * grad * pred * (1 - pred), in that order, in grad's buffer; overflow is trapped
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
    traces = []
    for j, (scene, scene_classes) in enumerate(zip(scenes, classes)):
        scene_logits = theta[0, starts[j] : starts[j + 1]][scene_classes]
        final_pred = Grid(expit(scene_logits.reshape(scene.height, scene.width)))
        traces.append(FitTrace(tuple(losses[j]), final_pred, count_image(final_pred), len(scene.boxes)))
    return traces


def fit_direct(scene: SceneAnnotation, sigma: SigmaParams, cfg: FitConfig) -> FitTrace:
    """Full-batch gradient descent of a free logit grid against one loss.

    The prediction is ``sigmoid(theta)``; each step applies
    ``theta -= lr * dL/dpred * pred * (1 - pred)``.  The loss is recorded at
    step 1 and every ``record_every`` steps thereafter, before the update, so
    the first entry is the initialization loss.  The loss is the
    count-weighted sum of the pixel classes' terms times the scale, taken on
    every step.  A non-finite gradient raises :class:`ValidationError`; a
    non-finite loss or logit update raises :class:`NonFiniteLossError`,
    naming the step, and at step 1, before any update, the loss config.

    The fit is the one-scene case of :func:`_fit_loop`: one logit per pixel
    class, one prepared loss, and the logits scattered back to the grid once.
    """
    return _fit_loop([scene], sigma, cfg)[0]


def run_desk_experiment(
    scenes: list[SceneAnnotation],
    variants: list[LossConfig],
    sigma: SigmaParams,
    fit: FitConfig,
) -> list[tuple[LossConfig, CountReport]]:
    """Fit every scene under every loss variant and aggregate count metrics.

    All variants share the same initialization and seeds, so reports are
    comparable; results are ordered by the input variant order.  Each
    variant fits all the scenes in one loop, whose traces equal one
    :func:`fit_direct` per scene bit for bit.

    The loop's first failure may be a later scene's, at an earlier step, so
    on a failure the scenes are refit alone, in order, and the first that
    fails raises its own error, the one that one fit per scene raises first.
    A scene computes in the loop what it computes alone, so one of them
    fails; were none to, the loop's own error would be raised.
    """
    if not scenes or not variants:
        raise ValidationError("desk experiment needs at least one scene and one variant")
    results: list[tuple[LossConfig, CountReport]] = []
    for loss_cfg in variants:
        cfg = replace(fit, loss=loss_cfg)
        try:
            traces = _fit_loop(scenes, sigma, cfg)
        except HeatlossError:
            for scene in scenes:
                _fit_loop([scene], sigma, cfg)
            raise
        results.append((loss_cfg, compute_metrics([(t.final_count, t.gt_count) for t in traces])))
    return results
