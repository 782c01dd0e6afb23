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
from .grid import Grid
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
            if ((cx - xs[:head]) ** 2 + (cy - ys[:head]) ** 2).min(initial=np.inf) >= gap_sq:
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


def supervision_bundle(
    scene: SceneAnnotation,
    sigma: SigmaParams,
    variant: LossVariant,
    stride: int = 1,
) -> GroundTruthBundle:
    """Render the ground-truth bundle a loss variant expects for ``scene``.

    Binary-label variants get the binary feature map as heatmap.  Mask
    variants get the heatmap truncated to box interiors (heatmap * mask),
    whose support they read as the mask (inside a very elongated box the
    kernel can underflow to 0); keypoint variants get the untruncated heatmap.
    """
    if variant in _BINARY_GT_VARIANTS:
        return GroundTruthBundle(render_binary_map(scene, stride), len(scene.boxes))
    heat = render_heatmap(scene, sigma, stride)
    if variant in _MASK_VARIANTS:
        heat = Grid(heat.values * render_mask(scene, stride).values)
    return GroundTruthBundle(heat, len(scene.boxes))


def _class_vector(
    scene: SceneAnnotation, sigma: SigmaParams, cfg: FitConfig
) -> tuple[np.ndarray, np.ndarray | slice, np.ndarray]:
    """One scene's classes: the heatmap value of each, each pixel's class, the initial logits.

    Under ``SEEDED_NOISE`` every pixel is its own class, and the identity
    view stands for the classes, so nothing is sorted or gathered; otherwise
    a class is a distinct heatmap value.
    """
    heat = supervision_bundle(scene, sigma, cfg.loss.variant).heatmap.values.ravel()
    if cfg.init is InitMode.SEEDED_NOISE:
        return heat, np.s_[:], 2.0 * _UniformStream(cfg.seed, _NOISE_STREAM).block(heat.size) - 1.0
    # UNIFORM_HALF and ZEROS_LOGIT coincide: sigmoid(0) == 0.5 exactly
    values, classes = np.unique(heat, return_inverse=True)
    return values, classes, np.zeros(values.size)


def _fit_batch(scenes: list[SceneAnnotation], sigma: SigmaParams, cfg: FitConfig) -> list[FitTrace]:
    """Fit every scene under ``cfg`` in one loop: one :func:`fit_direct` per scene, in order.

    Every variant is a sum of per-pixel terms times one scale, and the
    sigmoid, the clamp gate and the update act on each pixel alone, so pixels
    with equal heatmap value and equal initial logit follow bit-identical
    trajectories.  Under a constant initialization a scene therefore fits one
    logit per distinct heatmap value (a pixel class); under ``SEEDED_NOISE``
    every pixel is its own class.  The scenes' class vectors lie one after
    another (a segment each) in one ``(1, U)`` grid with one prepared loss,
    whose scale is an array that gives each class its own scene's scale.  A
    recorded loss is the scene's scale times the pairwise sum of its class
    terms gathered back onto its grid, the very sum a whole-grid step takes.
    An unrecorded step gathers the segments only when a bound cannot prove
    every sum finite, so a non-finite loss is reported at the same step.
    The logits are scattered back to each grid once, at the end.

    A scene fails where its own fit would: in preparation, or at a step whose
    gradient, loss or logit update is not finite.  The loop stops at the
    first failure in any scene, which may be a later scene's, at an earlier
    step.  So when a batch of several scenes fails, the scenes are refit one
    at a time, in order, and the first that fails alone raises its own error,
    the one that one fit per scene raises first.  A scene computes in the
    batch what it computes alone, so one of them fails; were none to, the
    batch's own error would be raised.
    """
    try:
        return _fit_loop(scenes, sigma, cfg)
    except HeatlossError:
        if len(scenes) > 1:
            for scene in scenes:
                _fit_loop([scene], sigma, cfg)
        raise


def _fit_loop(scenes: list[SceneAnnotation], sigma: SigmaParams, cfg: FitConfig) -> list[FitTrace]:
    """The loop of :func:`_fit_batch`; it raises the first failure it meets, in any scene."""
    segments = [_class_vector(scene, sigma, cfg) for scene in scenes]
    starts = np.cumsum([0] + [heat.size for heat, _, _ in segments])  # segment j: starts[j]:starts[j + 1]
    heat = np.concatenate([heat for heat, _, _ in segments])[None]
    scales = [_loss_scale(cfg.loss, len(scene.boxes)) for scene in scenes]
    loss_step = LossStep(Grid(heat), cfg.loss, heat.shape, np.repeat(scales, np.diff(starts)))
    # The grid sum of n_px terms of magnitude at most `peak` is at most about
    # peak * n_px.  So `peak * widest < 1e300`, with |scale| taken as at least 1,
    # proves every scene's sum and scaled loss finite without gathering.
    widest = max(s.width * s.height * max(1.0, abs(c)) for s, c in zip(scenes, scales))
    theta = np.concatenate([logits for _, _, logits in segments])[None]
    pred, one_minus = np.empty_like(theta), np.empty_like(theta)
    losses: list[list[tuple[int, float]]] = [[] for _ in segments]
    with np.errstate(all="ignore"):  # the checks below decide what is an error
        for step in range(1, cfg.steps + 1):
            term, grad = loss_step.terms(_expit_into(theta, pred))
            if not (math.isfinite(grad.min()) and math.isfinite(grad.max())):
                raise ValidationError(f"loss gradient became non-finite at step {step}")
            recorded = (step - 1) % cfg.record_every == 0
            if recorded or not max(float(term.max()), -float(term.min())) * widest < 1e300:
                for j, (_, classes, _) in enumerate(segments):
                    value = scales[j] * float(term[0, starts[j] : starts[j + 1]][classes].sum())
                    if not math.isfinite(value):
                        raise NonFiniteLossError(
                            f"loss became non-finite at step {step}; the learning rate "
                            f"{cfg.learning_rate} is likely too large"
                        )
                    if recorded:
                        losses[j].append((step, value))
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
    for j, (scene, (_, classes, _)) in enumerate(zip(scenes, segments)):
        logits = theta[0, starts[j] : starts[j + 1]][classes]
        final_pred = Grid(expit(logits.reshape(scene.height, scene.width)))
        traces.append(FitTrace(tuple(losses[j]), final_pred, count_image(final_pred), len(scene.boxes)))
    return traces


def fit_direct(scene: SceneAnnotation, sigma: SigmaParams, cfg: FitConfig) -> FitTrace:
    """Full-batch gradient descent of a free logit grid against one loss.

    The prediction is ``sigmoid(theta)``; each step applies
    ``theta -= lr * dL/dpred * pred * (1 - pred)``.  The loss is recorded at
    step 1 and every ``record_every`` steps thereafter, before the update, so
    the first entry is the initialization loss.  A non-finite gradient
    raises :class:`ValidationError`; a non-finite loss or logit update raises
    :class:`NonFiniteLossError`, naming the step.

    The fit is the one-scene case of the loop :func:`run_desk_experiment`
    runs over all its scenes: it fits one logit per pixel class, with one
    prepared loss, and scatters the logits back to the grid once.
    """
    return _fit_batch([scene], sigma, cfg)[0]


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
    :func:`fit_direct` per scene bit for bit, and which raises what the first
    failing fit raises.
    """
    if not scenes or not variants:
        raise ValidationError("desk experiment needs at least one scene and one variant")
    results: list[tuple[LossConfig, CountReport]] = []
    for loss_cfg in variants:
        traces = _fit_batch(scenes, sigma, replace(fit, loss=loss_cfg))
        results.append((loss_cfg, compute_metrics([(t.final_count, t.gt_count) for t in traces])))
    return results
