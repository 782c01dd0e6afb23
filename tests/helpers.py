"""Shared test utilities: independent oracles and random input builders."""

from __future__ import annotations

import numpy as np

from heatloss import (
    BoxAnnotation,
    FitConfig,
    Grid,
    InitMode,
    LossConfig,
    NonFiniteLossError,
    PlacementError,
    SceneAnnotation,
    SigmaParams,
    SynthParams,
    ValidationError,
    count_image,
    loss_with_grad,
    supervision_bundle,
)
from heatloss.losses import LossStep, _loss_scale
from heatloss.synth import expit


# loss_with_grad's message for a loss sum that overflows float64
SUM_OVERFLOW = "the loss sum overflows to a non-finite value; alpha, eps1 or gamma is likely too large"


def brute_force_peaks(values: np.ndarray, window: int, threshold: float) -> list[tuple[int, int]]:
    """Independent nested-loop scan for neighborhood maxima above threshold.

    Duplicates within one equal-valued 8-connected region are reduced to the
    lexicographically smallest (y, x) via an explicit flood fill.
    """
    h, w = values.shape
    r = window // 2
    candidates = []
    for y in range(h):
        for x in range(w):
            v = values[y, x]
            if v < threshold:
                continue
            neighborhood = values[max(0, y - r) : y + r + 1, max(0, x - r) : x + r + 1]
            if v == neighborhood.max():
                candidates.append((y, x))
    candidate_set = set(candidates)
    visited: set[tuple[int, int]] = set()
    kept = []
    for cand in sorted(candidates):
        if cand in visited:
            continue
        value = values[cand]
        stack = [cand]
        region = {cand}
        region_candidates = []
        while stack:
            y, x = stack.pop()
            if (y, x) in candidate_set:
                region_candidates.append((y, x))
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and (ny, nx) not in region and values[ny, nx] == value:
                        region.add((ny, nx))
                        stack.append((ny, nx))
        visited |= region
        kept.append(min(region_candidates))
    return sorted(kept)


def reference_scene(params: SynthParams) -> SceneAnnotation:
    """Per-head rejection sampling with a pure-Python gap test against every placed head.

    Follows the documented Philox derivation: head ``i`` draws from key
    ``(seed, i)``, four uniforms (the top 53 bits of each raw output) per
    attempt, up to 1000 attempts.  ``generate_scene`` must return the same
    scene, or raise the same :class:`PlacementError`.
    """
    boxes: list[BoxAnnotation] = []
    gap_sq = params.min_center_gap**2
    lo, hi = params.size_range
    for head in range(params.n_heads):
        bits = np.random.Philox(key=np.array([params.seed, head], dtype=np.uint64))
        for _ in range(1000):
            u_x, u_y, u_w, u_h = ((bits.random_raw(4) >> np.uint64(11)) * 2.0**-53).tolist()
            cx = float(int(u_x * params.width))
            cy = float(int(u_y * params.height))
            if all((cx - b.cx) ** 2 + (cy - b.cy) ** 2 >= gap_sq for b in boxes):
                boxes.append(BoxAnnotation(cx, cy, lo + u_w * (hi - lo), lo + u_h * (hi - lo)))
                break
        else:
            raise PlacementError(
                f"could not place head {head} with min_center_gap={params.min_center_gap} "
                f"on a {params.width}x{params.height} scene within 1000 attempts"
            )
    return SceneAnnotation(params.width, params.height, tuple(boxes))


def reference_fit(
    scene: SceneAnnotation, sigma: SigmaParams, cfg: FitConfig, loss: LossConfig
) -> tuple[tuple[tuple[int, float], ...], Grid, int, tuple[float, ...]]:
    """The fitting loop built from public pieces, allocating on every step.

    Returns the recorded losses, the final prediction, its peak count and,
    at each recorded step, the magnitude ``|scale| * sum(|term|)`` of the
    loss's per-pixel terms.  ``fit_direct`` must reproduce the prediction and
    count exactly, and each loss to within the rounding its summation order
    allows against that magnitude.  The noise initialization follows the
    documented Philox derivation: key ``(seed, 2**32)``, the top 53 bits of
    each raw output scaled to [0, 1), mapped to [-1, 1).
    """
    bundle = supervision_bundle(scene, sigma, loss.variant)
    shape = bundle.heatmap.shape
    if cfg.init is InitMode.SEEDED_NOISE:
        bits = np.random.Philox(key=np.array([cfg.seed, 2**32], dtype=np.uint64))
        uniform = (bits.random_raw(shape[0] * shape[1]) >> np.uint64(11)) * 2.0**-53
        theta = 2.0 * uniform.reshape(shape) - 1.0
    else:
        theta = np.zeros(shape)
    scale = _loss_scale(loss, bundle.n_objects)
    losses, magnitudes = [], []
    for step in range(1, cfg.steps + 1):
        pred = expit(theta)
        try:
            result = loss_with_grad(Grid(pred), bundle, loss)
        except ValidationError as exc:  # the loss sum overflowed; a non-finite gradient is re-raised
            if str(exc) != SUM_OVERFLOW:
                raise
            raise NonFiniteLossError(f"loss became non-finite at step {step}") from exc
        if (step - 1) % cfg.record_every == 0:
            losses.append((step, result.value))
            with np.errstate(all="ignore"):
                term, _ = LossStep(bundle.heatmap, loss, shape, scale).terms(pred, with_grad=False)
                magnitudes.append(abs(scale) * float(np.abs(term).sum()))
        theta -= cfg.learning_rate * result.grad.values * pred * (1.0 - pred)
    final = Grid(expit(theta))
    return tuple(losses), final, count_image(final), tuple(magnitudes)
