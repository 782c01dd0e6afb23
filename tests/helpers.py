"""Shared test utilities: independent oracles and random input builders."""

from __future__ import annotations

import math

import numpy as np

from heatloss import (
    FitConfig,
    Grid,
    GroundTruthBundle,
    InitMode,
    LossConfig,
    LossVariant,
    NonFiniteLossError,
    SceneAnnotation,
    SigmaParams,
    count_image,
    loss_with_grad,
    supervision_bundle,
)
from heatloss.synth import expit


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


def random_instance(
    variant: LossVariant, rng: np.random.Generator, size: int | tuple[int, int] = 8
) -> tuple[Grid, GroundTruthBundle, LossConfig]:
    """A random prediction/ground-truth/config triple valid for ``variant``.

    ``size`` is the side of a square grid or a ``(height, width)`` shape.
    Predictions stay inside [0.05, 0.95] and at least 1e-3 away from the
    prediction-error kink so finite differences are well posed.
    """
    cfg = LossConfig(
        variant=variant,
        alpha=float(rng.choice([0.25, 0.5, 1.0])),
        beta=float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0])),
        gamma=float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0])),
        eps1=float(rng.choice([0.0, 0.5, 1.0])),
    )
    shape = (size, size) if isinstance(size, int) else tuple(size)
    if variant in (LossVariant.FOCAL_SCALAR, LossVariant.ALPHA_FOCAL):
        heat = rng.integers(0, 2, size=shape).astype(np.float64)
        mask = heat
    elif variant in (LossVariant.MASK_FOCAL, LossVariant.MASK_FOCAL_POLY1):
        mask = (rng.random(shape) < 0.5).astype(np.float64)
        heat = np.where(mask == 1.0, rng.uniform(0.05, 1.0, shape), 0.0)
        heat = np.where((rng.random(shape) < 0.1) & (mask == 1.0), 1.0, heat)
    else:
        heat = rng.uniform(0.0, 1.0, shape)
        heat = np.where(rng.random(shape) < 0.1, 1.0, heat)
        mask = (heat > 0.0).astype(np.float64)
    pred = rng.uniform(0.05, 0.95, shape)
    pred = np.where(np.abs(pred - heat) < 1e-3, pred + 2e-3, pred)
    bundle = GroundTruthBundle(Grid(heat), Grid(mask), int(rng.integers(1, 6)))
    return Grid(pred), bundle, cfg


def reference_fit(
    scene: SceneAnnotation, sigma: SigmaParams, cfg: FitConfig
) -> tuple[tuple[tuple[int, float], ...], Grid, int]:
    """The fitting loop built from public pieces, allocating on every step.

    Returns the recorded losses, the final prediction and its peak count,
    which ``fit_direct`` must reproduce exactly.  The noise initialization
    follows the documented Philox derivation: key ``(seed, 2**32)``, the top
    53 bits of each raw output scaled to [0, 1), mapped to [-1, 1).
    """
    bundle = supervision_bundle(scene, sigma, cfg.loss.variant)
    shape = bundle.heatmap.shape
    if cfg.init is InitMode.SEEDED_NOISE:
        bits = np.random.Philox(key=np.array([cfg.seed, 2**32], dtype=np.uint64))
        uniform = (bits.random_raw(shape[0] * shape[1]) >> np.uint64(11)) * 2.0**-53
        theta = 2.0 * uniform.reshape(shape) - 1.0
    else:
        theta = np.zeros(shape)
    losses = []
    for step in range(1, cfg.steps + 1):
        pred = expit(theta)
        result = loss_with_grad(Grid(pred), bundle, cfg.loss)
        if not math.isfinite(result.value):
            raise NonFiniteLossError(f"loss became non-finite at step {step}")
        if (step - 1) % cfg.record_every == 0:
            losses.append((step, result.value))
        theta -= cfg.learning_rate * result.grad.values * pred * (1.0 - pred)
    final = Grid(expit(theta))
    return tuple(losses), final, count_image(final)
