"""The focal-loss family over prediction grids, with analytic gradients.

Every variant is one poly-1 form, ``log_w d^g ln(1-d) - poly_w d^(g+1)``,
applied per pixel to one prediction error ``d``, summed over the grid and
scaled by ``-alpha / N`` (``N`` = object count; ``FOCAL_SCALAR`` is the
plain unscaled sum).  A pixel's error is one of three:

* keypoint - ``d = 1 - q`` on pixels whose heatmap value is exactly 1
  (``FOCAL_SCALAR``, ``ALPHA_FOCAL``, ``HEATMAP_FOCAL``, ``POLY1_PIXELWISE``),
  with ``ln(1-d)`` taken as ``ln q``;
* graded - ``d = |p - q|`` against the heatmap value ``p`` on pixels whose
  heatmap value is positive (``MASK_FOCAL``, ``MASK_FOCAL_POLY1``), with
  ``log_w = (1 - eps1) p^b + eps1`` and ``poly_w = eps1 p^b``.  Their
  heatmap is truncated to the box mask, so its support is the mask (see
  ``supervision_bundle``);
* background - ``d = q`` on every other pixel, weighted by ``(1 - p)^b`` in
  ``HEATMAP_FOCAL`` and ``POLY1_PIXELWISE``.

Elsewhere ``log_w = 1`` and ``poly_w = eps1``, with ``eps1 = 0`` in the four
base variants, where the polynomial term is skipped: ``POLY1_PIXELWISE`` and
``MASK_FOCAL_POLY1`` at ``eps1 = 0`` run the very arithmetic of
``HEATMAP_FOCAL`` and ``MASK_FOCAL``.  On binary ground truth the negative
weight is 1 and every variant reduces to focal loss.

Predictions are clamped to ``[clamp, 1 - clamp]`` before any logarithm, and
the graded ``d`` is capped below ``1 - clamp``; gradients are zero where the
clamp is active and use subgradient 0 at the graded ``d = 0`` kink.  Natural
logarithms throughout.  Sums use numpy's pairwise reduction over row-major
pixels, so results are bit-reproducible.

Every evaluation goes through :meth:`LossStep.terms`, the one method of the
loss prepared against one target heatmap and scale for one prediction shape.
Preparing checks the heatmap, gathers the positive pixels with their heatmap
values, and computes the constant weights.  ``terms`` clips the prediction
and calls the one kernel, :func:`_poly1`, twice: on the background error
over the whole grid in buffers the step owns, one ufunc at a time in the
operation order of the formula, so no grid-sized temporary is made; then on
the positive error of the gathered positive pixels, scattered back.  The
caller forms the value as ``scale`` times the pairwise sum of the unscaled
terms.  A value-only evaluation skips the gradient, its scaling and the
clamp gate.

Because a pixel's term and gradient depend only on its prediction and
heatmap value, a step also serves a grid of pixel *classes*: a fit prepares
one step for all its scenes on a ``(1, U)`` grid that holds each scene's
distinct heatmap values one after another, with one scale per class, and
takes each scene's loss on every step as the sum of its class terms
weighted by their pixel counts.
:func:`loss_with_grad` and :func:`batched_loss_values` (value-only) prepare
one step per call for ``_loss_values``, the one evaluation outside the fit:
it checks that the predictions lie in ``[0, 1]`` (a fit's are its own
sigmoid) and, like the fit, evaluates and sums, one pairwise sum per
flattened grid, under one ``np.errstate(all="ignore")``.  Callers check
finiteness; the kernel and ``terms`` run under their caller's error state.
:func:`max_grad_deviation` checks the analytic gradient against central
differences of ``_loss_values`` on :func:`random_instance` draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .grid import Grid, _check_addressable, _check_float_sized

_FD_BLOCK = 64  # one-hot perturbations per finite-difference batch; bounds grad-check memory
_FD_STEP = 1e-6  # central-difference half step


class LossVariant(Enum):
    FOCAL_SCALAR = "FOCAL_SCALAR"
    ALPHA_FOCAL = "ALPHA_FOCAL"
    HEATMAP_FOCAL = "HEATMAP_FOCAL"
    MASK_FOCAL = "MASK_FOCAL"
    POLY1_PIXELWISE = "POLY1_PIXELWISE"
    MASK_FOCAL_POLY1 = "MASK_FOCAL_POLY1"


_POLY_VARIANTS = (LossVariant.POLY1_PIXELWISE, LossVariant.MASK_FOCAL_POLY1)
_MASK_VARIANTS = (LossVariant.MASK_FOCAL, LossVariant.MASK_FOCAL_POLY1)
_BINARY_GT_VARIANTS = (LossVariant.FOCAL_SCALAR, LossVariant.ALPHA_FOCAL)
_WEIGHTED_NEG_VARIANTS = (LossVariant.HEATMAP_FOCAL, LossVariant.POLY1_PIXELWISE)


@dataclass(frozen=True)
class LossConfig:
    """Variant selector plus every loss hyper-parameter."""

    variant: LossVariant
    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 2.0
    eps1: float = 1.0
    clamp: float = 1e-4

    def __post_init__(self) -> None:
        if isinstance(self.variant, str):
            try:
                object.__setattr__(self, "variant", LossVariant(self.variant))
            except ValueError as exc:
                raise ValidationError(f"unknown loss variant {self.variant!r}") from exc
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValidationError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValidationError(f"beta must be finite and >= 0, got {self.beta}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValidationError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not math.isfinite(self.eps1):
            raise ValidationError(f"eps1 must be finite, got {self.eps1}")
        if not (0.0 < self.clamp < 0.5):
            raise ValidationError(f"clamp must lie in (0, 0.5), got {self.clamp}")


@dataclass(frozen=True)
class ScalarSample:
    """A single predicted object probability with its binary class label."""

    p: float
    c: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0):
            raise ValidationError(f"probability must lie in [0, 1], got {self.p}")
        if self.c not in (0, 1):
            raise ValidationError(f"class label must be 0 or 1, got {self.c}")


@dataclass(frozen=True)
class GroundTruthBundle:
    """Supervision target: heatmap grid and object count.

    The mask variants read the heatmap's support as their box mask.
    """

    heatmap: Grid
    n_objects: int

    def __post_init__(self) -> None:
        if not self.heatmap.is_unit_range():
            raise ValidationError("heatmap values must lie in [0, 1]")
        if self.n_objects < 0:
            raise ValidationError(f"n_objects must be >= 0, got {self.n_objects}")
        _check_float_sized("n_objects", self.n_objects)


@dataclass(frozen=True)
class LossResult:
    """Total loss value plus the per-pixel gradient w.r.t. the prediction.

    ``degenerate_n`` is set when the bundle contained zero objects and the
    normalizer fell back to 1.
    """

    value: float
    grad: Grid
    degenerate_n: bool = False


def focal_scalar(sample: ScalarSample, gamma: float, clamp: float = LossConfig.clamp) -> float:
    """Focal loss ``-(1 - p_t)^gamma * ln(p_t)`` for one scalar sample.

    ``p_t`` is the predicted probability of the true class; the prediction is
    clamped to ``[clamp, 1 - clamp]`` first.  ``gamma`` and ``clamp`` are
    checked as :class:`LossConfig` checks them.
    """
    LossConfig(LossVariant.FOCAL_SCALAR, gamma=gamma, clamp=clamp)
    q = min(max(sample.p, clamp), 1.0 - clamp)
    p_t = q if sample.c == 1 else 1.0 - q
    return -((1.0 - p_t) ** gamma) * math.log(p_t)


def _poly1(
    d: np.ndarray, c: np.ndarray | None, log_c: np.ndarray, gamma: float,
    log_w: np.ndarray | None, poly_w: float | np.ndarray | None, with_grad: bool,
    where: bool | np.ndarray = True, pg: np.ndarray | None = None, term: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """``log_w d^g ln c - poly_w d^(g+1)`` and, if ``with_grad``, its derivative in ``d``.

    ``d`` is a prediction error, ``c = 1 - d`` and ``log_c = ln c``; a
    ``log_w`` of None means 1 and a ``poly_w`` of None means 0, so the
    polynomial term is skipped.  The derivative is written into ``c`` and
    ``log_c`` is scratch; ``c`` may be None without ``with_grad``.  ``pg``
    and ``term`` are optional output buffers for ``d^g`` and the term.  The
    derivative runs one ufunc at a time in the operation order of
    ``log_w d^g (g ln c / d - 1 / c) - poly_w (g+1) d^g``, and ``where``
    marks the pixels that divide by ``d``: the rest keep ``g ln c``.
    """
    pg = np.power(d, gamma, out=pg)
    term = np.multiply(pg, log_c, out=term)
    if log_w is not None:
        term *= log_w
    grad = None
    if with_grad:
        np.multiply(gamma, log_c, out=log_c)
        np.divide(log_c, d, out=log_c, where=where)
        np.divide(1.0, c, out=c)
        grad = np.subtract(log_c, c, out=c)
        grad *= pg
        if log_w is not None:
            grad *= log_w
    if poly_w is not None:
        np.multiply(poly_w, pg, out=log_c)
        log_c *= d
        term -= log_c
        if with_grad:
            np.multiply(poly_w * (gamma + 1.0), pg, out=log_c)
            grad -= log_c
    return term, grad


def _loss_scale(cfg: LossConfig, n_objects: int) -> float:
    """``-alpha / N``, with N = 1 for a bundle without objects; ``FOCAL_SCALAR`` is the plain sum."""
    if cfg.variant is LossVariant.FOCAL_SCALAR:
        return -1.0
    return -cfg.alpha / (n_objects or 1)


class LossStep:
    """``cfg`` against the target ``heatmap``, prepared for predictions shaped ``shape`` = ``(..., H, W)``.

    ``scale`` multiplies the loss: a number, or an array that broadcasts
    against the prediction, as when a fit over several scenes gives each
    class its scene's scale.  The gradient is multiplied by it elementwise,
    so every pixel gets the bits its own scalar scale gives it.

    Preparing does, once, the work that does not depend on the prediction:
    it checks the heatmap against the variant, gathers the positive pixels
    and their heatmap values, computes the constant graded weights or the
    ``(1 - p)^b`` background weight, and allocates the grid-sized buffers
    that every evaluation writes into.  Each evaluation runs the one poly-1
    kernel on the background error ``q`` and on the positive error, ``1 - q``
    at a keypoint or ``|q - p|`` against a graded value.  A fit evaluates its
    one step on every iteration; ``_loss_values`` checks and evaluates every
    other.  The buffers make a step unsafe to share between threads.
    """

    def __init__(self, heatmap: Grid, cfg: LossConfig, shape: tuple[int, ...], scale: float | np.ndarray) -> None:
        variant = cfg.variant
        heat = heatmap.values
        if tuple(shape[-2:]) != heat.shape:
            raise DimensionMismatchError(
                f"prediction shape {tuple(shape[-2:])} does not match ground truth {heat.shape}"
            )
        if variant in _BINARY_GT_VARIANTS and not heatmap.is_binary():
            raise ValidationError(
                f"{variant.value} requires a binary heatmap ground truth (values in {{0, 1}})"
            )
        self._cfg = cfg
        eps1 = cfg.eps1 if variant in _POLY_VARIANTS else 0.0
        self._graded = variant in _MASK_VARIANTS
        pos = heat > 0.0 if self._graded else heat == 1.0
        self._pos = np.flatnonzero(pos)
        self._heat_pos = heat.ravel()[self._pos]
        self._eps1 = eps1 or None  # the polynomial weight; eps1 = 0 skips the polynomial term
        if self._graded:
            # (log_w, poly_w): p^b moves from the log term (eps1 = 0) onto the polynomial term (eps1 = 1)
            pb = np.power(self._heat_pos, cfg.beta)
            self._pos_weights = ((1.0 - eps1) * pb + eps1, eps1 * pb if eps1 else None)
        else:
            self._pos_weights = (None, self._eps1)
        self._neg_weight = np.power(1.0 - heat, cfg.beta) if variant in _WEIGHTED_NEG_VARIANTS else None
        self.scale = scale
        self._rows = (-1, heat.size)
        self._q, self._pg, self._scratch, self._term, self._grad = (np.empty(shape) for _ in range(5))
        self._inside, self._below = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)

    def terms(self, preds: np.ndarray, with_grad: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """Unscaled per-pixel terms of ``preds`` and the scaled loss's gradient, under the caller's error state.

        The loss value is ``scale`` times the sum of the terms.  Both arrays
        are the step's own buffers, valid until the next call.  Without
        ``with_grad`` the gradient, its scaling and the clamp gate are
        skipped and the gradient is None; the terms are the same.
        """
        cfg, q = self._cfg, self._q
        lo, hi = cfg.clamp, 1.0 - cfg.clamp
        np.clip(preds, lo, hi, out=q)
        # background: d = q against the target 0
        c = np.subtract(1.0, q, out=self._grad) if with_grad else None
        log_c = np.log1p(np.negative(q, out=self._scratch), out=self._scratch)
        term, grad = _poly1(q, c, log_c, cfg.gamma, None, self._eps1, with_grad, pg=self._pg, term=self._term)
        if self._neg_weight is not None:
            term *= self._neg_weight
            if with_grad:
                grad *= self._neg_weight
        # positives: d = 1 - q against a keypoint, or |q - p| against a graded heatmap value p
        q_pos = q.reshape(self._rows)[:, self._pos]
        if self._graded:
            diff = q_pos - self._heat_pos
            d = np.minimum(np.abs(diff), hi)
            # at the d = 0 kink sign(diff) = 0 is the chosen subgradient; `where` keeps 0 / 0 out of it
            c, log_c, sign, where = 1.0 - d, np.log1p(-d), np.sign(diff), d != 0.0
        else:
            d, c, log_c, sign, where = 1.0 - q_pos, q_pos, np.log(q_pos), -1.0, True
        pos_term, pos_grad = _poly1(d, c, log_c, cfg.gamma, *self._pos_weights, with_grad, where)
        term.reshape(self._rows)[:, self._pos] = pos_term
        if not with_grad:
            return term, None
        grad.reshape(self._rows)[:, self._pos] = pos_grad * sign
        grad *= self.scale
        np.greater(preds, lo, out=self._inside)
        self._inside &= np.less(preds, hi, out=self._below)
        grad *= self._inside
        return term, grad


def loss_with_grad(pred: Grid, gt: GroundTruthBundle, cfg: LossConfig) -> LossResult:
    """Evaluate ``cfg.variant`` on ``pred`` against ``gt``.

    The gradient is analytic and matches central finite differences of the
    value (step 1e-6) to 1e-6 relative at clamp-interior predictions.  A
    non-finite gradient or loss sum is a :class:`ValidationError`.
    """
    step = LossStep(gt.heatmap, cfg, pred.shape, _loss_scale(cfg, gt.n_objects))
    value, grad = _loss_values(step, pred.values, with_grad=True)
    if not (math.isfinite(grad.min()) and math.isfinite(grad.max())):
        raise ValidationError(
            "loss gradient is non-finite; alpha, eps1 or gamma is likely too large, or clamp is at or below 2**-54"
        )
    if not math.isfinite(value):
        raise ValidationError("the loss sum overflows to a non-finite value; alpha, eps1 or gamma is likely too large")
    degenerate = gt.n_objects == 0 and cfg.variant is not LossVariant.FOCAL_SCALAR
    return LossResult(value=float(value), grad=Grid(grad), degenerate_n=degenerate)


def batched_loss_values(preds: np.ndarray, gt: GroundTruthBundle, cfg: LossConfig) -> np.ndarray:
    """Loss values for a stack of prediction arrays of shape ``(..., H, W)``.

    Each value equals :func:`loss_with_grad` on the same 2-D slice bit for
    bit where that returns; an overflowing sum is ``inf``, for the caller to
    judge.  Used for parameter sweeps and finite-difference verification.
    """
    preds = np.asarray(preds, dtype=np.float64)
    step = LossStep(gt.heatmap, cfg, preds.shape, _loss_scale(cfg, gt.n_objects))
    return _loss_values(step, preds)[0]


def _loss_values(step: LossStep, preds: np.ndarray, with_grad: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Each ``(H, W)`` slice's loss value (``preds`` has ``step``'s shape) and, if ``with_grad``, the gradient.

    Rejects predictions outside ``[0, 1]`` or non-finite; a fit's own sigmoid needs no check.
    """
    if preds.size and not (preds.min() >= 0.0 and preds.max() <= 1.0):
        raise ValidationError("prediction values must be finite and lie in [0, 1]")
    with np.errstate(all="ignore"):
        term, grad = step.terms(preds, with_grad)
        # one pairwise sum per flattened grid
        totals = term.reshape(preds.shape[:-2] + (preds.shape[-2] * preds.shape[-1],)).sum(axis=-1)
        return step.scale * totals, grad


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
    if variant in _BINARY_GT_VARIANTS:
        heat = rng.integers(0, 2, size=shape).astype(np.float64)
    elif variant in _MASK_VARIANTS:
        inside = rng.random(shape) < 0.5
        heat = np.where(inside, rng.uniform(0.05, 1.0, shape), 0.0)
        heat = np.where((rng.random(shape) < 0.1) & inside, 1.0, heat)
    else:
        heat = rng.uniform(0.0, 1.0, shape)
        heat = np.where(rng.random(shape) < 0.1, 1.0, heat)
    pred = rng.uniform(0.05, 0.95, shape)
    pred = np.where(np.abs(pred - heat) < 1e-3, pred + 2e-3, pred)
    bundle = GroundTruthBundle(Grid(heat), int(rng.integers(1, 6)))
    return Grid(pred), bundle, cfg


def max_grad_deviation(variant: LossVariant, size: int, instances: int, seed: int) -> float:
    """Max relative deviation between analytic gradients and central differences."""
    if size < 1 or instances < 1 or seed < 0:
        raise ValidationError(f"need size >= 1, instances >= 1, seed >= 0; got {size}, {instances}, {seed}")
    _check_addressable(size, size)
    n, worst, rng = size * size, 0.0, np.random.default_rng(seed)
    for _ in range(instances):
        pred, bundle, cfg = random_instance(variant, rng, size)
        grad = loss_with_grad(pred, bundle, cfg).grad.values.ravel()
        loss_step = LossStep(bundle.heatmap, cfg, (2 * _FD_BLOCK, size, size), _loss_scale(cfg, bundle.n_objects))
        fd = np.empty(n)
        for start in range(0, n, _FD_BLOCK):
            k = min(_FD_BLOCK, n - start)
            # one-hot rows start..start+k-1; the last block's rows past n are zero, unperturbed padding
            eye = np.eye(_FD_BLOCK, n, start).reshape(_FD_BLOCK, size, size)
            values = _loss_values(loss_step, np.concatenate([pred.values + _FD_STEP * eye, pred.values - _FD_STEP * eye]))[0]
            fd[start : start + k] = (values[:k] - values[_FD_BLOCK : _FD_BLOCK + k]) / (2.0 * _FD_STEP)
        deviation = np.abs(grad - fd) / (1.0 + np.abs(grad))
        worst = max(worst, float(deviation.max()))
    return worst
