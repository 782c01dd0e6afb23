"""The focal-loss family over prediction grids, with analytic gradients.

Every variant is one poly-1 form: a positive and a negative per-pixel branch,
summed over the grid and scaled by ``-alpha / N`` (``N`` = object count;
``FOCAL_SCALAR`` is the plain unscaled sum).  The positive branch takes one of
two forms:

* keypoint - ``(1-q)^g ln q - eps1 (1-q)^(g+1)`` on pixels whose heatmap
  value is exactly 1 (``FOCAL_SCALAR``, ``ALPHA_FOCAL``, ``HEATMAP_FOCAL``,
  ``POLY1_PIXELWISE``);
* graded - ``w dp^g ln(1-dp) - eps1 p^b dp^(g+1)`` on pixels whose heatmap
  value is positive, with ``dp = |p - q|`` the absolute prediction error
  against the heatmap value ``p`` and ``w = (1 - eps1) p^b + eps1``
  (``MASK_FOCAL``, ``MASK_FOCAL_POLY1``).  Their heatmap is truncated to the
  box mask, so its support is the mask (see ``supervision_bundle``).

Every other pixel takes the background branch ``q^g ln(1-q) - eps1 q^(g+1)``,
weighted by ``(1 - p)^b`` in ``HEATMAP_FOCAL`` and ``POLY1_PIXELWISE``.  The
four base variants are their poly-1 forms at ``eps1 = 0``: ``POLY1_PIXELWISE``
and ``MASK_FOCAL_POLY1`` at ``eps1 = 0`` run the very arithmetic of
``HEATMAP_FOCAL`` and ``MASK_FOCAL``.  On binary ground truth the negative
weight is 1 and every variant reduces to focal loss.

Predictions are clamped to ``[clamp, 1 - clamp]`` before any logarithm, and
``dp`` is capped below ``1 - clamp``; gradients are zero where the clamp is
active and use subgradient 0 at the ``dp = 0`` kink.  Natural logarithms
throughout.  Sums use numpy's pairwise reduction over row-major pixels, so
results are bit-reproducible.

Every evaluation goes through :meth:`LossStep.terms`, the one method of the
loss prepared against one target heatmap and scale for one prediction shape.
Preparing checks the heatmap, gathers the positive pixels with their heatmap
values, and computes the constant weight.  ``terms`` clips the prediction
and runs the background branch over the whole grid in buffers the step owns,
one ufunc at a time in the operation order of the formula, so no grid-sized
temporary is made and the result is the formula's bit for bit.  The positive
branch runs on the gathered pixels only and is scattered back.  The caller
forms the value as ``scale`` times the pairwise sum of the unscaled terms.
A value-only evaluation skips the gradient, its scaling and the clamp gate.

Because a pixel's term and gradient depend only on its prediction and
heatmap value, a step also serves a grid of pixel *classes*: a fit prepares
one step for all its scenes on a ``(1, U)`` grid that holds each scene's
distinct heatmap values one after another, with one scale per class, and
sums each scene's class terms gathered back onto its grid.
:func:`loss_with_grad` and :func:`batched_loss_values` (value-only, one sum
per flattened grid) prepare one step per call.  Like the fit, they evaluate
and sum under one ``np.errstate(all="ignore")`` and check finiteness
themselves; the kernels and ``terms`` run under their caller's error state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .grid import Grid


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


# --- branch kernels -----------------------------------------------------------
# Each gives the per-pixel term and, unless the call wants the value only, its
# derivative in q, sharing the power and logarithm between them.  The term's
# operations are the same either way.  The eps1 polynomial term is skipped at
# eps1 = 0, so a poly-1 variant there runs exactly the arithmetic of its base.
# The keypoint and graded kernels run on the gathered positive pixels and
# return new arrays; the background kernel runs on the whole grid and writes
# into the step's buffers.


def _keypoint_branch(
    q: np.ndarray, gamma: float, eps1: float, with_grad: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(1-q)^g ln q - eps1 (1-q)^(g+1)`` and, if ``with_grad``, its derivative in ``q``."""
    u = 1.0 - q
    pg = np.power(u, gamma)
    log_q = np.log(q)
    term = pg * log_q
    if eps1 != 0.0:
        term -= eps1 * pg * u
    if not with_grad:
        return term, None
    grad = pg * (1.0 / q - gamma * log_q / u)
    if eps1 != 0.0:
        grad += eps1 * (gamma + 1.0) * pg
    return term, grad


def _background_branch(
    q: np.ndarray,
    gamma: float,
    eps1: float,
    pg: np.ndarray,
    log_u: np.ndarray,
    term: np.ndarray,
    grad: np.ndarray | None,
) -> None:
    """``q^g ln(1-q) - eps1 q^(g+1)`` into ``term``, and its derivative in ``q`` into ``grad``.

    ``pg`` and ``log_u`` are scratch buffers shaped like ``q``; a ``grad`` of
    None skips the derivative.  One ufunc at a time, in the operation order
    of ``pg * (g ln(1-q) / q - 1 / (1-q))``.
    """
    np.power(q, gamma, out=pg)
    np.log1p(np.negative(q, out=log_u), out=log_u)
    np.multiply(pg, log_u, out=term)
    if grad is not None:
        np.multiply(gamma, log_u, out=log_u)
        np.divide(log_u, q, out=log_u)
        np.subtract(1.0, q, out=grad)
        np.divide(1.0, grad, out=grad)
        np.subtract(log_u, grad, out=grad)
        np.multiply(pg, grad, out=grad)
    if eps1 != 0.0:
        np.multiply(eps1, pg, out=log_u)
        np.multiply(log_u, q, out=log_u)
        np.subtract(term, log_u, out=term)
        if grad is not None:
            np.multiply(eps1 * (gamma + 1.0), pg, out=log_u)
            np.subtract(grad, log_u, out=grad)


def _graded_branch(
    q: np.ndarray,
    heat: np.ndarray,
    pb: np.ndarray,
    gamma: float,
    clamp: float,
    eps1: float,
    with_grad: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """``w dp^g ln(1-dp) - eps1 p^b dp^(g+1)`` and, if ``with_grad``, its derivative in ``q``.

    ``dp = |p - q|`` is capped below ``1 - clamp``, and ``pb = p^b``.
    ``w = (1 - eps1) p^b + eps1`` moves the ``p^b`` weight from the log term
    (eps1 = 0, the mask focal loss) onto the polynomial term (eps1 = 1, the
    unit-coefficient poly-1 form).
    """
    diff = q - heat
    dp = np.minimum(np.abs(diff), 1.0 - clamp)
    pg = np.power(dp, gamma)
    log_v = np.log1p(-dp)
    term = pg * log_v
    if eps1 == 0.0:
        term *= pb
    else:
        w = (1.0 - eps1) * pb + eps1
        term = w * term - eps1 * pb * pg * dp
    if not with_grad:
        return term, None
    # dp^(g-1) = pg / dp; at the dp = 0 kink sign(diff) = 0 below is the chosen
    # subgradient, and dividing by 1 there keeps 0 / 0 out of it.
    grad = gamma * pg / np.where(dp == 0.0, 1.0, dp) * log_v - pg / (1.0 - dp)
    if eps1 == 0.0:
        grad *= pb
    else:
        grad = w * grad - eps1 * (gamma + 1.0) * pb * pg
    grad *= np.sign(diff)
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
    and their heatmap values, computes the constant ``p^b`` or ``(1 - p)^b``
    weight, and allocates the grid-sized buffers that every evaluation
    writes into.  A fit prepares one step and evaluates it on every
    iteration.  The buffers make a step unsafe to share between threads.
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
        self._eps1 = cfg.eps1 if variant in _POLY_VARIANTS else 0.0
        self._graded = variant in _MASK_VARIANTS
        pos = heat > 0.0 if self._graded else heat == 1.0
        self._pos = np.flatnonzero(pos)
        self._heat_pos = heat.ravel()[self._pos]
        self._pos_weight = np.power(self._heat_pos, cfg.beta) if self._graded else None
        self._neg_weight = (
            np.power(1.0 - heat, cfg.beta) if variant in _WEIGHTED_NEG_VARIANTS else None
        )
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
        if preds.size and not (preds.min() >= 0.0 and preds.max() <= 1.0):
            raise ValidationError("prediction values must be finite and lie in [0, 1]")
        cfg, q, term = self._cfg, self._q, self._term
        grad = self._grad if with_grad else None
        lo, hi = cfg.clamp, 1.0 - cfg.clamp
        np.clip(preds, lo, hi, out=q)
        _background_branch(q, cfg.gamma, self._eps1, self._pg, self._scratch, term, grad)
        if self._neg_weight is not None:
            term *= self._neg_weight
            if with_grad:
                grad *= self._neg_weight
        q_pos = q.reshape(self._rows)[:, self._pos]
        if self._graded:
            pos_term, pos_grad = _graded_branch(
                q_pos, self._heat_pos, self._pos_weight, cfg.gamma, cfg.clamp, self._eps1, with_grad
            )
        else:
            pos_term, pos_grad = _keypoint_branch(q_pos, cfg.gamma, self._eps1, with_grad)
        term.reshape(self._rows)[:, self._pos] = pos_term
        if not with_grad:
            return term, None
        grad.reshape(self._rows)[:, self._pos] = pos_grad
        grad *= self.scale
        np.greater(preds, lo, out=self._inside)
        self._inside &= np.less(preds, hi, out=self._below)
        grad *= self._inside
        return term, grad


def loss_with_grad(pred: Grid, gt: GroundTruthBundle, cfg: LossConfig) -> LossResult:
    """Evaluate ``cfg.variant`` on ``pred`` against ``gt``.

    The gradient is analytic and matches central finite differences of the
    value (step 1e-6) to 1e-6 relative at clamp-interior predictions.
    """
    step = LossStep(gt.heatmap, cfg, pred.shape, _loss_scale(cfg, gt.n_objects))
    with np.errstate(all="ignore"):
        term, grad = step.terms(pred.values)
        total = float(term.sum())  # one pairwise sum over the row-major pixels
        value = step.scale * total
    if not (math.isfinite(grad.min()) and math.isfinite(grad.max())):
        raise ValidationError("loss gradient is non-finite; alpha or eps1 is likely too large")
    degenerate = gt.n_objects == 0 and cfg.variant is not LossVariant.FOCAL_SCALAR
    return LossResult(value=value, grad=Grid(grad), degenerate_n=degenerate)


def batched_loss_values(preds: np.ndarray, gt: GroundTruthBundle, cfg: LossConfig) -> np.ndarray:
    """Loss values for a stack of prediction arrays of shape ``(..., H, W)``.

    Each value equals :func:`loss_with_grad` on the same 2-D slice bit for
    bit; used for parameter sweeps and finite-difference verification.
    """
    preds = np.asarray(preds, dtype=np.float64)
    return _loss_values(LossStep(gt.heatmap, cfg, preds.shape, _loss_scale(cfg, gt.n_objects)), preds)


def _loss_values(step: LossStep, preds: np.ndarray) -> np.ndarray:
    """The loss value of each ``(H, W)`` slice of ``preds``, which has ``step``'s shape."""
    with np.errstate(all="ignore"):
        term = step.terms(preds, with_grad=False)[0]
        # one pairwise sum per flattened grid, the sum loss_with_grad takes
        totals = term.reshape(preds.shape[:-2] + (preds.shape[-2] * preds.shape[-1],)).sum(axis=-1)
        return step.scale * totals
