"""Annotation types and ground-truth synthesis.

Builds the three supervision targets used by the loss family:

* Gaussian heatmap: per-pixel maximum over per-box kernels
  ``exp(-(dx^2 + dy^2) / (2 sigma^2))``, value 1 at box centers, computed as
  ``exp`` of the per-pixel least exponent (equal, as ``exp`` is monotone).
  Kernels are never truncated; a box skips only the 16x16 tiles where bounds
  on its exponent, rounded as the render rounds, prove it cannot hold the
  least one, so the culled render equals the full-grid one bit for bit.
* Area mask: 1 inside any box rectangle, 0 outside.
* Binary feature map: identical to the area mask (every box-interior pixel
  is a positive with target value 1).

The kernel width sigma grows with the box but is boosted for small boxes:
``sigma = d * (1 + eta * exp(-d)) / eps`` with sensing factor
``d = 2 * min(w, h) + 1``.

Everything here is a pure function returning freshly allocated grids, so
concurrent calls are safe; grid values are immutable once constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import Grid, _check_addressable, _check_float_sized

TILE = 16  # side of the square pixel tiles render_heatmap culls boxes on


@dataclass(frozen=True)
class BoxAnnotation:
    """An axis-aligned box given by center (cx, cy) and sides (w, h), in pixels."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise ValidationError(f"box center must be finite, got ({self.cx}, {self.cy})")
        if not (math.isfinite(self.w) and self.w > 0 and math.isfinite(self.h) and self.h > 0):
            raise ValidationError(f"box sides must be finite and positive, got ({self.w}, {self.h})")


@dataclass(frozen=True)
class SceneAnnotation:
    """Per-image annotation: image dimensions plus head boxes."""

    width: int
    height: int
    boxes: tuple[BoxAnnotation, ...]

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValidationError(f"scene dimensions must be >= 1, got {self.width}x{self.height}")
        object.__setattr__(self, "boxes", tuple(self.boxes))
        for box in self.boxes:
            if not (0 <= box.cx < self.width and 0 <= box.cy < self.height):
                raise ValidationError(
                    f"box center ({box.cx}, {box.cy}) outside [0, {self.width}) x [0, {self.height})"
                )


@dataclass(frozen=True)
class AnchorSet:
    """Manually preset reference boxes used by box-size interpolation."""

    anchors: tuple[BoxAnnotation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchors", tuple(self.anchors))
        if not self.anchors:
            raise ValidationError("anchor set must contain at least one anchor")
        centers = {(a.cx, a.cy) for a in self.anchors}
        if len(centers) != len(self.anchors):
            raise ValidationError("anchors must not share identical centers")


@dataclass(frozen=True)
class SigmaParams:
    """Kernel-width parameters: small-object boost strength and divisor."""

    eta: float = 1.0
    eps_sigma: float = 3.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValidationError(f"eta must be finite and >= 0, got {self.eta}")
        if not (math.isfinite(self.eps_sigma) and self.eps_sigma > 0):
            raise ValidationError(f"eps_sigma must be finite and > 0, got {self.eps_sigma}")


def sigma_from_sensing_factor(d: float, params: SigmaParams) -> float:
    """Kernel width for a given sensing factor ``d``.

    The boost ``1 + eta * exp(-d)`` strengthens the response of small boxes
    (small ``d``) and decays to 1 for large ones.
    """
    if not (math.isfinite(d) and d > 0):
        raise ValidationError(f"sensing factor must be finite and > 0, got {d}")
    return d * (1.0 + params.eta * math.exp(-d)) / params.eps_sigma


def compute_sigma(box: BoxAnnotation, params: SigmaParams) -> float:
    """Kernel width for ``box``: sensing factor is ``2 * min(w, h) + 1``."""
    return sigma_from_sensing_factor(2.0 * min(box.w, box.h) + 1.0, params)


def _output_shape(scene: SceneAnnotation, stride: int) -> tuple[int, int]:
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    _check_float_sized("stride", stride)
    shape = -(-scene.height // stride), -(-scene.width // stride)
    _check_addressable(*shape)
    return shape


def _axis_bounds(centres: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared offsets ``(x - c)^2`` per (tile, box) along one axis of ``n`` pixels.

    Returns the offset of the tile pixel nearest each centre and of the tile's
    farther end pixel, rounded as the render rounds them, so they bound every
    squared offset the render takes inside the tile.
    """
    first = np.arange(0, n, TILE, dtype=np.float64)[:, None]
    last = np.minimum(first + (TILE - 1), n - 1)
    near = np.clip(np.rint(centres), first, last) - centres
    far = np.maximum(np.abs(first - centres), np.abs(last - centres))
    return near * near, far * far


def render_heatmap(scene: SceneAnnotation, params: SigmaParams, stride: int = 1) -> Grid:
    """Render the Gaussian heatmap of ``scene`` at the given output stride.

    Per box, a kernel centered at the stride-scaled box center with width
    from :func:`compute_sigma` on the stride-scaled box; kernels combine by
    element-wise maximum, so values stay in [0, 1] and equal 1 exactly at
    centers that land on a pixel.  The maximum is computed as ``exp`` of the
    per-pixel least exponent; ``exp`` is monotone, so the two are equal.

    Kernels are not truncated, but a box updates only the tiles where it can
    hold the least exponent.  Per ``TILE x TILE`` tile and box, the exponent
    at the tile pixel nearest the center is a lower bound and the one at the
    farthest corner an upper bound on every exponent the box has there (the
    bounds take the render's own float operations, and rounding is
    monotone).  A box whose lower bound exceeds the tile's least upper bound
    is never a pixel's minimum in that tile; each box folds into ``least``
    on the bounding rectangle of the tiles that keep it.  The minimum over
    a superset of the minimizing boxes is the same float, so the output is
    the full-grid render bit for bit.
    """
    out_h, out_w = _output_shape(scene, stride)
    ys = np.arange(out_h, dtype=np.float64)[:, None]
    xs = np.arange(out_w, dtype=np.float64)[None, :]
    cxs = np.array([box.cx / stride for box in scene.boxes])
    cys = np.array([box.cy / stride for box in scene.boxes])
    sigmas = [sigma_from_sensing_factor(2.0 * min(box.w, box.h) / stride + 1.0, params) for box in scene.boxes]
    scales = np.array([2.0 * sigma * sigma for sigma in sigmas])
    if 0.0 in scales:  # every exponent would be 0 / 0 or x / 0
        b = int(np.argmin(scales))
        raise ValidationError(
            f"the kernel width of box {b} underflows: sigma = {sigmas[b]} (eta = {params.eta}, "
            f"eps_sigma = {params.eps_sigma}) gives 2 sigma^2 = 0"
        )
    near_x, far_x = _axis_bounds(cxs, out_w)
    near_y, far_y = _axis_bounds(cys, out_h)
    rows = np.empty((len(near_y), len(cxs)), dtype=bool)  # (tile row, box): kept in the row
    cols = np.zeros((len(near_x), len(cxs)), dtype=bool)  # (tile column, box): kept in the column
    with np.errstate(over="ignore"):  # a tiny kernel width gives far pixels an inf exponent: 0
        for ty in range(len(near_y)):
            least_upper = ((far_x + far_y[ty]) / scales).min(axis=1, initial=np.inf)
            keep = (near_x + near_y[ty]) / scales <= least_upper[:, None]
            rows[ty] = keep.any(axis=0)
            cols |= keep
        y_first, y_last = rows.argmax(axis=0), len(rows) - rows[::-1].argmax(axis=0)
        x_first, x_last = cols.argmax(axis=0), len(cols) - cols[::-1].argmax(axis=0)
        least = np.full((out_h, out_w), np.inf)
        for b in np.flatnonzero(rows.any(axis=0)):
            y0, y1 = y_first[b] * TILE, y_last[b] * TILE
            x0, x1 = x_first[b] * TILE, x_last[b] * TILE
            dx = xs[:, x0:x1] - cxs[b]
            dy = ys[y0:y1] - cys[b]
            rect = least[y0:y1, x0:x1]
            np.minimum(rect, (dx * dx + dy * dy) / scales[b], out=rect)
    return Grid(np.exp(-least))  # exp is monotone: exp(-least) is the max of the kernels


def _box_span(centre: float, half: float, n: int) -> slice:
    """Pixels of an axis of ``n`` that may pass ``|x - centre| <= half``, with a
    one-pixel margin for the rounding of the test."""
    return slice(max(0, math.floor(centre - half) - 1), min(n, math.ceil(centre + half) + 2))


def render_mask(scene: SceneAnnotation, stride: int = 1) -> Grid:
    """Render the area mask: 1 where a pixel lies in any (closed) box rectangle.

    A pixel (x, y) belongs to a box when its coordinate falls inside
    ``[cx - w/2, cx + w/2] x [cy - h/2, cy + h/2]`` after stride scaling;
    boundary ties are inclusive.  Each box is tested only on its bounding
    slice.
    """
    out_h, out_w = _output_shape(scene, stride)
    mask = np.zeros((out_h, out_w), dtype=bool)
    ys = np.arange(out_h, dtype=np.float64)[:, None]
    xs = np.arange(out_w, dtype=np.float64)[None, :]
    for box in scene.boxes:
        cx, cy = box.cx / stride, box.cy / stride
        half_w = box.w / (2.0 * stride)
        half_h = box.h / (2.0 * stride)
        span_y, span_x = _box_span(cy, half_h, out_h), _box_span(cx, half_w, out_w)
        inside = (np.abs(xs[:, span_x] - cx) <= half_w) & (np.abs(ys[span_y] - cy) <= half_h)
        mask[span_y, span_x] |= inside
    return Grid(mask.astype(np.float64))


def render_binary_map(scene: SceneAnnotation, stride: int = 1) -> Grid:
    """Render the binary feature map: identical to :func:`render_mask`."""
    return render_mask(scene, stride)


def interpolate_boxes(
    anchors: AnchorSet, centers: list[tuple[float, float]]
) -> list[BoxAnnotation]:
    """Assign a box size to each query center from its two nearest anchors.

    Sizes are linearly interpolated between the nearest anchor A and the
    second-nearest B with weight ``t = d_A / (d_A + d_B)``, applied to width
    and height independently.  A single anchor, or a query sitting exactly on
    an anchor center, copies that anchor's size.  Distance ties are broken by
    anchor order.
    """
    anchor_xy = np.array([(a.cx, a.cy) for a in anchors.anchors])
    result: list[BoxAnnotation] = []
    for cx, cy in centers:
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise ValidationError(f"query center must be finite, got ({cx}, {cy})")
        dists = np.hypot(anchor_xy[:, 0] - cx, anchor_xy[:, 1] - cy)
        order = np.argsort(dists, kind="stable")
        near = anchors.anchors[order[0]]
        if len(order) == 1 or dists[order[0]] == 0.0:
            result.append(BoxAnnotation(cx, cy, near.w, near.h))
            continue
        second = anchors.anchors[order[1]]
        d_a, d_b = float(dists[order[0]]), float(dists[order[1]])
        t = d_a / (d_a + d_b)
        result.append(
            BoxAnnotation(
                cx,
                cy,
                near.w + t * (second.w - near.w),
                near.h + t * (second.h - near.h),
            )
        )
    return result
