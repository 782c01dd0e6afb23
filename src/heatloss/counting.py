"""Peak-based counting and the MAE/RMSE evaluation metrics.

A detection is a pixel whose value equals the maximum of its
``window x window`` neighborhood (truncated at grid edges) and clears a
confidence threshold; the length of the peak tuple is the predicted count.

A plateau (maximal 8-connected equal-value region, possibly running through
non-candidates) yields one peak, its least (y, x) candidate.  Plateaus are
labelled in numpy over row runs (Rosenfeld and Pfaltz 1966) on the
candidates and the pixels with an equal neighbor at or above the least
candidate's value: each run start probes up-left, up and down-left for an
equal-valued run, and the links are merged by root hooking and pointer
jumping (Shiloach and Vishkin 1982).  That is a few numpy passes over those
pixels; no Python loop visits a pixel.

All functions are pure; per-image evaluation parallelizes trivially and the
metric aggregation is order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import Grid, _check_float_sized
from .ground_truth import SceneAnnotation

DEFAULT_WINDOW = 3
DEFAULT_THRESHOLD = 0.3


@dataclass(frozen=True)
class Peak:
    x: int
    y: int
    score: float


@dataclass(frozen=True)
class CountReport:
    """Per-image predicted/true counts with their aggregate MAE and RMSE."""

    per_image: tuple[tuple[int, int], ...]
    mae: float
    rmse: float
    m: int


def _window_max(values: np.ndarray, window: int) -> np.ndarray:
    """Exact ``window x window`` max in ``O(log r)`` in-place folds per axis.

    On the grid padded by ``r`` with ``-inf``, a fold at offset ``t <= s``
    turns maxima over spans of ``s`` entries into maxima over ``s + t``.
    Offsets 1, 2, 4, ... double the span while it fits in ``2 r + 1``; one
    last, shorter offset makes two overlapping spans cover the window.  The
    radius ``r`` is clamped to ``max(h, w) - 1``: from there on every
    truncated neighborhood is the whole grid, so the max is the same.
    """
    h, w = values.shape
    r = min(window // 2, max(h, w) - 1)
    out = np.full((h + 2 * r, w + 2 * r), -np.inf)
    out[r : r + h, r : r + w] = values
    size, span = 2 * r + 1, 1
    while span < size:
        t = min(span, size - span)
        np.maximum(out[:, :-t], out[:, t:], out=out[:, :-t])
        np.maximum(out[:-t], out[t:], out=out[:-t])
        span += t
    return out[:h, :w]


def _equal_neighbor_map(values: np.ndarray) -> np.ndarray:
    """Per-pixel flag: the pixel shares its value with an 8-neighbor."""
    tied = np.zeros(values.shape, dtype=bool)
    for a, b in (
        (np.s_[:, :-1], np.s_[:, 1:]),
        (np.s_[:-1, :], np.s_[1:, :]),
        (np.s_[:-1, :-1], np.s_[1:, 1:]),
        (np.s_[:-1, 1:], np.s_[1:, :-1]),
    ):
        equal = values[a] == values[b]
        tied[a] |= equal
        tied[b] |= equal
    return tied


def _peak_indices(heatmap: Grid, window: int, threshold: float) -> np.ndarray:
    """Sorted flat indices of the peaks of ``heatmap`` (ascending == (y, x) order).

    Every candidate is grouped by plateau over row runs, and each plateau
    keeps its least flat-index candidate.
    """
    if window < 3 or window % 2 == 0:
        raise ValidationError(f"window must be odd and >= 3, got {window}")
    if not (0.0 < threshold < 1.0):
        raise ValidationError(f"threshold must lie in (0, 1), got {threshold}")
    if not heatmap.is_unit_range():
        raise ValidationError("heatmap values must lie in [0, 1]")
    values, w = heatmap.values, heatmap.width
    found = np.flatnonzero((values == _window_max(values, window)) & (values >= threshold))
    if not found.size:
        return found
    # The region: the candidates, and the pixels with an equal neighbor at or
    # above the least candidate's value.  It holds each candidate's whole plateau.
    flat = values.ravel()
    inside = _equal_neighbor_map(values).ravel() & (flat >= flat[found].min())
    inside[found] = True
    region = np.flatnonzero(inside)
    v, x = flat[region], region % w
    # Row runs: a pixel starts a run unless it is the next pixel of the same
    # row after an equal-valued region pixel.
    starts = np.ones(region.size, dtype=bool)
    starts[1:] = (np.diff(region) != 1) | (x[1:] == 0) | (v[1:] != v[:-1])
    run_of = np.full(flat.size, -1)
    run_of[region] = np.cumsum(starts) - 1
    # Links from run starts only.  Equal-valued runs [s1, e1] above [s2, e2]
    # touch iff s2 <= e1 + 1 and s1 <= e2 + 1, and then one probe lands in the
    # other run: up-left of s2 if s1 < s2, above s2 if s1 = s2, and down-left
    # of s1 if s1 > s2.
    head, hv, left = region[starts], v[starts], x[starts] > 0
    up, down = head >= w, head < flat.size - w
    probe, a = np.nonzero([left & up, up, left & down])
    q = head[a] + np.array([-w - 1, -w, w - 1])[probe]
    link = (run_of[q] >= 0) & (flat[q] == hv[a])
    a, b = a[link], run_of[q[link]]
    # Components: hook the greater root of each split link to the lesser,
    # then jump pointers until every run points at its root.
    root = np.arange(head.size)
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            break
        np.minimum.at(root, np.maximum(ra, rb)[split], np.minimum(ra, rb)[split])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    # Each plateau keeps its least candidate.
    _, first = np.unique(root[run_of[found]], return_index=True)
    return found[np.sort(first)]


def extract_peaks(heatmap: Grid, window: int = DEFAULT_WINDOW, threshold: float = DEFAULT_THRESHOLD) -> tuple[Peak, ...]:
    """The tuple of pixels that are neighborhood maxima at or above ``threshold``, in (y, x) order.

    Edge neighborhoods are truncated.  A qualifying plateau (maximal
    8-connected equal-value region) keeps only its smallest (y, x) candidate.
    """
    values, w = heatmap.values, heatmap.width
    return tuple(
        Peak(x=int(i % w), y=int(i // w), score=float(values.flat[i]))
        for i in _peak_indices(heatmap, window, threshold)
    )


def count_image(heatmap: Grid, window: int = DEFAULT_WINDOW, threshold: float = DEFAULT_THRESHOLD) -> int:
    """Predicted object count: the number of peaks, found without building them."""
    return int(_peak_indices(heatmap, window, threshold).size)


def compute_metrics(per_image: list[tuple[int, int]]) -> CountReport:
    """MAE and RMSE of predicted vs. true counts over a list of images."""
    if not per_image:
        raise ValidationError("per-image count list must be non-empty")
    pairs = tuple((int(p), int(t)) for p, t in per_image)
    for i, (p, t) in enumerate(pairs):
        if p < 0 or t < 0:
            raise ValidationError(f"per_image[{i}]: counts must be >= 0, got pred {p}, truth {t}")
        _check_float_sized(f"per_image[{i}]: pred - truth", p - t)
    errors = np.array([p - t for p, t in pairs], dtype=np.float64)
    with np.errstate(over="ignore"):  # a sum past the float64 range is inf
        mae = float(np.mean(np.abs(errors)))
        rmse = float(math.sqrt(np.mean(errors * errors)))
    if not math.isfinite(rmse):  # e * e >= |e| for integer errors, so the MAE is finite too
        raise ValidationError("the count errors' mean square overflows float64: the RMSE is not finite")
    return CountReport(per_image=pairs, mae=mae, rmse=rmse, m=len(pairs))


def match_localizations(
    peaks: tuple[Peak, ...], scene: SceneAnnotation, radius_factor: float = 0.5
) -> tuple[int, int, int]:
    """Greedy nearest-first matching of peaks to annotated box centers.

    A peak may match a box only within ``radius_factor * min(w, h)`` of that
    box's center; the globally closest unmatched pair is taken repeatedly.
    Returns ``(matched, missed, spurious)`` with ``matched + missed`` equal to
    the box count and ``matched + spurious`` equal to the peak count.
    """
    if not (math.isfinite(radius_factor) and radius_factor > 0):
        raise ValidationError(f"radius_factor must be > 0, got {radius_factor}")
    candidates = []
    for bi, box in enumerate(scene.boxes):
        radius = radius_factor * min(box.w, box.h)
        for pi, peak in enumerate(peaks):
            dist = math.hypot(peak.x - box.cx, peak.y - box.cy)
            if dist <= radius:
                candidates.append((dist, bi, pi))
    candidates.sort()
    box_taken = [False] * len(scene.boxes)
    peak_taken = [False] * len(peaks)
    matched = 0
    for _, bi, pi in candidates:
        if not box_taken[bi] and not peak_taken[pi]:
            box_taken[bi] = True
            peak_taken[pi] = True
            matched += 1
    return matched, len(scene.boxes) - matched, len(peaks) - matched
