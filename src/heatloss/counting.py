"""Peak-based counting and the MAE/RMSE evaluation metrics.

A detection is a pixel whose value equals the maximum of its
``window x window`` neighborhood (truncated at grid edges) and clears a
confidence threshold; the number of peaks is the predicted count.

A plateau (maximal 8-connected equal-value region, possibly running through
non-candidates) yields one peak: candidates with an equal neighbor are
visited in (y, x) order, and each one not yet reached is kept and floods its
plateau, dropping the later candidates on it.  Only plateaus that hold
candidates are flooded, never the whole grid.

All functions are pure; per-image evaluation parallelizes trivially and the
metric aggregation is order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import Grid
from .ground_truth import SceneAnnotation

DEFAULT_WINDOW = 3
DEFAULT_THRESHOLD = 0.3


@dataclass(frozen=True)
class Peak:
    x: int
    y: int
    score: float


@dataclass(frozen=True)
class PeakSet:
    """Detected peaks, ordered by (y, x)."""

    peaks: tuple[Peak, ...]

    def __len__(self) -> int:
        return len(self.peaks)


@dataclass(frozen=True)
class CountReport:
    """Per-image predicted/true counts with their aggregate MAE and RMSE."""

    per_image: tuple[tuple[int, int], ...]
    mae: float
    rmse: float
    m: int


def _window_max(values: np.ndarray, window: int) -> np.ndarray:
    """Exact ``window x window`` max: ``window - 1`` in-place row and column folds."""
    (h, w), r = values.shape, window // 2
    out = np.full((h + 2 * r, w + 2 * r), -np.inf)
    out[r : r + h, r : r + w] = values
    for _ in range(window - 1):
        np.maximum(out[:, :-1], out[:, 1:], out=out[:, :-1])
        np.maximum(out[:-1], out[1:], out=out[:-1])
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
    """Sorted flat indices of the peaks of ``heatmap`` (ascending == (y, x) order)."""
    if window < 3 or window % 2 == 0:
        raise ValidationError(f"window must be odd and >= 3, got {window}")
    if not (0.0 < threshold < 1.0):
        raise ValidationError(f"threshold must lie in (0, 1), got {threshold}")
    if not heatmap.is_unit_range():
        raise ValidationError("heatmap values must lie in [0, 1]")
    values = heatmap.values
    h, w = values.shape
    candidates = (values == _window_max(values, window)) & (values >= threshold)
    # NaN border: it equals nothing, so the flood needs no bounds checks.
    stride = w + 2
    padded = np.full((h + 2, w + 2), np.nan)
    padded[1:-1, 1:-1] = values
    flat, seen = memoryview(padded.ravel()), bytearray(padded.size)
    steps = (-stride - 1, -stride, -stride + 1, -1, 1, stride - 1, stride, stride + 1)
    for y, x in zip(*np.nonzero(candidates & _equal_neighbor_map(values))):
        start = (int(y) + 1) * stride + int(x) + 1
        if seen[start]:
            candidates[y, x] = False
            continue
        value = flat[start]
        seen[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for step in steps:
                j = i + step
                if not seen[j] and flat[j] == value:
                    seen[j] = 1
                    stack.append(j)
    return np.flatnonzero(candidates)


def extract_peaks(heatmap: Grid, window: int = DEFAULT_WINDOW, threshold: float = DEFAULT_THRESHOLD) -> PeakSet:
    """Select pixels that are neighborhood maxima at or above ``threshold``.

    Edge neighborhoods are truncated.  A qualifying plateau (maximal
    8-connected equal-value region) keeps only its smallest (y, x) candidate.
    """
    values, w = heatmap.values, heatmap.width
    return PeakSet(tuple(
        Peak(x=int(i % w), y=int(i // w), score=float(values.flat[i]))
        for i in _peak_indices(heatmap, window, threshold)
    ))


def count_image(heatmap: Grid, window: int = DEFAULT_WINDOW, threshold: float = DEFAULT_THRESHOLD) -> int:
    """Predicted object count: the number of peaks, found without building them."""
    return int(_peak_indices(heatmap, window, threshold).size)


def compute_metrics(per_image: list[tuple[int, int]]) -> CountReport:
    """MAE and RMSE of predicted vs. true counts over a list of images."""
    if not per_image:
        raise ValidationError("per-image count list must be non-empty")
    pairs = tuple((int(p), int(t)) for p, t in per_image)
    errors = np.array([p - t for p, t in pairs], dtype=np.float64)
    mae = float(np.mean(np.abs(errors)))
    rmse = float(math.sqrt(np.mean(errors * errors)))
    return CountReport(per_image=pairs, mae=mae, rmse=rmse, m=len(pairs))


def match_localizations(
    peaks: PeakSet, scene: SceneAnnotation, radius_factor: float = 0.5
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
        for pi, peak in enumerate(peaks.peaks):
            dist = math.hypot(peak.x - box.cx, peak.y - box.cy)
            if dist <= radius:
                candidates.append((dist, bi, pi))
    candidates.sort()
    box_taken = [False] * len(scene.boxes)
    peak_taken = [False] * len(peaks.peaks)
    matched = 0
    for _, bi, pi in candidates:
        if not box_taken[bi] and not peak_taken[pi]:
            box_taken[bi] = True
            peak_taken[pi] = True
            matched += 1
    return matched, len(scene.boxes) - matched, len(peaks.peaks) - matched
