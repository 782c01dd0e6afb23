"""Independent references that the benchmark checks CLI outputs against.

Nothing here imports heatloss.  Each function recomputes an expected output
from the scene annotation, or from the grid file a CLI call read, with plain
numpy, so a faster or restructured program can be checked by tolerance
rather than by byte digest.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Binary grids hold float32, whose rounding error on [0, 1] is at most 6e-8;
# CSV grids hold 9 significant digits.  Kernels are evaluated only where they
# exceed KERNEL_FLOOR, far below the tolerance.
HEATMAP_ATOL = 1e-6
KERNEL_FLOOR = 1e-9


class CheckFailed(Exception):
    """A CLI output that is missing, malformed or wrong."""


def read_grid_file(path: Path) -> np.ndarray:
    """Parse a grid written by the CLI: binary unless the name ends in .csv."""
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    if path.suffix == ".csv":
        try:
            return np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckFailed(f"{path.name}: unparsable CSV grid ({exc})") from exc
    raw = path.read_bytes()
    header, _, body = raw.partition(b"\n")
    fields = header.split()
    if len(fields) != 3 or fields[0] != b"GRID":
        raise CheckFailed(f"{path.name}: bad grid header {header[:40]!r}")
    width, height = int(fields[1]), int(fields[2])
    if len(body) != 4 * width * height:
        raise CheckFailed(f"{path.name}: {len(body)} payload bytes for a {width}x{height} grid")
    return np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(height, width)


def kernel_sigma(w: float, h: float, eta: float, eps_sigma: float) -> float:
    """The paper's kernel width: d (1 + eta e^-d) / eps with d = 2 min(w, h) + 1."""
    d = 2.0 * min(w, h) + 1.0
    return d * (1.0 + eta * math.exp(-d)) / eps_sigma


def _window(c: float, r: float, n: int) -> tuple[int, int]:
    return max(0, math.ceil(c - r)), min(n, math.floor(c + r) + 1)


def reference_heatmap(width: int, height: int, boxes, eta: float, eps_sigma: float) -> np.ndarray:
    """Max-combined Gaussian kernels, each evaluated on its own window only."""
    heat = np.zeros((height, width))
    for cx, cy, w, h in boxes:
        sigma = kernel_sigma(w, h, eta, eps_sigma)
        r = sigma * math.sqrt(-2.0 * math.log(KERNEL_FLOOR))
        x0, x1 = _window(cx, r, width)
        y0, y1 = _window(cy, r, height)
        dx = np.arange(x0, x1, dtype=np.float64)[None, :] - cx
        dy = np.arange(y0, y1, dtype=np.float64)[:, None] - cy
        kernel = np.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))
        np.maximum(heat[y0:y1, x0:x1], kernel, out=heat[y0:y1, x0:x1])
    return heat


def reference_mask(width: int, height: int, boxes) -> np.ndarray:
    """1.0 on every pixel inside a closed box rectangle, else 0.0."""
    mask = np.zeros((height, width), dtype=bool)
    for cx, cy, w, h in boxes:
        x0, x1 = _window(cx, w / 2.0 + 1.0, width)
        y0, y1 = _window(cy, h / 2.0 + 1.0, height)
        xs = np.arange(x0, x1, dtype=np.float64)[None, :]
        ys = np.arange(y0, y1, dtype=np.float64)[:, None]
        mask[y0:y1, x0:x1] |= (np.abs(xs - cx) <= w / 2.0) & (np.abs(ys - cy) <= h / 2.0)
    return mask.astype(np.float64)


def _neighborhood_max(values: np.ndarray, window: int) -> np.ndarray:
    r = window // 2
    padded = np.pad(values, r, constant_values=-np.inf)
    h, w = values.shape
    out = np.full_like(values, -np.inf)
    for dy in range(window):
        for dx in range(window):
            np.maximum(out, padded[dy : dy + h, dx : dx + w], out=out)
    return out


def _candidates(values: np.ndarray, window: int, threshold: float) -> np.ndarray:
    return (values == _neighborhood_max(values, window)) & (values >= threshold)


_NEIGHBORS = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]


def has_tied_candidate(values: np.ndarray, window: int = 3, threshold: float = 0.3) -> bool:
    """True when some peak candidate shares its value with an 8-neighbour."""
    cand = _candidates(values, window, threshold)
    padded = np.pad(values, 1, constant_values=np.nan)
    h, w = values.shape
    for dy, dx in _NEIGHBORS:
        shifted = padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
        if (cand & (values == shifted)).any():
            return True
    return False


def brute_force_peaks(values: np.ndarray, window: int = 3, threshold: float = 0.3) -> list[tuple[int, int]]:
    """Peaks as (y, x): neighbourhood maxima at or above the threshold.

    Every maximal 8-connected equal-value region keeps only its
    lexicographically smallest candidate, found by an explicit flood fill.
    """
    h, w = values.shape
    cand = _candidates(values, window, threshold)
    seen = np.zeros_like(cand)
    kept = []
    for y, x in zip(*np.nonzero(cand)):  # row-major, so (y, x) ascending
        if seen[y, x]:
            continue
        kept.append((int(y), int(x)))
        value = values[y, x]
        seen[y, x] = True
        stack = [(y, x)]
        while stack:
            cy, cx = stack.pop()
            for dy, dx in _NEIGHBORS:
                ny, nx = cy + dy, cx + dx
                if 0 <= ny < h and 0 <= nx < w and not seen[ny, nx] and values[ny, nx] == value:
                    seen[ny, nx] = True
                    stack.append((ny, nx))
    return kept
