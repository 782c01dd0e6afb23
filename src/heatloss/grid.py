"""2-D value grid and its on-disk formats.

A :class:`Grid` is the common carrier for heatmaps, masks, binary feature
maps, predictions, and gradients.  In memory values are float64; the binary
file format stores little-endian float32, so a write/read round trip is
bit-stable from the first write onward.

Binary format: one ASCII header line ``GRID <width> <height>\\n`` followed by
``width * height`` little-endian 32-bit floats in row-major order.  The sizes
are positive decimal integers below 10**19 without sign or leading zeros, one
space apart; a reader checks the header first and rejects any other header.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SchemaError, ValidationError


@dataclass(frozen=True)
class Grid:
    """Immutable 2-D array of real values.

    ``values`` has shape ``(height, width)``.  The array is copied on
    construction and marked read-only.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError(f"grid values must be a non-empty 2-D array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("grid values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def is_unit_range(self) -> bool:
        """True when every value lies in [0, 1]."""
        return bool((self.values >= 0.0).all() and (self.values <= 1.0).all())

    def is_binary(self) -> bool:
        """True when every value is exactly 0.0 or 1.0."""
        v = self.values
        return bool(((v == 0.0) | (v == 1.0)).all())


def _check_addressable(height: int, width: int) -> None:
    """Reject a grid whose float64 values numpy cannot address."""
    if height * width > np.iinfo(np.intp).max // 8:
        raise ValidationError(f"a {width}x{height} grid is too large: numpy cannot address its float64 values")


def _check_float_sized(name: str, *values: int) -> None:
    """Reject integers that ``float`` cannot convert: from ``2**1024 - 2**970`` on they round past float64's range."""
    if any(abs(v) >= 2**1024 - 2**970 for v in values):
        raise ValidationError(f"{name} must fit a float64 (magnitude below 2**1024 - 2**970)")


# the header grammar; 19 digits keep int() within Python's limit and exceed any addressable grid
_HEADER = re.compile(rb"GRID ([1-9][0-9]{0,18}) ([1-9][0-9]{0,18})")


def write_grid(grid: Grid, path: str | Path) -> None:
    """Write ``grid`` in the binary format (header + little-endian float32)."""
    with np.errstate(over="ignore"):
        payload = grid.values.astype("<f4")
    if not np.isfinite(payload).all():
        raise ValidationError(f"grid values exceed the float32 range of the grid format (|v| <= {np.finfo(np.float32).max:.6g})")
    header = f"GRID {grid.width} {grid.height}\n".encode("ascii")
    Path(path).write_bytes(header + payload.tobytes(order="C"))


def read_grid(path: str | Path) -> Grid:
    """Read a binary grid file written by :func:`write_grid`."""
    header, newline, body = Path(path).read_bytes().partition(b"\n")
    sizes = _HEADER.fullmatch(header)
    if not newline or sizes is None:
        raise SchemaError(f"{path}: grid header {header[:64]!r} is not 'GRID <width> <height>' and a newline, "
                          "with positive decimal sizes below 10**19, no sign or leading zero, one space apart")
    width, height = int(sizes[1]), int(sizes[2])
    expected = width * height * 4
    if len(body) != expected:
        raise SchemaError(f"{path}: expected {expected} payload bytes, found {len(body)}")
    return Grid(np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(height, width))


def write_grid_csv(grid: Grid, path: str | Path) -> None:
    """Write one CSV text row per grid row, 9 significant digits per value."""
    np.savetxt(path, grid.values, fmt="%.9g", delimiter=",")


def read_grid_csv(path: str | Path) -> Grid:
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise SchemaError(f"{path}: malformed grid CSV ({exc})") from exc
    if values.size == 0:
        raise SchemaError(f"{path}: malformed grid CSV (no data)")
    return Grid(values)
