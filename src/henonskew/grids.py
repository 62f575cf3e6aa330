"""Slice geometry: the complex lines {x = c} and {y = c} of C^2 and uniform rasters on them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

SLICE_X = "x"  # {x = const}, raster in the y coordinate
SLICE_Y = "y"  # {y = const}, raster in the x coordinate


@dataclass(frozen=True)
class SliceSpec:
    """The complex line {x = const} or {y = const} in C^2, carrying a raster."""

    kind: str
    const: complex = 0j

    def __post_init__(self):
        if self.kind not in (SLICE_X, SLICE_Y):
            raise ValidationError(f"unknown slice kind {self.kind!r}")

    def to_points(self, w: np.ndarray):
        """Map raster coordinates w to (x, y) in C^2; the constant coordinate
        is a read-only broadcast of one value, and complex w is not copied."""
        w = w.astype(complex, copy=False)
        const = np.broadcast_to(np.complex128(self.const), w.shape)
        return (const, w) if self.kind == SLICE_X else (w, const)


@dataclass
class SliceGrid:
    """Cell-centered uniform raster over a rectangle in the slice plane.

    (x0, y0) is the center of pixel (0, 0); data is indexed [row, col] =
    [imag, real].
    """

    nx: int
    ny: int
    x0: float
    y0: float
    dx: float
    dy: float
    spec: SliceSpec
    data: np.ndarray | None = field(default=None)

    def __post_init__(self):
        _check_size(self.nx, self.ny)
        if not (0 < self.dx < np.inf and 0 < self.dy < np.inf):
            raise ValidationError("raster spacing must be positive and finite")

    @classmethod
    def from_window(
        cls,
        spec: SliceSpec,
        window: tuple[float, float, float, float],
        nx: int,
        ny: int | None = None,
    ) -> "SliceGrid":
        a0, a1, b0, b1 = window
        if ny is None:
            ny = nx
        _check_size(nx, ny)  # before the spacing divides by it
        dx = (a1 - a0) / nx
        dy = (b1 - b0) / ny
        return cls(nx=nx, ny=ny, x0=a0 + dx / 2, y0=b0 + dy / 2, dx=dx, dy=dy, spec=spec)

    def centers(self) -> np.ndarray:
        re = self.x0 + self.dx * np.arange(self.nx)
        im = self.y0 + self.dy * np.arange(self.ny)
        return re[None, :] + 1j * im[:, None]

    def points(self):
        """(x, y) arrays of shape (ny, nx) on the slice."""
        return self.spec.to_points(self.centers())

    def interior(self) -> "SliceGrid":
        """The grid of the cells one cell in from the edge, where a 5-point Laplacian lives."""
        return SliceGrid(self.nx - 2, self.ny - 2, self.x0 + self.dx, self.y0 + self.dy, self.dx, self.dy, self.spec)

    def with_data(self, data: np.ndarray) -> "SliceGrid":
        if data.shape != (self.ny, self.nx):
            raise ValidationError(f"data shape {data.shape} != ({self.ny}, {self.nx})")
        return SliceGrid(self.nx, self.ny, self.x0, self.y0, self.dx, self.dy, self.spec, data)


def _check_size(nx: int, ny: int) -> None:
    if nx < 3 or ny < 3:
        raise ValidationError(f"raster needs nx, ny >= 3, got {nx} x {ny}")
