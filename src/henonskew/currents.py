"""Slice realizations of Green currents.

A (1,1)-current mu = dd^c G restricted to a complex line is a measure;
numerically it is the 5-point discrete Laplacian of the restricted
potential times cell area. For potentials of logarithmic growth the total
slice mass on a disc containing the support is 2*pi (the normalized
variant divides that out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndecidedCells, ValidationError
from .filtration import FiltrationRadius, resolve_radius
from .green import STATUS_ESCAPED, GreenField, MCMoments, mc_green
from .grids import SliceGrid


@dataclass
class SliceMeasure:
    """Interior-cell density (Laplacian x cell area) of a slice potential."""

    grid: SliceGrid
    density: np.ndarray  # shape (ny-2, nx-2)
    total_mass: float
    normalized: bool = False

    def normalize(self) -> "SliceMeasure":
        """Mass-1 convention: divide the 2*pi Laplacian normalization out."""
        if self.normalized:
            return self
        return SliceMeasure(self.grid, self.density / (2 * np.pi), self.total_mass / (2 * np.pi), True)


def laplacian_density(values: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """5-point stencil Laplacian times cell area on interior cells."""
    v = values
    lap = (v[1:-1, 2:] + v[1:-1, :-2] - 2.0 * v[1:-1, 1:-1]) / dx ** 2 + (
        v[2:, 1:-1] + v[:-2, 1:-1] - 2.0 * v[1:-1, 1:-1]
    ) / dy ** 2
    return lap * (dx * dy)


def slice_measure(field: GreenField | SliceGrid, normalized: bool = False) -> SliceMeasure:
    """Discrete slice measure of a potential raster.

    Raises UndecidedCells when a GreenField still has undecided pixels;
    plain SliceGrid data is trusted as fully evaluated.
    """
    if isinstance(field, GreenField):
        if field.undecided:
            raise UndecidedCells(f"{field.undecided} undecided pixels in field")
        grid = field.grid
    else:
        grid = field
    if grid.data is None:
        raise ValidationError("slice grid carries no data")
    density = laplacian_density(grid.data, grid.dx, grid.dy)
    m = SliceMeasure(grid, density, float(density.sum()))
    return m.normalize() if normalized else m


def _dilate(mask: np.ndarray, iterations: int) -> np.ndarray:
    """Chebyshev dilation by `iterations` pixels (edge-clipped)."""
    out = mask.copy()
    for _ in range(iterations):
        grown = out.copy()
        grown[1:, :] |= out[:-1, :]
        grown[:-1, :] |= out[1:, :]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        grown[1:, 1:] |= out[:-1, :-1]
        grown[1:, :-1] |= out[:-1, 1:]
        grown[:-1, 1:] |= out[1:, :-1]
        grown[:-1, :-1] |= out[1:, 1:]
        out = grown
    return out


def transition_band(status: np.ndarray, width: int = 5) -> np.ndarray:
    """Pixels within `width` of a bounded/escaped status boundary."""
    esc = status == STATUS_ESCAPED
    edge = np.zeros_like(esc)
    edge[:, :-1] |= esc[:, :-1] != esc[:, 1:]
    edge[:, 1:] |= esc[:, :-1] != esc[:, 1:]
    edge[:-1, :] |= esc[:-1, :] != esc[1:, :]
    edge[1:, :] |= esc[:-1, :] != esc[1:, :]
    return _dilate(edge, width - 1) if width > 1 else edge


def off_band_fraction(measure: SliceMeasure, status: np.ndarray, width: int = 5) -> float:
    """Fraction of total |density| farther than `width` px from the J band."""
    band = transition_band(status, width)[1:-1, 1:-1]
    tot = np.abs(measure.density).sum()
    if tot == 0:
        return 0.0
    return float(np.abs(measure.density)[~band].sum() / tot)


PIXEL_INTERIOR = 0
PIXEL_JBAND = 1
PIXEL_ESCAPED = 2


@dataclass
class JuliaRaster:
    codes: np.ndarray  # uint8 of PIXEL_* values
    field: GreenField
    measure: SliceMeasure
    band: np.ndarray
    delta: float


def julia_raster(field: GreenField, delta: float | None = None, band_width: int = 5) -> JuliaRaster:
    """Classify the pixels of a Green raster: K^+ interior, J^+ band, escaped.

    The J band collects pixels near the bounded/escaped transition plus
    pixels whose slice density exceeds delta (default: 1e-4 of the peak).
    The field may come from any variant (fibered, along a sequence).
    """
    measure = slice_measure(field)
    if delta is None:
        # disable the density criterion when the window carries no mass
        # (discretization noise would otherwise masquerade as a J band)
        peak = float(np.abs(measure.density).max()) if measure.density.size else 0.0
        delta = 1e-4 * peak if abs(measure.total_mass) > 1e-3 else np.inf
    band = transition_band(field.status, band_width)
    dense = np.zeros_like(band)
    dense[1:-1, 1:-1] = np.abs(measure.density) > delta
    jband = band | dense
    codes = np.full(field.status.shape, PIXEL_INTERIOR, dtype=np.uint8)
    codes[field.status == STATUS_ESCAPED] = PIXEL_ESCAPED
    codes[jband] = PIXEL_JBAND
    return JuliaRaster(codes, field, measure, jband, delta)


@dataclass
class AvgSliceResult:
    measure_of_mean: SliceMeasure
    mean_of_measures: SliceMeasure
    l1_distance: float
    stderr_mass: float


def avg_current_slice(
    fam,
    space,
    grid: SliceGrid,
    n_mc: int = 64,
    seed: int = 0,
    tol: float = 1e-6,
    n_max: int = 200,
    flt: FiltrationRadius | None = None,
    normalized: bool = False,
    threads: int = 1,
) -> AvgSliceResult:
    """Slice of the averaged Green current, two ways.

    Laplacian of the Monte-Carlo mean potential versus the mean of the
    per-sequence Laplacians: identical up to roundoff by linearity, both
    reported so the commutation is exercised end to end. The mean
    potential, the mean density and the standard error of the slice mass
    come from MCMoments.
    """
    flt = resolve_radius(fam, flt, space)
    x, y = grid.points()
    mc = mc_green(fam, space, seed, n_mc, x.ravel(), y.ravel(), flt, tol, n_max, threads)
    bad = np.flatnonzero(mc.seq_undecided)
    if bad.size:
        raise UndecidedCells(f"sequence {bad[0]}: {mc.seq_undecided[bad[0]]} undecided pixels")
    pot, den, mass = MCMoments(), MCMoments(), MCMoments()
    for row in mc.values:
        vals = row.reshape(grid.ny, grid.nx)
        density = laplacian_density(vals, grid.dx, grid.dy)
        pot.add(vals)
        den.add(density)
        mass.add(density.sum())
    mom = slice_measure(grid.with_data(pot.mean()), normalized)
    mean_den = den.mean()
    msr = SliceMeasure(grid, mean_den, float(mean_den.sum()))
    if normalized:
        msr = msr.normalize()
    l1 = float(np.abs(mom.density - msr.density).sum())
    return AvgSliceResult(mom, msr, l1, float(mass.stderr()))
