"""Current-convergence experiments at the level of scalar potentials.

Pulling back dd^c u by a composition is dd^c of u composed with the
composition, so sup-norm convergence of the normalized potentials
d^(-n) u(H_n(z)) toward the Green potential realizes the current
statements on slice grids. Admissible potentials grow like log||z||
(mass-1 normalization) and stay bounded near the backward indeterminacy
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import CONTRACTION, IDENTITY, BaseSystem
from .errors import UnsupportedBase, ValidationError
from .family import HenonFamily
from .filtration import FiltrationRadius, resolve_radius
from .green import STATUS_UNDECIDED, MCMoments, avg_green_field, green_field, green_field_seq, mc_chunks, mc_supplier
from .currents import laplacian_density
from .grids import SliceGrid
from .orbit import Orbit, SeqSupplier, SigmaSupplier, iterate

LOG_PLUS = "log-plus"
FUBINI_STUDY = "fubini-study"
SMOOTHED_LOG = "smoothed-log"


@dataclass(frozen=True)
class PotentialSpec:
    """Admissible scalar potential with logarithmic growth.

    kinds: 'log-plus' u = log+ ||z||, 'fubini-study' u = 1/2 log(1+||z||^2),
    'smoothed-log' u = 1/2 log(c^2 + ||z||^2), with a finite c > 0.
    """

    kind: str
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in (LOG_PLUS, FUBINI_STUDY, SMOOTHED_LOG):
            raise ValidationError(f"unknown potential kind {self.kind!r}")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValidationError(f"potential needs a finite c > 0, got {self.c}")

    def eval_points(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Potential at (x, y); reads only |x| and |y|, so moduli serve as well."""
        norm = np.hypot(np.abs(x), np.abs(y))
        if self.kind == LOG_PLUS:
            with np.errstate(divide="ignore"):
                return np.maximum(np.log(norm), 0.0)
        c = 1.0 if self.kind == FUBINI_STUDY else self.c
        return 0.5 * np.log(c * c + norm ** 2)

    def eval_lognorm(self, L: np.ndarray) -> np.ndarray:
        """Value from L = log||z|| for points in log-scale representation, as a new array.

        The value is L + 1/2 log1p(c^2 e^(-2L)). For L > 20 + log max(c, 1)
        the added term is at most 1/2 e^(-40) < 2.2e-18, below half an ulp
        of L (2^-49 for L >= 16), so L + term rounds to L: the formula is
        evaluated only on the other entries, NaN included, bit for bit.
        """
        if self.kind == LOG_PLUS:
            return np.maximum(L, 0.0)
        c = 1.0 if self.kind == FUBINI_STUDY else self.c
        out = np.array(L, dtype=float)
        near = ~(out > 20.0 + math.log(max(c, 1.0)))
        if near.any():
            L_near = out[near]
            with np.errstate(under="ignore"):
                out[near] = L_near + 0.5 * np.log1p(c * c * np.exp(-2.0 * L_near))
        return out

    def eval_orbit(self, orbit: Orbit) -> np.ndarray:
        return orbit.radial(self.eval_points, self.eval_lognorm)


@dataclass
class ConvergenceReport:
    """Per-depth sup errors with the A n d^-n rate fit.

    The scale A is fitted by linear least squares of e_n against the
    basis n d^(-n); residual_rel is ||e - fit|| / ||e|| in l2.
    """

    depths: list[int]
    errors: list[float]
    degree: int
    masked_fraction: float
    fit_a: float = field(init=False)
    residual_rel: float = field(init=False)

    def __post_init__(self):
        e = np.asarray(self.errors, dtype=float)
        n = np.asarray(self.depths, dtype=float)
        basis = n * float(self.degree) ** (-n)
        denom = float(basis @ basis)
        self.fit_a = float(e @ basis / denom) if denom > 0 else 0.0
        fit = self.fit_a * basis
        norm = float(np.linalg.norm(e))
        self.residual_rel = float(np.linalg.norm(e - fit) / norm) if norm > 0 else 0.0

    def monotone_from(self) -> int | None:
        """Smallest n0 with strictly decreasing errors afterwards."""
        e = self.errors
        for i in range(len(e)):
            if all(e[j + 1] < e[j] for j in range(i, len(e) - 1)):
                return self.depths[i]
        return None

    def as_csv(self) -> str:
        lines = ["n,e_n,masked_fraction"]
        lines += [f"{n},{v:.12g},{self.masked_fraction:.6g}" for n, v in zip(self.depths, self.errors)]
        return "\n".join(lines) + "\n"

    def fit_summary(self) -> str:
        return (
            f"{{\"model\": \"A*n*d^-n\", \"A\": {self.fit_a:.6g}, \"d\": {self.degree}, "
            f"\"residual_rel\": {self.residual_rel:.6g}, \"masked_fraction\": {self.masked_fraction:.6g}}}"
        )


def _check_growth(fam: HenonFamily, n_max: int) -> None:
    """ValidationError if d^n_max > 2^1000, before any reference field is computed.

    With G_n = d^-n log+||H_n z|| and |G_(n+1) - G_n| <= K d^-n
    (FiltrationRadius.K), L_n = log||H_n z|| <= d^n (log+||z_0|| + K d/(d-1)).
    For d^n <= 2^1000 ~ 1.07e301, L_n stays below the largest double
    (1.8e308) while log+||z_0|| + K d/(d-1) <= 1.6e7, and d^-n is a
    normal double. Past that L_n overflows to inf, and the depth's values
    read inf or NaN.
    """
    if n_max > 1000 or fam.degree ** n_max > 2 ** 1000:
        raise ValidationError(f"n_max = {n_max} gives d^n_max > 2^1000 (d = {fam.degree}): pulled-back potentials overflow")


def _pullback_stack(supplier, x: np.ndarray, y: np.ndarray, us, depths, idx=None):
    """d^(-n) u(H_n(z)) at the points (x, y) for each potential u in `us`
    and each requested depth, on one incremental orbit.

    Returns {n: [values for each u]}; `idx` names the points to the supplier.
    """
    d = float(supplier.fam.degree)
    return {
        n: [d ** (-n) * u.eval_orbit(orbit) for u in us]
        for n, orbit in iterate(supplier, x, y, depths, idx=idx)
    }


def _grid_stack(fam, seq, grid: SliceGrid, us, depths):
    """_pullback_stack over a slice grid along one sequence, as rasters."""
    x, y = grid.points()
    stack = _pullback_stack(SeqSupplier(fam, seq, max(depths)), x.ravel(), y.ravel(), us, depths)
    return {n: [v.reshape(grid.ny, grid.nx) for v in vals] for n, vals in stack.items()}


def pullback_convergence(
    fam: HenonFamily,
    seq,
    u: PotentialSpec,
    grid: SliceGrid,
    n_max: int = 12,
    tol: float = 1e-6,
    flt: FiltrationRadius | None = None,
    threads: int = 1,
) -> ConvergenceReport:
    """Sup-norm gap between pulled-back potentials and the Green limit.

    e_n = sup over certified cells of |d^(-n) u(H_(n,Lambda)(z)) - G_Lambda^+(z)|
    for n = 1 .. n_max, n_max >= 1 and d^n_max <= 2^1000 (_check_growth).
    Without `flt` the constants come from `seq.space`.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be at least 1, got {n_max}")
    _check_growth(fam, n_max)
    flt = resolve_radius(fam, flt, getattr(seq, "space", None))
    ref = green_field_seq(fam, seq, grid, tol, max(200, n_max + flt.depth_for(tol)), flt, threads=threads)
    mask = ref.status != STATUS_UNDECIDED
    masked_fraction = 1.0 - float(mask.mean())
    stack = _grid_stack(fam, seq, grid, (u,), range(1, n_max + 1))
    errors = [float(np.abs(stack[n][0] - ref.values)[mask].max()) for n in range(1, n_max + 1)]
    return ConvergenceReport(list(range(1, n_max + 1)), errors, fam.degree, masked_fraction)


def theta_average_pullback(
    fam: HenonFamily,
    space,
    u: PotentialSpec,
    grid: SliceGrid,
    n_max: int = 12,
    n_mc: int = 64,
    seed: int = 0,
    tol: float = 1e-6,
    flt: FiltrationRadius | None = None,
    threads: int = 1,
):
    """Averaged pullback against the averaged Green potential, n_max >= 1
    with d^n_max <= 2^1000 (_check_growth), n_mc >= 2.

    Returns (report, noise_floor): e_n should fall to the Monte-Carlo
    floor estimated from both averaging errors. The pullbacks along the
    n_mc sequences are stepped a chunk of sequences at a time and reduced
    per depth by MCMoments, one sequence at a time in sequence order.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be at least 1, got {n_max}")
    _check_growth(fam, n_max)
    flt = resolve_radius(fam, flt, space)
    ref, ref_stderr = avg_green_field(fam, space, grid, tol, n_mc, seed + 1, flt=flt, threads=threads)
    mask = ref.status != STATUS_UNDECIDED
    masked_fraction = 1.0 - float(mask.mean())

    x, y = grid.points()
    n_pts = x.size
    sup = mc_supplier(fam, space, seed, n_mc, n_max, n_pts)
    moments = {n: MCMoments() for n in range(1, n_max + 1)}
    for ids, rows in mc_chunks(n_mc, n_pts):
        stack = _pullback_stack(sup, np.tile(x.ravel(), rows), np.tile(y.ravel(), rows), (u,),
                                range(1, n_max + 1), ids)
        for n, (vals,) in stack.items():
            for v in vals.reshape(rows, grid.ny, grid.nx):
                moments[n].add(v)
    errors = []
    floors = []
    for m in moments.values():
        errors.append(float(np.abs(m.mean() - ref.values)[mask].max()))
        floors.append(float((m.stderr() + ref_stderr)[mask].max()))
    report = ConvergenceReport(list(range(1, n_max + 1)), errors, fam.degree, masked_fraction)
    return report, floors


def rigidity_probe(
    fam: HenonFamily,
    seq,
    u1: PotentialSpec,
    u2: PotentialSpec,
    grid: SliceGrid,
    n_max: int = 12,
    flt: FiltrationRadius | None = None,
) -> float:
    """Sup distance of two admissible potentials after n_max pullbacks, d^n_max <= 2^1000 (_check_growth).

    Both converge to the same Green potential; the gap certifies the
    uniqueness (rigidity) statement numerically. Without `flt` the
    constants come from `seq.space`. The sup runs over the pixels that a
    decision pass (tol = inf, as in classify) decides, as a raster at any
    tol does: wedge points stay in the wedge, trapped ones in D_r ⊂ V_R.
    """
    _check_growth(fam, n_max)
    flt = resolve_radius(fam, flt, getattr(seq, "space", None))
    mask = green_field_seq(fam, seq, grid, math.inf, 200, flt).status != STATUS_UNDECIDED
    s1, s2 = _grid_stack(fam, seq, grid, (u1, u2), [n_max])[n_max]
    return float(np.abs(s1 - s2)[mask].max())


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth radial bump; support radius must avoid the escape wedge."""

    radius: float | None = None  # None means psi == 1 (no cutoff)

    def __post_init__(self):
        if self.radius is not None and not (math.isfinite(self.radius) and self.radius > 0):
            raise ValidationError(f"cutoff radius must be None or finite and > 0, got {self.radius}")

    def eval_orbit(self, orbit: Orbit) -> np.ndarray:
        if self.radius is None:
            return np.ones(len(orbit))
        # log-form points are far outside any bump
        return orbit.radial(self._bump, lambda L: 0.0)

    def _bump(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Bump at (x, y) or at the moduli (|x|, |y|), in either order."""
        n2 = (np.abs(x) ** 2 + np.abs(y) ** 2) / self.radius ** 2
        inside = n2 < 1.0
        vals = np.zeros(n2.shape)
        with np.errstate(over="ignore"):
            vals[inside] = np.exp(1.0 - 1.0 / (1.0 - n2[inside]))
        return vals


@dataclass
class CutoffProbeReport:
    depths: list[int]
    c_fit: list[float]
    residuals: list[float]


def _smooth(arr: np.ndarray) -> np.ndarray:
    """Four rounds of a separable binomial blur: weak-* testing against smooth forms."""
    out = arr.astype(float)
    for _ in range(4):
        pad = np.pad(out, 1, mode="edge")
        out = 0.25 * (2 * pad[1:-1, :] + pad[:-2, :] + pad[2:, :])
        pad = np.pad(out, 1, mode="edge")
        out = 0.25 * (2 * pad[:, 1:-1] + pad[:, :-2] + pad[:, 2:])
    return out


def cutoff_limit_probe(
    fam: HenonFamily,
    base: BaseSystem,
    lam: complex,
    u: PotentialSpec,
    cutoff: CutoffSpec,
    grid: SliceGrid,
    n_max: int = 10,
    tol: float = 1e-6,
    flt: FiltrationRadius | None = None,
) -> CutoffProbeReport:
    """Limit of normalized cutoff pullbacks as a multiple of the Green current, d^n_max <= 2^1000.

    Realized at slice-density level: the pullback of the cutoff current
    restricted to the slice has density psi(H^n z) * Lap[d^-n u(H^n z)]
    (the weight rides along the orbit; holomorphic pullback commutes with
    dd^c). That density is positive up to discretization and is fitted as
    c * Lap(G^+); a decreasing residual with c > 0 realizes "every limit
    point is a positive multiple of the forward Green current" in the
    uniqueness regime (identity or contraction bases only).
    """
    if base.sigma.kind not in (IDENTITY, CONTRACTION):
        raise UnsupportedBase("unique-limit regime requires identity or contraction base")
    _check_growth(fam, n_max)
    flt = resolve_radius(fam, flt, base.space)
    if cutoff.radius is not None and cutoff.radius > flt.R:
        raise ValidationError("cutoff support must stay clear of the escape wedge V_R^+")
    ref = green_field(fam, base, lam, grid, tol, 200, flt)
    ref_den = _smooth(laplacian_density(ref.values, grid.dx, grid.dy)).ravel()
    denom = float(ref_den @ ref_den)
    if denom == 0:
        raise ValidationError("reference Green density vanishes on this window")

    x, y = grid.points()
    d = float(fam.degree)
    depths, cs, res = [], [], []
    for n, orbit in iterate(SigmaSupplier(fam, base.sigma, lam), x.ravel(), y.ravel(), range(1, n_max + 1)):
        fldn = (d ** (-n) * u.eval_orbit(orbit)).reshape(grid.ny, grid.nx)
        weight = cutoff.eval_orbit(orbit).reshape(grid.ny, grid.nx)[1:-1, 1:-1]
        den = _smooth(weight * laplacian_density(fldn, grid.dx, grid.dy)).ravel()
        c = float(den @ ref_den / denom)
        scale = float(np.linalg.norm(den))
        r = float(np.linalg.norm(den - c * ref_den) / scale) if scale > 0 else 1.0
        depths.append(n)
        cs.append(c)
        res.append(r)
    return CutoffProbeReport(depths, cs, res)

