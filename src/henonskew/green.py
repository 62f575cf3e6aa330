"""Fibered, random and averaged Green functions with certified tails.

The forward Green function along base orbit (lam_k) is
G_n(z) = d^(-n) log+ ||H_(lam_(n-1)) o ... o H_(lam_0)(z)|| and satisfies
|G_(n+1) - G_n| <= K d^(-n) once the orbit sits in V_R u V_R^+, so a depth
with K d/(d-1) d^(-n) < tol certifies the value. Orbits are iterated by
the engine in orbit.py, which switches them to a log-scale representation
before doubles overflow; inside the invariant wedge the switch is exact to
machine precision.

Variants differ only in the map direction and in how base points are
drawn per step:

  green_plus        forward factors,  lam_k = sigma^k(lam)
  green_minus       inverse factors,  lam_k = sigma^k(lam)
  green_minus_cal   inverse factors,  lam_k = sigma^(-(k+1))(lam)
  green_minus_tilde inverse factors applied in reversed order (the
                    inverse of the forward n-composition); convergence
                    is only guaranteed for contraction-type bases
  green_random      forward/inverse factors, lam_k from a sequence
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import SHIFT, BaseSystem, ParamSequence, advance
from .errors import SurjectivityRequired, UnsupportedBase
from .family import HenonFamily, factor_step
from .filtration import FiltrationRadius, resolve_radius
from .grids import SliceGrid
from .orbit import Orbit, SeqSupplier, SigmaSupplier, iterate, step_map

STATUS_UNDECIDED = 0
STATUS_ESCAPED = 1
STATUS_BOUNDED = 2
STATUS_CONVERGED = 3

STATUS_NAMES = {
    STATUS_UNDECIDED: "undecided",
    STATUS_ESCAPED: "escaped-certified",
    STATUS_BOUNDED: "bounded-certified",
    STATUS_CONVERGED: "converged",
}


@dataclass(frozen=True)
class GreenEval:
    """Green value with truncation depth and certified error bound."""

    value: float
    depth: int
    err_bound: float
    status: str


# ---------------------------------------------------------------------------
# certifying engine


def _run_green(
    supplier,
    fam: HenonFamily,
    x: np.ndarray,
    y: np.ndarray,
    flt: FiltrationRadius,
    tol: float,
    n_max: int,
    inverse: bool,
):
    """Certified Green values for a batch of points sharing a lam-supply.

    Returns (value, status, depth) arrays aligned with the input points.
    A point whose orbit state is not finite stays undecided.
    """
    n_pts = len(x)
    value = np.zeros(n_pts, dtype=float)
    status = np.full(n_pts, STATUS_UNDECIDED, dtype=np.uint8)
    depth = np.full(n_pts, n_max, dtype=np.int32)

    orbit = Orbit(fam, x, y, inverse)
    alive = np.arange(n_pts)
    d = float(fam.degree)
    for n in range(1, n_max + 1):
        lam = supplier(n - 1, alive)
        step_map(orbit, fam, lam, inverse)
        if flt.tail_bound(n, inverse) < tol:
            wedge = orbit.in_wedge(flt.R, inverse)
            if wedge.any():
                g = d ** (-n) * orbit.log_plus_norm()[wedge]
                value[alive[wedge]] = g
                status[alive[wedge]] = np.where(np.isfinite(g), STATUS_ESCAPED, STATUS_UNDECIDED)
                depth[alive[wedge]] = n
                keep = ~wedge
                alive = alive[keep]
                orbit = orbit.take(keep)
                if len(alive) == 0:
                    break

    if len(alive):
        wedge = orbit.in_wedge(flt.R, inverse)
        g = d ** (-n_max) * orbit.log_plus_norm()
        bounded = ~wedge & np.isfinite(g)
        value[alive] = np.where(bounded, 0.0, g)
        status[alive[bounded]] = STATUS_BOUNDED
    return value, status, depth


def _green_at(supplier, fam: HenonFamily, z, flt: FiltrationRadius, tol: float, n_max: int, inverse: bool) -> GreenEval:
    """Certified Green value at the single point z."""
    v, s, n = _run_green(supplier, fam, np.array([z[0]]), np.array([z[1]]), flt, tol, n_max, inverse)
    err = tol if s[0] == STATUS_BOUNDED else flt.tail_bound(n[0], inverse)
    return GreenEval(float(v[0]), int(n[0]), float(err), STATUS_NAMES[s[0]])


# ---------------------------------------------------------------------------
# public point evaluations


def green_plus(
    fam: HenonFamily,
    base: BaseSystem,
    lam: complex,
    z: tuple[complex, complex],
    tol: float = 1e-6,
    n_max: int = 200,
    flt: FiltrationRadius | None = None,
) -> GreenEval:
    """Forward Green function G_lam^+ at a point, certified within tol."""
    flt = resolve_radius(fam, flt, base.space)
    return _green_at(SigmaSupplier(base.sigma, lam), fam, z, flt, tol, n_max, inverse=False)


def green_minus(
    fam: HenonFamily,
    base: BaseSystem,
    lam: complex,
    z: tuple[complex, complex],
    tol: float = 1e-6,
    n_max: int = 200,
    flt: FiltrationRadius | None = None,
) -> GreenEval:
    """Backward Green function along sigma-forward base indices."""
    flt = resolve_radius(fam, flt, base.space)
    return _green_at(SigmaSupplier(base.sigma, lam), fam, z, flt, tol, n_max, inverse=True)


def green_minus_cal(
    fam: HenonFamily,
    base: BaseSystem,
    lam: complex,
    z: tuple[complex, complex],
    tol: float = 1e-6,
    n_max: int = 200,
    flt: FiltrationRadius | None = None,
) -> GreenEval:
    """Backward Green function with backward base indices (invertible sigma).

    Satisfies value(H_lam(z)) = (1/d) value(z) up to certified errors.
    """
    flt = resolve_radius(fam, flt, base.space)
    return _green_at(SigmaSupplier(base.sigma, lam, back=True), fam, z, flt, tol, n_max, inverse=True)


def green_minus_tilde(
    fam: HenonFamily,
    base: BaseSystem,
    lam: complex,
    z: tuple[complex, complex],
    tol: float = 1e-6,
    n_max: int = 120,
    flt: FiltrationRadius | None = None,
) -> GreenEval:
    """Normalized log+ norm of the inverse of the forward n-composition.

    Experimental outside contraction-type bases: the limit is only known
    to exist when sigma contracts to a point. Values at successive depths
    are recomputed from scratch because the composition order reverses
    with n; the reported bound is the last Cauchy increment, not a
    certified tail.
    """
    flt = resolve_radius(fam, flt, base.space)
    if base.sigma.kind == SHIFT:
        raise UnsupportedBase("tilde variant needs a pointwise base dynamics")
    d = float(fam.degree)
    prev = None
    last = 0.0
    for n in range(1, n_max + 1):
        def reversed_sup(k, idx, n=n):
            # H_(sigma^(n-1) lam)^-1 is applied first, H_lam^-1 last
            return advance(base.sigma, lam, n - 1 - k)

        (_, orbit), = iterate(fam, reversed_sup, np.array([z[0]]), np.array([z[1]]), [n], inverse=True)
        cur = d ** (-n) * float(orbit.log_plus_norm()[0])
        if prev is not None and abs(cur - prev) < tol * (d - 1) / d and n >= 4:
            return GreenEval(cur, n, tol, STATUS_NAMES[STATUS_CONVERGED])
        last = abs(cur - prev) if prev is not None else cur
        prev = cur
    return GreenEval(prev if prev is not None else 0.0, n_max, last, STATUS_NAMES[STATUS_UNDECIDED])


def green_random(
    fam: HenonFamily,
    seq,
    z: tuple[complex, complex],
    tol: float = 1e-6,
    n_max: int = 200,
    flt: FiltrationRadius | None = None,
    space=None,
    inverse: bool = False,
) -> GreenEval:
    """Green function along an explicit parameter sequence.

    `seq` is a ParamSequence, FrozenSequence or plain array of base
    points; `space` is only needed when `flt` is not supplied and `seq`
    carries no space of its own.
    """
    flt = resolve_radius(fam, flt, space, seq)
    return _green_at(SeqSupplier(seq), fam, z, flt, tol, n_max, inverse)


def avg_green(
    fam: HenonFamily,
    space,
    z: tuple[complex, complex],
    tol: float = 1e-6,
    n_mc: int = 256,
    seed: int = 0,
    n_max: int = 200,
    flt: FiltrationRadius | None = None,
) -> tuple[float, float]:
    """Monte-Carlo average Green function EG^+ with its standard error."""
    if n_mc < 2:
        raise UnsupportedBase("avg_green needs n_mc >= 2")
    flt = resolve_radius(fam, flt, space)
    root = ParamSequence(space, seed)
    vals = np.empty(n_mc, dtype=float)
    for i in range(n_mc):
        vals[i] = green_random(fam, root.spawn(i), z, tol, n_max, flt).value
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_mc))


def pluri_green(
    fam: HenonFamily,
    base: BaseSystem,
    lam: complex,
    z: tuple[complex, complex],
    tol: float = 1e-6,
    n_max: int = 200,
    flt: FiltrationRadius | None = None,
) -> float:
    """Pluricomplex Green function of K_lam: max of the two components."""
    flt = resolve_radius(fam, flt, base.space)
    gp = green_plus(fam, base, lam, z, tol, n_max, flt)
    minus = green_minus_cal if base.sigma.invertible else green_minus
    gm = minus(fam, base, lam, z, tol, n_max, flt)
    return max(gp.value, gm.value)


@dataclass(frozen=True)
class OrbitClass:
    kind: str  # escaped-forward | escaped-backward | bounded | undecided
    depth: int


def classify(
    fam: HenonFamily,
    base: BaseSystem,
    lam: complex,
    z: tuple[complex, complex],
    n_max: int = 200,
    flt: FiltrationRadius | None = None,
) -> OrbitClass:
    """Certified orbit classification via the filtration."""
    flt = resolve_radius(fam, flt, base.space)
    sup = SigmaSupplier(base.sigma, lam)
    _, s_f, n_f = _run_green(sup, fam, np.array([z[0]]), np.array([z[1]]), flt, np.inf, n_max, inverse=False)
    if s_f[0] == STATUS_ESCAPED:
        return OrbitClass("escaped-forward", int(n_f[0]))
    _, s_b, n_b = _run_green(sup, fam, np.array([z[0]]), np.array([z[1]]), flt, np.inf, n_max, inverse=True)
    if s_b[0] == STATUS_ESCAPED:
        return OrbitClass("escaped-backward", int(n_b[0]))
    if s_f[0] == STATUS_BOUNDED and s_b[0] == STATUS_BOUNDED:
        return OrbitClass("bounded", n_max)
    return OrbitClass("undecided", n_max)


# ---------------------------------------------------------------------------
# vectorized evaluation (fields, batches, depth traces)


def green_values(
    fam: HenonFamily,
    base: BaseSystem,
    lam,
    x: np.ndarray,
    y: np.ndarray,
    tol: float = 1e-6,
    n_max: int = 200,
    flt: FiltrationRadius | None = None,
    inverse: bool = False,
    backward_base: bool = False,
):
    """Vectorized Green values; lam may be per-point. Returns (value, status, depth)."""
    flt = resolve_radius(fam, flt, base.space)
    sup = SigmaSupplier(base.sigma, lam, back=backward_base)
    return _run_green(sup, fam, np.asarray(x, dtype=complex).ravel(), np.asarray(y, dtype=complex).ravel(), flt, tol, n_max, inverse)


@dataclass
class GreenField:
    """Green values rasterized on a slice; shares one depth/tol policy."""

    grid: SliceGrid
    status: np.ndarray
    depth: np.ndarray
    tol: float
    n_max: int
    variant: str

    @property
    def values(self) -> np.ndarray:
        return self.grid.data

    @property
    def undecided(self) -> int:
        return int(np.count_nonzero(self.status == STATUS_UNDECIDED))


def _field_from_flat(grid, v, s, n, tol, n_max, variant):
    shape = (grid.ny, grid.nx)
    return GreenField(
        grid=grid.with_data(v.reshape(shape)),
        status=s.reshape(shape),
        depth=n.reshape(shape),
        tol=tol,
        n_max=n_max,
        variant=variant,
    )


def _run_field(run_chunk, grid: SliceGrid, threads: int = 1):
    x, y = grid.points()
    xf, yf = x.ravel(), y.ravel()
    if threads <= 1:
        return run_chunk(xf, yf)
    from concurrent.futures import ThreadPoolExecutor

    bounds = np.linspace(0, len(xf), threads + 1, dtype=int)
    parts_v = np.empty(len(xf))
    parts_s = np.empty(len(xf), dtype=np.uint8)
    parts_n = np.empty(len(xf), dtype=np.int32)

    def work(i):
        lo, hi = bounds[i], bounds[i + 1]
        v, s, n = run_chunk(xf[lo:hi], yf[lo:hi])
        parts_v[lo:hi] = v
        parts_s[lo:hi] = s
        parts_n[lo:hi] = n

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(threads)))
    return parts_v, parts_s, parts_n


def green_field(
    fam: HenonFamily,
    base: BaseSystem,
    lam: complex,
    grid: SliceGrid,
    tol: float = 1e-6,
    n_max: int = 200,
    flt: FiltrationRadius | None = None,
    inverse: bool = False,
    threads: int = 1,
) -> GreenField:
    """Rasterize a fibered Green function over a slice grid."""
    flt = resolve_radius(fam, flt, base.space)

    def chunk(xs, ys):
        sup = SigmaSupplier(base.sigma, lam)
        return _run_green(sup, fam, xs, ys, flt, tol, n_max, inverse)

    v, s, n = _run_field(chunk, grid, threads)
    return _field_from_flat(grid, v, s, n, tol, n_max, "minus" if inverse else "plus")


def green_field_seq(
    fam: HenonFamily,
    seq,
    grid: SliceGrid,
    tol: float = 1e-6,
    n_max: int = 200,
    flt: FiltrationRadius | None = None,
    space=None,
    threads: int = 1,
) -> GreenField:
    """Rasterize the random Green function along one sequence."""
    flt = resolve_radius(fam, flt, space, seq)
    if hasattr(seq, "prefix"):
        seq.prefix(n_max)  # prefetch so threaded chunks only read

    def chunk(xs, ys):
        return _run_green(SeqSupplier(seq), fam, xs, ys, flt, tol, n_max, inverse=False)

    v, s, n = _run_field(chunk, grid, threads)
    return _field_from_flat(grid, v, s, n, tol, n_max, "random")


def avg_green_field(
    fam: HenonFamily,
    space,
    grid: SliceGrid,
    tol: float = 1e-6,
    n_mc: int = 64,
    seed: int = 0,
    n_max: int = 200,
    flt: FiltrationRadius | None = None,
    threads: int = 1,
):
    """Monte-Carlo EG^+ raster.

    Returns (mean field, per-pixel standard error, per-sequence fields'
    value stack is not retained).
    """
    flt = resolve_radius(fam, flt, space)
    root = ParamSequence(space, seed)
    acc = np.zeros((grid.ny, grid.nx))
    acc2 = np.zeros_like(acc)
    any_undecided = np.zeros((grid.ny, grid.nx), dtype=bool)
    depth = np.zeros((grid.ny, grid.nx), dtype=np.int32)
    for i in range(n_mc):
        f = green_field_seq(fam, root.spawn(i), grid, tol, n_max, flt, threads=threads)
        acc += f.values
        acc2 += f.values ** 2
        any_undecided |= f.status == STATUS_UNDECIDED
        depth = np.maximum(depth, f.depth)
    mean = acc / n_mc
    var = np.maximum(acc2 / n_mc - mean ** 2, 0.0)
    stderr = np.sqrt(var / max(n_mc - 1, 1))
    status = np.where(any_undecided, STATUS_UNDECIDED, STATUS_CONVERGED).astype(np.uint8)
    field = GreenField(grid.with_data(mean), status, depth, tol, n_max, "avg")
    return field, stderr


def depth_values(
    fam: HenonFamily,
    supplier_kind: str,
    source,
    lam,
    z: tuple[complex, complex],
    depths,
    inverse: bool = False,
) -> np.ndarray:
    """G_n(z) for each n in `depths` (raw finite-depth values, no freeze).

    supplier_kind: 'sigma' (source = BaseDynamics) or 'seq' (source =
    sequence / array).
    """
    sup = SigmaSupplier(source, lam) if supplier_kind == "sigma" else SeqSupplier(source)
    d = float(fam.degree)
    steps = iterate(fam, sup, np.array([z[0]]), np.array([z[1]]), depths, inverse)
    return np.array([d ** (-n) * float(orbit.log_plus_norm()[0]) for n, orbit in steps])


def finite_depth_green(fam: HenonFamily, words: np.ndarray, x: np.ndarray, y: np.ndarray, depth: int) -> np.ndarray:
    """Raw depth-n Green values along explicit words, vectorized.

    words has shape (n_words, depth); returns (n_words, n_points). The
    exhaustive-word average of these values is the oracle for the
    Monte-Carlo averaged Green function at the same depth.
    """
    n_words, n_pts = len(words), len(x)
    X = np.broadcast_to(np.asarray(x, dtype=complex), (n_words, n_pts)).ravel()
    Y = np.broadcast_to(np.asarray(y, dtype=complex), (n_words, n_pts)).ravel()

    def word_sup(k, idx):
        return np.repeat(words[:, k], n_pts)

    (_, orbit), = iterate(fam, word_sup, X, Y, [depth])
    vals = orbit.log_plus_norm() / float(fam.degree) ** depth
    return vals.reshape(n_words, n_pts)


def holder_estimate(
    fam: HenonFamily,
    base: BaseSystem,
    lam: complex,
    region: tuple[complex, complex, float],
    n_pairs: int = 512,
    seed: int = 0,
    tol: float = 1e-6,
    flt: FiltrationRadius | None = None,
):
    """Empirical Holder data for G^+ on a ball of the given radius.

    region = (center_x, center_y, radius). Returns (beta_theory, C_emp,
    L_emp); reported, not asserted, since the true constants depend on
    the compact set and the family.
    """
    if not base.sigma.surjective:
        raise SurjectivityRequired("Holder continuity clause needs surjective sigma")
    flt = resolve_radius(fam, flt, base.space)
    rng = np.random.Generator(np.random.PCG64(seed))
    cx, cy, rad = region

    n_samp = max(2 * n_pairs, 256)
    px = cx + rad * (rng.uniform(-1, 1, n_samp) + 1j * rng.uniform(-1, 1, n_samp))
    py = cy + rad * (rng.uniform(-1, 1, n_samp) + 1j * rng.uniform(-1, 1, n_samp))

    # operator norm of DH_lam over region samples and a base grid
    L_emp = 0.0
    for lam_g in np.atleast_1d(base.space.grid(8)):
        jac = np.zeros((n_samp, 2, 2), dtype=complex)
        jac[:, 0, 0] = 1.0
        jac[:, 1, 1] = 1.0
        x_cur, y_cur = px.copy(), py.copy()
        for f in fam.factors:
            c = f.poly_coeffs(lam_g)
            a = f.a(lam_g)
            dp = np.zeros_like(y_cur)
            deg = f.degree
            for k, coef in enumerate(c[:-1]):
                dp = dp * y_cur + (deg - k) * coef
            step = np.zeros((n_samp, 2, 2), dtype=complex)
            step[:, 0, 1] = 1.0
            step[:, 1, 0] = -a
            step[:, 1, 1] = dp
            jac = step @ jac
            x_cur, y_cur = factor_step(c, a, x_cur, y_cur)
        fro2 = np.sum(np.abs(jac) ** 2, axis=(1, 2))
        det2 = np.abs(jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]) ** 2
        smax2 = 0.5 * (fro2 + np.sqrt(np.maximum(fro2 ** 2 - 4 * det2, 0.0)))
        L_emp = max(L_emp, float(np.sqrt(smax2.max())))

    beta = 1.0 if L_emp <= 1.0 else min(1.0, math.log(fam.degree) / math.log(L_emp))

    g = np.empty(2 * n_pairs)
    vals, _, _ = green_values(fam, base, lam, np.concatenate((px[:n_pairs], px[n_pairs:2 * n_pairs])),
                              np.concatenate((py[:n_pairs], py[n_pairs:2 * n_pairs])), tol, 200, flt)
    g[:] = vals
    dz = np.hypot(np.abs(px[:n_pairs] - px[n_pairs:2 * n_pairs]), np.abs(py[:n_pairs] - py[n_pairs:2 * n_pairs]))
    ok = dz > 1e-14
    ratios = np.abs(g[:n_pairs] - g[n_pairs:2 * n_pairs])[ok] / dz[ok] ** (beta / 2.0)
    C_emp = float(ratios.max()) if ratios.size else 0.0
    return beta, C_emp, L_emp
