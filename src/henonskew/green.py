"""Fibered, random and averaged Green functions with certified tails.

The forward Green function along base orbit (lam_k) is
G_n(z) = d^(-n) log+ ||H_(lam_(n-1)) o ... o H_(lam_0)(z)|| and satisfies
|G_(n+1) - G_n| <= K d^(-n) once the orbit sits in V_R u V_R^+. Each
direction's constants form one record, FiltrationRadius.toward(inverse),
and the rules below read only the record. A point whose orbit is in the
wedge at depth n is certified by the first of two rules that holds:

  uniform   K d/(d-1) d^(-n) < tol, i.e. n >= depth_for(tol), the same
            depth for every point;
  own tail  (forward only) err_n <= min(tol, eps * G_n), eps the double
            epsilon, with
              err_n = d^(-n) (e(rho_n)/(d-1) + 1/2 log1p(|x_n/y_n|^2)),
            rho_n = |y_n| and e(rho) the filtration's per-step distortion
            bound (FiltrationRadius.wedge_distortion) at the point's own
            radius instead of at R. The first term bounds the tail of
            d^(-k) log|y_k| beyond n, the second the gap between log|y_n|
            and log||z_n||. Both fall like 1/|y_n|, so an escaping point
            stops a few steps after it enters V_R^+, once further steps can
            no longer change the double.

Before the uniform rule applies, only the own-tail rule is tried, and only
on points with |y_n| > rho_star (FiltrationRadius.rho_star), explicit and
log-form points alike. Below that radius err_n <= eps * G_n cannot hold:
err_n >= d^(-n) C/rho_n and G_n <= d^(-n) log(sqrt(2) rho_n) on V_R^+ (for
both forms, since |x_n| <= |y_n| there), and rho_star solves
C/rho = 2 eps log(sqrt(2) rho), so the gate skips only points the rule
would reject, with a factor 2 to spare for rounding.

The reported err_bound is err_n or the uniform tail, whichever certified
the point. It bounds the truncation only; the value carries a few ulp of
rounding besides. Inverse orbits keep the uniform rule alone (rho_star =
inf): backward, log|x_(k+1)| - d log|x_k| tends to -log|a| rather than 0,
so a point's own increments do not vanish. A point left at n_max is
bounded-certified only if z_(n_max) lies in the bidisc V_R; its value is 0
with err_bound max(tol, d^(-n_max) M), M = log(sqrt(2) R) + K d/(d-1)
(bidisc_cap), which bounds G there when n_max is below the certifying
depth. A finite point left in the opposite wedge is undecided.

Forward orbits are bounded earlier where the family is dissipative enough:
every factor maps the bidisc D_r, r = FiltrationRadius.trap_radius <= 1 < R,
into itself, so an orbit that enters D_r stays in V_R through n_max. At
every step where the wedge rules certify some point, which compacts the
orbit anyway, and at every step from the uniform rule's depth on, an
explicit point in D_r is dropped from the orbit and recorded as the run to
n_max would record it: value 0, bounded-certified, depth n_max and the
same err_bound. Other steps skip the test, a pass over the orbit. Inverse
orbits have no such disc. GreenField.depth is each pixel's certification
depth (n_max for bounded and undecided pixels). Orbits are iterated by the
engine in orbit.py, which switches them to a log-scale representation
before doubles overflow; inside the invariant wedge the switch is exact to
machine precision. A point that a step takes past the switch bound is
certified from the L and r that the switch would store
(Orbit.log_entries) before it switches, and only the points that stay in
the orbit switch.

Every value above comes from one driver, _drive, which alone steps
orbits: it runs the certifying loop _certify, which hands each point to a
record callback as it leaves the orbit (certified in the wedge, trapped,
or left at n_max), over `rows` copies of the points, row i along base
sequence i. Each thread walks its range of the points in pieces of PIECE
points and starts a piece's rows in chunks of MC_CHUNK points (or one
row), so no orbit starts larger than a piece. An orbit that shrinks below
half of the pool size (MC_CHUNK, or PIECE in a range of several pieces)
waits at its depth until the orbits waiting there fill a pool and step on
together, so the remnants of many chunks take one step call per depth,
not one each. Point evaluations and rasters (_run_green) are its rows = 1
case and the Monte-Carlo values (mc_green) its rows = n_mc case; they
differ only in their callbacks. The averages then reduce mc_green's
per-sequence values through one accumulator, MCMoments: means are sums in
sequence order, and standard errors come from the shifted-data variance,
so a point average and the raster's pixel at that point agree bit for bit.

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
import os
from dataclasses import dataclass

import numpy as np

from .base import SHIFT, BaseDynamics, BaseSystem, ParamSequence, advance
from .errors import SurjectivityRequired, UnsupportedBase, ValidationError
from .family import HenonFamily, factor_step, map_coeffs
from .filtration import FiltrationRadius, resolve_radius
from .grids import SliceGrid
from .orbit import Orbit, SeqSupplier, SigmaSupplier, TableSupplier, iterate, log_norm_of

STATUS_UNDECIDED = 0
STATUS_ESCAPED = 1
STATUS_BOUNDED = 2
STATUS_CONVERGED = 3

# the own-tail rule stops a forward point once its tail is below one unit of
# relative rounding of its value (see the module docstring)
EPS = np.finfo(float).eps

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


def _certify(supplier, orbit: Orbit, flt: FiltrationRadius, tol: float, n_lo: int, n_max: int, record,
             floor: int = 1) -> int:
    """Step the orbit from depth n_lo toward n_max, certifying as it goes;
    returns the depth reached.

    flt is the record of the orbit's direction (FiltrationRadius.toward).
    Every point leaves the orbit through record(ids, n, values,
    err_bounds, status), with ids from orbit.ids and the other arguments
    scalars or arrays aligned with ids. A point leaves when the wedge
    rules certify it (undecided if its value is not finite), when it is
    trapped in D_r (recorded as at n_max), and at n_max: bounded in the
    bidisc V_R, else undecided. The trap is tested at the steps that
    compact the orbit anyway, those where the wedge rules certify some
    point, and at every step from the uniform rule's depth on; D_r is
    invariant, so a point trapped at any depth gets the record of the run
    to n_max. The points a step takes past the switch bound are certified
    before they move to log form, and only those that stay move (see
    orbit.py). The run stops early, before n_max, once points leaving the
    orbit leave fewer than `floor` in it (by default: none); otherwise it
    records each point once and empties the orbit.
    """
    d = float(supplier.fam.degree)
    # value 0 at a point whose orbit is in V_R at n_max: there G <= d^-n_max M,
    # M = FiltrationRadius.bidisc_cap
    bounded_err = max(tol, d ** (-n_max) * flt.bidisc_cap())
    n_tail = flt.depth_for(tol)  # the uniform rule's first depth; tail_bound falls with n
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(n_lo + 1, n_max + 1):
            new = orbit.step(supplier, n - 1)
            found = _wedge_certificates(orbit, new, flt, d, n, n >= n_tail, tol)
            held = None
            if flt.trap_radius and (found is not None or n >= n_tail):
                held = orbit.in_bidisc(flt.trap_radius)
                if not held.any():
                    held = None
            if found is None and held is None:
                orbit.to_log(new)
                continue
            keep = np.ones(len(orbit), dtype=bool) if held is None else ~held
            if found is not None:
                pos, g, e = found
                record(orbit.ids[pos], n, g, e, np.where(np.isfinite(g), STATUS_ESCAPED, STATUS_UNDECIDED))
                keep[pos] = False
                del pos, g, e
            if held is not None:
                record(orbit.ids[held], n_max, 0.0, bounded_err, STATUS_BOUNDED)
            orbit.to_log(new[keep[new]])
            orbit.keep(keep)
            # free the per-step arrays before the next step, where memory peaks
            del found, held, keep
            if len(orbit) < floor and n < n_max:
                return n
        g = d ** (-n_max) * orbit.log_plus_norm()
        bounded = orbit.in_bidisc(flt.R)
        record(orbit.ids[bounded], n_max, 0.0, bounded_err, STATUS_BOUNDED)
        rest = ~bounded
        record(orbit.ids[rest], n_max, g[rest], flt.tail_bound(n_max), STATUS_UNDECIDED)
        orbit.keep(np.zeros(len(orbit), dtype=bool))
        return n_max


def _wedge_certificates(orbit: Orbit, new: np.ndarray, flt: FiltrationRadius, d: float, n: int, uniform: bool,
                        tol: float):
    """(positions, values, error bounds) of the points certified at depth n, or None.

    Once the uniform tail K d/(d-1) d^-n is below tol (`uniform`) every
    wedge point is certified. Before that a point with |y_n| > rho_star is
    certified when its own tail
    err_n = d^-n (e(rho_n)/(d-1) + 1/2 log1p(|x_n/y_n|^2)) is at most
    min(tol, eps * value); with rho_star = inf no point is. The explicit
    points at positions `new`, which the step took past the switch bound,
    are read as log-form points, from the L and r that Orbit.to_log would
    store (Orbit.log_entries). Points come explicit first, then log-form
    ones in the order of `lpos`, then those of `new`: the order of the
    log-form points after to_log.
    """
    # under the own-tail rule alone, points below rho_star cannot pass
    rho = flt.R if uniform else max(flt.R, flt.rho_star)
    if rho == math.inf:
        return None
    log_rho = math.log(rho)
    # the closed explicit wedge dom >= sub, dom > rho (NaN entries fail),
    # without the points of `new`, which are read in log form below
    inside = orbit.dom > rho
    inside &= orbit.dom >= orbit.sub
    inside[new] = False
    ex = np.flatnonzero(inside)
    del inside
    dom, sub = orbit.dom[ex], orbit.sub[ex]
    # a log-form point with a NaN L passes, to be recorded undecided
    lg = np.flatnonzero(~(orbit.L <= log_rho))
    lpos, L, r = orbit.lpos[lg], orbit.L[lg], orbit.r[lg]
    if len(new):
        L_new, r_new = orbit.log_entries(new)[:2]
        nw = np.flatnonzero(~(L_new <= log_rho))
        lpos, L, r = _cat(lpos, new[nw]), _cat(L, L_new[nw]), _cat(r, r_new[nw])
        # temporaries go as soon as they are read: with many points
        # switching, this call is where a certifying run's memory peaks
        del nw, L_new, r_new
    if ex.size == 0 and lpos.size == 0:
        return None
    pos = _cat(ex, lpos)
    g = _cat(np.log(np.hypot(dom, sub)), log_norm_of(L, r))
    np.maximum(g, 0.0, out=g)
    g *= d ** (-n)
    if uniform:
        return pos, g, flt.tail_bound(n)
    # 1/rho_n and |x_n/y_n| per point, explicit points first
    with np.errstate(under="ignore"):
        inv_rho = _cat(1.0 / dom, np.exp(-L))
        ratio = _cat(sub / dom, np.abs(r))
    del L, r, dom, sub
    e = flt.wedge_distortion(inv_rho)
    del inv_rho
    e /= d - 1.0
    ratio *= ratio
    e += 0.5 * np.log1p(ratio, out=ratio)
    e *= d ** (-n)
    done = e <= np.minimum(tol, EPS * g)
    if not done.any():
        return None
    return pos[done], g[done], e[done]


def _cat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a then b; when one of them is empty, the other as it is."""
    return b if not a.size else a if not b.size else np.concatenate((a, b))


# Points per chunk when _drive steps several rows (sequences) of the points
# (a chunk holds at least one row), and the size at which orbits waiting at
# one depth are joined in a range of one piece; an orbit stops to wait once
# it holds fewer than half.
MC_CHUNK = 2 ** 14

# Points of a thread's range that _drive starts at a time (PIECE >= MC_CHUNK),
# its pool size in a range of several pieces, and the points a thread needs
# (_in_threads). Chosen from a sweep of 1024^2 rasters over 2^14 .. 2^17
# (CHANGES.md): smaller pieces stepped two threads slower, larger ones held
# more memory and were no faster.
PIECE = 2 ** 16


def mc_chunks(n_mc: int, n_pts: int, lo: int = 0, hi: int | None = None):
    """Yield (names, rows) per chunk of sequences over the points lo:hi.

    The point p along sequence i is named i * n_pts + p; a chunk holds
    `rows` whole sequences, MC_CHUNK points or one sequence at most.
    """
    hi = n_pts if hi is None else hi
    step = max(1, MC_CHUNK // (hi - lo))
    for r0 in range(0, n_mc, step):
        r = np.arange(r0, min(n_mc, r0 + step))
        if len(r) == 1:  # one range, without a temporary as large as a raster's names
            yield np.arange(r0 * n_pts + lo, r0 * n_pts + hi), 1
        else:
            yield (r[:, None] * n_pts + np.arange(lo, hi)).ravel(), len(r)


def _in_threads(work, n: int, threads: int, rows: int = 1) -> None:
    """work(lo, hi) over contiguous ranges of range(n), one thread each.

    At most `threads` ranges, and no more than there are points, CPUs or
    pieces of PIECE among the rows * n points stepped, so a raster of one
    piece runs on one thread.
    """
    threads = min(threads, n, os.cpu_count() or 1, -(-rows * n // PIECE))
    if threads <= 1:
        return work(0, n)
    from concurrent.futures import ThreadPoolExecutor

    bounds = np.linspace(0, n, threads + 1, dtype=int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda i: work(bounds[i], bounds[i + 1]), range(threads)))


def _drive(supplier, x: np.ndarray, y: np.ndarray, rows: int, flt: FiltrationRadius, tol: float, n_max: int,
           inverse: bool, threads: int, record) -> None:
    """The one stepping loop: certify `rows` copies of the points (x, y)
    along the supplier, each copy once through record (see _certify).

    The copy of point p in row i is named i * len(x) + p. Threads split
    the points into contiguous ranges, never a point's rows. A range is
    walked in pieces of at most PIECE points, and each piece's rows start
    in chunks of whole rows (mc_chunks), so no orbit starts with more than
    max(PIECE, MC_CHUNK) points. Orbits are pooled by depth at a size S,
    MC_CHUNK in a range of one piece and PIECE in a range of several:
    every orbit steps until the points leaving it leave fewer than S // 2
    (_certify's floor), then waits at the depth it reached. Once the orbits
    waiting at one depth hold S points, they are joined in the order they
    waited (Orbit.concat) and step on as one orbit; when no chunk is left
    to start, the orbits waiting at the lowest depth go next. The last
    orbit, started when no chunk is left and no other orbit waits, runs to
    n_max; so a range of one piece and one row is one orbit. Only it, and
    orbits drained from the lowest depth while others wait, step on fewer
    than S // 2 points. The kernel works point by point and records go by
    name, so no output depends on PIECE, MC_CHUNK or the thread count.
    """
    if n_max < 0:
        raise ValidationError(f"depth n_max must be at least 0, got {n_max}")
    n_pts = len(x)
    flt = flt.toward(inverse)

    def starts(lo, hi):
        """(names, rows, piece's first point, piece's end) per chunk of the range, piece by piece."""
        for p in range(lo, hi, PIECE):
            q = min(hi, p + PIECE)
            for ids, r in mc_chunks(rows, n_pts, p, q):
                yield ids, r, p, q

    def work(lo, hi):
        if hi == lo:
            return
        chunks = starts(lo, hi)
        chunk = next(chunks)
        size = MC_CHUNK if hi - lo <= PIECE else PIECE
        waiting = {}  # depth -> the orbits stopped there
        orbit = None
        while True:
            if orbit is None and chunk is not None:
                (ids, r, p, q), chunk = chunk, next(chunks, None)
                xs, ys = (np.broadcast_to(v[p:q], (r, q - p)).ravel() for v in (x, y))
                orbit, n = Orbit(supplier.fam, xs, ys, inverse, ids), 0
            elif orbit is None:
                if not waiting:
                    return
                n = min(waiting)
                orbit = Orbit.concat(waiting.pop(n))
            last = chunk is None and not waiting
            n = _certify(supplier, orbit, flt, tol, n, n_max, record, 1 if last else size // 2)
            if len(orbit):
                group = waiting.setdefault(n, [])
                group.append(orbit)
                if sum(map(len, group)) >= size:
                    orbit = Orbit.concat(waiting.pop(n))
                    continue
            orbit = None

    _in_threads(work, n_pts, threads, rows)


def _run_green(supplier, x: np.ndarray, y: np.ndarray, flt: FiltrationRadius, tol: float, n_max: int,
               inverse: bool, threads: int = 1, *, with_err: bool = True):
    """Certified (value, status, depth, err) arrays of points sharing a lam-supply.

    The rows = 1 case of _drive: threads step contiguous ranges of the
    points, piece by piece. err bounds |value - G|
    for escaped points (the truncation error; the double carries its own
    rounding). A point whose orbit state is not finite stays undecided.
    With with_err=False err is not kept and comes back as None.
    """
    n_pts = len(x)
    value = np.zeros(n_pts, dtype=float)
    status = np.full(n_pts, STATUS_UNDECIDED, dtype=np.uint8)
    depth = np.full(n_pts, n_max, dtype=np.int32)
    err = np.empty(n_pts, dtype=float) if with_err else None

    def record(ids, n, g, e, s):
        value[ids] = g
        status[ids] = s
        depth[ids] = n
        if with_err:
            err[ids] = e

    _drive(supplier, x, y, 1, flt, tol, n_max, inverse, threads, record)
    return value, status, depth, err


def _green_at(supplier, z, flt: FiltrationRadius, tol: float, n_max: int, inverse: bool) -> GreenEval:
    """Certified Green value at the single point z."""
    v, s, n, e = _run_green(supplier, np.array([z[0]]), np.array([z[1]]), flt, tol, n_max, inverse)
    return GreenEval(float(v[0]), int(n[0]), float(e[0]), STATUS_NAMES[s[0]])


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
    return _green_at(SigmaSupplier(fam, base.sigma, lam), z, flt, tol, n_max, inverse=False)


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
    return _green_at(SigmaSupplier(fam, base.sigma, lam), z, flt, tol, n_max, inverse=True)


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
    return _green_at(SigmaSupplier(fam, base.sigma, lam, back=True), z, flt, tol, n_max, inverse=True)


def green_minus_tilde(
    fam: HenonFamily,
    base: BaseSystem,
    lam: complex,
    z: tuple[complex, complex],
    tol: float = 1e-6,
    n_max: int = 120,
) -> GreenEval:
    """Normalized log+ norm of the inverse of the forward n-composition.

    Experimental outside contraction-type bases: the limit is only known
    to exist when sigma contracts to a point. Values at successive depths
    are recomputed from scratch because the composition order reverses
    with n; the reported bound is the last Cauchy increment, not a
    certified tail. A negative n_max is a ValidationError.
    """
    if n_max < 0:
        raise ValidationError(f"n_max must be at least 0, got {n_max}")
    if base.sigma.kind == SHIFT:
        raise UnsupportedBase("tilde variant needs a pointwise base dynamics")
    d = float(fam.degree)
    prev = None
    last = 0.0
    for n in range(1, n_max + 1):
        # H_(sigma^(n-1) lam)^-1 is applied first, H_lam^-1 last
        reversed_sup = TableSupplier(fam, [[advance(base.sigma, lam, n - 1 - k) for k in range(n)]])
        (_, orbit), = iterate(reversed_sup, np.array([z[0]]), np.array([z[1]]), [n], inverse=True)
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
    inverse: bool = False,
) -> GreenEval:
    """Green function along an explicit parameter sequence: G^+ forward, G^-
    with inverse (step k applies the inverse map at lam_k).

    `seq` is a ParamSequence, a FrozenSequence (a word repeated forever) or
    a plain array of base points, read to its end and no further; a plain
    array needs `flt`, since it carries no space to derive the filtration
    constants from.
    """
    flt = resolve_radius(fam, flt, getattr(seq, "space", None))
    return _green_at(SeqSupplier(fam, seq, n_max), z, flt, tol, n_max, inverse)


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
    """Monte-Carlo average Green function EG^+ with its standard error (MCMoments)."""
    flt = resolve_radius(fam, flt, space)
    mc = mc_green(fam, space, seed, n_mc, np.array([z[0]], dtype=complex), np.array([z[1]], dtype=complex),
                   flt, tol, n_max)
    m = MCMoments.of(mc.values)
    return float(m.mean()[0]), float(m.stderr()[0])


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
    sup, x, y = SigmaSupplier(fam, base.sigma, lam), np.array([z[0]]), np.array([z[1]])
    _, s_f, n_f, _ = _run_green(sup, x, y, flt, np.inf, n_max, inverse=False, with_err=False)
    if s_f[0] == STATUS_ESCAPED:
        return OrbitClass("escaped-forward", int(n_f[0]))
    _, s_b, n_b, _ = _run_green(sup, x, y, flt, np.inf, n_max, inverse=True, with_err=False)
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
    """Vectorized Green values at points (x, y) of one shape; lam is one base
    point or one per point. Returns flat (value, status, depth)."""
    x, y = (np.asarray(v, dtype=complex) for v in (x, y))
    if x.shape != y.shape or np.ndim(lam) > 1 or np.ndim(lam) == 1 and len(lam) != x.size:
        raise ValidationError(f"green_values: x, y, lam of shapes {x.shape}, {y.shape}, {np.shape(lam)} do not match")
    flt = resolve_radius(fam, flt, base.space)
    sup = SigmaSupplier(fam, base.sigma, lam, back=backward_base)
    return _run_green(sup, x.ravel(), y.ravel(), flt, tol, n_max, inverse, with_err=False)[:3]


@dataclass
class GreenField:
    """Green values rasterized on a slice; shares one depth/tol policy."""

    grid: SliceGrid
    status: np.ndarray
    depth: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self.grid.data

    @property
    def undecided(self) -> int:
        return int(np.count_nonzero(self.status == STATUS_UNDECIDED))


def _field(supplier, grid: SliceGrid, flt: FiltrationRadius, tol: float, n_max: int, inverse: bool,
           threads: int) -> GreenField:
    """The certified Green raster of a slice grid along one lam-supply."""
    x, y = grid.points()
    v, s, n, _ = _run_green(supplier, x.reshape(-1), y.reshape(-1), flt, tol, n_max, inverse, threads,
                            with_err=False)
    shape = (grid.ny, grid.nx)
    return GreenField(grid.with_data(v.reshape(shape)), s.reshape(shape), n.reshape(shape))


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
    return _field(SigmaSupplier(fam, base.sigma, lam), grid, flt, tol, n_max, inverse, threads)


def green_field_seq(
    fam: HenonFamily,
    seq,
    grid: SliceGrid,
    tol: float = 1e-6,
    n_max: int = 200,
    flt: FiltrationRadius | None = None,
    threads: int = 1,
) -> GreenField:
    """Rasterize the random Green function along one sequence (`flt` from `seq.space` if None)."""
    flt = resolve_radius(fam, flt, getattr(seq, "space", None))
    return _field(SeqSupplier(fam, seq, n_max), grid, flt, tol, n_max, False, threads)


def mc_supplier(fam: HenonFamily, space, seed: int, n_mc: int, n_steps: int, width: int) -> TableSupplier:
    """Table supplier of `fam` along the first n_steps entries of the n_mc
    sequences ParamSequence(space, seed).spawn(i), row i driving `width` points."""
    if n_mc < 2:
        raise ValidationError(f"Monte-Carlo averages need n_mc >= 2, got {n_mc}")
    root = ParamSequence(space, seed)
    return TableSupplier(fam, np.array([root.spawn(i).prefix(n_steps) for i in range(n_mc)]), width)


class MCMoments:
    """Streaming mean and standard error of the mean over Monte-Carlo sequences.

    add(v) takes one sequence's samples (arrays of one shape) at a time, in
    sequence order; the mean is their sum in that order over n. The
    variance is (S2 - S1^2/n)/(n - 1), S1 and S2 the sums of the offsets
    from the first sequence's samples and of their squares (shifted data;
    Chan, Golub & LeVeque, Amer. Statist. 1983). Offsets between samples
    within a factor 2 are exact, so samples that agree to many digits keep
    the variance that a plain sum of squares loses to cancellation.
    """

    def __init__(self):
        self.n = 0

    def add(self, v: np.ndarray) -> None:
        if self.n == 0:
            self.total = np.zeros(np.shape(v))
            self.first = np.array(v, dtype=float)
            self.s1 = np.zeros_like(self.total)
            self.s2 = np.zeros_like(self.total)
        self.total += v
        dv = v - self.first
        self.s1 += dv
        dv *= dv
        self.s2 += dv
        self.n += 1

    @classmethod
    def of(cls, rows) -> "MCMoments":
        """The moments of the sequences' samples rows[0], rows[1], ..."""
        m = cls()
        for v in rows:
            m.add(v)
        return m

    def mean(self) -> np.ndarray:
        return self.total / self.n

    def stderr(self) -> np.ndarray:
        """Standard error of the mean, n >= 2."""
        var = np.maximum(self.s2 - self.s1 ** 2 / self.n, 0.0) / (self.n - 1)
        return np.sqrt(var / self.n)


@dataclass
class MCGreen:
    values: np.ndarray  # (n_mc, n_pts) certified value along each sequence
    undecided: np.ndarray  # (n_pts,) undecided along some sequence
    depth: np.ndarray  # (n_pts,) largest depth over the sequences
    seq_undecided: np.ndarray  # (n_mc,) undecided points per sequence


def mc_green(fam: HenonFamily, space, seed: int, n_mc: int, x: np.ndarray, y: np.ndarray,
              flt: FiltrationRadius, tol: float, n_max: int, threads: int = 1) -> MCGreen:
    """Certified forward Green values of the points (x, y) along n_mc spawned sequences.

    The rows = n_mc case of _drive, row i driven by sequence i: each point
    along each sequence gets exactly the value, status and depth that
    _run_green gives it along that sequence alone. The values are kept in
    sequence order, which is the order MCMoments takes them in.
    """
    n_pts = len(x)
    sup = mc_supplier(fam, space, seed, n_mc, n_max, n_pts)
    values = np.empty((n_mc, n_pts))
    undecided = np.zeros((n_mc, n_pts), dtype=bool)
    depth = np.zeros(n_pts, dtype=np.int32)
    flat, flat_undecided = values.reshape(-1), undecided.reshape(-1)

    def record(ids, n, g, e, status):
        flat[ids] = g
        flat_undecided[ids] = status == STATUS_UNDECIDED
        p = ids % n_pts
        depth[p] = np.maximum(depth[p], n)

    _drive(sup, x, y, n_mc, flt, tol, n_max, False, threads, record)
    return MCGreen(values, undecided.any(axis=0), depth, np.count_nonzero(undecided, axis=1))


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
    """Monte-Carlo EG^+ raster over n_mc >= 2 spawned sequences.

    Returns (mean field, per-pixel standard error of the mean), both from
    MCMoments over the sequences in order; a pixel's entries equal
    avg_green at its point bit for bit. The per-sequence values are not
    retained. A pixel's status is undecided if it is undecided along some
    sequence, else converged; its depth is the largest over the sequences.
    """
    flt = resolve_radius(fam, flt, space)
    x, y = grid.points()
    mc = mc_green(fam, space, seed, n_mc, x.ravel(), y.ravel(), flt, tol, n_max, threads)
    shape = (grid.ny, grid.nx)
    m = MCMoments.of(mc.values.reshape(n_mc, *shape))
    status = np.where(mc.undecided, STATUS_UNDECIDED, STATUS_CONVERGED).astype(np.uint8).reshape(shape)
    field = GreenField(grid.with_data(m.mean()), status, mc.depth.reshape(shape))
    return field, m.stderr()


def depth_values(
    fam: HenonFamily,
    sigma: BaseDynamics,
    lam,
    z: tuple[complex, complex],
    depths,
    inverse: bool = False,
) -> np.ndarray:
    """G_n(z) along lam_k = sigma^k(lam) for each n in `depths` (raw
    finite-depth values, no freeze)."""
    d = float(fam.degree)
    steps = iterate(SigmaSupplier(fam, sigma, lam), np.array([z[0]]), np.array([z[1]]), depths, inverse)
    return np.array([d ** (-n) * float(orbit.log_plus_norm()[0]) for n, orbit in steps])


def finite_depth_green(fam: HenonFamily, words: np.ndarray, x: np.ndarray, y: np.ndarray, depth: int) -> np.ndarray:
    """Raw depth-n Green values along explicit words, vectorized.

    words has shape (n_words, depth), x and y are 1-d of one length;
    returns (n_words, n_points). The exhaustive-word average of these
    values is the oracle for the Monte-Carlo averaged Green function at
    the same depth.
    """
    x, y = (np.asarray(v, dtype=complex) for v in (x, y))
    if x.ndim != 1 or x.shape != y.shape:
        raise ValidationError(f"finite_depth_green: x, y of shapes {x.shape}, {y.shape} are not 1-d of one length")
    sup = TableSupplier(fam, words, len(x))  # a ValidationError unless words is 2-d
    n_words, n_pts = len(words), len(x)
    X = np.broadcast_to(x, (n_words, n_pts)).ravel()
    Y = np.broadcast_to(y, (n_words, n_pts)).ravel()

    (_, orbit), = iterate(sup, X, Y, [depth])
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
        jac = np.broadcast_to(np.eye(2, dtype=complex), (n_samp, 2, 2))
        x_cur, y_cur = px, py
        for c, a in map_coeffs(fam, lam_g):
            dp = np.zeros_like(y_cur)
            deg = len(c) - 1
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

    g, _, _ = green_values(fam, base, lam, px[:2 * n_pairs], py[:2 * n_pairs], tol, 200, flt)
    dz = np.hypot(np.abs(px[:n_pairs] - px[n_pairs:2 * n_pairs]), np.abs(py[:n_pairs] - py[n_pairs:2 * n_pairs]))
    ok = dz > 1e-14
    ratios = np.abs(g[:n_pairs] - g[n_pairs:2 * n_pairs])[ok] / dz[ok] ** (beta / 2.0)
    C_emp = float(ratios.max()) if ratios.size else 0.0
    return beta, C_emp, L_emp
