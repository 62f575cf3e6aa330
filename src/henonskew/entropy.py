"""Topological entropy lower bounds via greedy (n, eps)-separated packing.

The Bowen metric on the skew product is
d_n(p, q) = max over 0 <= i < n of [base dist + fiber dist] of the i-step
images. Greedy first-fit packing of a candidate cloud near the chaotic
region gives s_n(eps); rate = log(s_n)/n lower-bounds the entropy (which
is at least log d on the Julia set).

The candidates are drawn uniformly in a window and kept when their Green
value at depth n_max is below a threshold (`draw_candidates`). The draw
needs only that predicate, so it iterates each batch to a decision depth
n_dec, the smallest n >= depth_for(tol) with 2 (d^-n M + tol) < threshold
(M = FiltrationRadius.bidisc_cap), instead of n_max. The kept set is
bit-identical to that of runs to n_max.

The packing is a block sweep over the shuffled candidates (`_greedy_pack`).
Candidates are binned into step-0 cells at least eps wide; for each block
of `BLOCK` candidates the pairs in adjacent cells are tested stage by stage
against the Bowen increment in a few vectorised passes, first-fit resolves
the block, and the block's kept candidates kill their conflicts further
on. The count is exactly that of candidate-by-candidate first-fit. Pairs
are expanded at most `PAIR_BUDGET` at a time, so memory stays bounded for
any eps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .base import CIRCLE, SHIFT, BaseSystem, advance
from .errors import EmptyCandidateSet, UnsupportedBase, ValidationError
from .family import HenonFamily, eval_map
from .filtration import FiltrationRadius, resolve_radius
from .green import STATUS_UNDECIDED, green_values

#: Positions of the shuffled candidate order resolved per packing block.
BLOCK = 256
#: Most candidate pairs the packer expands at once.
PAIR_BUDGET = 2**11
#: Most cells per real coordinate; cells are max(eps, extent / CELL_RANGE) wide.
CELL_RANGE = 2**14
# offsets of the 3^4 cells adjacent to a cell (itself included)
_NEIGHBOURS = np.array(list(itertools.product((-1, 0, 1), repeat=4)), dtype=np.int64)


@dataclass(frozen=True)
class SeparatedSetEstimate:
    """s_n = size of the first-fit separated set at depth n; `survivors` is
    the number of candidates packed (those staying in the bidisc for n
    steps), so s_n / survivors is the saturation of the packing."""

    n: int
    eps: float
    s_n: int
    rate: float
    survivors: int | None = None

    def __post_init__(self):
        if self.s_n < 1 or self.rate < 0:
            raise ValidationError("separated-set estimate needs s_n >= 1, rate >= 0")
        if self.survivors is not None and self.s_n > self.survivors:
            raise ValidationError("separated-set estimate needs s_n <= survivors")


def _base_dist(space_kind_is_circle: bool, a: np.ndarray, b) -> np.ndarray:
    if space_kind_is_circle:
        t = np.abs(a.real - np.real(b)) % 1.0
        return np.minimum(t, 1.0 - t)
    return np.abs(a - b)


def _bowen_step(circ: bool, la, xa, ya, lb, xb, yb) -> np.ndarray:
    """One step's term of the Bowen metric: base distance plus fiber distance."""
    return _base_dist(circ, la, lb) + np.hypot(np.abs(xa - xb), np.abs(ya - yb))


def _orbit_track(fam: HenonFamily, base: BaseSystem, lam: np.ndarray, x: np.ndarray, y: np.ndarray, n: int, R: float):
    """Skew orbits (lam_i, z_i) for 0 <= i < n.

    ok_hist[k] marks candidates staying in V_R through step k. Orbits are
    zeroed once they leave the bidisc (their later steps are never used),
    which keeps the explicit arithmetic overflow-free. A NaN coordinate is
    not outside, so with R = inf nothing is zeroed; the steps of such an
    orbit may then overflow to inf and NaN, without a floating-point
    warning.
    """
    n_pts = len(x)
    xs = np.empty((n, n_pts), dtype=complex)
    ys = np.empty((n, n_pts), dtype=complex)
    ls = np.empty((n, n_pts), dtype=complex)
    ok_hist = np.empty((n, n_pts), dtype=bool)
    ok = ~((np.abs(x) > R) | (np.abs(y) > R))
    xs[0], ys[0], ls[0] = np.where(ok, x, 0), np.where(ok, y, 0), lam
    ok_hist[0] = ok
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n):
            xi, yi = eval_map(fam, ls[i - 1], (xs[i - 1], ys[i - 1]))
            ok = ok & ~((np.abs(xi) > R) | (np.abs(yi) > R))
            xs[i] = np.where(ok, xi, 0)
            ys[i] = np.where(ok, yi, 0)
            ls[i] = advance(base.sigma, lam, i)
            ok_hist[i] = ok
    return xs, ys, ls, ok_hist


def dn_distance(fam: HenonFamily, base: BaseSystem, p, q, n: int) -> float:
    """Bowen distance between p = (lam, (x, y)) and q at depth n.

    The packer's metric on `_orbit_track`'s orbits, with R = inf so that
    nothing is zeroed; NaN step terms (after an overflow) are skipped.
    """
    if n < 1:
        raise ValidationError("dn_distance needs n >= 1")
    if base.sigma.kind == SHIFT:
        raise UnsupportedBase("Bowen metric needs a pointwise base dynamics")
    lam, x, y = np.array([(p[0], *p[1]), (q[0], *q[1])], dtype=complex).T
    xs, ys, ls, _ = _orbit_track(fam, base, lam, x, y, n, np.inf)
    with np.errstate(invalid="ignore"):  # inf - inf where both orbits overflow
        steps = _bowen_step(base.space.kind == CIRCLE, ls[:, 0], xs[:, 0], ys[:, 0], ls[:, 1], xs[:, 1], ys[:, 1])
    return float(np.fmax.reduce(steps, initial=0.0))


def _decision_depth(flt: FiltrationRadius, threshold: float, tol: float, n_max: int, inverse: bool = False) -> int:
    """Depth at which `G < threshold` is decided for every point in V_R.

    The smallest n >= flt.depth_for(tol) with 2 (d^-n M + tol) < threshold,
    M = flt.bidisc_cap, capped at n_max (see `draw_candidates`).
    """
    n = flt.depth_for(tol, inverse)
    d = float(flt.degree)
    cap = flt.bidisc_cap(inverse)
    while n < n_max and 2.0 * (d ** (-n) * cap + tol) >= threshold:
        n += 1
    return min(n, n_max)


def _below(fam, base, lam, x, y, threshold, tol, n_max, flt, inverse=False, backward_base=False) -> np.ndarray:
    """Mask of the points whose Green value at depth n_max is below `threshold`.

    Decided at `_decision_depth`; the points left undecided there are
    re-run to n_max.
    """
    n_dec = _decision_depth(flt, threshold, tol, n_max, inverse)
    g, status, _ = green_values(fam, base, lam, x, y, tol, n_dec, flt, inverse=inverse, backward_base=backward_base)
    if n_dec < n_max:
        redo = np.flatnonzero(status == STATUS_UNDECIDED)
        if redo.size:
            g[redo], _, _ = green_values(fam, base, lam[redo], x[redo], y[redo], tol, n_max, flt, inverse=inverse,
                                         backward_base=backward_base)
    return g < threshold


def draw_candidates(
    fam: HenonFamily,
    base: BaseSystem,
    window: tuple[float, float, float, float, float, float, float, float] | None,
    n_candidates: int,
    seed: int,
    green_threshold: float = 0.05,
    tol: float = 1e-3,
    n_max: int = 100,
    flt: FiltrationRadius | None = None,
    max_batches: int = 40,
    use_pluri: bool = False,
):
    """Sample (lam, z) near the non-escaping region.

    The default filter keeps points with forward Green value below the
    threshold (the forward-bounded region plus the thin collar around its
    boundary). `use_pluri` switches to max of forward and backward values;
    for dissipative families that set carries no 4-volume (the
    backward-bounded set is null), so the default is what makes packing
    counts meaningful. Over-approximating the chaotic region is
    conservative: extra candidates can only come from regions that still
    separate under the ambient metric.

    window = (re x, im x, re y, im y) bounds as four (lo, hi) pairs; None
    uses the filtration bidisc.

    Each batch is decided with one `green_values` call per direction at
    the decision depth n_dec <= n_max (module docstring; K_minus backward).
    Since n_dec >= depth_for(tol), every point that reaches the wedge by
    n_dec is certified there at the depth and with the value that a run
    to n_max gives it. A point in V_R at n_dec is kept: its value at n_max
    is 0 or, if it escapes later, at most d^-n_dec M + tol plus a few ulp,
    below the threshold with a factor 2 to spare. A point left undecided at
    n_dec (in the opposite wedge, or with a non-finite state) is re-run to
    n_max in a second call on those points alone. A window inside the
    bidisc leaves none: forward, V_R maps into V_R u V_R^+, and backward
    into V_R u V_R^-.
    """
    flt = resolve_radius(fam, flt, base.space)
    R = flt.R
    if window is None:
        window = (-R, R, -R, R, -R, R, -R, R)
    rng = np.random.Generator(np.random.PCG64(seed))
    got_lam, got_x, got_y = [], [], []
    total = 0
    for _ in range(max_batches):
        m = max(n_candidates, 4096)
        lam = base.space.sample(rng, m)
        x = rng.uniform(window[0], window[1], m) + 1j * rng.uniform(window[2], window[3], m)
        y = rng.uniform(window[4], window[5], m) + 1j * rng.uniform(window[6], window[7], m)
        keep = _below(fam, base, lam, x, y, green_threshold, tol, n_max, flt)
        if use_pluri:
            keep &= _below(fam, base, lam, x, y, green_threshold, tol, n_max, flt, inverse=True,
                           backward_base=base.sigma.invertible)
        got_lam.append(lam[keep])
        got_x.append(x[keep])
        got_y.append(y[keep])
        total += int(keep.sum())
        if total >= n_candidates:
            break
    if total == 0:
        raise EmptyCandidateSet("no points below the Green threshold in the window")
    lam = np.concatenate(got_lam)[:n_candidates]
    x = np.concatenate(got_x)[:n_candidates]
    y = np.concatenate(got_y)[:n_candidates]
    return lam, x, y


def _greedy_pack(xs, ys, ls, eps: float, circ: bool, order: np.ndarray) -> int:
    """First-fit maximal (n, eps)-separated subset; returns its size.

    Candidates are taken in `order`; one is kept iff no earlier kept
    candidate lies within d_n <= eps of it. The sweep resolves `BLOCK`
    positions of `order` at a time:

    1. the block's candidates not yet killed are paired with the later
       candidates of the block that sit in adjacent step-0 cells, and the
       pairs are filtered by the Bowen increment one step at a time (step
       0 first, where most pairs drop out);
    2. first-fit runs over the block, each kept candidate killing the
       block's later candidates it conflicts with;
    3. the block's kept candidates are paired with the surviving
       candidates after the block, and the conflicting ones are killed.

    So every kill comes from a kept candidate, and in `order`: the count
    equals that of candidate-by-candidate first-fit. The conflict test is
    `dn_distance`'s floating-point expression (`_bowen_step`, symmetric
    to the bit since |a - b| = |b - a| in IEEE arithmetic), and at most
    `PAIR_BUDGET` pairs are expanded at once.

    The prefilter is complete for any cell width w >= eps, because d_n is
    at least the step-0 distance in each real coordinate; so the result
    does not depend on w. Cells are max(eps, extent / CELL_RANGE) wide, so
    the four integer cell keys fit one int64 code at any eps. Keys are
    taken from the cloud's lower corner, a subtraction that rounds at the
    scale of the extent rather than of eps, so the cells are widened by a
    relative 2^-20: two candidates exactly eps apart can then never land
    two cells apart.
    """
    n, size = xs.shape[0], order.size
    if size == 0:
        return 0
    coords = np.stack([xs[0].real[order], xs[0].imag[order], ys[0].real[order], ys[0].imag[order]])
    lo = coords.min(axis=1, keepdims=True)
    width = max(eps, float((coords.max(axis=1) - lo[:, 0]).max()) / CELL_RANGE) * (1 + 2.0**-20)
    # keys in [1, CELL_RANGE], so a neighbour key stays in [0, radix - 1]
    keys = np.floor((coords - lo) / width).astype(np.int64) + 1
    radix = int(keys.max()) + 2
    weights = radix ** np.arange(4, dtype=np.int64)
    code = weights @ keys
    hood = _NEIGHBOURS @ weights
    cells, cell_of = np.unique(code, return_inverse=True)
    # (cell, position) entries in one sorted int64 key: a cell's candidates
    # are a contiguous run, in `order`, so a position range is two searches
    entry = np.sort(cell_of.ravel() * size + np.arange(size))
    entry_pos = entry % size
    stale = 0  # entries no longer alive, dropped once they are half of `entry`
    alive = np.ones(size, dtype=bool)

    def near_cells(q):
        # (row into q, cell id) for every occupied cell adjacent to q's
        want = code[q][:, None] + hood
        cid = np.minimum(np.searchsorted(cells, want), cells.size - 1)
        row, col = np.nonzero(cells[cid] == want)
        return row, cid[row, col]

    def conflicts(q, row, cid, first, stop):
        # pairs (q[row], p) with p alive in cell cid, first <= p < stop, and
        # d_n(p, q[row]) <= eps; yielded in chunks, sorted by q position
        base = cid * size
        start = np.searchsorted(entry, base + first)
        count = np.searchsorted(entry, base + stop) - start
        busy = count > 0
        earlier, start, count = q[row[busy]], start[busy], count[busy]
        if count.size == 0:
            return
        ends = np.cumsum(count)
        for t0 in range(0, int(ends[-1]), PAIR_BUDGET):
            t = np.arange(t0, min(t0 + PAIR_BUDGET, int(ends[-1])))
            r = np.searchsorted(ends, t, side="right")
            a = earlier[r]
            b = entry_pos[start[r] + t - (ends[r] - count[r])]
            live = alive[b]
            a, b = a[live], b[live]
            for i in range(n):
                if b.size == 0:
                    break
                ia, ib = order[a], order[b]
                near = _bowen_step(circ, ls[i][ib], xs[i][ib], ys[i][ib], ls[i][ia], xs[i][ia], ys[i][ia]) <= eps
                a, b = a[near], b[near]
            if b.size:
                yield a, b

    kept_total = 0
    for s in range(0, size, BLOCK):
        e = min(s + BLOCK, size)
        q = s + np.flatnonzero(alive[s:e])
        if q.size == 0:
            continue
        row, cid = near_cells(q)
        found = list(conflicts(q, row, cid, q[row] + 1, e))
        if found:
            a = np.concatenate([f[0] for f in found])
            b = np.concatenate([f[1] for f in found])
            cut = np.flatnonzero(a[1:] != a[:-1]) + 1
            for head, victims in zip(a[np.r_[0, cut]].tolist(), np.split(b, cut)):
                if alive[head]:
                    alive[victims] = False
        kept = alive[q]
        kept_total += int(kept.sum())
        if e < size:
            take = kept[row]
            for _, b in conflicts(q, row[take], cid[take], e, size):
                alive[b] = False
                stale += b.size
        alive[s:e] = False
        stale += q.size
        if 2 * stale > entry.size:
            live = alive[entry_pos]
            entry, entry_pos, stale = entry[live], entry_pos[live], 0
    return kept_total


def entropy_lower_bound(
    fam: HenonFamily,
    base: BaseSystem,
    eps: float,
    n_range,
    n_candidates: int = 100_000,
    seed: int = 0,
    window=None,
    green_threshold: float = 0.05,
    flt: FiltrationRadius | None = None,
    candidates=None,
) -> list[SeparatedSetEstimate]:
    """Greedy (n, eps)-separated estimates over the requested depths.

    `candidates` may carry a precomputed (lam, x, y) triple to reuse one
    cloud across eps/n sweeps.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if base.sigma.kind == SHIFT:
        raise UnsupportedBase("entropy packing needs a pointwise base dynamics")
    flt = resolve_radius(fam, flt, base.space)
    if candidates is None:
        candidates = draw_candidates(fam, base, window, n_candidates, seed, green_threshold, flt=flt)
    lam, x, y = candidates
    n_top = max(n_range)
    xs, ys, ls, ok_hist = _orbit_track(fam, base, lam, x, y, n_top, flt.R)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    circ = base.space.kind == CIRCLE
    out = []
    for n in sorted(n_range):
        keep = np.flatnonzero(ok_hist[n - 1])
        if keep.size == 0:
            raise EmptyCandidateSet(f"no candidate orbit stays in the bidisc for {n} steps")
        order = keep[rng.permutation(keep.size)]
        s_n = _greedy_pack(xs[:n], ys[:n], ls[:n], eps, circ, order)
        rate = math.log(s_n) / n if s_n > 1 else 0.0
        out.append(SeparatedSetEstimate(n=n, eps=eps, s_n=s_n, rate=rate, survivors=keep.size))
    return out
