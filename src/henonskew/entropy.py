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

The candidates' step-0 cells, at least eps wide, and a CSR list of the
occupied cells adjacent to each occupied cell form one index per cloud
and eps (`_cell_index`), built once and shared by every depth. Only pairs
in adjacent cells can lie within eps, and the packing takes one of two
paths (`_pack_depths`), chosen from the number of such pairs among the
candidates packed at the smallest depth, counted per cell before any pair
is expanded (`_adjacent_pairs`):

- a sparse cloud, with at most `PAIR_BUDGET` pairs per block that the
  sweep below would resolve over all depths, builds one conflict graph
  (`_conflict_graph`): each pair in adjacent cells is expanded once and
  tested step by step against the Bowen increment, and the pairs within
  eps at step 0 are kept with the number of leading steps they stay
  within eps. At depth n the conflicts are the pairs with at least n such
  steps whose ends both survive n steps, and first-fit visits only the
  candidates with a later conflict (`_graph_first_fit`);
- a dense one is swept depth by depth in blocks of `BLOCK` shuffled
  candidates (`_greedy_pack`): each block's pairs in adjacent cells are
  tested in a few vectorised passes, first-fit resolves the block, and
  the block's kept candidates kill their conflicts further on, so only
  the pairs a kept candidate reaches are tested.

Both count exactly candidate-by-candidate first-fit in the same shuffled
order, for any grid at least eps wide, and expand pairs at most
`PAIR_BUDGET` at a time.
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
    survivors: int | None = None

    def __post_init__(self):
        if self.s_n < 1:
            raise ValidationError("separated-set estimate needs s_n >= 1")
        if self.survivors is not None and self.s_n > self.survivors:
            raise ValidationError("separated-set estimate needs s_n <= survivors")

    @property
    def rate(self) -> float:
        """log(s_n) / n, the entropy lower bound at this depth (0 for s_n = 1)."""
        return math.log(self.s_n) / self.n if self.s_n > 1 else 0.0


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


def _decision_depth(flt: FiltrationRadius, threshold: float, tol: float, n_max: int) -> int:
    """Depth at which `G < threshold` is decided for every point in V_R.

    The smallest n >= flt.depth_for(tol) with 2 (d^-n M + tol) < threshold,
    M = flt.bidisc_cap, capped at n_max (see `draw_candidates`).
    """
    n = flt.depth_for(tol)
    d = float(flt.degree)
    cap = flt.bidisc_cap()
    while n < n_max and 2.0 * (d ** (-n) * cap + tol) >= threshold:
        n += 1
    return min(n, n_max)


def _below(fam, base, lam, x, y, threshold, tol, n_max, flt, inverse=False, backward_base=False) -> np.ndarray:
    """Mask of the points whose Green value at depth n_max is below `threshold`.

    Decided at `_decision_depth`; the points left undecided there are
    re-run to n_max.
    """
    flt = flt.toward(inverse)
    n_dec = _decision_depth(flt, threshold, tol, n_max)
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
    the decision depth n_dec <= n_max (module docstring; the direction's K).
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
    if n_candidates < 1:
        raise ValidationError(f"n_candidates must be at least 1, got {n_candidates}")
    if not green_threshold > 0:
        raise ValidationError(f"green_threshold must be positive, got {green_threshold}")
    if max_batches < 1:
        raise ValidationError(f"max_batches must be at least 1, got {max_batches}")
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


@dataclass(frozen=True)
class _CellIndex:
    """Step-0 cells of a candidate cloud, shared by every depth it is packed at.

    `cell_of[k]` is candidate k's cell. The occupied cells adjacent to cell
    c, c itself included, are `near[near_start[c]:near_start[c + 1]]` (a
    CSR list, int32 like `cell_of`).
    """

    cell_of: np.ndarray
    near_start: np.ndarray
    near: np.ndarray

    def around(self, cell: np.ndarray):
        """(row, c) for every occupied cell c adjacent to cell[row]; rows ascending."""
        first = self.near_start[cell]
        count = self.near_start[cell + 1] - first
        row = np.repeat(np.arange(cell.size), count)
        return row, self.near[np.arange(row.size) - np.repeat(np.cumsum(count) - count - first, count)]


def _cell_codes(x0: np.ndarray, y0: np.ndarray, eps: float):
    """One int64 cell code per step-0 point (x0, y0), and the code offsets of the 3^4 hood.

    Cells are max(eps, extent / CELL_RANGE) wide in each real coordinate,
    so the four integer cell keys fit one int64 code at any eps. Keys are
    taken from the cloud's lower corner, a subtraction that rounds at the
    scale of the extent rather than of eps, so the cells are widened by a
    relative 2^-20: two points exactly eps apart can then never land two
    cells apart. The per-point coordinate arrays are freed on return,
    before `_cell_index` searches the neighbours.
    """
    coords = np.stack([x0.real, x0.imag, y0.real, y0.imag])
    lo = coords.min(axis=1, keepdims=True)
    width = max(eps, float((coords.max(axis=1) - lo[:, 0]).max()) / CELL_RANGE) * (1 + 2.0**-20)
    coords -= lo
    coords /= width
    # keys in [1, CELL_RANGE], so a neighbour key stays in [0, radix - 1]
    keys = np.floor(coords, out=coords).astype(np.int64)
    keys += 1
    radix = int(keys.max()) + 2
    weights = radix ** np.arange(4, dtype=np.int64)
    return weights @ keys, _NEIGHBOURS @ weights


def _cell_index(x0: np.ndarray, y0: np.ndarray, eps: float) -> _CellIndex:
    """The cells of the step-0 points (x0, y0), at least eps wide (`_cell_codes`).

    Adjacent pairs of occupied cells are found by searching the sorted
    codes `cells + h` for the 40 hood offsets h > 0, one offset at a time,
    and each pair is listed from both of its ends. Each offset is searched
    once; its pairs are kept as int32 for the pass that places them.
    """
    code, hood = _cell_codes(x0, y0, eps)
    cells, cell_of = np.unique(code, return_inverse=True)
    pairs = []
    for h in hood[hood > 0]:
        # (i, j) with cells[j] == cells[i] + h; both are distinct within one h
        want = cells + h
        j = np.searchsorted(cells, want)
        i = np.flatnonzero(cells[np.minimum(j, cells.size - 1)] == want)
        pairs.append((i.astype(np.int32), j[i].astype(np.int32)))
    fill = np.ones(cells.size, dtype=np.int32)  # each cell is adjacent to itself
    for i, j in pairs:
        fill[i] += 1
        fill[j] += 1
    near_start = np.zeros(cells.size + 1, dtype=np.int32)
    np.cumsum(fill, out=near_start[1:])
    near = np.empty(int(near_start[-1]), dtype=np.int32)
    fill = near_start[:-1].copy()
    near[fill] = np.arange(cells.size)
    fill += 1
    for i, j in pairs:
        near[fill[i]] = j
        fill[i] += 1
        near[fill[j]] = i
        fill[j] += 1
    return _CellIndex(cell_of.astype(np.int32), near_start, near)


def _greedy_pack(xs, ys, ls, eps: float, circ: bool, order: np.ndarray, index: _CellIndex) -> int:
    """First-fit maximal (n, eps)-separated subset; returns its size.

    The path `_pack_depths` takes for a dense cloud, one depth at a time.
    Candidates are taken in `order`; one is kept iff no earlier kept
    candidate lies within d_n <= eps of it. `index` holds the step-0 cells
    of a superset of `order` (`_cell_index`, built once per cloud and eps
    and shared by every depth). The positions of `order` are listed cell by
    cell, in position order, and a per-cell cursor marks each cell's first
    entry at or after the current block. The sweep resolves `BLOCK`
    positions of `order` at a time:

    1. the block's candidates not yet killed are paired with the block's
       entries in adjacent cells (those before each cell's cursor once it
       has passed the block), later and alive ones only, and the pairs are
       filtered by the Bowen increment one step at a time (step 0 first,
       where most pairs drop out);
    2. first-fit runs over the block, each kept candidate killing the
       block's later candidates it conflicts with;
    3. the block's kept candidates are paired with the alive entries from
       the cursor to the end of each adjacent cell, and the conflicting
       ones are killed.

    So every kill comes from a kept candidate, and in `order`: the count
    equals that of candidate-by-candidate first-fit. The conflict test is
    `dn_distance`'s floating-point expression (`_bowen_step`, symmetric
    to the bit since |a - b| = |b - a| in IEEE arithmetic), and at most
    `PAIR_BUDGET` pairs are expanded at once.

    The cells are complete for any width w >= eps, because d_n is at least
    the step-0 distance in each real coordinate; so the result does not
    depend on the width, nor on which superset of `order` built the index.
    """
    n, size = xs.shape[0], order.size
    if size == 0:
        return 0
    cell = index.cell_of[order]
    alive = np.ones(size, dtype=bool)
    listed = alive.copy()  # the positions in `entry`

    def cell_runs(entry):
        # each cell's first entry in `entry` (its cursor) and the end of its run
        count = np.bincount(cell[entry], minlength=index.near_start.size - 1)
        end = np.cumsum(count)
        return end - count, end

    entry = np.argsort(cell, kind="stable")
    cursor, end = cell_runs(entry)

    def conflicts(earlier, start, count):
        # pairs (earlier[r], p) with p = entry[start[r] + k], 0 <= k < count[r],
        # p > earlier[r] alive and d_n(p, earlier[r]) <= eps; in chunks, in row order
        busy = count > 0
        earlier, start, count = earlier[busy], start[busy], count[busy]
        if count.size == 0:
            return
        ends = np.cumsum(count)
        for t0 in range(0, int(ends[-1]), PAIR_BUDGET):
            t = np.arange(t0, min(t0 + PAIR_BUDGET, int(ends[-1])))
            r = np.searchsorted(ends, t, side="right")
            a = earlier[r]
            b = entry[start[r] + t - (ends[r] - count[r])]
            live = alive[b] & (b > a)
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
        row, nc = index.around(cell[q])
        first = cursor[nc]
        np.add.at(cursor, cell[s:e][listed[s:e]], 1)
        if q.size == 0:
            continue
        last = cursor[nc]
        found = list(conflicts(q[row], first, last - first))
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
            for _, b in conflicts(q[row[take]], last[take], end[nc[take]] - last[take]):
                alive[b] = False
        alive[s:e] = False
        if 2 * np.count_nonzero(alive) < entry.size:
            # drop the dead entries once they are half of them
            listed = alive.copy()
            entry = entry[alive[entry]]
            if entry.size == 0:
                break
            cursor, end = cell_runs(entry)
    return kept_total


def _adjacent_pairs(index: _CellIndex, members: np.ndarray) -> int:
    """The number of pairs of `members` whose step-0 cells are adjacent
    (a cell is adjacent to itself): sum over cells c of n_c times the
    members of the cells around c, less the members themselves, halved."""
    count = np.bincount(index.cell_of[members], minlength=index.near_start.size - 1).astype(np.int32)
    around = np.add.reduceat(count[index.near], index.near_start[:-1], dtype=np.int32)
    return (int(count.astype(np.int64) @ around.astype(np.int64)) - members.size) // 2


def _conflict_graph(xs, ys, ls, eps: float, circ: bool, members: np.ndarray, index: _CellIndex):
    """(p, q, steps): every pair of `members` within eps at step 0, once,
    and the number of leading steps of xs, ys, ls at which it stays within
    eps (`_bowen_step`, the sweep's test).

    The members are listed cell by cell. Each pair of adjacent occupied
    cells c < c' contributes its n_c n_c' pairs, and each cell the
    n_c (n_c - 1) / 2 pairs of its own members; they are expanded at most
    `PAIR_BUDGET` at a time.
    """
    cell = index.cell_of[members]
    entry = members[np.argsort(cell, kind="stable")]
    count = np.bincount(cell, minlength=index.near_start.size - 1)
    first = np.cumsum(count) - count
    # (c, c') for each pair of occupied cells adjacent to each other, c <= c'
    owner = np.repeat(np.arange(count.size, dtype=np.int32), np.diff(index.near_start))
    take = index.near >= owner
    take &= count[index.near] > 0
    take &= count[owner] > 0
    c, c2 = owner[take], index.near[take]
    del owner, take  # as large as the index: freed before the pairs are expanded
    same = c == c2
    # member u of c meets member v of c'; within a cell, v' = v - 1 >= u
    width = count[c2] - same
    size = count[c] * width
    ends = np.cumsum(size)
    found = []
    for t0 in range(0, int(ends[-1]) if ends.size else 0, PAIR_BUDGET):
        t = np.arange(t0, min(t0 + PAIR_BUDGET, int(ends[-1])))
        r = np.searchsorted(ends, t, side="right")
        u, v = np.divmod(t - (ends[r] - size[r]), width[r])
        once = ~same[r] | (v >= u)
        r, u, v = r[once], u[once], v[once] + same[r[once]]
        p, q = entry[first[c[r]] + u], entry[first[c2[r]] + v]
        near = _bowen_step(circ, ls[0][q], xs[0][q], ys[0][q], ls[0][p], xs[0][p], ys[0][p]) <= eps
        found.append((p[near], q[near]))
    p, q = (np.concatenate(v) for v in zip(*found)) if found else (np.empty(0, dtype=np.intp),) * 2
    # the later steps, on the few pairs within eps at step 0
    steps = np.ones(p.size, dtype=np.int32)
    live = np.arange(p.size)
    for i in range(1, xs.shape[0]):
        ip, iq = p[live], q[live]
        live = live[_bowen_step(circ, ls[i][iq], xs[i][iq], ys[i][iq], ls[i][ip], xs[i][ip], ys[i][ip]) <= eps]
        if live.size == 0:
            break
        steps[live] += 1
    return p, q, steps


def _graph_first_fit(p: np.ndarray, q: np.ndarray, order: np.ndarray, n_pts: int) -> int:
    """Size of the first-fit set over `order`, a permutation of some of
    n_pts candidates, whose conflicts are the pairs (p[k], q[k]) with both
    ends in `order`.

    Only candidates with a later conflict can kill: they are visited in
    `order`, and each one still alive kills its later conflicts, so the
    loop runs over the conflicts, not over the candidates.
    """
    rank = np.full(n_pts, order.size)
    rank[order] = np.arange(order.size)
    rp, rq = rank[p], rank[q]
    lo, hi = np.minimum(rp, rq), np.maximum(rp, rq)
    inside = hi < order.size
    lo, hi = lo[inside], hi[inside]
    if lo.size == 0:
        return order.size
    sort = np.argsort(lo, kind="stable")
    lo, hi = lo[sort], hi[sort]
    bounds = np.r_[0, np.flatnonzero(lo[1:] != lo[:-1]) + 1, lo.size].tolist()
    heads, hi = lo[bounds[:-1]].tolist(), hi.tolist()
    dead = set()
    for head, s, e in zip(heads, bounds, bounds[1:]):
        if head not in dead:
            dead.update(hi[s:e])
    return order.size - len(dead)


def _pack_depths(xs, ys, ls, eps: float, circ: bool, depths, orders, index: _CellIndex) -> list[int]:
    """First-fit sizes at each depth n of `depths` (ascending), over orders[k] at depth depths[k].

    Each order's candidates lie among the first order's. The pairs of
    those in adjacent cells are counted first (`_adjacent_pairs`). If they
    are at most `PAIR_BUDGET` times the number of `BLOCK`s the sweep would
    resolve over all depths, so that expanding each pair once costs no
    more chunks than the sweep has blocks, one conflict graph is built
    (`_conflict_graph` over the first order's candidates and depths[-1]
    steps), and at depth n a pair conflicts when it stays within eps for
    at least n leading steps and both ends are in the order
    (`_graph_first_fit`). Otherwise the cloud is dense, its pairs grow
    quadratically, and it is swept depth by depth (`_greedy_pack`), which
    tests only the pairs a kept candidate reaches. Both count exactly
    candidate-by-candidate first-fit.
    """
    blocks = sum(-(-order.size // BLOCK) for order in orders)
    members = np.sort(orders[0])
    if _adjacent_pairs(index, members) > PAIR_BUDGET * blocks:
        return [_greedy_pack(xs[:n], ys[:n], ls[:n], eps, circ, order, index) for n, order in zip(depths, orders)]
    top = depths[-1]
    p, q, steps = _conflict_graph(xs[:top], ys[:top], ls[:top], eps, circ, members, index)
    out = []
    for n, order in zip(depths, orders):
        hit = steps >= n
        out.append(_graph_first_fit(p[hit], q[hit], order, xs.shape[1]))
    return out


def entropy_lower_bound(
    fam: HenonFamily,
    base: BaseSystem,
    eps: float,
    n_range,
    n_candidates: int = 100_000,
    seed: int = 0,
    flt: FiltrationRadius | None = None,
    candidates=None,
) -> list[SeparatedSetEstimate]:
    """Greedy (n, eps)-separated estimates over the requested depths.

    `candidates` may carry a precomputed (lam, x, y) triple, from
    draw_candidates with any window or threshold, to reuse one cloud
    across eps/n sweeps; None draws n_candidates from the filtration
    bidisc with the default threshold. One cell index of the cloud's
    step-0 points (`_cell_index`) serves the packing at every depth, and
    a sparse cloud is packed at every depth from one conflict graph
    (`_pack_depths`). Each depth draws its own shuffled order, so s_n does
    not depend on the path.
    """
    if not eps > 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    if n_candidates < 1:
        raise ValidationError(f"n_candidates must be at least 1, got {n_candidates}")
    n_range = list(n_range)
    if not n_range or min(n_range) < 1:
        raise ValidationError(f"entropy depths must be a non-empty range of n >= 1, got {n_range}")
    if base.sigma.kind == SHIFT:
        raise UnsupportedBase("entropy packing needs a pointwise base dynamics")
    flt = resolve_radius(fam, flt, base.space)
    if candidates is None:
        candidates = draw_candidates(fam, base, None, n_candidates, seed, flt=flt)
    lam, x, y = candidates
    if any(np.ndim(v) != 1 for v in (lam, x, y)) or not len(lam) == len(x) == len(y):
        raise ValidationError("candidate base points and coordinates must be 1-d arrays of one length")
    if not all(np.isfinite(v).all() for v in (lam, x, y)):
        raise ValidationError("candidate base points and coordinates must be finite")
    if not len(lam):
        raise EmptyCandidateSet("the candidate cloud has no points")
    depths = sorted(n_range)
    xs, ys, ls, ok_hist = _orbit_track(fam, base, lam, x, y, depths[-1], flt.R)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    orders = []
    for n in depths:
        keep = np.flatnonzero(ok_hist[n - 1])
        if keep.size == 0:
            raise EmptyCandidateSet(f"no candidate orbit stays in the bidisc for {n} steps")
        orders.append(keep[rng.permutation(keep.size)])
    index = _cell_index(xs[0], ys[0], eps)
    sizes = _pack_depths(xs, ys, ls, eps, base.space.kind == CIRCLE, depths, orders, index)
    return [SeparatedSetEstimate(n=n, eps=eps, s_n=s_n, survivors=order.size)
            for n, order, s_n in zip(depths, orders, sizes)]
