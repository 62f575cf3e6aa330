"""Topological entropy lower bounds via greedy (n, eps)-separated packing.

The Bowen metric on the skew product is
d_n(p, q) = max over 0 <= i < n of [base dist + fiber dist] of the i-step
images. Greedy first-fit packing of a candidate cloud near the chaotic
region gives s_n(eps); rate = log(s_n)/n lower-bounds the entropy (which
is at least log d on the Julia set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import CIRCLE, SHIFT, BaseSystem, advance
from .errors import EmptyCandidateSet, UnsupportedBase, ValidationError
from .family import HenonFamily, eval_map
from .filtration import FiltrationRadius, resolve_radius
from .green import green_values


@dataclass(frozen=True)
class SeparatedSetEstimate:
    n: int
    eps: float
    s_n: int
    rate: float

    def __post_init__(self):
        if self.s_n < 1 or self.rate < 0:
            raise ValidationError("separated-set estimate needs s_n >= 1, rate >= 0")


def _base_dist(space_kind_is_circle: bool, a: np.ndarray, b) -> np.ndarray:
    if space_kind_is_circle:
        t = np.abs(a.real - np.real(b)) % 1.0
        return np.minimum(t, 1.0 - t)
    return np.abs(a - b)


def _orbit_track(fam: HenonFamily, base: BaseSystem, lam: np.ndarray, x: np.ndarray, y: np.ndarray, n: int, R: float):
    """Skew orbits (lam_i, z_i) for 0 <= i < n.

    ok_hist[k] marks candidates staying in V_R through step k. Orbits are
    zeroed once they leave the bidisc (their later steps are never used),
    which keeps the explicit arithmetic overflow-free.
    """
    n_pts = len(x)
    xs = np.empty((n, n_pts), dtype=complex)
    ys = np.empty((n, n_pts), dtype=complex)
    ls = np.empty((n, n_pts), dtype=complex)
    ok_hist = np.empty((n, n_pts), dtype=bool)
    ok = (np.abs(x) <= R) & (np.abs(y) <= R)
    xs[0], ys[0], ls[0] = np.where(ok, x, 0), np.where(ok, y, 0), lam
    ok_hist[0] = ok
    for i in range(1, n):
        lam_prev = np.atleast_1d(np.asarray(advance(base.sigma, lam, i - 1), dtype=complex))
        xi, yi = eval_map(fam, lam_prev, (xs[i - 1], ys[i - 1]))
        ok = ok & (np.abs(xi) <= R) & (np.abs(yi) <= R)
        xs[i] = np.where(ok, xi, 0)
        ys[i] = np.where(ok, yi, 0)
        ls[i] = advance(base.sigma, lam, i)
        ok_hist[i] = ok
    return xs, ys, ls, ok_hist


def dn_distance(fam: HenonFamily, base: BaseSystem, p, q, n: int, flt: FiltrationRadius | None = None) -> float:
    """Bowen distance between p = (lam, (x, y)) and q at depth n."""
    if n < 1:
        raise ValidationError("dn_distance needs n >= 1")
    if base.sigma.kind == SHIFT:
        raise UnsupportedBase("Bowen metric needs a pointwise base dynamics")
    lam_p, zp = p
    lam_q, zq = q
    lam = np.array([lam_p, lam_q], dtype=complex)
    x = np.array([zp[0], zq[0]], dtype=complex)
    y = np.array([zp[1], zq[1]], dtype=complex)
    best = 0.0
    circ = base.space.kind == CIRCLE
    for i in range(n):
        fiber = math.hypot(abs(x[0] - x[1]), abs(y[0] - y[1]))
        bd = float(_base_dist(circ, lam[:1], lam[1])[0])
        best = max(best, bd + fiber)
        if i < n - 1:
            x, y = eval_map(fam, lam, (x, y))
            lam = np.asarray(advance(base.sigma, lam, 1), dtype=complex)
    return best


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
        gp, _, _ = green_values(fam, base, lam, x, y, tol, n_max, flt)
        if use_pluri:
            gm, _, _ = green_values(fam, base, lam, x, y, tol, n_max, flt, inverse=True,
                                    backward_base=base.sigma.invertible)
            keep = np.maximum(gp, gm) < green_threshold
        else:
            keep = gp < green_threshold
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

    d_n dominates the step-0 fiber distance, so candidates within eps of
    a kept point must sit in one of its 3^4 adjacent eps-cells; only
    those are tested against the full Bowen max, stagewise.
    """
    n = xs.shape[0]
    keys = np.stack(
        [
            np.floor(xs[0].real[order] / eps).astype(np.int64),
            np.floor(xs[0].imag[order] / eps).astype(np.int64),
            np.floor(ys[0].real[order] / eps).astype(np.int64),
            np.floor(ys[0].imag[order] / eps).astype(np.int64),
        ],
        axis=1,
    )
    bins: dict[tuple[int, ...], list[int]] = {}
    for pos, key in enumerate(map(tuple, keys)):
        bins.setdefault(key, []).append(pos)
    bin_arrays = {k: np.asarray(v) for k, v in bins.items()}

    alive = np.ones(order.size, dtype=bool)
    offsets = [
        (a, b, c, d)
        for a in (-1, 0, 1)
        for b in (-1, 0, 1)
        for c in (-1, 0, 1)
        for d in (-1, 0, 1)
    ]
    count = 0
    for pos in range(order.size):
        if not alive[pos]:
            continue
        count += 1
        alive[pos] = False
        k = order[pos]
        key = tuple(keys[pos])
        hood = [
            bin_arrays[nk]
            for nk in ((key[0] + o[0], key[1] + o[1], key[2] + o[2], key[3] + o[3]) for o in offsets)
            if nk in bin_arrays
        ]
        if not hood:
            continue
        cand_pos = np.concatenate(hood)
        cand_pos = cand_pos[alive[cand_pos]]
        idx = order[cand_pos]
        near = np.ones(cand_pos.size, dtype=bool)
        sub = idx
        for i in range(n):
            if sub.size == 0:
                break
            bd = _base_dist(circ, ls[i][sub], ls[i][k])
            fd = np.hypot(np.abs(xs[i][sub] - xs[i][k]), np.abs(ys[i][sub] - ys[i][k]))
            still = (bd + fd) <= eps
            keep_pos = np.flatnonzero(near)
            near[keep_pos[~still]] = False
            sub = order[cand_pos[near]]
        alive[cand_pos[near]] = False
    return count


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
        out.append(SeparatedSetEstimate(n=n, eps=eps, s_n=s_n, rate=math.log(s_n) / n if s_n > 1 else 0.0))
    return out
