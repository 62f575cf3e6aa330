"""Uniform filtration radius and invariance checks.

The plane splits into V_R (bidisc), V_R^+ (|y| >= |x|, |y| > R) and
V_R^- (|y| < |x|, |x| > R). A radius R with |p_j(y)| >= (2+a)|y| on
|y| >= R for every factor and every sampled base point makes V_R^+
forward invariant and V_R^- backward invariant, uniformly over the base.

This module also derives the one-step potential-increment bound K with
|G_(n+1) - G_n| <= K d^(-n) on V_R u V_R^+ (and the analogue for the
inverse direction), which is what certifies Green-function tails, and the
per-step distortion bound e(rho) on V_R^+ at a point's own radius, which
certifies a forward point's tail before the uniform one is small enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .base import BaseSpace
from .errors import DegenerateFamily, UnsupportedBase
from .family import JACOBIAN_FLOOR, HenonFamily, eval_inverse, eval_map

DEFAULT_MARGIN = 1.1
DEFAULT_GRID = 64


@dataclass(frozen=True)
class FiltrationRadius:
    """Uniform filtration radius with the derived family constants.

    K_plus / K_minus bound the one-step increment of the normalized
    log-potential in the forward / backward direction; tails of depth n
    are then bounded by K * d/(d-1) * d^(-n).
    """

    R: float
    margin: float
    samples: int
    degree: int
    a_sup: float
    a_inf: float
    coeff_sums: tuple[float, ...]
    factor_degrees: tuple[int, ...]
    K_plus: float
    K_minus: float

    def tail_bound(self, n: int, inverse: bool = False) -> float:
        K = self.K_minus if inverse else self.K_plus
        d = self.degree
        return K * d / (d - 1) * d ** (-float(n))

    def bidisc_cap(self, inverse: bool = False) -> float:
        """M = log(sqrt(2) R) + K d/(d-1): a bound on G over the bidisc V_R.

        log+||z|| is at most log(sqrt(2) R) on V_R, and the increments
        beyond it sum to at most K d/(d-1) (K_plus forward, K_minus
        backward). A point whose orbit lies in V_R at depth n therefore has
        G <= d^(-n) M.
        """
        return math.log(math.sqrt(2.0) * self.R) + self.tail_bound(0, inverse)

    def wedge_distortion(self, inv_rho):
        """Forward per-step log-distortion bound e(rho) on V_R^+ at |y| = rho.

        e(rho) = sum_j (d/d_j) * -log(1 - (S_j + a_sup)/rho) bounds
        |log|y'| - d log|y|| over one map step from a point with |y| = rho.
        It falls with rho, and at rho = R it is the wedge term of K_plus.
        Takes 1/rho so that log-form radii beyond the double range give 0.
        """
        return sum(
            self.degree / dj * -np.log1p(-(S + self.a_sup) * inv_rho)
            for dj, S in zip(self.factor_degrees, self.coeff_sums)
        )

    @cached_property
    def rho_star(self) -> float:
        """Radius below which an explicit point of V_R^+ cannot pass the own-tail rule.

        The rule needs e(rho)/(d-1) <= eps * log||z|| (green.py). Since
        -log1p(-t) >= t, e(rho)/(d-1) >= C/rho with
        C = sum_j (d/d_j)(S_j + a_sup) / (d-1), and log||z|| <= log(sqrt(2) rho)
        on V_R^+; so it needs rho log(sqrt(2) rho) >= C/eps. rho_star solves
        this with 2 eps in place of eps, a margin for the rounding of the
        evaluated bound. Fixed-point steps rho <- C/(2 eps log(sqrt(2) rho))
        alternate around the root, so the smaller of the last two is below it.
        """
        d = self.degree
        c = sum(d / dj * (S + self.a_sup) for dj, S in zip(self.factor_degrees, self.coeff_sums)) / (d - 1)
        k = c / (2.0 * np.finfo(float).eps)
        rho = prev = max(self.R, 2.0)
        for _ in range(64):
            prev, rho = rho, k / math.log(math.sqrt(2.0) * rho)
        return min(rho, prev)

    def depth_for(self, tol: float, inverse: bool = False) -> int:
        """Smallest n with tail_bound(n) < tol."""
        n = 1
        while self.tail_bound(n, inverse) >= tol:
            n += 1
        return n


def compute_radius(
    fam: HenonFamily,
    space: BaseSpace,
    margin: float = DEFAULT_MARGIN,
    grid: int = DEFAULT_GRID,
) -> FiltrationRadius:
    """R = margin * max_j sup_lam (sum_i |c_{j,i}(lam)| + 2 + a).

    The sup runs over a finite base grid; `margin` >= 1 absorbs the gap
    between grid and true sup. Guarantees |p(y)| >= |y|^(d-1)(|y| - sum|c|)
    >= (2+a)|y| for |y| >= R.
    """
    lam = space.grid(grid)
    a_vals = []
    for j, f in enumerate(fam.factors):
        av = np.abs(np.atleast_1d(np.asarray(f.a(lam), dtype=complex)))
        if av.min() < JACOBIAN_FLOOR:
            raise DegenerateFamily(f"factor {j}: |a| reaches {av.min():.3e} on the grid")
        a_vals.append(av)
    a_sup = max(float(av.max()) for av in a_vals)
    a_inf = min(float(av.min()) for av in a_vals)

    coeff_sums = []
    for f in fam.factors:
        s = np.zeros(np.shape(np.atleast_1d(lam)), dtype=float)
        for c in f.coeffs:
            s = s + np.abs(np.atleast_1d(np.asarray(c(lam), dtype=complex)))
        coeff_sums.append(float(s.max()))

    R = margin * max(s + 2.0 + a_sup for s in coeff_sums)
    d = fam.degree

    # Per-factor log-distortion on the invariant wedges:
    #   forward, on V_R^+:  |y'| / |y|^dj  in  [(R - S - a)/R, 1 + (S + a)/R]
    #   backward, on V_R^-: |x'| / |x|^dj  in  [(R - S - 1)/(R a_sup), (1 + (S+1)/R)/a_inf]
    # Composition multiplies each factor's error by at most d/dj, and the
    # bidisc case adds the log(sqrt(2) R) cap of the potential there.
    e_plus = e_minus = 0.0
    e_plus_box = e_minus_box = 0.0
    for f, S in zip(fam.factors, coeff_sums):
        lo = (R - S - a_sup) / R
        hi = 1.0 + (S + a_sup) / R
        kp = max(abs(math.log(lo)), abs(math.log(hi)))
        lo_m = (R - S - 1.0) / (R * a_sup)
        hi_m = (1.0 + (S + 1.0) / R) / a_inf
        km = max(abs(math.log(lo_m)), abs(math.log(hi_m)))
        e_plus += kp * d / f.degree
        e_minus += km * d / f.degree
        e_plus_box += math.log(1.0 + S + a_sup) * d / f.degree
        e_minus_box += math.log((2.0 + S) / a_inf) * d / f.degree

    box_cap = math.log(math.sqrt(2.0) * R)
    K_plus = max(e_plus / d + math.log(2.0), box_cap + e_plus_box / d)
    K_minus = max(e_minus / d + math.log(2.0), box_cap + e_minus_box / d)

    return FiltrationRadius(
        R=float(R),
        margin=margin,
        samples=grid,
        degree=d,
        a_sup=a_sup,
        a_inf=a_inf,
        coeff_sums=tuple(coeff_sums),
        factor_degrees=tuple(f.degree for f in fam.factors),
        K_plus=K_plus,
        K_minus=K_minus,
    )


def resolve_radius(fam: HenonFamily, flt: FiltrationRadius | None, space: BaseSpace | None = None, seq=None) -> FiltrationRadius:
    """`flt` if given, else compute_radius over `space` or, failing that, `seq.space`."""
    if flt is not None:
        return flt
    sp = space if space is not None else getattr(seq, "space", None)
    if sp is None:
        raise UnsupportedBase("need flt or a base space to derive the filtration constants")
    return compute_radius(fam, sp)


def region_masks(x: np.ndarray, y: np.ndarray, R: float):
    """(in V_R^+, in V_R^-, in V_R) masks: a partition of C^2."""
    ax, ay = np.abs(x), np.abs(y)
    plus = (ay >= ax) & (ay > R)
    minus = (ay < ax) & (ax > R)
    box = ~plus & ~minus
    return plus, minus, box


def _sample_regions(rng: np.random.Generator, R: float, n: int):
    """Points in V_R^+, V_R^- and V_R (log-uniform radial spread)."""
    rad = R * np.exp(rng.uniform(1e-6, math.log(10.0), size=n))
    sub = rng.uniform(0.0, 1.0, size=n) * rad
    ph1 = np.exp(2j * math.pi * rng.uniform(size=n))
    ph2 = np.exp(2j * math.pi * rng.uniform(size=n))
    plus = (sub * ph1, rad * ph2)
    rad_m = R * np.exp(rng.uniform(1e-6, math.log(10.0), size=n))
    sub_m = rng.uniform(0.0, 1.0, size=n) * rad_m
    minus = (rad_m * np.exp(2j * math.pi * rng.uniform(size=n)), sub_m * np.exp(2j * math.pi * rng.uniform(size=n)))
    box = (
        rng.uniform(0.0, R, size=n) * np.exp(2j * math.pi * rng.uniform(size=n)),
        rng.uniform(0.0, R, size=n) * np.exp(2j * math.pi * rng.uniform(size=n)),
    )
    return plus, minus, box


@dataclass(frozen=True)
class InvarianceReport:
    """Violation counts for the four filtration invariance relations."""

    R: float
    n_points: int
    lam_count: int
    fwd_plus: int
    fwd_plus_box: int
    bwd_minus: int
    bwd_minus_box: int

    @property
    def total_violations(self) -> int:
        return self.fwd_plus + self.fwd_plus_box + self.bwd_minus + self.bwd_minus_box

    def rows(self) -> list[tuple[str, int]]:
        return [
            ("H(V+) in V+", self.fwd_plus),
            ("H(V+ u V) in V+ u V", self.fwd_plus_box),
            ("Hinv(V-) in V-", self.bwd_minus),
            ("Hinv(V- u V) in V- u V", self.bwd_minus_box),
        ]

    def as_csv(self) -> str:
        lines = ["relation,violations"]
        lines += [f"{name},{count}" for name, count in self.rows()]
        return "\n".join(lines) + "\n"


def check_invariance(
    fam: HenonFamily,
    space: BaseSpace,
    R: float,
    n_points: int = 10_000,
    seed: int = 0,
    lam_grid: int = 16,
) -> InvarianceReport:
    """Sample the three regions over a base grid and count violations.

    Per base point V_R^+ u V_R is mapped forward and V_R^- u V_R backward,
    once each; the wedge-only relations read the first per_lam images.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    lam_all = space.grid(lam_grid)
    fwd_plus = fwd_plus_box = bwd_minus = bwd_minus_box = 0
    per_lam = max(1, n_points // max(1, len(lam_all)))
    for lam in np.atleast_1d(lam_all):
        (px, py), (mx, my), (bx, by) = _sample_regions(rng, R, per_lam)
        fx, fy = eval_map(fam, lam, (np.concatenate((px, bx)), np.concatenate((py, by))))
        plus, minus, _ = region_masks(fx, fy, R)
        fwd_plus += int(np.count_nonzero(~plus[:per_lam]))
        fwd_plus_box += int(np.count_nonzero(minus))  # image must avoid V_R^-

        kx, ky = eval_inverse(fam, lam, (np.concatenate((mx, bx)), np.concatenate((my, by))))
        plus, minus, _ = region_masks(kx, ky, R)
        bwd_minus += int(np.count_nonzero(~minus[:per_lam]))
        bwd_minus_box += int(np.count_nonzero(plus))  # image must avoid V_R^+

    return InvarianceReport(
        R=R,
        n_points=per_lam * len(np.atleast_1d(lam_all)),
        lam_count=len(np.atleast_1d(lam_all)),
        fwd_plus=fwd_plus,
        fwd_plus_box=fwd_plus_box,
        bwd_minus=bwd_minus,
        bwd_minus_box=bwd_minus_box,
    )
