"""Uniform filtration radius and invariance checks.

The plane splits into V_R (bidisc), V_R^+ (|y| >= |x|, |y| > R) and
V_R^- (|y| < |x|, |x| > R). A radius R with |p_j(y)| >= (2+a)|y| on
|y| >= R for every factor and every sampled base point makes V_R^+
forward invariant and V_R^- backward invariant, uniformly over the base.

FiltrationRadius is the record of one map direction: its one-step
potential-increment bound K, with |G_(n+1) - G_n| <= K d^(-n) on V_R u V_R^+
(V_R u V_R^- backward), which certifies Green-function tails, and, forward
only, the per-step distortion bound e(rho) on V_R^+ at a point's own radius,
which certifies a point's tail before the uniform one is small enough.

check_invariance cross-checks R on random points of the three regions.
Per base point it draws all of its uniform numbers first, then builds and
maps the points in blocks of at most BLOCK per region, with the phases
e^(2 pi i u) read off a table of PHASE_TABLE roots of unity and corrected
by a short series (_phases) rather than taken from a complex exp. The
block size changes neither the sample nor the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .base import BaseSpace
from .errors import DegenerateFamily, UnsupportedBase, ValidationError
from .family import JACOBIAN_FLOOR, HenonFamily, eval_inverse, eval_map

DEFAULT_MARGIN = 1.1
DEFAULT_GRID = 64


@dataclass(frozen=True)
class FiltrationRadius:
    """Uniform filtration radius with the family constants of one map direction.

    compute_radius gives the forward record and toward(inverse) either one.
    Tails of depth n are bounded by K * d/(d-1) * d^(-n). The own-tail rule
    and the trapping bidisc exist only forward, so the backward record has
    rho_star = inf and trap_radius = 0.
    """

    R: float
    margin: float
    a_sup: float
    a_inf: float
    coeff_sums: tuple[float, ...]
    factor_degrees: tuple[int, ...]
    inverse: bool = False

    @cached_property
    def degree(self) -> int:
        """d = prod d_j, the product of the factor degrees."""
        return math.prod(self.factor_degrees)

    def toward(self, inverse: bool) -> FiltrationRadius:
        """The record of the backward (inverse) or forward direction."""
        return self if inverse == self.inverse else self._reverse

    @cached_property
    def _reverse(self) -> FiltrationRadius:
        """The other direction's record, built once and linked back to this one."""
        rev = replace(self, inverse=not self.inverse)
        rev.__dict__["_reverse"] = self
        return rev

    @cached_property
    def K(self) -> float:
        """One-step increment bound: |G_(n+1) - G_n| <= K d^(-n) on V_R and the wedge.

        Per-factor log-distortion on the invariant wedge:
          forward, on V_R^+:  |y'| / |y|^dj  in  [(R - S - a)/R, 1 + (S + a)/R]
          backward, on V_R^-: |x'| / |x|^dj  in  [(R - S - 1)/(R a_sup), (1 + (S+1)/R)/a_inf]
        Composition multiplies each factor's error by at most d/dj, and the
        bidisc case adds the log(sqrt(2) R) cap of the potential there.
        """
        R, d, a_sup, a_inf = self.R, self.degree, self.a_sup, self.a_inf
        e = e_box = 0.0
        for dj, S in zip(self.factor_degrees, self.coeff_sums):
            if self.inverse:
                lo, hi = (R - S - 1.0) / (R * a_sup), (1.0 + (S + 1.0) / R) / a_inf
                box = math.log((2.0 + S) / a_inf)
            else:
                lo, hi = (R - S - a_sup) / R, 1.0 + (S + a_sup) / R
                box = math.log(1.0 + S + a_sup)
            e += max(abs(math.log(lo)), abs(math.log(hi))) * d / dj
            e_box += box * d / dj
        return max(e / d + math.log(2.0), math.log(math.sqrt(2.0) * R) + e_box / d)

    def tail_bound(self, n: int) -> float:
        d = self.degree
        return self.K * d / (d - 1) * d ** (-float(n))

    def bidisc_cap(self) -> float:
        """M = log(sqrt(2) R) + K d/(d-1): a bound on G over the bidisc V_R.

        log+||z|| is at most log(sqrt(2) R) on V_R, and the increments
        beyond it sum to at most K d/(d-1). A point whose orbit lies in V_R
        at depth n therefore has G <= d^(-n) M.
        """
        return math.log(math.sqrt(2.0) * self.R) + self.tail_bound(0)

    def wedge_distortion(self, inv_rho):
        """Forward per-step log-distortion bound e(rho) on V_R^+ at |y| = rho.

        e(rho) = sum_j (d/d_j) * -log(1 - (S_j + a_sup)/rho) bounds
        |log|y'| - d log|y|| over one map step from a point with |y| = rho.
        It falls with rho, and at rho = R it is the wedge term of the
        forward K. Takes 1/rho so that log-form radii beyond the double
        range give 0.
        """
        return sum(
            self.degree / dj * -np.log1p(-(S + self.a_sup) * inv_rho)
            for dj, S in zip(self.factor_degrees, self.coeff_sums)
        )

    @cached_property
    def rho_star(self) -> float:
        """Radius below which a point of V_R^+ cannot pass the own-tail rule; inf backward.

        The rule needs e(rho)/(d-1) <= eps * log||z|| (green.py). Since
        -log1p(-t) >= t, e(rho)/(d-1) >= C/rho with
        C = sum_j (d/d_j)(S_j + a_sup) / (d-1), and log||z|| <= log(sqrt(2) rho)
        on V_R^+; so it needs rho log(sqrt(2) rho) >= C/eps. rho_star solves
        this with 2 eps in place of eps, a margin for the rounding of the
        evaluated bound. Fixed-point steps rho <- C/(2 eps log(sqrt(2) rho))
        alternate around the root, so the smaller of the last two is below it.
        """
        if self.inverse:
            return math.inf
        d = self.degree
        c = sum(d / dj * (S + self.a_sup) for dj, S in zip(self.factor_degrees, self.coeff_sums)) / (d - 1)
        k = c / (2.0 * np.finfo(float).eps)
        rho = prev = max(self.R, 2.0)
        for _ in range(64):
            prev, rho = rho, k / math.log(math.sqrt(2.0) * rho)
        return min(rho, prev)

    @cached_property
    def trap_radius(self) -> float:
        """Largest r <= 1 with r^(d_j) + m (S_j + a_sup r) <= r for every factor j, else 0.

        Here m is the margin and S_j the coefficient sum of factor j. On
        the bidisc D_r = {|x| <= r, |y| <= r} a factor maps (x, y) to
        (y, p_j(y) - a x). The first coordinate y stays in the disc, and
        |p_j(y) - a x| <= r^(d_j) + S_j + a_sup r, because |y|^i <= 1 for
        i < d_j when r <= 1. That is at most r - (m - 1)(S_j + a_sup r). So
        every factor maps D_r into itself, at every base point whose sums
        the grid sups S_j and a_sup bound up to the margin, the same
        allowance that R takes. With m > 1 the slack (m - 1)(S_j + a_sup r)
        is far above the rounding of one double step. Since r <= 1 < R,
        D_r lies in V_R. A forward orbit that enters D_r therefore stays
        in V_R for good: it is bounded (green.py). No such disc exists
        backward, where the inverse factors expand for |a| < 1, so the
        backward record has 0.

        f_j(r) = r^(d_j) + m (S_j + a_sup r) - r is convex, so f_j <= 0
        on an interval. Its least value is at
        r_j = ((1 - m a_sup)/d_j)^(1/(d_j - 1)), and f_j(1) > 0, so the
        right end of the interval is found by bisection on [r_j, 1].
        """
        m, a = self.margin, self.a_sup
        if self.inverse or m * a >= 1.0:
            return 0.0  # no disc backward; forward, f_j increases from f_j(0) = m S_j >= 0

        def f(r, dj, S):
            return r ** dj + m * (S + a * r) - r

        ends = []
        for dj, S in zip(self.factor_degrees, self.coeff_sums):
            lo, hi = ((1.0 - m * a) / dj) ** (1.0 / (dj - 1)), 1.0
            if f(lo, dj, S) > 0.0:
                return 0.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if f(mid, dj, S) <= 0.0 else (lo, mid)
            ends.append(lo)
        r = min(ends)
        if any(f(r, dj, S) > 0.0 for dj, S in zip(self.factor_degrees, self.coeff_sums)):
            return 0.0
        return r

    def depth_for(self, tol: float) -> int:
        """Smallest n with tail_bound(n) < tol.

        tol must be positive (inf is allowed): tail_bound underflows to 0
        near n = 1075, so a tol <= 0 would loop forever, and a NaN tol
        would certify nothing.
        """
        if not tol > 0:
            raise ValidationError(f"tol must be positive, got {tol}")
        n = 1
        while self.tail_bound(n) >= tol:
            n += 1
        return n


def compute_radius(
    fam: HenonFamily,
    space: BaseSpace,
    margin: float = DEFAULT_MARGIN,
) -> FiltrationRadius:
    """R = margin * max_j sup_lam (sum_i |c_{j,i}(lam)| + 2 + a).

    The sup runs over the base grid of DEFAULT_GRID points per axis;
    `margin` >= 1 absorbs the gap between grid and true sup. Guarantees
    |p(y)| >= |y|^(d-1)(|y| - sum|c|) >= (2+a)|y| for |y| >= R.
    """
    lam = space.grid(DEFAULT_GRID)
    a_vals = []
    coeff_sums = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
        for j, f in enumerate(fam.factors):
            av = np.abs(np.atleast_1d(np.asarray(f.a(lam), dtype=complex)))
            if av.min() < JACOBIAN_FLOOR:
                raise DegenerateFamily(f"factor {j}: |a| reaches {av.min():.3e} on the grid")
            a_vals.append(av)
            s = np.zeros(np.shape(np.atleast_1d(lam)), dtype=float)
            for c in f.coeffs:
                s = s + np.abs(np.atleast_1d(np.asarray(c(lam), dtype=complex)))
            coeff_sums.append(float(s.max()))
    a_all = np.concatenate(a_vals)
    a_sup, a_inf = float(a_all.max()), float(a_all.min())

    R = margin * max(s + 2.0 + a_sup for s in coeff_sums)
    if not np.isfinite([R, a_sup, a_inf, *coeff_sums]).all():  # finite base bounds can still overflow
        raise ValidationError(f"filtration constants are not finite: R = {R}, a in [{a_inf}, {a_sup}], "
                              f"coefficient sums {coeff_sums}")
    return FiltrationRadius(
        R=float(R),
        margin=margin,
        a_sup=a_sup,
        a_inf=a_inf,
        coeff_sums=tuple(coeff_sums),
        factor_degrees=tuple(f.degree for f in fam.factors),
    )


def resolve_radius(fam: HenonFamily, flt: FiltrationRadius | None, space: BaseSpace | None) -> FiltrationRadius:
    """`flt` if given, else compute_radius over `space`."""
    if flt is not None:
        return flt
    if space is None:
        raise UnsupportedBase("need flt or a base space to derive the filtration constants")
    return compute_radius(fam, space)


def region_masks(x: np.ndarray, y: np.ndarray, R: float):
    """(in V_R^+, in V_R^-, in V_R) masks: a partition of C^2."""
    ax, ay = np.abs(x), np.abs(y)
    plus = (ay >= ax) & (ay > R)
    minus = (ay < ax) & (ax > R)
    box = ~plus & ~minus
    return plus, minus, box


# e^(2 pi i k / PHASE_TABLE) for k < PHASE_TABLE: _phases reads a draw's
# phase off this table and corrects it by a short series.
PHASE_TABLE = 4096
_ROOTS = np.exp(2j * np.pi * np.arange(PHASE_TABLE) / PHASE_TABLE)

# Points per region that check_invariance builds and maps at a time. Chosen
# from a sweep over 4096 .. 32768 (CHANGES.md): smaller blocks were slower,
# larger ones held more memory and were no faster.
BLOCK = 8192


def _phases(u: np.ndarray) -> np.ndarray:
    """e^(2 pi i u) for u in [0, 1), without a complex exp.

    With t = PHASE_TABLE u (exact), k = floor(t) and phi = (t - k) 2 pi /
    PHASE_TABLE (one rounding), e^(2 pi i u) = _ROOTS[k] e^(i phi). Since
    0 <= phi < 1.6e-3, cos phi = 1 - phi^2/2 + phi^4/24 and
    sin phi = phi - phi^3/6 + phi^5/120 leave out less than 1e-19. Each
    component is within 2e-15 of np.exp(2j pi u).
    """
    t = u * PHASE_TABLE
    k = t.astype(np.intp)
    phi = t - k
    phi *= 2.0 * math.pi / PHASE_TABLE
    p2 = phi * phi
    rot = np.empty(len(u), dtype=complex)
    rot.real = 1.0 + p2 * (-1.0 / 2.0 + p2 * (1.0 / 24.0))
    rot.imag = phi * (1.0 + p2 * (-1.0 / 6.0 + p2 * (1.0 / 120.0)))
    w = _ROOTS[k]
    w *= rot
    return w


def _draws(rng: np.random.Generator, R: float, n: int) -> tuple[np.ndarray, ...]:
    """The twelve uniform arrays behind n points of each region, in draw order.

    V_R^+: radius, sub-radius fraction, x and y phases; V_R^-: the same;
    V_R: x radius and phase, y radius and phase. Slices of them give the
    points of a slice (_points).
    """
    def wedge():
        return (rng.uniform(1e-6, math.log(10.0), size=n), rng.uniform(0.0, 1.0, size=n),
                rng.uniform(size=n), rng.uniform(size=n))

    def box_coordinate():
        return rng.uniform(0.0, R, size=n), rng.uniform(size=n)

    return wedge() + wedge() + box_coordinate() + box_coordinate()


def _points(R: float, draws):
    """Points in V_R^+, V_R^- and V_R from _draws (log-uniform radial spread)."""
    ru, su, p1, p2, mru, msu, m1, m2, bxr, bx, byr, by = draws
    rad = R * np.exp(ru)
    rad_m = R * np.exp(mru)
    plus = (su * rad * _phases(p1), rad * _phases(p2))
    minus = (rad_m * _phases(m1), msu * rad_m * _phases(m2))
    box = (bxr * _phases(bx), byr * _phases(by))
    return plus, minus, box


def _sample_regions(rng: np.random.Generator, R: float, n: int):
    """n points in each of V_R^+, V_R^- and V_R (log-uniform radial spread)."""
    return _points(R, _draws(rng, R, n))


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

    Per base point the twelve uniform arrays of per_lam points are drawn
    at once (_draws), so the sample does not depend on BLOCK. The points
    are then built (_phases reads their phases off a table) and mapped in
    slices of at most BLOCK per region: V_R^+ u V_R forward and
    V_R^- u V_R backward, once each; the wedge-only relations read the
    first m images of a slice of m points.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    lam_all = space.grid(lam_grid)
    fwd_plus = fwd_plus_box = bwd_minus = bwd_minus_box = 0
    per_lam = max(1, n_points // max(1, len(lam_all)))
    for lam in np.atleast_1d(lam_all):
        draws = _draws(rng, R, per_lam)
        for lo in range(0, per_lam, BLOCK):
            (px, py), (mx, my), (bx, by) = _points(R, [u[lo:lo + BLOCK] for u in draws])
            m = len(px)
            fx, fy = eval_map(fam, lam, (np.concatenate((px, bx)), np.concatenate((py, by))))
            plus, minus, _ = region_masks(fx, fy, R)
            fwd_plus += int(np.count_nonzero(~plus[:m]))
            fwd_plus_box += int(np.count_nonzero(minus))  # image must avoid V_R^-

            kx, ky = eval_inverse(fam, lam, (np.concatenate((mx, bx)), np.concatenate((my, by))))
            plus, minus, _ = region_masks(kx, ky, R)
            bwd_minus += int(np.count_nonzero(~minus[:m]))
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
