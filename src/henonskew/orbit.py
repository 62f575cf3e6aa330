"""Orbit engine: vectorized orbit state, factor and map steps, base-point
suppliers and the step-to-depth loop.

Orbits are iterated explicitly until the dominant coordinate (y forward,
x backward) passes the switch bound, then in a log-scale form: L = log of
the dominant coordinate, r = subordinate / dominant, u = 1 / dominant.
The bound keeps every explicit factor step representable in doubles, so
coordinate growth of order 10^(d^n) is iterated without overflow.
"""

from __future__ import annotations

import numpy as np

from .base import SHIFT, BaseDynamics, FrozenSequence, advance
from .errors import NotInvertible, UnsupportedBase
from .family import HenonFamily, factor_step

# Largest switch bound; factors of degree > 15 get 10^(300/degree) so that
# p(y) stays below 1e300 on explicit entries.
OVERFLOW_SWITCH = 1e20


def switch_bound(fam: HenonFamily) -> float:
    """Dominant-coordinate bound above which orbits are held in log form."""
    return min(OVERFLOW_SWITCH, 10.0 ** (300.0 / max(f.degree for f in fam.factors)))


class Orbit:
    """Vectorized orbit state: explicit points plus log-scale entries.

    For forward orbits the log form tracks the dominant y coordinate
    (L = log|y|, r = x/y, u = 1/y); for inverse orbits the roles of x and
    y swap. Start points whose dominant coordinate is already above the
    switch bound enter log form at step 0; from the first step on, log
    entries lie in the invariant wedge.
    """

    __slots__ = ("x", "y", "logm", "L", "r", "u", "switch")

    def __init__(self, fam: HenonFamily, x: np.ndarray, y: np.ndarray, inverse: bool):
        n = len(x)
        self.x = np.array(x, dtype=complex)
        self.y = np.array(y, dtype=complex)
        self.logm = np.zeros(n, dtype=bool)
        self.L = np.zeros(n, dtype=float)
        self.r = np.zeros(n, dtype=complex)
        self.u = np.zeros(n, dtype=complex)
        self.switch = switch_bound(fam)
        big = np.abs(self.x if inverse else self.y) > self.switch
        if big.any():
            self.to_log(big, inverse)

    def __len__(self) -> int:
        return len(self.x)

    def take(self, idx: np.ndarray) -> "Orbit":
        o = Orbit.__new__(Orbit)
        for name in ("x", "y", "logm", "L", "r", "u"):
            setattr(o, name, getattr(self, name)[idx])
        o.switch = self.switch
        return o

    def to_log(self, mask: np.ndarray, inverse: bool) -> None:
        """Move the masked explicit entries to log form."""
        lead = self.x[mask] if inverse else self.y[mask]
        sub = self.y[mask] if inverse else self.x[mask]
        self.L[mask] = np.log(np.abs(lead))
        self.r[mask] = sub / lead
        self.u[mask] = 1.0 / lead
        self.logm |= mask

    def radial(self, explicit_fn, from_log_fn) -> np.ndarray:
        """Per-point values of a function of the point's norm.

        explicit_fn(x, y) evaluates explicit entries; from_log_fn(log||z||)
        evaluates log-form entries.
        """
        out = np.empty(len(self), dtype=float)
        ex = ~self.logm
        if ex.any():
            out[ex] = explicit_fn(self.x[ex], self.y[ex])
        lg = self.logm
        if lg.any():
            out[lg] = from_log_fn(self.L[lg] + 0.5 * np.log1p(np.abs(self.r[lg]) ** 2))
        return out

    def log_norm(self) -> np.ndarray:
        """log ||z|| per point (exact for both representations)."""
        with np.errstate(divide="ignore"):
            return self.radial(lambda x, y: np.log(np.hypot(np.abs(x), np.abs(y))), lambda L: L)

    def log_plus_norm(self) -> np.ndarray:
        return np.maximum(self.log_norm(), 0.0)

    def in_wedge(self, R: float, inverse: bool) -> np.ndarray:
        """Closed invariant wedge: V_R^+ forward, V_R^- backward."""
        out = self.logm.copy()
        ex = ~self.logm
        if ex.any():
            ax, ay = np.abs(self.x[ex]), np.abs(self.y[ex])
            out[ex] = (ax >= ay) & (ax > R) if inverse else (ay >= ax) & (ay > R)
        return out


def _tail_poly(coeffs, u):
    """c_(d-1) u + c_(d-2) u^2 + ... + c_0 u^d for monic coeffs [1, c_(d-1)..c_0]."""
    acc = coeffs[-1] * np.ones_like(u)
    for c in coeffs[-2:0:-1]:
        acc = acc * u + c
    return acc * u


def step_factor(o: Orbit, coeffs, a, inverse: bool) -> None:
    """Apply one (inverse) factor in place, switching reps as needed.

    `coeffs` is (d+1,) for a shared base point or (d+1, n) per point;
    `a` is a scalar or per-point array accordingly.
    """
    coeffs = np.asarray(coeffs)
    per_point = coeffs.ndim == 2
    deg = coeffs.shape[0] - 1
    logm0 = o.logm.copy()
    ex = ~logm0
    if ex.any():
        cs = coeffs[:, ex] if per_point else coeffs
        av = a[ex] if per_point and np.ndim(a) == 1 else a
        xn, yn = factor_step(cs, av, o.x[ex], o.y[ex], inverse)
        o.x[ex] = xn
        o.y[ex] = yn
        dom = np.abs(xn) if inverse else np.abs(yn)
        big_local = dom > o.switch
        if big_local.any():
            big = np.zeros(len(o), dtype=bool)
            big[np.flatnonzero(ex)[big_local]] = True
            o.to_log(big, inverse)
    if logm0.any():
        cs = coeffs[:, logm0] if per_point else coeffs
        av = a[logm0] if per_point and np.ndim(a) == 1 else a
        u = o.u[logm0]
        r = o.r[logm0]
        with np.errstate(under="ignore"):
            upow = u ** (deg - 1)
            if inverse:
                delta = _tail_poly(cs, u) - r * upow
                one = 1.0 + delta
                o.L[logm0] = deg * o.L[logm0] + np.log(np.abs(one)) - np.log(np.abs(av))
                o.r[logm0] = av * upow / one
                o.u[logm0] = av * upow * u / one
            else:
                delta = _tail_poly(cs, u) - av * r * upow
                one = 1.0 + delta
                o.L[logm0] = deg * o.L[logm0] + np.log(np.abs(one))
                o.r[logm0] = upow / one
                o.u[logm0] = upow * u / one


def step_map(o: Orbit, fam: HenonFamily, lam, inverse: bool) -> None:
    """One full map application H_lam (or its inverse) at base point(s) lam."""
    factors = tuple(reversed(fam.factors)) if inverse else fam.factors
    for f in factors:
        step_factor(o, f.poly_coeffs(lam), f.a(lam), inverse)


# ---------------------------------------------------------------------------
# base-point suppliers: supplier(k, idx) is the base point (or per-point
# base points, restricted to the indices idx) used by step k


class SigmaSupplier:
    """lam_k = sigma^(k * step)(lam), step = +1 forward or -1 backward."""

    def __init__(self, sigma: BaseDynamics, lam, back: bool = False):
        if sigma.kind == SHIFT:
            raise UnsupportedBase(
                "pointwise Green functions need identity/contraction/rotation; "
                "use green_random with a ParamSequence for shift bases"
            )
        if back and not sigma.invertible:
            raise NotInvertible(f"{sigma.kind} base has no backward orbit")
        self.sigma = sigma
        self.lam = np.asarray(lam, dtype=complex) if np.ndim(lam) else complex(lam)
        self.back = back

    def __call__(self, k: int, idx: np.ndarray | None = None):
        lam = self.lam if idx is None or np.ndim(self.lam) == 0 else self.lam[idx]
        return advance(self.sigma, lam, -(k + 1) if self.back else k)


class SeqSupplier:
    """lam_k = entry k of a parameter sequence (or plain array of base points)."""

    def __init__(self, seq):
        if isinstance(seq, np.ndarray):
            seq = FrozenSequence(seq)
        self.seq = seq

    def __call__(self, k: int, idx: np.ndarray | None = None):
        return self.seq.entry(k)


def iterate(fam: HenonFamily, supplier, x: np.ndarray, y: np.ndarray, depths, inverse: bool = False):
    """Yield (n, orbit) for each n in `depths`, ascending.

    One orbit of the points (x, y) is stepped incrementally and updated in
    place, so each yielded orbit is valid until the next one is requested.
    """
    orbit = Orbit(fam, x, y, inverse)
    n_done = 0
    for n in sorted(depths):
        while n_done < n:
            step_map(orbit, fam, supplier(n_done, None), inverse)
            n_done += 1
        yield n, orbit
