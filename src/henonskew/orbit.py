"""Orbit engine: vectorized orbit state, factor and map steps, base-point
suppliers and the step-to-depth loop.

A supplier gives each step's factor coefficients: supplier.coeffs(fam, k,
idx) is the tuple of (coeffs, a) pairs, one per factor in the family's
order, for step k at the points idx (None: every point). `coeffs` lists
the monic coefficients [1, c_(d-1), ..., c_0] (a (d+1,) or (d+1, n) array,
or a sequence of rows); each row and `a` is either shared by every point
(a scalar) or given per point (an array of length n).

Orbits are iterated explicitly until the dominant coordinate (y forward,
x backward) passes the switch bound, then in a log-scale form: L = log of
the dominant coordinate, r = subordinate / dominant, u = 1 / dominant.
The bound keeps every explicit factor step representable in doubles, so
coordinate growth of order 10^(d^n) is iterated without overflow. A step
that overflows all the same leaves a non-finite state, reported undecided,
and no floating-point warning: the engine loops run under np.errstate.
"""

from __future__ import annotations

import numpy as np

from .base import SHIFT, BaseDynamics, FrozenSequence, advance
from .errors import NotInvertible, UnsupportedBase, ValidationError
from .family import HenonFamily, factor_step, map_coeffs

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

    `dom` and `sub` hold |dominant| and |subordinate| of the explicit
    entries (stale on log entries). A factor step moves the dominant
    coordinate into the subordinate slot (x' = y forward, y' = x
    backward), so the step carries the old `dom` over as the new `sub`
    instead of taking another absolute value.
    """

    __slots__ = ("x", "y", "logm", "L", "r", "u", "dom", "sub", "switch")
    _STATE = ("x", "y", "logm", "L", "r", "u", "dom", "sub")

    def __init__(self, fam: HenonFamily, x: np.ndarray, y: np.ndarray, inverse: bool):
        n = len(x)
        self.x = np.array(x, dtype=complex)
        self.y = np.array(y, dtype=complex)
        self.logm = np.zeros(n, dtype=bool)
        self.L = np.zeros(n, dtype=float)
        self.r = np.zeros(n, dtype=complex)
        self.u = np.zeros(n, dtype=complex)
        self.switch = switch_bound(fam)
        self.dom = np.abs(self.x if inverse else self.y)
        self.sub = np.abs(self.y if inverse else self.x)
        big = self.dom > self.switch
        if big.any():
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                self.to_log(big, inverse)

    def __len__(self) -> int:
        return len(self.x)

    def keep(self, idx: np.ndarray) -> None:
        """Keep only the points idx selects, replacing one array at a time."""
        for name in self._STATE:
            setattr(self, name, getattr(self, name)[idx])

    @classmethod
    def concat(cls, parts: list["Orbit"]) -> "Orbit":
        """One orbit holding the points of `parts` in order (same family and direction)."""
        o = cls.__new__(cls)
        for name in cls._STATE:
            setattr(o, name, np.concatenate([getattr(p, name) for p in parts]))
        o.switch = parts[0].switch
        return o

    def to_log(self, mask: np.ndarray, inverse: bool) -> None:
        """Move the masked explicit entries to log form."""
        lead = self.x[mask] if inverse else self.y[mask]
        sub = self.y[mask] if inverse else self.x[mask]
        self.L[mask] = np.log(self.dom[mask])
        self.r[mask] = sub / lead
        self.u[mask] = 1.0 / lead
        self.logm |= mask

    def radial(self, explicit_fn, from_log_fn, idx=None) -> np.ndarray:
        """Per-point values of a function of the point's norm.

        explicit_fn(s, t) evaluates explicit entries from the moduli of
        their coordinates, s = |dominant| and t = |subordinate|, so it must
        treat its two arguments alike; from_log_fn(log||z||) evaluates
        log-form entries. With `idx` only the indexed points are evaluated.
        """
        if idx is None:
            idx = slice(None)
        lg = self.logm[idx]
        out = np.empty(len(lg), dtype=float)
        if not lg.any():
            out[:] = explicit_fn(self.dom[idx], self.sub[idx])
            return out
        ex = ~lg
        if ex.any():
            out[ex] = explicit_fn(self.dom[idx][ex], self.sub[idx][ex])
        out[lg] = from_log_fn(self.L[idx][lg] + 0.5 * np.log1p(np.abs(self.r[idx][lg]) ** 2))
        return out

    def log_norm(self, idx=None) -> np.ndarray:
        """log ||z|| per point (exact for both representations)."""
        with np.errstate(divide="ignore"):
            return self.radial(lambda s, t: np.log(np.hypot(s, t)), lambda L: L, idx)

    def log_plus_norm(self, idx=None) -> np.ndarray:
        out = self.log_norm(idx)
        return np.maximum(out, 0.0, out=out)

    def in_wedge(self, R: float, inverse: bool) -> np.ndarray:
        """Closed invariant wedge: V_R^+ forward, V_R^- backward."""
        return self.logm | ((self.dom >= self.sub) & (self.dom > R))

    def wedge_ratios(self, idx: np.ndarray):
        """(1/|y|, |x/y|) at the indexed points of a forward orbit in V_R^+."""
        inv_rho = self.dom[idx]
        ratio = self.sub[idx]
        lg = self.logm[idx]
        with np.errstate(under="ignore", invalid="ignore"):
            ratio /= inv_rho
            np.divide(1.0, inv_rho, out=inv_rho)
            if lg.any():
                j = idx[lg]
                ratio[lg] = np.abs(self.r[j])
                t = self.L[j]
                np.negative(t, out=t)
                inv_rho[lg] = np.exp(t, out=t)
        return inv_rho, ratio


def _tail_poly(coeffs, u):
    """c_(d-1) u + c_(d-2) u^2 + ... + c_0 u^d for monic coeffs [1, c_(d-1)..c_0], as a new array."""
    acc = coeffs[-1] * u
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= u
    return acc


def step_factor(o: Orbit, coeffs, a, inverse: bool) -> None:
    """Apply one (inverse) factor in place, switching reps as needed.

    Each coefficient row and `a` is shared or per point on its own (see
    the module docstring).
    """
    # the old |dominant| is the new |subordinate|; the old `sub` is dropped
    # before the step, which lowers the step's memory peak
    o.sub = o.dom
    o.dom = None
    mixed = o.logm.any()
    if mixed:
        _step_mixed(o, coeffs, a, inverse)
    else:
        # all explicit: step the whole arrays, no mask gather or scatter
        o.x, o.y = factor_step(coeffs, a, o.x, o.y, inverse, scratch=True)
    o.dom = np.abs(o.x if inverse else o.y)
    big = o.dom > o.switch
    if mixed:
        big &= ~o.logm
    if big.any():
        o.to_log(big, inverse)


def _masked(v, mask):
    """A per-point array restricted to the mask; a shared scalar as it is."""
    return v[mask] if np.ndim(v) else v


def _step_mixed(o: Orbit, coeffs, a, inverse: bool) -> None:
    """Factor step with some entries in log form: explicit and log entries
    are stepped separately through masks."""
    deg = len(coeffs) - 1
    logm0 = o.logm
    ex = ~logm0
    if ex.any():
        cs = [_masked(c, ex) for c in coeffs]
        o.x[ex], o.y[ex] = factor_step(cs, _masked(a, ex), o.x[ex], o.y[ex], inverse, scratch=True)
    cs = [_masked(c, logm0) for c in coeffs]
    av = _masked(a, logm0)
    u = o.u[logm0]
    r = o.r[logm0]
    # forward: delta = tail(u) - a r u^(d-1), r' = u^(d-1) / (1 + delta);
    # inverse: delta = tail(u) - r u^(d-1), r' = a u^(d-1) / (1 + delta),
    # and L' = d L + log|1 + delta| (- log|a| inverse), u' = r' u; in place
    with np.errstate(under="ignore"):
        upow = u ** (deg - 1)
        one = _tail_poly(cs, u)
        if not inverse:
            r *= av
        r *= upow
        one -= r
        one += 1.0
        del r
        L = o.L[logm0]
        L *= deg
        L += np.log(np.abs(one))
        if inverse:
            L -= np.log(np.abs(av))
            upow *= av
        o.L[logm0] = L
        o.r[logm0] = upow / one
        upow *= u
        upow /= one
        o.u[logm0] = upow


def step_coeffs(o: Orbit, coeffs: tuple, inverse: bool) -> None:
    """One full map application (or its inverse) from per-factor (poly_coeffs, a) pairs."""
    for c, a in reversed(coeffs) if inverse else coeffs:
        step_factor(o, c, a, inverse)


def step_map(o: Orbit, fam: HenonFamily, lam, inverse: bool) -> None:
    """One full map application H_lam (or its inverse) at base point(s) lam."""
    step_coeffs(o, map_coeffs(fam, lam), inverse)


# ---------------------------------------------------------------------------
# base-point suppliers (see the module docstring)


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

    def coeffs(self, fam: HenonFamily, k: int, idx: np.ndarray | None = None) -> tuple:
        lam = self.lam if idx is None or np.ndim(self.lam) == 0 else self.lam[idx]
        return map_coeffs(fam, advance(self.sigma, lam, -(k + 1) if self.back else k))


class TableSupplier:
    """lam_k from an (n_rows, n_steps) table of base points.

    Row r drives the points r * width ... (r + 1) * width - 1; a one-row
    table drives every point. Each factor's coefficients are evaluated once
    per family, on the table's distinct base points (for a finite base, its
    letters). A coefficient whose map is constant stays shared; the others
    are shared when a step's points all lie in one row, and spread over the
    points row by row otherwise.
    """

    def __init__(self, table, width: int = 1):
        table = np.asarray(table, dtype=complex)
        self.points, index = np.unique(table, return_inverse=True)
        self.index = index.reshape(table.shape)
        self.width = width
        self._bound = None  # (fam, per-factor (rows, a)), set on first use

    def _tables(self, fam: HenonFamily) -> tuple:
        bound = self._bound
        if bound is None or bound[0] is not fam:
            def at(m):
                return m(0j) if m.is_constant() else m(self.points)

            bound = (fam, tuple(
                (tuple(f.constant_coeffs[0]), f.constant_coeffs[1]) if f.constant_coeffs
                else ((1.0 + 0j,) + tuple(at(c) for c in f.coeffs), at(f.a))
                for f in fam.factors
            ))
            self._bound = bound  # one assignment, so concurrent first uses agree
        return bound[1]

    def coeffs(self, fam: HenonFamily, k: int, idx: np.ndarray | None = None) -> tuple:
        if k >= self.index.shape[1]:
            raise ValidationError(f"sequence prefix of length {k + 1} unavailable")
        col = self.index[:, k]
        j, counts = col[0], None
        if len(col) > 1 and idx is None:
            j, counts = col, self.width
        elif len(col) > 1:
            # idx ascends, so its points form one run per row from its first row to its last
            first, last = idx[0] // self.width, idx[-1] // self.width
            j = col[first]
            if first != last:
                ends = np.searchsorted(idx, np.arange(first, last + 2) * self.width)
                j, counts = col[first:last + 1], ends[1:] - ends[:-1]

        def spread(v):
            if np.ndim(v) == 0:
                return v
            return v[j] if counts is None else np.repeat(v[j], counts)

        return tuple((tuple(map(spread, rows)), spread(a)) for rows, a in self._tables(fam))


class SeqSupplier(TableSupplier):
    """lam_k = entry k of a parameter sequence (or plain array of base points),
    for k < n: the one-row table of its prefix. A finite sequence shorter
    than n raises only at the first step past its end."""

    def __init__(self, seq, n: int):
        if isinstance(seq, np.ndarray):
            seq = FrozenSequence(seq)
        if isinstance(seq, FrozenSequence) and seq.parent is None and not seq.cycle:
            row = np.asarray(seq.head, dtype=complex)[:n]
        else:
            row = seq.prefix(n)
        super().__init__(row[None, :])


def iterate(fam: HenonFamily, supplier, x: np.ndarray, y: np.ndarray, depths, inverse: bool = False, idx=None):
    """Yield (n, orbit) for each n in `depths`, ascending.

    One orbit of the points (x, y) is stepped incrementally and updated in
    place, so each yielded orbit is valid until the next one is requested.
    `idx` names the points to the supplier (None: all of them).
    """
    orbit = Orbit(fam, x, y, inverse)
    n_done = 0
    for n in sorted(depths):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while n_done < n:
                step_coeffs(orbit, supplier.coeffs(fam, n_done, idx), inverse)
                n_done += 1
        yield n, orbit
