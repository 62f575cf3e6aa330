"""Orbit engine: vectorized orbit state, factor and map steps, base-point
suppliers and the step-to-depth loop.

A supplier holds one family, supplier.fam, from when it is built, and its
steps' factor coefficients: supplier.coeffs(k, idx, span) is the tuple of
(rows, a) pairs, one per factor in the family's order, for step k at the
points named idx (an orbit's ids, in any order, all within the bounds
span = (lo, hi); see Orbit). The rows are the monic
coefficients (1, c_(d-1), ..., c_0). Both suppliers take them from
family.map_coeffs, the one coefficient builder: each row and `a` is
either shared by every point (a numpy scalar, for a constant map) or
given per point (an array of length n).

Orbits are iterated explicitly until the dominant coordinate (y forward,
x backward) passes the switch bound, then in a log-scale form: L = log of
the dominant coordinate, r = subordinate / dominant, u = 1 / dominant.
The bound keeps every explicit factor step representable in doubles, so
coordinate growth of order 10^(d^n) is iterated without overflow; a point
that switches keeps its position (see Orbit). A factor step (step_factor)
leaves the points it takes past the bound explicit and returns their
positions. A map step (step_coeffs, Orbit.step) switches those of every
factor but the last at once, and returns the last factor's to its caller,
which must move them to log form (Orbit.to_log) before anything else reads
the orbit: iterate does so at once, and the certifying loop
(green._certify) first certifies those it can from the same L and r that
to_log stores (Orbit.log_entries), so that a point which leaves at that
step is never converted. A step that overflows all
the same leaves a non-finite state, reported undecided, and no
floating-point warning: the engine loops run under np.errstate.

A forward log-form factor step (_step_log) computes the correction
delta = tail(u) - a r u^(d-1), with tail(u) = c_(d-1) u + ... + c_0 u^d,
and sets L' = d L + log|1 + delta|. Let B bound sum_k |c_k| + |a| + 1
over every factor and every base point a supplier can hand the orbit. A
point with |r| <= 1 and |u| <= 2^-56 / B has |delta| <= |u| B <= 2^-56,
so the computed 1 + delta has real part exactly 1 (|Re delta| is below
half an ulp of 1, 2^-54) and modulus hypot(1, t) = 1 for |t| <= 2^-56:
log|1 + delta| is 0 and L' = d L exactly. After the step |u'| <= |u| and
|r'| <= 2^-56, so every later step is the same multiply, and
log||z|| = L + 1/2 log1p(|r|^2) adds at most 2^-113 to
L ~ -log|u| > 56 log 2 + log B > 38, below half an ulp of L: log||z|| is
L. Such a point is settled: r and u no longer reach its later L or
log||z||. Before each map step of a forward orbit iterate retires the
settled points when the supplier gives supplier.settled_u = 2^-56 / B
(TableSupplier's comes from its distinct base points; SigmaSupplier's is
None): they leave the orbit for a record of their positions and L
(Orbit.retire), stepped by the operation _step_log takes on a settled
point, L <- d L, so every value iterate yields stays the same bit for
bit. Inverse orbits retire nothing, and neither does the certifying loop
(green._certify): its own-tail error bound reads |r|.
"""

from __future__ import annotations

import numpy as np

from .base import SHIFT, BaseDynamics, advance
from .errors import NotInvertible, UnsupportedBase, ValidationError
from .family import HenonFamily, factor_step, imul, map_coeffs

# Largest switch bound; factors of degree > 15 get 10^(300/degree) so that
# p(y) stays below 1e300 on explicit entries.
OVERFLOW_SWITCH = 1e20

# |u| B at or below which a log-form point with |r| <= 1 is settled (see the module docstring)
SETTLE = 2.0 ** -56


def switch_bound(fam: HenonFamily) -> float:
    """Dominant-coordinate bound above which orbits are held in log form."""
    return min(OVERFLOW_SWITCH, 10.0 ** (300.0 / max(f.degree for f in fam.factors)))


class Orbit:
    """Vectorized orbit state: explicit entries per point, log-scale entries per log-form point.

    For forward orbits the log form tracks the dominant y coordinate
    (L = log|y|, r = x/y, u = 1/y; log_entries); for inverse orbits the
    roles of x and y swap. Start points whose dominant coordinate is
    already above the switch bound enter log form at step 0; from the
    first step on, log entries lie in the invariant wedge. A point that a
    step takes past the bound switches when that factor's step returns,
    or, after the map's last factor, when the caller of step moves it
    (to_log; see the module docstring).

    `x`, `y`, `dom` = |dominant|, `sub` = |subordinate| and `ids` have one
    entry per point in the orbit. A log-form point has NaN there, which
    explicit steps keep and explicit tests reject, and its `L`, `r` and `u`
    sit at the index of its position in `lpos`. Log-form points are found
    through `lpos` alone, never through NaN: a NaN start point or an
    overflowed explicit point is not in log form. A factor step moves the
    dominant coordinate into the subordinate slot (x' = y forward, y' = x
    backward), so the step carries the old `dom` over as the new `sub`
    instead of taking another absolute value.

    A settled log-form point of a forward orbit (see the module docstring)
    leaves through `retire` for the retired record: `rpos` (its position
    among the points given to the orbit) and `rL`, in the order the points
    retired. `at` holds the positions of the points left, None until one
    retires (as in the orbits `keep` and `concat` take). `len` and the
    per-point answers (`radial`, `in_wedge`, `in_bidisc`) cover every point.

    The orbit carries its direction (`inverse`) and its points' names for
    the supplier (`ids`, default 0 .. n-1) through `keep` and `concat`, with
    bounds on the names, `span` = (lo, hi), lo <= every name <= hi: those of
    its start, joined by `concat` and kept as they are by `keep`, so a
    supplier reads in O(1) that the names of an orbit started from one of
    its rows lie in that row.
    """

    __slots__ = ("x", "y", "dom", "sub", "ids", "span", "lpos", "L", "r", "u", "switch", "inverse", "at", "rpos", "rL")
    _STATE = ("x", "y", "dom", "sub", "ids")
    _LOG = ("L", "r", "u")

    def __init__(self, fam: HenonFamily, x: np.ndarray, y: np.ndarray, inverse: bool, ids=None):
        n = len(x)
        self.inverse = inverse
        self.ids = np.arange(n) if ids is None else ids
        self.span = (0, n - 1) if ids is None or not n else (ids.min(), ids.max())
        self.x = np.array(x, dtype=complex)
        self.y = np.array(y, dtype=complex)
        self.lpos, self.L = np.empty(0, dtype=np.intp), np.empty(0, dtype=float)
        self.r, self.u = np.empty((2, 0), dtype=complex)
        self.switch = switch_bound(fam)
        self.at = None
        self.dom = np.abs(self.x if inverse else self.y)
        self.sub = np.abs(self.y if inverse else self.x)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.to_log(np.flatnonzero(self.dom > self.switch))

    def __len__(self) -> int:
        return len(self.x) if self.at is None else len(self.at) + len(self.rpos)

    def keep(self, mask: np.ndarray) -> None:
        """Keep only the points the boolean mask selects, replacing one array at a
        time; a kept log-form point keeps its log entries, at its new position."""
        if len(self.lpos):
            held = mask[self.lpos]
            self.lpos = (np.cumsum(mask) - 1)[self.lpos[held]]
            for name in self._LOG:
                setattr(self, name, getattr(self, name)[held])
        for name in self._STATE:
            setattr(self, name, getattr(self, name)[mask])

    @classmethod
    def concat(cls, parts: list["Orbit"]) -> "Orbit":
        """One orbit holding the points of `parts` in order (same family and direction; a lone part as it is)."""
        if len(parts) == 1:
            return parts[0]
        o = cls.__new__(cls)
        for name in cls._STATE + cls._LOG:
            setattr(o, name, np.concatenate([getattr(p, name) for p in parts]))
        offsets = np.cumsum([0] + [len(p) for p in parts[:-1]])
        o.lpos = np.concatenate([p.lpos + off for p, off in zip(parts, offsets)])
        o.span = (min(p.span[0] for p in parts), max(p.span[1] for p in parts))
        o.switch = parts[0].switch
        o.inverse = parts[0].inverse
        o.at = None
        return o

    def step(self, supplier, k: int) -> np.ndarray:
        """Step k: the supplier's map at its base points for the orbit's points, then the retired record.

        Returns the positions of the points the map's last factor took past
        the switch bound, still explicit: the caller moves them (to_log)
        before anything else reads the orbit (see step_coeffs).
        """
        coeffs = supplier.coeffs(k, self.ids, self.span)
        new = step_coeffs(self, coeffs)
        if self.at is not None:  # retired points, per factor as _step_log steps settled ones
            for rows, _ in coeffs:
                self.rL *= len(rows) - 1
        return new

    def log_entries(self, pos: np.ndarray) -> tuple:
        """(L, r, dominant) of the explicit points at positions pos, as to_log
        stores them: L = log|dominant| and r = subordinate / dominant."""
        lead = (self.x if self.inverse else self.y)[pos]
        sub = (self.y if self.inverse else self.x)[pos]
        return np.log(self.dom[pos]), sub / lead, lead

    def to_log(self, pos: np.ndarray) -> None:
        """Move the explicit points at positions pos to log form, leaving NaN in their explicit entries."""
        if not len(pos):
            return
        L, r, lead = self.log_entries(pos)
        self.lpos = np.concatenate((self.lpos, pos))
        self.L = np.concatenate((self.L, L))
        self.r = np.concatenate((self.r, r))
        self.u = np.concatenate((self.u, 1.0 / lead))
        for v in (self.x, self.y, self.dom, self.sub):
            v[pos] = np.nan

    def retire(self, u_max: float) -> None:
        """Move the log-form points with |u| <= u_max = 2^-56 / B and |r| <= 1
        (a NaN fails both) of a forward orbit to the retired record (see the
        module docstring)."""
        j = np.flatnonzero((np.abs(self.u) <= u_max) & (np.abs(self.r) <= 1.0))
        if not len(j):
            return
        gone = self.lpos[j]
        if self.at is None:
            self.at, self.rpos, self.rL = np.arange(len(self.x)), gone[:0], self.L[:0]
        self.rpos = np.concatenate((self.rpos, self.at[gone]))
        self.rL = np.concatenate((self.rL, self.L[j]))
        kept = np.ones(len(self.x), dtype=bool)
        kept[gone] = False
        self.at = self.at[kept]
        self.keep(kept)

    def _per_point(self, live: np.ndarray, retired_fn) -> np.ndarray:
        """Per point, in the order given to the orbit: `live` for the points left, retired_fn(rL) for the rest."""
        if self.at is None:
            return live
        out = np.empty(len(self), dtype=live.dtype)
        out[self.at] = live
        out[self.rpos] = retired_fn(self.rL)
        return out

    def radial(self, explicit_fn, from_log_fn) -> np.ndarray:
        """Per-point values of a function of the point's norm.

        explicit_fn(s, t) evaluates explicit entries from the moduli of
        their coordinates, s = |dominant| and t = |subordinate|, so it must
        treat its two arguments alike, and return a new float array;
        from_log_fn(log||z||) evaluates log-form points.
        """
        out = explicit_fn(self.dom, self.sub)
        out[self.lpos] = from_log_fn(log_norm_of(self.L, self.r))
        return self._per_point(out, from_log_fn)

    def log_norm(self) -> np.ndarray:
        """log ||z|| per point (exact for both representations)."""
        with np.errstate(divide="ignore"):
            return self.radial(lambda s, t: np.log(np.hypot(s, t)), lambda L: L)

    def log_plus_norm(self) -> np.ndarray:
        out = self.log_norm()
        return np.maximum(out, 0.0, out=out)

    def in_explicit_wedge(self, R: float) -> np.ndarray:
        """Explicit points of the closed invariant wedge (NaN entries are outside)."""
        return (self.dom >= self.sub) & (self.dom > R)

    def in_wedge(self, R: float) -> np.ndarray:
        """Closed invariant wedge: V_R^+ forward, V_R^- backward."""
        out = self.in_explicit_wedge(R)
        out[self.lpos] = True
        return self._per_point(out, lambda L: True)

    def in_bidisc(self, r: float) -> np.ndarray:
        """Explicit points with |x| <= r and |y| <= r (a non-finite state is outside)."""
        return self._per_point((self.dom <= r) & (self.sub <= r), lambda L: False)


def log_norm_of(L: np.ndarray, r: np.ndarray) -> np.ndarray:
    """log ||z|| = L + 1/2 log1p(|r|^2) of log-form entries L and r, as a new array."""
    return L + 0.5 * np.log1p(np.abs(r) ** 2)


def _tail_poly(coeffs, u):
    """c_(d-1) u + c_(d-2) u^2 + ... + c_0 u^d for monic coeffs [1, c_(d-1)..c_0], as a new array."""
    acc = coeffs[-1] * u
    for c in coeffs[-2:0:-1]:
        acc += c
        acc = imul(acc, u)
    return acc


def step_factor(o: Orbit, coeffs, a) -> np.ndarray:
    """Apply one factor (its inverse on an inverse orbit) in place; returns
    the positions of the explicit points now past the switch bound, which
    it leaves explicit for the caller to move to log form (Orbit.to_log).

    Each coefficient row and `a` is shared or per point on its own (see
    the module docstring). The explicit step runs on the whole arrays, the
    log-scale step on the compact ones.
    """
    if len(o.lpos):
        _step_log(o, coeffs, a)
    # the old |dominant| is the new |subordinate|; the old `sub` is dropped
    # before the step, which lowers the step's memory peak
    o.sub = o.dom
    o.dom = None
    o.x, o.y = factor_step(coeffs, a, o.x, o.y, o.inverse, scratch=True)
    o.dom = np.abs(o.x if o.inverse else o.y)
    big = o.dom > o.switch
    # most steps switch no point, and any() is the cheaper pass then
    return np.flatnonzero(big) if big.any() else np.empty(0, dtype=np.intp)


def _step_log(o: Orbit, coeffs, a) -> None:
    """Log-scale factor step of the log-form points, coefficients shared or given per point.

    Forward: delta = tail(u) - a r u^(d-1), r' = u^(d-1) / (1 + delta);
    inverse: delta = tail(u) - r u^(d-1), r' = a u^(d-1) / (1 + delta);
    then L' = d L + log|1 + delta| (- log|a| inverse) and u' = r' u, in
    place; L is multiplied by d first, then corrected, then (inverse)
    lowered by log|a|, in the order the formula takes.
    """
    deg = len(coeffs) - 1
    at = [c[o.lpos] if np.ndim(c) else c for c in coeffs]
    a_at = a[o.lpos] if np.ndim(a) else a
    o.L *= deg
    with np.errstate(under="ignore"):
        upow = o.u ** (deg - 1)
        one = _tail_poly(at, o.u)
        r = imul(o.r if o.inverse else imul(o.r, a_at), upow)
        one -= r
        one += 1.0
        del r
        if o.inverse:
            upow = imul(upow, a_at)
        r = upow / one
        upow = imul(upow, o.u)
        upow /= one
    o.L += np.log(np.abs(one))
    o.r, o.u = r, upow
    if o.inverse:
        o.L -= np.log(np.abs(a_at))


def step_coeffs(o: Orbit, coeffs: tuple) -> np.ndarray:
    """One full map application (its inverse on an inverse orbit) from per-factor (rows, a) pairs (map_coeffs).

    The points a factor takes past the switch bound move to log form
    before the next factor; the last factor's positions are returned, the
    points still explicit (step_factor).
    """
    *first, last = reversed(coeffs) if o.inverse else coeffs
    for c, a in first:
        o.to_log(step_factor(o, c, a))
    return step_factor(o, *last)


# ---------------------------------------------------------------------------
# base-point suppliers (see the module docstring)


class SigmaSupplier:
    """The maps of `fam` at lam_k = sigma^(k * step)(lam), step = +1 forward or -1 backward."""

    settled_u = None  # no bound, so no point retires: the base points of later steps are not known ahead

    def __init__(self, fam: HenonFamily, sigma: BaseDynamics, lam, back: bool = False):
        if sigma.kind == SHIFT:
            raise UnsupportedBase(
                "pointwise Green functions need identity/contraction/rotation; "
                "use green_random with a ParamSequence for shift bases"
            )
        if back and not sigma.invertible:
            raise NotInvertible(f"{sigma.kind} base has no backward orbit")
        self.fam = fam
        self.sigma = sigma
        self.lam = np.asarray(lam, dtype=complex) if np.ndim(lam) else complex(lam)
        self.back = back

    def coeffs(self, k: int, idx: np.ndarray, span) -> tuple:
        lam = self.lam if np.ndim(self.lam) == 0 else self.lam[idx]
        return map_coeffs(self.fam, advance(self.sigma, lam, -(k + 1) if self.back else k))


class TableSupplier:
    """The maps of `fam` at lam_k from an (n_rows, n_steps) table of base points.

    Row r drives the points r * width ... (r + 1) * width - 1; a one-row
    table drives every point. The coefficients, map_coeffs on the table's
    distinct base points (for a finite base, its letters), and settled_u =
    2^-56 / B (None if some coefficient is not finite) are evaluated when
    it is built. A coefficient whose map is constant stays shared; the
    others are shared when the bounds of a step's names (span) lie in one
    row, and read per point from the point's row otherwise.
    """

    def __init__(self, fam: HenonFamily, table, width: int = 1):
        table = np.asarray(table, dtype=complex)
        if table.ndim != 2:
            raise ValidationError(f"a table of base points has shape (rows, steps), got shape {table.shape}")
        points, index = np.unique(table, return_inverse=True)
        self.fam = fam
        self.index = index.reshape(table.shape)
        self.width = width
        with np.errstate(over="ignore", invalid="ignore"):
            self.point_coeffs = map_coeffs(fam, points)
            # B = max over factors of sum_k max|c_k| + max|a| + 1 over the table's base points
            B = max(sum(np.max(np.abs(c), initial=0.0) for c in (*rows[1:], a)) + 1.0 for rows, a in self.point_coeffs)
        self.settled_u = SETTLE / B if np.isfinite(B) else None

    def coeffs(self, k: int, idx: np.ndarray, span) -> tuple:
        if k >= self.index.shape[1]:
            raise ValidationError(f"sequence prefix of length {k + 1} unavailable")
        col = self.index[:, k]
        j, row = col[0], None
        if len(col) > 1 and len(idx):
            first, last = (v // self.width for v in span)
            if first == last:
                j = col[first]
            else:  # each point reads its row's value
                j, row = col, idx // self.width

        def spread(v):
            if np.ndim(v) == 0:
                return v
            return v[j] if row is None else v[j].take(row)

        return tuple((tuple(map(spread, rows)), spread(a)) for rows, a in self.point_coeffs)


class SeqSupplier(TableSupplier):
    """lam_k = entry k of a sequence (a ParamSequence or FrozenSequence) or
    of a plain array of base points, for k < n: the one-row table of its
    first n entries. An array shorter than n raises only at the first step
    past its end."""

    def __init__(self, fam: HenonFamily, seq, n: int):
        row = seq[:n] if isinstance(seq, np.ndarray) else seq.prefix(n)
        super().__init__(fam, row[None, :])


def iterate(supplier, x: np.ndarray, y: np.ndarray, depths, inverse: bool = False, idx=None):
    """Yield (n, orbit) for each n in `depths`, ascending; a negative depth is a ValidationError.

    One orbit of the points (x, y) under the supplier's family is stepped
    incrementally and updated in place, so each yielded orbit is valid
    until the next one is requested. `idx` names the points to the
    supplier (None: 0 .. n-1). Before each map step of a forward orbit,
    after the previous yield, the log-form points that are settled under
    the supplier's bound (supplier.settled_u; see the module docstring)
    retire from the orbit (Orbit.retire): each yielded orbit's per-point
    answers, in the order of (x, y), are those of the orbit stepped without
    retiring, bit for bit. An inverse orbit retires nothing.
    """
    depths = sorted(depths)
    if depths and depths[0] < 0:
        raise ValidationError(f"depths must be at least 0, got {depths[0]}")
    orbit = Orbit(supplier.fam, x, y, inverse, idx)
    u_max = None if inverse else supplier.settled_u
    n_done = 0
    for n in depths:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while n_done < n:
                if u_max is not None and len(orbit.lpos):
                    orbit.retire(u_max)
                orbit.to_log(orbit.step(supplier, n_done))
                n_done += 1
        yield n, orbit
