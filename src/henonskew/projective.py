"""Fibered non-degenerate homogeneous maps on C^(k+1).

A degree-d homogeneous lift satisfies l ||x||^d <= ||F_lam(x)|| <= L ||x||^d
uniformly over the base; the radii r = (2L)^(-1/(d-1)) and
R = (2/l)^(1/(d-1)) certify attraction to 0 (||F(x)|| <= ||x||/2 inside r)
and escape to infinity (||F(x)|| >= 2 ||x|| outside R). The
Green function G_lam = lim d^(-n) log ||F^n|| (no positive part; values
can be negative) has basin {G < 0} and its pluriharmonicity locus detects
the fibered Fatou set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import SHIFT, BaseSystem, advance
from .currents import laplacian_density
from .errors import DegenerateLift, UnsupportedBase, ValidationError, ZeroVector
from .expr import CoeffMap, Poly, parse_poly

ORIGIN_EXCLUSION = 1e-8

_LIFT_VARS_MAX = 10


@dataclass(frozen=True)
class HomogeneousLift:
    """k+1 homogeneous degree-d components with base-dependent coefficients.

    Each component maps a monomial exponent tuple (length k+1, entries
    summing to d) to a CoeffMap.
    """

    k: int
    d: int
    components: tuple[dict[tuple[int, ...], CoeffMap], ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValidationError("lift degree must be >= 2")
        if len(self.components) != self.k + 1:
            raise ValidationError(f"need {self.k + 1} components for P^{self.k}")
        for i, comp in enumerate(self.components):
            for expo in comp:
                if len(expo) != self.k + 1 or any(e < 0 for e in expo) or sum(expo) != self.d:
                    raise ValidationError(
                        f"component {i}: monomial {expo} is not homogeneous of degree {self.d}"
                    )

    @classmethod
    def parse(cls, k: int, d: int, component_texts: list[str]) -> "HomogeneousLift":
        """Components from expressions in x0..xk with u, v base variables."""
        if k + 1 > _LIFT_VARS_MAX:
            raise ValidationError(f"at most {_LIFT_VARS_MAX} ambient coordinates supported")
        variables = ("u", "v") + tuple(f"x{i}" for i in range(k + 1))
        comps = []
        for text in component_texts:
            poly = parse_poly(text, variables)
            grouped: dict[tuple[int, ...], Poly] = {}
            for expo, coeff in poly.terms.items():
                uv = expo[:2]
                xe = expo[2:]
                g = grouped.setdefault(xe, Poly(("u", "v")))
                grouped[xe] = g + Poly(("u", "v"), {uv: coeff})
            comps.append({xe: CoeffMap(p) for xe, p in grouped.items()})
        return cls(k, d, tuple(comps))

    def eval(self, lam, pts: np.ndarray) -> np.ndarray:
        """Apply F_lam to points of shape (..., k+1)."""
        pts = np.asarray(pts, dtype=complex)
        out = np.zeros_like(pts)
        for i, comp in enumerate(self.components):
            acc = np.zeros(pts.shape[:-1], dtype=complex)
            for expo, cmap in comp.items():
                term = np.asarray(cmap(lam), dtype=complex) * np.ones(pts.shape[:-1], dtype=complex)
                for j, e in enumerate(expo):
                    if e:
                        term = term * pts[..., j] ** e
                acc = acc + term
            out[..., i] = acc
        return out


def diag_power_lift(k: int = 2, d: int = 2, scale: complex = 1.0) -> HomogeneousLift:
    """F(x) = scale * (x0^d, ..., xk^d); the closed-form reference lift."""
    comps = []
    for i in range(k + 1):
        e = [0] * (k + 1)
        e[i] = d
        comps.append({tuple(e): CoeffMap.constant(scale)})
    return HomogeneousLift(k, d, tuple(comps))


@dataclass(frozen=True)
class LiftConstants:
    """Sphere-sampling bounds for l, L and the certified radii r, R."""

    l_emp: float
    L_emp: float
    r: float
    R: float
    n_sphere: int
    margin: float

    def __post_init__(self):
        if not (0 < self.l_emp <= self.L_emp and 0 < self.r <= self.R):
            raise ValidationError("lift constants must satisfy 0 < l <= L, 0 < r <= R")

    @property
    def tail_constant(self) -> float:
        """Per-step distortion bound C with |G_(n+1) - G_n| <= log(C)/d^(n+1)."""
        return max(self.L_emp, 1.0 / self.l_emp)


def _sphere_points(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    z = rng.normal(size=(n, k + 1)) + 1j * rng.normal(size=(n, k + 1))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _structured_probes(rng: np.random.Generator, k: int) -> np.ndarray:
    """Basis vectors and 256 samples of each coordinate hyperplane.

    Degenerate lifts vanish on conical varieties that random sphere
    draws almost never touch; axes and the hyperplanes {x_i = 0} catch
    the common constructions exactly.
    """
    probes = [np.eye(k + 1, dtype=complex)]
    for i in range(k + 1):
        plane = rng.normal(size=(256, k + 1)) + 1j * rng.normal(size=(256, k + 1))
        plane[:, i] = 0.0
        probes.append(plane / np.linalg.norm(plane, axis=1, keepdims=True))
    return np.concatenate(probes)


def estimate_constants(
    F: HomogeneousLift,
    space,
    n_sphere: int = 4096,
    seed: int = 0,
    margin: float = 0.05,
) -> LiftConstants:
    """Margined min/max of ||F_lam|| over unit-sphere samples x a 16-per-axis base grid."""
    if n_sphere < 1000:
        raise ValidationError("n_sphere must be at least 1000")
    rng = np.random.Generator(np.random.PCG64(seed))
    pts = _sphere_points(rng, n_sphere, F.k)
    probes = _structured_probes(rng, F.k)
    lo, hi = np.inf, 0.0
    for lam in np.atleast_1d(space.grid(16)):
        norms = np.linalg.norm(F.eval(lam, pts), axis=1)
        lo = min(lo, float(norms.min()))
        hi = max(hi, float(norms.max()))
        lo = min(lo, float(np.linalg.norm(F.eval(lam, probes), axis=1).min()))
    if lo < 1e-10:
        raise DegenerateLift(f"||F|| reaches {lo:.3e} on the unit sphere")
    l_emp = (1.0 - margin) * lo
    L_emp = (1.0 + margin) * hi
    ex = 1.0 / (F.d - 1)
    return LiftConstants(
        l_emp=l_emp,
        L_emp=L_emp,
        r=(2.0 * L_emp) ** -ex,
        R=(2.0 / l_emp) ** ex,
        n_sphere=n_sphere,
        margin=margin,
    )


def _lam_supplier(base: BaseSystem, lam):
    if base.sigma.kind == SHIFT:
        raise UnsupportedBase("projective Green needs a pointwise base dynamics")
    return lambda k: advance(base.sigma, lam, k)


def green_proj_batch(
    F: HomogeneousLift,
    base: BaseSystem,
    lam,
    pts: np.ndarray,
    tol: float = 1e-6,
    n_max: int = 200,
    constants: LiftConstants | None = None,
) -> np.ndarray:
    """Vectorized G_lam over points of shape (n, k+1).

    Normalized iteration: s <- d*s + log ||F(x_hat)||, x_hat <- F/||F||,
    so the orbit norm never overflows; G_n = s_n / d^n. A negative n_max
    is a ValidationError.
    """
    if n_max < 0:
        raise ValidationError(f"n_max must be at least 0, got {n_max}")
    pts = np.asarray(pts, dtype=complex)
    norms = np.linalg.norm(pts, axis=-1)
    if np.any(norms < ORIGIN_EXCLUSION):
        raise ZeroVector("points within 1e-8 of the origin are excluded")
    if constants is None:
        constants = estimate_constants(F, base.space)
    sup = _lam_supplier(base, lam)
    d = float(F.d)
    logc = math.log(constants.tail_constant)
    s = np.log(norms)
    xhat = pts / norms[..., None]
    n = 0
    while n < n_max:
        n += 1
        img = F.eval(sup(n - 1), xhat)
        inorm = np.linalg.norm(img, axis=-1)
        s = d * s + np.log(inorm)
        xhat = img / inorm[..., None]
        if logc / (d ** (n + 1)) * d / (d - 1) < tol:
            break
    return s / d ** n


def green_proj(
    F: HomogeneousLift,
    base: BaseSystem,
    lam,
    x,
    tol: float = 1e-6,
    n_max: int = 200,
    constants: LiftConstants | None = None,
) -> float:
    """Fibered homogeneous Green function at one point (may be negative)."""
    return float(green_proj_batch(F, base, lam, np.asarray(x, dtype=complex)[None, :], tol, n_max, constants)[0])


ATTRACTED = "attracted-to-0"
ESCAPES = "escapes-to-infinity"
INDETERMINATE = "indeterminate"


def basin_classify(
    F: HomogeneousLift,
    base: BaseSystem,
    lam,
    x,
    n_max: int = 200,
    constants: LiftConstants | None = None,
) -> str:
    """Certified basin membership via the contraction/expansion radii."""
    v, = basin_classify_batch(F, base, lam, np.asarray(x, dtype=complex)[None, :], n_max, constants)
    return v


def basin_classify_batch(
    F: HomogeneousLift,
    base: BaseSystem,
    lam,
    pts: np.ndarray,
    n_max: int = 200,
    constants: LiftConstants | None = None,
) -> list[str]:
    """Explicit iteration with norm certificates.

    Coordinates stay bounded until a certificate fires (the orbit is
    re-tested every step), so no rescaling is needed; this also keeps
    critical orbits like the unit torus of the squaring map exactly on
    their invariant set instead of amplifying roundoff exponentially.
    A negative n_max is a ValidationError.
    """
    if n_max < 0:
        raise ValidationError(f"n_max must be at least 0, got {n_max}")
    pts = np.asarray(pts, dtype=complex)
    norms = np.linalg.norm(pts, axis=-1)
    if np.any(norms < ORIGIN_EXCLUSION):
        raise ZeroVector("points within 1e-8 of the origin are excluded")
    if constants is None:
        constants = estimate_constants(F, base.space)
    sup = _lam_supplier(base, lam)
    cur = pts.copy()
    out = np.full(len(pts), INDETERMINATE, dtype=object)
    open_mask = np.ones(len(pts), dtype=bool)
    for n in range(n_max + 1):
        nn = np.linalg.norm(cur, axis=-1)
        out[open_mask & (nn < constants.r)] = ATTRACTED
        out[open_mask & (nn > constants.R)] = ESCAPES
        open_mask = out == INDETERMINATE
        if not open_mask.any() or n == n_max:
            break
        cur[open_mask] = F.eval(sup(n), cur[open_mask])
    return list(out)


# fatou_detect's probes: PROBE_LINES random complex lines through the point,
# each sampled on a PROBE_GRID x PROBE_GRID grid of half-width PROBE_HALF_WIDTH
PROBE_LINES = 3
PROBE_HALF_WIDTH = 5e-3
PROBE_GRID = 9


def fatou_detect(
    F: HomogeneousLift,
    base: BaseSystem,
    lam,
    z,
    tol: float = 1e-3,
    seed: int = 0,
    constants: LiftConstants | None = None,
) -> str:
    """'fatou' iff G is numerically pluriharmonic near a lift of z.

    PROBE_LINES independent complex-line probes must all carry (discrete
    Laplacian) mass below tol per unit probe area; one-sided: the
    alternative is only 'julia-suspect'.
    """
    z = np.asarray(z, dtype=complex)
    nz = np.linalg.norm(z)
    if nz < ORIGIN_EXCLUSION:
        raise ZeroVector("cannot probe at the origin")
    if constants is None:
        constants = estimate_constants(F, base.space)
    lift = z / nz
    rng = np.random.Generator(np.random.PCG64(seed))
    m, h = PROBE_GRID, PROBE_HALF_WIDTH
    ts = np.linspace(-h, h, m)
    w = ts[None, :] + 1j * ts[:, None]
    dxy = ts[1] - ts[0]
    area = (2 * h) ** 2
    for _ in range(PROBE_LINES):
        v = rng.normal(size=F.k + 1) + 1j * rng.normal(size=F.k + 1)
        v /= np.linalg.norm(v)
        pts = lift[None, None, :] + w[..., None] * v[None, None, :]
        g = green_proj_batch(F, base, lam, pts.reshape(-1, F.k + 1), tol=1e-9, constants=constants)
        mass = abs(float(laplacian_density(g.reshape(m, m), dxy, dxy).sum()))
        if mass >= tol * area:
            return "julia-suspect"
    return "fatou"
