"""Generalized Henon factor maps with base-dependent coefficients.

A factor is (x, y) -> (y, p(y) - a*x) with p monic of degree >= 2; a family
composes factors in order and has degree d = prod d_j, constant over the
base. Inverses are exact: (x, y) -> ((p(x) - y) / a, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateFamily, ValidationError, ZeroJacobian
from .expr import CoeffMap

JACOBIAN_FLOOR = 1e-12


@dataclass(frozen=True)
class HenonFactor:
    """One generalized Henon factor (y, p(y) - a*x).

    `coeffs` lists the maps for y^(d-1) ... y^0; the monic leading
    coefficient is implicit.
    """

    degree: int
    coeffs: tuple[CoeffMap, ...]
    a: CoeffMap

    def __post_init__(self):
        if self.degree < 2:
            raise ValidationError(f"factor degree must be >= 2, got {self.degree}")
        if len(self.coeffs) != self.degree:
            raise ValidationError(
                f"factor of degree {self.degree} needs {self.degree} coefficient maps, "
                f"got {len(self.coeffs)}"
            )

    def poly_coeffs(self, lam) -> np.ndarray:
        """Monic coefficient vector [1, c_(d-1), ..., c_0] at lam, the rows of
        map_coeffs stacked: shape (d+1,) at a scalar, (d+1, n) at n base points."""
        rows, _ = map_coeffs(HenonFamily((self,)), lam)[0]
        return np.stack([np.broadcast_to(r, np.shape(lam)) for r in rows])

    @cached_property
    def constant_coeffs(self) -> tuple:
        """(rows, a) of map_coeffs with each constant map's value, a numpy
        scalar evaluated once, and None for each map that varies with lam."""
        *rows, a = (np.complex128(m(0j)) if m.is_constant() else None for m in (*self.coeffs, self.a))
        return (np.complex128(1.0), *rows), a


@dataclass(frozen=True)
class HenonFamily:
    factors: tuple[HenonFactor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValidationError("family needs at least one factor")

    @cached_property
    def degree(self) -> int:
        """d = prod d_j, the product of the factor degrees."""
        return math.prod(f.degree for f in self.factors)


def quadratic_family(a: complex | str = 0.3, c: complex | str = 0.0) -> HenonFamily:
    """Convenience single-factor family p(y) = y^2 + c(lambda)."""
    cm = CoeffMap.parse(c) if isinstance(c, str) else CoeffMap.constant(c)
    am = CoeffMap.parse(a) if isinstance(a, str) else CoeffMap.constant(a)
    return HenonFamily((HenonFactor(2, (CoeffMap.constant(0.0), cm), am),))


def imul(acc: np.ndarray, v):
    """acc * v, in place into acc when that rounds as any other product.

    numpy 2.4 multiplies a length-1 complex array in place with a
    loop of its own, which rounds unlike the loop of every longer array
    and of an out-of-place product, so a point's orbit would depend on how
    many points share it. A length-1 acc gets a new array instead.
    """
    if acc.shape == (1,):
        return acc * v
    acc *= v
    return acc


def _horner(coeffs: np.ndarray, y):
    """p(y) for monic coefficients [1, c_(d-1), ..., c_0].

    The leading 1 is not read: every coefficient row (map_coeffs) is monic,
    so the sum starts at y + c_(d-1) and is updated in place.
    """
    acc = y + coeffs[1]
    for c in coeffs[2:]:
        acc = imul(acc, y)
        acc += c
    return acc


def factor_step(c, a, x, y, inverse: bool = False, scratch: bool = False):
    """One explicit factor step with monic coefficients c and Jacobian a.

    Forward (x, y) -> (y, p(y) - a x); inverse (x, y) -> ((p(x) - y) / a, x).
    With scratch=True a forward step may overwrite the array x, which the
    caller then no longer reads, instead of allocating the product. Both
    compute x * a: numpy's complex multiply rounds by operand order.
    """
    if inverse:
        p = _horner(c, x)
        p -= y
        p /= a
        return p, x
    p = _horner(c, y)
    if scratch:
        p -= imul(x, a)
    else:
        p -= x * a
    return y, p


def map_coeffs(fam: HenonFamily, lam) -> tuple:
    """Per-factor (rows, a) at base point(s) lam, rows = (1, c_(d-1), ..., c_0).

    The one coefficient builder (eval_map, eval_inverse, the orbit
    engine's suppliers, holder_estimate, poly_coeffs): a constant map gives
    its shared numpy scalar (HenonFactor.constant_coeffs), any other map
    one value per base point (a numpy scalar at a single point).
    """
    lam = np.asarray(lam, dtype=complex)

    def at(v, m):
        if v is not None:
            return v
        return np.complex128(m(lam)) if lam.ndim == 0 else m(lam)

    out = []
    for f in fam.factors:
        rows, a = f.constant_coeffs
        out.append((rows[:1] + tuple(map(at, rows[1:], f.coeffs)), at(a, f.a)))
    return tuple(out)


def eval_map(fam: HenonFamily, lam, z):
    """Compose the factors in listed order at a single base point."""
    x, y = z
    for c, a in map_coeffs(fam, lam):
        x, y = factor_step(c, a, x, y)
    return x, y


def eval_inverse(fam: HenonFamily, lam, z):
    """Exact inverse of eval_map; factor inverses applied in reverse order."""
    x, y = z
    for c, a in reversed(map_coeffs(fam, lam)):
        if np.min(np.abs(a)) < JACOBIAN_FLOOR:
            raise ZeroJacobian(f"|a| = {np.min(np.abs(a)):.3e} below {JACOBIAN_FLOOR}")
        x, y = factor_step(c, a, x, y, inverse=True)
    return x, y


def validate_family(fam: HenonFamily, lam_grid: np.ndarray) -> None:
    """Check a_j != 0 (above the 1e-12 floor) over a base sampling grid."""
    for j, f in enumerate(fam.factors):
        vals = np.abs(np.atleast_1d(np.asarray(f.a(lam_grid), dtype=complex)))
        if vals.min() < JACOBIAN_FLOOR:
            raise DegenerateFamily(
                f"factor {j}: |a_{j}| reaches {vals.min():.3e} on the base grid"
            )
