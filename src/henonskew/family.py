"""Generalized Henon factor maps with base-dependent coefficients.

A factor is (x, y) -> (y, p(y) - a*x) with p monic of degree >= 2; a family
composes factors in order and has degree d = prod d_j, constant over the
base. Inverses are exact: (x, y) -> ((p(x) - y) / a, x).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        """Monic coefficient vector [1, c_(d-1), ..., c_0] at lam.

        Accepts a scalar or an array of base points; returns shape (d+1,)
        or (d+1, n).
        """
        lam = np.asarray(lam, dtype=complex)
        rows = [1.0 + 0j] + [c(lam) for c in self.coeffs]
        return np.stack([np.broadcast_to(np.asarray(r, dtype=complex), lam.shape) for r in rows])

    @cached_property
    def constant_coeffs(self) -> tuple[np.ndarray, complex] | None:
        """(poly_coeffs, a), evaluated once, when every coefficient map is constant; else None."""
        if not (self.a.is_constant() and all(c.is_constant() for c in self.coeffs)):
            return None
        c = self.poly_coeffs(0j)
        c.flags.writeable = False
        return c, self.a(0j)


@dataclass(frozen=True)
class HenonFamily:
    factors: tuple[HenonFactor, ...]
    degree: int = field(init=False)

    def __post_init__(self):
        if not self.factors:
            raise ValidationError("family needs at least one factor")
        d = 1
        for f in self.factors:
            d *= f.degree
        object.__setattr__(self, "degree", d)


def quadratic_family(a: complex | str = 0.3, c: complex | str = 0.0) -> HenonFamily:
    """Convenience single-factor family p(y) = y^2 + c(lambda)."""
    cm = CoeffMap.parse(c) if isinstance(c, str) else CoeffMap.constant(c)
    am = CoeffMap.parse(a) if isinstance(a, str) else CoeffMap.constant(a)
    return HenonFamily((HenonFactor(2, (CoeffMap.constant(0.0), cm), am),))


def _horner(coeffs: np.ndarray, y):
    """p(y) for monic coefficients [1, c_(d-1), ..., c_0].

    The leading 1 is not read: every coefficient source (poly_coeffs, the
    orbit engine's suppliers) is monic, so the sum starts at y + c_(d-1)
    and is updated in place.
    """
    acc = y + coeffs[1]
    for c in coeffs[2:]:
        acc *= y
        acc += c
    return acc


def factor_step(c, a, x, y, inverse: bool = False, scratch: bool = False):
    """One explicit factor step with monic coefficients c and Jacobian a.

    Forward (x, y) -> (y, p(y) - a x); inverse (x, y) -> ((p(x) - y) / a, x).
    With scratch=True a forward step may overwrite the array x, which the
    caller then no longer reads, instead of allocating a x.
    """
    if inverse:
        p = _horner(c, x)
        p -= y
        p /= a
        return p, x
    p = _horner(c, y)
    if scratch:
        x *= a
        p -= x
    else:
        p -= a * x
    return y, p


def eval_factor(f: HenonFactor, lam, z):
    """Apply one factor at base point(s) lam to z = (x, y)."""
    x, y = z
    c = f.poly_coeffs(lam)
    a = f.a(lam)
    return factor_step(c, a, x, y)


def map_coeffs(fam: HenonFamily, lam) -> tuple:
    """Per-factor (poly_coeffs, a) at base point(s) lam, constant factors evaluated once:
    the coefficients of eval_map, eval_inverse and the orbit engine."""
    return tuple(f.constant_coeffs or (f.poly_coeffs(lam), f.a(lam)) for f in fam.factors)


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


def jacobian_det(fam: HenonFamily, lam):
    """det D(eval_map) = prod a_j(lambda), constant in z."""
    det = 1.0 + 0j
    for f in fam.factors:
        det = det * f.a(lam)
    return det


def validate_family(fam: HenonFamily, lam_grid: np.ndarray) -> None:
    """Check a_j != 0 (above the 1e-12 floor) over a base sampling grid."""
    for j, f in enumerate(fam.factors):
        vals = np.abs(np.atleast_1d(np.asarray(f.a(lam_grid), dtype=complex)))
        if vals.min() < JACOBIAN_FLOOR:
            raise DegenerateFamily(
                f"factor {j}: |a_{j}| reaches {vals.min():.3e} on the base grid"
            )
