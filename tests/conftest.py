import mpmath
import pytest

from henonskew.base import BaseDynamics, BaseSpace, BaseSystem, point_base
from henonskew.expr import CoeffMap
from henonskew.family import HenonFactor, HenonFamily, quadratic_family
from henonskew.filtration import compute_radius


@pytest.fixture(scope="session")
def quad_fam():
    """p(y) = y^2, a = 0.3: the standard single quadratic family."""
    return quadratic_family(a=0.3)


@pytest.fixture(scope="session")
def single_base():
    return point_base(0.0)


@pytest.fixture(scope="session")
def quad_flt(quad_fam, single_base):
    return compute_radius(quad_fam, single_base.space, margin=1.0)


@pytest.fixture(scope="session")
def box_fam():
    """p(y) = y^2 + c(lam), c in [-0.1, 0.1] via c = lam, a = 0.2."""
    return HenonFamily(
        (HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.parse("u")), CoeffMap.constant(0.2)),)
    )


@pytest.fixture(scope="session")
def box_base():
    return BaseSystem(BaseSpace("box", bounds=((-0.1, 0.1),)), BaseDynamics("identity"))


@pytest.fixture(scope="session")
def two_letter_base():
    """M = {-0.1, +0.1} uniform; family uses c(lam) = lam."""
    return BaseSystem(BaseSpace("finite", points=(-0.1 + 0j, 0.1 + 0j)), BaseDynamics("shift"))


def _mp_map(factor_data, lam, x, y, inverse):
    """One application of the family (or its inverse) in mpmath."""
    facs = factor_data(lam)
    if inverse:
        for deg, coeffs, a in reversed(facs):
            p = mpmath.mpc(1)
            for c in coeffs:
                p = p * x + mpmath.mpc(c)
            x, y = (p - y) / mpmath.mpc(a), x
    else:
        for deg, coeffs, a in facs:
            p = mpmath.mpc(1)
            for c in coeffs:
                p = p * y + mpmath.mpc(c)
            x, y = y, p - mpmath.mpc(a) * x
    return x, y


def _mp_g(x, y, degree, depth):
    """d^-n log+ ||(x, y)|| in mpmath."""
    norm = mpmath.sqrt(abs(x) ** 2 + abs(y) ** 2)
    val = mpmath.log(norm) if norm > 1 else mpmath.mpf(0)
    return val / mpmath.mpf(degree) ** depth


def mp_orbit_green(factor_data, lam_of_step, z, depth, degree, inverse=False, dps=40):
    """Arbitrary-precision Green oracle: d^-n log+ ||orbit point||.

    factor_data(lam) yields [(deg, [c_(d-1)..c_0], a)] per factor; mpmath
    mpf exponents are unbounded so d^n coordinate growth is exact.
    """
    with mpmath.workdps(dps):
        x, y = mpmath.mpc(z[0]), mpmath.mpc(z[1])
        for n in range(depth):
            x, y = _mp_map(factor_data, lam_of_step(n), x, y, inverse)
        return float(_mp_g(x, y, degree, depth))


def _mp_wedge_orbit(factor_data, lam_of_step, z, degree, inverse, max_steps=400):
    """Yield (n, x, y, done) along the mpmath orbit of z.

    done marks the stopping depth of the benchmark's mpmath oracle: the
    dominant coordinate (y forward, x backward) exceeds 1e100 inside its
    wedge. Backward, log|x'| - d log|x| tends to -log|a| rather than 0,
    which leaves a tail of about d^-n |log a| / (d - 1), so there done also
    needs d^-n < 1e-13.
    """
    big = mpmath.mpf(10) ** 100
    x, y = mpmath.mpc(z[0]), mpmath.mpc(z[1])
    for n in range(1, max_steps + 1):
        x, y = _mp_map(factor_data, lam_of_step(n - 1), x, y, inverse)
        dom, sub = (abs(x), abs(y)) if inverse else (abs(y), abs(x))
        yield n, x, y, dom > big and dom >= sub and (not inverse or mpmath.mpf(degree) ** -n < 1e-13)


def mp_wedge_green(factor_data, lam_of_step, z, degree, inverse=False, dps=40):
    """Arbitrary-precision Green value of an escaping point, or None.

    The depth comes from the orbit alone (see _mp_wedge_orbit), never from
    a depth the program chose.
    """
    with mpmath.workdps(dps):
        for n, x, y, done in _mp_wedge_orbit(factor_data, lam_of_step, z, degree, inverse):
            if done:
                return float(_mp_g(x, y, degree, n))
    return None


def mp_truncation(factor_data, lam_of_step, z, degree, depth, dps=60):
    """|G_n(z) - G^+(z)| at n = depth, both in mpmath (forward orbits)."""
    with mpmath.workdps(dps):
        for n, x, y, done in _mp_wedge_orbit(factor_data, lam_of_step, z, degree, False):
            if n == depth:
                at_depth = _mp_g(x, y, degree, n)
            if done and n >= depth:
                return float(abs(at_depth - _mp_g(x, y, degree, n)))
    return None


def quad_factor_data(a=0.3, c=0.0):
    def data(lam):
        cc = c(lam) if callable(c) else c
        return [(2, [0.0, cc], a)]

    return data
