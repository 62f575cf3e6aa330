import numpy as np
import pytest

from conftest import mp_orbit_green, quad_factor_data
from henonskew.base import BaseSpace
from henonskew.errors import DegenerateFamily, ValidationError, ZeroJacobian
from henonskew.expr import CoeffMap
from henonskew.family import (
    HenonFactor,
    HenonFamily,
    eval_factor,
    eval_inverse,
    eval_map,
    jacobian_det,
    quadratic_family,
    validate_family,
)
from henonskew.orbit import Orbit, step_map


def test_factor_fixed_point(quad_fam):
    assert eval_map(quad_fam, 0.0, (0j, 0j)) == (0j, 0j)


def test_factor_direct_substitution(quad_fam):
    x, y = eval_map(quad_fam, 0.0, (1 + 0j, 2 + 0j))
    assert x == 2 and y == pytest.approx(4 - 0.3)


def test_factor_large_input_matches_mpmath():
    fam = quadratic_family(a=0.2, c=0.1)
    x, y = eval_map(fam, 0.0, (0j, 1e3 + 0j))
    assert x == 1e3
    # independent arbitrary-precision check of p(1e3) + no a-term
    import mpmath

    with mpmath.workdps(40):
        expect = mpmath.mpf(1e3) ** 2 + mpmath.mpf("0.1")
        assert abs(complex(y) - complex(expect)) < 1e-9


def test_two_factor_composition():
    f1 = HenonFactor(2, (CoeffMap.constant(0), CoeffMap.constant(0)), CoeffMap.constant(1.0))
    f2 = HenonFactor(3, (CoeffMap.constant(0),) * 3, CoeffMap.constant(1.0))
    fam = HenonFamily((f1, f2))
    assert fam.degree == 6
    # (0,1) -> f1 -> (1, 1) -> f2 -> (1, 1 - 1) = (1, 0)
    assert eval_map(fam, 0.0, (0j, 1 + 0j)) == (1 + 0j, 0j)


def test_single_factor_equals_eval_factor(quad_fam):
    z = (0.3 + 0.1j, -0.7 + 0.2j)
    assert eval_map(quad_fam, 0.0, z) == eval_factor(quad_fam.factors[0], 0.0, z)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("per_point", [False, True], ids=["shared-lam", "per-point-lam"])
@pytest.mark.parametrize("n_factors", [1, 2])
def test_engine_step_equals_family_maps(n_factors, per_point, inverse):
    # the orbit engine and eval_map / eval_inverse share one explicit factor kernel
    factors = (
        HenonFactor(2, (CoeffMap.parse("0.1*u"), CoeffMap.parse("u - 0.2")), CoeffMap.parse("0.3 + 0.1*u")),
        HenonFactor(3, (CoeffMap.constant(0.0), CoeffMap.parse("u"), CoeffMap.constant(0.5j)), CoeffMap.constant(-0.7)),
    )
    fam = HenonFamily(factors[:n_factors])
    rng = np.random.Generator(np.random.PCG64(5))
    n = 256
    x = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
    y = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
    lam = rng.uniform(-0.5, 0.5, n) + 0j if per_point else 0.25 + 0j
    orbit = Orbit(fam, x, y, inverse)
    step_map(orbit, fam, lam, inverse)
    ex, ey = (eval_inverse if inverse else eval_map)(fam, lam, (x, y))
    assert np.array_equal(orbit.x, ex) and np.array_equal(orbit.y, ey)


def test_inverse_examples(quad_fam):
    assert eval_inverse(quad_fam, 0.0, (0j, 0j)) == (0j, 0j)
    x, y = eval_inverse(quad_fam, 0.0, (2 + 0j, 3.7 + 0j))
    assert complex(x) == pytest.approx(1.0) and y == 2.0


def test_inverse_roundtrip_property(quad_fam):
    rng = np.random.Generator(np.random.PCG64(7))
    n = 10_000
    r = 1e3 * np.sqrt(rng.uniform(size=n))
    ph = np.exp(2j * np.pi * rng.uniform(size=(2, n)))
    x, y = r * ph[0], r * rng.uniform(size=n) * ph[1]
    fx, fy = eval_map(quad_fam, 0.0, (x, y))
    bx, by = eval_inverse(quad_fam, 0.0, (fx, fy))
    scale = np.maximum(np.hypot(np.abs(x), np.abs(y)), 1.0)
    err = np.hypot(np.abs(bx - x), np.abs(by - y)) / scale
    assert err.max() < 1e-9


def test_jacobian_matches_finite_differences(quad_fam):
    lam = 0.0
    z = (0.4 + 0.2j, -0.3 + 0.5j)
    h = 1e-6
    # holomorphic partials via complex steps along the real axis
    fx0, fy0 = eval_map(quad_fam, lam, z)
    dx = [(c - c0) / h for c, c0 in zip(eval_map(quad_fam, lam, (z[0] + h, z[1])), (fx0, fy0))]
    dy = [(c - c0) / h for c, c0 in zip(eval_map(quad_fam, lam, (z[0], z[1] + h)), (fx0, fy0))]
    det = dx[0] * dy[1] - dy[0] * dx[1]
    expected = jacobian_det(quad_fam, lam)
    assert abs(det - expected) / abs(expected) < 1e-5


def test_degree_growth(quad_fam):
    # ||H(0, y)|| / |y|^d -> 1 for the monic family without lower terms
    for mag in (1e3, 1e4, 1e5):
        _, y = eval_map(quad_fam, 0.0, (0j, mag + 0j))
        assert abs(y) / mag ** 2 == pytest.approx(1.0, rel=1e-10)


def test_validation_errors():
    with pytest.raises(ValidationError):
        HenonFactor(1, (CoeffMap.constant(0),), CoeffMap.constant(1))
    with pytest.raises(ValidationError):
        HenonFactor(3, (CoeffMap.constant(0),), CoeffMap.constant(1))
    fam = quadratic_family(a=0.0)
    with pytest.raises(DegenerateFamily):
        validate_family(fam, BaseSpace("finite", points=(0j,)).grid())
    with pytest.raises(ZeroJacobian):
        eval_inverse(fam, 0.0, (1 + 0j, 1 + 0j))


def test_lambda_dependent_coefficients_match_oracle():
    fam = HenonFamily(
        (HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.parse("u")), CoeffMap.constant(0.2)),)
    )
    z = (0.3 + 0j, 0.9 + 0j)
    lam = 0.07
    data = quad_factor_data(a=0.2, c=lambda l: l)
    got = mp_orbit_green(data, lambda n: lam, z, 6, 2)
    x, y = z
    for _ in range(6):
        x, y = eval_map(fam, lam, (x, y))
    direct = max(0.0, float(np.log(np.hypot(abs(x), abs(y))))) / 2 ** 6
    assert direct == pytest.approx(got, abs=1e-12)
