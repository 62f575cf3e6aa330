import math

import pytest

from conftest import mp_orbit_green
from henonskew.expr import CoeffMap
from henonskew.family import HenonFactor, HenonFamily
from henonskew.filtration import compute_radius
from henonskew.green import green_minus, green_plus
from henonskew.orbit import OVERFLOW_SWITCH, switch_bound

TOL = 1e-6
A = 0.3
C = 0.1

# factor degrees 2..30 alone and in pairs (family degree up to 60)
DEGREES = [(2,), (3,), (5,), (8,), (13,), (16,), (24,), (30,), (2, 3), (5, 6), (2, 24), (30, 2)]
MAGNITUDES = (1e-300, 1e-3, 1.0, 5.0, 1e3, 1e20, 1e100, 1e200, 1e300)


def _family(degs, c=C):
    """Factors p_j(y) = y^d_j + c, Jacobian a = 0.3."""
    zero = CoeffMap.constant(0.0)
    return HenonFamily(tuple(HenonFactor(d, (zero,) * (d - 1) + (CoeffMap.constant(c),), CoeffMap.constant(A)) for d in degs))


def _factor_data(degs, c=C):
    return lambda lam: [(d, [0.0] * (d - 1) + [c], A) for d in degs]


def test_switch_bound_keeps_explicit_steps_representable():
    assert switch_bound(_family((2,))) == OVERFLOW_SWITCH
    assert switch_bound(_family((15, 2))) == OVERFLOW_SWITCH
    for degs in ((16,), (24,), (2, 30)):
        assert switch_bound(_family(degs)) ** max(degs) == pytest.approx(1e300, rel=1e-9)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("degs", DEGREES, ids=lambda d: "x".join(map(str, d)))
def test_certificates_match_oracle(degs, inverse, single_base):
    """Every certified value is within its error bound of the mpmath orbit."""
    fam = _family(degs)
    flt = compute_radius(fam, single_base.space)
    data = _factor_data(degs)
    green = green_minus if inverse else green_plus
    for m in MAGNITUDES:
        for z in ((0.5 * m, m), (m, 0.5j * m)):
            g = green(fam, single_base, 0.0, z, TOL, flt=flt)
            if g.status == "escaped-certified":
                ref = mp_orbit_green(data, lambda n: 0.0, z, g.depth + 8, fam.degree, inverse=inverse)
                assert abs(g.value - ref) <= g.err_bound + 1e-9 * max(1.0, ref), (z, g, ref)
            else:
                assert g.status == "bounded-certified", (z, g)
                ref = mp_orbit_green(data, lambda n: 0.0, z, 30, fam.degree, inverse=inverse)
                assert g.value == 0.0 and ref <= TOL, (z, g, ref)


def test_degree_24_and_huge_start_points(single_base):
    g = green_plus(_family((24,), c=0.0), single_base, 0.0, (0j, 5 + 0j), TOL)
    assert g.status == "escaped-certified"
    assert g.value == pytest.approx(math.log(5), abs=g.err_bound)
    g = green_plus(_family((2,), c=0.0), single_base, 0.0, (0j, 1e200 + 0j), TOL)
    assert g.status == "escaped-certified"
    assert g.value == pytest.approx(math.log(1e200), abs=g.err_bound)


NAN, INF = float("nan"), float("inf")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize(
    "z",
    [(NAN, 0.0), (0.0, NAN), (INF, 0.0), (0.0, INF), (INF, INF), (complex(1.0, NAN), 1.0), (-INF, 2.0)],
    ids=repr,
)
def test_non_finite_input_is_undecided(z, inverse, quad_fam, single_base, quad_flt):
    green = green_minus if inverse else green_plus
    assert green(quad_fam, single_base, 0.0, z, TOL, flt=quad_flt).status == "undecided"
