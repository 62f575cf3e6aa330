import math

import numpy as np
import pytest

from henonskew.base import BaseDynamics, BaseSpace, BaseSystem, point_base
from henonskew.errors import DegenerateLift, ValidationError, ZeroVector
from henonskew.projective import (
    ATTRACTED,
    ESCAPES,
    INDETERMINATE,
    HomogeneousLift,
    basin_classify,
    basin_classify_batch,
    diag_power_lift,
    estimate_constants,
    fatou_detect,
    green_proj,
    green_proj_batch,
)

BASE = point_base(0.0)


@pytest.fixture(scope="module")
def squaring():
    return diag_power_lift(k=2, d=2)


@pytest.fixture(scope="module")
def squaring_consts(squaring):
    # margins 0: the closed-form case l = 1/sqrt(3), L = 1
    return estimate_constants(squaring, BASE.space, n_sphere=200_000, seed=3, margin=0.0)


def test_closed_form_constants(squaring_consts):
    c = squaring_consts
    assert c.L_emp == pytest.approx(1.0, rel=0.02)
    assert c.l_emp == pytest.approx(1 / math.sqrt(3), rel=0.02)
    assert c.r == pytest.approx(0.5, rel=0.02)
    assert c.R == pytest.approx(2 * math.sqrt(3), rel=0.02)


def test_scaling_doubles_constants(squaring, squaring_consts):
    doubled = diag_power_lift(k=2, d=2, scale=2.0)
    c2 = estimate_constants(doubled, BASE.space, n_sphere=50_000, seed=3, margin=0.0)
    c1 = estimate_constants(squaring, BASE.space, n_sphere=50_000, seed=3, margin=0.0)
    assert c2.L_emp == pytest.approx(2 * c1.L_emp, rel=1e-9)
    assert c2.l_emp == pytest.approx(2 * c1.l_emp, rel=1e-9)


def test_degenerate_lift_rejected():
    bad = HomogeneousLift.parse(2, 2, ["x0^2", "x0*x1", "x0*x2"])  # vanishes on x0 = 0
    with pytest.raises(DegenerateLift):
        estimate_constants(bad, BASE.space, n_sphere=20_000, seed=1)


def test_homogeneity_validation():
    with pytest.raises(ValidationError):
        HomogeneousLift.parse(1, 2, ["x0^2 + x1", "x1^2"])  # degree-1 term


def test_green_axis_point(squaring):
    for c in (2.0, 0.25, 1j):
        g = green_proj(squaring, BASE, 0.0, np.array([c, 0, 0]))
        assert g == pytest.approx(math.log(abs(c)), abs=1e-9)


def test_green_balanced_point(squaring):
    g = green_proj(squaring, BASE, 0.0, np.array([1.0, 1.0, 1.0]))
    assert abs(g) < 1e-5


def test_green_homogeneity(squaring):
    rng = np.random.Generator(np.random.PCG64(8))
    pts = rng.normal(size=(1000, 3)) + 1j * rng.normal(size=(1000, 3))
    g0 = green_proj_batch(squaring, BASE, 0.0, pts)
    for c in (2.0, 1j, 0.1):
        g1 = green_proj_batch(squaring, BASE, 0.0, c * pts)
        assert np.abs(g1 - math.log(abs(c)) - g0).max() < 2e-6


def test_green_invariance(squaring):
    rng = np.random.Generator(np.random.PCG64(9))
    pts = rng.normal(size=(500, 3)) + 1j * rng.normal(size=(500, 3))
    g = green_proj_batch(squaring, BASE, 0.0, pts)
    img = squaring.eval(0.0, pts)
    g_img = green_proj_batch(squaring, BASE, 0.0, img)
    assert np.abs(2 * g - g_img).max() < 2e-6


def test_green_tail_bound(squaring, squaring_consts):
    # empirical |G_(n+1) - G_n| <= log(C)/d^(n+1) with C from the constants
    x = np.array([0.8 + 0.1j, -0.3 + 0.2j, 0.5 - 0.6j])
    logc = math.log(squaring_consts.tail_constant)
    s = np.log(np.linalg.norm(x))
    xh = x / np.linalg.norm(x)
    prev = s
    for n in range(1, 12):
        img = squaring.eval(0.0, xh[None, :])[0]
        nn = np.linalg.norm(img)
        s = 2 * s + math.log(nn)
        xh = img / nn
        cur = s / 2 ** n
        assert abs(cur - prev) <= logc / 2 ** n + 1e-12
        prev = cur


def test_zero_vector_rejected(squaring):
    with pytest.raises(ZeroVector):
        green_proj(squaring, BASE, 0.0, np.zeros(3))
    with pytest.raises(ZeroVector):
        basin_classify(squaring, BASE, 0.0, np.zeros(3))


def test_negative_depths_are_rejected(squaring, squaring_consts):
    # without the check depth -3 labelled (0.1, 0, 0) indeterminate and gave G its depth-0 value
    x = np.array([0.1, 0, 0])
    with pytest.raises(ValidationError, match="at least 0"):
        basin_classify(squaring, BASE, 0.0, x, n_max=-3, constants=squaring_consts)
    with pytest.raises(ValidationError, match="at least 0"):
        green_proj(squaring, BASE, 0.0, x, n_max=-3, constants=squaring_consts)
    assert basin_classify(squaring, BASE, 0.0, x, n_max=0, constants=squaring_consts) == ATTRACTED
    assert green_proj(squaring, BASE, 0.0, x, n_max=0, constants=squaring_consts) == math.log(0.1)


def test_basin_radii_certificates(squaring, squaring_consts):
    rng = np.random.Generator(np.random.PCG64(4))
    sph = rng.normal(size=(500, 3)) + 1j * rng.normal(size=(500, 3))
    sph /= np.linalg.norm(sph, axis=1, keepdims=True)
    inner = basin_classify_batch(squaring, BASE, 0.0, 0.99 * squaring_consts.r * sph, constants=squaring_consts)
    assert all(v == ATTRACTED for v in inner)
    outer = basin_classify_batch(squaring, BASE, 0.0, 1.01 * squaring_consts.R * sph, constants=squaring_consts)
    assert all(v == ESCAPES for v in outer)


def test_basin_indeterminate_on_torus(squaring, squaring_consts):
    # (1,1,1) has constant orbit norm sqrt(3), between the attraction
    # radius r and the escape radius R = 2/l, so neither certificate fires
    # at any depth.
    from henonskew.projective import LiftConstants

    v = basin_classify(squaring, BASE, 0.0, np.array([1.0, 1.0, 1.0]), n_max=60, constants=squaring_consts)
    assert v == INDETERMINATE
    sound = LiftConstants(
        l_emp=squaring_consts.l_emp,
        L_emp=squaring_consts.L_emp,
        r=squaring_consts.r,
        R=2.0 / squaring_consts.l_emp,
        n_sphere=squaring_consts.n_sphere,
        margin=0.0,
    )
    v2 = basin_classify(squaring, BASE, 0.0, np.array([1.0, 1.0, 1.0]), n_max=60, constants=sound)
    assert v2 == INDETERMINATE


def test_basin_green_consistency(squaring, squaring_consts):
    # exercised where the certificates are genuinely decisive: well inside
    # the contraction ball and beyond the sound expansion radius 2/l
    rng = np.random.Generator(np.random.PCG64(11))
    sph = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
    sph /= np.linalg.norm(sph, axis=1, keepdims=True)
    inner_pts = 0.9 * squaring_consts.r * sph
    for pt, cls in zip(inner_pts, basin_classify_batch(squaring, BASE, 0.0, inner_pts, constants=squaring_consts)):
        assert cls == ATTRACTED
    g_in = green_proj_batch(squaring, BASE, 0.0, inner_pts)
    assert np.all(g_in < 1e-6)
    r_true = 2.0 / squaring_consts.l_emp
    outer_pts = 1.05 * r_true * sph
    for pt, cls in zip(outer_pts, basin_classify_batch(squaring, BASE, 0.0, outer_pts, constants=squaring_consts)):
        assert cls == ESCAPES
    g_out = green_proj_batch(squaring, BASE, 0.0, outer_pts)
    assert np.all(g_out > -1e-6)


def test_fatou_detection(squaring, squaring_consts):
    assert fatou_detect(squaring, BASE, 0.0, np.array([1.0, 0, 0]), constants=squaring_consts) == "fatou"
    assert (
        fatou_detect(squaring, BASE, 0.0, np.array([1.0, 1.0, 0]), constants=squaring_consts) == "julia-suspect"
    )
    # threshold degeneracy: huge tolerance accepts everything
    assert (
        fatou_detect(squaring, BASE, 0.0, np.array([1.0, 1.0, 0]), tol=1e9, constants=squaring_consts) == "fatou"
    )


def test_lift_with_base_dependence():
    lift = HomogeneousLift.parse(1, 2, ["x0^2 + u*x1^2", "x1^2"])
    space = BaseSpace("box", bounds=((0.0, 0.5),))
    base = BaseSystem(space, BaseDynamics("identity"))
    consts = estimate_constants(lift, space, n_sphere=5000, seed=2)
    g = green_proj(lift, base, 0.25, np.array([1.0, 0.0]), constants=consts)
    assert g == pytest.approx(0.0, abs=1e-9)
