import numpy as np
import pytest
from conftest import check_invariance_two_pass, mp_wedge_green, quad_factor_data

from henonskew.base import BaseSpace, point_base
from henonskew.errors import DegenerateFamily
from henonskew.expr import CoeffMap
from henonskew.family import HenonFactor, HenonFamily, eval_map, quadratic_family
from henonskew.filtration import check_invariance, compute_radius, region_masks
from henonskew.orbit import SigmaSupplier, iterate


def test_radius_plain_quadratic(quad_flt):
    assert quad_flt.R == pytest.approx(2.3)


def test_radius_box_family(box_fam, box_base):
    flt = compute_radius(box_fam, box_base.space, margin=1.0)
    # sup |c| + 2 + a = 0.1 + 2 + 0.2
    assert flt.R == pytest.approx(2.3)


def test_radius_a_one():
    fam = quadratic_family(a=1.0)
    flt = compute_radius(fam, BaseSpace("finite", points=(0j,)), margin=1.0)
    assert flt.R == pytest.approx(3.0)


def test_radius_poly_bound(quad_fam, quad_flt):
    # |p(y)| >= (2 + a) |y| on a circle sampling at |y| = R
    R, a = quad_flt.R, quad_flt.a_sup
    y = R * np.exp(2j * np.pi * np.linspace(0, 1, 128, endpoint=False))
    assert np.all(np.abs(y ** 2) >= (2 + a) * np.abs(y) - 1e-12)


def test_degenerate_family_rejected():
    fam = quadratic_family(a=0.0)
    with pytest.raises(DegenerateFamily):
        compute_radius(fam, BaseSpace("finite", points=(0j,)))


def test_invariance_no_violations(box_fam, box_base):
    flt = compute_radius(box_fam, box_base.space, margin=1.0)
    rep = check_invariance(box_fam, box_base.space, flt.R, n_points=10_000, seed=2)
    assert rep.total_violations == 0
    assert "relation,violations" in rep.as_csv()


def test_invariance_direct_point(quad_fam, quad_flt):
    R = quad_flt.R
    x, y = eval_map(quad_fam, 0.0, (0j, R + 1 + 0j))
    plus, _, _ = region_masks(np.array([x]), np.array([y]), R)
    assert plus[0]


def test_invariance_monotone_in_R(box_fam, box_base):
    flt = compute_radius(box_fam, box_base.space, margin=1.0)
    for scale in (1.0, 2.0):
        rep = check_invariance(box_fam, box_base.space, scale * flt.R, n_points=4000, seed=5)
        assert rep.total_violations == 0


_INVARIANCE_FAMILIES = {
    "quadratic": quadratic_family(a=0.3, c=0.1 + 0.05j),
    "cubic": HenonFamily((HenonFactor(3, (CoeffMap.constant(0.0), CoeffMap.constant(0.2), CoeffMap.parse("0.1*u")),
                                      CoeffMap.constant(0.4)),)),
    "two-factor": HenonFamily((
        HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.parse("0.1*u")), CoeffMap.parse("0.3 + 0.1*u")),
        HenonFactor(2, (CoeffMap.parse("0.05*u"), CoeffMap.constant(-0.2)), CoeffMap.constant(0.5)),
    )),
}
_INVARIANCE_SPACES = {
    "finite": BaseSpace("finite", points=(-0.2 + 0j, 0.3 + 0.1j)),
    "box": BaseSpace("box", bounds=((-0.5, 0.5),)),
    "circle": BaseSpace("circle"),
}


@pytest.mark.parametrize("sname", sorted(_INVARIANCE_SPACES))
@pytest.mark.parametrize("fname", sorted(_INVARIANCE_FAMILIES))
def test_invariance_matches_two_pass_loop(fname, sname):
    """One forward and one backward map per base point count exactly what
    four maps (each wedge alone, then with the bidisc) count. At 0.3 R every
    relation is violated, so the counts compare nonzero numbers."""
    fam, space = _INVARIANCE_FAMILIES[fname], _INVARIANCE_SPACES[sname]
    R = compute_radius(fam, space).R
    for scale in (1.0, 0.5, 0.3):
        rep = check_invariance(fam, space, scale * R, n_points=2400, seed=5, lam_grid=8)
        assert rep.n_points // rep.lam_count >= 2
        assert rep == check_invariance_two_pass(fam, space, scale * R, n_points=2400, seed=5, lam_grid=8)
    assert all(count > 0 for _, count in rep.rows())


def test_escape_dichotomy(quad_fam, single_base, quad_flt):
    # every sampled point either reaches V_R^+ or stays in V_R u V_R^-
    rng = np.random.Generator(np.random.PCG64(8))
    n = 400
    x = rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n)
    y = rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n)
    R = quad_flt.R
    escaped = np.zeros(n, dtype=bool)
    stayed = np.ones(n, dtype=bool)
    cx, cy = x.copy(), y.copy()
    for _ in range(60):
        plus, minus, box = region_masks(cx, cy, R)
        escaped |= plus
        stayed &= ~plus
        live = ~escaped
        nxt = eval_map(quad_fam, 0.0, (np.where(live, cx, 0), np.where(live, cy, 0)))
        cx, cy = nxt
    plus, minus, box = region_masks(cx, cy, R)
    assert np.all(escaped | minus | box)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "backward"])
def test_bidisc_cap_bounds_green(inverse):
    """A point whose orbit lies in V_R at depth n has G <= d^-n bidisc_cap.

    The points are a cloud in V_R and its images under one to three steps
    of the other direction that stay in V_R, so their orbits stay in V_R
    for a few steps before they escape. G is the mpmath value. |a| = 0.05
    makes K_minus much larger than K_plus, so the backward case needs the
    backward cap.
    """
    a, c = 0.05, 0.0
    fam, base = quadratic_family(a, c), point_base(0.0)
    flt = compute_radius(fam, base.space)
    R, d, cap = flt.R, float(fam.degree), flt.bidisc_cap(inverse)
    sup = SigmaSupplier(base.sigma, 0.0)
    rng = np.random.Generator(np.random.PCG64(1))
    x = R * (rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300))
    y = R * (rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300))

    def in_bidisc(o):
        return ~o.logm & (np.abs(o.x) <= R) & (np.abs(o.y) <= R)

    xs, ys = [x], [y]
    for _, o in iterate(fam, sup, x, y, [1, 2, 3], not inverse):
        inside = in_bidisc(o)
        xs.append(o.x[inside])
        ys.append(o.y[inside])
    x, y = np.concatenate(xs), np.concatenate(ys)
    last = np.full(x.size, -1)  # deepest n <= 15 with the orbit in V_R
    for n, o in iterate(fam, sup, x, y, range(16), inverse):
        last[in_bidisc(o)] = n
    found = np.flatnonzero(last >= 0)
    pick = np.union1d(found[np.linspace(0, found.size - 1, 80).astype(int)], np.flatnonzero(last >= 2)[:40])
    checked = []
    for i in pick:
        g = mp_wedge_green(quad_factor_data(a, c), lambda k: 0.0, (x[i], y[i]), 2, inverse)
        if g is None:
            continue
        assert g <= d ** (-last[i]) * cap, (i, last[i], g)
        checked.append(last[i])
    # escaping points, some of them after several steps in V_R
    assert len(checked) >= 60 and sum(n >= 2 for n in checked) >= 15
