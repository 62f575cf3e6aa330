import math
import signal

import numpy as np
import pytest
from conftest import check_invariance_cexp, check_invariance_two_pass, log_mask, mp_wedge_green, quad_factor_data
from test_trap import BOX, TRAP_FAMILIES

from henonskew import filtration
from henonskew.base import BaseDynamics, BaseSpace, BaseSystem, point_base
from henonskew.errors import DegenerateFamily, ValidationError
from henonskew.expr import CoeffMap
from henonskew.family import HenonFactor, HenonFamily, eval_map, quadratic_family
from henonskew.filtration import _phases, check_invariance, compute_radius, region_masks
from henonskew.green import green_plus
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


def test_overflowing_constants_are_rejected():
    # finite box bounds whose coefficient sums overflow: the parent certified
    # green_plus at (0, 10) as bounded with value 0, where over (-1, 1) it escapes
    fam = quadratic_family(a=0.3, c="u^2")
    base = BaseSystem(BaseSpace("box", bounds=((-1e200, 1e200),)), BaseDynamics("identity"))
    with pytest.raises(ValidationError, match="not finite"):
        compute_radius(fam, base.space)
    with pytest.raises(ValidationError, match="not finite"):
        green_plus(fam, base, 0.0, (0, 10), n_max=3)
    unit = BaseSystem(BaseSpace("box", bounds=((-1.0, 1.0),)), BaseDynamics("identity"))
    assert green_plus(fam, unit, 0.0, (0, 10)).status == "escaped-certified"


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
    "one-point": BaseSpace("finite", points=(0.3 + 0.1j,)),
    "finite": BaseSpace("finite", points=(-0.2 + 0j, 0.3 + 0.1j)),
    "box": BaseSpace("box", bounds=((-0.5, 0.5),)),
    "circle": BaseSpace("circle"),
}


@pytest.mark.parametrize("sname", sorted(_INVARIANCE_SPACES))
@pytest.mark.parametrize("fname", sorted(_INVARIANCE_FAMILIES))
def test_invariance_matches_two_pass_loop(fname, sname, monkeypatch):
    """One forward and one backward map per base point, over blocks of
    table phases (several and a partial one), count exactly what four maps
    (each wedge alone, then with the bidisc) count, and what complex-exp
    phases mapped in one piece count. At 0.3 R every relation is violated,
    so the counts compare nonzero numbers."""
    monkeypatch.setattr(filtration, "BLOCK", 128)
    fam, space = _INVARIANCE_FAMILIES[fname], _INVARIANCE_SPACES[sname]
    R = compute_radius(fam, space).R
    for scale in (1.0, 0.5, 0.3):
        rep = check_invariance(fam, space, scale * R, n_points=2400, seed=5, lam_grid=8)
        per_lam = rep.n_points // rep.lam_count
        assert per_lam > 2 * filtration.BLOCK and per_lam % filtration.BLOCK
        assert rep == check_invariance_two_pass(fam, space, scale * R, n_points=2400, seed=5, lam_grid=8)
        assert rep == check_invariance_cexp(fam, space, scale * R, n_points=2400, seed=5, lam_grid=8)
    assert all(count > 0 for _, count in rep.rows())


def test_phases_match_complex_exp():
    """_phases is within 2e-15 of np.exp(2j pi u) in each component and of
    unit modulus within 4.5e-16, on 10^6 draws and both ends of [0, 1), and
    its imaginary part within 1e-15 relative on [0, 1/PHASE_TABLE)."""
    u = np.random.Generator(np.random.PCG64(23)).uniform(size=1_000_000)
    u[:2] = 0.0, 1.0 - 2.0 ** -53
    p, ref = _phases(u), np.exp(2j * np.pi * u)
    assert np.abs(p.real - ref.real).max() < 2e-15
    assert np.abs(p.imag - ref.imag).max() < 2e-15
    assert np.abs(np.abs(p) - 1.0).max() < 4.5e-16
    assert p[0] == 1.0
    # below the first table step the root is 1 and the series alone gives
    # sin(2 pi u) to within 1e-15 of its own size
    u /= filtration.PHASE_TABLE
    p, ref = _phases(u), np.exp(2j * np.pi * u)
    assert np.all(np.abs(p.imag - ref.imag) <= 1e-15 * np.abs(ref.imag))


@pytest.mark.parametrize("sname", ["one-point", "box"])
def test_block_size_changes_no_report(sname, monkeypatch):
    """BLOCK of 7, of 1000 and above per_lam give the same report."""
    fam, space = _INVARIANCE_FAMILIES["quadratic"], _INVARIANCE_SPACES[sname]
    R = compute_radius(fam, space).R
    for scale in (1.0, 0.3):
        reps = []
        for block in (7, 1000, 10_000):
            monkeypatch.setattr(filtration, "BLOCK", block)
            reps.append(check_invariance(fam, space, scale * R, n_points=4000, seed=11, lam_grid=4))
        assert reps[0].n_points // reps[0].lam_count < 10_000
        assert reps[0] == reps[1] == reps[2]
    assert all(count > 0 for _, count in reps[0].rows())


def test_invariance_memory_is_bounded_by_the_block():
    """100 000 points on a one-point base trace under 16 MB: the uniform
    draws and one block's points and images. Building every point at once
    traced 28 MB."""
    import tracemalloc

    fam, space = quadratic_family(a=0.3, c=0.1 + 0.05j), _INVARIANCE_SPACES["one-point"]
    R = compute_radius(fam, space).R
    assert 100_000 > 2 * filtration.BLOCK
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        rep = check_invariance(fam, space, R, n_points=100_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert rep.n_points == 100_000 and rep.total_violations == 0
    assert peak < 16e6, peak


_PINNED_FAMILIES = {
    "quadratic": (quadratic_family(a=0.3), point_base(0.0).space),
    "cubic": (TRAP_FAMILIES["cubic"], BOX),
    "two-factor": (TRAP_FAMILIES["two-factor"], BOX),
    "box": (HenonFamily((HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.parse("u")), CoeffMap.constant(0.2)),)),
            BaseSpace("box", bounds=((-0.1, 0.1),))),
}
# compute_radius's constants as the code with per-direction K fields gave them,
# in float.hex: (K), (bidisc_cap), (depth_for at _PINNED_TOLS), each (forward,
# backward), then the forward (rho_star, trap_radius)
_PINNED_TOLS = (1e-3, 1e-6, 1e-9)
_PINNED = {
    "quadratic": (
        ('0x1.67edfab0747d8p+0', '0x1.1c96d3cd43954p+1'),
        ('0x1.058d324666813p+2', '0x1.6e2d08bb6fd7bp+2'),
        ((12, 22, 32), (13, 23, 33)),
        ('0x1.3c865eba062bbp+44', '0x1.570a3d70a3d70p-1'),
    ),
    "cubic": (
        ('0x1.6041331d5c420p+0', '0x1.eb4cd41d719e4p+0'),
        ('0x1.ac79054a87bf4p+1', '0x1.0a60df054be23p+2'),
        ((7, 14, 20), (8, 14, 20)),
        ('0x1.586097fd160c2p+43', '0x1.9a6aaca9698a8p-1'),
    ),
    "two-factor": (
        ('0x1.8ea9ed85363eep+0', '0x1.b4a1a89844f42p+1'),
        ('0x1.ae0ebd4d51624p+1', '0x1.753a7fdfc4945p+2'),
        ((6, 11, 16), (7, 12, 17)),
        ('0x1.b68801aff3dc0p+44', '0x1.454fd760a3845p-1'),
    ),
    "box": (
        ('0x1.67edfab0747dap+0', '0x1.39a95881e186ap+1'),
        ('0x1.058d324666815p+2', '0x1.8b3f8d700dc92p+2'),
        ((12, 22, 32), (13, 23, 33)),
        ('0x1.3c865eba062bcp+44', '0x1.30bbce4f4b59fp-1'),
    ),
}


@pytest.mark.parametrize("name", _PINNED)
def test_direction_records_keep_their_constants(name):
    """Both direction records give, with ==, the constants pinned above, and
    tail_bound(n) = K d/(d-1) d^-n for n = 0..30."""
    fam, space = _PINNED_FAMILIES[name]
    K, cap, depths, (rho_star, trap) = _PINNED[name]
    fwd = compute_radius(fam, space)
    bwd = fwd.toward(True)
    assert fwd.toward(False) is fwd and bwd.toward(True) is bwd
    assert bwd.toward(False) == fwd and not fwd.inverse and bwd.inverse
    d = fwd.degree
    for flt, k, m, ns in zip((fwd, bwd), K, cap, depths):
        k = float.fromhex(k)
        assert flt.K == k
        assert [flt.tail_bound(n) for n in range(31)] == [k * d / (d - 1) * d ** (-float(n)) for n in range(31)]
        assert tuple(flt.depth_for(t) for t in _PINNED_TOLS) == ns
        assert flt.bidisc_cap() == float.fromhex(m)
    assert fwd.rho_star == float.fromhex(rho_star) and fwd.trap_radius == float.fromhex(trap)
    assert bwd.rho_star == math.inf and bwd.trap_radius == 0.0


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
    makes the backward K much larger than the forward one, so the backward
    case needs the backward record's cap.
    """
    a, c = 0.05, 0.0
    fam, base = quadratic_family(a, c), point_base(0.0)
    flt = compute_radius(fam, base.space)
    R, d, cap = flt.R, float(fam.degree), flt.toward(inverse).bidisc_cap()
    sup = SigmaSupplier(fam, base.sigma, 0.0)
    rng = np.random.Generator(np.random.PCG64(1))
    x = R * (rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300))
    y = R * (rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300))

    def in_bidisc(o):
        return ~log_mask(o) & (np.abs(o.x) <= R) & (np.abs(o.y) <= R)

    xs, ys = [x], [y]
    for _, o in iterate(sup, x, y, [1, 2, 3], not inverse):
        inside = in_bidisc(o)
        xs.append(o.x[inside])
        ys.append(o.y[inside])
    x, y = np.concatenate(xs), np.concatenate(ys)
    last = np.full(x.size, -1)  # deepest n <= 15 with the orbit in V_R
    for n, o in iterate(sup, x, y, range(16), inverse):
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


@pytest.fixture
def deadline():
    """Fail a call that does not return within 10 s, instead of hanging."""

    def expire(*_):
        raise TimeoutError("no return within 10 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan")])
def test_depth_for_needs_positive_tol(tol, quad_fam, single_base, deadline):
    # tail_bound underflows to 0 near n = 1075: a tol <= 0 would never be met
    flt = compute_radius(quad_fam, single_base.space)
    with pytest.raises(ValidationError, match="tol must be positive"):
        flt.depth_for(tol)
    with pytest.raises(ValidationError, match="tol must be positive"):
        green_plus(quad_fam, single_base, 0.0, (0.5 + 0j, 0.5 + 0j), tol=tol, flt=flt)
    assert flt.depth_for(float("inf")) == 1
