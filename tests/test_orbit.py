import math

import numpy as np
import pytest

import henonskew.green as green_mod
import henonskew.orbit as orbit_mod
from conftest import log_mask, mp_orbit_green, mp_truncation, mp_wedge_green
from henonskew.base import BaseDynamics, BaseSpace, BaseSystem, ParamSequence, advance, point_base
from henonskew.convergence import PotentialSpec
from henonskew.errors import ValidationError
from henonskew.expr import CoeffMap
from henonskew.family import HenonFactor, HenonFamily, quadratic_family
from henonskew.filtration import compute_radius
from henonskew.green import (
    EPS,
    STATUS_BOUNDED,
    STATUS_ESCAPED,
    _run_green,
    classify,
    green_field,
    green_field_seq,
    green_minus,
    green_minus_tilde,
    green_plus,
)
from henonskew.grids import SliceGrid, SliceSpec
from henonskew.orbit import (
    OVERFLOW_SWITCH,
    SETTLE,
    Orbit,
    SeqSupplier,
    SigmaSupplier,
    TableSupplier,
    iterate,
    map_coeffs,
    step_coeffs,
    step_factor,
    switch_bound,
)

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
                ref = mp_wedge_green(data, lambda n: 0.0, z, fam.degree, inverse=inverse)
                assert abs(g.value - ref) <= g.err_bound + 1e-9 * max(1.0, ref), (z, g, ref)
            else:
                assert g.status == "bounded-certified", (z, g)
                ref = mp_orbit_green(data, lambda n: 0.0, z, 30, fam.degree, inverse=inverse)
                assert g.value == 0.0 and ref <= TOL, (z, g, ref)


def test_degree_24_and_huge_start_points(single_base):
    g = green_plus(_family((24,), c=0.0), single_base, 0.0, (0j, 5 + 0j), TOL)
    assert g.status == "escaped-certified"
    # err_bound bounds the truncation; the double adds its own rounding
    assert g.value == pytest.approx(math.log(5), abs=g.err_bound + 4 * math.ulp(math.log(5)))
    g = green_plus(_family((2,), c=0.0), single_base, 0.0, (0j, 1e200 + 0j), TOL)
    assert g.status == "escaped-certified"
    assert g.value == pytest.approx(math.log(1e200), abs=g.err_bound + 4 * math.ulp(math.log(1e200)))


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


# ---------------------------------------------------------------------------
# per-point wedge certificates: earlier than the uniform tail, never looser

_K, _P = CoeffMap.constant, CoeffMap.parse
SLICE_FAMILIES = {
    "quadratic": HenonFamily((HenonFactor(2, (_K(0.0), _K(-0.1 + 0.05j)), _K(0.3)),)),
    "cubic": HenonFamily((HenonFactor(3, (_K(0.0), _P("0.05*u"), _K(0.02)), _K(0.3)),)),
    "two-factor": HenonFamily((
        HenonFactor(2, (_K(0.0), _P("0.1*u - 0.05")), _K(0.3)),
        HenonFactor(2, (_K(0.0), _K(0.1j)), _P("0.25 + 0.02*u")),
    )),
}
SLICE_BASES = {
    "identity": (BaseSystem(BaseSpace("box", bounds=((-0.5, 0.5),)), BaseDynamics("identity")), 0.3),
    "rotation": (BaseSystem(BaseSpace("circle"), BaseDynamics("rotation", alpha=0.37)), 0.2),
}


@pytest.mark.parametrize("base_name", SLICE_BASES)
@pytest.mark.parametrize("fam_name", SLICE_FAMILIES)
def test_wedge_certificates_are_earlier_not_looser(fam_name, base_name):
    fam = SLICE_FAMILIES[fam_name]
    base, lam = SLICE_BASES[base_name]
    flt = compute_radius(fam, base.space)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-3.0, 3.0, -3.0, 3.0), 64)
    x, y = (p.ravel() for p in grid.points())
    value, status, depth, err = _run_green(SigmaSupplier(fam, base.sigma, lam), x, y, flt, TOL, 200, False)
    esc = status == STATUS_ESCAPED
    N = flt.depth_for(TOL)
    assert 0.5 < esc.mean() < 1.0 and np.any(depth[esc] < N)

    # a pixel stopped before the uniform rule only with its own tail below one ulp
    assert np.all(((err <= np.minimum(TOL, EPS * value)) | (depth >= N))[esc])

    (_, orbit), = iterate(SigmaSupplier(fam, base.sigma, lam), x, y, [N])
    wedge = orbit.in_wedge(flt.R)
    assert np.all(depth[esc & wedge] <= N)
    assert np.all(wedge[esc & (depth <= N)])  # V_R^+ is forward invariant
    # the depth-N reference carries its own log-form rounding (3L is inexact
    # for d = 3), so an ulp here is eps * |value| rather than the spacing
    ref = float(fam.degree) ** (-N) * orbit.log_plus_norm()
    near = esc & wedge
    assert np.all(np.abs(value[near] - ref[near]) <= 4 * EPS * ref[near])

    rng = np.random.Generator(np.random.PCG64(7))
    picks = [rng.choice(np.flatnonzero(status == s), 10, replace=False) for s in (STATUS_ESCAPED, STATUS_BOUNDED)]
    for i in np.concatenate(picks):
        c = classify(fam, base, lam, (x[i], y[i]), 200, flt)
        assert status[i] == (STATUS_ESCAPED if c.kind == "escaped-forward" else STATUS_BOUNDED), (i, c)
        assert c.kind != "undecided" and (status[i] == STATUS_BOUNDED or c.depth <= depth[i])


@pytest.mark.parametrize("fam_name", SLICE_FAMILIES)
def test_wedge_error_bound_covers_truncation(fam_name):
    """err_bound of an early certificate bounds |G_n - G| computed in mpmath."""
    fam = SLICE_FAMILIES[fam_name]
    base, lam = SLICE_BASES["rotation"]
    flt = compute_radius(fam, base.space)

    def data(mu):
        return [(f.degree, [complex(c(mu)) for c in f.coeffs], complex(f.a(mu))) for f in fam.factors]

    def lam_of_step(k):
        return advance(base.sigma, lam, k)

    early = 0
    for t in np.linspace(0.0, 1.0, 12):
        z = (0.1j * t, (flt.R - 1.0 + 2.0 * t) * np.exp(2j * np.pi * t))
        g = green_plus(fam, base, lam, z, TOL, flt=flt)
        assert g.status == "escaped-certified", (z, g)
        if g.depth < flt.depth_for(TOL):
            early += 1
            assert mp_truncation(data, lam_of_step, z, fam.degree, g.depth) <= g.err_bound, (z, g)
    assert early >= 8


@pytest.mark.parametrize("fam_name", ["quadratic", "two-factor"])
def test_field_threads_match_single_thread(fam_name, monkeypatch):
    # pieces of 500 points: two threads start, and each walks several pieces
    monkeypatch.setattr(green_mod, "PIECE", 500)
    fam = SLICE_FAMILIES[fam_name]
    base, lam = SLICE_BASES["rotation"]
    flt = compute_radius(fam, base.space)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-3.0, 3.0, -3.0, 3.0), 48)
    one = green_field(fam, base, lam, grid, TOL, 200, flt, threads=1)
    two = green_field(fam, base, lam, grid, TOL, 200, flt, threads=2)
    for attr in ("values", "status", "depth"):
        assert np.array_equal(getattr(one, attr), getattr(two, attr)), attr
    seq = ParamSequence(base.space, 3)
    one = green_field_seq(fam, seq, grid, TOL, 200, flt, threads=1)
    two = green_field_seq(fam, seq, grid, TOL, 200, flt, threads=2)
    for attr in ("values", "status", "depth"):
        assert np.array_equal(getattr(one, attr), getattr(two, attr)), attr
    x, y = (p.ravel() for p in grid.points())
    sup = SigmaSupplier(fam, base.sigma, lam)
    one = _run_green(sup, x, y, flt, TOL, 200, False, threads=1)
    two = _run_green(sup, x, y, flt, TOL, 200, False, threads=2)
    for name, u, v in zip(("value", "status", "depth", "err"), one, two):
        assert u.tobytes() == v.tobytes(), name


def test_threads_are_capped_by_points_and_cpus(monkeypatch):
    # a --threads of 10**6 once asked for 10**6 OS threads
    import concurrent.futures
    import os

    workers = []

    class SerialPool:
        """Stands in for ThreadPoolExecutor: records max_workers and runs the work serially."""

        def __init__(self, max_workers=None):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    fam = quadratic_family(a=A)
    base = point_base(0.0)
    flt = compute_radius(fam, base.space)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-3.0, 3.0, -3.0, 3.0), 3)
    one = green_field(fam, base, 0.0, grid, TOL, 200, flt, threads=1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    many = green_field(fam, base, 0.0, grid, TOL, 200, flt, threads=10 ** 6)
    assert all(w <= min(9, os.cpu_count() or 1) for w in workers), workers
    for attr in ("values", "status", "depth"):
        assert np.array_equal(getattr(one, attr), getattr(many, attr)), attr


@pytest.mark.parametrize("depths", [[-3], [2, -1]])
def test_iterate_rejects_negative_depths(depths):
    # at the parent a negative depth yielded the unstepped orbit
    fam = quadratic_family(a=A)
    sup = SigmaSupplier(fam, point_base(0.0).sigma, 0j)
    with pytest.raises(ValidationError, match="at least 0"):
        list(iterate(sup, np.zeros(2, dtype=complex), np.ones(2, dtype=complex), depths))
    (n, orbit), = iterate(sup, np.zeros(2, dtype=complex), np.ones(2, dtype=complex), [0])
    assert n == 0 and len(orbit) == 2


@pytest.mark.parametrize("green", [green_plus, green_minus], ids=["forward", "backward"])
def test_negative_n_max_is_rejected(green):
    # at the parent green_plus(..., n_max=-3) reported bounded-certified at depth -3
    fam = quadratic_family(a=A)
    with pytest.raises(ValidationError, match="at least 0"):
        green(fam, point_base(0.0), 0.0, (0.5, 0.5), n_max=-3)
    assert green(fam, point_base(0.0), 0.0, (0.5, 0.5), n_max=0).depth == 0


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_mixed_and_explicit_orbits_step_points_alike(inverse):
    """Shared coefficients with a per-point Jacobian: a point steps the same
    in an orbit with log-form entries as in an all-explicit one."""
    fam = quadratic_family(a=0.3)
    coeffs, _ = fam.factors[0].constant_coeffs
    big = 1e30 + 0j
    x = np.array([0.5 + 0j, big, 1.2 - 0.3j, -0.7 + 0j]) if inverse else np.array([0.5 + 0j, 0j, 1.2 - 0.3j, -0.7 + 0j])
    y = np.array([0.2 + 0j, 0j, 0.4j, 1.1 + 0j]) if inverse else np.array([0.2 + 0j, big, 0.4j, 1.1 + 0j])
    a = np.array([0.3, 0.25, 0.2 + 0.1j, 0.35])
    mixed = Orbit(fam, x, y, inverse)
    assert log_mask(mixed).tolist() == [False, True, False, False]
    mixed.to_log(step_factor(mixed, coeffs, a))
    ex = ~log_mask(mixed)
    explicit = Orbit(fam, x[ex], y[ex], inverse)
    explicit.to_log(step_factor(explicit, coeffs, a[ex]))
    assert np.array_equal(mixed.x[ex], explicit.x) and np.array_equal(mixed.y[ex], explicit.y)
    alone = Orbit(fam, x[1:2], y[1:2], inverse)
    alone.to_log(step_factor(alone, coeffs, a[1:2]))
    assert mixed.lpos.tolist() == [1] and alone.lpos.tolist() == [0]
    for name in ("L", "r", "u"):
        assert np.array_equal(getattr(mixed, name), getattr(alone, name)), name


# ---------------------------------------------------------------------------
# the radius gate on the own-tail rule


@pytest.mark.parametrize("fam_name", SLICE_FAMILIES)
def test_radius_gate_is_necessary_for_the_own_tail_rule(fam_name):
    """A wedge point that passes the own-tail inequality, even with twice the
    epsilon, has |y| > rho_star, in explicit and in log form."""
    fam = SLICE_FAMILIES[fam_name]
    flt = compute_radius(fam, SLICE_BASES["rotation"][0].space)
    d = fam.degree
    assert flt.rho_star > flt.R
    rng = np.random.Generator(np.random.PCG64(11))
    n = 20_000
    rho = np.exp(rng.uniform(math.log(flt.R), math.log(1e300), n))
    # half the points near the gate, where it decides
    rho[: n // 2] = flt.rho_star * np.exp(rng.uniform(-3.0, 3.0, n // 2))
    y = rho * np.exp(2j * np.pi * rng.uniform(size=n))
    x = rho * rng.uniform(0.0, 1.0, n) ** 3 * np.exp(2j * np.pi * rng.uniform(size=n))
    orbit = Orbit(fam, x, y, False)
    lg = log_mask(orbit)
    assert lg.any() and not lg.all()
    assert np.all(orbit.in_wedge(flt.R))

    e = flt.wedge_distortion(1.0 / rho) / (d - 1.0) + 0.5 * np.log1p(np.abs(x / y) ** 2)
    g = np.log(np.hypot(np.abs(x), np.abs(y)))
    passes = e <= 2.0 * EPS * g
    gate = orbit.in_explicit_wedge(flt.rho_star)
    gate[orbit.lpos] = orbit.L > math.log(flt.rho_star)
    assert passes.any() and (~gate).any()
    assert np.all(gate[passes])


@pytest.mark.parametrize("base_name", SLICE_BASES)
@pytest.mark.parametrize("fam_name", SLICE_FAMILIES)
def test_radius_gate_changes_no_result(fam_name, base_name):
    fam = SLICE_FAMILIES[fam_name]
    base, lam = SLICE_BASES[base_name]
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-3.0, 3.0, -3.0, 3.0), 64)
    x, y = (p.ravel() for p in grid.points())
    gated = compute_radius(fam, base.space)
    ungated = compute_radius(fam, base.space)
    ungated.__dict__["rho_star"] = 0.0
    sup = SigmaSupplier(fam, base.sigma, lam)
    a = _run_green(sup, x, y, gated, TOL, 200, False)
    b = _run_green(sup, x, y, ungated, TOL, 200, False)
    assert gated.rho_star > gated.R and ungated.rho_star == 0.0
    for name, u, v in zip(("value", "status", "depth", "err"), a, b):
        assert u.tobytes() == v.tobytes(), name


# ---------------------------------------------------------------------------
# carried moduli


def _assert_moduli(o, inverse):
    ex = ~log_mask(o)
    dom, sub = (o.x, o.y) if inverse else (o.y, o.x)
    assert np.array_equal(o.dom[ex], np.abs(dom[ex]))
    assert np.array_equal(o.sub[ex], np.abs(sub[ex]))


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_carried_subordinate_modulus_is_exact(inverse):
    """After every factor step orbit.sub is |subordinate| on explicit entries,
    in all-explicit and mixed steps, after keep and after concat."""
    fam = SLICE_FAMILIES["two-factor"]
    rng = np.random.Generator(np.random.PCG64(5))
    n = 400
    small = 2.5 * (rng.uniform(-1, 1, (2, n)) + 1j * rng.uniform(-1, 1, (2, n)))
    big = small * np.exp(rng.uniform(0.0, 60.0, n))
    lam = rng.uniform(-0.5, 0.5, n)

    def step(o, lam_pts):
        for c, a in reversed(map_coeffs(fam, lam_pts)) if inverse else map_coeffs(fam, lam_pts):
            o.to_log(step_factor(o, c, a))
            _assert_moduli(o, inverse)

    explicit = Orbit(fam, small[0], small[1], inverse)
    mixed = Orbit(fam, big[0], big[1], inverse)
    assert not log_mask(explicit).any() and log_mask(mixed).any() and not log_mask(mixed).all()
    _assert_moduli(explicit, inverse)
    _assert_moduli(mixed, inverse)
    for _ in range(2):
        step(explicit, lam)
        step(mixed, lam)
    keep = rng.uniform(size=n) < 0.6
    mixed.keep(keep)
    _assert_moduli(mixed, inverse)
    both = Orbit.concat([explicit, mixed])
    _assert_moduli(both, inverse)
    assert log_mask(both).any() and not log_mask(both).all()
    for _ in range(4):
        step(both, np.concatenate((lam, lam[keep])))


# ---------------------------------------------------------------------------
# log-form points keep their positions: NaN explicit entries, compact log
# entries at lpos, remapped by keep and offset by concat


def _assert_steps_as_alone(orbit, alone):
    """Each point of `orbit` holds the state of its orbit stepped alone, alone[id]."""
    lg = log_mask(orbit)
    norm = orbit.log_norm()
    compact = {p: j for j, p in enumerate(orbit.lpos.tolist())}
    for p, i in enumerate(orbit.ids.tolist()):
        one = alone[i]
        assert norm[p] == one.log_norm()[0], (p, i)
        if lg[p]:
            assert one.lpos.tolist() == [0], (p, i)
            for name in ("L", "r", "u"):
                assert getattr(orbit, name)[compact[p]] == getattr(one, name)[0], (name, p, i)
            for name in ("x", "y", "dom", "sub"):
                assert np.isnan(getattr(orbit, name)[p]), (name, p, i)
        else:
            assert one.lpos.size == 0, (p, i)
            for name in ("x", "y", "dom", "sub"):
                assert getattr(orbit, name)[p] == getattr(one, name)[0], (name, p, i)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_keep_and_concat_carry_log_form_points(inverse):
    """Random keep masks and concat of orbits holding log-form points leave
    each point's log_norm and its L, r and u equal to those of the point
    stepped alone; points switch to log form between the keeps."""
    fam = SLICE_FAMILIES["two-factor"]
    base, _ = SLICE_BASES["rotation"]
    rng = np.random.Generator(np.random.PCG64(21))
    n = 90
    scale = np.where(rng.uniform(size=n) < 0.5, 2.5, 1e25)
    x = scale * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    y = scale * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    sup = SigmaSupplier(fam, base.sigma, rng.uniform(0.0, 1.0, n))
    alone = [Orbit(fam, x[i:i + 1], y[i:i + 1], inverse, np.array([i])) for i in range(n)]
    parts = [Orbit(fam, x[lo:lo + 30], y[lo:lo + 30], inverse, np.arange(lo, lo + 30)) for lo in (0, 30, 60)]
    assert all(log_mask(o).any() and not log_mask(o).all() for o in parts)
    started = {i for o in parts for i in o.ids[o.lpos].tolist()}
    for k in range(10):
        if k == 2:
            both = Orbit.concat(parts)
            _assert_steps_as_alone(both, alone)
            assert log_mask(both).any() and not log_mask(both).all()
            parts = [both]
        for o in parts + alone:
            o.to_log(o.step(sup, k))
        for o in parts:
            o.keep(rng.uniform(size=len(o)) < 0.85)
            _assert_steps_as_alone(o, alone)
    assert set(both.ids[log_mask(both)].tolist()) - started


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_interleaved_names_step_as_alone(inverse):
    """Two orbits whose ids interleave, the second holding its points in
    descending id order, concatenated as they are: the first and last
    names share a row of a multi-row TableSupplier, the names between
    span every row, and each point keeps the state of its point stepped
    alone at its own row's base points, log-form points included, over
    3 steps."""
    fam = SLICE_FAMILIES["two-factor"]
    rng = np.random.Generator(np.random.PCG64(22))
    n, width = 60, 7
    scale = np.where(rng.uniform(size=n) < 0.5, 2.5, 1e25)
    x = scale * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    y = scale * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    table = rng.uniform(-1, 1, (-(-n // width), 3)) + 1j * rng.uniform(-1, 1, (-(-n // width), 3))
    sup = TableSupplier(fam, table, width)
    alone = [Orbit(fam, x[i:i + 1], y[i:i + 1], inverse, np.array([i])) for i in range(n)]
    third = np.arange(n) % 3 == 1
    names = (np.flatnonzero(~third), np.flatnonzero(third)[::-1])
    both = Orbit.concat([Orbit(fam, x[i], y[i], inverse, i) for i in names])
    assert both.ids[0] // width == both.ids[-1] // width and np.any(np.diff(both.ids) < 0)
    assert log_mask(both).any() and not log_mask(both).all()
    for k in range(3):
        both.to_log(both.step(sup, k))
        for i, one in enumerate(alone):
            one.to_log(step_coeffs(one, map_coeffs(fam, table[i // width, k])))
        _assert_steps_as_alone(both, alone)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_log_form_points_are_nan_explicitly_and_in_the_wedge(inverse):
    """Log-form positions hold NaN in x, y, dom and sub, and lie in the
    wedge and outside every bidisc. A NaN start point stays explicit and is
    in neither, as is a start point with an infinite subordinate coordinate
    (whose first step leaves an infinite dominant one, in log form); a
    small start point is in the bidisc only."""
    fam = SLICE_FAMILIES["two-factor"]
    base, lam = SLICE_BASES["rotation"]
    lead = np.array([0.2, 1e25 - 3e24j, NAN, 1.5])
    sub = np.array([0.1, 2e24, 0.0, INF])
    x, y = (lead, sub) if inverse else (sub, lead)
    for n, orbit in iterate(SigmaSupplier(fam, base.sigma, lam), x.astype(complex), y.astype(complex), range(4),
                            inverse):
        assert orbit.lpos[0] == 1 and 2 not in orbit.lpos
        for name in ("x", "y", "dom", "sub"):
            assert np.isnan(getattr(orbit, name)[1]), name
        assert np.isnan(orbit.dom[2])
        wedge, bidisc = orbit.in_wedge(1.0), orbit.in_bidisc(1e300)
        assert wedge[1] and not bidisc[1] and not wedge[2] and not bidisc[2]
        if n == 0:
            assert orbit.lpos.tolist() == [1]
            assert wedge.tolist() == [False, True, False, False] and bidisc.tolist() == [True, False, False, False]


# ---------------------------------------------------------------------------
# a point's orbit does not depend on the points stepped with it


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("fam_name", SLICE_FAMILIES)
def test_one_point_orbits_round_as_in_a_batch(fam_name, inverse):
    """Each point's value, status and depth evaluated alone equal those in
    one batch, with explicit and log-form steps (numpy's in-place complex
    product on a length-1 array rounds unlike longer arrays)."""
    fam = SLICE_FAMILIES[fam_name]
    base, lam = SLICE_BASES["rotation"]
    flt = compute_radius(fam, base.space)
    rng = np.random.Generator(np.random.PCG64(8))
    n = 60
    scale = np.repeat([3.0, 1e5], n // 2)
    x = scale * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    y = scale * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    sup = SigmaSupplier(fam, base.sigma, lam)
    batch = _run_green(sup, x, y, flt, TOL, 200, inverse)
    assert np.any(batch[1] == STATUS_ESCAPED)
    for i in range(n):
        alone = _run_green(sup, x[i:i + 1], y[i:i + 1], flt, TOL, 200, inverse)
        for name, u, v in zip(("value", "status", "depth", "err"), alone, batch):
            assert u[0] == v[i], (name, i)


# ---------------------------------------------------------------------------
# one coefficient builder


def _mixed_family():
    """A factor with constant and u-dependent maps, and one with u-dependent maps only."""
    return HenonFamily((
        HenonFactor(3, (CoeffMap.constant(0.0), CoeffMap.parse("u"), CoeffMap.constant(0.5j)), CoeffMap.constant(-0.7)),
        HenonFactor(2, (CoeffMap.parse("0.1*u"), CoeffMap.parse("u - 0.2i")), CoeffMap.parse("0.3 + 0.1*v")),
    ))


def test_map_coeffs_shares_each_constant_map():
    """Each constant map is one numpy scalar, evaluated once and shared by
    every call; the others give one value per base point (a numpy scalar
    at a single point). poly_coeffs stacks the same rows."""
    fam = _mixed_family()
    lam = np.linspace(-0.5, 0.5, 7) + 0.25j
    (rows_f, a_f), (rows_g, a_g) = map_coeffs(fam, lam)
    (again, a_again), _ = map_coeffs(fam, 0.1)
    for v, w in zip((rows_f[0], rows_f[1], rows_f[3], a_f, rows_g[0]), (again[0], again[1], again[3], a_again, 1.0)):
        assert type(v) is np.complex128 and v == w
    assert rows_f[1] is again[1] and a_f is a_again
    assert np.array_equal(rows_f[2], lam.real) and np.array_equal(a_g, 0.3 + 0.1 * lam.imag)
    assert np.array_equal(rows_g[2], lam.real - 0.2j)
    for f, (rows, _) in zip(fam.factors, map_coeffs(fam, lam)):
        assert np.array_equal(f.poly_coeffs(lam), np.stack([np.broadcast_to(r, lam.shape) for r in rows]))
    for rows, a in map_coeffs(fam, 0.1 - 0.2j):
        assert all(type(v) is np.complex128 for v in rows + (a,))


def test_table_rows_are_map_coeffs_at_the_step_base_points():
    """TableSupplier's rows at step k == map_coeffs at the base points of
    the named points' rows, shared where the map is constant."""
    fam = _mixed_family()
    rng = np.random.Generator(np.random.PCG64(12))
    letters = np.array([0.1, -0.2 + 0.1j, 0.3j])
    table = letters[rng.integers(0, 3, (3, 6))]
    width = 4
    sup = TableSupplier(fam, table, width)
    for k in range(table.shape[1]):
        for idx in (np.arange(12), np.arange(4, 8), np.array([1, 2, 9, 11]), np.array([6])):
            want = map_coeffs(fam, table[idx // width, k])
            for (rows, a), (want_rows, want_a) in zip(sup.coeffs(k, idx, (idx.min(), idx.max())), want):
                for v, w in zip(rows + (a,), want_rows + (want_a,)):
                    if np.ndim(w) == 0:
                        assert v is w  # a constant map stays the one shared scalar
                    assert np.array_equal(np.broadcast_to(v, idx.shape), np.broadcast_to(w, idx.shape))


def test_table_supplier_reads_rows_by_name():
    """Names in any order: each coefficient of a u-dependent c and a equals,
    bit for bit, map_coeffs at the point's own table entry, whether the
    names' bounds (span) are their own or span every row; names whose
    bounds lie in one row get one shared scalar per coefficient."""
    fam = HenonFamily((
        HenonFactor(2, (_P("0.1*u - 0.05i"), _P("u*u + 0.3")), _P("0.2 + 0.5*u")),
        HenonFactor(3, (_K(0.0), _P("0.7*u"), _K(0.01j)), _P("0.4 - 0.1*u")),
    ))
    rng = np.random.Generator(np.random.PCG64(24))
    width = 10
    table = rng.uniform(-1, 1, (4, 6)) + 1j * rng.uniform(-1, 1, (4, 6))
    sup = TableSupplier(fam, table, width)
    for k in range(table.shape[1]):
        spread = [rng.permutation(4 * width)[:25], np.array([3, 25, 7]), np.array([38, 0, 39, 12])]
        every = (0, 4 * width - 1)
        for idx in spread:
            want = map_coeffs(fam, table[idx // width, k])
            for span in ((idx.min(), idx.max()), every):
                for (rows, a), (want_rows, want_a) in zip(sup.coeffs(k, idx, span), want):
                    for v, w in zip(rows + (a,), want_rows + (want_a,)):
                        v, w = (np.broadcast_to(c, idx.shape) for c in (v, w))
                        assert v.tobytes() == w.tobytes(), (k, idx, span)
        for row in range(table.shape[0]):
            idx = row * width + rng.permutation(width)[:7]
            want = map_coeffs(fam, table[row, k])
            for span in ((row * width, row * width + width - 1), every):
                for (rows, a), (want_rows, want_a) in zip(sup.coeffs(k, idx, span), want):
                    for v, w in zip(rows + (a,), want_rows + (want_a,)):
                        assert span == every or np.ndim(v) == 0, (k, row)
                        v, w = (np.broadcast_to(c, idx.shape) for c in (v, w))
                        assert v.tobytes() == w.tobytes(), (k, row, span)


def test_table_supplier_evaluates_its_maps_once(monkeypatch):
    """A TableSupplier evaluates its family's coefficient maps when it is
    built, and never again while iterate steps it over every column."""
    calls = []
    call = CoeffMap.__call__

    def spy(m, lam):
        calls.append(np.shape(lam))
        return call(m, lam)

    monkeypatch.setattr(CoeffMap, "__call__", spy)
    fam = SLICE_FAMILIES["two-factor"]
    rng = np.random.Generator(np.random.PCG64(25))
    table = rng.uniform(-1, 1, (3, 8)) + 1j * rng.uniform(-1, 1, (3, 8))
    sup = TableSupplier(fam, table, 10)
    built = len(calls)
    assert built >= 2  # the u-dependent c of the first factor and a of the second
    x, y = 2.5 * (rng.uniform(-1, 1, (2, 30)) + 1j * rng.uniform(-1, 1, (2, 30)))
    depths = [n for n, _ in iterate(sup, x, y, range(table.shape[1] + 1))]
    assert depths == list(range(table.shape[1] + 1))
    assert len(calls) == built


# ---------------------------------------------------------------------------
# settled log-form points retire: iterate with retiring equals iterate without


class _Unsettled(TableSupplier):
    """The same coefficients with no bound: no point retires."""

    def __init__(self, fam, table, width=1):
        super().__init__(fam, table, width)
        self.settled_u = None


SETTLE_FAMILIES = {
    # the random-averages family: p(y) = y^2 + c0 + u, a = 0.2
    "quadratic-u": HenonFamily((HenonFactor(2, (_K(0.0), _P("0.003 - 0.002i + u")), _K(0.2)),)),
    "cubic": HenonFamily((HenonFactor(3, (_K(0.0), _P("0.004*u"), _K(0.003j)), _K(0.3)),)),
    "two-factor": SLICE_FAMILIES["two-factor"],
    "per-point-a": HenonFamily((HenonFactor(2, (_K(0.0), _P("u")), _P("0.2 + 0.5*u")),)),
    # B ~ 2e6: points that switch at |dominant| ~ 1e20 settle a step later,
    # and their corrections of ~1e-14 move L
    "coeffs-1e6": HenonFamily((HenonFactor(2, (_P("1e6 + u"), _P("-1e6 + u")), _K(0.3)),)),
}
SETTLE_POTENTIALS = (PotentialSpec("log-plus"), PotentialSpec("fubini-study"), PotentialSpec("smoothed-log", c=1e6))


def _settle_start_points(inverse, n=400):
    """Random points from 1e-2 to 1e25, points with |x| >> |y| > switch
    (|y| >> |x| inverse), points just above the switch (where a correction
    of 1e6 |u| moves L) and points with an inf coordinate."""
    rng = np.random.Generator(np.random.PCG64(31))
    scale = 10.0 ** rng.uniform(-2, 25, (2, n))
    x, y = scale * np.exp(2j * np.pi * rng.uniform(size=(2, n)))
    lead = np.array([1e40, 1e30j, 3e21 - 1e21j, 1.0, -0.5, 2j])
    tail = np.array([1e21, -2e20, 1e20j, 1.05e20, -1.1e20, 1.02e20 + 1e18j])
    inf = np.array([np.inf, np.inf, 1.0, 0.5j, np.inf * (1 + 1j)])
    other = np.array([0.5, np.inf, np.inf, 1e30, 2e20])
    x = np.concatenate((x, tail if inverse else lead, inf))
    y = np.concatenate((y, lead if inverse else tail, other))
    return x, y


def _log_form_L(o):
    """Each point's L in the order the orbit was made with, from `L` and the
    retired record's `rL`; NaN for explicit points."""
    out = np.full(len(o), np.nan)
    if o.at is None:
        out[o.lpos] = o.L
    else:
        out[o.at[o.lpos]] = o.L
        out[o.rpos] = o.rL
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("fam_name", SETTLE_FAMILIES)
def test_settling_changes_no_value(fam_name, inverse):
    """At every depth the retiring orbit's log-form points (retired ones
    included) and their L, its log+||z||, three potentials and its wedge and
    bidisc masks equal, bit for bit, those of the orbit stepped without
    retiring; forward, points retire, each once, and a backward orbit
    holds no record."""
    fam = SETTLE_FAMILIES[fam_name]
    x, y = _settle_start_points(inverse)
    width = len(x) // 2 + 1
    rng = np.random.Generator(np.random.PCG64(32))
    table = rng.uniform(-0.1, 0.1, (2, 14))
    settled_sup = TableSupplier(fam, table, width)
    assert settled_sup.settled_u is not None
    depths = range(15)
    for (n, o), (_, ref) in zip(iterate(settled_sup, x, y, depths, inverse),
                                iterate(_Unsettled(fam, table, width), x, y, depths, inverse)):
        assert ref.at is None and len(o) == len(ref) == len(x), n
        assert not inverse or o.at is None, n
        assert np.array_equal(log_mask(o), log_mask(ref)), n
        assert np.array_equal(_log_form_L(o), _log_form_L(ref), equal_nan=True), n
        assert np.array_equal(o.log_plus_norm(), ref.log_plus_norm(), equal_nan=True), n
        for u in SETTLE_POTENTIALS:
            assert np.array_equal(u.eval_orbit(o), u.eval_orbit(ref), equal_nan=True), (n, u)
        assert np.array_equal(o.in_wedge(1.0), ref.in_wedge(1.0)), n
        assert np.array_equal(o.in_bidisc(1e300), ref.in_bidisc(1e300)), n
    if not inverse:
        assert o.at is not None and len(o.rpos) > 0
        assert len(np.unique(o.rpos)) == len(o.rpos)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_retirement_order_changes_no_value(inverse):
    """Points named by ids with gaps retire from a forward orbit over
    several steps, later ids first, and the record keeps them in that
    order; a backward orbit retires none. In both directions the per-point
    answers equal, bit for bit, those of an orbit that never retires."""
    fam = SETTLE_FAMILIES["per-point-a"]
    rng = np.random.Generator(np.random.PCG64(33))
    n = 300
    # magnitudes rise with the position, so the later points switch and settle first
    lead = 10.0 ** np.linspace(2, 19, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    other = 0.5 * np.exp(2j * np.pi * rng.uniform(size=n))
    x, y = (other, lead) if not inverse else (lead, other)
    ids = 3 * np.arange(n) + 1
    table = rng.uniform(-0.1, 0.1, (3, 10))
    sup, ref_sup = TableSupplier(fam, table, 301), _Unsettled(fam, table, 301)
    depths = range(10)
    sizes = []
    runs = (iterate(s, x, y, depths, inverse, ids) for s in (sup, ref_sup))
    for (k, o), (_, ref) in zip(*runs):
        sizes.append(0 if o.at is None else len(o.rpos))
        assert np.array_equal(o.log_plus_norm(), ref.log_plus_norm(), equal_nan=True), k
        for u in SETTLE_POTENTIALS:
            assert np.array_equal(u.eval_orbit(o), u.eval_orbit(ref), equal_nan=True), (k, u)
        assert np.array_equal(o.in_wedge(1.0), ref.in_wedge(1.0)), k
        assert np.array_equal(o.in_bidisc(1e300), ref.in_bidisc(1e300)), k
    if inverse:
        assert o.at is None and not any(sizes)
        return
    assert len(set(sizes[1:])) > 2  # points retired at several steps
    assert len(np.unique(o.rpos)) == len(o.rpos)
    assert np.any(np.diff(o.rpos) < 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_backward_orbits_never_retire(monkeypatch):
    """A spy on Orbit.retire: iterate retires settled points of forward
    orbits only, over the settling families' start points and through
    green_minus_tilde's one-point orbits on a contraction base."""
    calls = []
    retire = Orbit.retire

    def spy(o, u_max):
        calls.append(o.inverse)
        retire(o, u_max)

    monkeypatch.setattr(Orbit, "retire", spy)
    table = np.random.Generator(np.random.PCG64(34)).uniform(-0.1, 0.1, (1, 14))
    for fam in SETTLE_FAMILIES.values():
        for inverse in (False, True):
            x, y = _settle_start_points(inverse)
            for _ in iterate(TableSupplier(fam, table), x, y, range(15), inverse):
                pass
    forward = len(calls)
    assert forward > 0 and not any(calls)
    fam = quadratic_family(a=0.3, c="0.1*u")
    base = BaseSystem(BaseSpace("box", bounds=((-1.0, 1.0),)), BaseDynamics("contraction", c=0.5))
    assert green_minus_tilde(fam, base, 0.8, (3.0 + 0j, 0.1 + 0j), 1e-7).status == "converged"
    assert len(calls) == forward


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_large_coefficients_delay_settling():
    """With B ~ 2e6 a point that switched at |y| ~ 2e20 has |u| ~ 5e-21,
    above 2^-56 / B but below 2^-56: it does not retire before the next
    step, only before the one after."""
    fam = SETTLE_FAMILIES["coeffs-1e6"]
    sup = TableSupplier(fam, [[0.05] * 6])
    u_max = sup.settled_u
    assert SETTLE / 3e6 < u_max < SETTLE / 2e6
    x, y = np.array([0.1 + 0j]), np.array([1.4e10 + 0j])
    steps = iterate(sup, x, y, range(4))
    live = [(n, o.lpos.tolist(), 0 if o.at is None else len(o.rpos)) for n, o in steps]
    assert live == [(0, [], 0), (1, [0], 0), (2, [0], 0), (3, [], 1)]


def test_sigma_supplier_gives_no_bound():
    assert SigmaSupplier(quadratic_family(), BaseDynamics("identity"), 0.1).settled_u is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_coefficients_give_no_bound():
    fam = HenonFamily((HenonFactor(2, (_K(0.0), _P("1e300*u*u*u")), _K(0.3)),))
    assert TableSupplier(fam, [[1e10, 0.0]]).settled_u is None
    assert TableSupplier(fam, [[0.1, 0.0]]).settled_u is not None


def test_unit_plus_small_imaginary_part_has_modulus_one():
    """|1 + i t| == 1 for |t| <= 2^-30, and 1 + s == 1 for |s| <= 2^-56: a
    settled point's 1 + delta has log-modulus 0."""
    rng = np.random.Generator(np.random.PCG64(33))
    t = np.concatenate((2.0 ** -np.arange(30.0, 1075.0), rng.uniform(-1, 1, 100_000) * 2.0 ** -30, [0.0]))
    t = np.concatenate((t, -t))
    assert np.all(np.abs(1.0 + 1j * t) == 1.0)
    assert np.all(np.log(np.abs(1.0 + 1j * t)) == 0.0)
    s = t * 2.0 ** -26
    assert np.all(1.0 + s == 1.0)


def test_pullback_orbits_hold_no_settled_points(monkeypatch):
    """On the random-averages family a pullback orbit's log-form points
    retire before the map step after their switch: at most 1 % of the
    explicit kernel's point-steps fall on log-form (NaN) entries, and
    to_log copies no more held log-form entries than switched in the step
    before."""
    kernel = [0, 0, 0]  # factor steps, their point-steps and those on log-form entries
    switches = []  # (factor step, log-form entries held, entries switching) per to_log call
    step_factor, to_log = orbit_mod.step_factor, Orbit.to_log

    def spy_step(o, coeffs, a):
        kernel[0] += 1
        kernel[1] += len(o.x)
        kernel[2] += len(o.lpos)
        return step_factor(o, coeffs, a)

    def spy_to_log(o, pos):
        switches.append((kernel[0], len(o.lpos), len(pos)))
        to_log(o, pos)

    monkeypatch.setattr(orbit_mod, "step_factor", spy_step)
    monkeypatch.setattr(Orbit, "to_log", spy_to_log)
    fam = SETTLE_FAMILIES["quadratic-u"]
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-2.6, 2.6, -2.6, 2.6), 64)
    x, y = grid.points()
    seq = ParamSequence(BaseSpace("finite", points=(-0.1 + 0j, 0.1 + 0j)), 3)
    for _ in iterate(SeqSupplier(fam, seq, 12), x.ravel(), y.ravel(), range(1, 13)):
        pass
    assert kernel[1] > 10_000 and len(switches) > 3
    assert kernel[2] <= 0.01 * kernel[1], kernel
    switched = {k: new for k, _, new in switches}
    for k, held, _ in switches:
        assert held <= switched.get(k - 1, 0), (k, held)
