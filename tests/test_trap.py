"""The forward trapping bidisc D_r, r = FiltrationRadius.trap_radius, and the
certificate that drops an orbit from the engine once it enters D_r.

Every factor maps D_r into itself (in doubles and in mpmath), there is no
such disc without dissipation, and dropping trapped points changes no value,
status, depth or error bound of any evaluation.
"""

import mpmath
import numpy as np
import pytest

from conftest import _mp_map, log_mask
from henonskew import green as green_mod
from henonskew.base import BaseDynamics, BaseSpace, BaseSystem, ParamSequence, advance, point_base
from henonskew.expr import CoeffMap
from henonskew.family import HenonFactor, HenonFamily, eval_inverse, eval_map, factor_step, map_coeffs, quadratic_family
from henonskew.filtration import DEFAULT_GRID, compute_radius
from henonskew.green import STATUS_BOUNDED, _run_green, classify, green_field, green_field_seq, mc_green
from henonskew.grids import SliceGrid, SliceSpec
from henonskew.orbit import Orbit, SeqSupplier, SigmaSupplier, iterate

TOL = 1e-6
_K, _P = CoeffMap.constant, CoeffMap.parse

# small lam-dependent coefficients and |a| <= 0.3: each has a trapping disc
TRAP_FAMILIES = {
    "quadratic": HenonFamily((HenonFactor(2, (_K(0.0), _P("0.005 + 0.02*u")), _K(0.3)),)),
    "cubic": HenonFamily((HenonFactor(3, (_K(0.0), _P("0.02*u"), _K(0.01)), _K(0.3)),)),
    "two-factor": HenonFamily((
        HenonFactor(2, (_K(0.0), _P("0.02*u - 0.01")), _P("0.25 + 0.02*u")),
        HenonFactor(2, (_K(0.0), _K(0.01j)), _K(0.3)),
    )),
}
BOX = BaseSpace("box", bounds=((-0.5, 0.5),))
# (base, base point); the shift base drives the orbits with a sequence
TRAP_BASES = {
    "identity": (BaseSystem(BOX, BaseDynamics("identity")), 0.3),
    "contraction": (BaseSystem(BOX, BaseDynamics("contraction", c=0.6)), 0.4),
    "rotation": (BaseSystem(BaseSpace("circle"), BaseDynamics("rotation", alpha=0.37)), 0.2),
    "shift": (BaseSystem(BOX, BaseDynamics("shift")), None),
}
SHIFT_SEED = 5


def _untrapped(fam, space):
    """The filtration constants of compute_radius with the trap switched off."""
    flt = compute_radius(fam, space)
    flt.__dict__["trap_radius"] = 0.0
    return flt


def _disc(rng, n, rad):
    """n points uniform in the complex disc of radius rad."""
    return rad * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


def _supplier(fam, base_name, n_steps):
    """(supplier of fam, base points lam_0 .. lam_(n_steps - 1)) of a base."""
    base, lam = TRAP_BASES[base_name]
    if lam is None:
        seq = ParamSequence(base.space, SHIFT_SEED)
        return SeqSupplier(fam, seq, n_steps), seq.prefix(n_steps)
    return SigmaSupplier(fam, base.sigma, lam), [advance(base.sigma, lam, k) for k in range(n_steps)]


def _landing(fam, lams, w, k, inverse):
    """Start points whose orbit is at the states w after k steps along lams."""
    x, y = w
    for lam in reversed(lams[:k]):
        x, y = (eval_map if inverse else eval_inverse)(fam, lam, (x, y))
    return x, y


def _start_points(fam, lams, r, seed=1):
    """Points of the 4-real-dimensional bidisc of radius 3, points of D_r,
    points whose orbit lands in D_r after 1-3 steps (forward or backward),
    and points whose forward orbit reaches |y| <= r/2 < 10 <= |x| after 1-2
    steps and escapes next."""
    rng = np.random.Generator(np.random.PCG64(seed))
    xs, ys = [_disc(rng, 400, 3.0)], [_disc(rng, 400, 3.0)]
    xs.append(_disc(rng, 60, r))
    ys.append(_disc(rng, 60, r))
    for k in (1, 2, 3):
        for inverse in (False, True):
            x, y = _landing(fam, lams, (_disc(rng, 20, r), _disc(rng, 20, r)), k, inverse)
            xs.append(x)
            ys.append(y)
    for k in (1, 2):
        far = rng.uniform(10.0, 40.0, 20) * np.exp(2j * np.pi * rng.uniform(size=20))
        x, y = _landing(fam, lams, (far, _disc(rng, 20, 0.5 * r)), k, False)
        xs.append(x)
        ys.append(y)
    return np.concatenate(xs), np.concatenate(ys)


def _record_steps(monkeypatch):
    """Patch the engine's map step to record the orbit length of each call."""
    lengths = []
    step = Orbit.step

    def recording(orbit, supplier, k):
        lengths.append(len(orbit))
        return step(orbit, supplier, k)

    monkeypatch.setattr(Orbit, "step", recording)
    return lengths


# ---------------------------------------------------------------------------
# the radius


@pytest.mark.parametrize("fam_name", TRAP_FAMILIES)
def test_trap_radius_is_the_largest_root_of_its_inequality(fam_name):
    flt = compute_radius(TRAP_FAMILIES[fam_name], BOX)
    r = flt.trap_radius
    assert 0.0 < r < 1.0 < flt.R

    def worst(t):
        return max(t ** dj + flt.margin * (S + flt.a_sup * t) - t for dj, S in zip(flt.factor_degrees, flt.coeff_sums))

    assert worst(r) <= 0.0 < worst(r * (1.0 + 1e-9))


@pytest.mark.parametrize(
    "fam",
    [quadratic_family(0.3, -6.0), quadratic_family(1.0, 0.0), quadratic_family(0.3, 0.3)],
    ids=["horseshoe", "conservative", "c=0.3"],
)
def test_no_trap_radius_without_a_trapping_disc(fam):
    assert compute_radius(fam, point_base(0.0).space).trap_radius == 0.0


def _worst_points(c, a, r, n_phase):
    """Points of the boundary of D_r where |p(y) - a x| is largest for each
    of n_phase phases of y: |y| = r and x = -r (p(y)/|p(y)|)/(a/|a|)."""
    y = r * np.exp(2j * np.pi * np.arange(n_phase) / n_phase)
    p = np.polyval(np.asarray(c), y)
    return -r * (p / np.abs(p)) / (a / abs(a)), y


@pytest.mark.parametrize("fam_name", TRAP_FAMILIES)
def test_each_factor_maps_the_trap_bidisc_into_itself(fam_name):
    """Boundary samples of D_r at the base grid's coefficients: random ones
    and, per phase of y, the one that maximises |y'|. Each factor step lands
    in D_r in doubles, and in mpmath on the worst points at a few base points."""
    fam = TRAP_FAMILIES[fam_name]
    flt = compute_radius(fam, BOX)
    r = flt.trap_radius
    rs = r * (1.0 - 4.0 * np.finfo(float).eps)  # |r e^(it)| may round above r
    rng = np.random.Generator(np.random.PCG64(3))
    n = 2000
    rim = rs * np.exp(2j * np.pi * rng.uniform(size=n))
    inner = np.where(rng.uniform(size=n) < 0.1, rs, rs * np.sqrt(rng.uniform(size=n)))
    inner = inner * np.exp(2j * np.pi * rng.uniform(size=n))
    sides = rng.uniform(size=n) < 0.5
    bx, by = np.where(sides, rim, inner), np.where(sides, inner, rim)
    grid = BOX.grid(DEFAULT_GRID)
    for lam in grid:
        for c, a in map_coeffs(fam, lam):
            wx, wy = _worst_points(c, a, rs, 720)
            fx, fy = factor_step(c, a, np.concatenate((bx, wx)), np.concatenate((by, wy)))
            assert np.abs(fx).max() <= r and np.abs(fy).max() <= r, lam
    with mpmath.workdps(30):
        mr = mpmath.mpf(r)
        for lam in grid[:: len(grid) // 4]:
            for c, a in map_coeffs(fam, lam):
                data = [(len(c) - 1, [complex(v) for v in c[1:]], complex(a))]
                for x, y in zip(*_worst_points(c, a, rs, 48)):
                    fx, fy = _mp_map(lambda _: data, None, mpmath.mpc(x), mpmath.mpc(y), False)
                    assert abs(fx) <= mr and abs(fy) <= mr, (lam, x, y)


@pytest.mark.parametrize("fam_name", TRAP_FAMILIES)
def test_trapped_points_stay_in_the_bidisc_in_mpmath(fam_name):
    """Points in D_r at the depth where the uniform rule starts are reported
    bounded at n_max; their exact orbits from there, along a rotating base,
    stay in D_r for 400 steps."""
    fam = TRAP_FAMILIES[fam_name]
    base, lam = TRAP_BASES["rotation"]
    flt = compute_radius(fam, base.space)
    r, N = flt.trap_radius, flt.depth_for(TOL)
    rng = np.random.Generator(np.random.PCG64(7))
    x, y = _disc(rng, 400, 2.0), _disc(rng, 400, 2.0)
    sup = SigmaSupplier(fam, base.sigma, lam)
    (_, orbit), = iterate(sup, x, y, [N])
    trapped = np.flatnonzero(~log_mask(orbit) & (np.maximum(orbit.dom, orbit.sub) <= r))
    assert trapped.size >= 10
    _, status, depth, _ = _run_green(sup, x, y, flt, TOL, 200, False)
    assert np.all(status[trapped] == STATUS_BOUNDED) and np.all(depth[trapped] == 200)

    def data(mu):
        return [(len(c) - 1, [complex(v) for v in c[1:]], complex(a)) for c, a in map_coeffs(fam, mu)]

    with mpmath.workdps(30):
        mr = mpmath.mpf(r)
        for i in trapped[:6]:
            zx, zy = mpmath.mpc(orbit.x[i]), mpmath.mpc(orbit.y[i])
            for k in range(N, N + 400):
                zx, zy = _mp_map(data, advance(base.sigma, lam, k), zx, zy, False)
                assert abs(zx) <= mr and abs(zy) <= mr, (i, k)


# ---------------------------------------------------------------------------
# trapping changes no result


# forward point-steps (with the trap, with trap_radius 0) of the runs below
# the uniform depth (n_max 5, tol 1e-6): trapped points leave at the steps
# where a wedge certificate compacts the orbit
EARLY_TRAP_STEPS = {
    "quadratic": {"identity": (3100, 3100), "contraction": (3100, 3100), "rotation": (3100, 3100),
                  "shift": (3100, 3100)},
    "cubic": {"identity": (2560, 2774), "contraction": (2560, 2774), "rotation": (2560, 2774),
              "shift": (2561, 2775)},
    "two-factor": {"identity": (1563, 2305), "contraction": (1561, 2301), "rotation": (1563, 2305),
                   "shift": (1567, 2307)},
}


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("base_name", TRAP_BASES)
@pytest.mark.parametrize("fam_name", TRAP_FAMILIES)
def test_trap_changes_no_engine_result(fam_name, base_name, inverse, monkeypatch):
    """value, status, depth and err of _run_green are == with the trap and
    with trap_radius 0, for n_max 5/30/200 and tol 1e-6 and 1 (the uniform
    rule from step 2 or 3); forward runs past the uniform depth take fewer
    point-steps with the trap, those below it the counts EARLY_TRAP_STEPS
    pins, and inverse runs (no trap) the same."""
    fam = TRAP_FAMILIES[fam_name]
    base, _ = TRAP_BASES[base_name]
    trapped, untrapped = compute_radius(fam, base.space), _untrapped(fam, base.space)
    steps = _record_steps(monkeypatch)
    for n_max in (5, 30, 200):
        sup, lams = _supplier(fam, base_name, n_max)
        x, y = _start_points(fam, lams, trapped.trap_radius)
        for tol in (TOL, 1.0):
            a = _run_green(sup, x, y, trapped, tol, n_max, inverse)
            with_trap = sum(steps)
            steps.clear()
            b = _run_green(sup, x, y, untrapped, tol, n_max, inverse)
            without = sum(steps)
            steps.clear()
            for name, u, v in zip(("value", "status", "depth", "err"), a, b):
                assert u.tobytes() == v.tobytes(), (name, n_max, tol)
            if inverse:
                assert with_trap == without, (n_max, tol)
            elif n_max >= trapped.depth_for(tol):
                assert np.any(a[1] == STATUS_BOUNDED) and with_trap < without, (n_max, tol)
            else:
                assert (with_trap, without) == EARLY_TRAP_STEPS[fam_name][base_name], (n_max, tol)


@pytest.mark.parametrize("base_name", ["identity", "contraction", "rotation"])
@pytest.mark.parametrize("fam_name", TRAP_FAMILIES)
def test_trap_changes_no_classification(fam_name, base_name):
    fam = TRAP_FAMILIES[fam_name]
    base, lam = TRAP_BASES[base_name]
    trapped, untrapped = compute_radius(fam, base.space), _untrapped(fam, base.space)
    _, lams = _supplier(fam, base_name, 3)
    x, y = _start_points(fam, lams, trapped.trap_radius)
    pick = np.arange(0, len(x), 12)  # some points of every kind
    kinds = set()
    for n_max in (5, 30, 200):
        for i in pick:
            z = (complex(x[i]), complex(y[i]))
            c = classify(fam, base, lam, z, n_max, trapped)
            assert c == classify(fam, base, lam, z, n_max, untrapped), (z, n_max)
            kinds.add(c.kind)
    assert {"escaped-forward", "escaped-backward"} <= kinds


@pytest.mark.parametrize("fam_name", TRAP_FAMILIES)
def test_trap_changes_no_sequence_field(fam_name):
    fam = TRAP_FAMILIES[fam_name]
    seq = ParamSequence(BOX, SHIFT_SEED)
    trapped, untrapped = compute_radius(fam, BOX), _untrapped(fam, BOX)
    grid = SliceGrid.from_window(SliceSpec("y", 0.1 + 0.05j), (-3.0, 3.0, -3.0, 3.0), 40)
    for n_max in (5, 30, 200):
        a = green_field_seq(fam, seq, grid, TOL, n_max, trapped)
        b = green_field_seq(fam, seq, grid, TOL, n_max, untrapped)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.status.tobytes() == b.status.tobytes() and a.depth.tobytes() == b.depth.tobytes()


@pytest.mark.parametrize("space_name", ["box", "two-letter"])
@pytest.mark.parametrize("fam_name", TRAP_FAMILIES)
def test_trap_changes_no_monte_carlo_result(fam_name, space_name, monkeypatch):
    """mc_green with a pool that runs in pieces (a 300-point budget) and with
    the trap: == to the untrapped run, whose bounded cores go to the pool."""
    monkeypatch.setattr(green_mod, "MC_CHUNK", 300)
    fam = TRAP_FAMILIES[fam_name]
    space = BOX if space_name == "box" else BaseSpace("finite", points=(-0.5 + 0j, 0.5 + 0j))
    trapped, untrapped = compute_radius(fam, space), _untrapped(fam, space)
    rng = np.random.Generator(np.random.PCG64(4))
    x, y = _disc(rng, 150, 3.0), _disc(rng, 150, 3.0)
    for n_max in (5, 30, 200):
        a = mc_green(fam, space, 3, 5, x, y, trapped, TOL, n_max)
        b = mc_green(fam, space, 3, 5, x, y, untrapped, TOL, n_max)
        for name, u, v in zip(("values", "status", "depth"), a, b):
            assert u.tobytes() == v.tobytes(), (name, n_max)


# ---------------------------------------------------------------------------
# step counts: a deterministic guard for the saving


def test_bounded_raster_stops_before_the_uniform_depth(monkeypatch):
    """A 128^2 quadratic raster (a = 0.3, c = 0.005) takes 18 steps, below
    depth_for(tol) = 22: its bounded pixels are trapped at the steps where
    escaping pixels are certified, instead of stepped to n_max."""
    fam, base = quadratic_family(0.3, 0.005), point_base(0.0)
    flt = compute_radius(fam, base.space)
    calls = _record_steps(monkeypatch)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-3.0, 3.0, -3.0, 3.0), 128)
    field = green_field(fam, base, 0.0, grid, TOL, 200, flt)
    assert np.count_nonzero(field.status == STATUS_BOUNDED) > 1000
    assert len(calls) == 18 and flt.depth_for(TOL) == 22


def test_monte_carlo_pools_by_depth(monkeypatch):
    """mc_green over 4 sequences on a 128^2 raster of the random-averages
    family: each sequence is a chunk of MC_CHUNK points, which steps until
    fewer than MC_CHUNK // 2 are left, at depth 6; the four cores join there
    and step on as one orbit until the trap and the wedge rules empty it,
    at depth 16, below depth_for(tol). That is 4 x 6 + 10 = 34 steps, where
    the chunks stepped alone to depth_for(tol) took 4 x 22 = 88."""
    fam, space = quadratic_family(0.2, "0.003 + u"), BaseSpace("box", bounds=((-0.1, 0.1),))
    flt = compute_radius(fam, space)
    calls = _record_steps(monkeypatch)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-2.6, 2.6, -2.6, 2.6), 128)
    x, y = (p.ravel() for p in grid.points())
    values, _, _ = mc_green(fam, space, 1, 4, x, y, flt, TOL, 200)
    assert np.count_nonzero(values == 0.0) > 5000
    assert len(list(green_mod.mc_chunks(4, len(x)))) == 4 and flt.depth_for(TOL) == 22
    assert len(calls) == 34
    # the chunks step on at least MC_CHUNK // 2 points; the four cores hold fewer than
    # MC_CHUNK together, so they wait until no chunk is left, and step on as one
    assert min(calls[:24]) >= green_mod.MC_CHUNK // 2 and green_mod.MC_CHUNK // 2 < calls[24] < green_mod.MC_CHUNK
