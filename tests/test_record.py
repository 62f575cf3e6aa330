"""Every point leaves the certifying engine through its record callback
exactly once: wedge certificates, trapped points and the finish at n_max,
in one-call runs and in the shared driver's orbits pooled by depth, for
rasters and for mc_green; and the proved-above stop (`above`) leaves only
points whose Green value it proves above its bound."""

import math

import mpmath
import numpy as np
import pytest

from conftest import _mp_map, mp_orbit_green, run_green_switch_first
from henonskew import green as green_mod
from henonskew.base import BaseDynamics, BaseSpace, BaseSystem, ParamSequence, advance
from henonskew.errors import ValidationError
from henonskew.expr import CoeffMap
from henonskew.family import HenonFactor, HenonFamily, map_coeffs, quadratic_family
from henonskew.filtration import compute_radius
from henonskew.green import (
    STATUS_BOUNDED,
    STATUS_ESCAPED,
    STATUS_UNDECIDED,
    _certify,
    _run_green,
    green_field,
    green_values,
    mc_green,
)
from henonskew.grids import SliceGrid, SliceSpec
from henonskew.orbit import OVERFLOW_SWITCH, Orbit, SeqSupplier, SigmaSupplier, TableSupplier, iterate
from test_trap import TRAP_BASES, TRAP_FAMILIES, _landing, _record_steps, _start_points, _supplier, _untrapped

TOL = 1e-6
SPACE = BaseSpace("box", bounds=((-0.5, 0.5),))
# a = 0.3 with c = 0.005 has a trapping bidisc (r ~ 0.66); c = 0.3 has none
FAMILIES = {"trap": quadratic_family(0.3, 0.005), "no-trap": quadratic_family(0.3, 0.3)}
INF = float("inf")


def _points(seed=4):
    """A 24^2 slice grid over [-3, 3]^2, points near the origin, points in
    log form at step 0 and two non-finite starts."""
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-3.0, 3.0, -3.0, 3.0), 24)
    x, y = (p.ravel() for p in grid.points())
    rng = np.random.Generator(np.random.PCG64(seed))
    near = 0.4 * (rng.uniform(-1, 1, (2, 40)) + 1j * rng.uniform(-1, 1, (2, 40)))
    far = 1e25 * (rng.uniform(-1, 1, (2, 20)) + 1j * rng.uniform(-1, 1, (2, 20)))
    return (np.concatenate([x, near[0], far[0], [INF, 0.0]]),
            np.concatenate([y, near[1], far[1], [0.0, INF]]))


@pytest.mark.parametrize("n_max", [5, 30, 200])
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("fam_name", FAMILIES)
def test_one_run_records_every_point_once(fam_name, inverse, n_max, monkeypatch):
    fam = FAMILIES[fam_name]
    flt = compute_radius(fam, SPACE)
    x, y = _points()
    calls = []

    def record(ids, n, g, e, status):
        calls.append((ids.copy(), np.broadcast_to(status, ids.shape).copy()))

    steps = _record_steps(monkeypatch)
    orbit = Orbit(fam, x, y, inverse)
    flt = flt.toward(inverse)
    n = _certify(SigmaSupplier(fam, BaseDynamics("identity"), 0.1), orbit, flt, TOL, 0, n_max, record)
    assert len(orbit) == 0 and n <= n_max
    ids = np.concatenate([i for i, _ in calls])
    assert np.array_equal(np.sort(ids), np.arange(len(x)))

    # every way out is taken: wedge certificates (escaped, and undecided for
    # the non-finite starts; inverse orbits only at the uniform depth),
    # bounded points and, below the certifying depth, undecided points at n_max
    status = np.concatenate([s for _, s in calls])
    assert np.all(status[ids >= len(x) - 2] == STATUS_UNDECIDED)
    if not inverse or n_max >= flt.depth_for(TOL):
        assert STATUS_ESCAPED in status
    if not inverse:
        assert STATUS_BOUNDED in status
        # trapped points leave with the wedge certificates, the last ones at
        # the uniform depth, from which the trap is tested at every step;
        # without a trap the bounded ones are stepped to n_max
        uniform = flt.depth_for(TOL)
        assert len(steps) == (min(n_max, uniform) if fam_name == "trap" else n_max)
    if n_max < flt.depth_for(TOL):
        assert np.count_nonzero(status == STATUS_UNDECIDED) > 2


def _spy_runs(monkeypatch):
    """Patch _certify and Orbit.step; returns (runs, steps, seen): per run
    (orbit, n_lo, floor, points, depth reached), per step (orbit, points),
    and the ids of every record call."""
    runs, steps, seen = [], [], []
    certify, step = green_mod._certify, Orbit.step

    def spying(supplier, orbit, flt, tol, n_lo, n_max, record, floor=1, *, above=None):
        def spy(ids, *rest):
            seen.append(ids.copy())
            record(ids, *rest)

        size = len(orbit)
        n = certify(supplier, orbit, flt, tol, n_lo, n_max, spy, floor, above=above)
        runs.append((orbit, n_lo, floor, size, n))
        return n

    def stepping(orbit, supplier, k):
        steps.append((orbit, len(orbit)))
        return step(orbit, supplier, k)

    monkeypatch.setattr(green_mod, "_certify", spying)
    monkeypatch.setattr(Orbit, "step", stepping)
    return runs, steps, seen


# Orbit.step calls of the mc_green run below: each sequence alone to depth
# min(n_max, 22) made 4 x 22 = 88 at depth 22, plus pool steps past it; with
# the trap, trapped points leave at the steps where wedge certificates do
MC_STEPS = {"trap": {5: 20, 22: 42, 30: 42, 200: 42}, "no-trap": {5: 20, 22: 62, 30: 78, 200: 418}}


# the depth at which the chunks of the mc_green run below hold fewer than
# MC_CHUNK // 2 points (unless n_max comes first), and the (depth, points) of
# the runs that start below that from the lowest depth while others wait
CORE_DEPTH = {"trap": 6, "no-trap": 9}
DRAINED = {"trap": [(6, 97), (7, 35)], "no-trap": []}


@pytest.mark.parametrize("n_max", [5, 22, 30, 200])
@pytest.mark.parametrize("fam_name", FAMILIES)
def test_mc_split_records_every_point_once(fam_name, n_max, monkeypatch):
    """mc_green over 4 sequences of 638 points with MC_CHUNK = 200: each
    sequence is a chunk, which steps until fewer than 100 points are left
    (CORE_DEPTH, unless n_max comes first); three such cores join at that
    depth and step on together. Without the trap the last chunk then runs
    to n_max alone. With it, trapped points leave with the first wedge
    certificates: the three joined cores wait at depth 8, the last chunk
    stops at depth 6 too, and, no chunk being left, steps on alone from the
    lowest depth (DRAINED) until it joins them at 8, and the joined orbit
    runs to n_max. Every point is recorded once, and every orbit stepped
    except the last and the drained one holds at least MC_CHUNK // 2
    points."""
    fam = FAMILIES[fam_name]
    flt = compute_radius(fam, SPACE)
    x, y = _points()
    monkeypatch.setattr(green_mod, "MC_CHUNK", 200)
    runs, steps, seen = _spy_runs(monkeypatch)
    n_mc = 4
    _, status, _ = mc_green(fam, SPACE, 5, n_mc, x, y, flt, TOL, n_max)
    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(n_mc * len(x)))
    undecided = status == STATUS_UNDECIDED
    assert undecided.any(axis=0)[-2:].all() and np.count_nonzero(undecided, axis=1).min() >= 2

    assert len(steps) == MC_STEPS[fam_name][n_max]
    last = runs[-1][0]
    assert runs[-1][2] == 1 and not len(last)
    drained = [(o, n_lo, size) for o, n_lo, floor, size, _ in runs if size < 100 and floor > 1]
    assert [(n_lo, size) for _, n_lo, size in drained] == (DRAINED[fam_name] if n_max > CORE_DEPTH[fam_name] else [])
    assert all(size >= 100 for o, size in steps if o is not last and not any(o is d for d, _, _ in drained))
    assert [n_lo for _, n_lo, _, _, _ in runs].count(0) == n_mc  # one chunk per sequence: MC_CHUNK < 2 len(x)
    if n_max > CORE_DEPTH[fam_name]:
        joined = [size for _, n_lo, _, size, _ in runs if n_lo == CORE_DEPTH[fam_name] and size >= 100]
        assert len(joined) == 1 and 200 <= joined[0] < 300


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("fam_name", FAMILIES)
def test_chunk_size_changes_no_value(fam_name, threads, monkeypatch):
    """mc_green and _run_green (both directions) with MC_CHUNK = 200 give
    the bytes they give when one chunk holds every row of the points."""
    fam = FAMILIES[fam_name]
    flt = compute_radius(fam, SPACE)
    x, y = _points()
    n_mc = 4
    sup = SigmaSupplier(fam, BaseDynamics("identity"), 0.1)

    def outputs():
        out = list(mc_green(fam, SPACE, 5, n_mc, x, y, flt, TOL, 200, threads))
        for inverse in (False, True):
            out += _run_green(sup, x, y, flt, TOL, 200, inverse, threads)
        return out

    monkeypatch.setattr(green_mod, "MC_CHUNK", 200)
    small = outputs()
    monkeypatch.setattr(green_mod, "MC_CHUNK", n_mc * len(x) + 1)
    whole = outputs()
    assert len(small) == 11
    for i, (a, b) in enumerate(zip(small, whole)):
        assert a.tobytes() == b.tobytes(), i


# lam-dependent families, with and without a trapping bidisc
SEQ_FAMILIES = {"trap": TRAP_FAMILIES["quadratic"], "no-trap": quadratic_family(0.3, "0.3 * u")}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("space_name", ["box", "two-letter"])
@pytest.mark.parametrize("fam_name", SEQ_FAMILIES)
def test_monte_carlo_rows_equal_their_sequences_alone(fam_name, space_name, threads, monkeypatch):
    """Row i of mc_green (value, status, depth) equals _run_green along
    ParamSequence(space, seed).spawn(i) alone, bit for bit. With 66 points,
    MC_CHUNK = PIECE = 200 and 8 sequences, a chunk holds 3 rows (one
    thread) or 6 (two threads, 33 points each), and orbits from several
    chunks are joined."""
    fam = SEQ_FAMILIES[fam_name]
    space = SPACE if space_name == "box" else BaseSpace("finite", points=(-0.5 + 0j, 0.5 + 0j))
    flt = compute_radius(fam, space)
    x, y = (np.concatenate([p[:-2:10], p[-2:]]) for p in _points())
    seed, n_mc, n_max = 3, 8, 30
    root = ParamSequence(space, seed)
    alone = [_run_green(SeqSupplier(fam, root.spawn(i), n_max), x, y, flt, TOL, n_max, False, with_err=False)[:3]
             for i in range(n_mc)]

    monkeypatch.setattr(green_mod, "MC_CHUNK", 200)
    monkeypatch.setattr(green_mod, "PIECE", 200)
    monkeypatch.setattr(green_mod.os, "cpu_count", lambda: 2)
    joins, concat = [], Orbit.concat
    monkeypatch.setattr(Orbit, "concat", staticmethod(lambda parts: joins.append(len(parts)) or concat(parts)))
    rows = mc_green(fam, space, seed, n_mc, x, y, flt, TOL, n_max, threads)
    assert len(x) == 66 and max(joins) > 1
    assert all(r.shape == (n_mc, len(x)) for r in rows)
    assert not np.array_equal(rows[0][0], rows[0][1])  # the sequences drive the points apart
    for name, got, want in zip(("value", "status", "depth"), rows, zip(*alone)):
        for i in range(n_mc):
            assert got[i].tobytes() == want[i].tobytes(), (name, i)


def test_interleaved_rows_join_in_any_order(monkeypatch):
    """Sequences over a base whose letters drive the orbits apart stop at
    different depths, so orbits joined at one depth can hold rows on both
    sides of another orbit's rows; a join keeps the order the orbits
    waited in, so the table supplier sees names that do not ascend, and
    the values equal those of a run whose one chunk holds every row."""
    fam = quadratic_family(0.3, "0.3 * u")
    space = BaseSpace("finite", points=(-1 + 0j, 1 + 0j, 0.5j))
    flt = compute_radius(fam, space)
    rng = np.random.Generator(np.random.PCG64(5))
    x, y = 2.5 * (rng.uniform(-1, 1, (2, 16)) + 1j * rng.uniform(-1, 1, (2, 16)))
    unsorted = []
    coeffs = TableSupplier.coeffs

    def spy(self, k, idx, span):
        unsorted.append(bool(np.any(np.diff(idx) < 0)))
        return coeffs(self, k, idx, span)

    monkeypatch.setattr(TableSupplier, "coeffs", spy)
    monkeypatch.setattr(green_mod, "MC_CHUNK", 30)
    a = mc_green(fam, space, 1, 40, x, y, flt, TOL, 60)
    assert any(unsorted)
    monkeypatch.setattr(green_mod, "MC_CHUNK", 40 * len(x) + 1)
    b = mc_green(fam, space, 1, 40, x, y, flt, TOL, 60)
    for name, u, v in zip(("values", "status", "depth"), a, b):
        assert u.tobytes() == v.tobytes(), name


@pytest.mark.parametrize("threads", [1, 2])
def test_raster_range_is_one_orbit(threads, monkeypatch):
    """A raster of the family with no trap, n_max above depth_for(tol):
    each thread range of one piece is one orbit, whatever MC_CHUNK, which
    one run steps to n_max without a stop or a copy; every pixel is
    recorded once, and the values equal those of the points taken one at
    a time."""
    fam, base = FAMILIES["no-trap"], BaseSystem(SPACE, BaseDynamics("identity"))
    flt = compute_radius(fam, SPACE)
    n_max = 40
    n_cut = flt.depth_for(TOL)
    assert n_cut < n_max
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-2.0, 2.0, -2.0, 2.0), 20)
    monkeypatch.setattr(green_mod, "MC_CHUNK", 100)  # below a thread range's pixels, which stay one orbit
    monkeypatch.setattr(green_mod, "PIECE", 400 // threads)  # a piece a thread: `threads` ranges of one piece
    runs, steps, seen = _spy_runs(monkeypatch)
    field = green_field(fam, base, 0.1, grid, TOL, n_max, flt, threads=threads)
    monkeypatch.undo()

    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(grid.nx * grid.ny))
    assert len(runs) == threads and all(n_lo == 0 and floor == 1 and n == n_max for _, n_lo, floor, _, n in runs)
    # each range's orbit is stepped as it is, never copied, and holds bounded pixels to the end
    orbits = [o for o, *_ in runs]
    assert all(any(o is r for r in orbits) for o, _ in steps)
    assert np.count_nonzero(field.depth == n_max) and np.count_nonzero(field.depth < n_cut)

    x, y = (p.ravel() for p in grid.points())
    alone = [green_values(fam, base, 0.1, x[i:i + 1], y[i:i + 1], TOL, n_max, flt) for i in range(len(x))]
    for name, got, want in zip(("value", "status", "depth"), (field.values, field.status, field.depth), zip(*alone)):
        assert np.array_equal(got.ravel(), np.concatenate(want)), name


def _more_points():
    """1 276 points: two sets of _points, more than a PIECE of 1 000."""
    return tuple(np.concatenate(p) for p in zip(_points(4), _points(5)))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("fam_name", FAMILIES)
def test_piece_size_changes_no_value(fam_name, threads, monkeypatch):
    """_run_green (value, status, depth, err) and green_field, forward and
    backward, green_values and mc_green over 3 sequences, with PIECE = 7
    and 1 000, below the 1 276 points and the 36^2 pixels, give the bytes
    of one thread with a PIECE above the input."""
    fam = FAMILIES[fam_name]
    flt = compute_radius(fam, SPACE)
    x, y = _more_points()
    base = BaseSystem(SPACE, BaseDynamics("identity"))
    sup = SigmaSupplier(fam, base.sigma, 0.1)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-3.0, 3.0, -3.0, 3.0), 36)
    n_max = 30  # above depth_for(TOL) = 22

    def outputs(piece, threads):
        monkeypatch.setattr(green_mod, "PIECE", piece)
        out = []
        for inverse in (False, True):
            out += _run_green(sup, x, y, flt, TOL, n_max, inverse, threads)
            field = green_field(fam, base, 0.1, grid, TOL, n_max, flt, inverse, threads)
            out += [field.values, field.status, field.depth]
        out += green_values(fam, base, 0.1, x, y, TOL, n_max, flt)
        return out + list(mc_green(fam, SPACE, 5, 3, x, y, flt, TOL, n_max, threads))

    whole = outputs(10 ** 9, 1)
    assert len(whole) == 20
    for piece in (7, 1000):
        for i, (a, b) in enumerate(zip(outputs(piece, threads), whole)):
            assert a.tobytes() == b.tobytes(), (piece, i)


def test_threads_get_a_piece_each(monkeypatch):
    """_in_threads starts no more threads than there are pieces of PIECE
    among the rows x points, and its ranges cover the points once."""
    monkeypatch.setattr(green_mod.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(green_mod, "PIECE", 100)
    for n, rows, threads, want in [(100, 1, 8, 1), (101, 1, 8, 2), (450, 1, 8, 5), (450, 1, 3, 3),
                                   (30, 4, 8, 2), (30, 10, 8, 3), (1, 1000, 8, 1)]:
        ranges = []
        green_mod._in_threads(lambda lo, hi: ranges.append((int(lo), int(hi))), n, threads, rows)
        assert len(ranges) == want, (n, rows, threads)
        assert sorted(ranges)[0][0] == 0 and sorted(ranges)[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(sorted(ranges), sorted(ranges)[1:]))


def test_raster_memory_is_bounded_by_the_piece():
    """A 512^2 backward raster, every pixel certified at one depth, traces
    under 32 MB: its outputs, its pixel coordinates and the live state of
    one piece. Stepping the whole raster as one orbit traced 58 MB."""
    import tracemalloc

    fam = quadratic_family(0.3, 0.0)
    base = BaseSystem(BaseSpace("finite", points=(0.1 + 0j,)), BaseDynamics("identity"))
    flt = compute_radius(fam, base.space)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-3.0, 3.0, -3.0, 3.0), 512)
    assert grid.nx * grid.ny > 2 * green_mod.PIECE
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        field = green_field(fam, base, 0.1, grid, TOL, 200, flt, inverse=True)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert np.all(field.status == STATUS_ESCAPED) and np.all(field.depth == field.depth[0, 0])
    assert peak < 32e6, peak


# ---------------------------------------------------------------------------
# certifying before the switch and trapping at compacting steps change no record


def _switch_points(seed=6):
    """Start points past the switch bound (far beyond it, and just above it
    in one coordinate with the other small), and non-finite starts."""
    rng = np.random.Generator(np.random.PCG64(seed))
    far = 1e25 * (rng.uniform(-1, 1, (2, 30)) + 1j * rng.uniform(-1, 1, (2, 30)))
    edge = OVERFLOW_SWITCH * rng.uniform(1.0, 3.0, 20) * np.exp(2j * np.pi * rng.uniform(size=20))
    small = 2.0 * (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20))
    nan, inf = complex("nan"), complex("inf")
    odd_x, odd_y = [nan, 0.0, inf, 0.0, inf, nan + 1j], [0.0, nan, 0.0, inf, inf, 1.0]
    return (np.concatenate([far[0], small, edge, odd_x]).astype(complex),
            np.concatenate([far[1], edge, small, odd_y]).astype(complex))


@pytest.mark.parametrize("trap", [True, False], ids=["trap", "no-trap"])
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("base_name", ["rotation", "shift"])
@pytest.mark.parametrize("fam_name", TRAP_FAMILIES)
def test_run_green_equals_the_switch_first_order(fam_name, base_name, inverse, trap):
    """value, status, depth and err of _run_green are == to those of the
    earlier order (conftest.run_green_switch_first), for n_max 5/30/200
    and tol 1e-6 and 1, over points of the bidisc of radius 3, of D_r,
    landing in D_r, escaping, past the switch bound and non-finite."""
    fam = TRAP_FAMILIES[fam_name]
    base, _ = TRAP_BASES[base_name]
    flt = compute_radius(fam, base.space)
    r = flt.trap_radius
    if not trap:
        flt = _untrapped(fam, base.space)
    for n_max in (5, 30, 200):
        sup, lams = _supplier(fam, base_name, n_max)
        x, y = (np.concatenate(p) for p in zip(_start_points(fam, lams, r), _switch_points()))
        for tol in (TOL, 1.0):
            got = _run_green(sup, x, y, flt, tol, n_max, inverse)
            want = run_green_switch_first(sup, x, y, flt, tol, n_max, inverse)
            for name, a, b in zip(("value", "status", "depth", "err"), got, want):
                assert a.tobytes() == b.tobytes(), (name, n_max, tol)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("fam_name", ["quadratic", "cubic"])
def test_points_certified_at_their_switch_never_enter_log_form(fam_name, inverse, monkeypatch):
    """One-factor families, so that every switch of a step happens after
    the map: a point that the wedge rules certify at the step that took it
    past the switch bound is never moved to log form at that step, and the
    points moved are exactly those switched and not certified. Forward
    runs certify nearly every switching point at its switch step (the own
    tail is below one ulp well before the bound)."""
    fam = TRAP_FAMILIES[fam_name]
    base, _ = TRAP_BASES["rotation"]
    flt = compute_radius(fam, base.space)
    switched, moved, certified = {}, {}, {}
    n = [0]
    step, to_log, wedge = Orbit.step, Orbit.to_log, green_mod._wedge_certificates

    def stepping(o, supplier, k):
        n[0] = k + 1
        new = step(o, supplier, k)
        switched[n[0]] = set(o.ids[new].tolist())
        return new

    def moving(o, pos):
        moved.setdefault(n[0], set()).update(o.ids[pos].tolist())
        to_log(o, pos)

    def certifying(o, *args):
        found = wedge(o, *args)
        if found is not None:
            certified.setdefault(n[0], set()).update(o.ids[found[0]].tolist())
        return found

    monkeypatch.setattr(Orbit, "step", stepping)
    monkeypatch.setattr(Orbit, "to_log", moving)
    monkeypatch.setattr(green_mod, "_wedge_certificates", certifying)
    sup, lams = _supplier(fam, "rotation", 30)
    x, y = (np.concatenate(p) for p in zip(_start_points(fam, lams, flt.trap_radius), _switch_points()))
    _run_green(sup, x, y, flt, TOL, 30, inverse)
    assert switched
    for k, ids in switched.items():
        assert not (moved.get(k, set()) & certified.get(k, set())), k
        assert moved.get(k, set()) == ids - certified.get(k, set()), k
    at_switch = sum(len(ids & certified.get(k, set())) for k, ids in switched.items())
    if not inverse:
        assert at_switch > 0.9 * sum(map(len, switched.values())), at_switch


# -- the proved-above stop (_certify's `above`) ----------------------------------------------

ROTATION = TRAP_BASES["rotation"][0]
# 1-3 factors, degrees 2 to 8, |a| from 0.05 to 0.3, coefficients varying over the circle
ABOVE_FAMILIES = {
    "quadratic": quadratic_family(0.3, "0.1 + 0.2*u"),
    "cubic": TRAP_FAMILIES["cubic"],
    "two-factor": TRAP_FAMILIES["two-factor"],
    "three-factor": HenonFamily(tuple(
        HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.parse(c)), CoeffMap.constant(a))
        for c, a in (("0.1*u", 0.3), ("-0.2", 0.2), ("0.05 + 0.1*u", 0.25)))),
    "small-a": quadratic_family(0.05, "-0.3 + 0.2*u"),
}


def _factor_data(fam):
    """conftest's mpmath factor data of fam: [(degree, [c_(d-1)..c_0], a)] per factor at lam."""
    return lambda lam: [(len(rows) - 1, [complex(c) for c in rows[1:]], complex(a))
                        for rows, a in map_coeffs(fam, lam)]


def _mp_green(fam, lam, z, n):
    """G(z) along the rotation from lam, from mpmath at a depth where the orbit is far out."""
    extra = math.ceil(12 / math.log2(fam.degree))
    return mp_orbit_green(_factor_data(fam), lambda k: advance(ROTATION.sigma, lam, k), z, n + extra, fam.degree)


def _drift(flt):
    """e(R)/(d-1), the stop's allowance for the tail beyond depth n."""
    return float(flt.wedge_distortion(1.0 / flt.R)) / (flt.degree - 1)


@pytest.mark.parametrize("fam_name", ABOVE_FAMILIES)
def test_wedge_lower_bound_holds_against_mpmath(fam_name):
    """At a random start point whose orbit lies in V_R^+ at depth n (0 to 3),
    d^-n (log|y_n| - e(R)/(d-1)) <= G, G from mpmath."""
    fam = ABOVE_FAMILIES[fam_name]
    flt = compute_radius(fam, ROTATION.space)
    d, R = fam.degree, flt.R
    data = _factor_data(fam)
    rng = np.random.Generator(np.random.PCG64(11))
    gaps = []
    for n in range(4):
        found = 0
        while found < 8:
            lam = complex(rng.uniform())
            z = tuple(complex(*rng.uniform(-2 * R, 2 * R, 2)) for _ in range(2))
            with mpmath.workdps(40):
                x, y = mpmath.mpc(z[0]), mpmath.mpc(z[1])
                for k in range(n):
                    x, y = _mp_map(data, advance(ROTATION.sigma, lam, k), x, y, False)
                if not (abs(y) > R and abs(y) >= abs(x)):
                    continue
                bound = float((mpmath.log(abs(y)) - _drift(flt)) / mpmath.mpf(d) ** n)
            found += 1
            g = _mp_green(fam, lam, z, n)
            assert bound <= g, (n, z, lam, bound, g)
            gaps.append((g - bound) * d ** n)
    # the allowance is of the size of the tail it bounds, not a vacuous margin
    assert min(gaps) < _drift(flt)


def _escaping(fam, flt, rng, count):
    """(lam, x, y) of start points of the square window of side 4R with G > 0, and their mpmath G."""
    R = flt.R
    lam = rng.uniform(size=4 * count).astype(complex)
    x, y = (rng.uniform(-2 * R, 2 * R, 4 * count) + 1j * rng.uniform(-2 * R, 2 * R, 4 * count) for _ in range(2))
    g = np.array([_mp_green(fam, lam[i], (x[i], y[i]), 3) for i in range(len(x))])
    pick = np.flatnonzero(g > 1e-3)[:count]
    return lam[pick], x[pick], y[pick], g[pick]


@pytest.mark.parametrize("fam_name", ABOVE_FAMILIES)
def test_above_stops_only_points_proved_above(fam_name):
    """_run_green with `above`: a point recorded +inf has mpmath G >= above,
    every other point gets the record of the run without `above`; with
    above at each point's own G (plus 1e-9 of it) nothing stops, and with
    above at half of it nearly every point stops, no deeper than the run
    without `above` certifies it."""
    fam = ABOVE_FAMILIES[fam_name]
    flt = compute_radius(fam, ROTATION.space)
    rng = np.random.Generator(np.random.PCG64(12))
    lam, x, y, g = _escaping(fam, flt, rng, 60)
    sup = SigmaSupplier(fam, ROTATION.sigma, lam)
    plain = _run_green(sup, x, y, flt, TOL, 60, False)
    for above in np.quantile(g, [0.25, 0.5, 0.75]):
        got = _run_green(sup, x, y, flt, TOL, 60, False, above=above)
        stopped = got[0] == np.inf
        assert stopped.any() and not stopped.all()
        assert np.all(g[stopped] >= above)
        assert np.all(got[1][stopped] == STATUS_ESCAPED) and np.all(got[2][stopped] <= plain[2][stopped])
        for a, b in zip(got, plain):
            assert a[~stopped].tobytes() == b[~stopped].tobytes()
    for i in range(len(x)):
        one = SigmaSupplier(fam, ROTATION.sigma, lam[i:i + 1])
        value, _, depth, _ = _run_green(one, x[i:i + 1], y[i:i + 1], flt, TOL, 60, False, above=g[i] * (1 + 1e-9))
        assert value[0] != np.inf, (i, g[i], depth[0])
    half = _run_green(sup, x, y, flt, TOL, 60, False, above=float(g.min()) / 2)
    assert np.count_nonzero(half[0] == np.inf) >= 0.9 * len(x)


@pytest.mark.parametrize("fam_name", ["quadratic", "cubic", "two-factor", "small-a"])
def test_above_skips_points_outside_the_wedge(fam_name):
    """Points whose orbit lands in the trap after k steps, from states with
    R < |y| < |x| and log|y| past the stop's bound one step in (outside
    V_R^+, where log|y| alone proves nothing) and bounded: `above` stops
    none of them and changes no record."""
    fam = {**ABOVE_FAMILIES, **TRAP_FAMILIES}[fam_name]  # the quadratic one with a trap
    base, lam0 = TRAP_BASES["identity"]
    flt = compute_radius(fam, base.space)
    R, r = flt.R, flt.trap_radius or 0.1
    lams = [lam0] * 4
    rng = np.random.Generator(np.random.PCG64(13))
    w = tuple(0.5 * r * (rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)) / math.sqrt(2) for _ in range(2))
    sup = SigmaSupplier(fam, base.sigma, lam0)
    starts = []
    for k in range(2, 5):
        x, y = _landing(fam, lams, w, k, False)
        (_, orbit), = iterate(sup, x, y, [1])
        outside = (orbit.dom > R) & (orbit.dom < orbit.sub) & (orbit.dom >= math.exp(2 * 0.1 + _drift(flt)))
        starts.append((x[outside], y[outside]))
    x, y = (np.concatenate(v) for v in zip(*starts))
    # landings from far out may lose the trap to rounding; the others are bounded
    bounded = _run_green(sup, x, y, flt, TOL, 60, False)[1] == STATUS_BOUNDED
    x, y = x[bounded], y[bounded]
    assert len(x) >= 20
    plain = _run_green(sup, x, y, flt, TOL, 60, False)
    got = _run_green(sup, x, y, flt, TOL, 60, False, above=0.1)
    assert not np.any(got[0] == np.inf)
    for a, b in zip(got, plain):
        assert a.tobytes() == b.tobytes()


def test_above_is_refused_on_inverse_orbits():
    """Backward, log|x_(k+1)| - d log|x_k| tends to -log|a|, which the forward
    allowance e(R)/(d-1) does not bound: an inverse run with `above` raises."""
    fam = FAMILIES["trap"]
    flt = compute_radius(fam, SPACE)
    x, y = _points()
    sup = SigmaSupplier(fam, BaseDynamics("identity"), 0.1)
    with pytest.raises(ValidationError, match="forward"):
        _run_green(sup, x, y, flt, TOL, 30, True, above=0.1)
