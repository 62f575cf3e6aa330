"""Every point leaves the certifying engine through its record callback
exactly once: wedge certificates, trapped points and the finish at n_max,
in one-call runs and in the shared driver's orbits pooled by depth, for
rasters and for mc_green."""

import numpy as np
import pytest

from henonskew import green as green_mod
from henonskew.base import BaseDynamics, BaseSpace, BaseSystem
from henonskew.family import quadratic_family
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
from henonskew.orbit import Orbit, SigmaSupplier
from test_trap import _record_steps

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
    n = _certify(SigmaSupplier(BaseDynamics("identity"), 0.1), fam, orbit, flt, TOL, 0, n_max, record)
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
        # trapped points leave at the uniform depth; without a trap the
        # bounded ones are stepped to n_max
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

    def spying(supplier, fam, orbit, flt, tol, n_lo, n_max, record, floor=1):
        def spy(ids, *rest):
            seen.append(ids.copy())
            record(ids, *rest)

        size = len(orbit)
        n = certify(supplier, fam, orbit, flt, tol, n_lo, n_max, spy, floor)
        runs.append((orbit, n_lo, floor, size, n))
        return n

    def stepping(orbit, supplier, fam, k):
        steps.append((orbit, len(orbit)))
        step(orbit, supplier, fam, k)

    monkeypatch.setattr(green_mod, "_certify", spying)
    monkeypatch.setattr(Orbit, "step", stepping)
    return runs, steps, seen


# Orbit.step calls of the mc_green run below: each sequence alone to depth
# min(n_max, 22) made 4 x 22 = 88 at depth 22, plus pool steps past it
MC_STEPS = {"trap": {5: 20, 22: 62, 30: 62, 200: 62}, "no-trap": {5: 20, 22: 62, 30: 78, 200: 418}}


@pytest.mark.parametrize("n_max", [5, 22, 30, 200])
@pytest.mark.parametrize("fam_name", FAMILIES)
def test_mc_split_records_every_point_once(fam_name, n_max, monkeypatch):
    """mc_green over 4 sequences of 638 points with MC_CHUNK = 200: each
    sequence is a chunk, which steps until fewer than 100 points are left
    (depth 9, unless n_max comes first); three such cores join at that
    depth and step on together, and the last chunk runs to n_max alone.
    Every point is recorded once, and every orbit stepped except the last
    holds at least MC_CHUNK // 2 points."""
    fam = FAMILIES[fam_name]
    flt = compute_radius(fam, SPACE)
    x, y = _points()
    monkeypatch.setattr(green_mod, "MC_CHUNK", 200)
    runs, steps, seen = _spy_runs(monkeypatch)
    n_mc = 4
    mc = mc_green(fam, SPACE, 5, n_mc, x, y, flt, TOL, n_max)
    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(n_mc * len(x)))
    assert mc.undecided[-2:].all() and mc.seq_undecided.min() >= 2

    assert len(steps) == MC_STEPS[fam_name][n_max]
    last = runs[-1][0]
    assert runs[-1][2] == 1 and not len(last)
    assert all(size >= 100 for o, size in steps if o is not last)
    assert [n_lo for _, n_lo, _, _, _ in runs].count(0) == n_mc  # one chunk per sequence: MC_CHUNK < 2 len(x)
    if n_max > 9:
        joined = [size for _, n_lo, _, size, _ in runs if n_lo == 9]
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
    sup = SigmaSupplier(BaseDynamics("identity"), 0.1)

    def outputs():
        mc = mc_green(fam, SPACE, 5, n_mc, x, y, flt, TOL, 200, threads)
        out = [mc.values, mc.undecided, mc.depth, mc.seq_undecided]
        for inverse in (False, True):
            out += _run_green(sup, fam, x, y, flt, TOL, 200, inverse, threads)
        return out

    monkeypatch.setattr(green_mod, "MC_CHUNK", 200)
    small = outputs()
    monkeypatch.setattr(green_mod, "MC_CHUNK", n_mc * len(x) + 1)
    whole = outputs()
    assert len(small) == 12
    for i, (a, b) in enumerate(zip(small, whole)):
        assert a.tobytes() == b.tobytes(), i


def test_interleaved_rows_join_in_id_order(monkeypatch):
    """Sequences over a base whose letters drive the orbits apart stop at
    different depths, so orbits joined at one depth can hold rows on both
    sides of another orbit's rows; a join puts the ids back in ascending
    order, which the table supplier needs, and the values equal those of
    a run whose one chunk holds every row."""
    fam = quadratic_family(0.3, "0.3 * u")
    space = BaseSpace("finite", points=(-1 + 0j, 1 + 0j, 0.5j))
    flt = compute_radius(fam, space)
    rng = np.random.Generator(np.random.PCG64(5))
    x, y = 2.5 * (rng.uniform(-1, 1, (2, 16)) + 1j * rng.uniform(-1, 1, (2, 16)))
    sorts = []
    sort = Orbit.sort_by_ids

    def sorting(orbit):
        sorts.append(len(orbit))
        sort(orbit)

    monkeypatch.setattr(Orbit, "sort_by_ids", sorting)
    monkeypatch.setattr(green_mod, "MC_CHUNK", 30)
    a = mc_green(fam, space, 1, 40, x, y, flt, TOL, 60)
    assert sorts
    monkeypatch.setattr(green_mod, "MC_CHUNK", 40 * len(x) + 1)
    b = mc_green(fam, space, 1, 40, x, y, flt, TOL, 60)
    for name in ("values", "undecided", "depth", "seq_undecided"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


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
    sup = SigmaSupplier(base.sigma, 0.1)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-3.0, 3.0, -3.0, 3.0), 36)
    n_max = 30  # above depth_for(TOL) = 22

    def outputs(piece, threads):
        monkeypatch.setattr(green_mod, "PIECE", piece)
        out = []
        for inverse in (False, True):
            out += _run_green(sup, fam, x, y, flt, TOL, n_max, inverse, threads)
            field = green_field(fam, base, 0.1, grid, TOL, n_max, flt, inverse, threads)
            out += [field.values, field.status, field.depth]
        out += green_values(fam, base, 0.1, x, y, TOL, n_max, flt)
        mc = mc_green(fam, SPACE, 5, 3, x, y, flt, TOL, n_max, threads)
        return out + [mc.values, mc.undecided, mc.depth, mc.seq_undecided]

    whole = outputs(10 ** 9, 1)
    assert len(whole) == 21
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
