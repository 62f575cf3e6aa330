"""Every point leaves the certifying engine through its record callback
exactly once: wedge certificates, trapped points and the finish at n_max,
in one-call runs and in the shared driver's split at n_cut with its pool,
for rasters and for mc_green."""

import numpy as np
import pytest

from henonskew import green as green_mod
from henonskew.base import BaseDynamics, BaseSpace, BaseSystem
from henonskew.family import quadratic_family
from henonskew.filtration import compute_radius
from henonskew.green import STATUS_BOUNDED, STATUS_ESCAPED, STATUS_UNDECIDED, _certify, green_field, green_values, mc_green
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
    _certify(SigmaSupplier(BaseDynamics("identity"), 0.1), fam, orbit, flt, TOL, 0, n_max, n_max, record)
    assert len(orbit) == 0
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


@pytest.mark.parametrize("n_max", [5, 22, 30, 200])
@pytest.mark.parametrize("fam_name", FAMILIES)
def test_mc_split_records_every_point_once(fam_name, n_max, monkeypatch):
    """mc_green's chunks run to n_cut and its pool from n_cut to n_max; with
    n_max <= depth_for(tol) the chunks finish every point themselves."""
    fam = FAMILIES[fam_name]
    flt = compute_radius(fam, SPACE)
    x, y = _points()
    monkeypatch.setattr(green_mod, "MC_CHUNK", 200)
    seen, runs = [], []
    certify = green_mod._certify

    def spying(supplier, fam, orbit, flt, tol, n_lo, n_hi, n_max, record):
        runs.append(n_lo)

        def spy(ids, *rest):
            seen.append(ids.copy())
            record(ids, *rest)

        certify(supplier, fam, orbit, flt, tol, n_lo, n_hi, n_max, spy)

    monkeypatch.setattr(green_mod, "_certify", spying)
    n_mc = 4
    mc = mc_green(fam, SPACE, 5, n_mc, x, y, flt, TOL, n_max)
    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(n_mc * len(x)))
    assert mc.undecided[-2:].all() and mc.seq_undecided.min() >= 2

    n_cut = min(n_max, flt.depth_for(TOL))
    pooled = runs.count(n_cut)
    assert runs.count(0) == n_mc  # one chunk per sequence: MC_CHUNK < 2 len(x)
    if n_cut == n_max or fam_name == "trap":
        assert pooled == 0
    else:
        assert pooled >= 2  # the pool is run in more than one piece


@pytest.mark.parametrize("threads", [1, 2])
def test_raster_pools_its_leftover(threads, monkeypatch):
    """A raster of the family with no trap, n_max above n_cut: each thread
    range is one orbit, whatever MC_CHUNK, stepped to n_cut and then, as it
    is, to n_max; every pixel is recorded once, and the values equal those
    of the points taken one at a time."""
    fam, base = FAMILIES["no-trap"], BaseSystem(SPACE, BaseDynamics("identity"))
    flt = compute_radius(fam, SPACE)
    n_max = 40
    n_cut = flt.depth_for(TOL)
    assert n_cut < n_max
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-2.0, 2.0, -2.0, 2.0), 20)
    monkeypatch.setattr(green_mod, "MC_CHUNK", 100)  # below a thread range's pixels, which stay one orbit
    seen, runs = [], []
    certify = green_mod._certify

    def spying(supplier, fam, orbit, flt, tol, n_lo, n_hi, n_max, record):
        runs.append((n_lo, orbit, len(orbit)))

        def spy(ids, *rest):
            seen.append(ids.copy())
            record(ids, *rest)

        certify(supplier, fam, orbit, flt, tol, n_lo, n_hi, n_max, spy)

    monkeypatch.setattr(green_mod, "_certify", spying)
    field = green_field(fam, base, 0.1, grid, TOL, n_max, flt, threads=threads)
    monkeypatch.setattr(green_mod, "_certify", certify)

    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(grid.nx * grid.ny))
    chunks = [o for n, o, _ in runs if n == 0]
    pooled = [(o, size) for n, o, size in runs if n == n_cut]
    assert len(chunks) == len(pooled) == threads and len(runs) == 2 * threads
    # the leftover of each range is its own orbit, not a copy, and holds bounded pixels
    assert all(any(o is c for c in chunks) and size > 0 for o, size in pooled)
    assert np.count_nonzero(field.depth == n_max) and np.count_nonzero(field.depth < n_cut)

    x, y = (p.ravel() for p in grid.points())
    alone = [green_values(fam, base, 0.1, x[i:i + 1], y[i:i + 1], TOL, n_max, flt) for i in range(len(x))]
    for name, got, want in zip(("value", "status", "depth"), (field.values, field.status, field.depth), zip(*alone)):
        assert np.array_equal(got.ravel(), np.concatenate(want)), name
