import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import cell_index_two_search, dn_distance_loop, draw_candidates_full_depth

from henonskew import entropy as entropy_mod
from henonskew.base import CIRCLE, BaseDynamics, BaseSpace, BaseSystem, point_base
from henonskew.entropy import (
    BLOCK,
    CELL_RANGE,
    PAIR_BUDGET,
    SeparatedSetEstimate,
    _base_dist,
    _decision_depth,
    _adjacent_pairs,
    _cell_index,
    _greedy_pack,
    _orbit_track,
    _pack_depths,
    dn_distance,
    draw_candidates,
    entropy_lower_bound,
)
from henonskew.errors import EmptyCandidateSet, UnsupportedBase, ValidationError
from henonskew.expr import CoeffMap
from henonskew.family import HenonFactor, HenonFamily, quadratic_family
from henonskew.filtration import compute_radius


def test_dn_distance_basics(quad_fam, single_base, quad_flt):
    p = (0.0 + 0j, (0.1 + 0j, 0.2 + 0j))
    assert dn_distance(quad_fam, single_base, p, p, 5) == 0.0
    q = (0.0 + 0j, (0.4 + 0j, 0.2 + 0j))
    d1 = dn_distance(quad_fam, single_base, p, q, 1)
    assert d1 == pytest.approx(0.3)
    with pytest.raises(ValidationError):
        dn_distance(quad_fam, single_base, p, q, 0)


def test_dn_monotone_in_n(quad_fam, single_base, quad_flt):
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(50):
        p = (0j, (rng.uniform(-1, 1) + 0j, rng.uniform(-1, 1) + 0j))
        q = (0j, (rng.uniform(-1, 1) + 0j, rng.uniform(-1, 1) + 0j))
        prev = 0.0
        for n in (1, 2, 4, 6):
            d = dn_distance(quad_fam, single_base, p, q, n)
            assert d >= prev - 1e-14
            prev = d


def test_dn_includes_base_distance(quad_fam):
    base = BaseSystem(BaseSpace("circle"), BaseDynamics("rotation", alpha=0.2))
    p = (0.1 + 0j, (0j, 0j))
    q = (0.3 + 0j, (0j, 0j))
    assert dn_distance(quad_fam, base, p, q, 1) == pytest.approx(0.2)


def test_candidates_and_estimates(quad_fam, single_base, quad_flt):
    cands = draw_candidates(quad_fam, single_base, None, 3000, seed=3, flt=quad_flt)
    assert len(cands[0]) == 3000
    ests = entropy_lower_bound(
        quad_fam, single_base, eps=0.1, n_range=[1, 4], n_candidates=3000, seed=3, flt=quad_flt, candidates=cands
    )
    assert all(isinstance(e, SeparatedSetEstimate) for e in ests)
    assert ests[0].n == 1 and ests[0].s_n >= 1
    assert ests[1].s_n >= 1


def test_s_n_decreases_with_eps(quad_fam, single_base, quad_flt):
    cands = draw_candidates(quad_fam, single_base, None, 2000, seed=9, flt=quad_flt)
    sizes = []
    for eps in (0.05, 0.1, 0.2):
        est, = entropy_lower_bound(
            quad_fam, single_base, eps=eps, n_range=[3], n_candidates=2000, seed=9, flt=quad_flt, candidates=cands
        )
        sizes.append(est.s_n)
    assert sizes[0] >= sizes[1] >= sizes[2]


def test_shuffle_stability(quad_fam, single_base, quad_flt):
    cands = draw_candidates(quad_fam, single_base, None, 4000, seed=1, flt=quad_flt)
    runs = []
    for seed in (10, 20):
        est, = entropy_lower_bound(
            quad_fam, single_base, eps=0.1, n_range=[4], n_candidates=4000, seed=seed, flt=quad_flt, candidates=cands
        )
        runs.append(est.s_n)
    assert abs(runs[0] - runs[1]) <= 0.25 * max(runs)


def test_greedy_matches_bruteforce_small(quad_fam, single_base, quad_flt):
    # cross-check the binned greedy against a direct quadratic-time greedy
    cands = draw_candidates(quad_fam, single_base, None, 300, seed=5, flt=quad_flt)
    lam, x, y = cands
    n, eps = 3, 0.15
    est, = entropy_lower_bound(
        quad_fam, single_base, eps=eps, n_range=[n], n_candidates=300, seed=5, flt=quad_flt, candidates=cands
    )
    # reproduce the same shuffled order and orbit bookkeeping
    from henonskew.entropy import _orbit_track

    xs, ys, ls, ok_hist = _orbit_track(quad_fam, single_base, lam, x, y, n, quad_flt.R)
    rng = np.random.Generator(np.random.PCG64(5 + 1))
    keep = np.flatnonzero(ok_hist[n - 1])
    order = keep[rng.permutation(keep.size)]
    kept = []
    for k in order:
        ok = True
        for j in kept:
            dn = max(
                math.hypot(abs(xs[i][k] - xs[i][j]), abs(ys[i][k] - ys[i][j])) + abs(ls[i][k] - ls[i][j])
                for i in range(n)
            )
            if dn <= eps:
                ok = False
                break
        if ok:
            kept.append(k)
    assert est.s_n == len(kept)


def test_rejects_bad_inputs(quad_fam, single_base):
    with pytest.raises(ValidationError):
        entropy_lower_bound(quad_fam, single_base, eps=0.0, n_range=[2])
    with pytest.raises(ValidationError, match="eps must be positive"):
        entropy_lower_bound(quad_fam, single_base, eps=float("nan"), n_range=[2])
    shift_base = BaseSystem(BaseSpace("finite", points=(0j,)), BaseDynamics("shift"))
    with pytest.raises(UnsupportedBase):
        entropy_lower_bound(quad_fam, shift_base, eps=0.1, n_range=[2])


@pytest.mark.parametrize("n_range", [range(0, 3), range(5, 2), [-1, 2], []], ids=["from-0", "empty-range", "negative", "empty"])
def test_rejects_bad_depth_ranges(n_range, quad_fam, single_base, monkeypatch):
    # rejected before any candidate is drawn
    monkeypatch.setattr(entropy_mod, "draw_candidates", None)
    with pytest.raises(ValidationError, match="n >= 1"):
        entropy_lower_bound(quad_fam, single_base, eps=0.1, n_range=n_range, n_candidates=50)


@pytest.mark.parametrize("n_candidates", [-5, 0])
def test_rejects_fewer_than_one_candidate(n_candidates, quad_fam, single_base, quad_flt):
    with pytest.raises(ValidationError, match="n_candidates"):
        draw_candidates(quad_fam, single_base, None, n_candidates, seed=1, flt=quad_flt)
    with pytest.raises(ValidationError, match="n_candidates"):
        entropy_lower_bound(quad_fam, single_base, eps=0.1, n_range=[2], n_candidates=n_candidates, seed=1, flt=quad_flt)


@pytest.mark.parametrize("kw", [{"green_threshold": 0.0}, {"green_threshold": -0.05},
                                {"green_threshold": float("nan")}, {"max_batches": 0}, {"max_batches": -1}],
                         ids=["threshold-0", "threshold-negative", "threshold-nan", "batches-0", "batches-negative"])
def test_draw_rejects_bad_parameters_before_drawing(kw, quad_fam, single_base, quad_flt, monkeypatch):
    # a threshold nothing can be below, or no batch at all, is a ValidationError, not an empty window
    monkeypatch.setattr(entropy_mod, "green_values", None)
    with pytest.raises(ValidationError, match=next(iter(kw))):
        draw_candidates(quad_fam, single_base, None, 500, seed=1, flt=quad_flt, **kw)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("coord", ["lam", "x", "y"])
def test_rejects_non_finite_candidates(coord, bad):
    """A non-finite candidate coordinate is a ValidationError, raised
    before the cell index casts the coordinates to integer keys."""
    fam = quadratic_family(a=0.3)
    cloud = {"lam": np.zeros(3, dtype=complex), "x": np.array([0.1, 0.2, 0.3], dtype=complex),
             "y": np.array([0.1, 0.1, 0.3], dtype=complex)}
    cloud[coord][1] = bad
    with pytest.raises(ValidationError, match="finite"):
        entropy_lower_bound(fam, point_base(0), eps=0.1, n_range=[1, 2],
                            candidates=(cloud["lam"], cloud["x"], cloud["y"]))


@pytest.mark.parametrize("lengths", [(5, 5, 3), (5, 3, 5), (3, 5, 5)])
def test_rejects_candidates_of_unequal_lengths(lengths):
    fam = quadratic_family(a=0.3)
    lam, x, y = (np.full(m, 0.1 + 0j) for m in lengths)
    with pytest.raises(ValidationError, match="one length"):
        entropy_lower_bound(fam, point_base(0), eps=0.1, n_range=[1, 2], candidates=(lam, x, y))


def test_rejects_candidates_that_are_not_1d():
    fam = quadratic_family(a=0.3)
    lam, x, y = np.zeros((2, 3), dtype=complex), np.zeros(6, dtype=complex), np.zeros(6, dtype=complex)
    with pytest.raises(ValidationError, match="1-d"):
        entropy_lower_bound(fam, point_base(0), eps=0.1, n_range=[1, 2], candidates=(lam, x, y))


def test_empty_candidate_cloud(monkeypatch):
    """A precomputed cloud with no points is an EmptyCandidateSet, raised
    before any orbit is tracked."""
    monkeypatch.setattr(entropy_mod, "_orbit_track", None)
    empty = np.empty(0, dtype=complex)
    with pytest.raises(EmptyCandidateSet, match="no points"):
        entropy_lower_bound(quadratic_family(a=0.3), point_base(0), eps=0.1, n_range=[1, 2],
                            candidates=(empty, empty, empty))


def test_empty_candidates(quad_fam, single_base, quad_flt):
    # a window far out in the escape region has no low-Green points
    win = (50.0, 60.0, 50.0, 60.0, 50.0, 60.0, 50.0, 60.0)
    with pytest.raises(EmptyCandidateSet):
        draw_candidates(quad_fam, single_base, win, 100, seed=2, flt=quad_flt, max_batches=2)


# -- block-sweep packer against a direct first-fit ------------------------------------------


def _first_fit(xs, ys, ls, eps, circ, order):
    """Direct quadratic-time first-fit over `order`: the reference for `_greedy_pack`."""
    kept = np.empty(0, dtype=np.int64)
    for k in order:
        near = np.ones(kept.size, dtype=bool)
        for i in range(xs.shape[0]):
            d = _base_dist(circ, ls[i][kept], ls[i][k]) + np.hypot(
                np.abs(xs[i][kept] - xs[i][k]), np.abs(ys[i][kept] - ys[i][k])
            )
            near &= d <= eps
            if not near.any():
                break
        if not near.any():
            kept = np.append(kept, k)
    return kept.size


def _lam_family():
    f = HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.parse("0.1*u")), CoeffMap.constant(0.3))
    return HenonFamily((f,))


_BASES = {
    "identity": (quadratic_family(a=0.3), point_base(0.0)),
    "rotation": (_lam_family(), BaseSystem(BaseSpace("circle"), BaseDynamics("rotation", alpha=0.381966))),
    "contraction": (_lam_family(), BaseSystem(BaseSpace("box", bounds=((-0.5, 0.5),)), BaseDynamics("contraction", c=0.7))),
}


def _check_against_first_fit(fam, base, flt, cands, eps, n_range, seed):
    ests = entropy_lower_bound(fam, base, eps, n_range, seed=seed, flt=flt, candidates=cands)
    lam, x, y = cands
    xs, ys, ls, ok_hist = _orbit_track(fam, base, lam, x, y, max(n_range), flt.R)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    circ = base.space.kind == CIRCLE
    for est, n in zip(ests, sorted(n_range)):
        keep = np.flatnonzero(ok_hist[n - 1])
        order = keep[rng.permutation(keep.size)]
        assert est.survivors == keep.size
        assert est.s_n == _first_fit(xs[:n], ys[:n], ls[:n], eps, circ, order), (n, eps)
    return ests


@pytest.mark.parametrize("bname", sorted(_BASES))
def test_greedy_pack_equals_first_fit(bname):
    # more candidates than BLOCK, several n in one call, orbits leaving the bidisc between them
    fam, base = _BASES[bname]
    flt = compute_radius(fam, base.space, margin=1.0)
    cands = draw_candidates(fam, base, None, 600, seed=11, flt=flt)
    assert cands[0].size > 2 * BLOCK
    for eps in (0.05, 0.15, 0.4, 1.0):
        ests = _check_against_first_fit(fam, base, flt, cands, eps, [1, 3, 6], seed=11)
        assert ests[0].survivors > ests[-1].survivors
        if eps == 1.0:
            assert ests[-1].s_n < ests[-1].survivors


def test_greedy_pack_duplicates_and_coarse_cells(quad_fam, single_base, quad_flt):
    lam, x, y = draw_candidates(quad_fam, single_base, None, 400, seed=2, flt=quad_flt)
    # exact duplicates (distance 0) and near-duplicates 4e-8 away, so eps = 1e-7 has conflicts
    cands = (
        np.concatenate([lam, lam[:150], lam[150:300]]),
        np.concatenate([x, x[:150], x[150:300] + 4e-8]),
        np.concatenate([y, y[:150], y[150:300]]),
    )
    for eps in (1e-7, 0.05, 0.4):
        ests = _check_against_first_fit(quad_fam, single_base, quad_flt, cands, eps, [1, 2, 4], seed=2)
        assert all(e.s_n < e.survivors for e in ests)
    # eps = 1e-7 is far below extent / CELL_RANGE, so the cells are the coarse ones
    assert 1e-7 < float(np.ptp(x.real)) / CELL_RANGE


@pytest.mark.parametrize("eps", [0.25, 0.05])
def test_greedy_pack_lattice_ties_conflict(eps):
    # a 5^4 lattice with spacing eps: neighbours sit at d_n == eps, which must conflict
    g = np.arange(5) * eps
    a, b, c, d = (v.ravel() for v in np.meshgrid(g, g, g, g, indexing="ij"))
    x, y = a + 1j * b, c + 1j * d
    xs, ys, ls = np.stack([x, x]), np.stack([y, y]), np.zeros((2, x.size), dtype=complex)
    rng = np.random.Generator(np.random.PCG64(4))
    for order in (np.arange(x.size), rng.permutation(x.size)):
        s = _greedy_pack(xs, ys, ls, eps, False, order, _cell_index(xs[0], ys[0], eps))
        assert s == _first_fit(xs, ys, ls, eps, False, order)
        assert s < x.size
    if eps == 0.25:
        # exact ties: first-fit in lattice order keeps one parity class
        assert _greedy_pack(xs, ys, ls, eps, False, np.arange(x.size), _cell_index(xs[0], ys[0], eps)) == (x.size + 1) // 2


def test_greedy_pack_tie_across_rounded_cell_keys():
    # a - b == eps exactly, but (a - lo) / eps and (b - lo) / eps round two cells apart:
    # the cells must be wide enough that the pair is still tested, and conflicts
    lo, eps = -1.3, 0.1
    b, a = 0.09999999999999987, 0.19999999999999987
    assert a - b == eps and np.floor((a - lo) / eps) - np.floor((b - lo) / eps) == 2
    xs = np.array([[lo + 1j * lo, b, a]])
    ys = np.full((1, 3), lo * (1 + 1j))
    ls = np.zeros((1, 3), dtype=complex)
    order = np.array([1, 2, 0])
    assert _greedy_pack(xs, ys, ls, eps, False, order, _cell_index(xs[0], ys[0], eps)) == _first_fit(xs, ys, ls, eps, False, order) == 2


_CLOUDS = ("uniform", "duplicates", "lattice", "circle")


def _synthetic_cloud(rng, kind):
    """(xs, ys, ls, circ, eps) for a 4-step synthetic cloud of 600 to 1300 points.

    The packer sees only coordinates, so the steps are random rather than
    orbits. "duplicates" has exact copies and copies 4e-8 away; "lattice"
    is part of a 7^4 lattice of spacing eps, the same at every step, so
    neighbours tie at d_n == eps; "circle" has base points on both sides
    of 0 = 1, whose base distance wraps.
    """
    steps, size = 4, int(rng.integers(600, 1301))

    def fibre(m, r=1.0):
        return r * (rng.uniform(-1, 1, (steps, m)) + 1j * rng.uniform(-1, 1, (steps, m)))

    ls, circ = np.zeros((steps, size), dtype=complex), False
    if kind == "uniform":
        xs, ys, eps = fibre(size), fibre(size), float(rng.choice([0.05, 0.15, 0.4, 1.0]))
    elif kind == "duplicates":
        m = size // 2
        xs, ys = fibre(m), fibre(m)
        pick = rng.integers(0, m, size - m)
        shift = np.where(rng.random(size - m) < 0.5, 0.0, 4e-8)
        xs = np.concatenate([xs, xs[:, pick] + shift], axis=1)
        ys = np.concatenate([ys, ys[:, pick]], axis=1)
        eps = float(rng.choice([1e-7, 0.05, 0.4]))
    elif kind == "lattice":
        eps = float(rng.choice([0.25, 0.1, 0.05]))
        g = np.arange(7) * eps
        a, b, c, d = (v.ravel() for v in np.meshgrid(g, g, g, g, indexing="ij"))
        pick = rng.choice(a.size, size, replace=False)
        xs = np.broadcast_to(a[pick] + 1j * b[pick], (steps, size))
        ys = np.broadcast_to(c[pick] + 1j * d[pick], (steps, size))
    else:
        circ = True
        xs, ys, eps = fibre(size, 0.3), fibre(size, 0.3), float(rng.choice([0.05, 0.15]))
        lam = rng.uniform(-0.1, 0.1, size) % 1.0
        ls = ((lam + 0.381966 * np.arange(steps)[:, None]) % 1.0).astype(complex)
    return xs, ys, ls, circ, eps


@pytest.mark.parametrize("case", range(48), ids=lambda c: f"{_CLOUDS[c % 4]}-{c // 4}")
def test_shared_index_pack_equals_first_fit(case):
    # one index from the whole cloud's step 0, packed at depths 1, 2 and 4 over shrinking survivors
    rng = np.random.Generator(np.random.PCG64(100 + case))
    xs, ys, ls, circ, eps = _synthetic_cloud(rng, _CLOUDS[case % 4])
    index = _cell_index(xs[0], ys[0], eps)
    survive = np.ones(xs.shape[1], dtype=bool)
    for n in (1, 2, 4):
        keep = np.flatnonzero(survive)
        order = keep[rng.permutation(keep.size)]
        got = _greedy_pack(xs[:n], ys[:n], ls[:n], eps, circ, order, index)
        assert got == _first_fit(xs[:n], ys[:n], ls[:n], eps, circ, order), (n, eps)
        survive &= rng.random(survive.size) < 0.8


def test_entropy_lower_bound_builds_one_index(monkeypatch):
    built = []

    def spy(x0, y0, eps):
        built.append(x0.size)
        return _cell_index(x0, y0, eps)

    fam, base = _BASES["identity"]
    flt = compute_radius(fam, base.space, margin=1.0)
    cands = draw_candidates(fam, base, None, 600, seed=3, flt=flt)
    monkeypatch.setattr(entropy_mod, "_cell_index", spy)
    ests = entropy_lower_bound(fam, base, 0.1, [1, 2, 4, 6], seed=3, flt=flt, candidates=cands)
    assert len(ests) == 4 and ests[0].survivors > ests[-1].survivors
    assert built == [600]


def _stress_cloud():
    """The 20 000 uniform points in [0, 1]^4 of the packing memory tests, one step, and their order."""
    rng = np.random.Generator(np.random.PCG64(8))
    u = rng.uniform(0, 1, (4, 20_000))
    xs, ys, ls = (u[0] + 1j * u[1])[None], (u[2] + 1j * u[3])[None], np.zeros((1, 20_000), dtype=complex)
    return xs, ys, ls, rng.permutation(20_000)


@pytest.mark.parametrize("eps", [0.02, 0.1, 1.0])
def test_packing_memory_stays_bounded(eps):
    # index and sweep on 20 000 uniform points in [0, 1]^4, traced with the cloud already in place
    xs, ys, ls, order = _stress_cloud()
    tracemalloc.start()
    try:
        s = _greedy_pack(xs, ys, ls, eps, False, order, _cell_index(xs[0], ys[0], eps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1 <= s <= 20_000
    assert peak < 8 * 2**20


@pytest.mark.parametrize("eps", [0.02, 0.1, 1.0])
def test_entropy_lower_bound_memory_stays_bounded(eps):
    # the stress cloud as candidates at depth 1, traced with the cloud and its radius already in place
    xs, ys, _, _ = _stress_cloud()
    fam, base = quadratic_family(a=0.3), point_base(0.0)
    flt = compute_radius(fam, base.space, margin=1.0)
    cands = (np.zeros(20_000, dtype=complex), xs[0], ys[0])
    assert max(np.abs(xs[0]).max(), np.abs(ys[0]).max()) < flt.R
    tracemalloc.start()
    try:
        (est,) = entropy_lower_bound(fam, base, eps, [1], seed=8, flt=flt, candidates=cands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.survivors == 20_000 and 1 <= est.s_n <= 20_000
    assert peak < 8 * 2**20


def _spy_paths(monkeypatch):
    """Record which packing path each depth takes: 'graph' once per conflict graph, 'sweep' per depth."""
    taken = []
    graph, sweep = entropy_mod._conflict_graph, entropy_mod._greedy_pack

    def spy_graph(*args):
        taken.append("graph")
        return graph(*args)

    def spy_sweep(*args):
        taken.append("sweep")
        return sweep(*args)

    monkeypatch.setattr(entropy_mod, "_conflict_graph", spy_graph)
    monkeypatch.setattr(entropy_mod, "_greedy_pack", spy_sweep)
    return taken


def _force_path(monkeypatch, path):
    """Count no pairs (the conflict graph) or more than any bound (the block sweep)."""
    monkeypatch.setattr(entropy_mod, "_adjacent_pairs", lambda index, members: 0 if path == "graph" else 2**62)
    return _spy_paths(monkeypatch)


@pytest.mark.parametrize("path", ["graph", "sweep"])
@pytest.mark.parametrize("case", range(16), ids=lambda c: f"{_CLOUDS[c % 4]}-{c // 4}")
def test_both_packing_paths_equal_first_fit(case, path, monkeypatch):
    # each synthetic cloud packed at depths 1, 2 and 4 over shrinking survivors, on the forced path
    rng = np.random.Generator(np.random.PCG64(300 + case))
    xs, ys, ls, circ, eps = _synthetic_cloud(rng, _CLOUDS[case % 4])
    index = _cell_index(xs[0], ys[0], eps)
    depths, orders = [1, 2, 4], []
    survive = np.ones(xs.shape[1], dtype=bool)
    for _ in depths:
        keep = np.flatnonzero(survive)
        orders.append(keep[rng.permutation(keep.size)])
        survive &= rng.random(survive.size) < 0.8
    taken = _force_path(monkeypatch, path)
    got = _pack_depths(xs, ys, ls, eps, circ, depths, orders, index)
    assert taken == (["graph"] if path == "graph" else ["sweep"] * 3)
    for n, order, s_n in zip(depths, orders, got):
        assert s_n == _first_fit(xs[:n], ys[:n], ls[:n], eps, circ, order), (n, eps)


@pytest.mark.parametrize("path", ["graph", "sweep"])
@pytest.mark.parametrize("bname", sorted(_BASES))
def test_both_packing_paths_equal_first_fit_on_orbits(bname, path, monkeypatch):
    # orbits leaving the bidisc between depths, the smallest depth above 1, several eps
    fam, base = _BASES[bname]
    flt = compute_radius(fam, base.space, margin=1.0)
    cands = draw_candidates(fam, base, None, 600, seed=12, flt=flt)
    taken = _force_path(monkeypatch, path)
    for eps in (0.05, 0.4, 1.0):
        ests = _check_against_first_fit(fam, base, flt, cands, eps, [2, 3, 6], seed=12)
        assert ests[0].survivors > ests[-1].survivors
    assert set(taken) == {path}


@pytest.mark.parametrize("eps, path", [(0.02, "graph"), (1.0, "sweep")])
def test_stress_cloud_selects_its_path(eps, path, monkeypatch):
    # 2 457 pairs in adjacent cells at eps 0.02; at eps 1.0 every pair is, far above the sweep's bound
    xs, ys, ls, order = _stress_cloud()
    index = _cell_index(xs[0], ys[0], eps)
    pairs = _adjacent_pairs(index, order)
    assert (pairs <= PAIR_BUDGET * -(-order.size // BLOCK)) == (path == "graph")
    if eps == 1.0:
        assert pairs == 20_000 * 19_999 // 2
    taken = _spy_paths(monkeypatch)
    (s_n,) = _pack_depths(xs, ys, ls, eps, False, [1], [order], index)
    assert taken == [path]
    assert s_n == _greedy_pack(xs, ys, ls, eps, False, order, index)


@pytest.mark.parametrize("case", range(8), ids=lambda c: f"{_CLOUDS[c % 4]}-{c // 4}")
def test_adjacent_pairs_counts_every_pair_in_adjacent_cells(case):
    # against a direct count: pairs whose step-0 cells are adjacent in every real coordinate
    rng = np.random.Generator(np.random.PCG64(500 + case))
    xs, ys, _, _, eps = _synthetic_cloud(rng, _CLOUDS[case % 4])
    index = _cell_index(xs[0], ys[0], eps)
    members = np.flatnonzero(rng.random(xs.shape[1]) < 0.7)
    adjacent = np.zeros((index.near_start.size - 1,) * 2, dtype=bool)
    for c in range(adjacent.shape[0]):
        adjacent[c, index.near[index.near_start[c]:index.near_start[c + 1]]] = True
    cell = index.cell_of[members]
    direct = int(np.triu(adjacent[cell[:, None], cell[None, :]], 1).sum())
    assert _adjacent_pairs(index, members) == direct


def _index_clouds():
    rng = np.random.Generator(np.random.PCG64(40))
    for case in range(12):
        xs, ys, _, _, eps = _synthetic_cloud(rng, _CLOUDS[case % 4])
        yield pytest.param(xs[0], ys[0], eps, id=f"{_CLOUDS[case % 4]}-{case // 4}")
    xs, ys, _, _ = _stress_cloud()
    for eps in (0.02, 0.1, 1.0):
        yield pytest.param(xs[0], ys[0], eps, id=f"stress-{eps}")


@pytest.mark.parametrize("x0, y0, eps", _index_clouds())
def test_cell_index_equals_two_search_index(x0, y0, eps):
    got, ref = _cell_index(x0, y0, eps), cell_index_two_search(x0, y0, eps)
    for field in ("cell_of", "near_start", "near"):
        a, b = getattr(got, field), getattr(ref, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


@pytest.mark.parametrize("bname", sorted(_BASES))
def test_dn_distance_matches_packer_predicate(bname):
    fam, base = _BASES[bname]
    flt = compute_radius(fam, base.space, margin=1.0)
    lam, x, y = draw_candidates(fam, base, None, 300, seed=6, flt=flt)
    n = 6
    xs, ys, ls, ok_hist = _orbit_track(fam, base, lam, x, y, n, flt.R)
    inside = np.flatnonzero(ok_hist[n - 1])
    rng = np.random.Generator(np.random.PCG64(6))
    circ = base.space.kind == CIRCLE
    for _ in range(150):
        p, q = rng.choice(inside, 2, replace=False)
        d = dn_distance(fam, base, (lam[p], (x[p], y[p])), (lam[q], (x[q], y[q])), n)
        # at eps = d_n the pair conflicts (one kept), one ulp below it does not
        for eps in (d, np.nextafter(d, 0.0)):
            kept = _greedy_pack(xs, ys, ls, eps, circ, np.array([p, q]), _cell_index(xs[0], ys[0], eps))
            assert (kept == 1) == (d <= eps)


def test_estimate_survivors_bound():
    assert SeparatedSetEstimate(n=2, eps=0.1, s_n=4, survivors=4).survivors == 4
    with pytest.raises(ValidationError):
        SeparatedSetEstimate(n=2, eps=0.1, s_n=5, survivors=4)


# -- candidate draw decided at the bidisc-cap depth ------------------------------------------


def _two_factor_family():
    return HenonFamily((
        HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.parse("0.1*u")), CoeffMap.constant(0.3)),
        HenonFactor(2, (CoeffMap.parse("0.05*u"), CoeffMap.constant(-0.2)), CoeffMap.constant(0.5)),
    ))


_BOX = BaseSystem(BaseSpace("box", bounds=((-0.5, 0.5),)), BaseDynamics("identity"))
_ROTATION = BaseSystem(BaseSpace("circle"), BaseDynamics("rotation", alpha=0.381966))
_CONTRACTION = BaseSystem(BaseSpace("box", bounds=((-0.5, 0.5),)), BaseDynamics("contraction", c=0.7))


def _inside(R):
    """A square window inside the bidisc."""
    return (-R / 2, R / 2) * 4


def _outside(R):
    """Twice the bidisc's square window in each real coordinate."""
    return (-2 * R, 2 * R) * 4


def _far(R):
    """|y| up to 1e307: backward steps from there overflow for |a| < 0.1."""
    return (-R, R, -R, R, -1e307, 1e307, -1e307, 1e307)


# id -> (family, base, window of R (None: the default window), draw keywords)
_DRAWS = {
    "quadratic-point": (quadratic_family(a=0.3), point_base(0.0), None, {}),
    "quadratic-lam-contraction": (_lam_family(), _CONTRACTION, None, {}),
    "two-factor-box": (_two_factor_family(), _BOX, None, {}),
    "two-factor-rotation": (_two_factor_family(), _ROTATION, None, {}),
    "quadratic-point-outside": (quadratic_family(a=0.3), point_base(0.0), _outside, {"max_batches": 3}),
    "two-factor-rotation-outside": (_two_factor_family(), _ROTATION, _outside, {"max_batches": 3}),
    "conservative-point-pluri": (quadratic_family(a=1.0, c=-0.5), point_base(0.0), None,
                                 {"use_pluri": True, "max_batches": 3}),
    "conservative-rotation-pluri": (quadratic_family(a=-1.0, c="0.2*u"), _ROTATION, None,
                                    {"use_pluri": True, "max_batches": 3}),
    # values up to about 710 are below this threshold; the backward orbits
    # that overflow are non-finite, so undecided, and are re-run
    "far-pluri-overflow": (quadratic_family(a=0.05), point_base(0.0), _far,
                           {"use_pluri": True, "green_threshold": 1000.0, "max_batches": 2}),
    "short-n_max": (quadratic_family(a=0.3), point_base(0.0), None, {"n_max": 5}),
    "tol-above-half-threshold": (_two_factor_family(), _ROTATION, None, {"tol": 0.03}),
}


def _recording(monkeypatch, module, calls):
    real = module.green_values

    def recorded(fam, base, lam, x, y, tol=1e-6, n_max=200, flt=None, inverse=False, backward_base=False):
        calls.append((len(x), n_max, inverse))
        return real(fam, base, lam, x, y, tol, n_max, flt, inverse, backward_base)

    monkeypatch.setattr(module, "green_values", recorded)


def _draw_both(monkeypatch, fam, base, window, kw, n_candidates=3000, seed=4):
    """(draw, full-depth reference, draw's green_values calls, reference's calls)."""
    from henonskew import green as green_mod

    flt = compute_radius(fam, base.space)
    window = None if window is None else window(flt.R)
    calls, ref_calls = [], []
    _recording(monkeypatch, entropy_mod, calls)
    _recording(monkeypatch, green_mod, ref_calls)
    got = draw_candidates(fam, base, window, n_candidates, seed, flt=flt, **kw)
    ref = draw_candidates_full_depth(fam, base, window, n_candidates, seed, flt=flt, **kw)
    return got, ref, calls, ref_calls


@pytest.mark.parametrize("case", sorted(_DRAWS))
def test_draw_matches_full_depth_loop(case, monkeypatch):
    fam, base, window, kw = _DRAWS[case]
    got, ref, calls, ref_calls = _draw_both(monkeypatch, fam, base, window, kw)
    assert ref[0].size > 0
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.shape == r.shape
        assert np.array_equal(g, r)
    # the reference's calls, each at the decision depth, then the re-runs to n_max
    m = ref_calls[0][0]
    full = [c for c in calls if c[0] == m]
    rerun = [c for c in calls if c[0] < m]
    assert [c[2] for c in full] == [c[2] for c in ref_calls]
    flt = compute_radius(fam, base.space)
    threshold, tol, n_max = kw.get("green_threshold", 0.05), kw.get("tol", 1e-3), kw.get("n_max", 100)
    assert all(n == _decision_depth(flt.toward(inverse), threshold, tol, n_max) for _, n, inverse in full)
    assert all(n == n_max for _, n, _ in rerun)
    if case in ("short-n_max", "tol-above-half-threshold"):
        assert all(n == n_max for _, n, _ in full)
    assert bool(rerun) == (case == "far-pluri-overflow")


@pytest.mark.parametrize("case", ["quadratic-point", "two-factor-rotation", "conservative-point-pluri"])
def test_draw_inside_the_bidisc_makes_one_call_per_batch(case, monkeypatch):
    fam, base, _, kw = _DRAWS[case]
    got, ref, calls, ref_calls = _draw_both(monkeypatch, fam, base, _inside, dict(kw, max_batches=2), n_candidates=6000)
    assert all(np.array_equal(g, r) for g, r in zip(got, ref))
    assert len(calls) == len(ref_calls) >= 2
    assert all(c[0] == 6000 and c[1] < 100 for c in calls)


def test_decision_depth():
    fam, base = quadratic_family(a=0.3), point_base(0.0)
    flt = compute_radius(fam, base.space)
    d, cap = 2.0, flt.bidisc_cap()
    n = _decision_depth(flt, 0.05, 1e-3, 100)
    assert n >= flt.depth_for(1e-3)
    assert 2.0 * (d ** (-n) * cap + 1e-3) < 0.05
    if n > flt.depth_for(1e-3):
        assert 2.0 * (d ** (-(n - 1)) * cap + 1e-3) >= 0.05
    assert _decision_depth(flt, 0.05, 1e-3, 4) == 4
    assert _decision_depth(flt, 0.05, 0.025, 100) == 100
    back = flt.toward(True)
    assert _decision_depth(back, 0.05, 1e-3, 100) >= back.depth_for(1e-3)


# -- dn_distance on _orbit_track's orbits ---------------------------------------------------


def test_dn_distance_raises_no_warning_on_overflow():
    """dn_distance on pairs whose orbits overflow (one or both, from huge or
    NaN starts) lets no floating-point warning reach the caller."""
    fam, base = quadratic_family(a=0.3, c=0.1), point_base(0.0)
    pairs = [
        ((0.0, (1e100, 1e100)), (0.0, (0.1, 0.2))),
        ((0.0, (1e60, 1e80)), (0.0, (1e100, 1e100))),
        ((0.0, (0.1, 1e200)), (0.0, (1e200, 0.1))),
        ((0.0, (np.nan, np.nan)), (0.0, (1e100, 1e100))),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [dn_distance(fam, base, p, q, 12) for p, q in pairs]
    assert got[0] == np.inf
    assert all(g > 0.0 for g in got[:3])


@pytest.mark.parametrize("case", ["quadratic-point", "two-factor-rotation", "two-factor-contraction"])
def test_dn_distance_matches_step_loop(case):
    """dn_distance equals the two-orbit step loop bit for bit: on pairs that
    stay in the bidisc, on pairs that overflow to inf (then NaN), and from a
    NaN start."""
    fam, base = {
        "quadratic-point": (quadratic_family(a=0.3, c=0.1 + 0.05j), point_base(0.0)),
        "two-factor-rotation": (_two_factor_family(), _ROTATION),
        "two-factor-contraction": (_two_factor_family(), _CONTRACTION),
    }[case]
    rng = np.random.Generator(np.random.PCG64(9))

    def point(scale):
        lam = base.space.sample(rng, 1)[0]
        return lam, tuple(scale * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)))

    def same(p, q, n):
        with np.errstate(over="ignore", invalid="ignore"):
            ref = dn_distance_loop(fam, base, p, q, n)
        assert dn_distance(fam, base, p, q, n) == ref

    for n in (1, 3, 8):
        for _ in range(20):
            same(point(0.3), point(0.3), n)
    d = dn_distance(fam, base, point(0.3), point(0.3), 8)
    assert 0.0 < d < np.inf
    for n in (2, 5, 12):
        for _ in range(10):
            same(point(1e100), point(0.3), n)
            same(point(1e60), point(1e80), n)
    assert dn_distance(fam, base, point(1e100), point(0.3), 12) == np.inf
    same((0.0, (np.nan, 0.1 + 0j)), point(0.3), 6)
    same((0.0, (np.nan, np.nan)), point(1e100), 6)
    assert dn_distance(fam, base, (0.0, (np.nan, 0.1 + 0j)), (0.0, (0.2 + 0j, 0.1 + 0j)), 4) == 0.0
