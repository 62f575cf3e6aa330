import mpmath
import numpy as np
import pytest

from henonskew.base import BaseDynamics, BaseSpace, BaseSystem, point_base
from henonskew.expr import CoeffMap
from henonskew.family import HenonFactor, HenonFamily, quadratic_family
from henonskew.filtration import compute_radius


@pytest.fixture(scope="session")
def quad_fam():
    """p(y) = y^2, a = 0.3: the standard single quadratic family."""
    return quadratic_family(a=0.3)


@pytest.fixture(scope="session")
def single_base():
    return point_base(0.0)


@pytest.fixture(scope="session")
def quad_flt(quad_fam, single_base):
    return compute_radius(quad_fam, single_base.space, margin=1.0)


@pytest.fixture(scope="session")
def box_fam():
    """p(y) = y^2 + c(lam), c in [-0.1, 0.1] via c = lam, a = 0.2."""
    return HenonFamily(
        (HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.parse("u")), CoeffMap.constant(0.2)),)
    )


@pytest.fixture(scope="session")
def box_base():
    return BaseSystem(BaseSpace("box", bounds=((-0.1, 0.1),)), BaseDynamics("identity"))


@pytest.fixture(scope="session")
def two_letter_base():
    """M = {-0.1, +0.1} uniform; family uses c(lam) = lam."""
    return BaseSystem(BaseSpace("finite", points=(-0.1 + 0j, 0.1 + 0j)), BaseDynamics("shift"))


def _mp_map(factor_data, lam, x, y, inverse):
    """One application of the family (or its inverse) in mpmath."""
    facs = factor_data(lam)
    if inverse:
        for deg, coeffs, a in reversed(facs):
            p = mpmath.mpc(1)
            for c in coeffs:
                p = p * x + mpmath.mpc(c)
            x, y = (p - y) / mpmath.mpc(a), x
    else:
        for deg, coeffs, a in facs:
            p = mpmath.mpc(1)
            for c in coeffs:
                p = p * y + mpmath.mpc(c)
            x, y = y, p - mpmath.mpc(a) * x
    return x, y


def _mp_g(x, y, degree, depth):
    """d^-n log+ ||(x, y)|| in mpmath."""
    norm = mpmath.sqrt(abs(x) ** 2 + abs(y) ** 2)
    val = mpmath.log(norm) if norm > 1 else mpmath.mpf(0)
    return val / mpmath.mpf(degree) ** depth


def mp_orbit_green(factor_data, lam_of_step, z, depth, degree, inverse=False, dps=40):
    """Arbitrary-precision Green oracle: d^-n log+ ||orbit point||.

    factor_data(lam) yields [(deg, [c_(d-1)..c_0], a)] per factor; mpmath
    mpf exponents are unbounded so d^n coordinate growth is exact.
    """
    with mpmath.workdps(dps):
        x, y = mpmath.mpc(z[0]), mpmath.mpc(z[1])
        for n in range(depth):
            x, y = _mp_map(factor_data, lam_of_step(n), x, y, inverse)
        return float(_mp_g(x, y, degree, depth))


def _mp_wedge_orbit(factor_data, lam_of_step, z, degree, inverse, max_steps=400):
    """Yield (n, x, y, done) along the mpmath orbit of z.

    done marks the stopping depth of the benchmark's mpmath oracle: the
    dominant coordinate (y forward, x backward) exceeds 1e100 inside its
    wedge. Backward, log|x'| - d log|x| tends to -log|a| rather than 0,
    which leaves a tail of about d^-n |log a| / (d - 1), so there done also
    needs d^-n < 1e-13.
    """
    big = mpmath.mpf(10) ** 100
    x, y = mpmath.mpc(z[0]), mpmath.mpc(z[1])
    for n in range(1, max_steps + 1):
        x, y = _mp_map(factor_data, lam_of_step(n - 1), x, y, inverse)
        dom, sub = (abs(x), abs(y)) if inverse else (abs(y), abs(x))
        yield n, x, y, dom > big and dom >= sub and (not inverse or mpmath.mpf(degree) ** -n < 1e-13)


def mp_wedge_green(factor_data, lam_of_step, z, degree, inverse=False, dps=40):
    """Arbitrary-precision Green value of an escaping point, or None.

    The depth comes from the orbit alone (see _mp_wedge_orbit), never from
    a depth the program chose.
    """
    with mpmath.workdps(dps):
        for n, x, y, done in _mp_wedge_orbit(factor_data, lam_of_step, z, degree, inverse):
            if done:
                return float(_mp_g(x, y, degree, n))
    return None


def mp_truncation(factor_data, lam_of_step, z, degree, depth, dps=60):
    """|G_n(z) - G^+(z)| at n = depth, both in mpmath (forward orbits)."""
    with mpmath.workdps(dps):
        for n, x, y, done in _mp_wedge_orbit(factor_data, lam_of_step, z, degree, False):
            if n == depth:
                at_depth = _mp_g(x, y, degree, n)
            if done and n >= depth:
                return float(abs(at_depth - _mp_g(x, y, degree, n)))
    return None


def quad_factor_data(a=0.3, c=0.0):
    def data(lam):
        cc = c(lam) if callable(c) else c
        return [(2, [0.0, cc], a)]

    return data


# ---------------------------------------------------------------------------
# per-sequence Monte-Carlo loops: the references that the batched averages in
# henonskew.green must reproduce bit for bit


def avg_green_field_loop(fam, space, grid, tol, n_mc, seed, n_max, flt):
    """(mean, stderr, status, depth) of EG^+ from one green_field_seq raster per sequence."""
    from henonskew.base import ParamSequence
    from henonskew.green import STATUS_CONVERGED, STATUS_UNDECIDED, MCMoments, green_field_seq

    root = ParamSequence(space, seed)
    moments = MCMoments()
    any_undecided = np.zeros((grid.ny, grid.nx), dtype=bool)
    depth = np.zeros((grid.ny, grid.nx), dtype=np.int32)
    for i in range(n_mc):
        f = green_field_seq(fam, root.spawn(i), grid, tol, n_max, flt)
        moments.add(f.values)
        any_undecided |= f.status == STATUS_UNDECIDED
        depth = np.maximum(depth, f.depth)
    status = np.where(any_undecided, STATUS_UNDECIDED, STATUS_CONVERGED).astype(np.uint8)
    return moments.mean(), moments.stderr(), status, depth


def avg_green_loop(fam, space, z, tol, n_mc, seed, n_max, flt):
    """(mean, standard error) of EG^+(z) from one green_random call per sequence."""
    from henonskew.base import ParamSequence
    from henonskew.green import MCMoments, green_random

    root = ParamSequence(space, seed)
    moments = MCMoments.of(green_random(fam, root.spawn(i), z, tol, n_max, flt).value for i in range(n_mc))
    return float(moments.mean()), float(moments.stderr())


def theta_loop(fam, space, u, grid, n_max, n_mc, seed, tol, flt):
    """(errors, floors) of theta_average_pullback from one pullback orbit per sequence."""
    from henonskew.base import ParamSequence
    from henonskew.green import STATUS_UNDECIDED, MCMoments
    from henonskew.orbit import SeqSupplier, iterate

    ref, ref_stderr, status, _ = avg_green_field_loop(fam, space, grid, tol, n_mc, seed + 1, 200, flt)
    mask = status != STATUS_UNDECIDED
    root = ParamSequence(space, seed)
    x, y = grid.points()
    d = float(fam.degree)
    moments = {n: MCMoments() for n in range(1, n_max + 1)}
    for i in range(n_mc):
        sup = SeqSupplier(root.spawn(i), n_max)
        for n, orbit in iterate(fam, sup, x.ravel(), y.ravel(), range(1, n_max + 1)):
            moments[n].add((d ** (-n) * u.eval_orbit(orbit)).reshape(grid.ny, grid.nx))
    errors, floors = [], []
    for m in moments.values():
        errors.append(float(np.abs(m.mean() - ref)[mask].max()))
        floors.append(float((m.stderr() + ref_stderr)[mask].max()))
    return errors, floors


def avg_current_slice_loop(fam, space, grid, n_mc, seed, tol, n_max, flt):
    """(mean potential, mean-of-measures density, mass standard error) of
    avg_current_slice from one raster per sequence."""
    from henonskew.base import ParamSequence
    from henonskew.currents import laplacian_density
    from henonskew.green import MCMoments, green_field_seq

    root = ParamSequence(space, seed)
    pot, den, mass = MCMoments(), MCMoments(), MCMoments()
    for i in range(n_mc):
        f = green_field_seq(fam, root.spawn(i), grid, tol, n_max, flt)
        assert not f.undecided
        density = laplacian_density(f.values, grid.dx, grid.dy)
        pot.add(f.values)
        den.add(density)
        mass.add(density.sum())
    return pot.mean(), den.mean(), float(mass.stderr())


def draw_candidates_full_depth(fam, base, window, n_candidates, seed, green_threshold=0.05, tol=1e-3, n_max=100,
                               flt=None, max_batches=40, use_pluri=False):
    """(lam, x, y) of entropy.draw_candidates from Green values iterated to n_max.

    Each batch runs green_values to n_max on every drawn point (forward,
    and backward with use_pluri) and keeps the points whose value is below
    the threshold: the reference that the draw's decision depth must
    reproduce bit for bit.
    """
    from henonskew import green
    from henonskew.errors import EmptyCandidateSet
    from henonskew.filtration import resolve_radius

    flt = resolve_radius(fam, flt, base.space)
    R = flt.R
    if window is None:
        window = (-R, R, -R, R, -R, R, -R, R)
    rng = np.random.Generator(np.random.PCG64(seed))
    got_lam, got_x, got_y = [], [], []
    total = 0
    for _ in range(max_batches):
        m = max(n_candidates, 4096)
        lam = base.space.sample(rng, m)
        x = rng.uniform(window[0], window[1], m) + 1j * rng.uniform(window[2], window[3], m)
        y = rng.uniform(window[4], window[5], m) + 1j * rng.uniform(window[6], window[7], m)
        gp, _, _ = green.green_values(fam, base, lam, x, y, tol, n_max, flt)
        if use_pluri:
            gm, _, _ = green.green_values(fam, base, lam, x, y, tol, n_max, flt, inverse=True,
                                          backward_base=base.sigma.invertible)
            keep = np.maximum(gp, gm) < green_threshold
        else:
            keep = gp < green_threshold
        got_lam.append(lam[keep])
        got_x.append(x[keep])
        got_y.append(y[keep])
        total += int(keep.sum())
        if total >= n_candidates:
            break
    if total == 0:
        raise EmptyCandidateSet("no points below the Green threshold in the window")
    return tuple(np.concatenate(v)[:n_candidates] for v in (got_lam, got_x, got_y))


def check_invariance_two_pass(fam, space, R, n_points=10_000, seed=0, lam_grid=16):
    """filtration.check_invariance with four maps per base point: V_R^+ alone
    and V_R^+ u V_R forward, V_R^- alone and V_R^- u V_R backward."""
    from henonskew.family import eval_inverse, eval_map
    from henonskew.filtration import InvarianceReport, _sample_regions, region_masks

    rng = np.random.Generator(np.random.PCG64(seed))
    lam_all = np.atleast_1d(space.grid(lam_grid))
    counts = [0, 0, 0, 0]
    per_lam = max(1, n_points // max(1, len(lam_all)))
    for lam in lam_all:
        (px, py), (mx, my), (bx, by) = _sample_regions(rng, R, per_lam)
        p2, _, _ = region_masks(*eval_map(fam, lam, (px, py)), R)
        counts[0] += int(np.count_nonzero(~p2))
        _, m3, _ = region_masks(*eval_map(fam, lam, (np.concatenate((px, bx)), np.concatenate((py, by)))), R)
        counts[1] += int(np.count_nonzero(m3))
        _, m4, _ = region_masks(*eval_inverse(fam, lam, (mx, my)), R)
        counts[2] += int(np.count_nonzero(~m4))
        p5, _, _ = region_masks(*eval_inverse(fam, lam, (np.concatenate((mx, bx)), np.concatenate((my, by)))), R)
        counts[3] += int(np.count_nonzero(p5))
    return InvarianceReport(R, per_lam * len(lam_all), len(lam_all), *counts)


def dn_distance_loop(fam, base, p, q, n):
    """entropy.dn_distance as a step loop of its own: the two orbits stepped
    together, the step terms reduced by Python's max, which skips NaN terms."""
    from henonskew.base import CIRCLE, advance
    from henonskew.entropy import _bowen_step
    from henonskew.family import eval_map

    lam0 = np.array([p[0], q[0]], dtype=complex)
    lam = lam0
    x = np.array([p[1][0], q[1][0]], dtype=complex)
    y = np.array([p[1][1], q[1][1]], dtype=complex)
    best = 0.0
    circ = base.space.kind == CIRCLE
    for i in range(n):
        if i:
            x, y = eval_map(fam, lam, (x, y))
            lam = advance(base.sigma, lam0, i)
        best = max(best, float(_bowen_step(circ, lam[:1], x[:1], y[:1], lam[1:], x[1:], y[1:])[0]))
    return best
