"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines
and timings.
"""

import math
import time

import numpy as np
import pytest

from henonskew.base import (
    BaseDynamics,
    BaseSpace,
    BaseSystem,
    ParamSequence,
    advance,
    point_base,
    word_sequences,
)
from henonskew.convergence import ConvergenceReport, PotentialSpec, pullback_convergence, rigidity_probe
from henonskew.currents import off_band_fraction, slice_measure
from henonskew.entropy import draw_candidates, entropy_lower_bound
from henonskew.expr import CoeffMap
from henonskew.family import HenonFactor, HenonFamily, eval_inverse, eval_map, quadratic_family
from henonskew.filtration import check_invariance, compute_radius
from henonskew.green import depth_values, finite_depth_green, green_field, green_values
from henonskew.grids import SliceGrid, SliceSpec
from henonskew.projective import (
    ATTRACTED,
    ESCAPES,
    basin_classify_batch,
    diag_power_lift,
    estimate_constants,
    green_proj_batch,
)

TWO_PI = 2 * math.pi


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _box_family():
    """p(y) = y^2 + c(lam), c = lam in [-0.1, 0.1], a = 0.2."""
    return HenonFamily(
        (HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.parse("u")), CoeffMap.constant(0.2)),)
    )


def _two_letter():
    return BaseSpace("finite", points=(-0.1 + 0j, 0.1 + 0j))


def test_c01_filtration_invariance():
    fam = _box_family()
    space = BaseSpace("box", bounds=((-0.1, 0.1),))
    flt = compute_radius(fam, space)
    t0 = time.time()
    rep = check_invariance(fam, space, flt.R, n_points=10_000, seed=101)
    wall = time.time() - t0
    ok = rep.total_violations == 0 and wall < 5.0
    _report(1, "filtration invariance", ok, f"violations={rep.total_violations}, {wall:.2f}s (< 5 s)")


def test_c02_green_invariance_three_bases():
    rng = np.random.Generator(np.random.PCG64(44))
    tol = 1e-6
    n = 1000
    cases = [
        ("identity", BaseSpace("box", bounds=((-0.1, 0.1),)), BaseDynamics("identity"), _box_family()),
        ("contraction", BaseSpace("box", bounds=((-0.1, 0.1),)), BaseDynamics("contraction", c=0.5), _box_family()),
        (
            "rotation",
            BaseSpace("circle"),
            BaseDynamics("rotation", alpha=0.37),
            HenonFamily(
                (HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.parse("0.1*u - 0.05")), CoeffMap.constant(0.2)),)
            ),
        ),
    ]
    t0 = time.time()
    worst = 0.0
    for name, space, dyn, fam in cases:
        base = BaseSystem(space, dyn)
        flt = compute_radius(fam, space)
        lam = space.sample(rng, n)
        x = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        y = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        g, _, _ = green_values(fam, base, lam, x, y, tol, 200, flt)
        hx, hy = eval_map(fam, lam, (x, y))
        g2, _, _ = green_values(fam, base, advance(dyn, lam, 1), hx, hy, tol, 200, flt)
        worst = max(worst, float(np.abs(2 * g - g2).max()))
    wall = time.time() - t0
    ok = worst < 3 * tol and wall < 30.0
    _report(2, "green invariance", ok, f"max |d G - G o H| = {worst:.2e} (< 3e-6), {wall:.1f}s (< 30 s)")


def test_c03_cauchy_rate():
    fam = quadratic_family(a=0.3)
    base = point_base(0.0)
    flt = compute_radius(fam, base.space, margin=1.0)
    R = flt.R
    rng = np.random.Generator(np.random.PCG64(303))
    n_orb = 100

    def escape_time(y0, cap):
        t = np.full(len(y0), cap, dtype=int)
        cx = np.zeros(len(y0), dtype=complex)
        cy = np.asarray(y0, dtype=complex)
        live = np.ones(len(y0), dtype=bool)
        for k in range(1, cap + 1):
            cx, cy = eval_map(fam, 0.0, (np.where(live, cx, 0), np.where(live, cy, 0)))
            esc = live & (np.abs(cy) >= np.abs(cx)) & (np.abs(cy) > R)
            t[esc] = k
            live &= ~esc
        return t

    # bisect toward the Julia boundary so the escape happens after depth 28
    phase = np.exp(2j * np.pi * rng.uniform(size=n_orb))
    lo, hi = np.zeros(n_orb), np.ones(n_orb)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        esc = escape_time(3 * mid * phase, 60) < 60
        hi = np.where(esc, mid, hi)
        lo = np.where(esc, lo, mid)
    seeds = 3 * hi * phase
    times = escape_time(seeds, 200)
    assert times.min() >= 28

    depths = list(range(1, 27))
    diffs = np.zeros((n_orb, 25))
    for i in range(n_orb):
        vals = depth_values(fam, base.sigma, 0.0, (0.0, seeds[i]), depths)
        diffs[i] = np.abs(np.diff(vals))
    scaled_max = float((diffs * 2.0 ** np.arange(1, 26)).max())
    ns = np.arange(1, 26)
    win = (ns >= 3) & (ns <= 25)
    slope = float(np.polyfit(ns[win], np.log(diffs.mean(axis=0)[win]), 1)[0])
    rel = abs(slope + math.log(2)) / math.log(2)
    ok = scaled_max <= flt.K_plus and rel < 0.05
    _report(
        3,
        "Cauchy rate",
        ok,
        f"sup |dG| d^n = {scaled_max:.3f} <= K = {flt.K_plus:.3f}; slope {slope:.4f} vs -log2, rel {rel:.3%} (< 5%)",
    )


@pytest.fixture(scope="module")
def slice_fields():
    """Green fields of the single quadratic Henon on the x=0 disc slice."""
    fam = quadratic_family(a=0.3)
    base = point_base(0.0)
    flt = compute_radius(fam, base.space, margin=1.0)
    half = flt.R + 1
    out = {}
    t0 = time.time()
    for res in (256, 512, 1024):
        grid = SliceGrid.from_window(SliceSpec("x", 0j), (-half, half, -half, half), res)
        out[res] = green_field(fam, base, 0.0, grid, 1e-6, 200, flt)
    out["wall"] = time.time() - t0
    return out


def test_c04_slice_mass(slice_fields):
    devs = []
    masses = []
    for res in (256, 512, 1024):
        m = slice_measure(slice_fields[res])
        masses.append(m.total_mass)
        devs.append(abs(m.total_mass - TWO_PI))
    ok = (
        abs(masses[-1] - TWO_PI) / TWO_PI < 0.02
        and devs[0] >= devs[1] >= devs[2]
        and slice_fields["wall"] < 60.0
    )
    _report(
        4,
        "slice mass 2 pi",
        ok,
        f"mass(1024^2)={masses[-1]:.5f} (2pi={TWO_PI:.5f}); devs {devs[0]:.2e} >= {devs[1]:.2e} >= {devs[2]:.2e}; "
        f"{slice_fields['wall']:.1f}s (< 60 s)",
    )


def test_c05_harmonicity_localization(slice_fields):
    f = slice_fields[1024]
    m = slice_measure(f)
    frac = off_band_fraction(m, f.status, width=5)
    ok = frac < 0.01
    _report(5, "harmonicity localization", ok, f"off-band |density| fraction = {frac:.4%} (< 1%)")


def test_c06_avg_green_oracle():
    fam = _box_family()
    space = _two_letter()
    depth, n_mc = 12, 4096
    rng = np.random.Generator(np.random.PCG64(5))
    n_pts = 100
    zx = rng.uniform(-2, 2, n_pts) + 1j * rng.uniform(-2, 2, n_pts)
    zy = rng.uniform(-2, 2, n_pts) + 1j * rng.uniform(-2, 2, n_pts)

    exact = finite_depth_green(fam, word_sequences(space, depth), zx, zy, depth).mean(axis=0)
    root = ParamSequence(space, 31)
    draws = np.stack([root.spawn(i).prefix(depth) for i in range(n_mc)])
    mc = finite_depth_green(fam, draws, zx, zy, depth)
    mc_mean = mc.mean(axis=0)
    mc_se = mc.std(axis=0, ddof=1) / math.sqrt(n_mc)
    z = np.abs(mc_mean - exact) / np.maximum(mc_se, 1e-15)
    z[np.abs(mc_mean - exact) < 1e-12] = 0.0  # word-independent points
    ok = bool((z < 3.0).all())
    _report(6, "average-Green oracle", ok, f"max |MC - exhaustive| z-score = {z.max():.2f} (< 3)")


def test_c07_pullback_rate():
    fam = _box_family()
    space = _two_letter()
    flt = compute_radius(fam, space)
    seq = ParamSequence(space, 99)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-2.6, 2.6, -2.6, 2.6), 128)
    rep = pullback_convergence(fam, seq, PotentialSpec("fubini-study"), grid, n_max=12, tol=1e-6, flt=flt, space=space)
    window = ConvergenceReport(rep.depths[3:], rep.errors[3:], fam.degree, rep.masked_fraction)
    ok = window.residual_rel < 0.20 and rep.errors[-1] < 1e-2
    _report(
        7,
        "pullback rate",
        ok,
        f"fit residual (n=4..12) = {window.residual_rel:.3f} (< 0.20), e_12 = {rep.errors[-1]:.2e} (< 1e-2)",
    )


def test_c08_rigidity():
    fam = _box_family()
    space = _two_letter()
    flt = compute_radius(fam, space)
    seq = ParamSequence(space, 99)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), (-2.6, 2.6, -2.6, 2.6), 128)
    dist = rigidity_probe(
        fam, seq, PotentialSpec("log-plus"), PotentialSpec("fubini-study"), grid, n_max=12, tol=1e-6, flt=flt, space=space
    )
    ok = dist < 1e-2
    _report(8, "rigidity probe", ok, f"sup distance after 12 pullbacks = {dist:.2e} (< 1e-2)")


def test_c09_entropy_lower_bounds():
    base = point_base(0.0)

    fam2 = quadratic_family(a=0.3)
    flt2 = compute_radius(fam2, base.space, margin=1.0)
    t0 = time.time()
    cands = draw_candidates(fam2, base, None, 100_000, seed=7, flt=flt2)
    est2, = entropy_lower_bound(fam2, base, eps=0.05, n_range=[10], n_candidates=100_000, seed=7, flt=flt2, candidates=cands)
    wall2 = time.time() - t0
    ok2 = est2.rate >= 0.59 and wall2 < 180.0

    f = HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.constant(0.0)), CoeffMap.constant(0.3))
    fam4 = HenonFamily((f, f))
    flt4 = compute_radius(fam4, base.space, margin=1.0)
    t0 = time.time()
    cands4 = draw_candidates(fam4, base, None, 100_000, seed=7, flt=flt4)
    est4, = entropy_lower_bound(fam4, base, eps=0.05, n_range=[8], n_candidates=100_000, seed=7, flt=flt4, candidates=cands4)
    wall4 = time.time() - t0
    ok4 = est4.rate >= 0.85 * math.log(4) and wall4 < 180.0

    _report(
        9,
        "entropy lower bound",
        ok2 and ok4,
        f"d=2: rate {est2.rate:.3f} >= 0.59 in {wall2:.0f}s; d=4: rate {est4.rate:.3f} >= {0.85 * math.log(4):.3f} in {wall4:.0f}s",
    )


def test_c10_projective_homogeneity():
    F = diag_power_lift(2, 2)
    base = point_base(0.0)
    consts = estimate_constants(F, base.space, n_sphere=50_000, seed=3, margin=0.0)
    rng = np.random.Generator(np.random.PCG64(88))
    pts = rng.normal(size=(1000, 3)) + 1j * rng.normal(size=(1000, 3))
    g0 = green_proj_batch(F, base, 0.0, pts, constants=consts)
    worst = 0.0
    for c in (2.0, 1j, 0.1):
        g1 = green_proj_batch(F, base, 0.0, c * pts, constants=consts)
        worst = max(worst, float(np.abs(g1 - math.log(abs(c)) - g0).max()))
    ok = worst < 2e-6
    _report(10, "projective homogeneity", ok, f"max |G(cx) - log|c| - G(x)| = {worst:.2e} (< 2e-6)")


def test_c11_basin_radii():
    F = diag_power_lift(2, 2)
    base = point_base(0.0)
    consts = estimate_constants(F, base.space, n_sphere=200_000, seed=3, margin=0.0)
    ok_vals = abs(consts.r - 0.5) / 0.5 < 0.02 and abs(consts.R - 2 * math.sqrt(3)) / (2 * math.sqrt(3)) < 0.02
    rng = np.random.Generator(np.random.PCG64(14))
    sph = rng.normal(size=(1000, 3)) + 1j * rng.normal(size=(1000, 3))
    sph /= np.linalg.norm(sph, axis=1, keepdims=True)
    inner = basin_classify_batch(F, base, 0.0, 0.99 * consts.r * sph, constants=consts)
    outer = basin_classify_batch(F, base, 0.0, 1.01 * consts.R * sph, constants=consts)
    ok_cls = all(v == ATTRACTED for v in inner) and all(v == ESCAPES for v in outer)
    _report(
        11,
        "basin radii",
        ok_vals and ok_cls,
        f"r = {consts.r:.4f} (0.5 +/- 2%), R = {consts.R:.4f} (3.4641 +/- 2%); certificates decisive on both spheres",
    )


def test_c12_inverse_roundtrip():
    fam = quadratic_family(a=0.3)
    rng = np.random.Generator(np.random.PCG64(12))
    n = 10_000
    r = 1e3 * np.sqrt(rng.uniform(size=n))
    x = r * np.exp(2j * np.pi * rng.uniform(size=n))
    y = r * rng.uniform(size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
    fx, fy = eval_map(fam, 0.0, (x, y))
    bx, by = eval_inverse(fam, 0.0, (fx, fy))
    scale = np.maximum(np.hypot(np.abs(x), np.abs(y)), 1.0)
    err = float((np.hypot(np.abs(bx - x), np.abs(by - y)) / scale).max())
    ok = err < 1e-9
    _report(12, "inverse round-trip", ok, f"max relative error = {err:.2e} (< 1e-9)")
