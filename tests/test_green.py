import math
from fractions import Fraction

import numpy as np
import pytest

import henonskew.green as green_mod
from conftest import avg_green_field_loop, avg_green_loop, log_mask, mp_orbit_green, quad_factor_data
from henonskew.base import (
    BaseDynamics,
    BaseSpace,
    BaseSystem,
    FrozenSequence,
    ParamSequence,
    advance,
    point_base,
)
from henonskew.errors import NotInvertible, SurjectivityRequired, UnsupportedBase, ValidationError
from henonskew.expr import CoeffMap
from henonskew.family import HenonFactor, HenonFamily, eval_map, quadratic_family
from henonskew.filtration import compute_radius
from henonskew.green import (
    MCMoments,
    OrbitClass,
    _run_green,
    avg_green,
    avg_green_field,
    classify,
    depth_values,
    finite_depth_green,
    green_minus,
    green_minus_cal,
    green_minus_tilde,
    green_plus,
    green_random,
    green_field_seq,
    green_values,
    holder_estimate,
    pluri_green,
)
from henonskew.grids import SliceGrid, SliceSpec
from henonskew.orbit import SigmaSupplier, iterate

TOL = 1e-6


def test_fixed_point_bounded(quad_fam, single_base, quad_flt):
    g = green_plus(quad_fam, single_base, 0.0, (0j, 0j), TOL, flt=quad_flt)
    assert g.value == 0.0 and g.status == "bounded-certified"
    gm = green_minus(quad_fam, single_base, 0.0, (0j, 0j), TOL, flt=quad_flt)
    assert gm.value == 0.0 and gm.status == "bounded-certified"


def test_far_point_log_asymptotics(quad_fam, single_base, quad_flt):
    g = green_plus(quad_fam, single_base, 0.0, (0j, 1e3 + 0j), 1e-3, flt=quad_flt)
    assert g.status == "escaped-certified"
    oracle = mp_orbit_green(quad_factor_data(0.3), lambda n: 0.0, (0, 1e3), 25, 2)
    assert g.value == pytest.approx(oracle, abs=1e-3)
    assert g.value == pytest.approx(math.log(1e3), abs=1e-3)


def test_invariance_probe(quad_fam, single_base, quad_flt):
    z = (0.4 + 0.2j, 1.1 - 0.3j)
    g = green_plus(quad_fam, single_base, 0.0, z, TOL, flt=quad_flt)
    hz = eval_map(quad_fam, 0.0, z)
    gh = green_plus(quad_fam, single_base, 0.0, hz, TOL, flt=quad_flt)
    assert abs(2 * g.value - gh.value) < 2 * TOL + 2 * TOL


def test_err_bound_scales_by_degree(quad_fam, quad_flt):
    assert quad_flt.tail_bound(8) / quad_flt.tail_bound(9) == pytest.approx(2.0)


def test_green_minus_oracle(quad_fam, single_base, quad_flt):
    g = green_minus(quad_fam, single_base, 0.0, (1e3 + 0j, 0j), TOL, flt=quad_flt)
    oracle = mp_orbit_green(quad_factor_data(0.3), lambda n: 0.0, (1e3, 0), 30, 2, inverse=True)
    assert g.value == pytest.approx(oracle, abs=1e-5)
    # analytic recursion: log|x_(n+1)| = 2 log|x_n| + log(1/a) => G = log|x| + log(1/a)
    assert g.value == pytest.approx(math.log(1e3) + math.log(1 / 0.3), abs=1e-5)


def test_green_minus_order_matters_on_rotation():
    fam = HenonFamily(
        (HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.parse("u - 0.5")), CoeffMap.constant(0.3)),)
    )
    base = BaseSystem(BaseSpace("circle"), BaseDynamics("rotation", alpha=0.37))
    flt = compute_radius(fam, base.space)
    z = (2.0 + 0.5j, 0.2 + 0.1j)
    fwd = green_minus(fam, base, 0.3, z, TOL, flt=flt)
    cal = green_minus_cal(fam, base, 0.3, z, TOL, flt=flt)
    assert fwd.status == cal.status == "escaped-certified"
    assert abs(fwd.value - cal.value) > 5 * TOL  # the two orderings differ


def test_green_minus_cal_identity_equals_minus(quad_fam, single_base, quad_flt):
    z = (2.5 + 1j, -0.4 + 0.2j)
    a = green_minus(quad_fam, single_base, 0.0, z, TOL, flt=quad_flt)
    b = green_minus_cal(quad_fam, single_base, 0.0, z, TOL, flt=quad_flt)
    assert a.value == b.value


def test_green_minus_cal_invariance_rotation():
    fam = quadratic_family(a=0.25, c="0.05*u")
    base = BaseSystem(BaseSpace("circle"), BaseDynamics("rotation", alpha=0.31))
    flt = compute_radius(fam, base.space)
    lam = 0.2
    z = (1.9 - 0.3j, 0.7 + 0.4j)
    g_lam = green_minus_cal(fam, base, lam, z, TOL, flt=flt)
    hz = eval_map(fam, lam, z)
    g_next = green_minus_cal(fam, base, advance(base.sigma, lam, 1), hz, TOL, flt=flt)
    assert g_next.value == pytest.approx(g_lam.value / 2, abs=3 * TOL)


def test_green_minus_cal_matches_bruteforce_rotation():
    fam = quadratic_family(a=0.25, c="0.05*u")
    base = BaseSystem(BaseSpace("circle"), BaseDynamics("rotation", alpha=0.31))
    flt = compute_radius(fam, base.space)
    lam = 0.62
    z = (3.1 + 0j, 0.5 + 0.5j)
    got = green_minus_cal(fam, base, lam, z, 1e-9, flt=flt)

    def data(l):
        return [(2, [0.0, 0.05 * l.real if hasattr(l, "real") else 0.05 * l], 0.25)]

    oracle = mp_orbit_green(
        data, lambda n: advance(base.sigma, lam, -(n + 1)), (3.1, 0.5 + 0.5j), 25, 2, inverse=True
    )
    assert got.value == pytest.approx(oracle, abs=1e-7)


def test_green_minus_cal_requires_invertible(quad_fam):
    base = BaseSystem(BaseSpace("box", bounds=((0.0, 1.0),)), BaseDynamics("contraction", c=0.5))
    with pytest.raises(NotInvertible):
        green_minus_cal(quad_fam, base, 0.5, (1 + 0j, 1 + 0j))


def test_green_random_constant_sequence(quad_fam, single_base, quad_flt):
    z = (0.2 + 0.1j, 1.4 - 0.2j)
    seq = FrozenSequence(np.zeros(1, dtype=complex))
    a = green_random(quad_fam, seq, z, TOL, flt=quad_flt)
    b = green_plus(quad_fam, single_base, 0.0, z, TOL, flt=quad_flt)
    assert a.value == pytest.approx(b.value, abs=1e-12)


def test_green_random_leading_letter_invariance(box_fam, two_letter_base):
    """G along (lam, lam_1, lam_2, ...) at z is G along Lambda at H_lam(z), over d;
    the longer word is a plain array of the letter and Lambda's prefix."""
    flt = compute_radius(box_fam, two_letter_base.space)
    seq = ParamSequence(two_letter_base.space, 17)
    lam = -0.1 + 0j
    z = (0.6 + 0.2j, 1.2 + 0.1j)
    hz = eval_map(box_fam, lam, z)
    left = green_random(box_fam, seq, hz, TOL, flt=flt)
    right = green_random(box_fam, np.concatenate(([lam], seq.prefix(199))), z, TOL, flt=flt)
    assert left.value == pytest.approx(2 * right.value, abs=3 * TOL)


@pytest.mark.parametrize("z", [(3.0 + 0j, 0.1 + 0j), (0.2 + 0.1j, -0.3j), (1.1 - 0.4j, 2.0 + 0.5j)])
def test_green_random_inverse_equals_green_minus(z):
    """Along the word sigma^k(lam), k < 200, of a contraction base, the
    backward green_random is green_minus, bit for bit."""
    fam = quadratic_family(a=0.3, c="0.2*u")
    base = BaseSystem(BaseSpace("box", bounds=((-1.0, 1.0),)), BaseDynamics("contraction", c=0.5))
    flt = compute_radius(fam, base.space)
    lam = 0.8 + 0j
    word = np.array([advance(base.sigma, lam, k) for k in range(200)])
    assert green_random(fam, word, z, TOL, flt=flt, inverse=True) == green_minus(fam, base, lam, z, TOL, flt=flt)


def test_green_random_word_matches_mpmath(box_fam, two_letter_base):
    flt = compute_radius(box_fam, two_letter_base.space)
    word = np.array([0.1, -0.1, 0.1, 0.1, -0.1, -0.1, 0.1, -0.1, 0.1, 0.1, -0.1, 0.1], dtype=complex)
    z = (0.0, 2.0 + 0j)
    got = green_random(box_fam, FrozenSequence(word), z, 1e-10, flt=flt)
    oracle = mp_orbit_green(
        quad_factor_data(0.2, c=lambda l: complex(l).real),
        lambda n: word[n % 12] if n < 12 else word[n % 12],
        z,
        30,
        2,
    )
    assert got.value == pytest.approx(oracle, abs=1e-9)


def test_avg_green_constant_family(quad_fam, quad_flt):
    space = BaseSpace("box", bounds=((-1.0, 1.0),))
    val, se = avg_green(quad_fam, space, (0j, 1.7 + 0j), TOL, n_mc=16, seed=4, flt=None)
    ref = green_plus(quad_fam, point_base(0.0), 0.0, (0j, 1.7 + 0j), TOL, flt=quad_flt)
    assert val == pytest.approx(ref.value, abs=1e-9)
    assert se < 1e-12


def test_avg_green_far_point(box_fam, two_letter_base):
    flt = compute_radius(box_fam, two_letter_base.space)
    val, se = avg_green(box_fam, two_letter_base.space, (0j, 1e6 + 0j), 1e-4, n_mc=8, seed=1, flt=flt)
    assert val == pytest.approx(math.log(1e6), abs=1e-3)


def test_avg_green_within_log_bound(box_fam, two_letter_base):
    flt = compute_radius(box_fam, two_letter_base.space)
    rng = np.random.Generator(np.random.PCG64(12))
    for _ in range(5):
        z = (rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2), rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2))
        val, _ = avg_green(box_fam, two_letter_base.space, z, 1e-4, n_mc=8, seed=2, flt=flt)
        bound = max(0.0, math.log(math.hypot(abs(z[0]), abs(z[1])))) + flt.K * 2
        assert 0.0 <= val <= bound


def test_pluri_green(quad_fam, single_base, quad_flt):
    assert pluri_green(quad_fam, single_base, 0.0, (0j, 0j), flt=quad_flt) == 0.0
    z = (0j, 1e3 + 0j)
    gp = green_plus(quad_fam, single_base, 0.0, z, TOL, flt=quad_flt)
    gm = green_minus(quad_fam, single_base, 0.0, z, TOL, flt=quad_flt)
    pg = pluri_green(quad_fam, single_base, 0.0, z, TOL, flt=quad_flt)
    assert pg == max(gp.value, gm.value)


def test_pluri_green_dominates_components(quad_fam, single_base, quad_flt):
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(25):
        z = (rng.uniform(-3, 3) + 1j * rng.uniform(-1, 1), rng.uniform(-3, 3) + 1j * rng.uniform(-1, 1))
        pg = pluri_green(quad_fam, single_base, 0.0, z, TOL, flt=quad_flt)
        gp = green_plus(quad_fam, single_base, 0.0, z, TOL, flt=quad_flt).value
        gm = green_minus(quad_fam, single_base, 0.0, z, TOL, flt=quad_flt).value
        assert pg >= gp - 1e-15 and pg >= gm - 1e-15


def test_classify(quad_fam, single_base, quad_flt):
    R = quad_flt.R
    assert classify(quad_fam, single_base, 0.0, (0j, 0j), flt=quad_flt).kind == "bounded"
    esc = classify(quad_fam, single_base, 0.0, (0j, R + 1 + 0j), flt=quad_flt)
    assert esc.kind == "escaped-forward" and esc.depth <= 3
    bwd = classify(quad_fam, single_base, 0.0, (R + 1 + 0j, 0j), flt=quad_flt)
    assert bwd.kind in ("escaped-forward", "escaped-backward")
    # a non-finite start is never bounded
    assert classify(quad_fam, single_base, 0.0, (np.nan + 0j, 0j), 5, quad_flt) == OrbitClass("undecided", 5)


def test_vanishing_iff_bounded(quad_fam, single_base, quad_flt):
    rng = np.random.Generator(np.random.PCG64(31))
    n = 200
    x = rng.uniform(-2.5, 2.5, n) + 1j * rng.uniform(-1, 1, n)
    y = rng.uniform(-2.5, 2.5, n) + 1j * rng.uniform(-1, 1, n)
    v, s, _ = green_values(quad_fam, single_base, 0.0, x, y, TOL, 200, quad_flt)
    from henonskew.green import STATUS_BOUNDED, STATUS_ESCAPED

    assert np.all((v == 0.0) == (s == STATUS_BOUNDED))
    assert np.all(v[s == STATUS_ESCAPED] > 0)


def test_cauchy_rate_bound(quad_fam, single_base, quad_flt):
    # |G_(n+1) - G_n| d^n stays below the derived constant on V_R u V_R^+
    z = (0.1 + 0.1j, 1.21 + 0.4j)
    depths = list(range(1, 22))
    vals = depth_values(quad_fam, single_base.sigma, 0.0, z, depths)
    diffs = np.abs(np.diff(vals))
    bound = quad_flt.K * 2.0 ** -np.array(depths[:-1], dtype=float)
    assert np.all(diffs <= bound + 1e-15)


def test_log_asymptotic_doubling(quad_fam, single_base, quad_flt):
    # G(0, y) - log|y| -> 0 along |y| = 1e3 * 2^k
    gaps = []
    for k in range(4):
        mag = 1e3 * 2 ** k
        g = green_plus(quad_fam, single_base, 0.0, (0j, mag + 0j), 1e-9, flt=quad_flt)
        gaps.append(abs(g.value - math.log(mag)))
    assert gaps[-1] < gaps[0] and gaps[-1] < 1e-6


def test_green_minus_tilde_identity_matches_minus(quad_fam, single_base, quad_flt):
    # with identity sigma all orderings coincide
    z = (2.7 + 0.1j, 0.3 - 0.2j)
    a = green_minus(quad_fam, single_base, 0.0, z, 1e-8, flt=quad_flt)
    b = green_minus_tilde(quad_fam, single_base, 0.0, z, 1e-8)
    assert b.value == pytest.approx(a.value, abs=1e-6)


def test_green_minus_tilde_contraction_converges():
    fam = quadratic_family(a=0.3, c="0.1*u")
    base = BaseSystem(BaseSpace("box", bounds=((-1.0, 1.0),)), BaseDynamics("contraction", c=0.5))
    g = green_minus_tilde(fam, base, 0.8, (3.0 + 0j, 0.1 + 0j), 1e-7)
    assert g.status == "converged"
    assert g.value > 0


def test_green_minus_tilde_rejects_negative_depth(quad_fam, single_base):
    # without the check n_max = -3 gave GreenEval(0.0, depth=-3, status='undecided')
    with pytest.raises(ValidationError, match="at least 0"):
        green_minus_tilde(quad_fam, single_base, 0.0, (2.7 + 0.1j, 0.3 - 0.2j), n_max=-3)
    assert green_minus_tilde(quad_fam, single_base, 0.0, (2.7 + 0.1j, 0.3 - 0.2j), n_max=0).depth == 0


def test_shift_base_routed_to_sequences(quad_fam):
    base = BaseSystem(BaseSpace("finite", points=(0j,)), BaseDynamics("shift"))
    with pytest.raises(UnsupportedBase):
        green_plus(quad_fam, base, 0.0, (0j, 0j))


def test_holder_estimate(quad_fam, single_base, quad_flt):
    beta, c_emp, l_emp = holder_estimate(quad_fam, single_base, 0.0, (0j, 0j, 3.0), n_pairs=256, seed=6, flt=quad_flt)
    assert 0 < beta <= 1.0
    assert np.isfinite(c_emp) and c_emp >= 0
    beta2, c2, l2 = holder_estimate(quad_fam, single_base, 0.0, (0j, 0j, 6.0), n_pairs=256, seed=6, flt=quad_flt)
    assert l2 >= l_emp  # operator norm grows with the region


def test_holder_requires_surjective(quad_fam):
    base = BaseSystem(BaseSpace("box", bounds=((-1.0, 1.0),)), BaseDynamics("contraction", c=0.5))
    with pytest.raises(SurjectivityRequired):
        holder_estimate(quad_fam, base, 0.0, (0j, 0j, 2.0))


def test_holder_coincident_pair_ratio_zero(quad_fam, single_base, quad_flt):
    z = (0.3 + 0j, 0.4 + 0j)
    g1, _, _ = green_values(quad_fam, single_base, 0.0, np.array([z[0]]), np.array([z[1]]), TOL, 200, quad_flt)
    g2, _, _ = green_values(quad_fam, single_base, 0.0, np.array([z[0]]), np.array([z[1]]), TOL, 200, quad_flt)
    assert abs(g1[0] - g2[0]) == 0.0


def test_avg_green_subharmonicity_proxy(box_fam, two_letter_base):
    # The Monte-Carlo mean of certified Green values is a mean of exact
    # plurisubharmonic functions, so its discrete slice Laplacian can dip
    # below zero only by scheme truncation. The truncation estimate is
    # read off a refined grid; eps_grid = 10 x max(stencil noise, that).
    from henonskew.currents import laplacian_density
    from henonskew.green import avg_green_field
    from henonskew.grids import SliceGrid, SliceSpec

    flt = compute_radius(box_fam, two_letter_base.space)
    tol = 1e-6
    mins, negfrac = {}, {}
    for res in (96, 192):
        grid = SliceGrid.from_window(SliceSpec("x", 0j), (-3.3, 3.3, -3.3, 3.3), res)
        field, _ = avg_green_field(box_fam, two_letter_base.space, grid, tol, n_mc=16, seed=9, flt=flt)
        den = laplacian_density(field.values, grid.dx, grid.dy)
        mins[res] = float(den.min())
        negfrac[res] = float(-den[den < 0].sum() / den[den > 0].sum())
    eps_grid = 10.0 * max(8 * tol, abs(mins[192]))
    assert mins[96] >= -eps_grid
    assert negfrac[96] < 0.01  # negative mass is a sub-percent artifact
    assert abs(mins[192]) < abs(mins[96])  # and it shrinks under refinement


# ---------------------------------------------------------------------------
# the batched Monte-Carlo averages against the per-sequence loops in conftest

# two factors: lam-dependent coefficients in the first, constant
# coefficients with a lam-dependent Jacobian in the second
LAM_A_FAMILY = HenonFamily((
    HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.parse("u")), CoeffMap.parse("0.2 + 0.5*u")),
    HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.constant(0.05)), CoeffMap.parse("0.3 - u")),
))
MC_SPACES = {
    "box": BaseSpace("box", bounds=((-0.1, 0.1),)),
    "two-letter": BaseSpace("finite", points=(-0.1 + 0j, 0.1 + 0j)),
}
MC_WINDOWS = {
    "julia": (-3.3, 3.3, -3.3, 3.3),
    "all-bounded": (-0.4, 0.4, -0.4, 0.4),
    "log-form-start": (-3e20, 3e20, -3e20, 3e20),
}


def _mc_family(name, box_fam):
    return box_fam if name == "box-family" else LAM_A_FAMILY


@pytest.mark.parametrize("window", MC_WINDOWS)
@pytest.mark.parametrize("space_name", MC_SPACES)
@pytest.mark.parametrize("fam_name", ["box-family", "lam-a"])
def test_avg_green_field_matches_per_sequence_loop(fam_name, space_name, window, box_fam, monkeypatch):
    # a 500-point budget makes 3-sequence chunks of a 12^2 grid, so n_mc = 7 ends
    # on a short chunk, and an all-bounded window's pool (432 points a chunk)
    # exceeds the budget and runs in pieces
    monkeypatch.setattr(green_mod, "MC_CHUNK", 500)
    fam, space = _mc_family(fam_name, box_fam), MC_SPACES[space_name]
    flt = compute_radius(fam, space)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), MC_WINDOWS[window], 12)
    field, stderr = avg_green_field(fam, space, grid, TOL, n_mc=7, seed=3, flt=flt)
    mean, se, status, depth = avg_green_field_loop(fam, space, grid, TOL, 7, 3, 200, flt)
    assert np.array_equal(field.values, mean) and np.array_equal(stderr, se)
    assert np.array_equal(field.status, status) and np.array_equal(field.depth, depth)
    if window == "all-bounded":
        assert np.all(field.depth == 200) and np.all(field.values == 0.0)
    if window == "log-form-start":
        assert np.abs(grid.points()[1]).max() > 1e20 and np.all(field.depth < 5)


@pytest.mark.parametrize("space_name", MC_SPACES)
def test_avg_green_field_short_depth_matches_loop(space_name, box_fam, monkeypatch):
    # n_max below depth_for(tol): wedge points left at n_max are undecided
    monkeypatch.setattr(green_mod, "MC_CHUNK", 500)
    space = MC_SPACES[space_name]
    flt = compute_radius(box_fam, space)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), MC_WINDOWS["julia"], 12)
    field, stderr = avg_green_field(box_fam, space, grid, TOL, n_mc=7, seed=3, n_max=6, flt=flt)
    mean, se, status, depth = avg_green_field_loop(box_fam, space, grid, TOL, 7, 3, 6, flt)
    assert field.undecided and not np.all(field.status == green_mod.STATUS_UNDECIDED)
    assert np.array_equal(field.values, mean) and np.array_equal(stderr, se)
    assert np.array_equal(field.status, status) and np.array_equal(field.depth, depth)


@pytest.mark.parametrize("space_name", MC_SPACES)
def test_avg_green_field_matches_loop_at_full_budget(space_name, box_fam):
    # at the module's budget a 50^2 grid takes several sequences a chunk, and n_mc = 7 ends on a short chunk
    space = MC_SPACES[space_name]
    flt = compute_radius(box_fam, space)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), MC_WINDOWS["julia"], 50)
    rows = green_mod.MC_CHUNK // (grid.nx * grid.ny)
    assert 1 < rows < 7 and 7 % rows
    field, stderr = avg_green_field(box_fam, space, grid, TOL, n_mc=7, seed=11, flt=flt)
    mean, se, status, depth = avg_green_field_loop(box_fam, space, grid, TOL, 7, 11, 200, flt)
    assert np.array_equal(field.values, mean) and np.array_equal(stderr, se)
    assert np.array_equal(field.status, status) and np.array_equal(field.depth, depth)


@pytest.mark.parametrize("fam_name", ["box-family", "lam-a"])
def test_avg_green_field_threads_match_single_thread(fam_name, box_fam, monkeypatch):
    monkeypatch.setattr(green_mod, "MC_CHUNK", 500)
    monkeypatch.setattr(green_mod, "PIECE", 500)  # 5 x 15^2 points: two threads start
    fam, space = _mc_family(fam_name, box_fam), MC_SPACES["box"]
    flt = compute_radius(fam, space)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), MC_WINDOWS["julia"], 15)
    one, se1 = avg_green_field(fam, space, grid, TOL, n_mc=5, seed=2, flt=flt, threads=1)
    two, se2 = avg_green_field(fam, space, grid, TOL, n_mc=5, seed=2, flt=flt, threads=2)
    assert np.array_equal(one.values, two.values) and np.array_equal(se1, se2)
    assert np.array_equal(one.status, two.status) and np.array_equal(one.depth, two.depth)


@pytest.mark.parametrize("space_name", MC_SPACES)
@pytest.mark.parametrize("fam_name", ["box-family", "lam-a"])
def test_avg_green_matches_green_random_loop(fam_name, space_name, box_fam):
    fam, space = _mc_family(fam_name, box_fam), MC_SPACES[space_name]
    flt = compute_radius(fam, space)
    for z in ((0j, 1.7 + 0j), (0.3j, 0.2 - 0.1j), (0j, 5e20 + 0j)):
        assert avg_green(fam, space, z, TOL, n_mc=9, seed=4, flt=flt) == avg_green_loop(fam, space, z, TOL, 9, 4, 200, flt)


@pytest.mark.parametrize("n_mc", [-1, 0, 1])
def test_monte_carlo_needs_two_sequences(n_mc, box_fam, two_letter_base):
    # with fewer than two sequences there is no standard error to report
    flt = compute_radius(box_fam, two_letter_base.space)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), MC_WINDOWS["julia"], 8)
    with pytest.raises(ValidationError):
        avg_green_field(box_fam, two_letter_base.space, grid, TOL, n_mc=n_mc, flt=flt)
    with pytest.raises(ValidationError):
        avg_green(box_fam, two_letter_base.space, (0j, 1.7 + 0j), TOL, n_mc=n_mc, flt=flt)


# the benchmark's family shape: c = 0.005 + u over a box base
ORACLE_FAMILY = HenonFamily(
    (HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.parse("0.005 + u")), CoeffMap.constant(0.2)),)
)
ORACLE_WINDOWS = {
    "julia": (-3.3, 3.3, -3.3, 3.3),
    "re-y-100-200": (100.0, 200.0, -50.0, 50.0),
    "re-y-1e4-2e4": (1e4, 2e4, -5e3, 5e3),
    "re-y-1e6": (1e6, 1.1e6, -1e5, 1e5),
}


def _exact_mean_stderr(samples):
    """Mean and standard error of the mean of float samples in exact rational arithmetic."""
    f = [Fraction(float(v)) for v in samples]
    n = len(f)
    mean = sum(f) / n
    return float(mean), math.sqrt(sum((v - mean) ** 2 for v in f) / (n - 1) / n)


@pytest.mark.parametrize("window", ORACLE_WINDOWS)
def test_avg_green_field_stderr_matches_exact_two_pass(window):
    # far from K^+ the 24 samples agree to 11-15 digits; a one-pass
    # sum-of-squares variance loses them all there (reads 0 or is off by 3 %)
    space = BaseSpace("box", bounds=((-0.1, 0.1),))
    flt = compute_radius(ORACLE_FAMILY, space)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), ORACLE_WINDOWS[window], 16)
    field, stderr = avg_green_field(ORACLE_FAMILY, space, grid, TOL, n_mc=24, seed=7, flt=flt)
    root = ParamSequence(space, 7)
    rows = np.array([green_field_seq(ORACLE_FAMILY, root.spawn(i), grid, TOL, 200, flt).values.ravel()
                     for i in range(24)])
    mean, se = np.array([_exact_mean_stderr(col) for col in rows.T]).T.reshape(2, grid.ny, grid.nx)
    assert np.all(np.abs(field.values - mean) <= 1e-14 * mean)
    assert np.array_equal(stderr == 0, se == 0)
    nz = se > 0
    assert np.all(np.abs(stderr - se)[nz] <= 1e-13 * se[nz])
    if window != "julia":
        assert nz.all() and se.max() < 1e-6


def test_avg_green_equals_its_raster_pixel():
    # one reduction: the point average and the raster agree bit for bit, here at |y| ~ 1e6
    space = BaseSpace("box", bounds=((-0.1, 0.1),))
    flt = compute_radius(ORACLE_FAMILY, space)
    grid = SliceGrid.from_window(SliceSpec("x", 0j), ORACLE_WINDOWS["re-y-1e6"], 16)
    field, stderr = avg_green_field(ORACLE_FAMILY, space, grid, TOL, n_mc=24, seed=7, flt=flt)
    _, y = grid.points()
    for p in [(0, 0), (7, 9), (15, 15)]:
        assert abs(y[p]) > 1e6
        point = avg_green(ORACLE_FAMILY, space, (0j, complex(y[p])), TOL, n_mc=24, seed=7, flt=flt)
        assert point == (field.values[p], stderr[p])


def test_mc_moments_mean_is_the_sequence_order_sum():
    rng = np.random.default_rng(3)
    rows = rng.normal(5.0, 1e-9, (24, 3, 4))
    rows[:, 0, 0] = 2.5  # equal samples: no spread at all
    m = MCMoments.of(rows)
    total = np.zeros((3, 4))
    for r in rows:
        total += r
    assert np.array_equal(m.mean(), total / 24)
    assert m.stderr()[0, 0] == 0.0 and np.all(m.stderr().ravel()[1:] > 0)
    scalar = MCMoments.of(float(v) for v in rows[:, 1, 2])
    assert float(scalar.mean()) == m.mean()[1, 2] and float(scalar.stderr()) == m.stderr()[1, 2]


def test_green_random_short_sequence_fails_only_past_its_end(box_fam, two_letter_base):
    flt = compute_radius(box_fam, two_letter_base.space)
    word = np.full(6, 0.1 + 0j)
    far = green_random(box_fam, word, (0j, 1e3 + 0j), TOL, flt=flt)
    assert far.status == "escaped-certified" and far.depth <= 6
    with pytest.raises(ValidationError):
        green_random(box_fam, word, (0j, 0j), TOL, flt=flt)


# ---------------------------------------------------------------------------
# points left at n_max below the certifying depth

HENON_A, HENON_C = 0.3, -1.5


@pytest.mark.parametrize(
    "inverse, z",
    [(False, (0j, 0.9537134283570893 + 0j)), (True, (1.02 + 0j, 0j))],
    ids=["forward", "backward"],
)
def test_bounded_value_at_short_depth_covers_the_true_value(inverse, z):
    """At n_max = 5 the point is reported bounded with value 0; its error
    bound must cover the value certified at n_max = 200."""
    fam = quadratic_family(HENON_A, HENON_C)
    base = point_base(0.0)
    green = green_minus if inverse else green_plus
    short = green(fam, base, 0.0, z, TOL, n_max=5)
    full = green(fam, base, 0.0, z, TOL, n_max=200)
    assert short.status == "bounded-certified" and short.value == 0.0
    assert full.status == "escaped-certified" and full.value > TOL
    assert full.value <= short.err_bound


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "backward"])
def test_bounded_points_lie_in_the_bidisc_and_bound_their_values(inverse):
    fam = quadratic_family(HENON_A, HENON_C)
    base = point_base(0.0)
    flt = compute_radius(fam, base.space)
    t = np.linspace(-2.0, 2.0, 401).astype(complex)
    x, y = (t, np.zeros_like(t)) if inverse else (np.zeros_like(t), t)
    sup = SigmaSupplier(fam, base.sigma, 0.0)
    for n_max in (0, 1, 3, 5, 8):
        v, s, _, e = _run_green(sup, x, y, flt, TOL, n_max, inverse)
        ref, ref_s, _, ref_e = _run_green(sup, x, y, flt, TOL, 200, inverse)
        assert np.all(ref_s != green_mod.STATUS_UNDECIDED)
        bounded = s == green_mod.STATUS_BOUNDED
        assert np.all(v[bounded] == 0.0)
        assert np.all(ref[bounded] <= e[bounded] + ref_e[bounded]), n_max
        # "bounded" means z_(n_max) is in V_R, not merely outside the wedge
        (_, orbit), = iterate(sup, x, y, [n_max], inverse)
        in_box = np.maximum(np.abs(orbit.x), np.abs(orbit.y)) <= flt.R
        assert np.array_equal(bounded, in_box & ~log_mask(orbit)), n_max


def test_overflowing_orbits_are_undecided_without_warnings():
    """Backward steps from |y| near 1e307 with |a| = 0.05 overflow; start
    points with an infinite coordinate enter log form as NaN. Those points
    are undecided, and the engine loops raise no floating-point warning."""
    import warnings

    fam, base = quadratic_family(a=0.05), point_base(0.0)
    rng = np.random.Generator(np.random.PCG64(3))
    m = 256
    x = rng.uniform(-3, 3, m) + 1j * rng.uniform(-3, 3, m)
    y = rng.uniform(-1e307, 1e307, m) + 1j * rng.uniform(-1e307, 1e307, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, status, _ = green_values(fam, base, np.zeros(m), x, y, 1e-3, 100, inverse=True)
        steps = [(n, log_mask(o)) for n, o in iterate(SigmaSupplier(fam, base.sigma, 0.0), x, y, [1, 5], True)]
        g_inf, s_inf, _ = green_values(fam, base, np.zeros(2), np.array([np.inf, 1.0]), np.array([np.inf, 1e300]),
                                       1e-3, 10)
    undecided = status == green_mod.STATUS_UNDECIDED
    assert 0 < undecided.sum() < m
    assert np.all(np.isfinite(g[~undecided]))
    assert [n for n, _ in steps] == [1, 5] and steps[0][1].any()
    assert s_inf[0] == green_mod.STATUS_UNDECIDED and s_inf[1] == green_mod.STATUS_ESCAPED and np.isfinite(g_inf[1])


# -- point arrays that do not match are rejected -------------------------------------------


def _u_family():
    return quadratic_family(a=0.3, c="0.1*u")


def _box_base():
    return BaseSystem(BaseSpace("box", bounds=((-0.5, 0.5),)), BaseDynamics("identity"))


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("lam", [0.1, np.zeros(0)], ids=["shared", "per-point"])
def test_green_values_on_no_points(lam, inverse):
    """No points: empty values, statuses and depths, of the types one point gets."""
    out = green_values(_u_family(), _box_base(), lam, np.zeros(0), np.zeros(0), inverse=inverse)
    one = green_values(_u_family(), _box_base(), 0.1, np.zeros(1), np.zeros(1), inverse=inverse)
    assert [(v.shape, v.dtype) for v in out] == [((0,), w.dtype) for w in one]


@pytest.mark.parametrize("nx, ny", [(3, 1), (2, 3)])
def test_green_values_rejects_points_of_unequal_lengths(nx, ny):
    # the parent broadcast a length-1 y over 3 x, and gave 2 values for lengths 2 and 3
    with pytest.raises(ValidationError, match="do not match"):
        green_values(_u_family(), _box_base(), 0.1, np.zeros(nx, dtype=complex), np.ones(ny, dtype=complex))


@pytest.mark.parametrize("lam", [np.full(4, 0.1), np.full(2, 0.1), np.full((3, 1), 0.1)], ids=["4", "2", "3x1"])
def test_green_values_rejects_lam_not_one_per_point(lam):
    # the parent read a length-4 lam as its first 3 entries and raised numpy's IndexError for the others
    with pytest.raises(ValidationError, match="do not match"):
        green_values(_u_family(), _box_base(), lam, np.zeros(3, dtype=complex), np.ones(3, dtype=complex))


@pytest.mark.parametrize("nx, ny", [(3, 1), (2, 3)])
def test_finite_depth_green_rejects_points_of_unequal_lengths(nx, ny):
    # the parent broadcast a length-1 y over 3 x, and raised numpy's broadcast ValueError for lengths 2 and 3
    words = np.array([[0.1, -0.2], [0.3, 0.0]], dtype=complex)
    with pytest.raises(ValidationError, match="not 1-d of one length"):
        finite_depth_green(_u_family(), words, np.zeros(nx, dtype=complex), np.ones(ny, dtype=complex), 2)


@pytest.mark.parametrize("words", [[0.1, 0.2], 0.1, [[[0.1, 0.2]]]], ids=["1-d", "0-d", "3-d"])
def test_finite_depth_green_rejects_words_that_are_not_2d(words):
    # the parent raised numpy's IndexError from TableSupplier.coeffs for a flat row of words
    x = np.array([0.5, 1.0, 2.0], dtype=complex)
    with pytest.raises(ValidationError, match="shape"):
        finite_depth_green(quadratic_family(a=0.3, c="0.1*u"), np.asarray(words, dtype=complex), x, x, 2)
