import numpy as np
import pytest

import henonskew.convergence as conv_mod
import henonskew.green as green_mod
from conftest import theta_loop
from henonskew.base import BaseDynamics, BaseSpace, BaseSystem, FrozenSequence, ParamSequence
from henonskew.convergence import (
    ConvergenceReport,
    CutoffSpec,
    PotentialSpec,
    cutoff_limit_probe,
    pullback_convergence,
    rigidity_probe,
    theta_average_pullback,
)
from henonskew.errors import UnsupportedBase, ValidationError
from henonskew.expr import CoeffMap
from henonskew.family import HenonFactor, HenonFamily, quadratic_family
from henonskew.filtration import compute_radius
from henonskew.grids import SliceGrid, SliceSpec
from henonskew.orbit import SeqSupplier, iterate

U_FS = PotentialSpec("fubini-study")
U_LOG = PotentialSpec("log-plus")


def _grid(res=96, half=2.6):
    return SliceGrid.from_window(SliceSpec("x", 0j), (-half, half, -half, half), res)


def test_potential_values():
    u = PotentialSpec("fubini-study")
    assert u.eval_points(np.array([0j]), np.array([0j]))[0] == 0.0
    big = u.eval_lognorm(np.array([300.0]))[0]
    assert big == pytest.approx(300.0)
    v = PotentialSpec("smoothed-log", c=2.0)
    assert v.eval_points(np.array([0j]), np.array([0j]))[0] == pytest.approx(np.log(2.0))
    with pytest.raises(ValidationError):
        PotentialSpec("weird")


def test_pullback_matches_cauchy_tail(quad_fam, quad_flt):
    # u = log+ and a constant sequence: e_n is exactly the Green truncation gap
    seq = FrozenSequence(np.zeros(1, dtype=complex))
    rep = pullback_convergence(quad_fam, seq, U_LOG, _grid(64), n_max=10, tol=1e-8, flt=quad_flt)
    bounds = [quad_flt.tail_bound(n) for n in rep.depths]
    assert all(e <= b for e, b in zip(rep.errors, bounds))


def test_pullback_rate_fs(box_fam, two_letter_base):
    flt = compute_radius(box_fam, two_letter_base.space)
    seq = ParamSequence(two_letter_base.space, 99)
    rep = pullback_convergence(box_fam, seq, U_FS, _grid(), n_max=10, tol=1e-6, flt=flt)
    assert rep.masked_fraction < 0.05
    for i in range(2, len(rep.errors) - 1):  # e_n / e_(n+1) >= d/2 from n = 3
        assert rep.errors[i] / rep.errors[i + 1] >= 1.0
    assert rep.monotone_from() is not None


def test_pullback_depth_zero_gap_finite(quad_fam, quad_flt):
    # sup |u - G| is finite on the window (both have unit log growth)
    seq = FrozenSequence(np.zeros(1, dtype=complex))
    rep = pullback_convergence(quad_fam, seq, U_FS, _grid(48), n_max=1, tol=1e-6, flt=quad_flt)
    assert np.isfinite(rep.errors[0])


def test_fit_residual_pure_signal():
    depths = list(range(4, 13))
    errors = [3.0 * n * 2.0 ** -n for n in depths]
    rep = ConvergenceReport(depths, errors, 2, 0.0)
    assert rep.fit_a == pytest.approx(3.0)
    assert rep.residual_rel < 1e-12


def test_theta_constant_family_matches_pullback(quad_fam, quad_flt):
    space = BaseSpace("box", bounds=((-1.0, 1.0),))
    rep, floors = theta_average_pullback(quad_fam, space, U_FS, _grid(48), n_max=6, n_mc=4, seed=2, tol=1e-6, flt=quad_flt)
    seq = FrozenSequence(np.zeros(1, dtype=complex))
    direct = pullback_convergence(quad_fam, seq, U_FS, _grid(48), n_max=6, tol=1e-6, flt=quad_flt)
    np.testing.assert_allclose(rep.errors, direct.errors, rtol=1e-9, atol=1e-12)


def test_theta_two_letter_floor(box_fam, two_letter_base):
    flt = compute_radius(box_fam, two_letter_base.space)
    rep, floors = theta_average_pullback(
        box_fam, two_letter_base.space, U_FS, _grid(48), n_max=10, n_mc=24, seed=6, tol=1e-6, flt=flt
    )
    # errors decrease and end within a few noise floors
    assert rep.errors[0] > rep.errors[-1]
    assert rep.errors[-1] < 5 * max(floors[-1], 1e-12)


def test_rigidity_same_potential_zero(quad_fam, quad_flt):
    seq = FrozenSequence(np.zeros(1, dtype=complex))
    d = rigidity_probe(quad_fam, seq, U_FS, U_FS, _grid(48), 8, flt=quad_flt)
    assert d == 0.0


def test_rigidity_two_potentials_small(box_fam, two_letter_base):
    flt = compute_radius(box_fam, two_letter_base.space)
    seq = ParamSequence(two_letter_base.space, 4)
    d = rigidity_probe(box_fam, seq, U_LOG, U_FS, _grid(), 12, flt=flt)
    assert d < 1e-2


def test_rigidity_distinguishes_sequences(box_fam, two_letter_base):
    flt = compute_radius(box_fam, two_letter_base.space)
    grid = _grid(64)
    a = np.full(20, 0.1, dtype=complex)
    b = np.full(20, -0.1, dtype=complex)
    fa = pullback_convergence(box_fam, FrozenSequence(a), U_FS, grid, 10, 1e-6, flt)
    # limits along different fibers differ: compare the two depth-10 fields
    from henonskew.green import green_field_seq

    ga = green_field_seq(box_fam, FrozenSequence(a), grid, 1e-6, 200, flt)
    gb = green_field_seq(box_fam, FrozenSequence(b), grid, 1e-6, 200, flt)
    gap = np.abs(ga.values - gb.values).max()
    assert gap > 1e-2  # far above the pullback tolerance at depth 10
    assert fa.errors[-1] < gap / 10


def test_cutoff_probe_no_cutoff(quad_fam, single_base, quad_flt):
    rep = cutoff_limit_probe(
        quad_fam, single_base, 0.0, U_FS, CutoffSpec(None), _grid(96, half=quad_flt.R + 1), n_max=8, flt=quad_flt
    )
    assert rep.c_fit[-1] == pytest.approx(1.0, abs=0.05)
    assert rep.residuals[-1] < rep.residuals[0]
    assert rep.residuals[-1] < 0.05


def test_cutoff_probe_contraction_base():
    fam = quadratic_family(a=0.3, c="0.05*u")
    base = BaseSystem(BaseSpace("box", bounds=((-1.0, 1.0),)), BaseDynamics("contraction", c=0.5))
    flt = compute_radius(fam, base.space)
    rep = cutoff_limit_probe(
        fam, base, 0.8, U_FS, CutoffSpec(radius=2.0), _grid(96, half=flt.R + 1), n_max=9, flt=flt
    )
    # residual decreases until the cutoff fluctuation floor; c stays positive
    assert all(rep.residuals[i + 1] < rep.residuals[i] for i in range(4))
    assert rep.residuals[4] < 0.5 * rep.residuals[0]
    assert all(c > 0 for c in rep.c_fit)


def test_cutoff_probe_rejects_rotation(quad_fam, quad_flt):
    base = BaseSystem(BaseSpace("circle"), BaseDynamics("rotation", alpha=0.25))
    with pytest.raises(UnsupportedBase):
        cutoff_limit_probe(quad_fam, base, 0.0, U_FS, CutoffSpec(None), _grid(32), flt=quad_flt)


def test_rate_dominance(box_fam, two_letter_base):
    # e_n <= 1.5 * fitted_A * n * d^-n across the fitted window
    flt = compute_radius(box_fam, two_letter_base.space)
    seq = ParamSequence(two_letter_base.space, 99)
    rep = pullback_convergence(box_fam, seq, U_FS, _grid(128), n_max=12, tol=1e-6, flt=flt)
    window = ConvergenceReport(rep.depths[3:], rep.errors[3:], 2, rep.masked_fraction)
    for n, e in zip(window.depths, window.errors):
        assert e <= 1.5 * window.fit_a * n * 2.0 ** -n


LAM_A_FAMILY = HenonFamily((
    HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.parse("u")), CoeffMap.parse("0.2 + 0.5*u")),
    HenonFactor(2, (CoeffMap.constant(0.0), CoeffMap.constant(0.05)), CoeffMap.parse("0.3 - u")),
))


@pytest.mark.parametrize("space", [BaseSpace("box", bounds=((-0.1, 0.1),)), BaseSpace("finite", points=(-0.1 + 0j, 0.1 + 0j))],
                         ids=["box", "two-letter"])
@pytest.mark.parametrize("fam_name", ["box-family", "lam-a"])
def test_theta_matches_per_sequence_loop(fam_name, space, box_fam, monkeypatch):
    # 3-sequence chunks of a 12^2 grid, n_mc = 7: the last chunk is short
    monkeypatch.setattr(green_mod, "MC_CHUNK", 500)
    fam = box_fam if fam_name == "box-family" else LAM_A_FAMILY
    flt = compute_radius(fam, space)
    grid = _grid(12)
    rep, floors = theta_average_pullback(fam, space, U_FS, grid, n_max=6, n_mc=7, seed=5, tol=1e-6, flt=flt)
    errors, ref_floors = theta_loop(fam, space, U_FS, grid, 6, 7, 5, 1e-6, flt)
    assert rep.errors == errors and floors == ref_floors


@pytest.mark.parametrize("n_max", [0, -3])
def test_pullback_depths_below_one_are_rejected(n_max, box_fam, two_letter_base, monkeypatch):
    # rejected before the reference field is computed; without the check pullback_convergence died
    # in max() and theta_average_pullback returned empty lists
    def no_reference(*args, **kwargs):
        raise AssertionError("reference field computed")

    monkeypatch.setattr(conv_mod, "green_field_seq", no_reference)
    monkeypatch.setattr(conv_mod, "avg_green_field", no_reference)
    flt = compute_radius(box_fam, two_letter_base.space)
    seq = ParamSequence(two_letter_base.space, 1)
    with pytest.raises(ValidationError, match="n_max must be at least 1"):
        pullback_convergence(box_fam, seq, U_FS, _grid(8), n_max=n_max, flt=flt)
    with pytest.raises(ValidationError, match="n_max must be at least 1"):
        theta_average_pullback(box_fam, two_letter_base.space, U_FS, _grid(8), n_max=n_max, n_mc=3, flt=flt)


@pytest.mark.parametrize("n_mc", [0, 1])
def test_theta_needs_two_sequences(n_mc, box_fam, two_letter_base):
    flt = compute_radius(box_fam, two_letter_base.space)
    with pytest.raises(ValidationError):
        theta_average_pullback(box_fam, two_letter_base.space, U_FS, _grid(8), n_max=4, n_mc=n_mc, flt=flt)


def test_rigidity_one_orbit_matches_two(box_fam, two_letter_base):
    # both potentials are read off one orbit; the distance is that of two separate orbits
    flt = compute_radius(box_fam, two_letter_base.space)
    seq = ParamSequence(two_letter_base.space, 4)
    grid = _grid(40)
    d = rigidity_probe(box_fam, seq, U_LOG, U_FS, grid, 9, flt=flt)
    x, y = grid.points()
    (_, o1), = iterate(SeqSupplier(box_fam, seq, 9), x.ravel(), y.ravel(), [9])
    s1 = 2.0 ** -9 * U_LOG.eval_orbit(o1)
    (_, o2), = iterate(SeqSupplier(box_fam, seq, 9), x.ravel(), y.ravel(), [9])
    s2 = 2.0 ** -9 * U_FS.eval_orbit(o2)
    ref = green_mod.green_field_seq(box_fam, seq, grid, 1e-6, 200, flt)
    mask = (ref.status != green_mod.STATUS_UNDECIDED).ravel()
    assert d == float(np.abs(s1 - s2)[mask].max())


@pytest.mark.parametrize("case", ["quadratic", "two-letter", "c08"])
def test_rigidity_mask_from_the_decision_pass_equals_the_certified_mask(case, quad_fam, quad_flt, box_fam,
                                                                         two_letter_base, monkeypatch):
    """rigidity_probe reads its mask off a decision pass (tol = inf); on the
    families of the rigidity tests and on the c08 grid it equals the mask of
    the certified raster at tol = 1e-6."""
    space = two_letter_base.space
    fam, seq, grid, n_max, flt = {
        "quadratic": (quad_fam, FrozenSequence(np.zeros(1, dtype=complex)), _grid(48), 8, quad_flt),
        "two-letter": (box_fam, ParamSequence(space, 4), _grid(), 12, None),
        "c08": (box_fam, ParamSequence(space, 99), _grid(128), 12, None),
    }[case]
    flt = flt or compute_radius(box_fam, space)
    passes = []
    decide = green_mod.green_field_seq

    def spy(*args):
        passes.append((args[3], decide(*args)))
        return passes[-1][1]

    monkeypatch.setattr(conv_mod, "green_field_seq", spy)
    rigidity_probe(fam, seq, U_LOG, U_FS, grid, n_max, flt=flt)
    (tol, field), = passes
    certified = decide(fam, seq, grid, 1e-6, 200, flt)
    assert tol == np.inf
    assert np.array_equal(field.status != green_mod.STATUS_UNDECIDED, certified.status != green_mod.STATUS_UNDECIDED)


@pytest.mark.parametrize("kind, c", [("fubini-study", 1.0), ("smoothed-log", 1e-3), ("smoothed-log", 1.0),
                                     ("smoothed-log", 2.0), ("smoothed-log", 1e6)])
def test_eval_lognorm_equals_the_formula(kind, c):
    """The L > 20 + log max(c, 1) shortcut changes no value: bitwise equal
    to L + 1/2 log1p(c^2 e^(-2L)) on a dense grid around the threshold,
    far from it, and at inf and NaN."""
    u = PotentialSpec(kind, c)
    thr = 20.0 + np.log(max(c, 1.0))
    near = thr + np.linspace(-2.0, 2.0, 200_001)
    edge = np.array([np.nextafter(thr, -np.inf), thr, np.nextafter(thr, np.inf)])
    L = np.concatenate((near, edge, np.linspace(-50.0, 1e4, 50_001), [1e300, np.inf, np.nan, -np.inf]))
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        want = L + 0.5 * np.log1p(c * c * np.exp(-2.0 * L))
        got = u.eval_lognorm(L)
    assert np.array_equal(got, want, equal_nan=True)
    assert got is not L


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf, 0.0, -1.0])
@pytest.mark.parametrize("kind", ["smoothed-log", "fubini-study", "log-plus"])
def test_potential_needs_a_finite_positive_c(kind, c):
    with pytest.raises(ValidationError, match="finite c > 0"):
        PotentialSpec(kind, c)


@pytest.mark.parametrize("radius", [np.nan, -1.0, 0.0, np.inf, -np.inf])
def test_cutoff_radius_must_be_finite_and_positive(radius):
    with pytest.raises(ValidationError, match="cutoff radius"):
        CutoffSpec(radius)


def test_cutoff_radius_none_or_positive_is_accepted():
    assert CutoffSpec(None).radius is None and CutoffSpec(2.0).radius == 2.0


def _no_reference(*args, **kwargs):
    raise AssertionError("reference field computed")


@pytest.mark.parametrize("fam_name, first_bad", [("quadratic", 1001), ("cubic", 631), ("quartic", 501)])
def test_pullback_depths_that_overflow_are_rejected(fam_name, first_bad, two_letter_base, monkeypatch):
    """d^n_max > 2^1000 is a ValidationError before any reference field is
    computed; d^n_max <= 2^1000 reaches the reference field. Without the
    check, quadratic depths from 1024 on read inf or NaN."""
    factors = {"quadratic": (2,), "cubic": (3,), "quartic": (2, 2)}[fam_name]
    fam = HenonFamily(tuple(HenonFactor(k, (CoeffMap.constant(0.0),) * (k - 1) + (CoeffMap.parse("u"),),
                                        CoeffMap.constant(0.2)) for k in factors))
    monkeypatch.setattr(conv_mod, "green_field_seq", _no_reference)
    monkeypatch.setattr(conv_mod, "avg_green_field", _no_reference)
    space = two_letter_base.space
    flt = compute_radius(fam, space)
    seq = ParamSequence(space, 1)
    calls = {
        "converge": lambda n: pullback_convergence(fam, seq, U_FS, _grid(8), n_max=n, flt=flt),
        "theta": lambda n: theta_average_pullback(fam, space, U_FS, _grid(8), n_max=n, n_mc=3, flt=flt),
        "rigidity": lambda n: rigidity_probe(fam, seq, U_FS, U_LOG, _grid(8), n_max=n, flt=flt),
    }
    for call in calls.values():
        for n_max in (first_bad, first_bad + 99):
            with pytest.raises(ValidationError, match="2\\^1000"):
                call(n_max)
        with pytest.raises(AssertionError, match="reference field computed"):
            call(first_bad - 1)


def test_cutoff_probe_depths_that_overflow_are_rejected(quad_fam, single_base, quad_flt, monkeypatch):
    monkeypatch.setattr(conv_mod, "green_field", _no_reference)
    with pytest.raises(ValidationError, match="2\\^1000"):
        cutoff_limit_probe(quad_fam, single_base, 0.0, U_FS, CutoffSpec(None), _grid(8), n_max=1001, flt=quad_flt)
    with pytest.raises(AssertionError, match="reference field computed"):
        cutoff_limit_probe(quad_fam, single_base, 0.0, U_FS, CutoffSpec(None), _grid(8), n_max=1000, flt=quad_flt)
