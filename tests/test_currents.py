import numpy as np
import pytest

import henonskew.green as green_mod
from conftest import avg_current_slice_loop
from henonskew.base import BaseSpace
from henonskew.currents import (
    _dilate,
    avg_current_slice,
    julia_raster,
    laplacian_density,
    off_band_fraction,
    slice_measure,
    transition_band,
)
from henonskew.errors import UndecidedCells
from henonskew.filtration import compute_radius
from henonskew.green import STATUS_BOUNDED, STATUS_ESCAPED, green_field
from henonskew.grids import SliceGrid, SliceSpec

TWO_PI = 2 * np.pi


def _grid(window, res, spec=None):
    return SliceGrid.from_window(spec or SliceSpec("x", 0j), window, res)


def test_harmonic_potential_zero_mass():
    # log|y| on an annulus-avoiding window (no zero of y inside)
    grid = _grid((1.0, 3.0, 1.0, 3.0), 128)
    w = grid.centers()
    vals = np.log(np.abs(w))
    m = slice_measure(grid.with_data(vals))
    assert abs(m.total_mass) < 1e-3  # discretization-level, vs 2*pi for a charge


def test_log_plus_unit_circle_mass():
    grid = _grid((-3.0, 3.0, -3.0, 3.0), 512)
    w = grid.centers()
    vals = np.maximum(np.log(np.abs(w)), 0.0)
    m = slice_measure(grid.with_data(vals))
    assert m.total_mass == pytest.approx(TWO_PI, rel=0.02)
    assert m.normalize().total_mass == pytest.approx(1.0, rel=0.02)


def test_laplacian_linearity():
    rng = np.random.Generator(np.random.PCG64(2))
    u = rng.normal(size=(16, 16))
    v = rng.normal(size=(16, 16))
    a, b = 1.7, -0.4
    lhs = laplacian_density(a * u + b * v, 0.1, 0.2)
    rhs = a * laplacian_density(u, 0.1, 0.2) + b * laplacian_density(v, 0.1, 0.2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_green_slice_mass_and_refinement(quad_fam, single_base, quad_flt):
    R = quad_flt.R
    window = (-(R + 1), R + 1, -(R + 1), R + 1)
    devs = []
    for res in (256, 512):
        f = green_field(quad_fam, single_base, 0.0, _grid(window, res), 1e-6, 200, quad_flt)
        m = slice_measure(f)
        devs.append(abs(m.total_mass - TWO_PI))
        assert m.total_mass == pytest.approx(TWO_PI, rel=0.02)
    assert devs[1] <= devs[0]


def test_harmonicity_off_band(quad_fam, single_base, quad_flt):
    R = quad_flt.R
    f = green_field(quad_fam, single_base, 0.0, _grid((-(R + 1), R + 1, -(R + 1), R + 1), 512), 1e-6, 200, quad_flt)
    m = slice_measure(f)
    assert off_band_fraction(m, f.status, width=5) < 0.01


def test_undecided_cells_rejected(quad_fam, single_base, quad_flt):
    grid = _grid((-3.3, 3.3, -3.3, 3.3), 32)
    f = green_field(quad_fam, single_base, 0.0, grid, 1e-12, 8, quad_flt)  # too shallow to certify
    assert f.undecided > 0
    with pytest.raises(UndecidedCells):
        slice_measure(f)


def test_julia_raster_structure(quad_fam, single_base, quad_flt):
    R = quad_flt.R
    jr = julia_raster(green_field(quad_fam, single_base, 0.0, _grid((-(R + 1), R + 1, -(R + 1), R + 1), 256), 1e-6, 200, quad_flt))
    # all three classes present, and the J band carries nearly all mass
    assert set(np.unique(jr.codes)) == {0, 1, 2}
    band = jr.band[1:-1, 1:-1]
    frac = np.abs(jr.measure.density)[band].sum() / np.abs(jr.measure.density).sum()
    assert frac >= 0.99


def test_julia_raster_all_escaped_window(quad_fam, single_base, quad_flt):
    R = quad_flt.R
    jr = julia_raster(green_field(quad_fam, single_base, 0.0, _grid((R + 2, R + 6, R + 2, R + 6), 32), 1e-6, 200, quad_flt))
    assert np.all(jr.field.status == STATUS_ESCAPED)
    assert np.all(jr.codes == 2)


def test_transition_band_shape():
    status = np.full((9, 9), STATUS_BOUNDED, dtype=np.uint8)
    status[:, 5:] = STATUS_ESCAPED
    band = transition_band(status, width=2)
    assert band[:, 4].all() and band[:, 5].all()
    assert not band[:, 0].any() and not band[:, 8].any()


@pytest.mark.parametrize("iterations", range(5))
def test_dilate_is_chebyshev(iterations):
    """_dilate marks exactly the pixels within Chebyshev distance
    `iterations` of a marked pixel, the rest of the raster clipped off."""
    rng = np.random.Generator(np.random.PCG64(8))
    for shape in ((13, 17), (1, 9), (6, 1)):
        mask = rng.uniform(size=shape) < 0.05
        i, j = np.indices(shape)
        mi, mj = np.nonzero(mask)
        near = np.maximum(np.abs(i[..., None] - mi), np.abs(j[..., None] - mj)) <= iterations
        assert np.array_equal(_dilate(mask, iterations), near.any(axis=-1)), shape


def test_avg_current_slice_constant_family(quad_fam, single_base, quad_flt):
    # constant-in-lambda family: averaged slice equals the single-map slice
    R = quad_flt.R
    space = BaseSpace("box", bounds=((-1.0, 1.0),))
    grid = _grid((-(R + 1), R + 1, -(R + 1), R + 1), 128)
    res = avg_current_slice(quad_fam, space, grid, n_mc=4, seed=3, tol=1e-6, flt=quad_flt)
    single = slice_measure(green_field(quad_fam, single_base, 0.0, grid, 1e-6, 200, quad_flt))
    assert res.l1_distance < 1e-9  # linearity: identical up to roundoff
    np.testing.assert_allclose(res.measure_of_mean.density, single.density, atol=1e-8)
    assert res.measure_of_mean.total_mass == pytest.approx(TWO_PI, rel=0.02)


def test_avg_current_two_letter(box_fam, two_letter_base):
    flt = compute_radius(box_fam, two_letter_base.space)
    R = flt.R
    grid = _grid((-(R + 1), R + 1, -(R + 1), R + 1), 128)
    res = avg_current_slice(box_fam, two_letter_base.space, grid, n_mc=8, seed=5, tol=1e-6, flt=flt)
    # Laplacian of mean == mean of Laplacians (exact linearity)
    assert res.l1_distance < 1e-9
    assert res.measure_of_mean.total_mass == pytest.approx(TWO_PI, rel=0.02)


@pytest.mark.parametrize("space", [BaseSpace("box", bounds=((-0.1, 0.1),)), BaseSpace("finite", points=(-0.1 + 0j, 0.1 + 0j))],
                         ids=["box", "two-letter"])
def test_avg_current_slice_matches_per_sequence_loop(space, box_fam, monkeypatch):
    # 3-sequence chunks of a 12^2 grid, n_mc = 7: the last chunk is short
    monkeypatch.setattr(green_mod, "MC_CHUNK", 500)
    flt = compute_radius(box_fam, space)
    grid = _grid((-3.3, 3.3, -3.3, 3.3), 12)
    res = avg_current_slice(box_fam, space, grid, n_mc=7, seed=8, tol=1e-6, flt=flt)
    mean_vals, mean_den, stderr_mass = avg_current_slice_loop(box_fam, space, grid, 7, 8, 1e-6, 200, flt)
    assert np.array_equal(res.measure_of_mean.grid.data, mean_vals)
    assert np.array_equal(res.mean_of_measures.density, mean_den)
    assert res.stderr_mass == stderr_mass


def test_avg_current_slice_names_first_undecided_sequence(box_fam, two_letter_base):
    from henonskew.base import ParamSequence
    from henonskew.green import green_field_seq

    space = two_letter_base.space
    flt = compute_radius(box_fam, space)
    grid = _grid((-3.3, 3.3, -3.3, 3.3), 12)
    first = green_field_seq(box_fam, ParamSequence(space, 8).spawn(0), grid, 1e-6, 6, flt)
    assert first.undecided
    with pytest.raises(UndecidedCells, match=f"^sequence 0: {first.undecided} undecided pixels$"):
        avg_current_slice(box_fam, space, grid, n_mc=3, seed=8, tol=1e-6, n_max=6, flt=flt)
