import hashlib
from pathlib import Path

import numpy as np
import pytest

from henonskew.cli import main
from henonskew.gridio import read_pgm16, read_raw_grid, write_pgm16, write_raw_grid
from henonskew.grids import SliceGrid, SliceSpec

MINIMAL = """
[family]
factor1.degree = 2
factor1.coeffs = 0, 0
factor1.a = 0.3

[base]
kind = finite
points = 0

[experiment]
kind = filtration
seed = 1
"""

TWO_LETTER = """
[family]
factor1.degree = 2
factor1.coeffs = 0, u
factor1.a = 0.2

[base]
kind = finite
points = -0.1, 0.1
sigma = shift

[experiment]
seed = 3
resolution = 32
slice = x=0
window = -3.3, 3.3, -3.3, 3.3
"""

LIFT = """
[lift]
k = 2
d = 2
component0 = x0^2
component1 = x1^2
component2 = x2^2

[base]
kind = finite
points = 0

[experiment]
seed = 2
n_sphere = 20000
margin = 0.0
"""


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def _manifest_output_hashes(out: Path) -> dict:
    lines = (out / "manifest.txt").read_text().splitlines()
    return {l.split()[0]: l.split()[2] for l in lines if l.startswith("  ")}


def test_filtration_prints_radius(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL)
    code = main(["filtration", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "R = 2.53" in capsys.readouterr().out  # default margin 1.1 on 2.3
    assert (tmp_path / "out" / "invariance.csv").exists()
    assert (tmp_path / "out" / "manifest.txt").exists()


def test_reproducible_checksums(tmp_path):
    cfg = _write(tmp_path, TWO_LETTER)
    assert main(["green-raster", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["green-raster", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert _manifest_output_hashes(tmp_path / "a") == _manifest_output_hashes(tmp_path / "b")


def test_degenerate_family_rejected(tmp_path, capsys):
    bad = MINIMAL.replace("factor1.a = 0.3", "factor1.a = 0")
    cfg = _write(tmp_path, bad)
    code = main(["filtration", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out" / "manifest.txt").exists()  # no partial manifest


def test_slice_mass_experiment(tmp_path):
    cfg = _write(tmp_path, TWO_LETTER.replace("sigma = shift", "sigma = identity"))
    code = main(["slice-mass", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    rows = (tmp_path / "out" / "slice_mass.csv").read_text().splitlines()
    res, mass, off = rows[1].split(",")
    assert abs(float(mass) - 2 * np.pi) / (2 * np.pi) < 0.10  # coarse 32x32 raster


def test_avg_green_and_entropy_smoke(tmp_path):
    cfg = _write(tmp_path, TWO_LETTER)
    assert main(["avg-green", "--config", str(cfg), "--out", str(tmp_path / "avg")]) == 0
    assert (tmp_path / "avg" / "avg_green.grid").exists()
    ident = TWO_LETTER.replace("sigma = shift", "sigma = identity") + "\neps = 0.1\nn_lo = 2\nn_hi = 3\ncandidates = 2000\n"
    assert main(["entropy", "--config", str(_write(tmp_path, ident, "e.cfg")), "--out", str(tmp_path / "ent")]) == 0
    rows = (tmp_path / "ent" / "entropy.csv").read_text().splitlines()
    assert rows[0] == "n,eps,s_n,rate"
    assert len(rows) == 3


def test_converge_and_rigidity(tmp_path):
    cfg = _write(tmp_path, TWO_LETTER + "\nn_max = 6\n")
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "converge.csv").exists()
    assert (tmp_path / "c" / "fit.json").exists()
    assert main(["rigidity", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0


def test_constants_and_basin(tmp_path, capsys):
    cfg = _write(tmp_path, LIFT)
    assert main(["constants", "--config", str(cfg), "--out", str(tmp_path / "k")]) == 0
    out = capsys.readouterr().out
    assert "r = 0.50" in out
    basin_cfg = LIFT + "\nresolution = 24\nwindow = -2,2,-2,2\nplane_base = 0,0.3,0.2\nplane_dir = 1,0,0\n"
    assert main(["basin-raster", "--config", str(_write(tmp_path, basin_cfg, "b.cfg")), "--out", str(tmp_path / "bs")]) == 0
    img = read_pgm16(tmp_path / "bs" / "basin.pgm")
    assert img.shape == (24, 24)
    assert len(np.unique(img)) >= 2


def test_raw_grid_roundtrip(tmp_path):
    grid = SliceGrid.from_window(SliceSpec("x", 1 + 2j), (-1, 1, -2, 2), 8, 6)
    data = np.arange(48, dtype=float).reshape(6, 8)
    g = grid.with_data(data)
    path = tmp_path / "t.grid"
    write_raw_grid(path, g)
    back = read_raw_grid(path)
    assert back.nx == 8 and back.ny == 6
    assert back.spec.kind == "x" and back.spec.const == 1 + 2j
    np.testing.assert_array_equal(back.data, data)
    assert path.stat().st_size == 64 + 48 * 8


def test_pgm16_roundtrip(tmp_path):
    vals = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    path = tmp_path / "t.pgm"
    lo, hi = write_pgm16(path, vals)
    img = read_pgm16(path)
    assert img.dtype == np.uint16
    assert img[0, 0] == 0 and img[-1, -1] == 65535
    assert "lo = 0.0" in (path.parent / "t.pgm.map.txt").read_text()


def test_unknown_experiment(tmp_path):
    cfg = _write(tmp_path, MINIMAL.replace("kind = filtration", "kind = frobnicate"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_monte_carlo_kinds_reject_fewer_than_two_sequences(tmp_path):
    # exit code 2 is a configuration or validation error
    for kind, n_mc in (("avg-green", 1), ("avg-green", 0), ("theta", 1)):
        cfg = _write(tmp_path, TWO_LETTER + f"n_mc = {n_mc}\nn_max = 4\n", f"{kind}{n_mc}.cfg")
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path / f"{kind}{n_mc}")]) == 2


def test_entropy_rejects_depths_below_one(tmp_path):
    ident = TWO_LETTER.replace("sigma = shift", "sigma = identity") + "\neps = 0.1\nn_lo = 0\nn_hi = 3\ncandidates = 200\n"
    assert main(["entropy", "--config", str(_write(tmp_path, ident)), "--out", str(tmp_path / "ent")]) == 2


def _basin_cfg(**plane):
    opts = {"window": "-2,2,-2,2", "plane_base": "0,0.3,0.2", "plane_dir": "1,0,0", **plane}
    return LIFT + "\nresolution = 8\n" + "".join(f"{k} = {v}\n" for k, v in opts.items())


@pytest.mark.parametrize("key, value", [
    ("window", "-2,2,-2"), ("window", "-2,2,-2,2,0"), ("window", "-2,2,x,2"),
    ("plane_base", "0,0.3"), ("plane_base", "0.3"), ("plane_base", "0,0.3,0.2,0"),
    ("plane_dir", "1,0"), ("plane_dir", "1,0,0,0"), ("plane_dir", "1,0,?"),
])
def test_basin_raster_rejects_malformed_plane(key, value, tmp_path):
    # P^2 (k = 2): 4 window numbers, 3 entries for the plane's base point and direction
    cfg = _write(tmp_path, _basin_cfg(**{key: value}))
    assert main(["basin-raster", "--config", str(cfg), "--out", str(tmp_path / "bs")]) == 2
    assert not (tmp_path / "bs" / "basin.pgm").exists()


def test_slice_window_needs_four_numbers(tmp_path):
    cfg = _write(tmp_path, TWO_LETTER.replace("window = -3.3, 3.3, -3.3, 3.3", "window = -3.3, 3.3, -3.3"))
    assert main(["avg-green", "--config", str(cfg), "--out", str(tmp_path / "avg")]) == 2
