import configparser
import hashlib
import io
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import henonskew
from henonskew.cli import _parse_sigma, main
from henonskew.errors import ValidationError
from henonskew.gridio import read_pgm16, read_raw_grid, write_pgm16, write_raw_grid
from henonskew.grids import SliceGrid, SliceSpec
from henonskew.orbit import Orbit, TableSupplier

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
    cfg = _write(tmp_path, TWO_LETTER.replace("sigma = shift", "sigma = identity") + "lam = 0.1\n")
    code = main(["slice-mass", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    rows = (tmp_path / "out" / "slice_mass.csv").read_text().splitlines()
    res, mass, off = rows[1].split(",")
    assert abs(float(mass) - 2 * np.pi) / (2 * np.pi) < 0.10  # coarse 32x32 raster


@pytest.mark.parametrize("how", ["key", "flag"])
def test_slice_mass_normalization(how, tmp_path):
    """`normalize = true` and --normalize both divide the slice mass and its
    density by 2 pi, and write the same bytes."""
    text = TWO_LETTER.replace("sigma = shift", "sigma = identity") + "lam = 0.1\n"
    runs = {}
    for name, extra, flag in (("plain", "", []), ("norm", "normalize = true\n" if how == "key" else "",
                                                   ["--normalize"] if how == "flag" else [])):
        out = tmp_path / name
        assert main(["slice-mass", "--config", str(_write(tmp_path, text + extra)), "--out", str(out)] + flag) == 0
        runs[name] = (float((out / "slice_mass.csv").read_text().splitlines()[1].split(",")[1]),
                      read_raw_grid(out / "density_32.grid").data)
    assert runs["norm"][0] == pytest.approx(runs["plain"][0] / (2 * np.pi), rel=1e-8)
    assert np.array_equal(runs["norm"][1], runs["plain"][1] / (2 * np.pi))
    assert abs(runs["norm"][0] - 1) < 0.10


def test_julia_raster_writes_codes_and_mass(tmp_path):
    cfg = _write(tmp_path, TWO_LETTER.replace("sigma = shift", "sigma = identity") + "lam = 0.1\n")
    out = tmp_path / "out"
    assert main(["julia-raster", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "julia.csv").read_text().splitlines()
    assert rows[0] == "resolution,total_mass,off_band_fraction" and len(rows) == 2
    res, mass, off = rows[1].split(",")
    assert res == "32" and abs(float(mass) - 2 * np.pi) / (2 * np.pi) < 0.10 and 0 <= float(off) <= 1
    codes = read_pgm16(out / "julia.pgm")
    assert codes.shape == (32, 32) and set(np.unique(codes)) <= {0, 32768, 65535}
    assert set(_manifest_output_hashes(out)) == {"julia.pgm", "julia.pgm.map.txt", "julia.csv"}


@pytest.mark.parametrize("section", ["with", "without"])
def test_seed_flag_sets_the_seed(section, tmp_path):
    """--seed 7 writes what `seed = 7` in [experiment] writes, over a seed in
    the config or in a config with no [experiment] section."""
    text = MINIMAL[:MINIMAL.index("[experiment]")]
    exp = "[experiment]\nseed = 1\npoints = 500\n" if section == "with" else ""
    assert main(["filtration", "--config", str(_write(tmp_path, text + exp)), "--out", str(tmp_path / "a"),
                 "--seed", "7"]) == 0
    pinned = text + "[experiment]\nseed = 7\n" + ("points = 500\n" if section == "with" else "")
    assert main(["filtration", "--config", str(_write(tmp_path, pinned, "b.cfg")), "--out", str(tmp_path / "b")]) == 0
    assert _manifest_output_hashes(tmp_path / "a") == _manifest_output_hashes(tmp_path / "b")
    assert (tmp_path / "a" / "manifest.txt").read_text().splitlines()[:2] == \
        (tmp_path / "b" / "manifest.txt").read_text().splitlines()[:2]


def test_experiment_errors_exit_1(tmp_path, capsys):
    """A HenonSkewError that is no config or validation error exits 1:
    entropy packing over a shift base."""
    cfg = _write(tmp_path, TWO_LETTER + "eps = 0.1\nn_lo = 2\nn_hi = 3\ncandidates = 200\n")
    assert main(["entropy", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "experiment error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


# the random-averages benchmark family over its two-letter shift base, at the benchmark's small sizes
RANDOM_AVERAGES = """
[family]
factor1.degree = 2
factor1.coeffs = 0j, (0.003 - 0.002i) + 1.0*u
factor1.a = 0.2

[base]
kind = finite
points = -0.1, 0.1
sigma = shift

[experiment]
seed = 5
slice = x=0
window = -2.6, 2.6, -2.6, 2.6
n_max = 8
"""


@pytest.mark.parametrize("kind, opts", [("converge", "resolution = 48\n"), ("theta", "resolution = 32\nn_mc = 4\n"),
                                        ("rigidity", "resolution = 48\n")])
def test_retiring_settled_points_changes_no_output(kind, opts, tmp_path, monkeypatch):
    """converge, theta and rigidity write the same bytes when settled points
    retire from the pullback orbits as when none does (no bound)."""
    cfg = _write(tmp_path, RANDOM_AVERAGES + opts)
    retired = []
    retire = Orbit.retire

    def spy(o, u_max):
        retire(o, u_max)
        retired.append(0 if o.at is None else len(o.rpos))

    monkeypatch.setattr(Orbit, "retire", spy)
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "retiring")]) == 0
    assert max(retired) > 0
    init = TableSupplier.__init__

    def unbounded(sup, *args):
        init(sup, *args)
        sup.settled_u = None

    monkeypatch.setattr(TableSupplier, "__init__", unbounded)
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "kept")]) == 0
    outputs = _manifest_output_hashes(tmp_path / "retiring")
    assert outputs and outputs == _manifest_output_hashes(tmp_path / "kept")


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



def _damaged_raw_grid(tmp_path, damage):
    """A written 8 x 6 raw grid, then cut or altered as `damage` says."""
    grid = SliceGrid.from_window(SliceSpec("x", 1 + 2j), (-1, 1, -2, 2), 8, 6).with_data(np.zeros((6, 8)))
    path = tmp_path / "t.grid"
    write_raw_grid(path, grid)
    raw = bytearray(path.read_bytes())
    if damage == "10-byte-header":
        raw = raw[:10]
    elif damage == "payload-8-bytes-short":
        raw = raw[:-8]
    elif damage == "payload-8-bytes-long":
        raw += bytes(8)
    elif damage == "slice-kind-7":
        raw[5] = 7
    elif damage == "slice-kind-2":  # the first code past y-fixed
        raw[5] = 2
    elif damage == "nan-spacing":
        raw[32:40] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("damage", ["10-byte-header", "payload-8-bytes-short", "payload-8-bytes-long", "slice-kind-7",
                                    "slice-kind-2", "nan-spacing"])
def test_malformed_raw_grid_is_a_validation_error(damage, tmp_path):
    with pytest.raises(ValidationError):
        read_raw_grid(_damaged_raw_grid(tmp_path, damage))


@pytest.mark.parametrize("damage", ["truncated", "one-number-size", "word-size", "no-maxval", "zero-size"])
def test_malformed_pgm_is_a_validation_error(damage, tmp_path):
    path = tmp_path / "t.pgm"
    write_pgm16(path, np.linspace(0.0, 1.0, 12).reshape(3, 4))
    raw = path.read_bytes()
    raw = {
        "truncated": raw[:-3],
        "one-number-size": raw.replace(b"\n4 3\n", b"\n4\n"),
        "word-size": raw.replace(b"\n4 3\n", b"\nfour 3\n"),
        "no-maxval": raw[:len(b"P5\n4 3\n")],
        "zero-size": raw.replace(b"\n4 3\n", b"\n0 3\n"),
    }[damage]
    path.write_bytes(raw)
    with pytest.raises(ValidationError):
        read_pgm16(path)


def test_line_slice_kind_is_rejected():
    # slices are {x = c} and {y = c}; a raw grid could not hold a line's base point and direction
    with pytest.raises(ValidationError, match="unknown slice kind"):
        SliceSpec("line")

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


@pytest.mark.parametrize("candidates", [-5, 0])
def test_entropy_rejects_fewer_than_one_candidate(candidates, tmp_path):
    ident = TWO_LETTER.replace("sigma = shift", "sigma = identity") + f"\neps = 0.1\nn_lo = 2\nn_hi = 3\ncandidates = {candidates}\n"
    assert main(["entropy", "--config", str(_write(tmp_path, ident)), "--out", str(tmp_path / "ent")]) == 2
    assert not (tmp_path / "ent" / "entropy.csv").exists()


def _with_options(text, section, **opts):
    cfg = configparser.ConfigParser()
    cfg.read_string(text)
    for key, value in opts.items():
        cfg[section][key] = value
    buf = io.StringIO()
    cfg.write(buf)
    return buf.getvalue()


@pytest.mark.parametrize("kind, section, opts", [
    ("avg-green", "experiment", {"resolution": "3x2"}),
    ("avg-green", "experiment", {"n_mc": "4.5"}),
    ("avg-green", "experiment", {"depth": "ten"}),
    ("converge", "experiment", {"n_max": "6;"}),
    ("entropy", "experiment", {"eps": "0.1.2"}),
    ("entropy", "experiment", {"candidates": "2e3"}),
    ("slice-mass", "experiment", {"resolutions": "16, 2x"}),
    ("avg-green", "base", {"kind": "box", "bounds": "-0.1, zz"}),
    ("avg-green", "base", {"points": "-0.1, zz"}),
], ids=lambda v: "-".join(v.keys()) if isinstance(v, dict) else v)
def test_malformed_numbers_are_config_errors(kind, section, opts, tmp_path, capsys):
    # exit code 2, with the section and option named, instead of a ValueError traceback
    text = TWO_LETTER if kind != "entropy" else TWO_LETTER.replace("sigma = shift", "sigma = identity")
    cfg = _write(tmp_path, _with_options(text, section, **opts))
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    key, value = list(opts.items())[-1]
    assert f"[{section}] {key} = {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1e-6", "nan"])
def test_nonpositive_tol_exits_2(tol, tmp_path):
    # in a subprocess with a timeout: a tol <= 0 once looped forever in FiltrationRadius.depth_for
    text = TWO_LETTER.replace("sigma = shift", "sigma = identity").replace("resolution = 32", "resolution = 16")
    cfg = _write(tmp_path, text + f"tol = {tol}\n")
    env = {**os.environ, "PYTHONPATH": str(Path(henonskew.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "henonskew.cli", "green-raster", "--config", str(cfg),
                           "--out", str(tmp_path / "o")], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "[experiment] tol" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("section, key, value", [
    ("base", "sigma", "contraction0.3"), ("base", "sigma", "rotationfoo"), ("base", "sigma", "identity:1"),
    ("base", "sigma", "shift:2"), ("base", "sigma", "contraction:nan"), ("base", "sigma", "rotation:inf"),
    ("base", "sigma", "rotation:"), ("experiment", "lam", "nan"), ("experiment", "lam", "inf+1j"),
    ("base", "points", "0, nan"), ("experiment", "slice", "x=nan"), ("experiment", "tol", "0"),
])
def test_typos_and_nonfinite_values_exit_2(section, key, value, tmp_path, capsys):
    text = _with_options(TWO_LETTER.replace("sigma = shift", "sigma = identity"), section, **{key: value})
    assert main(["green-raster", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert f"{value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["green-raster", "julia-raster", "slice-mass"])
@pytest.mark.parametrize("base, lam", [
    ("kind = finite\npoints = 0", "5"),
    ("kind = box\nbounds = -0.1, 0.1", "0.2"),
    ("kind = box\nbounds = -0.1, 0.1", "0.05+0.01i"),
    ("kind = circle", "1.5"),
], ids=["finite", "box", "box-imaginary", "circle"])
def test_lam_outside_the_base_exits_2(kind, base, lam, tmp_path, capsys):
    # the raster's fibre is over lam, while the radius R covers the base only
    text = MINIMAL.replace("kind = finite\npoints = 0", base) + f"lam = {lam}\nresolution = 8\nresolutions = 8\n"
    assert main([kind, "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")]) == 2
    assert "[experiment] lam" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("base, lam", [
    ("kind = finite\npoints = 0, 5", "5"),
    ("kind = box\nbounds = -0.1, 0.1", "0.1"),
    ("kind = box\nbounds = -0.1, 0.1, 0, 1", "-0.1+1i"),
    ("kind = circle\nsigma = rotation:0.3", "1.0"),
    ("kind = box\nbounds = -0.1, 0.1\nsigma = contraction:0.5", "-0.05"),
], ids=["finite", "box", "box-2d", "circle-wraps", "contraction"])
def test_lam_in_the_base_runs(base, lam, tmp_path):
    text = MINIMAL.replace("kind = finite\npoints = 0", base) + f"lam = {lam}\nresolution = 8\n"
    assert main(["green-raster", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("sigma, kind, param", [
    ("identity", "identity", None), ("shift", "shift", None),
    ("contraction", "contraction", 0.5), ("contraction:0.3", "contraction", 0.3),
    ("rotation", "rotation", 0.0), ("rotation:0.25", "rotation", 0.25),
])
def test_sigma_kinds(sigma, kind, param):
    dyn = _parse_sigma(sigma)
    assert dyn.kind == kind
    if param is not None:
        assert (dyn.c if kind == "contraction" else dyn.alpha) == param


@pytest.mark.parametrize("coeffs", ["0, u^v", "0, u/2", "0, (u)(v)", "0, u and v", "0, None", "0, 2^3^2",
                                    "0, " + "-" * 3000 + "u", "0, " + "(" * 3000 + "u" + ")" * 3000])
def test_bad_coefficient_expressions_exit_2(coeffs, tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL.replace("factor1.coeffs = 0, 0", f"factor1.coeffs = {coeffs}"))
    assert main(["filtration", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config/validation error" in capsys.readouterr().err


def test_negated_power_is_negative(tmp_path):
    # c = -u^2 is -(u^2): over the base point lam = 2 the constant term is -4, as written out
    runs = {}
    for coeffs in ("0, -u^2", "0, -4"):
        cfg = _write(tmp_path, MINIMAL.replace("factor1.coeffs = 0, 0", f"factor1.coeffs = {coeffs}").replace(
            "points = 0", "points = 2") + "lam = 2\nresolution = 8\n")
        out = tmp_path / coeffs[3:]
        assert main(["green-raster", "--config", str(cfg), "--out", str(out)]) == 0
        runs[coeffs] = (out / "green.grid").read_bytes()
    assert runs["0, -u^2"] == runs["0, -4"]


def test_readme_config_example_runs(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = configparser.ConfigParser()
    cfg.read_string(text)
    cfg["experiment"]["resolution"] = "16"
    buf = io.StringIO()
    cfg.write(buf)
    out = tmp_path / "out"
    assert main(["green-raster", "--config", str(_write(tmp_path, buf.getvalue())), "--out", str(out)]) == 0
    assert (out / "manifest.txt").exists()


@pytest.mark.parametrize("kind", ["filtration", "green-raster"])
@pytest.mark.parametrize("base, coeffs", [
    ("kind = box\nbounds = -inf, inf", "0, 0.1*u"),
    ("kind = box\nbounds = -1e200, 1e200", "0, u^2"),
], ids=["infinite-bounds", "overflowing-sums"])
def test_non_finite_filtration_constants_exit_2(kind, base, coeffs, tmp_path, capsys):
    # the parent ran green-raster on a radius of nan or inf, and filtration died with an OverflowError
    text = MINIMAL.replace("kind = finite\npoints = 0", base).replace("factor1.coeffs = 0, 0", f"factor1.coeffs = {coeffs}")
    assert main([kind, "--config", str(_write(tmp_path, text + "resolution = 8\n")), "--out", str(tmp_path / "o")]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, opts", [
    ("green-raster", {"depth": "-3"}),
    ("julia-raster", {"depth": "-1"}),
    ("avg-green", {"depth": "-3", "n_mc": "3"}),
    ("rigidity", {"n_max": "-3"}),
])
def test_negative_depths_exit_2(kind, opts, tmp_path, capsys):
    # at the parent green-raster wrote d^3 log+||z|| into its undecided pixels
    text = _with_options(TWO_LETTER.replace("resolution = 32", "resolution = 8"), "experiment", **opts)
    assert main([kind, "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")]) == 2
    assert "at least 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["converge", "theta"])
@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_pullback_depths_below_one_exit_2(kind, n_max, tmp_path, capsys):
    # without the check converge died with a ValueError from max() and theta wrote a header-only theta.csv
    text = _with_options(TWO_LETTER.replace("resolution = 32", "resolution = 8"), "experiment", n_max=n_max, n_mc="3")
    assert main([kind, "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")]) == 2
    assert "n_max must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["converge", "theta", "rigidity"])
def test_pullback_depths_that_overflow_exit_2(kind, tmp_path, capsys):
    # d^n_max > 2^1000; without the check each exited 0, with inf and nan rows from n = 1024 on
    text = _with_options(TWO_LETTER.replace("resolution = 32", "resolution = 8"), "experiment", n_max="1100", n_mc="3")
    assert main([kind, "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")]) == 2
    assert "d^n_max > 2^1000" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_basin_raster_negative_depth_exits_2(tmp_path, capsys):
    # without the check every pixel came out indeterminate
    cfg = _write(tmp_path, _basin_cfg(depth="-3"))
    assert main(["basin-raster", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "at least 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_slice_mass_resolutions_below_5_exit_2(tmp_path, capsys):
    # the interior density grid of a resolution r has r - 2 cells a side, and a raster needs 3;
    # without the check density_16.grid was written before the 4 failed
    cfg = _write(tmp_path, _with_options(TWO_LETTER, "experiment", resolutions="16, 4"))
    assert main(["slice-mass", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "at least 5" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    cfg = _write(tmp_path, _with_options(TWO_LETTER, "experiment", resolutions="16, 5"))
    assert main(["slice-mass", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert read_raw_grid(tmp_path / "o" / "density_5.grid").data.shape == (3, 3)


@pytest.mark.parametrize("kind", ["green-raster", "julia-raster", "avg-green", "theta"])
@pytest.mark.parametrize("resolution", ["0", "2", "-2"])
def test_slice_raster_resolutions_below_3_exit_2(kind, resolution, tmp_path, capsys):
    # a resolution of 0 once died with a ZeroDivisionError in SliceGrid.from_window
    text = _with_options(TWO_LETTER, "experiment", resolution=resolution, n_mc="3", n_max="4")
    assert main([kind, "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")]) == 2
    assert "nx, ny >= 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("resolution", [0, 2, -2])
def test_basin_raster_resolutions_below_3_exit_2(resolution, tmp_path, capsys):
    # without the check 0 wrote a 0 x 0 basin.pgm and -2 died in np.linspace
    cfg = _write(tmp_path, _basin_cfg().replace("resolution = 8", f"resolution = {resolution}"))
    assert main(["basin-raster", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "at least 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    cfg = _write(tmp_path, _basin_cfg().replace("resolution = 8", "resolution = 3"))
    assert main(["basin-raster", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert read_pgm16(tmp_path / "o" / "basin.pgm").shape == (3, 3)


def test_depth_zero_runs(tmp_path):
    text = MINIMAL + "depth = 0\nresolution = 8\n"
    assert main(["green-raster", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")]) == 0
