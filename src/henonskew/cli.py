"""Batch experiment runner.

Experiments are described by a flat INI config with [family], [base] and
[experiment] sections (plus [lift] for projective runs); subcommands
mirror the experiment kinds and --config/--out/--threads/--seed override
config keys. Data goes to files, progress to stderr, and every successful
run writes a manifest with sizes and checksums; identical configs
reproduce identical output checksums.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .base import BaseDynamics, BaseSpace, BaseSystem, ParamSequence
from .convergence import (
    PotentialSpec,
    pullback_convergence,
    rigidity_probe,
    theta_average_pullback,
)
from .currents import julia_raster, off_band_fraction, slice_measure
from .entropy import entropy_lower_bound
from .errors import ConfigError, HenonSkewError, ValidationError
from .expr import CoeffMap
from .family import HenonFactor, HenonFamily, validate_family
from .filtration import check_invariance, compute_radius
from .gridio import write_pgm16, write_raw_grid
from .green import avg_green_field, green_field, green_field_seq
from .grids import SliceGrid, SliceSpec
from .projective import HomogeneousLift, basin_classify_batch, estimate_constants

EXPERIMENTS = (
    "filtration",
    "green-raster",
    "julia-raster",
    "avg-green",
    "slice-mass",
    "converge",
    "theta",
    "rigidity",
    "entropy",
    "basin-raster",
    "constants",
)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# config parsing


def _parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j").replace(" ", ""))


def _entries(cfg: configparser.SectionProxy, key: str, n: int, default: str, parse=_parse_complex) -> list:
    """The n comma-separated numbers of option `key`; ConfigError for any other count."""
    text = cfg.get(key, fallback=default)
    try:
        vals = [parse(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{key} = {text!r} is not a list of numbers") from None
    if len(vals) != n:
        raise ConfigError(f"{key} needs {n} numbers, got {len(vals)}")
    return vals


def parse_family(cfg: configparser.SectionProxy) -> HenonFamily:
    factors = []
    for j in range(1, 100):
        key = f"factor{j}.degree"
        if key not in cfg:
            break
        deg = cfg.getint(key)
        coeff_text = cfg.get(f"factor{j}.coeffs", fallback="")
        parts = [p.strip() for p in coeff_text.split(",")] if coeff_text.strip() else []
        if len(parts) != deg:
            raise ConfigError(
                f"factor{j}: need {deg} coefficient expressions (y^{deg - 1}..y^0), got {len(parts)}"
            )
        coeffs = tuple(CoeffMap.parse(p) for p in parts)
        a = CoeffMap.parse(cfg.get(f"factor{j}.a", fallback="1"))
        factors.append(HenonFactor(deg, coeffs, a))
    if not factors:
        raise ConfigError("no factors in [family] (factor1.degree = ... missing)")
    return HenonFamily(tuple(factors))


def parse_base(cfg: configparser.SectionProxy) -> BaseSystem:
    kind = cfg.get("kind", fallback="finite")
    if kind == "box":
        nums = [float(v) for v in cfg.get("bounds", fallback="0,0").split(",")]
        if len(nums) not in (2, 4):
            raise ConfigError("box bounds need 2 or 4 numbers: lo1,hi1[,lo2,hi2]")
        bounds = tuple((nums[i], nums[i + 1]) for i in range(0, len(nums), 2))
        space = BaseSpace("box", bounds=bounds)
    elif kind == "circle":
        space = BaseSpace("circle")
    elif kind == "finite":
        pts = tuple(_parse_complex(p) for p in cfg.get("points", fallback="0").split(","))
        space = BaseSpace("finite", points=pts)
    else:
        raise ConfigError(f"unknown base kind {kind!r}")

    sig = cfg.get("sigma", fallback="identity")
    if sig == "identity":
        dyn = BaseDynamics("identity")
    elif sig.startswith("contraction"):
        c = _parse_complex(sig.split(":", 1)[1]) if ":" in sig else 0.5
        dyn = BaseDynamics("contraction", c=c)
    elif sig.startswith("rotation"):
        alpha = float(sig.split(":", 1)[1]) if ":" in sig else 0.0
        dyn = BaseDynamics("rotation", alpha=alpha)
    elif sig == "shift":
        dyn = BaseDynamics("shift")
    else:
        raise ConfigError(f"unknown sigma {sig!r}")
    return BaseSystem(space, dyn)


def parse_lift(cfg: configparser.SectionProxy) -> HomogeneousLift:
    k = cfg.getint("k")
    d = cfg.getint("d")
    comps = []
    for i in range(k + 1):
        text = cfg.get(f"component{i}", fallback=None)
        if text is None:
            raise ConfigError(f"[lift] missing component{i}")
        comps.append(text)
    return HomogeneousLift.parse(k, d, comps)


def parse_slice(cfg: configparser.SectionProxy, resolution: int) -> SliceGrid:
    text = cfg.get("slice", fallback="x=0")
    if "=" in text and text.split("=", 1)[0].strip() in ("x", "y"):
        axis, val = text.split("=", 1)
        spec = SliceSpec(axis.strip(), _parse_complex(val))
    else:
        raise ConfigError(f"unsupported slice spec {text!r} (use x=<c> or y=<c>)")
    win = _entries(cfg, "window", 4, "-3,3,-3,3", float)
    return SliceGrid.from_window(spec, tuple(win), resolution)


# ---------------------------------------------------------------------------
# experiments


def _write_pgm(outdir: Path, stem: str, values: np.ndarray, files: list[Path], lo=None, hi=None) -> None:
    pgm = outdir / f"{stem}.pgm"
    write_pgm16(pgm, values, lo, hi)
    files.extend([pgm, pgm.with_suffix(pgm.suffix + ".map.txt")])


def _write_field(outdir: Path, stem: str, grid: SliceGrid, files: list[Path]) -> None:
    raw = outdir / f"{stem}.grid"
    write_raw_grid(raw, grid)
    files.append(raw)
    _write_pgm(outdir, stem, grid.data, files)


def _write_text(outdir: Path, name: str, text: str, files: list[Path]) -> None:
    p = outdir / name
    p.write_text(text)
    files.append(p)


def run(config: configparser.ConfigParser, outdir: Path, threads: int = 1) -> Path:
    """Execute the configured experiment; returns the manifest path."""
    t0 = time.time()
    exp = config["experiment"]
    kind = exp.get("kind")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"experiment kind must be one of {EXPERIMENTS}, got {kind!r}")
    outdir.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []

    tol = exp.getfloat("tol", fallback=1e-6)
    base_seed = config["base"].getint("seed", fallback=0) if "base" in config else 0
    seed = exp.getint("seed", fallback=base_seed)
    n_max = exp.getint("depth", fallback=200)
    resolution = exp.getint("resolution", fallback=256)

    if kind in ("basin-raster", "constants"):
        _run_projective(config, kind, exp, outdir, files, seed)
    else:
        fam = parse_family(config["family"])
        base = parse_base(config["base"])
        validate_family(fam, base.space.grid(16))
        flt = compute_radius(fam, base.space)
        lam = _parse_complex(exp.get("lam", fallback="0"))
        is_shift = base.sigma.kind == "shift"

        def field_on(grid):
            if is_shift:
                seq = ParamSequence(base.space, seed)
                return green_field_seq(fam, seq, grid, tol, n_max, flt, space=base.space, threads=threads)
            return green_field(fam, base, lam, grid, tol, n_max, flt, threads=threads)

        if kind == "filtration":
            rep = check_invariance(fam, base.space, flt.R, exp.getint("points", fallback=10000), seed)
            print(f"R = {flt.R:.6g}")
            _write_text(outdir, "invariance.csv", rep.as_csv(), files)
        elif kind == "green-raster":
            grid = parse_slice(exp, resolution)
            field = field_on(grid)
            _write_field(outdir, "green", field.grid, files)
        elif kind == "julia-raster":
            grid = parse_slice(exp, resolution)
            jr = julia_raster(field_on(grid))
            _write_pgm(outdir, "julia", jr.codes.astype(float), files, 0.0, 2.0)
            off = off_band_fraction(jr.measure, jr.field.status)
            _write_text(outdir, "julia.csv", "resolution,total_mass,off_band_fraction\n"
                        f"{resolution},{jr.measure.total_mass:.9g},{off:.9g}\n", files)
        elif kind == "avg-green":
            grid = parse_slice(exp, resolution)
            n_mc = exp.getint("n_mc", fallback=64)
            field, stderr = avg_green_field(fam, base.space, grid, tol, n_mc, seed, n_max, flt, threads=threads)
            _write_field(outdir, "avg_green", field.grid, files)
            _write_field(outdir, "avg_green_stderr", grid.with_data(stderr), files)
        elif kind == "slice-mass":
            resolutions = [int(v) for v in exp.get("resolutions", fallback=str(resolution)).split(",")]
            rows = ["resolution,total_mass,off_band_fraction"]
            for res in resolutions:
                grid = parse_slice(exp, res)
                field = field_on(grid)
                msr = slice_measure(field, normalized=exp.getboolean("normalize", fallback=False))
                rows.append(f"{res},{msr.total_mass:.9g},{off_band_fraction(msr, field.status):.9g}")
                den_grid = SliceGrid(
                    nx=grid.nx - 2,
                    ny=grid.ny - 2,
                    x0=grid.x0 + grid.dx,
                    y0=grid.y0 + grid.dy,
                    dx=grid.dx,
                    dy=grid.dy,
                    spec=grid.spec,
                    data=msr.density,
                )
                den_path = outdir / f"density_{res}.grid"
                write_raw_grid(den_path, den_grid)
                files.append(den_path)
            _write_text(outdir, "slice_mass.csv", "\n".join(rows) + "\n", files)
        elif kind in ("converge", "theta", "rigidity"):
            grid = parse_slice(exp, resolution)
            u = PotentialSpec(exp.get("potential", fallback="fubini-study"))
            depth = exp.getint("n_max", fallback=12)
            if kind == "converge":
                seq = ParamSequence(base.space, seed)
                report = pullback_convergence(fam, seq, u, grid, depth, tol, flt, space=base.space, threads=threads)
                _write_text(outdir, "converge.csv", report.as_csv(), files)
                _write_text(outdir, "fit.json", report.fit_summary() + "\n", files)
            elif kind == "theta":
                n_mc = exp.getint("n_mc", fallback=32)
                report, floors = theta_average_pullback(fam, base.space, u, grid, depth, n_mc, seed, tol, flt, threads=threads)
                rows = ["n,e_n,noise_floor"]
                rows += [f"{n},{e:.12g},{f:.12g}" for n, e, f in zip(report.depths, report.errors, floors)]
                _write_text(outdir, "theta.csv", "\n".join(rows) + "\n", files)
            else:
                u2 = PotentialSpec(exp.get("potential2", fallback="log-plus"))
                seq = ParamSequence(base.space, seed)
                dist = rigidity_probe(fam, seq, u, u2, grid, depth, tol, flt, space=base.space)
                print(f"rigidity sup-distance = {dist:.6g}")
                _write_text(outdir, "rigidity.csv", f"n_max,distance\n{depth},{dist:.12g}\n", files)
        elif kind == "entropy":
            eps = exp.getfloat("eps", fallback=0.05)
            n_lo = exp.getint("n_lo", fallback=2)
            n_hi = exp.getint("n_hi", fallback=10)
            cands = exp.getint("candidates", fallback=20000)
            ests = entropy_lower_bound(fam, base, eps, range(n_lo, n_hi + 1), cands, seed, flt=flt)
            rows = ["n,eps,s_n,rate"]
            rows += [f"{e.n},{e.eps},{e.s_n},{e.rate:.9g}" for e in ests]
            _write_text(outdir, "entropy.csv", "\n".join(rows) + "\n", files)
        else:  # pragma: no cover
            raise ConfigError(kind)

    manifest = _write_manifest(config, outdir, files, time.time() - t0)
    _log(f"[{kind}] wrote {len(files)} file(s) in {time.time() - t0:.2f}s -> {outdir}")
    return manifest


def _run_projective(config, kind, exp, outdir: Path, files: list[Path], seed: int) -> None:
    lift = parse_lift(config["lift"])
    base = parse_base(config["base"])
    n_sphere = exp.getint("n_sphere", fallback=20000)
    margin = exp.getfloat("margin", fallback=0.05)
    consts = estimate_constants(lift, base.space, n_sphere, seed, margin)
    if kind == "constants":
        print(f"l = {consts.l_emp:.6g}, L = {consts.L_emp:.6g}, r = {consts.r:.6g}, R = {consts.R:.6g}")
        _write_text(outdir, "constants.csv",
                    f"l,L,r,R\n{consts.l_emp:.9g},{consts.L_emp:.9g},{consts.r:.9g},{consts.R:.9g}\n", files)
        return
    resolution = exp.getint("resolution", fallback=256)
    win = _entries(exp, "window", 4, "-2,2,-2,2", float)
    base_pt = _entries(exp, "plane_base", lift.k + 1, ",".join(["0"] * (lift.k + 1)))
    direction = np.array(_entries(exp, "plane_dir", lift.k + 1, ",".join(["1"] + ["0"] * lift.k)))
    re = np.linspace(win[0], win[1], resolution)
    im = np.linspace(win[2], win[3], resolution)
    w = re[None, :] + 1j * im[:, None]
    pts = np.asarray(base_pt, dtype=complex)[None, :] + w.reshape(-1, 1) * direction[None, :]
    norms = np.linalg.norm(pts, axis=1)
    codes = np.zeros(len(pts), dtype=np.uint8)
    ok = norms > 1e-8
    labels = basin_classify_batch(lift, base, _parse_complex(exp.get("lam", fallback="0")), pts[ok], exp.getint("depth", fallback=100), consts)
    lab_code = {"attracted-to-0": 0, "indeterminate": 1, "escapes-to-infinity": 2}
    codes[ok] = np.array([lab_code[v] for v in labels], dtype=np.uint8)
    _write_pgm(outdir, "basin", codes.reshape(resolution, resolution).astype(float), files, 0.0, 2.0)


def _write_manifest(config, outdir: Path, files: list[Path], wall: float) -> Path:
    buf = []
    for section in config.sections():
        for key, val in sorted(config.items(section)):
            buf.append(f"{section}.{key}={val}")
    cfg_hash = hashlib.sha256("\n".join(buf).encode()).hexdigest()
    lines = [
        f"tool_version: {__version__}",
        f"config_sha256: {cfg_hash}",
        f"wall_time_s: {wall:.3f}",
        "outputs:",
    ]
    for f in sorted(files):
        digest = hashlib.sha256(f.read_bytes()).hexdigest()
        lines.append(f"  {f.name} {f.stat().st_size} sha256:{digest}")
    manifest = outdir / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="henonskew", description="Fibered Henon dynamics experiments")
    ap.add_argument("kind", choices=EXPERIMENTS + ("run",), help="experiment kind ('run' = take kind from config)")
    ap.add_argument("--config", required=True, help="path to the experiment config")
    ap.add_argument("--out", default=None, help="output directory (overrides config)")
    ap.add_argument("--threads", type=int, default=1, help="worker threads for rasters")
    ap.add_argument("--seed", type=int, default=None, help="override experiment seed")
    ap.add_argument("--normalize", action="store_true", help="mass-1 normalization for slice measures")
    args = ap.parse_args(argv)

    config = configparser.ConfigParser()
    read = config.read(args.config)
    if not read:
        _log(f"error: cannot read config {args.config}")
        return 2
    if "experiment" not in config:
        config.add_section("experiment")
    if args.kind != "run":
        config["experiment"]["kind"] = args.kind
    if args.seed is not None:
        config["experiment"]["seed"] = str(args.seed)
    if args.normalize:
        config["experiment"]["normalize"] = "true"
    outdir = Path(args.out) if args.out else Path(config["experiment"].get("out", "out"))

    try:
        run(config, outdir, max(1, args.threads))
    except (ConfigError, ValidationError) as exc:
        _log(f"config/validation error: {exc}")
        return 2
    except HenonSkewError as exc:
        _log(f"experiment error: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
