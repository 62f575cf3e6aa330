"""Independent checks of the files each job writes.

Every check reads the job's output files and recomputes what it can
without the program: orbits in arbitrary precision (mpmath), exhaustive
word averages on finite bases, closed forms for the diagonal power lift,
and the filtration radius from its defining formula. ``check(job, outdir,
seed)`` returns a list of failure messages; an empty list means the
outputs are correct.

The family and base come from ``Job.fam`` and ``Job.base`` (see
``workloads.py``), never from the program's parsed objects. Two checks
call the program outside any timed region, and say so: the entropy check
redraws the candidate cloud to count survivors, and the basin check
compares ``green_proj`` with the closed form.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import mpmath
import numpy as np

TWO_PI = 2.0 * math.pi
MASS_RTOL = 0.03  # slice mass vs 2 pi on 192^2-class rasters that hold the support
SAMPLE_PIXELS = 6  # per status class and raster
FREEZE = 1e30  # |y| beyond which an orbit in the forward wedge has G = log|y| / d^n to 1e-29
HOEFFDING_DELTA = 1e-9


# ---------------------------------------------------------------------------
# readers


def read_grid(path: Path):
    """HSKW raw grid: (header dict, float64 array of shape (ny, nx))."""
    raw = Path(path).read_bytes()
    magic, version, kind, _, nx, ny, x0, y0, dx, dy, cre, cim = struct.unpack("<4sBBHII4d2d", raw[:64])
    if magic != b"HSKW":
        raise ValueError(f"{path.name}: bad magic")
    data = np.frombuffer(raw[64:], dtype="<f8")
    if data.size != nx * ny:
        raise ValueError(f"{path.name}: {data.size} values for {nx}x{ny}")
    head = {"nx": nx, "ny": ny, "x0": x0, "y0": y0, "dx": dx, "dy": dy, "const": complex(cre, cim), "kind": kind}
    return head, data.reshape(ny, nx)


def read_pgm(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if parts[0] != b"P5" or parts[2] != b"65535":
        raise ValueError(f"{path.name}: not a 16-bit binary PGM")
    w, h = (int(v) for v in parts[1].split())
    return np.frombuffer(parts[3], dtype=">u2").reshape(h, w).astype(np.int64)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def output_digests(outdir: Path) -> dict[str, str]:
    """SHA-256 of each output file listed in manifest.txt (not of the manifest)."""
    out = {}
    for line in (outdir / "manifest.txt").read_text().splitlines():
        if line.startswith("  "):
            name = line.split()[0]
            out[name] = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# the family, evaluated by the benchmark


def coef(c, lam):
    c0, cu = c
    return c0 if cu == 0 else c0 + cu * np.real(lam)


def step(fam, lam, x, y):
    """One application of the family at base point(s) lam (numpy)."""
    for _, coeffs, a in fam:
        p = np.ones_like(y)
        for c in coeffs:
            p = p * y + coef(c, lam)
        x, y = y, p - coef(a, lam) * x
    return x, y


def degree(fam) -> int:
    return math.prod(f[0] for f in fam)


def base_grid(base: dict) -> np.ndarray:
    """The base points a sup over the base runs over (the program's 64-point grid)."""
    kind = base["kind"]
    if kind == "finite":
        return np.array([complex(p.replace("i", "j").replace(" ", "")) for p in base["points"].split(",")])
    if kind == "circle":
        return np.linspace(0.0, 1.0, 64, endpoint=False).astype(complex)
    lo, hi = (float(v) for v in base["bounds"].split(","))
    return np.linspace(lo, hi, 64).astype(complex)


def radius(fam, base: dict) -> float:
    """Filtration radius R = 1.1 max_j sup_lam (sum_i |c_ji| + 2 + sup |a|)."""
    lams = base_grid(base)
    a_sup = max(float(np.max(np.abs(coef(a, lams)))) for _, _, a in fam)
    sums = [float(np.max(sum(np.abs(coef(c, lams) * np.ones_like(lams)) for c in coeffs))) for _, coeffs, _ in fam]
    return 1.1 * max(s + 2.0 + a_sup for s in sums)


def base_orbit(base: dict, lam0: complex, n: int) -> list[complex]:
    """lam_k = sigma^k(lam0) for identity, rotation and contraction bases."""
    sig = base.get("sigma", "identity")
    if sig.startswith("rotation"):
        alpha = float(sig.split(":")[1])
        return [complex((lam0.real + k * alpha) % 1.0) for k in range(n)]
    if sig.startswith("contraction"):
        c = float(sig.split(":")[1])
        return [lam0 * c ** k for k in range(n)]
    return [lam0] * n


def _mp_step(fam, lam, x, y):
    for _, coeffs, a in fam:
        p = mpmath.mpc(1)
        for c in coeffs:
            p = p * y + mpmath.mpc(complex(coef(c, lam)))
        x, y = y, p - mpmath.mpc(complex(coef(a, lam))) * x
    return x, y


def mp_green(fam, lams, y0: complex, max_steps: int = 400) -> float:
    """G^+(0, y0) along lams: iterate in 50 digits until |y| > 1e100 in the wedge."""
    d = degree(fam)
    with mpmath.workdps(50):
        x, y = mpmath.mpc(0), mpmath.mpc(y0)
        for n in range(1, max_steps + 1):
            x, y = _mp_step(fam, lams[min(n - 1, len(lams) - 1)], x, y)
            if abs(y) > mpmath.mpf(10) ** 100 and abs(y) >= abs(x):
                norm = mpmath.sqrt(abs(x) ** 2 + abs(y) ** 2)
                return float(mpmath.log(norm) / mpmath.mpf(d) ** n)
    return math.nan


def mp_exit_step(fam, lams, y0: complex, R: float, steps: int) -> int | None:
    """First step at which the orbit of (0, y0) leaves the bidisc of radius R."""
    with mpmath.workdps(60):
        x, y = mpmath.mpc(0), mpmath.mpc(y0)
        for n in range(1, steps + 1):
            x, y = _mp_step(fam, lams[min(n - 1, len(lams) - 1)], x, y)
            if abs(x) > R or abs(y) > R:
                return n
    return None


def _pixel_w(g: dict, i: int, j: int) -> complex:
    """Slice coordinate of pixel (i, j) of a grid header or window grid."""
    return complex(g["x0"] + g["dx"] * i, g["y0"] + g["dy"] * j)


def _window_grid(job) -> dict:
    exp = job.config["experiment"]
    a0, a1, b0, b1 = (float(v) for v in exp["window"].split(","))
    n = int(exp["resolution"])
    dx, dy = (a1 - a0) / n, (b1 - b0) / n
    return {"x0": a0 + dx / 2, "y0": b0 + dy / 2, "dx": dx, "dy": dy, "nx": n, "ny": n}


def _sample(rng, mask: np.ndarray, k: int) -> list[tuple[int, int]]:
    idx = np.flatnonzero(mask.ravel())
    if idx.size == 0:
        return []
    pick = rng.choice(idx, size=min(k, idx.size), replace=False)
    return [(int(p % mask.shape[1]), int(p // mask.shape[1])) for p in pick]


def _n_max(job) -> int:
    return int(job.config["experiment"].get("depth", "200"))


def _lams(job, n):
    return base_orbit(job.base, complex(job.base.get("_lam", 0j)), n)


# ---------------------------------------------------------------------------
# checks per subcommand


def check_filtration(job, out: Path, rng) -> list[str]:
    rows = read_csv(out / "invariance.csv")
    bad = [f"{r['relation']}: {r['violations']} violations" for r in rows if int(r["violations"]) != 0]
    return bad + ([] if len(rows) == 4 else [f"{len(rows)} invariance rows, expected 4"])


def _check_green_values(job, head, vals, rng) -> list[str]:
    fails = []
    n_max, tol = _n_max(job), float(job.config["experiment"].get("tol", "1e-6"))
    R = radius(job.fam, job.base)
    lams = _lams(job, n_max + 200)
    if not np.all(np.isfinite(vals)) or vals.min() < 0:
        return ["green values must be finite and >= 0"]
    for i, j in _sample(rng, vals > 0, SAMPLE_PIXELS):
        w = _pixel_w(head, i, j)
        g = mp_green(job.fam, lams, w)
        if not abs(vals[j, i] - g) <= tol + 1e-12 * max(1.0, g):
            fails.append(f"pixel ({i},{j}) y={w:.6g}: value {vals[j, i]:.12g} vs mpmath {g:.12g} (tol {tol:g})")
    for i, j in _sample(rng, vals == 0, SAMPLE_PIXELS):
        w = _pixel_w(head, i, j)
        n = mp_exit_step(job.fam, lams, w, R, n_max)
        if n is not None:
            fails.append(f"pixel ({i},{j}) y={w:.6g}: bounded-certified, but the orbit leaves the bidisc at step {n}")
    return fails


def check_green_raster(job, out: Path, rng) -> list[str]:
    head, vals = read_grid(out / "green.grid")
    want = _window_grid(job)
    if (head["nx"], head["ny"]) != (want["nx"], want["ny"]) or not np.allclose(
        [head[k] for k in ("x0", "y0", "dx", "dy")], [want[k] for k in ("x0", "y0", "dx", "dy")], rtol=1e-12, atol=1e-12
    ):
        return ["green.grid header does not match the configured window and resolution"]
    return _check_green_values(job, head, vals, rng)


def _window_holds_support(job) -> bool:
    """The y-window contains the closed disc of radius R: every bounded orbit starts inside."""
    a0, a1, b0, b1 = (float(v) for v in job.config["experiment"]["window"].split(","))
    R = radius(job.fam, job.base)
    return min(-a0, a1, -b0, b1) > R + 0.1


def check_julia_raster(job, out: Path, rng) -> list[str]:
    fails = []
    codes = np.rint(read_pgm(out / "julia.pgm") / 32767.5).astype(int)
    grid = _window_grid(job)
    if codes.shape != (grid["ny"], grid["nx"]) or not set(np.unique(codes)) <= {0, 1, 2}:
        return ["julia.pgm has the wrong shape or codes outside {0, 1, 2}"]
    n_max = _n_max(job)
    R = radius(job.fam, job.base)
    lams = _lams(job, n_max + 200)
    for i, j in _sample(rng, codes == 2, SAMPLE_PIXELS):
        w = _pixel_w(grid, i, j)
        if mp_exit_step(job.fam, lams, w, R, n_max) is None:
            fails.append(f"pixel ({i},{j}) y={w:.6g}: marked escaped, but the orbit stays in the bidisc")
    for i, j in _sample(rng, codes == 0, SAMPLE_PIXELS):
        w = _pixel_w(grid, i, j)
        n = mp_exit_step(job.fam, lams, w, R, n_max)
        if n is not None:
            fails.append(f"pixel ({i},{j}) y={w:.6g}: marked interior, but the orbit leaves the bidisc at step {n}")
    row = read_csv(out / "julia.csv")[0]
    mass, off = float(row["total_mass"]), float(row["off_band_fraction"])
    if _window_holds_support(job) and abs(mass - TWO_PI) > MASS_RTOL * TWO_PI:
        fails.append(f"julia total mass {mass:.6g} is not within {MASS_RTOL:.0%} of 2 pi")
    if not 0.0 <= off <= 1.0:
        fails.append(f"off-band fraction {off} outside [0, 1]")
    return fails


def check_slice_mass(job, out: Path, rng) -> list[str]:
    fails = []
    rows = read_csv(out / "slice_mass.csv")
    want = [int(v) for v in job.config["experiment"]["resolutions"].split(",")]
    if [int(r["resolution"]) for r in rows] != want:
        return [f"slice_mass.csv lists resolutions {[r['resolution'] for r in rows]}, expected {want}"]
    for r in rows:
        res, mass = int(r["resolution"]), float(r["total_mass"])
        head, den = read_grid(out / f"density_{res}.grid")
        if den.shape != (res - 2, res - 2) or not abs(float(den.sum()) - mass) <= 1e-6 * max(1.0, abs(mass)):
            fails.append(f"density_{res}.grid does not sum to the reported mass {mass:.9g}")
        if _window_holds_support(job) and abs(mass - TWO_PI) > MASS_RTOL * TWO_PI:
            fails.append(f"mass {mass:.6g} at {res}^2 is not within {MASS_RTOL:.0%} of 2 pi")
    return fails


# -- averaged Green function ---------------------------------------------------


def word_values(fam, words: np.ndarray, y0: np.ndarray, R: float):
    """Green values of (0, y0) along each word, bracketed: (lo, hi) of shape (words, points).

    An orbit that reaches |y| > 1e30 in the forward wedge has its value to
    1e-29 whatever follows; one that has not by the word's end is bounded
    by d^-n (log+ ||z_n|| + log(sqrt(2) R) + 2).
    """
    d = degree(fam)
    n_w, n_p = words.shape[0], y0.size
    x = np.zeros(n_w * n_p, dtype=complex)
    y = np.tile(y0.astype(complex), n_w)
    lo = np.zeros(n_w * n_p)
    done = np.zeros(n_w * n_p, dtype=bool)
    depth = words.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(depth):
            act = np.flatnonzero(~done)
            lam = np.repeat(words[:, k], n_p)[act]
            x[act], y[act] = step(fam, lam, x[act], y[act])
            ay, ax = np.abs(y[act]), np.abs(x[act])
            esc = (ay > FREEZE) & (ay >= ax)
            hit = act[esc]
            lo[hit] = (np.log(ay[esc]) + 0.5 * np.log1p((ax[esc] / ay[esc]) ** 2)) / float(d) ** (k + 1)
            done[hit] = True
    hi = lo.copy()
    rest = ~done
    norm = np.hypot(np.abs(x[rest]), np.abs(y[rest]))
    hi[rest] = (np.log(np.maximum(norm, 1.0)) + math.log(math.sqrt(2.0) * R) + 2.0) / float(d) ** depth
    return lo.reshape(n_w, n_p), hi.reshape(n_w, n_p)


def _hoeffding(span, n: int) -> np.ndarray:
    return span * math.sqrt(math.log(2.0 / HOEFFDING_DELTA) / (2.0 * n))


def check_avg_green(job, out: Path, rng) -> list[str]:
    head, mean = read_grid(out / "avg_green.grid")
    _, se = read_grid(out / "avg_green_stderr.grid")
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(se)) and mean.min() >= 0 and se.min() >= 0):
        return ["averaged Green values and standard errors must be finite and >= 0"]
    n_mc = int(job.config["experiment"]["n_mc"])
    tol = float(job.config["experiment"].get("tol", "1e-6"))
    R = radius(job.fam, job.base)
    pix = _sample(rng, mean >= 0, 2 * SAMPLE_PIXELS)
    y0 = np.array([_pixel_w(head, i, j) for i, j in pix])
    depth = 12
    if job.base["kind"] == "finite":
        letters = base_grid(job.base)
        m = len(letters)
        idx = np.arange(m ** depth)
        words = np.stack([letters[(idx // m ** k) % m] for k in range(depth)], axis=1)
        lo, hi = word_values(job.fam, words, y0, R)
        e_lo, e_hi, own = lo.mean(axis=0), hi.mean(axis=0), 0.0
    else:  # box base: our own Monte-Carlo estimate, with its own Hoeffding margin
        (a, b), m = (float(v) for v in job.base["bounds"].split(",")), 2048
        words = rng.uniform(a, b, size=(m, depth)).astype(complex)
        lo, hi = word_values(job.fam, words, y0, R)
        e_lo, e_hi = lo.mean(axis=0), hi.mean(axis=0)
        own = _hoeffding(hi.max(axis=0) - lo.min(axis=0), m)
    slack = _hoeffding(hi.max(axis=0) - lo.min(axis=0), n_mc) + own + tol
    fails = []
    for k, (i, j) in enumerate(pix):
        v = mean[j, i]
        if not e_lo[k] - slack[k] <= v <= e_hi[k] + slack[k]:
            fails.append(
                f"pixel ({i},{j}): average {v:.9g} outside [{e_lo[k]:.9g}, {e_hi[k]:.9g}] +/- {slack[k]:.3g}"
            )
    return fails


# -- convergence probes ----------------------------------------------------------


def _errors(path: Path, col: str = "e_n"):
    rows = read_csv(path)
    return np.array([int(r["n"]) for r in rows]), np.array([float(r[col]) for r in rows]), rows


def check_converge(job, out: Path, rng) -> list[str]:
    n, e, _ = _errors(out / "converge.csv")
    d = degree(job.fam)
    depth = int(job.config["experiment"]["n_max"])
    fails = []
    if list(n) != list(range(1, depth + 1)) or not np.all(np.isfinite(e)) or e.min() < 0:
        return ["converge.csv must list finite, non-negative errors for n = 1..n_max"]
    fit = json.loads((out / "fit.json").read_text())
    basis = n * float(d) ** (-n.astype(float))
    a = float(e @ basis / (basis @ basis))
    if not abs(a - fit["A"]) <= 1e-5 * max(abs(a), 1e-12) + 1e-12:
        fails.append(f"fit.json A = {fit['A']} but least squares on converge.csv gives {a:.6g}")
    if not e[-1] < e[0]:
        fails.append(f"pullback error does not fall: e_1 = {e[0]:.3g}, e_{depth} = {e[-1]:.3g}")
    return fails


def check_theta(job, out: Path, rng) -> list[str]:
    n, e, rows = _errors(out / "theta.csv")
    floor = np.array([float(r["noise_floor"]) for r in rows])
    depth = int(job.config["experiment"]["n_max"])
    if list(n) != list(range(1, depth + 1)):
        return ["theta.csv must list n = 1..n_max"]
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(floor)) and e.min() >= 0 and floor.min() >= 0):
        return ["theta errors and noise floors must be finite and >= 0"]
    return [] if e[-1] < e[0] else [f"averaged pullback error does not fall: {e[0]:.3g} -> {e[-1]:.3g}"]


def check_rigidity(job, out: Path, rng) -> list[str]:
    """|u1 - u2| <= log(2)/2 for Fubini-Study vs log+, so the distance is <= d^-n log(2)/2."""
    row = read_csv(out / "rigidity.csv")[0]
    n, dist = int(row["n_max"]), float(row["distance"])
    bound = 0.5 * math.log(2.0) * float(degree(job.fam)) ** (-n)
    return [] if 0.0 <= dist <= bound * (1 + 1e-9) else [f"rigidity distance {dist:.6g} not in [0, {bound:.6g}]"]


# -- entropy ---------------------------------------------------------------------


def survivors(fam, lam, x, y, R: float, n_hi: int) -> list[int]:
    """Candidates whose first n orbit points stay in the bidisc, for n = 1..n_hi (identity base)."""
    ok = (np.abs(x) <= R) & (np.abs(y) <= R)
    out = [int(ok.sum())]
    x, y = np.where(ok, x, 0), np.where(ok, y, 0)
    for _ in range(1, n_hi):
        x, y = step(fam, lam, x, y)
        ok &= (np.abs(x) <= R) & (np.abs(y) <= R)
        x, y = np.where(ok, x, 0), np.where(ok, y, 0)
        out.append(int(ok.sum()))
    return out


def check_entropy(job, out: Path, rng) -> list[str]:
    # Redraws the candidate cloud with the program (untimed) to count survivors.
    from henonskew.cli import parse_base, parse_family
    from henonskew.entropy import draw_candidates
    from henonskew.filtration import compute_radius

    exp = job.config["experiment"]
    rows = read_csv(out / "entropy.csv")
    n_lo, n_hi = int(exp["n_lo"]), int(exp["n_hi"])
    if [int(r["n"]) for r in rows] != list(range(n_lo, n_hi + 1)):
        return ["entropy.csv must list n = n_lo..n_hi"]
    fam, base = parse_family(job.config["family"]), parse_base(job.config["base"])
    flt = compute_radius(fam, base.space)
    lam, x, y = draw_candidates(fam, base, None, int(exp["candidates"]), int(exp["seed"]), flt=flt)
    surv = survivors(job.fam, lam, x, y, flt.R, n_hi)
    fails = []
    for r in rows:
        n, s, rate = int(r["n"]), int(r["s_n"]), float(r["rate"])
        if not 1 <= s <= surv[n - 1]:
            fails.append(f"n={n}: s_n = {s} not in [1, survivors = {surv[n - 1]}]")
        want = math.log(s) / n if s > 1 else 0.0
        if not (math.isfinite(rate) and abs(rate - want) <= 1e-8 * max(1.0, want)):
            fails.append(f"n={n}: rate {rate} is not log(s_n)/n = {want:.9g}")
    return fails


# -- projective (diagonal power lift, scale s: G = log|s| + log max|x_i|) ---------


def check_constants(job, out: Path, rng) -> list[str]:
    row = read_csv(out / "constants.csv")[0]
    l, L, r, R = (float(row[k]) for k in ("l", "L", "r", "R"))
    s = abs(job.base["_scale"])
    m = float(job.config["experiment"]["margin"])
    fails = []
    # on the unit sphere ||F|| ranges over [s / sqrt(3), s]; sampling only narrows the range
    hi = (1 + m) * s
    if not 0.95 * hi <= L <= hi * (1 + 1e-7):
        fails.append(f"L = {L:.9g} not within 5% below (1 + margin) s = {hi:.9g}")
    lo = (1 - m) * s / math.sqrt(3.0)
    if not lo * (1 - 1e-7) <= l <= lo * 1.05:
        fails.append(f"l = {l:.9g} not within 5% above (1 - margin) s / sqrt 3 = {lo:.9g}")
    # ||F(x)|| lies in [l, L] * ||x||^d: ||x|| <= r halves the norm when L r^(d-1) = 1/2, and
    # ||x|| >= R certifies escape only if l R^(d-1) >= 2 (the norm at least doubles each step)
    d = int(job.config["lift"]["d"])
    if not abs(r - (2 * L) ** (-1 / (d - 1))) <= 1e-7 * r:
        fails.append(f"attraction radius r = {r:.9g} is not (2L)^(-1/(d-1)) = {(2 * L) ** (-1 / (d - 1)):.9g}")
    if not l * R ** (d - 1) >= 2 * (1 - 1e-7):
        fails.append(f"escape radius R = {R:.9g} does not certify escape: l R^(d-1) = {l * R ** (d - 1):.6g} < 2")
    return fails


def check_basin_raster(job, out: Path, rng) -> list[str]:
    from henonskew.cli import parse_base, parse_lift
    from henonskew.projective import green_proj

    exp = job.config["experiment"]
    codes = np.rint(read_pgm(out / "basin.pgm") / 32767.5).astype(int)
    n = int(exp["resolution"])
    if codes.shape != (n, n):
        return [f"basin.pgm shape {codes.shape}, expected ({n}, {n})"]
    a0, a1, b0, b1 = (float(v) for v in exp["window"].split(","))
    w = np.linspace(a0, a1, n)[None, :] + 1j * np.linspace(b0, b1, n)[:, None]
    pb = [float(v) for v in exp["plane_base"].split(",")]
    s = abs(job.base["_scale"])
    # plane_dir is (1, 0, 0): the point is (pb0 + w, pb1, pb2)
    g = math.log(s) + np.log(np.maximum(np.abs(pb[0] + w), max(abs(pb[1]), abs(pb[2]))))
    fails = []
    wrong = ((codes == 0) & (g > 1e-9)) | ((codes == 2) & (g < -1e-9))
    if wrong.any():
        fails.append(f"{int(wrong.sum())} pixels labelled against the sign of G = log|s| + log max|x_i|")
    lift, base = parse_lift(job.config["lift"]), parse_base(job.config["base"])
    for i, j in _sample(rng, codes != 1, 4):
        pt = np.array([pb[0] + w[j, i], pb[1], pb[2]], dtype=complex)
        gp = green_proj(lift, base, 0.0, pt, tol=1e-9)
        if not abs(gp - g[j, i]) <= 1e-6:
            fails.append(f"pixel ({i},{j}): green_proj {gp:.9g} vs closed form {g[j, i]:.9g}")
        elif (codes[j, i] == 0) != (gp < 0):
            fails.append(f"pixel ({i},{j}): label {codes[j, i]} disagrees in sign with green_proj {gp:.6g}")
    return fails


CHECKS = {
    "filtration": check_filtration,
    "green-raster": check_green_raster,
    "julia-raster": check_julia_raster,
    "slice-mass": check_slice_mass,
    "avg-green": check_avg_green,
    "theta": check_theta,
    "converge": check_converge,
    "rigidity": check_rigidity,
    "entropy": check_entropy,
    "constants": check_constants,
    "basin-raster": check_basin_raster,
}


def check(job, outdir: Path, seed: int) -> list[str]:
    """Failures of one job's outputs; a check that raises is a failure too."""
    rng = np.random.Generator(np.random.PCG64(seed))
    try:
        return CHECKS[job.kind](job, Path(outdir), rng)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [f"check raised {type(exc).__name__}: {exc}"]
