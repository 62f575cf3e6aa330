"""Seeded job lists for the three benchmark workloads.

Every job is an INI config for ``henonskew.cli.run``; the program sees only
these configs. The seed picks family parameters (in narrow bands), the
pairing of families with bases, windows and base points. Sizes are fixed
per workload so that runs with different seeds do comparable work.

Alongside each config the job carries a plain description of its family
and base (``Job.fam``, ``Job.base``) in the benchmark's own terms, so the
oracles in ``oracles.py`` can evaluate the maps without the program.

Each subcommand runs in at most one workload. A workload's four groups of
jobs (``SLOTS``) give its end-to-end metrics ``cmd1_s`` .. ``cmd4_s``.

The projective subcommands (``constants``, ``basin-raster``) are in no
workload: their outputs fail their oracles at the commit that added the
benchmark (see README.md). ``projective_jobs`` builds them for the
self-check, which runs their oracles and reports the failure.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("fibered-rasters", "random-averages", "entropy-packing")

# job groups behind each workload's cmd1_s .. cmd4_s, in that order
SLOTS = {
    "fibered-rasters": ("filtration", "green-raster", "julia-raster", "slice-mass"),
    "random-averages": ("avg-green", "theta", "converge", "rigidity"),
    "entropy-packing": ("quadratic-u/eps0.05", "quadratic-u/eps0.4", "quad-quad-u/eps0.05", "quad-quad-u/eps0.4"),
}

# entropy packing scales: the CLI default, where packing is saturated (s_n = survivors_n), and
# one where it is not (s_n / survivors_n about 0.6 to 0.84 at 2000 candidates and n = 2..5)
ENTROPY_EPS = (0.05, 0.4)

# A coefficient is (c0, cu), meaning c0 + cu * u with u = Re(lam); a factor is
# (degree, coefficients for y^(d-1)..y^0, a); a family is a tuple of factors.


@dataclass
class Job:
    """One CLI run.

    ``base`` holds the base's config keys plus ``_lam`` and ``_label`` (for
    lift jobs, the lift's ``_scale``); ``group`` is the job's slot group in
    ``SLOTS`` and defaults to its kind.
    """

    name: str
    kind: str
    config: configparser.ConfigParser
    fam: tuple = ()
    base: dict = field(default_factory=dict)
    group: str = ""

    def __post_init__(self):
        self.group = self.group or self.kind


def _cx(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    sign = "-" if z.imag < 0 else "+"
    return f"({z.real!r} {sign} {abs(z.imag)!r}i)"


def _coef_text(c) -> str:
    c0, cu = c
    return _cx(c0) if cu == 0 else f"{_cx(c0)} + {cu!r}*u"


def _small(rng, r: float) -> complex:
    """Complex number of modulus <= r, rounded so configs print compactly."""
    z = r * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    return complex(round(z.real, 4), round(z.imag, 4))


def _quad(rng, a_lo=0.295, a_hi=0.305, c_r=0.005, cu=0.0):
    a = round(float(rng.uniform(a_lo, a_hi)), 4)
    return (2, ((0j, 0.0), (_small(rng, c_r), cu)), (complex(a), 0.0))


def _cubic(rng):
    a = round(float(rng.uniform(0.295, 0.305)), 4)
    return (3, ((0j, 0.0), (_small(rng, 0.005), 0.0), (_small(rng, 0.005), 0.0)), (complex(a), 0.0))


def _config(fam, base: dict, exp: dict) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    fsec = {}
    for j, (deg, coeffs, a) in enumerate(fam, start=1):
        fsec[f"factor{j}.degree"] = str(deg)
        fsec[f"factor{j}.coeffs"] = ", ".join(_coef_text(c) for c in coeffs)
        fsec[f"factor{j}.a"] = _coef_text(a)
    cfg["family"] = fsec
    cfg["base"] = {k: v for k, v in base.items() if not k.startswith("_")}
    cfg["experiment"] = {k: str(v) for k, v in exp.items()}
    return cfg


def _lift_config(scale: float, exp: dict) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    cfg["lift"] = {"k": "2", "d": "2", **{f"component{i}": f"{scale!r}*x{i}^2" for i in range(3)}}
    cfg["base"] = {"kind": "finite", "points": "0"}
    cfg["experiment"] = {k: str(v) for k, v in exp.items()}
    return cfg


def _window(rng, half: float) -> str:
    cx, cy = rng.uniform(-0.01, 0.01, 2)
    h = half * rng.uniform(0.995, 1.005)
    return f"{cx - h:.4f}, {cx + h:.4f}, {cy - h:.4f}, {cy + h:.4f}"


# ---------------------------------------------------------------------------
# bases


def _fibered_bases(rng):
    """Identity, rotation and contraction bases with a base point each."""
    return [
        {"kind": "finite", "points": "0", "sigma": "identity", "_lam": 0j, "_label": "identity"},
        {
            "kind": "circle",
            "sigma": f"rotation:{rng.uniform(0.2, 0.45):.4f}",
            "_lam": complex(round(float(rng.uniform(0, 1)), 4)),
            "_label": "rotation",
        },
        {
            "kind": "box",
            "bounds": "-0.1, 0.1",
            "sigma": f"contraction:{rng.uniform(0.3, 0.7):.4f}",
            "_lam": complex(round(float(rng.uniform(-0.1, 0.1)), 4)),
            "_label": "contraction",
        },
    ]


def _shift_bases(rng):
    w = round(float(rng.uniform(0.098, 0.102)), 4)
    p = round(float(rng.uniform(0.098, 0.102)), 4)
    return [
        {"kind": "box", "bounds": f"{-w!r}, {w!r}", "sigma": "shift", "_label": "box"},
        {"kind": "finite", "points": f"{-p!r}, {p!r}", "sigma": "shift", "_label": "finite",
         "_points": (complex(-p), complex(p))},
    ]


def _lam_str(base: dict) -> str:
    return _cx(base.get("_lam", 0j))


# ---------------------------------------------------------------------------
# job lists


def _raster_jobs(rng, fam, fname, base, sizes):
    """filtration, green-raster, julia-raster and slice-mass on one family."""
    seed = int(rng.integers(1, 10_000))
    common = {"seed": seed, "slice": "x=0", "lam": _lam_str(base), "window": _window(rng, 3.3)}
    tag = f"{fname}/{base['_label']}"
    specs = {
        "filtration": {"seed": seed, "points": sizes["points"]},
        "green-raster": {**common, "resolution": sizes["green"]},
        "julia-raster": {**common, "resolution": sizes["julia"]},
        "slice-mass": {**common, "resolutions": sizes["mass"]},
    }
    return [
        Job(f"{k}/{tag}", k, _config(fam, base, {"kind": k, **spec}), fam, base) for k, spec in specs.items()
    ]


def _random_jobs(rng, fam, base, sizes, kinds):
    """avg-green, theta, converge and rigidity over one shift base."""
    seed = int(rng.integers(1, 10_000))
    common = {"seed": seed, "slice": "x=0", "window": _window(rng, 2.6)}
    tag = f"quadratic-u/{base['_label']}"
    specs = {
        "avg-green": {"resolution": sizes["avg"], "n_mc": sizes["avg_mc"], "window": _window(rng, 3.3)},
        "theta": {"resolution": sizes["theta"], "n_mc": sizes["theta_mc"], "n_max": sizes["depth"]},
        "converge": {"resolution": sizes["converge"], "n_max": sizes["depth"]},
        "rigidity": {"resolution": sizes["rigidity"], "n_max": sizes["depth"]},
    }
    return [
        Job(f"{k}/{tag}", k, _config(fam, base, {**common, "kind": k, **specs[k]}), fam, base)
        for k in kinds
    ]


def _entropy_job(rng, fam, fname, base, eps, sizes):
    seed = int(rng.integers(1, 10_000))
    exp = {"kind": "entropy", "seed": seed, "eps": eps, "n_lo": 2, "n_hi": sizes["n_hi"],
           "candidates": sizes["candidates"], "lam": _lam_str(base)}
    name = f"entropy/{fname}/{base['_label']}/eps{eps}"
    return Job(name, "entropy", _config(fam, base, exp), fam, base, group=f"{fname}/eps{eps}")


def _lift_jobs(rng, sizes, kinds):
    seed = int(rng.integers(1, 10_000))
    scale = round(float(rng.uniform(0.98, 1.02)), 4)
    pb = [0.0] + [round(float(v), 4) for v in rng.choice([-1, 1], 2) * rng.uniform(0.28, 0.32, 2)]
    half = float(rng.uniform(1.98, 2.02))
    lift = {"_scale": scale}
    specs = {
        "constants": {"kind": "constants", "seed": seed, "n_sphere": sizes["sphere"], "margin": 0.05},
        "basin-raster": {
            "kind": "basin-raster", "seed": seed, "n_sphere": sizes["sphere"], "margin": 0.05,
            "resolution": sizes["basin"], "window": f"{-half:.4f}, {half:.4f}, {-half:.4f}, {half:.4f}",
            "plane_base": ", ".join(repr(v) for v in pb), "plane_dir": "1, 0, 0", "depth": 100,
        },
    }
    return [Job(f"{k}/diag-lift", k, _lift_config(scale, specs[k]), (), lift) for k in kinds]


# ---------------------------------------------------------------------------
# workloads

FIBERED = {"points": 100000, "green": 512, "julia": 384, "mass": "192, 320"}
RANDOM = {"avg": 128, "avg_mc": 24, "theta": 96, "theta_mc": 12, "converge": 192, "rigidity": 192, "depth": 12}
ENTROPY = {"candidates": 2000, "n_hi": 5}

# every job at a size that costs tens of milliseconds (warm-up and self-check)
SMALL = {
    "points": 20000, "green": 64, "julia": 64, "mass": "48, 64",
    "avg": 32, "avg_mc": 4, "theta": 32, "theta_mc": 4, "converge": 48, "rigidity": 48, "depth": 8,
    "candidates": 300, "n_hi": 3, "sphere": 50000, "basin": 160,
}


def fibered_rasters(rng, sizes=FIBERED):
    fams = [("quadratic", (_quad(rng),)), ("cubic", (_cubic(rng),)), ("quad-quad", (_quad(rng), _quad(rng)))]
    bases = _fibered_bases(rng)
    perm = rng.permutation(3)
    jobs = []
    for (fname, fam), b in zip(fams, perm):
        jobs += _raster_jobs(rng, fam, fname, bases[b], sizes)
    return jobs


def random_averages(rng, sizes=RANDOM):
    jobs = []
    for base in _shift_bases(rng):
        fam = (_quad(rng, 0.195, 0.205, 0.005, cu=1.0),)
        jobs += _random_jobs(rng, fam, base, sizes, ("avg-green", "theta", "converge", "rigidity"))
    return jobs


def entropy_packing(rng, sizes=ENTROPY):
    jobs = []
    lam0 = complex(round(float(rng.uniform(-0.01, 0.01)), 4))
    bases = [
        {"kind": "finite", "points": _cx(lam0), "sigma": "identity", "_lam": lam0, "_label": "identity"},
        {"kind": "box", "bounds": "-0.1, 0.1", "sigma": "identity", "_lam": 0j, "_label": "box"},
    ]
    fams = [("quadratic-u", (_quad(rng, cu=0.5),)), ("quad-quad-u", (_quad(rng, cu=0.5), _quad(rng, cu=0.5)))]
    for fname, fam in fams:
        for base in bases:
            for eps in ENTROPY_EPS:
                jobs.append(_entropy_job(rng, fam, fname, base, eps, sizes))
    return jobs


JOB_LISTS = {
    "fibered-rasters": fibered_rasters,
    "random-averages": random_averages,
    "entropy-packing": entropy_packing,
}


PRIMARY = {"fibered-rasters": "green-raster", "random-averages": "avg-green", "entropy-packing": "entropy"}


def build(workload: str, seed: int, sizes: dict | None = None) -> list[Job]:
    """The workload's job list for one pass."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return JOB_LISTS[workload](rng, sizes) if sizes else JOB_LISTS[workload](rng)


def build_small(workload: str, seed: int) -> list[Job]:
    """The same job list with every job at SMALL size."""
    return build(workload, seed, SMALL)


def projective_jobs(seed: int) -> list[Job]:
    """``constants`` and ``basin-raster`` on the diagonal lift of P^2, at SMALL size (self-check only)."""
    return _lift_jobs(np.random.Generator(np.random.PCG64(seed)), SMALL, ("constants", "basin-raster"))


def warmup_job(jobs: list[Job], workload: str) -> Job:
    """The job list's first job of the workload's primary subcommand."""
    return next(j for j in jobs if j.kind == PRIMARY[workload])
