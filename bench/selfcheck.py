#!/usr/bin/env python3
"""Fast self-check of the benchmark at small sizes.

    python3 bench/selfcheck.py

1. Every metric the benchmark promises is emitted: each name in
   ``BENCHMARK.json`` appears in the output of an untraced and a traced
   pass, and each metric asked for in the benchmark's design is either in
   ``BENCHMARK.json`` or listed in ``run.DROPPED`` with its reason.
2. No oracle is vacuous: for every subcommand, the oracle passes on a
   correct output and flags a deliberately perturbed copy of it. Where the
   program's own output already fails its oracle (a defect of the program,
   reported as such), the correct output is built from the closed form
   (``REPAIR``). This covers the projective subcommands too, which no
   workload runs while their outputs fail (``workloads.projective_jobs``).

Exits 0 when every assertion holds; prints one line per check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

# the metrics of the benchmark's design (bench/README.md)
DESIGN_END_TO_END = ["setup_s", "wall_s", *(f"{k}_s" for k in (
    "filtration", "green-raster", "julia-raster", "slice-mass", "avg-green", "theta", "converge", "rigidity",
    "entropy", "basin-raster", "constants")), "failed_fraction", "peak_rss_mb"]
DESIGN_PER_LAYER = """
green.field.s green.field.calls green.field.mpix_per_s green.point_steps green.point_steps_per_s
green.certified_step_ratio green.bounded_fraction green.undecided green.avg_field.s green.field_seq.s
green.field_seq.calls green.mc_sequences green.values.s green.values.points expr.coeff_eval.calls
expr.coeff_eval.s family.poly_coeffs.calls family.poly_coeffs.s family.eval_map.s convergence.pullback.s
convergence.theta.s convergence.rigidity.s convergence.raster_passes currents.slice_measure.s
currents.julia_raster.s entropy.draw.s entropy.draw.acceptance entropy.pack.s entropy.survivors
entropy.saturation projective.constants.s projective.basin.s projective.basin.points_per_s
filtration.compute_radius.s filtration.compute_radius.calls filtration.check_invariance.s gridio.write.s
gridio.bytes cli.self_s green.field.thread2_speedup trace.wall_s trace.untraced_wall_s trace.overhead_ratio
""".split()


# ---------------------------------------------------------------------------
# perturbations: each returns nothing and edits the copy in place


def _edit_csv(path: Path, col: str, fn, row: int = 0) -> None:
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    cells = lines[1 + row].split(",")
    k = head.index(col)
    cells[k] = fn(cells[k])
    lines[1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_grid(path: Path, fn) -> None:
    import numpy as np

    raw = path.read_bytes()
    vals = np.frombuffer(raw[64:], dtype="<f8").copy()
    path.write_bytes(raw[:64] + fn(vals).astype("<f8").tobytes())


def _edit_pgm(path: Path, fn) -> None:
    import numpy as np

    parts = path.read_bytes().split(b"\n", 3)
    pix = np.frombuffer(parts[3], dtype=">u2").copy()
    path.write_bytes(b"\n".join(parts[:3]) + b"\n" + fn(pix).astype(">u2").tobytes())


def _swap_codes(pix):
    out = pix.copy()
    out[pix == 0] = 65535
    out[pix == 65535] = 0
    return out


PERTURB = {
    "filtration": lambda d: _edit_csv(d / "invariance.csv", "violations", lambda v: "1"),
    "green-raster": lambda d: _edit_grid(d / "green.grid", lambda v: v * 1.001),
    "julia-raster": lambda d: _edit_pgm(d / "julia.pgm", _swap_codes),
    "slice-mass": lambda d: _edit_csv(d / "slice_mass.csv", "total_mass", lambda v: repr(float(v) * 1.1)),
    "avg-green": lambda d: _edit_grid(d / "avg_green.grid", lambda v: v + 5.0),
    "theta": lambda d: _edit_csv(d / "theta.csv", "e_n", lambda v: "-1"),
    "converge": lambda d: _edit_csv(d / "converge.csv", "e_n", lambda v: repr(float(v) * 2.0), row=2),
    "rigidity": lambda d: _edit_csv(d / "rigidity.csv", "distance", lambda v: repr(float(v) * 1e3 + 1.0)),
    "entropy": lambda d: _edit_csv(d / "entropy.csv", "s_n", lambda v: "1000000000"),
    "constants": lambda d: _edit_csv(d / "constants.csv", "L", lambda v: repr(float(v) * 1.2)),
    "basin-raster": lambda d: _edit_pgm(d / "basin.pgm", _swap_codes),
}


def _closed_form_basin(job, d: Path) -> None:
    """Rewrite basin.pgm with labels from G = log|s| + log max|x_i| (diagonal lift)."""
    import numpy as np

    exp = job.config["experiment"]
    n = int(exp["resolution"])
    a0, a1, b0, b1 = (float(v) for v in exp["window"].split(","))
    w = np.linspace(a0, a1, n)[None, :] + 1j * np.linspace(b0, b1, n)[:, None]
    pb = [float(v) for v in exp["plane_base"].split(",")]
    g = np.log(abs(job.base["_scale"])) + np.log(np.maximum(np.abs(pb[0] + w), max(abs(pb[1]), abs(pb[2]))))
    codes = np.where(g < 0, 0, 65535).ravel()
    _edit_pgm(d / "basin.pgm", lambda pix: codes)


def _certified_constants(job, d: Path) -> None:
    """Rewrite constants.csv with the escape radius R = (2/l)^(1/(d-1))."""
    import oracles

    l = float(oracles.read_csv(d / "constants.csv")[0]["l"])
    deg = int(job.config["lift"]["d"])
    _edit_csv(d / "constants.csv", "R", lambda v: repr((2.0 / l) ** (1.0 / (deg - 1))))


# outputs of the program that fail their oracle at the commit that added the
# benchmark, and the closed-form repair that makes them correct
REPAIR = {"basin-raster": _closed_form_basin, "constants": _certified_constants}


# ---------------------------------------------------------------------------


def check_metrics(results: dict[str, dict]) -> list[str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["end_to_end"]} | {m["name"] for m in bench["per_layer"]}
    problems = []
    for name in DESIGN_END_TO_END + DESIGN_PER_LAYER:
        if name not in names and name not in run.DROPPED:
            problems.append(f"{name}: neither in BENCHMARK.json nor dropped with a reason")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for wl, res in results.items():
            emitted = set(res[trace]["metrics"])
            for m in bench[key]:
                if m["name"] not in emitted:
                    problems.append(f"{wl} trace {trace}: {m['name']} not emitted")
            extra = emitted - {m["name"] for m in bench[key]}
            if extra:
                problems.append(f"{wl} trace {trace}: emits metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def check_oracles(workdir: Path) -> list[str]:
    import oracles
    import workloads

    problems = []
    seen = {}
    for wl in workloads.WORKLOADS:
        for job in workloads.build_small(wl, 1):
            seen.setdefault(job.kind, job)
    for job in workloads.projective_jobs(1):
        seen.setdefault(job.kind, job)
    for kind, job in seen.items():
        d = workdir / kind
        secs, err = run.run_job(job, d)
        if err:
            problems.append(f"{kind}: job raised {err}")
            continue
        base = oracles.check(job, d, 7)
        note = ""
        if base and kind in REPAIR:
            note = f" (known defect, program output fails: {base[0]}; closed-form output used)"
            REPAIR[kind](job, d)
            base = oracles.check(job, d, 7)
        if base:
            problems.append(f"{kind}: oracle fails on a correct output: {base}")
            continue
        bad = workdir / f"{kind}-perturbed"
        shutil.copytree(d, bad)
        PERTURB[kind](bad)
        flagged = oracles.check(job, bad, 7)
        status = "ok" if flagged else "VACUOUS"
        print(f"oracle {kind:13s} {status}: perturbed copy -> {flagged[:1]}{note}")
        if not flagged:
            problems.append(f"{kind}: oracle does not flag a perturbed output")
    return problems


def run_small(workload: str, trace: int) -> dict:
    """The benchmark's result object for one pass at small sizes."""
    res = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace), "--small"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    if res.returncode:
        raise RuntimeError(f"{workload} trace {trace}: exit {res.returncode}: {res.stderr[-800:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main() -> int:
    run.import_program()
    import workloads

    workdir = run.OUT / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        problems = check_oracles(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = {wl: {t: run_small(wl, t) for t in (0, 1)} for wl in workloads.WORKLOADS}
    problems += check_metrics(results)
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
