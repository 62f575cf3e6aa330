#!/usr/bin/env python3
"""henonskew benchmark: CLI-subcommand latencies on seeded workloads.

    python3 bench/run.py --workload fibered-rasters --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from that
checkout's ``src/`` and nowhere else. One client runs the workload's jobs
back to back (closed loop, one thread); each job is an in-process
``henonskew.cli.run(config, outdir)``. Whole passes over the job list
repeat until the time is used up. After the loop, every job's outputs are
checked by the oracles in ``oracles.py``, and every repeat of a job must
write byte-identical outputs.

The measuring is done by worker processes started one after another, with
``MALLOC_TUNABLES`` in their environment (see below). ``--trace 0`` splits
``--seconds`` over ``WORKERS`` of them (each sets up, which gives the
set-up samples, then measures) and prints the end-to-end metrics of the
pooled samples. ``--trace 1`` uses two: one for two thirds of the time,
with untraced and traced passes in turn (spans around the program's public
functions, see ``spans.py``), then one with glibc's default malloc settings
for the rest; it prints the per-layer metrics.

The last line of standard output is the result object; the line before it
is a report with the machine block, the code under test, job counts,
output digests and oracle failures, also written to
``.bench_out/report-<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A process keeps one memory layout for its life, and on a 2-core VM the same
# small job ran up to 1.6x apart between processes (large ones about 1.15x);
# pooling the samples of several fresh processes evens that out.
WORKERS = 6

# glibc keeps freed memory in the process instead of unmapping it (mmap
# threshold 32 MiB, no trimming). With the defaults a pass took about 0.65
# million page faults and a third of its time in the kernel, and the cost of
# a fault on the shared VM moved with the host's load; with these, about
# 20 thousand. Timings then measure the program's work, and peak_rss_mb is
# the heap's high-water mark. A user with default settings pays the faults on
# top: the traced run reports that cost as the malloc.default_* metrics.
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=17179869184"

PROJECTIVE_DEFECT = (
    "the program's constants and basin-raster outputs fail their oracles (escape radius R = (2l)^(-1/(d-1)) "
    "does not certify escape), and a workload must be one on which no operation fails; the self-check runs "
    "these oracles on the program's output and reports the failure"
)

# metrics of the benchmark's design that it does not report, with the reason
DROPPED = {
    "failed_fraction": "reported as ok_fraction = 1 - failed / attempted: a metric that reads 0 on every "
    "correct run has no relative bound; the failed count is also the result's `failed` key",
    "entropy.saturation": "reported per packing scale as entropy.saturation.eps0.05 and entropy.saturation.eps0.4: "
    "one median over both would not show whether the unsaturated regime is present",
    **{
        f"{kind}_s": "every end-to-end metric is reported on every workload, and each subcommand runs in one "
        "workload: a subcommand's median is reported as that workload's cmd1_s .. cmd4_s (workloads.SLOTS)"
        for kind in ("filtration", "green-raster", "julia-raster", "slice-mass", "avg-green", "theta",
                     "converge", "rigidity", "entropy")
    },
    **{
        name: PROJECTIVE_DEFECT
        for name in ("basin-raster_s", "constants_s", "projective.constants.s", "projective.basin.s",
                     "projective.basin.points_per_s")
    },
}


class BenchError(Exception):
    """The benchmark cannot run here; exit without a result."""


def import_program():
    """Import henonskew from this checkout's src/ and refuse any other copy."""
    if not (SRC / "henonskew" / "__init__.py").is_file():
        raise BenchError(f"no henonskew package under {SRC.relative_to(ROOT)}/")
    sys.path.insert(0, str(SRC))
    import henonskew

    path = Path(henonskew.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise BenchError(f"henonskew imported from {path}, outside the checkout under test")
    sys.path.insert(0, str(HERE))
    return henonskew


def build_jobs(workload: str, seed: int, small: bool = False):
    import workloads

    if workload not in workloads.JOB_LISTS:
        raise BenchError(f"unknown workload {workload!r}; choose one of {sorted(workloads.JOB_LISTS)}")
    return workloads.build_small(workload, seed) if small else workloads.build(workload, seed)


def set_up(workload: str, seed: int, small: bool = False):
    """Import the program, build the job list, run one warm-up job. Returns (jobs, seconds)."""
    t0 = time.perf_counter()
    import_program()
    import workloads
    from henonskew import cli

    jobs = build_jobs(workload, seed, small)
    with _quiet():
        cli.run(workloads.warmup_job(jobs, workload).config, OUT / f"warmup-{os.getpid()}")
    return jobs, time.perf_counter() - t0


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def run_worker(index: int, args, seconds: float, workdir: Path, trace: int, tuned: bool = True) -> dict:
    """One measuring process, with MALLOC_TUNABLES or glibc's defaults; returns its last line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--worker", str(index), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--workdir", str(workdir)] + (["--small"] if args.small else [])
    env = {k: v for k, v in os.environ.items() if k != "GLIBC_TUNABLES"}
    if tuned:
        env["GLIBC_TUNABLES"] = MALLOC_TUNABLES
    res = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if res.returncode:
        raise BenchError(f"worker {index} exited with {res.returncode}: {res.stderr.strip()[-800:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# machine block and code under test


def machine_block() -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def _commit() -> str | None:
    """The checked-out commit when the checkout is a git work tree (it need not be)."""
    with contextlib.suppress(OSError):
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "henonskew").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the closed loop


def run_job(job, outdir: Path, threads: int = 1):
    """Run one job; returns (seconds, error or None). Only the call is timed."""
    from henonskew import cli

    with _quiet():
        t0 = time.perf_counter()
        try:
            cli.run(job.config, outdir, threads)
        except Exception as exc:  # a failing job is counted, the loop goes on
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, None


def execute(i: int, job, outdir: Path, threads: int = 1) -> dict:
    """Run job `i` once into `outdir`; its record: time, error and output digests."""
    import oracles

    dt, err = run_job(job, outdir, threads)
    digests = {}
    if err is None:
        try:
            digests = oracles.output_digests(outdir)
        except OSError as exc:
            err = f"unreadable outputs: {exc}"
    return {"job": i, "seconds": dt, "error": err, "digests": digests, "threads": threads}


def run_passes(jobs, workdir: Path, seconds: float, records: list, on_job=None) -> int:
    """Whole passes over the job list (at least one) until the next would overrun `seconds`.

    Appends one record per job execution; returns the number of passes.
    """
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        wall = 0.0
        for i, job in enumerate(jobs):
            if on_job:
                on_job(len(records), job)
            rec = execute(i, job, workdir / f"job{i:03d}")
            rec["pass"] = len(walls)
            records.append(rec)
            wall += rec["seconds"]
        walls.append(wall)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return len(walls)


def verify(jobs, workdir: Path, records: list, seed: int) -> dict[int, list[str]]:
    """Oracle failures per job index; marks repeats whose outputs changed."""
    import oracles

    fails: dict[int, list[str]] = {}
    first: dict[int, dict] = {}
    for r in records:
        if r["error"] is None:
            first.setdefault(r["job"], r["digests"])
    for i, job in enumerate(jobs):
        if i in first:
            msgs = oracles.check(job, workdir / f"job{i:03d}", seed * 1000 + i)
            if msgs:
                fails[i] = msgs
    for r in records:
        if r["error"] is None and r["digests"] != first[r["job"]]:
            r["error"] = f"outputs at {r['threads']} thread(s) differ from the first run of this job"
    return fails


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def job_list_seconds(jobs, records) -> float:
    """Time to run the job list once: the sum of each job's median time.

    Per-job medians keep one slow moment on the shared machine from
    setting the figure, as the wall time of a single pass would.
    """
    return sum(_median([r["seconds"] for r in records if r["job"] == i]) for i in range(len(jobs)))


# ---------------------------------------------------------------------------
# worker side


def measure(jobs, workdir: Path, seconds: float, tag: str) -> dict:
    records: list = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    passes = run_passes(jobs, workdir, seconds, records)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"records": records, "page_faults_per_pass": faults / passes}


def measure_traced(jobs, workdir: Path, seconds: float, tag: str) -> dict:
    """Untraced and traced passes in turn; per-layer metrics are medians over traced passes."""
    import numpy as np
    import spans

    tracer = spans.Tracer()
    base_records: list = []
    records: list = []

    def on_job(job_id, job):
        tracer.job_id, tracer.current_job = job_id, job

    start = time.perf_counter()
    passes = 0
    while not passes or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        run_passes(jobs, workdir, 0.0, base_records)
        tracer.install()
        tracer.enabled = True
        try:
            first = len(records)
            run_passes(jobs, workdir, 0.0, records, on_job)
        finally:
            tracer.enabled = False
            tracer.uninstall()
        for r in records[first:]:
            r["pass"] = passes
        passes += 1

    per_pass = [spans.pass_metrics(tracer, {k for k, r in enumerate(records) if r["pass"] == p}) for p in range(passes)]
    metrics = {k: float(np.median([m[k] for m in per_pass])) for k in per_pass[0]}

    # thread scaling of the green-raster jobs, untraced, 1 and 2 threads interleaved; each run
    # writes its own directory, and verify() holds its outputs to the job's first digests
    scaling = [
        execute(i, job, workdir / f"threads{threads}-job{i:03d}", threads) | {"pass": passes}
        for i, job in enumerate(jobs) if job.kind == "green-raster" for threads in (1, 2)
    ]
    t1, t2 = (sum(r["seconds"] for r in scaling if r["threads"] == k) for k in (1, 2))
    metrics["green.field.thread2_speedup"] = t1 / t2 if t2 else 0.0
    metrics["trace.wall_s"] = job_list_seconds(jobs, records)
    metrics["trace.untraced_wall_s"] = job_list_seconds(jobs, base_records)
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"]

    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{tag}.npz")
    detail = {"passes": passes, "spans": len(tracer.t0), "untraced_targets": tracer.missing}
    return {"records": base_records + records + scaling, "metrics": metrics, "detail": detail}


def worker(args) -> int:
    jobs, setup_s = set_up(args.workload, args.seed, args.small)
    run = measure_traced if args.trace else measure
    out = run(jobs, Path(args.workdir), args.seconds, f"{args.workload}-{args.seed}")
    for r in out["records"]:
        r["worker"] = args.worker
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# parent side


def end_to_end(workload, jobs, results, records, failed) -> tuple[dict, dict]:
    import workloads

    setups = [res["setup_s"] for res in results]
    metrics = {"setup_s": _median(setups), "wall_s": job_list_seconds(jobs, records)}
    counts = {}
    for k, group in enumerate(workloads.SLOTS[workload], start=1):
        # the mean of per-job medians: a pooled median over a group of two jobs of different
        # sizes would jump between them with the sample count
        members = [i for i, job in enumerate(jobs) if job.group == group]
        per_job = [_median([r["seconds"] for r in records if r["job"] == i]) for i in members]
        metrics[f"cmd{k}_s"] = statistics.fmean(per_job)
        counts[f"cmd{k}_s"] = {"group": group, "jobs": len(members),
                               "samples": sum(1 for r in records if r["job"] in members)}
    metrics["ok_fraction"] = 1.0 - failed / len(records)
    metrics["peak_rss_mb"] = max(res["peak_rss_mb"] for res in results)
    detail = {
        "passes_per_worker": [1 + max(r["pass"] for r in res["records"]) for res in results],
        "cmd_samples": counts,
        "setup_samples_s": setups,
        "peak_rss_mb_per_worker": [res["peak_rss_mb"] for res in results],
    }
    return metrics, detail


def default_malloc(jobs, res, tuned_wall_s: float) -> dict:
    """What the MALLOC_TUNABLES of the measuring workers hide: the job list under glibc's defaults."""
    wall = job_list_seconds(jobs, res["records"])
    return {
        "malloc.default_wall_s": wall,
        "malloc.default_over_tuned": wall / tuned_wall_s,
        "malloc.default_page_faults": res["page_faults_per_pass"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    ap.add_argument("--small", action="store_true", help="every job at its small size (for the self-check)")
    args = ap.parse_args(argv)

    try:
        if args.worker is not None:
            return worker(args)
        henonskew = import_program()
        jobs = build_jobs(args.workload, args.seed, args.small)
        machine = machine_block()
        code = {
            "henonskew_file": str(Path(henonskew.__file__).resolve().relative_to(ROOT)),
            "src_sha256": source_digest(),
        }
        workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
        try:
            if args.trace:  # the traced worker, then untraced passes under glibc's default malloc
                results = [run_worker(0, args, args.seconds * 2 / 3, workdir, 1),
                           run_worker(1, args, args.seconds / 3, workdir, 0, tuned=False)]
            else:
                results = [run_worker(w, args, args.seconds / WORKERS, workdir, 0) for w in range(WORKERS)]
            records = [r for res in results for r in res["records"]]
            fails = verify(jobs, workdir, records, args.seed)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            for p in OUT.glob("warmup-*"):
                shutil.rmtree(p, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    failed = sum(1 for r in records if r["error"] or r["job"] in fails)
    if args.trace:
        metrics, detail = results[0]["metrics"], results[0]["detail"]
        metrics |= default_malloc(jobs, results[1], metrics["trace.untraced_wall_s"])
    else:
        metrics, detail = end_to_end(args.workload, jobs, results, records, failed)
    machine["loadavg_end"] = list(os.getloadavg())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "code_under_test": code,
        **detail,
        "jobs": [
            {
                "name": job.name,
                "group": job.group,
                "seconds": [r["seconds"] for r in records if r["job"] == i and r["threads"] == 1],
                "errors": sorted({r["error"] for r in records if r["job"] == i and r["error"]}),
                "oracle_failures": fails.get(i, []),
                "digests": next((r["digests"] for r in records if r["job"] == i and r["digests"]), {}),
            }
            for i, job in enumerate(jobs)
        ],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({k: report[k] for k in ("machine", "code_under_test")} | detail))
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
