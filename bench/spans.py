"""Outside-in spans around the program's public functions.

The tracer replaces each traced function in every ``henonskew`` module that
binds it (for example ``green_field_seq`` in ``green``, ``convergence``,
``currents`` and ``cli``) with a wrapper that records a span: name, start,
end, parent span and job id. Spans stay in memory, in flat arrays, until
the run ends. A layer's self time is its spans' durations minus the part
covered by child spans.

Some wrappers also read the data the function returns (pixel depths and
statuses, candidate counts, bytes written) to derive exact work counts.
That bookkeeping runs inside a ``trace.hook`` span, so it is charged to
the tracer and not to the caller's self time.

Spans are recorded on the main thread only; every traced job runs with
one thread.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from array import array

import numpy as np

from workloads import ENTROPY_EPS

# span name -> (module, attribute); "Class.method" patches the class
TARGETS = {
    "cli.run": ("henonskew.cli", "run"),
    "green.field": ("henonskew.green", "green_field"),
    "green.field_seq": ("henonskew.green", "green_field_seq"),
    "green.avg_field": ("henonskew.green", "avg_green_field"),
    "green.values": ("henonskew.green", "green_values"),
    "expr.coeff_eval": ("henonskew.expr", "CoeffMap.__call__"),
    "family.poly_coeffs": ("henonskew.family", "HenonFactor.poly_coeffs"),
    "family.eval_map": ("henonskew.family", "eval_map"),
    "family.eval_inverse": ("henonskew.family", "eval_inverse"),
    "filtration.compute_radius": ("henonskew.filtration", "compute_radius"),
    "filtration.check_invariance": ("henonskew.filtration", "check_invariance"),
    "convergence.pullback": ("henonskew.convergence", "pullback_convergence"),
    "convergence.theta": ("henonskew.convergence", "theta_average_pullback"),
    "convergence.rigidity": ("henonskew.convergence", "rigidity_probe"),
    # private, but the only place a pullback raster pass can be observed
    "convergence.pullback_stack": ("henonskew.convergence", "_pullback_stack"),
    "currents.slice_measure": ("henonskew.currents", "slice_measure"),
    "currents.julia_raster": ("henonskew.currents", "julia_raster"),
    "entropy.draw": ("henonskew.entropy", "draw_candidates"),
    "entropy.lower_bound": ("henonskew.entropy", "entropy_lower_bound"),
    "gridio.write_raw_grid": ("henonskew.gridio", "write_raw_grid"),
    "gridio.write_pgm16": ("henonskew.gridio", "write_pgm16"),
}

HOOK = "trace.hook"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("l")
        self.job = array("l")
        self._stack: list[int] = []
        self.enabled = False
        self.job_id = -1
        self.current_job = None
        self.counts: dict[tuple[int, str], float] = {}  # (job id, counter) -> value
        self.samples: dict[tuple[int, str], list] = {}  # (job id, name) -> values
        self.last_candidates = None
        self._main = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.t0)
        self.nid.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.t1.append(0.0)
        self._stack.append(i)
        self.t0.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.t1[i] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        k = (self.job_id, key)
        self.counts[k] = self.counts.get(k, 0.0) + value

    def sample(self, key: str, value) -> None:
        self.samples.setdefault((self.job_id, key), []).append(value)

    # -- patching ------------------------------------------------------

    def _wrap(self, fn, name: str, hook):
        nid = self.name_id(name)
        hook_id = self.name_id(HOOK)
        sig = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            i = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if hook is not None:
                h = tracer.open(hook_id)
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(tracer, bound.arguments, out)
                finally:
                    tracer.close(h)
            return out

        return traced

    def install(self) -> None:
        """Patch every binding of every target in the loaded henonskew modules."""
        self.missing = []
        mods = [m for n, m in sorted(sys.modules.items()) if n == "henonskew" or n.startswith("henonskew.")]
        for name, (modname, attr) in TARGETS.items():
            owner = sys.modules.get(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    self.missing.append(name)
                    continue
                self._patch(cls, meth, self._wrap(fn, name, HOOKS.get(name)))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(fn, name, HOOKS.get(name))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- analysis ------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, start, end, parent, job, self time."""
        nid = np.array(self.nid, dtype=np.int64)
        t0 = np.array(self.t0, dtype=float)
        t1 = np.array(self.t1, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        job = np.array(self.job, dtype=np.int64)
        dur = t1 - t0
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return nid, t0, t1, parent, job, dur - child

    def save(self, path) -> None:
        nid, t0, t1, parent, job, _ = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid, start=t0, end=t1, parent=parent, job=job)


# ---------------------------------------------------------------------------
# count hooks: run after the traced call, inside a trace.hook span


def _field_counts(tr: Tracer, args, field) -> None:
    from henonskew.green import STATUS_BOUNDED, STATUS_UNDECIDED

    depth = np.asarray(field.depth)
    flt, tol = args.get("flt"), args.get("tol")
    tr.count("green.pixels", depth.size)
    tr.count("green.point_steps", float(depth.sum(dtype=np.int64)))
    if flt is not None:
        tr.count("green.certified_steps", float(np.minimum(depth, flt.depth_for(tol)).sum(dtype=np.int64)))
    tr.count("green.bounded", int(np.count_nonzero(field.status == STATUS_BOUNDED)))
    tr.count("green.undecided", int(np.count_nonzero(field.status == STATUS_UNDECIDED)))


def _green_field(tr, args, out):
    tr.count("green.field.pixels", np.asarray(out.depth).size)
    _field_counts(tr, args, out)


def _avg_field(tr, args, out):
    tr.count("green.mc_sequences", int(args["n_mc"]))


def _values(tr, args, out):
    tr.count("green.values.points", np.asarray(args["x"]).size)


def _draw(tr, args, out):
    tr.last_candidates = out
    tr.count("entropy.kept", len(out[0]))


def _lower_bound(tr, args, out):
    from oracles import survivors

    lam, x, y = args["candidates"] if args.get("candidates") is not None else tr.last_candidates
    ns = sorted(args["n_range"])
    surv = survivors(tr.current_job.fam, lam, x, y, args["flt"].R, ns[-1])
    for est in out:
        s = int(surv[est.n - 1])
        tr.count("entropy.survivors", s)
        tr.sample(f"entropy.saturation.eps{args['eps']}", est.s_n / s)


def _written(tr, args, out):
    path = os.fspath(args["path"])
    size = os.path.getsize(path)
    side = path + ".map.txt"
    if out is not None and os.path.exists(side):  # write_pgm16 returns its (lo, hi) map
        size += os.path.getsize(side)
    tr.count("gridio.bytes", size)


HOOKS = {
    "green.field": _green_field,
    "green.field_seq": _field_counts,
    "green.avg_field": _avg_field,
    "green.values": _values,
    "entropy.draw": _draw,
    "entropy.lower_bound": _lower_bound,
    "gridio.write_raw_grid": _written,
    "gridio.write_pgm16": _written,
}


# ---------------------------------------------------------------------------
# per-layer metrics for one pass


def pass_metrics(tr: Tracer, job_ids) -> dict[str, float]:
    """Per-layer metrics of the jobs in one pass (self times in seconds)."""
    nid, t0, t1, parent, job, self_t = tr.arrays()
    sel = np.isin(job, np.asarray(list(job_ids), dtype=np.int64))

    def spans(name):
        return sel & (nid == tr._ids.get(name, -1))

    def self_s(*ns):
        return float(sum(self_t[spans(n)].sum() for n in ns))

    def incl_s(*ns):
        return float(sum((t1 - t0)[spans(n)].sum() for n in ns))

    def calls(name):
        return int(np.count_nonzero(spans(name)))

    def cnt(key):
        return float(sum(v for (j, k), v in tr.counts.items() if k == key and j in job_ids))

    def samples(key):
        return [v for (j, k), vs in tr.samples.items() if k == key and j in job_ids for v in vs]

    # raster passes under convergence spans: Green rasters and pullback stacks
    conv_ids = {tr._ids.get(n, -2) for n in ("convergence.pullback", "convergence.theta", "convergence.rigidity")}
    pass_ids = {tr._ids.get(n, -2) for n in ("green.field", "green.field_seq", "convergence.pullback_stack")}
    raster_passes = 0
    for i in np.flatnonzero(sel & np.isin(nid, list(pass_ids))):
        p = parent[i]
        while p >= 0:
            if nid[p] in conv_ids:
                raster_passes += 1
                break
            p = parent[p]

    # map evaluations made directly by entropy_lower_bound are its orbit tracking, charged to
    # entropy.pack.s ("track + pack") and not to family.eval_map.s
    eval_map = nid == tr._ids.get("family.eval_map", -2)
    tracking = sel & eval_map & (parent >= 0) & (nid[np.maximum(parent, 0)] == tr._ids.get("entropy.lower_bound", -2))
    track_t = float(self_t[tracking].sum())

    field_t = incl_s("green.field")
    engine_t = incl_s("green.field", "green.field_seq")
    steps = cnt("green.point_steps")
    drawn = cnt("green.values.points")
    return {
        "green.field.s": self_s("green.field"),
        "green.field.calls": calls("green.field"),
        "green.field.mpix_per_s": cnt("green.field.pixels") / 1e6 / field_t if field_t else 0.0,
        "green.point_steps": steps,
        "green.point_steps_per_s": steps / engine_t if engine_t else 0.0,
        "green.certified_step_ratio": cnt("green.certified_steps") / steps if steps else 0.0,
        "green.bounded_fraction": cnt("green.bounded") / cnt("green.pixels") if cnt("green.pixels") else 0.0,
        "green.undecided": cnt("green.undecided"),
        "green.avg_field.s": self_s("green.avg_field"),
        "green.field_seq.s": self_s("green.field_seq"),
        "green.field_seq.calls": calls("green.field_seq"),
        "green.mc_sequences": cnt("green.mc_sequences"),
        "green.values.s": self_s("green.values"),
        "green.values.points": drawn,
        "expr.coeff_eval.calls": calls("expr.coeff_eval"),
        "expr.coeff_eval.s": self_s("expr.coeff_eval"),
        "family.poly_coeffs.calls": calls("family.poly_coeffs"),
        "family.poly_coeffs.s": self_s("family.poly_coeffs"),
        "family.eval_map.s": float(self_t[sel & eval_map & ~tracking].sum()),
        "convergence.pullback.s": self_s("convergence.pullback"),
        "convergence.theta.s": self_s("convergence.theta"),
        "convergence.rigidity.s": self_s("convergence.rigidity"),
        "convergence.raster_passes": raster_passes,
        "currents.slice_measure.s": self_s("currents.slice_measure"),
        "currents.julia_raster.s": self_s("currents.julia_raster"),
        "entropy.draw.s": self_s("entropy.draw"),
        "entropy.draw.acceptance": cnt("entropy.kept") / drawn if drawn else 0.0,
        "entropy.pack.s": self_s("entropy.lower_bound") + track_t,
        "entropy.survivors": cnt("entropy.survivors"),
        **{
            f"entropy.saturation.eps{eps}": float(np.median(samples(f"entropy.saturation.eps{eps}")))
            if samples(f"entropy.saturation.eps{eps}") else 0.0
            for eps in ENTROPY_EPS
        },
        "filtration.compute_radius.s": self_s("filtration.compute_radius"),
        "filtration.compute_radius.calls": calls("filtration.compute_radius"),
        "filtration.check_invariance.s": self_s("filtration.check_invariance"),
        "gridio.write.s": self_s("gridio.write_raw_grid", "gridio.write_pgm16"),
        "gridio.bytes": cnt("gridio.bytes"),
        "cli.self_s": self_s("cli.run"),
    }
