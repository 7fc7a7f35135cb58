"""Benchmark of the ckfield library: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--size full|tiny] [--bound NAME=VALUE ...]

Run from the repository root; the library is imported from ./src.  The run
sets up the workload (importing ckfield and generating the inputs from the
seed), then repeats passes over the workload's tasks in a closed loop with
one client until about S seconds have passed.  After every pass it times
one more set-up, so that setup_s, their median, samples the machine across
the whole run rather than at one instant of it.
Every task checks its result against its acceptance bound; a failed gate or
a raised library error counts as a failed task and the run goes on.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half traced, prints the per-layer metrics and the tracing
overhead, and writes the spans to .bench_out/.  The last line of standard
output is the result; the line before it is a JSON record of the
environment and the sample counts behind the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "task_p50_s": "s", "task_tail_s": "s",
    "tasks_per_s": "1/s", "peak_rss_mb": "MB",
}
# span name -> per-layer metric; times are self time per traced pass
LAYER_SPANS = {
    "grid.scaling_sweep": "grid.scaling_sweep_s",
    "grid.sigma_min": "grid.sigma_min_s",
    "grid.assemble": "grid.assemble_s",
    "grid.zeromode_residual_on_grid": "grid.zeromode_residual_s",
    "potentials.construct_losyau": "potentials.construct_losyau_s",
    "flows.integrate_curve": "flows.integrate_curve_s",
    "flows.loop_integrals": "flows.loop_integrals_s",
    "holonomy.admissible_spectrum": "holonomy.admissible_spectrum_s",
    "ckf.classify": "ckf.classify_s",
    "ckf.reconstruct": "ckf.reconstruct_s",
    "spinops.norm_decomposition_check": "spinops.norm_decomposition_s",
    "spinops.commutator_residuals": "spinops.commutator_residuals_s",
    "identities.check_identity": "identities.check_identity_s",
    "task": "bench.task_self_s",
}
PER_LAYER = {
    **{m: "s" for m in LAYER_SPANS.values()},
    "grid.solves": "count", "grid.dim": "count", "grid.nnz": "count",
    "grid.matrix_bytes": "B", "grid.matvecs": "count",
    "grid.s_per_matvec": "s", "grid.no_convergence": "count",
    "flows.quad_nodes": "count", "flows.nodes_per_s": "1/s",
    "spinops.quad_nodes_per_s": "1/s",
    "trace.overhead_s": "s", "trace.spans": "count",
    "failed_frac": "fraction",
}
# counters reported per traced pass; the grid sizes are maxima
PER_PASS_COUNTS = ("grid.solves", "grid.matvecs", "grid.no_convergence",
                   "flows.quad_nodes")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--bound", action="append", default=[],
                    metavar="NAME=VALUE", help="override a gate bound")
    return ap.parse_args(argv)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas_threads():
    """Thread counts reported by every OpenBLAS loaded in this process."""
    import ctypes
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path and ".so" in path:
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[Path(path).name] = fn()
                break
    return out


def _source_id():
    """git commit when the checkout is a repository, and a hash of src/."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode())
        h.update(f.read_bytes())
    return commit, h.hexdigest()[:16]


def _environment(threads: int) -> dict:
    import numpy
    import scipy
    commit, src_hash = _source_id()
    return {"nproc": _nproc(), "threads": threads,
            "blas_threads": _blas_threads(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit,
            "src_sha256": src_hash, "machine": platform.machine()}


def _setup(workload, seed: int, size: str):
    """Import ckfield afresh and generate the inputs; returns the seconds.

    The modules of an earlier import are put back afterwards, so that the
    library's own function-level imports keep resolving to the copy whose
    objects the run is using.
    """
    saved = {m: mod for m, mod in sys.modules.items()
             if m == "ckfield" or m.startswith("ckfield.")}
    t0 = time.perf_counter()
    for name in saved:
        del sys.modules[name]
    ck = importlib.import_module("ckfield")
    inputs = workload.generate(ck, seed, size)
    dt = time.perf_counter() - t0
    sys.modules.update(saved)
    return dt, ck, inputs


def _passes(workload, api, inputs, bounds, seconds, between, tracer=None):
    """Closed loop: passes over the task list until `seconds` would pass.

    `between` runs after every pass, untimed by the pass.  A further pass
    starts only when the median pass so far still fits, so a run ends near
    `seconds` however long a pass is; there is always one.  Returns
    per-pass wall times and per-task (kind, latency, error).
    """
    from workloads import GateFailed
    pass_times, tasks = [], []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for kind, run in workload.tasks(api, inputs, bounds):
            sid = None
            if tracer is not None:
                tracer.task = len(tasks)
                sid = tracer.open("task")
            t0 = time.perf_counter()
            error = None
            try:
                run()
            except GateFailed as exc:
                error = f"gate: {exc}"
            except Exception as exc:    # a library error fails this task only
                error = f"{type(exc).__name__}: {exc}"
            tasks.append((kind, time.perf_counter() - t0, error))
            if sid is not None:
                tracer.close(sid)
        pass_times.append(time.perf_counter() - t_pass)
        between()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_times) > seconds:
            return pass_times, tasks


def _percentile(values, pct):
    """Nearest-rank percentile and how many samples lie beyond it."""
    s = sorted(values)
    k = max(0, math.ceil(pct / 100.0 * len(s)) - 1)
    return s[k], len(s) - k - 1


def _end_to_end(workload, setup_s, pass_times, tasks):
    lat = [t for _, t, _ in tasks]
    passed = sum(1 for *_, err in tasks if err is None)
    tail, beyond = _percentile(lat, workload.tail_pct)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(pass_times),
        "task_p50_s": statistics.median(lat),
        "task_tail_s": tail,
        "tasks_per_s": passed / sum(pass_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"tasks": len(lat), "passes": len(pass_times),
               "tail_percentile": workload.tail_pct, "tail_beyond": beyond}
    return values, samples


def _per_layer(tracer, traced_passes, untraced_passes, tasks):
    n = len(traced_passes)
    self_t = tracer.self_times()
    c = tracer.counts
    values = {metric: self_t[span] / n for span, metric in LAYER_SPANS.items()}
    values.update({k: c[k] / n for k in PER_PASS_COUNTS})
    values.update({k: c[k] for k in ("grid.dim", "grid.nnz",
                                     "grid.matrix_bytes")})
    values["grid.s_per_matvec"] = (c["grid.iterative_s"] / c["grid.matvecs"]
                                   if c["grid.matvecs"] else 0.0)
    ic = self_t["flows.integrate_curve"]
    values["flows.nodes_per_s"] = c["flows.quad_nodes"] / ic if ic else 0.0
    nd = self_t["spinops.norm_decomposition_check"]
    values["spinops.quad_nodes_per_s"] = c["spinops.quad_nodes"] / nd if nd else 0.0
    values["trace.overhead_s"] = (statistics.fmean(traced_passes)
                                  - statistics.fmean(untraced_passes))
    values["trace.spans"] = len(tracer.spans) / n
    values["failed_frac"] = sum(1 for *_, e in tasks if e) / len(tasks)
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "ckfield" / "__init__.py").is_file():
        print(f"error: no ckfield package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    # One compute thread, BLAS included (at most nproc): on the small
    # operators here a second OpenBLAS thread spin-waits, which made sweeps
    # 4x slower in wall time and far noisier on a 2-core machine.  A
    # production server would run one such process per core.  Must precede
    # the numpy import.
    threads = 1
    for var in BLAS_VARS:
        os.environ[var] = str(threads)

    from workloads import BOUNDS, WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    bounds = dict(BOUNDS)
    for item in args.bound:
        name, _, value = item.partition("=")
        if name not in bounds:
            print(f"error: unknown bound {name!r}", file=sys.stderr)
            return 2
        bounds[name] = float(value)

    # the first set-up also pays for importing numpy and scipy; the run
    # uses its modules and inputs, the later set-ups are only timed
    cold_s, ck, inputs = _setup(workload, args.seed, args.size)
    setup_samples = []

    def setup_again():
        setup_samples.append(_setup(workload, args.seed, args.size)[0])

    detail = {"workload": workload.name, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace,
              "env": _environment(threads)}

    if args.trace == 0:
        pass_times, tasks = _passes(workload, ck, inputs, bounds, args.seconds,
                                    setup_again)
        values, samples = _end_to_end(workload,
                                      statistics.median(setup_samples),
                                      pass_times, tasks)
        units = END_TO_END
    else:
        from tracing import Tracer, traced_api
        untraced, tasks = _passes(workload, ck, inputs, bounds,
                                  args.seconds / 2.0, setup_again)
        tracer = Tracer()
        traced, traced_tasks = _passes(workload, traced_api(ck, tracer),
                                       inputs, bounds, args.seconds / 2.0,
                                       setup_again, tracer)
        tasks += traced_tasks
        pass_times = untraced + traced
        values = _per_layer(tracer, traced, untraced, tasks)
        units = PER_LAYER
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write(trace_path)
        samples = {"tasks": len(tasks), "untraced_passes": len(untraced),
                   "traced_passes": len(traced),
                   "trace_file": str(trace_path.relative_to(ROOT))}

    failures = [(kind, err) for kind, _, err in tasks if err]
    detail.update(samples=samples, pass_times_s=pass_times,
                  setup={"cold_s": cold_s, "samples_s": setup_samples},
                  failures=failures[:20])
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures, "attempted": len(tasks),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
