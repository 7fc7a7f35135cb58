"""Spans and counters around the benchmark's calls into ckfield.

The benchmark never patches the library.  A traced run hands the workload a
stand-in for the `ckfield` package whose listed public functions are
wrapped: each call records a span (name, start, end, parent span, task id)
and the counters measured at that boundary.  Calls the library makes
internally (scaling_sweep -> assemble, integrate_curve -> classify) are not
seen; spans inside the program are a separate change.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# module -> public functions the workloads call and the trace times
TRACED = {
    "grid": ("scaling_sweep", "sigma_min", "assemble",
             "zeromode_residual_on_grid"),
    "potentials": ("construct_losyau",),
    "flows": ("integrate_curve", "loop_integrals"),
    "holonomy": ("admissible_spectrum",),
    "ckf": ("classify", "reconstruct"),
    "spinops": ("norm_decomposition_check", "commutator_residuals"),
    "identities": ("check_identity",),
}


class Tracer:
    """Spans kept in memory until `write`, plus per-boundary counters."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent, task]
        self.counts = Counter()
        self.task = None        # id of the task being run
        self._stack = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.task])
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> Counter:
        """Total self time per span name: duration minus child spans."""
        child = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[sid]
        return out

    def write(self, path):
        keys = ("name", "start", "end", "parent", "task")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class CountingMatrix:
    """A sparse matrix that counts the vectors it multiplies.

    sigma_min only reads `shape`, multiplies with `@` and, on its dense
    path, calls `toarray`; a block of k vectors counts as k products.
    """

    def __init__(self, matrix, counts: Counter):
        self._matrix = matrix
        self._counts = counts
        self.shape = matrix.shape
        self.dtype = matrix.dtype

    def __matmul__(self, x):
        self._counts["grid.matvecs"] += 1 if x.ndim == 1 else x.shape[1]
        return self._matrix @ x

    def toarray(self):
        return self._matrix.toarray()


def matrix_bytes(m) -> int:
    """CSR storage computed from the array sizes (not measured)."""
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


class _Module:
    """Stand-in for one ckfield module: traced functions, the rest as is."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def traced_api(ck, tracer: Tracer):
    """A stand-in for the ckfield package whose TRACED functions record
    spans and counters into `tracer`."""
    counts = tracer.counts
    NoConvergence = ck.errors.NoConvergence
    sized = set()

    def record_sizes(op):
        m = op.matrix
        counts["grid.dim"] = max(counts["grid.dim"], m.shape[0])
        counts["grid.nnz"] = max(counts["grid.nnz"], m.nnz)
        counts["grid.matrix_bytes"] = max(counts["grid.matrix_bytes"],
                                          matrix_bytes(m))

    def before(name, args):
        if name == "grid.sigma_min":
            op = args[0]
            counted = ck.grid.GridOperator(
                matrix=CountingMatrix(op.matrix, counts), grid=op.grid,
                potential=op.potential)
            args = (counted,) + tuple(args[1:])
            counts["grid.solves"] += 1
        elif name == "grid.scaling_sweep":
            counts["grid.solves"] += len(args[1])
        return args

    def after(name, args, result):
        if name == "grid.assemble":
            record_sizes(result)
        elif name == "grid.scaling_sweep":
            # the sweep assembles internally; size one of its operators once
            spec, ts, gs = args[:3]
            if gs not in sized:
                sized.add(gs)
                record_sizes(ck.grid.assemble(gs, ck.potentials.scaled(
                    spec, float(ts[-1]))))
        elif name == "flows.integrate_curve":
            counts["flows.quad_nodes"] += result.xs.shape[1]
        elif name == "spinops.norm_decomposition_check":
            counts["spinops.quad_nodes"] += args[3].n ** 3

    def wrap(name, fn):
        def traced(*args, **kwargs):
            args = before(name, args)
            matvecs = counts["grid.matvecs"]
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except NoConvergence:
                counts["grid.no_convergence"] += 1
                raise
            finally:
                tracer.close(sid)
                if counts["grid.matvecs"] > matvecs:
                    # time of the iterative solves only, not the dense path
                    _, start, end, _, _ = tracer.spans[sid]
                    counts["grid.iterative_s"] += end - start
            after(name, args, result)
            return result
        return traced

    api = _Module(ck)
    for mod_name, fns in TRACED.items():
        mod = _Module(getattr(ck, mod_name))
        for fn in fns:
            setattr(mod, fn, wrap(f"{mod_name}.{fn}", getattr(mod._module, fn)))
        setattr(api, mod_name, mod)
    return api
