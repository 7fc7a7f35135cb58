"""The four ckfield benchmark workloads: seeded inputs, tasks and gates.

Each workload turns a seed into inputs (`generate`) and the inputs into one
pass of tasks (`tasks`).  A task is one certified result: it calls the
library through `api` (the `ckfield` package itself, or its traced stand-in),
compares the result with the bound of the acceptance criterion it
reproduces, and raises GateFailed when the bound is missed.

The sizes are far below the acceptance tests' grids so that one pass fits a
benchmark run of a few tens of seconds on two cores; the mechanisms each
workload exercises (warm LOBPCG sweeps, cold near-singular solves, adaptive
orbit quadrature, slab-streamed jet arithmetic) are the same.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

# Gate bounds, one per acceptance criterion the tasks reproduce.  run.py can
# override any of them (--bound NAME=VALUE), which is how the smoke test
# forces a gate to fail without touching the library.
BOUNDS = {
    "identity_tol": 1.0e-10,      # criterion 1: pointwise identities
    "loop_tol": 1.0e-7,           # criterion 3: |int div|, |int|Y| - 4pi|, |flux|
    "period_tol": 1.0e-8,         # criterion 4: |period - 2pi/mu|
    "commutator_tol": 1.0e-9,     # criterion 5: operator commutation residuals
    "norm_rel_tol": 1.0e-3,       # criterion 6: w-weighted norm decomposition
    "quantization_tol": 1.0e-6,   # criterion 7: offset defect
    "monodromy_tol": 1.0e-6,      # criterion 7: |monodromy(0) + 1|
    "offset_spread_tol": 1.0e-9,  # criterion 7: offset spread over t
    "residual_ratio_tol": 0.3,    # criterion 8: grid residual ratio vs 2^order
    "sweep_floor": 0.5,           # criterion 9: sigma_min > floor * free
    "control_ceiling": 0.125,     # criterion 9: control < ceiling * free
}


class GateFailed(Exception):
    """A task's result missed its acceptance bound."""


def _gate(ok: bool, msg: str):
    if not ok:
        raise GateFailed(msg)


# ---------------------------------------------------------------------------
# spectral_sweep: warm-started LOBPCG sweeps over t A (criterion 9)

SPECTRAL = {
    # odd n puts a zero eigenvalue into the 1-d difference matrix, so the
    # grid is even; n = 10 is the smallest even grid above the dense
    # cut-over (dim 1200) where the axial family still clears the floor
    "full": {"L": 6.0, "n": 10, "ts": tuple(range(0, 21, 2))},
    "tiny": {"L": 6.0, "n": 8, "ts": (0, 10)},
}


def spectral_generate(ck, seed: int, size: str) -> dict:
    cfg = SPECTRAL[size]
    rng = np.random.default_rng(seed)
    P = ck.potentials
    gs = ck.grid.GridSpec(L=cfg["L"], n=cfg["n"])
    families = [
        ("axial", P.axial(P.smoothbump(0.5, 9.0, 0.25))),
        ("modulated", P.modulated(P.hopfbase(1.0),
                                  P.smoothbump(0.05, 0.5, 1.0))),
    ]
    # the families are the criterion's; the seed only orders them
    families = [families[i] for i in rng.permutation(len(families))]
    return {"gs": gs, "ts": np.array(cfg["ts"], dtype=float),
            "families": families, "free": ck.grid.free_sigma_min(gs)}


def spectral_tasks(api, inp: dict, bounds: dict) -> list:
    def sweep(spec):
        def run():
            sw = api.grid.scaling_sweep(spec, inp["ts"], inp["gs"])
            low = float(sw.sigma_mins.min())
            floor = bounds["sweep_floor"] * inp["free"]
            _gate(low > floor, f"min sigma {low:.6g} <= floor {floor:.6g}")
        return run
    return [("sweep." + name, sweep(spec)) for name, spec in inp["families"]]


# ---------------------------------------------------------------------------
# zero_mode_control: the classical zero mode, cold solves (criteria 8, 9)

CONTROL = {
    # L = 6 is the criterion's box; on it sigma_min of the control falls
    # strictly over n = 8, 10, 12 (n = 14 and 16 sit higher again).  The
    # control is constructed on two point sets, which makes nine tasks a
    # pass: task_p50_s then falls in the middle of one task kind (the
    # order-2 residual on n = 16, 32) rather than on the edge between two
    "full": {"L": 6.0, "ladder": (8, 10, 12), "res_L": 2.5,
             "res_pairs": ((12, 24), (16, 32)), "n_points": (1000, 4000)},
    "tiny": {"L": 6.0, "ladder": (8, 10), "res_L": 2.5,
             "res_pairs": ((12, 24),), "n_points": (200,)},
}


def control_generate(ck, seed: int, size: str) -> dict:
    cfg = CONTROL[size]
    rng = np.random.default_rng(seed)
    G = ck.grid
    ladder = [G.GridSpec(L=cfg["L"], n=n) for n in cfg["ladder"]]
    residual_grids = [(order, [G.GridSpec(L=cfg["res_L"], n=n, order=order)
                               for n in pair])
                      for pair in cfg["res_pairs"] for order in (2, 4)]
    return {"constructs": [(n, int(rng.integers(2 ** 31)))
                           for n in cfg["n_points"]],
            "spec": ck.potentials.lossyau(), "mode": ck.spinors.losyau_mode(),
            "ladder": ladder, "free_last": G.free_sigma_min(ladder[-1]),
            "residual_grids": residual_grids}


def control_tasks(api, inp: dict, bounds: dict) -> list:
    spec, mode = inp["spec"], inp["mode"]
    sigmas = {}     # rung -> sigma_min, for the strict-decrease gate

    def construct(n_points, rng_seed):
        def run():
            got, _ = api.potentials.construct_losyau(n_points=n_points,
                                                     rng_seed=rng_seed)
            _gate(got.kind == "lossyau", f"constructed {got.kind!r}")
        return run

    def residual(order, grids):
        def run():
            r = [api.grid.zeromode_residual_on_grid(spec, mode, gs,
                                                    interior_margin=1.0)
                 for gs in grids]
            ratio, ideal = r[0] / r[1], 2.0 ** order
            _gate(abs(ratio - ideal) <= bounds["residual_ratio_tol"] * ideal,
                  f"order {order} residual ratio {ratio:.4g}, ideal {ideal:g}")
        return run

    def rung(i, gs):
        def run():
            op = api.grid.assemble(gs, spec)
            sig = api.grid.sigma_min(op)
            sigmas[i] = sig
            if i > 0:
                prev = sigmas.get(i - 1, math.nan)
                _gate(sig < prev, f"n={gs.n}: sigma {sig:.6g} does not fall "
                                  f"below the coarser rung's {prev:.6g}")
            if i == len(inp["ladder"]) - 1:
                ceiling = bounds["control_ceiling"] * inp["free_last"]
                _gate(sig < ceiling,
                      f"control sigma {sig:.6g} >= ceiling {ceiling:.6g}")
        return run

    tasks = [("construct_losyau", construct(n, seed))
             for n, seed in inp["constructs"]]
    tasks += [(f"residual.order{order}", residual(order, grids))
              for order, grids in inp["residual_grids"]]
    tasks += [(f"sigma_min.n{gs.n}", rung(i, gs))
              for i, gs in enumerate(inp["ladder"])]
    return tasks


# ---------------------------------------------------------------------------
# orbit_holonomy: closed orbits, loop integrals, holonomy (criteria 2, 3, 4, 7)

ORBIT = {
    # rho strata of the circulation orbits run from near the degenerate
    # circle to near-degenerate speed ratios (46k quadrature nodes at 0.9).
    # The cost of an orbit grows steeply with rho, so the strata are narrow
    # and each orbit costs about the same for every seed.  Two
    # near-degenerate orbits per pass put the tail percentile inside their
    # share; classify batches are three quarters of the tasks, so p50 falls
    # well inside them rather than at their slow edge
    "full": {"ro_strata": ((0.1, 1.0), (1.0, 1.9)),
             "cr_strata": ((0.1, 0.2), (0.4, 0.5), (0.7, 0.75),
                           (0.89, 0.895), (0.895, 0.9)),
             "classify_batches": 20, "batch_size": 100},
    "tiny": {"ro_strata": ((0.1, 1.0),), "cr_strata": ((0.05, 0.3),),
             "classify_batches": 1, "batch_size": 20},
}
HOLONOMY_TS = (0.0, 1.0, 10.0)
UNSCALED = HOLONOMY_TS.index(1.0)
KINDS = ("Translation", "Dilation", "Rotation", "Special")


def _exact_unit(rng):
    # a direction whose float norm is exactly 1, so round trips are bitwise
    while True:
        v = rng.normal(size=3)
        u = v / np.linalg.norm(v)
        if np.dot(u, u) == 1.0:
            return u


def _pow2(rng, lo=-3, hi=3):
    return float(2.0 ** rng.integers(lo, hi + 1)) * float(rng.choice([-1.0, 1.0]))


def _exact_simple_params(ck, kind, rng):
    """Simple-rotation parameters whose canonical data is exactly
    representable, so classify -> reconstruct must round-trip bitwise."""
    z = np.zeros(3)
    Params = ck.ckf.CkfParams
    if kind == "Translation":
        return Params(a=abs(_pow2(rng)) * _exact_unit(rng), b0=0.0, b=z, c=z)
    if kind == "Dilation":
        b0 = _pow2(rng)
        return Params(a=-b0 * rng.uniform(-2, 2, 3), b0=b0, b=z, c=z)
    if kind == "Rotation":
        return Params(a=z.copy(), b0=0.0, b=abs(_pow2(rng)) * _exact_unit(rng),
                      c=z)
    c = abs(_pow2(rng)) * _exact_unit(rng)
    return Params(a=_pow2(rng) * c, b0=0.0, b=z, c=c)


def orbit_generate(ck, seed: int, size: str) -> dict:
    cfg = ORBIT[size]
    rng = np.random.default_rng(seed)
    P, F = ck.potentials, ck.flows
    orbits = []
    p_ro, spec_ro = ck.ckf.field_ro(), P.axial(P.smoothbump(0.2, 4.0, 1.0))
    for lo, hi in cfg["ro_strata"]:
        rho, phi = rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * np.pi)
        x0 = [rho * np.cos(phi), rho * np.sin(phi), rng.uniform(-0.3, 0.3)]
        orbits.append(("orbit.ro", p_ro, spec_ro, x0, 2.0 * np.pi))
    for lo, hi in cfg["cr_strata"]:
        mu, rho = rng.uniform(0.5, 2.0), rng.uniform(lo, hi)
        x0 = F.cr_orbit_seed(mu, rho, rng.uniform(0.0, 2.0 * np.pi))
        orbits.append(("orbit.cr", ck.ckf.field_cr(mu), P.hopfbase(mu), x0,
                       2.0 * np.pi / mu))
    orbits = [(kind, p, [P.scaled(spec, t) for t in HOLONOMY_TS], x0, tau)
              for kind, p, spec, x0, tau in orbits]
    batches = [[(KINDS[i % 4], _exact_simple_params(ck, KINDS[i % 4], rng))
                for i in range(cfg["batch_size"])]
               for _ in range(cfg["classify_batches"])]
    return {"orbits": orbits, "batches": batches}


def orbit_tasks(api, inp: dict, bounds: dict) -> list:
    def orbit(p, specs, x0, tau):
        def run():
            tr = api.flows.integrate_curve(p, x0)
            _gate(tr.closed, "orbit did not close")
            _gate(abs(tr.period - tau) <= bounds["period_tol"],
                  f"period {tr.period!r} vs {tau!r}")
            li = api.flows.loop_integrals(tr, p, specs[UNSCALED])
            worst = max(abs(li.int_div), abs(li.int_absY - 4.0 * np.pi),
                        abs(li.int_flux))
            _gate(worst <= bounds["loop_tol"], f"loop integral defect {worst:.3e}")
            res = [api.holonomy.admissible_spectrum(p, s, tr) for s in specs]
            one = res[UNSCALED]
            _gate(one.quantization_residual <= bounds["quantization_tol"],
                  f"offset defect {one.quantization_residual:.3e}")
            mono = abs(one.monodromy_at_zero + 1.0)
            _gate(mono <= bounds["monodromy_tol"], f"|mono(0)+1| {mono:.3e}")
            offs = [r.offset for r in res]
            spread = max(offs) - min(offs)
            _gate(spread <= bounds["offset_spread_tol"],
                  f"offset spread over t {spread:.3e}")
        return run

    def round_trips(batch):
        def run():
            for kind, p in batch:
                cf = api.ckf.classify(p)
                q = api.ckf.reconstruct(cf)
                _gate(cf.kind == kind, f"classified {cf.kind}, expected {kind}")
                _gate(np.array_equal(p.a, q.a) and p.b0 == q.b0
                      and np.array_equal(p.b, q.b) and np.array_equal(p.c, q.c),
                      f"{kind} round trip is not bitwise exact")
        return run

    # The classify batches are spread between the orbits: run as one block
    # they would all see the machine at the same instant of each pass, and
    # task_p50_s, which falls inside them, would rest on a few instants.
    orbits, batches = inp["orbits"], inp["batches"]
    tasks = []
    for i, (kind, p, specs, x0, tau) in enumerate(orbits):
        tasks.append((kind, orbit(p, specs, x0, tau)))
        lo = i * len(batches) // len(orbits)
        hi = (i + 1) * len(batches) // len(orbits)
        tasks += [("classify_batch", round_trips(b)) for b in batches[lo:hi]]
    return tasks


# ---------------------------------------------------------------------------
# weighted_norm: jet arithmetic behind spinops and identities (criteria 1, 5, 6)

WEIGHTED = {
    "full": {"box_n": 48, "packets": 2, "comm_sets": 3, "comm_points": 2000,
             "id_points": 1000},
    "tiny": {"box_n": 48, "packets": 1, "comm_sets": 1, "comm_points": 50,
             "id_points": 50},
}
NORM_BOX = ((-1.6, 1.6), (-1.6, 1.6), (-1.0, 1.0))


def _points_off_zeros(ck, p, n, rng):
    """n uniform points of [-2, 2]^3 where |X| > 1e-3."""
    kept, total = [], 0
    while total < n:
        cand = rng.uniform(-2.0, 2.0, (3, 2 * n))
        good = cand[:, np.linalg.norm(ck.ckf.eval_ckf(p, cand), axis=0) > 1.0e-3]
        kept.append(good)
        total += good.shape[1]
    return np.concatenate(kept, axis=1)[:, :n]


def _unit_cols(rng, n):
    v = rng.normal(size=(3, n))
    return v / np.linalg.norm(v, axis=0)


def _simple_batch(ck, rng, n):
    """Half rotations, half special fields, canonical scale ~1."""
    h = n // 2
    z = np.zeros((3, h))
    b = _unit_cols(rng, h)
    x0 = rng.uniform(-1, 1, (3, h))
    rot = dict(a=np.cross(x0, b, axis=0), b0=np.zeros(h), b=b, c=z)
    c = _unit_cols(rng, n - h)
    x0 = rng.uniform(-1, 1, (3, n - h))
    nu = rng.uniform(0.1, 1.5, n - h)
    cx0 = (c * x0).sum(axis=0)
    spc = dict(a=nu * c + cx0 * x0 - 0.5 * (x0 * x0).sum(axis=0) * c,
               b0=-cx0, b=np.cross(x0, c, axis=0), c=c)
    return ck.ckf.CkfParams(**{k: np.concatenate([rot[k], spc[k]], axis=-1)
                               for k in ("a", "b0", "b", "c")})


def weighted_generate(ck, seed: int, size: str) -> dict:
    cfg = WEIGHTED[size]
    rng = np.random.default_rng(seed)
    P, S, ckf = ck.potentials, ck.spinors, ck.ckf
    # bump packets near criterion 6's, jittered by a few percent so their
    # cost (nodes inside the support) barely depends on the seed
    packets = []
    for _ in range(cfg["packets"]):
        z = rng.uniform(0.88, 0.92)
        spinor = rng.normal(size=2) + 1j * rng.normal(size=2)
        packets.append(S.bump_packet(
            (rng.uniform(0.28, 0.32), rng.uniform(2.15, 2.25)), (-z, z),
            spinor=tuple(spinor / np.linalg.norm(spinor))))
    configs = [(ckf.field_ro(), P.axial(P.smoothbump(0.2, 4.0, 0.7))),
               (ckf.field_cr(1.0), P.hopfbase(1.0))]
    comm = [(p, spec, _points_off_zeros(ck, p, cfg["comm_points"], rng))
            for _ in range(cfg["comm_sets"]) for p, spec in configs]
    n = cfg["id_points"]
    general = ckf.CkfParams(a=rng.uniform(-1, 1, (3, n)),
                            b0=rng.uniform(-1, 1, n),
                            b=rng.uniform(-1, 1, (3, n)),
                            c=rng.uniform(-0.5, 0.5, (3, n)))
    ids = ck.identities
    id_batches = [("general", ids.GENERAL_IDS, general,
                   rng.uniform(-2, 2, (3, n))),
                  ("simple", ids.SIMPLE_ONLY_IDS, _simple_batch(ck, rng, n),
                   rng.uniform(-2, 2, (3, n)))]
    return {"norm_field": ckf.field_ro(),
            "norm_spec": P.axial(P.smoothbump(0.1, 3.0, 0.8)),
            "packets": packets,
            "box": ck.quadrature.QuadBox(NORM_BOX, n=cfg["box_n"]),
            "gaussian": S.gaussian_packet((0.9, 0.2, -0.3), 0.6,
                                          spinor=(1.0, 0.4 - 0.2j)),
            "comm": comm, "id_batches": id_batches}


def weighted_tasks(api, inp: dict, bounds: dict) -> list:
    def norm(f):
        def run():
            _, _, rel = api.spinops.norm_decomposition_check(
                inp["norm_field"], inp["norm_spec"], f, inp["box"])
            _gate(rel <= bounds["norm_rel_tol"], f"relative error {rel:.3e}")
        return run

    def commutators(p, spec, pts):
        def run():
            worst = max(api.spinops.commutator_residuals(p, spec,
                                                         inp["gaussian"], pts))
            _gate(worst <= bounds["commutator_tol"],
                  f"commutator residual {worst:.3e}")
        return run

    def identities(keys, p, pts):
        def run():
            worst = max(api.identities.check_identity(k, p, pts).residual
                        for k in keys)
            _gate(worst <= bounds["identity_tol"],
                  f"identity residual {worst:.3e}")
        return run

    tasks = [("norm_decomposition", norm(f)) for f in inp["packets"]]
    tasks += [("commutators", commutators(p, spec, pts))
              for p, spec, pts in inp["comm"]]
    tasks += [(f"identities.{name}", identities(keys, p, pts))
              for name, keys, p, pts in inp["id_batches"]]
    return tasks


# ---------------------------------------------------------------------------

class Workload(NamedTuple):
    """Inputs from a seed, one pass of tasks, and the tail percentile.

    tail_pct is fixed per workload, so that runs of different length stay
    comparable, and sits inside the share of tasks of the slowest kind
    (the modulated sweep, the n = 12 control solve, the near-degenerate
    orbits, the norm decomposition), so that it measures that kind rather
    than the boundary between two kinds.  run.py states how many samples
    lie beyond it.
    """

    name: str
    generate: Callable
    tasks: Callable
    tail_pct: float


WORKLOADS = {w.name: w for w in (
    Workload("spectral_sweep", spectral_generate, spectral_tasks, 75.0),
    Workload("zero_mode_control", control_generate, control_tasks, 95.0),
    Workload("orbit_holonomy", orbit_generate, orbit_tasks, 95.0),
    Workload("weighted_norm", weighted_generate, weighted_tasks, 90.0),
)}
