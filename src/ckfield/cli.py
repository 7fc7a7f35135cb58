"""Command-line entry point.

Each subcommand's options and their defaults are declared once, in
_SUBCOMMANDS.  Every run resolves its configuration (flags override
--config file values, which override those defaults), writes its outputs
plus a manifest.json into the output directory, and exits 0 when all
checks pass, 1 when a check fails, 2 on usage or configuration errors.
The manifest holds every option's resolved value, the version and the
derived numbers a run reports (spectrum-sweep: sigma_free, sigma_floor,
grid_h, dim).  Output locations default to $CKFIELD_OUTDIR or
./ckfield-runs.

--at, --seed-point and --orbit-seed take exactly 3 numbers, and --ns at
least two strictly increasing grid sizes; anything else exits 2.  A
field-lines summary writes a non-finite speed_ratio (the special field's
axis curve) as null, so every output is strict JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ckf import (CkfParams, classify, field_cr, field_iso, field_ro,
                  field_ud, frame_quantities, reconstruct)
from .errors import (BlowUp, CkfieldError, ConstructionFailed, NoConvergence,
                     SectorMismatch)
from .flows import (RK_TOL, fixed_point_census, integrate_curve,
                    loop_integrals, planarity_and_curvature)
from .grid import (SOLVE_TOL, GridSpec, assemble, free_sigma_min,
                   scaling_sweep, sigma_min, zeromode_residual_on_grid)
from .holonomy import admissible_spectrum, transport
from .identities import DEFAULT_TOL, run_identity_suite, sample_points
from .potentials import (axial, construct_losyau, eval_field, eval_potential,
                         hopfbase, lossyau, modulated, parent_field,
                         smoothbump, spec_from_dict)
from .spinops import apply_D, commutator_residuals, norm_decomposition_check
from .spinors import (SpinorField, bump_packet, from_dict as spinor_from_dict,
                      gaussian_packet, losyau_mode, losyau_psi, spinor_abs)
from .quadrature import QuadBox

# "floor" is the spectral floor as a fraction of the free sigma_min;
# "continuum" bounds the zero-mode control's continuum residual
PASS_TOL = {"loop": 1.0e-7, "commutator": 1.0e-9, "norm_rel": 1.0e-3,
            "quantization": 1.0e-6, "monodromy": 1.0e-6, "floor": 0.5,
            "continuum": 1.0e-10}


# -- argument plumbing -------------------------------------------------------

def _parse_ckf(s: str) -> CkfParams:
    s = s.strip()
    if s == "ud":
        return field_ud()
    if s == "ro":
        return field_ro()
    if s == "iso":
        return field_iso()
    if s.startswith("cr:"):
        return field_cr(float(s[3:]))
    try:
        return CkfParams.from_dict(json.loads(s))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot parse --ckf {s!r}: {exc}") from exc


def _parse_potential(s):
    if s is None:
        return None
    s = s.strip()
    if s in ("", "none", "null"):
        return None
    if s == "lossyau":
        return lossyau()
    if s.startswith("hopfbase:"):
        return hopfbase(float(s.split(":")[1]))
    if s == "axial" or s.startswith("axial:"):
        # default amplitude keeps t*|A| inside the stencil's resolvable
        # range through t = 20 on an n = 24, L = 6 grid
        lo, hi, amp = 0.5, 9.0, 0.25
        if ":" in s:
            lo, hi, amp = (float(v) for v in s.split(":")[1].split(","))
        return axial(smoothbump(lo, hi, amplitude=amp))
    if s.startswith("modulated:"):
        parts = s.split(":")
        mu = float(parts[1])
        lo, hi, amp = 0.05, 0.5, 1.0
        if len(parts) > 2:
            lo, hi, amp = (float(v) for v in parts[2].split(","))
        return modulated(hopfbase(mu), smoothbump(lo, hi, amplitude=amp))
    try:
        return spec_from_dict(json.loads(s))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot parse --potential {s!r}: {exc}") from exc


def _numbers(s: str, count: int, flag: str) -> list:
    v = [float(x) for x in s.split(",")] if s else []
    if len(v) != count:
        raise ValueError(f"{flag} needs {count} numbers, got {len(v)}: {s!r}")
    return v


def _parse_spinor(s: str) -> SpinorField:
    s = s.strip()
    if s == "losyau":
        return losyau_mode()
    if s.startswith("gaussian:"):
        v = _numbers(s.split(":")[1], 4, "--spinor gaussian:")
        return gaussian_packet(center=v[:3], width=v[3])
    if s.startswith("bump:"):
        v = _numbers(s.split(":")[1], 4, "--spinor bump:")
        return bump_packet(u_range=(v[0], v[1]), z_range=(v[2], v[3]))
    try:
        return spinor_from_dict(json.loads(s))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot parse --spinor {s!r}: {exc}") from exc


def _parse_point(s: str, flag: str) -> np.ndarray:
    return np.array(_numbers(s, 3, flag), dtype=float)


def _parse_ts(s: str) -> np.ndarray:
    """a:b:step inclusive range, or comma list."""
    if ":" in s:
        a, b, step = (float(v) for v in s.split(":"))
        span = (b - a) / step if step else math.nan
        n = int(round(span)) + 1 if math.isfinite(span) else 0
        if n < 1 or not math.isfinite(step):
            raise ValueError(f"--ts {s!r} is not a range: need finite a, b "
                             f"and a finite, nonzero step from a towards b")
        return a + step * np.arange(n)
    return np.array([float(v) for v in s.split(",")])


def _grid_spec(cfg: dict, **kw) -> GridSpec:
    """GridSpec from --grid n,L and --stencil."""
    n, L = str(cfg["grid"]).split(",")
    return GridSpec(L=float(L), n=int(n), order=int(cfg["stencil"]), **kw)


def _outdir(cfg: dict, sub: str) -> Path:
    d = Path(cfg["outdir"]) / sub
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_manifest(d: Path, cfg: dict):
    cfg = dict(cfg)
    cfg["version"] = __version__
    with open(d / "manifest.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True, default=str)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return v


# -- subcommands --------------------------------------------------------------

def _cmd_classify(cfg) -> int:
    p = _parse_ckf(cfg["ckf"])
    d = _outdir(cfg, "classify")
    try:
        cf = classify(p)
    except CkfieldError as exc:
        print(f"not classifiable: {exc}")
        _write_manifest(d, cfg)
        return 1
    rec = {"kind": cf.kind, "x0": _jsonable(cf.x0), "axis": _jsonable(cf.axis),
           "scale": cf.scale, "nu": cf.nu, "rate": cf.rate,
           "admissible": cf.admissible}
    q = reconstruct(cf)
    rec["roundtrip_exact"] = (np.array_equal(q.a, p.a) and q.b0 == p.b0 and
                              np.array_equal(q.b, p.b) and np.array_equal(q.c, p.c))
    census = fixed_point_census(p)
    rec["fixed_points"] = [{"point": _jsonable(fp.point), "kind": fp.kind}
                           for fp in census.isolated]
    if census.degenerate is not None:
        rec["degenerate_zero_set"] = {k: _jsonable(v)
                                      for k, v in census.degenerate.items()}
    with open(d / "classify.json", "w") as fh:
        json.dump(rec, fh, indent=2)
    _write_manifest(d, cfg)
    print(f"kind={cf.kind} scale={cf.scale:.6g} admissible={cf.admissible}"
          + (f" nu={cf.nu:.6g}" if cf.nu is not None else ""))
    return 0 if rec["roundtrip_exact"] else 1


def _cmd_verify_identities(cfg) -> int:
    p = _parse_ckf(cfg["ckf"])
    d = _outdir(cfg, "verify-identities")
    reports = run_identity_suite(p, n_points=int(cfg["points"]),
                                 seed=int(cfg["seed"]))
    rows = [(r.identity_id, *(f"{v:.6g}" for v in r.point),
             f"{r.residual:.3e}", f"{DEFAULT_TOL:.1e}", r.passed)
            for r in reports]
    _write_csv(d / "identities.csv",
               ("identity", "x1", "x2", "x3", "residual", "tol", "pass"), rows)
    _write_manifest(d, cfg)
    bad = [r for r in reports if not r.passed]
    worst = max((r.residual for r in reports), default=0.0)
    print(f"{len(reports)} identity checks, worst residual {worst:.3e}, "
          f"{len(bad)} failures")
    for r in bad[:10]:
        print(f"  FAIL {r.identity_id} at {r.point}: {r.residual:.3e}")
    return 1 if bad else 0


def _cmd_field_lines(cfg) -> int:
    p = _parse_ckf(cfg["ckf"])
    x0 = _parse_point(cfg["seed_point"], "--seed-point")
    t_max = None if cfg["t_max"] is None else float(cfg["t_max"])
    d = _outdir(cfg, "field-lines")
    summary = {"seed_point": x0.tolist()}
    try:
        tr = integrate_curve(p, x0, t_max=t_max, rk_tol=float(cfg["rk_tol"]))
    except BlowUp as exc:
        summary.update({"blowup": True, "detail": str(exc)})
        tr = None
    else:
        summary.update({
            "closed": tr.closed, "period": tr.period,
            "closure_error": tr.closure_error,
            "plane_normal": _jsonable(tr.plane_normal),
            "samples": int(tr.ts.size), "nfev": tr.nfev, "steps": tr.steps,
            # inf on a special field's axis curve, which JSON cannot hold
            "speed_ratio": (tr.speed_ratio if math.isfinite(tr.speed_ratio)
                            else None)})
        if tr.closed:
            dev, kres = planarity_and_curvature(tr, p)
            summary["max_plane_deviation"] = dev
            summary["max_curvature_residual"] = kres
    with open(d / "curve.jsonl", "w") as fh:
        if tr is not None:
            step = max(1, tr.ts.size // int(cfg["max_rows"]))
            for t, x in list(tr.samples)[::step]:
                fh.write(json.dumps({"t": float(t), "x": x.tolist()}) + "\n")
    with open(d / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    _write_manifest(d, cfg)
    print(json.dumps(summary))
    return 0


def _cmd_loop_integrals(cfg) -> int:
    p = _parse_ckf(cfg["ckf"])
    spec = _parse_potential(cfg["potential"])
    x0 = _parse_point(cfg["seed_point"], "--seed-point")
    d = _outdir(cfg, "loop-integrals")
    tr = integrate_curve(p, x0)
    li = loop_integrals(tr, p, spec)
    tol = PASS_TOL["loop"]
    rows = [
        ("div_integral", li.int_div, 0.0, abs(li.int_div), abs(li.int_div) <= tol),
        ("absY_integral", li.int_absY, 4.0 * np.pi,
         abs(li.int_absY - 4.0 * np.pi), abs(li.int_absY - 4.0 * np.pi) <= tol),
    ]
    if li.int_flux is not None:
        rows.append(("flux_integral", li.int_flux, 0.0, abs(li.int_flux),
                     abs(li.int_flux) <= tol))
    _write_csv(d / "loop_integrals.csv",
               ("integral", "value", "target", "abs_error", "pass"), rows)
    _write_manifest(d, cfg)
    ok = all(r[-1] for r in rows)
    for r in rows:
        print(f"{r[0]}: {r[1]:.12g} (target {r[2]:.12g}, err {r[3]:.3e}) "
              f"{'pass' if r[4] else 'FAIL'}")
    print(f"period = {tr.period!r}")
    return 0 if ok else 1


def _cmd_verify_operators(cfg) -> int:
    p = _parse_ckf(cfg["ckf"])
    spec = _parse_potential(cfg["potential"])
    f = _parse_spinor(cfg["spinor"])
    n = int(cfg["points"])
    d = _outdir(cfg, "verify-operators")
    pts = sample_points(p, n, np.random.default_rng(int(cfg["seed"])))
    tol = PASS_TOL["commutator"]
    rows = []
    worst = 0.0
    for i in range(pts.shape[1]):
        x = pts[:, i]
        r1, r2, r3 = commutator_residuals(p, spec, f, x)
        worst = max(worst, r1, r2, r3)
        rows.append((*(f"{v:.6g}" for v in x), f"{r1:.3e}", f"{r2:.3e}",
                     f"{r3:.3e}", max(r1, r2, r3) <= tol))
    _write_csv(d / "commutators.csv",
               ("x1", "x2", "x3", "dwq", "qs", "anti", "pass"), rows)
    report = {"points": n, "worst_commutator_residual": worst,
              "commutators_pass": bool(worst <= tol)}
    ok = worst <= tol
    if cfg["quadrature"]:
        lohi = _numbers(cfg["box"], 6, "--box")
        ranges = tuple((lohi[2 * i], lohi[2 * i + 1]) for i in range(3))
        lhs, terms, rel = norm_decomposition_check(
            p, spec, f, QuadBox(ranges=ranges, n=int(cfg["quadrature"])))
        report.update({"norm_lhs": lhs, "norm_terms": list(terms),
                       "norm_rel_err": rel,
                       "norm_pass": bool(rel <= PASS_TOL["norm_rel"])})
        ok = ok and rel <= PASS_TOL["norm_rel"]
    with open(d / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)
    _write_manifest(d, cfg)
    print(json.dumps(report))
    return 0 if ok else 1


def _cmd_holonomy(cfg) -> int:
    p = _parse_ckf(cfg["ckf"])
    spec = _parse_potential(cfg["potential"])
    x0 = _parse_point(cfg["orbit_seed"], "--orbit-seed")
    d = _outdir(cfg, "holonomy")
    tr = integrate_curve(p, x0)
    hr = admissible_spectrum(p, spec, tr)
    rec = {"period": tr.period,
           "phase_integral": _jsonable(hr.phase_integral),
           "offset": hr.offset, "step": hr.step,
           "monodromy_at_zero": _jsonable(hr.monodromy_at_zero),
           "quantization_residual": hr.quantization_residual,
           "sector_mismatch": hr.sector_mismatch,
           "sector_vs_scalar": hr.sector_vs_scalar,
           "monodromy_defect_at_zero": abs(hr.monodromy_at_zero + 1.0)}
    lam_rows = []
    if cfg["lambdas"]:
        for lam in (float(v) for v in str(cfg["lambdas"]).split(",")):
            m = transport(p, spec, tr, lam)
            lam_rows.append((lam, m.real, m.imag, abs(m - 1.0)))
        _write_csv(d / "transport.csv",
                   ("lambda", "mono_re", "mono_im", "dist_to_1"), lam_rows)
    with open(d / "holonomy.json", "w") as fh:
        json.dump(rec, fh, indent=2)
    _write_manifest(d, cfg)
    ok = (hr.quantization_residual <= PASS_TOL["quantization"]
          and abs(hr.monodromy_at_zero + 1.0) <= PASS_TOL["monodromy"])
    print(json.dumps(rec))
    return 0 if ok else 1


def _cmd_spectrum_sweep(cfg) -> int:
    spec = _parse_potential(cfg["potential"])
    if spec is None:
        raise ValueError("spectrum-sweep needs --potential")
    gs = _grid_spec(cfg, coupling=str(cfg["coupling"]))
    ts = _parse_ts(str(cfg["ts"]))
    d = _outdir(cfg, "spectrum-sweep")
    free = free_sigma_min(gs)
    floor = PASS_TOL["floor"] * free
    sw = scaling_sweep(spec, ts, gs, rng_seed=int(cfg["seed"]),
                       tol=float(cfg["tol"]))
    rows = [(f"{t:.6g}", f"{s:.8e}", s > floor, int(its), f"{eta:.3e}")
            for t, s, its, eta in zip(sw.ts, sw.sigma_mins, sw.iterations,
                                      sw.residuals)]
    _write_csv(d / "sweep.csv",
               ("t", "sigma_min", "above_floor", "iterations", "eta"), rows)
    _write_manifest(d, {**cfg, "sigma_free": free, "sigma_floor": floor,
                        "grid_h": gs.h, "dim": gs.dim})
    lo = float(sw.sigma_mins.min())
    print(f"free sigma = {free:.6f}, floor = {floor:.6f}, "
          f"min_t sigma = {lo:.6f} at t = {sw.ts[int(np.argmin(sw.sigma_mins))]:g}")
    return 0 if lo > floor else 1


def _cmd_control_losyau(cfg) -> int:
    gs = _grid_spec(cfg)
    ns = [int(v) for v in str(cfg["ns"]).split(",")]
    if len(ns) < 2 or any(a >= b for a, b in zip(ns, ns[1:])):
        # the refinement check compares consecutive sizes, coarse to fine;
        # with fewer than two it would pass without comparing anything
        raise ValueError(f"--ns {cfg['ns']!r} needs at least two strictly "
                         f"increasing grid sizes")
    seed = int(cfg["seed"])
    npts = int(cfg["points"])
    d = _outdir(cfg, "control-losyau")
    spec, mode = construct_losyau(n_points=npts, rng_seed=seed)

    # not the points default_rng(seed) draws, which construct_losyau checked
    rng = np.random.default_rng(seed).spawn(1)[0]
    pts = rng.normal(size=(3, npts), scale=1.5)
    Dv = apply_D(spec, mode, pts)
    psi = losyau_psi([pts[0], pts[1], pts[2]])
    cont = float((spinor_abs(Dv) / spinor_abs(psi)).max())

    rows = []
    for ni in ns:
        gi = GridSpec(L=gs.L, n=ni, order=gs.order)
        r = zeromode_residual_on_grid(spec, mode, gi)
        rows.append((ni, gi.h, r))
    s_min = sigma_min(assemble(gs, spec), rng_seed=seed, tol=float(cfg["tol"]))
    free = free_sigma_min(gs)
    _write_csv(d / "residuals.csv", ("n", "h", "grid_residual"),
               [(a, f"{b:.6g}", f"{c:.6e}") for a, b, c in rows])
    rec = {"continuum_residual": cont, "sigma_min": s_min,
           "sigma_free": free, "sigma_floor": PASS_TOL["floor"] * free,
           "grid_residuals": [{"n": a, "h": b, "residual": c}
                              for a, b, c in rows]}
    with open(d / "control.json", "w") as fh:
        json.dump(rec, fh, indent=2)
    _write_manifest(d, cfg)
    decreasing = all(rows[i][2] > rows[i + 1][2] for i in range(len(rows) - 1))
    ok = cont <= PASS_TOL["continuum"] and decreasing
    print(json.dumps(rec))
    return 0 if ok else 1


def _cmd_field_eval(cfg) -> int:
    p = _parse_ckf(cfg["ckf"]) if cfg["ckf"] else None
    spec = _parse_potential(cfg["potential"])
    if p is None and spec is not None:
        p = parent_field(spec)
    if p is None:
        raise ValueError("field-eval needs --ckf or --potential")
    pts = [_parse_point(s, "--at") for s in str(cfg["at"]).split(";")]
    d = _outdir(cfg, "field-eval")
    with open(d / "values.jsonl", "w") as fh:
        for x in pts:
            X, w, divX, Y = frame_quantities(p, x)
            rec = {"x": x.tolist(), "X": [float(v) for v in X],
                   "w": float(w), "divX": float(divX),
                   "Y": [float(v) for v in Y]}
            if spec is not None:
                rec["A"] = _jsonable(eval_potential(spec, x))
                rec["B"] = _jsonable(eval_field(spec, x))
            fh.write(json.dumps(rec) + "\n")
            print(json.dumps(rec))
    _write_manifest(d, cfg)
    return 0


# the defaults spectrum-sweep and control-losyau share
_GRID = {"grid": "24,6", "stencil": 4, "tol": SOLVE_TOL}

# subcommand -> (handler, required options, {further option: default});
# each option is a config key, given on the command line as --key with "_"
# written "-".  This table is the one place a default is set: a handler
# reads cfg[key] and the manifest records every option.  A default of None
# means "not used" (no potential, no quadrature) or, for t_max, the
# integrator's own exact-period window.
_SUBCOMMANDS = {
    "classify": (_cmd_classify, ("ckf",), {}),
    "verify-identities": (_cmd_verify_identities, ("ckf",),
                          {"points": 200}),
    "field-lines": (_cmd_field_lines, ("ckf", "seed_point"),
                    {"t_max": None, "rk_tol": RK_TOL, "max_rows": 4096}),
    "loop-integrals": (_cmd_loop_integrals, ("ckf", "seed_point"),
                       {"potential": None}),
    "verify-operators": (_cmd_verify_operators, ("ckf",),
                         {"potential": None, "spinor": "gaussian:1.5,0,0,0.6",
                          "points": 200, "quadrature": None,
                          "box": "-2.2,2.2,-2.2,2.2,-1.7,1.7"}),
    "holonomy": (_cmd_holonomy, ("ckf", "orbit_seed"),
                 {"potential": None, "lambdas": None}),
    "spectrum-sweep": (_cmd_spectrum_sweep, ("potential",),
                       {**_GRID, "coupling": "site", "ts": "0:20:1"}),
    "control-losyau": (_cmd_control_losyau, (),
                       {**_GRID, "ns": "16,24", "points": 1000}),
    "field-eval": (_cmd_field_eval, ("at",), {"ckf": None, "potential": None}),
}

# defaults of the options every subcommand takes besides --outdir, whose
# fallback is read from the environment in _resolve_config
_COMMON = {"seed": 0}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ckfield",
        description="Conformal-Killing-field magnetic toolkit: identity "
                    "verification, orbit holonomy, and zero-mode probes.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (_, required, further) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON file with a full RunConfig; "
                                         "explicit flags override it")
        sp.add_argument("--outdir")
        sp.add_argument("--seed", type=int)
        for key in (*required, *further):
            sp.add_argument(_flag(key))
    return ap


def _resolve_config(args: argparse.Namespace) -> dict:
    """Flags over --config file values over the _SUBCOMMANDS defaults; the
    result holds every option of the subcommand (None: unset)."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    for k, v in vars(args).items():
        if k == "config" or v is None:
            continue
        cfg[k] = v
    _, _, further = _SUBCOMMANDS[args.subcommand]
    for k, v in {**_COMMON, **further}.items():
        if cfg.get(k) is None:
            cfg[k] = v
    cfg["outdir"] = (cfg.get("outdir") or os.environ.get("CKFIELD_OUTDIR")
                     or "ckfield-runs")
    return cfg


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    fn, required, _ = _SUBCOMMANDS[args.subcommand]
    try:
        cfg = _resolve_config(args)
        missing = [r for r in required if cfg.get(r) in (None, "")]
        if missing:
            print(f"error: missing required option(s): "
                  + ", ".join(_flag(m) for m in missing),
                  file=sys.stderr)
            return 2
        return fn(cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergence, ConstructionFailed, SectorMismatch) as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except CkfieldError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
