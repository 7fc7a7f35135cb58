"""Command-line entry point.

Each subcommand's options are declared once, in _SUBCOMMANDS, with their
parsers and defaults.  Flags override --config file values, which
override the defaults; every value is parsed once, before any work, so a
malformed one exits 2 naming its flag.  A run writes its outputs and a
strict-JSON manifest.json (every option's parsed value, the version and
the derived numbers the run reports) into <outdir>/<subcommand>, and
exits 0 when all checks pass, 1 when a check fails, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .ckf import (CkfParams, classify, field_cr, field_iso, field_ro,
                  field_ud, frame_quantities, reconstruct)
from .errors import (BlowUp, CkfieldError, ConstructionFailed, NoConvergence,
                     SectorMismatch, SupportViolation)
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
from .quadrature import QuadBox, _even_nodes

# "floor" is the spectral floor as a fraction of the free sigma_min;
# "continuum" bounds the zero-mode control's continuum residual
PASS_TOL = {"loop": 1.0e-7, "commutator": 1.0e-9, "norm_rel": 1.0e-3,
            "quantization": 1.0e-6, "monodromy": 1.0e-6, "floor": 0.5,
            "continuum": 1.0e-10}


# -- option parsers -----------------------------------------------------------
# Each takes a flag string, or a JSON value from a --config file or the
# defaults, and returns the JSON value that the handlers read and the
# manifest records, or raises ValueError naming the flag.

def _scalar(kind, ok, what: str):
    """Parser of one `kind` (float or int) value for which ok holds."""
    def parse(v, flag: str):
        try:
            x = kind(v) if type(v) in (str, int, kind) else None
        except (ValueError, OverflowError):
            x = None
        if x is None or not ok(x):
            raise ValueError(f"{flag} needs {what}, got {v!r}")
        return x
    return parse


_finite = _scalar(float, math.isfinite, "a finite number")
_positive = _scalar(float, lambda x: math.isfinite(x) and x > 0,
                    "a positive finite number")
_count = _scalar(int, lambda n: n > 0, "a positive integer")
_seed = _scalar(int, lambda n: n >= 0, "an integer >= 0")


def _string(v, flag: str):
    """A string, stripped; empty, none or null leaves the option unset."""
    if type(v) is not str:
        raise ValueError(f"{flag} needs a string, got {v!r}")
    v = v.strip()
    return None if v in ("", "none", "null") else v


def _seq(items, sep: str):
    """Parser of a list: `items` is one parser per entry, or the parser of
    each of one or more entries; a flag string separates them by `sep`."""
    def parse(v, flag: str) -> list:
        if type(v) not in (str, list):
            raise ValueError(f"{flag} needs a list, got {v!r}")
        xs = v.split(sep) if type(v) is str else v
        ps = items if type(items) is tuple else (items,) * max(len(xs), 1)
        if len(xs) != len(ps):
            raise ValueError(f"{flag} needs {len(ps)} values, got "
                             f"{len(xs)}: {v!r}")
        return [p(x, flag) for p, x in zip(ps, xs)]
    return parse


_three = _seq((_finite,) * 3, ",")  # a point, or (lo, hi, amp)


def _ts(v, flag: str) -> list:
    """A:B:STEP, an inclusive range, or a list of numbers."""
    if not (type(v) is str and ":" in v):
        return _seq(_finite, ",")(v, flag)
    a, b, step = _seq((_finite,) * 3, ":")(v, flag)
    span = (b - a) / step if step else math.nan
    n = int(round(span)) + 1 if math.isfinite(span) else 0
    if n < 1:
        raise ValueError(f"{flag} {v!r} is not a range: need a finite, "
                         f"nonzero step from a towards b")
    return (a + step * np.arange(n)).tolist()


def _ladder(v, flag: str) -> list:
    """Grid sizes for the refinement check, which compares neighbours."""
    ns = _seq(_count, ",")(v, flag)
    if len(ns) < 2 or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError(f"{flag} {v!r} needs at least two strictly "
                         f"increasing grid sizes")
    return ns


# -- spec strings, built at handler entry -------------------------------------

def _parse_ckf(s: str) -> CkfParams:
    try:
        if s in ("ud", "ro", "iso"):
            return {"ud": field_ud, "ro": field_ro, "iso": field_iso}[s]()
        if s.startswith("cr:"):
            return field_cr(float(s[3:]))
        return CkfParams.from_dict(json.loads(s))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"cannot parse --ckf {s!r}: {exc}") from exc


def _parse_potential(s):
    if s is None:
        return None
    kind, _, rest = s.partition(":")
    try:
        if s == "lossyau":
            return lossyau()
        if kind == "hopfbase":
            return hopfbase(float(rest))
        if kind == "axial":
            # default amplitude keeps t*|A| inside the stencil's resolvable
            # range through t = 20 on an n = 24, L = 6 grid
            lo, hi, amp = _three(rest or "0.5,9,0.25", kind)
            return axial(smoothbump(lo, hi, amplitude=amp))
        if kind == "modulated":
            mu, _, bump = rest.partition(":")
            lo, hi, amp = _three(bump or "0.05,0.5,1", kind)
            return modulated(hopfbase(float(mu)),
                             smoothbump(lo, hi, amplitude=amp))
        return spec_from_dict(json.loads(s))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"cannot parse --potential {s!r}: {exc}") from exc


def _parse_spinor(s: str) -> SpinorField:
    kind, _, rest = s.partition(":")
    try:
        if s == "losyau":
            return losyau_mode()
        if kind in ("gaussian", "bump"):
            v = _seq((_finite,) * 4, ",")(rest, f"--spinor {kind}:")
            if kind == "gaussian":
                return gaussian_packet(center=v[:3], width=v[3])
            return bump_packet(u_range=(v[0], v[1]), z_range=(v[2], v[3]))
        return spinor_from_dict(json.loads(s))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"cannot parse --spinor {s!r}: {exc}") from exc


def _refused(flag: str, make):
    """make(), with the library's refusal of the value named by its flag."""
    try:
        return make()
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def _grid(cfg: dict) -> GridSpec:
    """The GridSpec of --grid and --stencil; each field is added to one the
    library already accepted, so a refusal names the flag it came from."""
    n, L = cfg["grid"]
    gs = _refused("--grid", lambda: GridSpec(L=L, n=n))
    return _refused("--stencil", lambda: replace(gs, order=cfg["stencil"]))


def _outdir(cfg: dict) -> Path:
    d = Path(cfg["outdir"]) / cfg["subcommand"]
    d.mkdir(parents=True, exist_ok=True)
    return d


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
    d = _outdir(cfg)
    try:
        cf = classify(p)
    except CkfieldError as exc:
        print(f"not classifiable: {exc}")
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
    print(f"kind={cf.kind} scale={cf.scale:.6g} admissible={cf.admissible}"
          + (f" nu={cf.nu:.6g}" if cf.nu is not None else ""))
    return 0 if rec["roundtrip_exact"] else 1


def _cmd_verify_identities(cfg) -> int:
    p = _parse_ckf(cfg["ckf"])
    d = _outdir(cfg)
    reports = run_identity_suite(p, n_points=cfg["points"], seed=cfg["seed"])
    rows = [(r.identity_id, *(f"{v:.6g}" for v in r.point),
             f"{r.residual:.3e}", f"{DEFAULT_TOL:.1e}", r.passed)
            for r in reports]
    _write_csv(d / "identities.csv",
               ("identity", "x1", "x2", "x3", "residual", "tol", "pass"), rows)
    bad = [r for r in reports if not r.passed]
    worst = max((r.residual for r in reports), default=0.0)
    print(f"{len(reports)} identity checks, worst residual {worst:.3e}, "
          f"{len(bad)} failures")
    for r in bad[:10]:
        print(f"  FAIL {r.identity_id} at {r.point}: {r.residual:.3e}")
    return 1 if bad else 0


def _cmd_field_lines(cfg) -> int:
    p = _parse_ckf(cfg["ckf"])
    d = _outdir(cfg)
    summary = {"seed_point": cfg["seed_point"]}
    try:
        tr = integrate_curve(p, cfg["seed_point"], t_max=cfg["t_max"],
                             rk_tol=cfg["rk_tol"])
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
            step = max(1, tr.ts.size // cfg["max_rows"])
            for t, x in list(tr.samples)[::step]:
                fh.write(json.dumps({"t": float(t), "x": x.tolist()}) + "\n")
    with open(d / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(json.dumps(summary))
    return 0


def _cmd_loop_integrals(cfg) -> int:
    p = _parse_ckf(cfg["ckf"])
    spec = _parse_potential(cfg["potential"])
    d = _outdir(cfg)
    tr = integrate_curve(p, cfg["seed_point"])
    li = loop_integrals(tr, p, spec)
    tol = PASS_TOL["loop"]
    targets = [("div_integral", li.int_div, 0.0),
               ("absY_integral", li.int_absY, 4.0 * np.pi)]
    if li.int_flux is not None:
        targets.append(("flux_integral", li.int_flux, 0.0))
    rows = [(name, v, t, abs(v - t), abs(v - t) <= tol)
            for name, v, t in targets]
    _write_csv(d / "loop_integrals.csv",
               ("integral", "value", "target", "abs_error", "pass"), rows)
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
    norm = {}
    if cfg["quadrature"] is not None:
        # first, so a spinor the box cannot hold is refused before any
        # other work and before the output directory exists
        lohi = cfg["box"]
        n = _refused("--quadrature", lambda: _even_nodes(cfg["quadrature"]))
        box = _refused("--box", lambda: QuadBox(
            ranges=tuple(zip(lohi[::2], lohi[1::2])), n=n))
        try:
            lhs, terms, rel = norm_decomposition_check(p, spec, f, box)
        except SupportViolation as exc:
            raise ValueError(
                f"--spinor and --box do not fit the norm check: {exc}; use "
                f"a compactly supported spinor inside the box, such as "
                f"--spinor bump:0.3,2.2,-0.9,0.9 --box=-1.6,1.6,-1.6,1.6,-1,1"
            ) from exc
        norm = {"norm_lhs": lhs, "norm_terms": list(terms),
                "norm_rel_err": rel,
                "norm_pass": bool(rel <= PASS_TOL["norm_rel"])}
    d = _outdir(cfg)
    pts = sample_points(p, cfg["points"], np.random.default_rng(cfg["seed"]))
    tol = PASS_TOL["commutator"]
    res = [commutator_residuals(p, spec, f, x) for x in pts.T]
    worst = max(0.0, *(r for rs in res for r in rs))
    rows = [(*(f"{v:.6g}" for v in x), *(f"{r:.3e}" for r in rs),
             max(rs) <= tol) for x, rs in zip(pts.T, res)]
    _write_csv(d / "commutators.csv",
               ("x1", "x2", "x3", "dwq", "qs", "anti", "pass"), rows)
    report = {"points": cfg["points"], "worst_commutator_residual": worst,
              "commutators_pass": bool(worst <= tol), **norm}
    with open(d / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report))
    return 0 if worst <= tol and norm.get("norm_pass", True) else 1


def _cmd_holonomy(cfg) -> int:
    p = _parse_ckf(cfg["ckf"])
    spec = _parse_potential(cfg["potential"])
    d = _outdir(cfg)
    tr = integrate_curve(p, cfg["orbit_seed"])
    hr = admissible_spectrum(p, spec, tr)
    rec = {"period": tr.period,
           "phase_integral": _jsonable(hr.phase_integral),
           "offset": hr.offset, "step": hr.step,
           "monodromy_at_zero": _jsonable(hr.monodromy_at_zero),
           "quantization_residual": hr.quantization_residual,
           "sector_mismatch": hr.sector_mismatch,
           "sector_vs_scalar": hr.sector_vs_scalar,
           "monodromy_defect_at_zero": abs(hr.monodromy_at_zero + 1.0)}
    if cfg["lambdas"] is not None:
        ms = [transport(p, spec, tr, lam) for lam in cfg["lambdas"]]
        _write_csv(d / "transport.csv",
                   ("lambda", "mono_re", "mono_im", "dist_to_1"),
                   [(lam, m.real, m.imag, abs(m - 1.0))
                    for lam, m in zip(cfg["lambdas"], ms)])
    with open(d / "holonomy.json", "w") as fh:
        json.dump(rec, fh, indent=2)
    ok = (hr.quantization_residual <= PASS_TOL["quantization"]
          and abs(hr.monodromy_at_zero + 1.0) <= PASS_TOL["monodromy"])
    print(json.dumps(rec))
    return 0 if ok else 1


def _cmd_spectrum_sweep(cfg) -> int:
    spec = _parse_potential(cfg["potential"])
    grid = _grid(cfg)
    gs = _refused("--coupling",
                  lambda: replace(grid, coupling=cfg["coupling"]))
    d = _outdir(cfg)
    free = free_sigma_min(gs)
    floor = PASS_TOL["floor"] * free
    sw = scaling_sweep(spec, np.array(cfg["ts"]), gs, rng_seed=cfg["seed"],
                       tol=cfg["tol"])
    rows = [(f"{t:.6g}", f"{s:.8e}", s > floor, int(its), f"{eta:.3e}")
            for t, s, its, eta in zip(sw.ts, sw.sigma_mins, sw.iterations,
                                      sw.residuals)]
    _write_csv(d / "sweep.csv",
               ("t", "sigma_min", "above_floor", "iterations", "eta"), rows)
    cfg.update(sigma_free=free, sigma_floor=floor, grid_h=gs.h, dim=gs.dim)
    lo = float(sw.sigma_mins.min())
    print(f"free sigma = {free:.6f}, floor = {floor:.6f}, "
          f"min_t sigma = {lo:.6f} at t = {sw.ts[int(np.argmin(sw.sigma_mins))]:g}")
    return 0 if lo > floor else 1


def _cmd_control_losyau(cfg) -> int:
    gs = _grid(cfg)
    ladder = [_refused("--ns", lambda: replace(gs, n=ni)) for ni in cfg["ns"]]
    d = _outdir(cfg)
    spec, mode = construct_losyau(n_points=cfg["points"], rng_seed=cfg["seed"])

    # not the points default_rng(seed) draws, which construct_losyau checked
    rng = np.random.default_rng(cfg["seed"]).spawn(1)[0]
    pts = rng.normal(size=(3, cfg["points"]), scale=1.5)
    Dv = apply_D(spec, mode, pts)
    psi = losyau_psi([pts[0], pts[1], pts[2]])
    cont = float((spinor_abs(Dv) / spinor_abs(psi)).max())

    rows = [(gi.n, gi.h, zeromode_residual_on_grid(spec, mode, gi))
            for gi in ladder]
    s_min = sigma_min(assemble(gs, spec), rng_seed=cfg["seed"],
                      tol=cfg["tol"])
    free = free_sigma_min(gs)
    _write_csv(d / "residuals.csv", ("n", "h", "grid_residual"),
               [(a, f"{b:.6g}", f"{c:.6e}") for a, b, c in rows])
    rec = {"continuum_residual": cont, "sigma_min": s_min,
           "sigma_free": free, "sigma_floor": PASS_TOL["floor"] * free,
           "grid_residuals": [{"n": a, "h": b, "residual": c}
                              for a, b, c in rows]}
    with open(d / "control.json", "w") as fh:
        json.dump(rec, fh, indent=2)
    decreasing = all(rows[i][2] > rows[i + 1][2] for i in range(len(rows) - 1))
    ok = cont <= PASS_TOL["continuum"] and decreasing
    print(json.dumps(rec))
    return 0 if ok else 1


def _cmd_field_eval(cfg) -> int:
    spec = _parse_potential(cfg["potential"])
    if cfg["ckf"] is None and spec is None:
        raise ValueError("field-eval needs --ckf or --potential")
    p = parent_field(spec) if cfg["ckf"] is None else _parse_ckf(cfg["ckf"])
    d = _outdir(cfg)
    with open(d / "values.jsonl", "w") as fh:
        for x in map(np.array, cfg["at"]):
            X, w, divX, Y = frame_quantities(p, x)
            rec = {"x": x.tolist(), "X": [float(v) for v in X],
                   "w": float(w), "divX": float(divX),
                   "Y": [float(v) for v in Y]}
            if spec is not None:
                rec["A"] = _jsonable(eval_potential(spec, x))
                rec["B"] = _jsonable(eval_field(spec, x))
            fh.write(json.dumps(rec) + "\n")
            print(json.dumps(rec))
    return 0


# the options spectrum-sweep and control-losyau share
_GRID = {"grid": (_seq((_count, _finite), ","), "24,6"),
         "stencil": (_count, 4), "tol": (_positive, SOLVE_TOL)}

# subcommand -> (handler, {required option: parser},
#                {further option: (parser, default)}); each option is a
# config key, given on the command line as --key with "_" written "-".
# This table is the one place an option's parser and default are set.  A
# default of None means "not used" (no potential, no quadrature) or, for
# t_max, the integrator's own exact-period window.
_SUBCOMMANDS = {
    "classify": (_cmd_classify, {"ckf": _string}, {}),
    "verify-identities": (_cmd_verify_identities, {"ckf": _string},
                          {"points": (_count, 200)}),
    "field-lines": (_cmd_field_lines, {"ckf": _string, "seed_point": _three},
                    {"t_max": (_positive, None),
                     "rk_tol": (_positive, RK_TOL),
                     "max_rows": (_count, 4096)}),
    "loop-integrals": (_cmd_loop_integrals,
                       {"ckf": _string, "seed_point": _three},
                       {"potential": (_string, None)}),
    "verify-operators": (_cmd_verify_operators, {"ckf": _string},
                         {"potential": (_string, None),
                          "spinor": (_string, "gaussian:1.5,0,0,0.6"),
                          "points": (_count, 200),
                          "quadrature": (_count, None),
                          "box": (_seq((_finite,) * 6, ","),
                                  "-2.2,2.2,-2.2,2.2,-1.7,1.7")}),
    "holonomy": (_cmd_holonomy, {"ckf": _string, "orbit_seed": _three},
                 {"potential": (_string, None),
                  "lambdas": (_seq(_finite, ","), None)}),
    "spectrum-sweep": (_cmd_spectrum_sweep, {"potential": _string},
                       {**_GRID, "coupling": (_string, "site"),
                        "ts": (_ts, "0:20:1")}),
    "control-losyau": (_cmd_control_losyau, {},
                       {**_GRID, "ns": (_ladder, "16,24"),
                        "points": (_count, 1000)}),
    "field-eval": (_cmd_field_eval, {"at": _seq(_three, ";")},
                   {"ckf": (_string, None), "potential": (_string, None)}),
}

# the options every subcommand takes (_resolve_config sets --outdir's)
_COMMON = {"seed": (_seed, 0), "outdir": (_string, None)}


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
        sp.add_argument("--config", help="JSON file of option values")
        for key in (*required, *_COMMON, *further):
            sp.add_argument(_flag(key))
    return ap


def _resolve_config(args: argparse.Namespace) -> dict:
    """The subcommand and each of its options (None: unset), parsed once:
    flags over --config file values over the _SUBCOMMANDS defaults."""
    _, required, further = _SUBCOMMANDS[args.subcommand]
    given = {}
    if args.config:
        with open(args.config) as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise ValueError(f"--config {args.config!r} needs a JSON object")
    given.update((k, v) for k, v in vars(args).items() if v is not None)
    options = {**{k: (parse, None) for k, parse in required.items()},
               **_COMMON, **further}
    cfg = {"subcommand": args.subcommand}
    for key, (parse, default) in options.items():
        # the given value, or the default where that is missing or unset
        for v in (given.get(key), default):
            cfg[key] = None if v is None else parse(v, _flag(key))
            if cfg[key] is not None:
                break
        if cfg[key] is None and key in required:
            raise ValueError(f"missing required option {_flag(key)}")
    cfg["outdir"] = (cfg["outdir"] or os.environ.get("CKFIELD_OUTDIR")
                     or "ckfield-runs")
    return cfg


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _resolve_config(args)
        rc = _SUBCOMMANDS[args.subcommand][0](cfg)
        with open(_outdir(cfg) / "manifest.json", "w") as fh:
            json.dump({**cfg, "version": __version__}, fh, indent=2,
                      sort_keys=True, allow_nan=False)
        return rc
    except (ValueError, OSError) as exc:
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
