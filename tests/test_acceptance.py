"""Top-level acceptance checks, one per numbered claim the package makes.

Each test exercises one end-to-end capability at its stated tolerance and
runtime budget and prints a single PASS/FAIL line with the measured
numbers, so `pytest -v tests/test_acceptance.py` reads as a checklist.
The heavy spectral checks (08, 09) run on the same grids the CLI defaults
to; expect a few minutes for the full file.
"""

import time

import numpy as np
import pytest

from ckfield.ckf import classify, field_cr, field_ro, field_ud
from ckfield.flows import cr_orbit_seed, integrate_curve, loop_integrals
from ckfield.grid import GridSpec, assemble, free_sigma_min, scaling_sweep, \
    sigma_min, zeromode_residual_on_grid
from ckfield.holonomy import admissible_spectrum
from ckfield.identities import GENERAL_IDS, SIMPLE_ONLY_IDS, check_identity, \
    sample_points
from ckfield.ckf import CkfParams, reconstruct
from ckfield.potentials import (axial, construct_losyau, hopfbase, lossyau,
                                modulated, scaled, smoothbump)
from ckfield.quadrature import QuadBox
from ckfield.spinops import (CutoffPair, apply_D, commutator_residuals,
                             cutoff_bound_check, norm_decomposition_check)
from ckfield.spinors import bump_packet, eval_spinor, gaussian_packet, \
    spinor_abs

from test_ckf import exact_simple_params, params_bitwise_equal


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")


# ---------------------------------------------------------------------------
# 01: pointwise identity suite


def _generic_batch(rng, n):
    return CkfParams(a=rng.uniform(-1, 1, (3, n)), b0=rng.uniform(-1, 1, n),
                     b=rng.uniform(-1, 1, (3, n)),
                     c=rng.uniform(-0.5, 0.5, (3, n)))


def _unit_cols(rng, n):
    v = rng.normal(size=(3, n))
    return v / np.linalg.norm(v, axis=0)


def _simple_batch(rng, n):
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
    return CkfParams(**{k: np.concatenate([rot[k], spc[k]], axis=-1)
                        for k in ("a", "b0", "b", "c")})


def test_criterion_01_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 1000
    pts = rng.uniform(-2, 2, (3, n))

    worst_general = 0.0
    p_gen = _generic_batch(rng, n)
    for key in GENERAL_IDS:
        rep = check_identity(key, p_gen, pts)
        worst_general = max(worst_general, rep.residual)

    worst_simple = 0.0
    p_sim = _simple_batch(rng, n)
    pts2 = rng.uniform(-2, 2, (3, n))
    for key in SIMPLE_ONLY_IDS:
        rep = check_identity(key, p_sim, pts2)
        worst_simple = max(worst_simple, rep.residual)

    dt = time.perf_counter() - t0
    ok = worst_general <= 1.0e-10 and worst_simple <= 1.0e-10 and dt < 10.0
    _report(1, ok, f"worst general {worst_general:.2e}, "
                   f"worst simple {worst_simple:.2e}, {dt:.1f}s")
    assert worst_general <= 1.0e-10
    assert worst_simple <= 1.0e-10
    assert dt < 10.0


# ---------------------------------------------------------------------------
# 02: classification round-trip


def test_criterion_02_classification_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    kinds = ("Translation", "Dilation", "Rotation", "Special")
    exact = 0
    for i in range(1000):
        p = exact_simple_params(kinds[i % 4], rng)
        cf = classify(p)
        if cf.kind == kinds[i % 4] and params_bitwise_equal(p, reconstruct(cf)):
            exact += 1

    canon = (classify(field_ud()).kind == "Translation"
             and classify(field_ro()).kind == "Rotation"
             and all(classify(field_cr(mu)).kind == "Special"
                     and classify(field_cr(mu)).admissible
                     for mu in (0.5, 1.0, 2.0)))
    dt = time.perf_counter() - t0
    ok = exact == 1000 and canon and dt < 1.0
    _report(2, ok, f"{exact}/1000 bitwise round trips, "
                   f"canonical kinds {'ok' if canon else 'WRONG'}, {dt:.2f}s")
    assert exact == 1000
    assert canon
    assert dt < 1.0


# ---------------------------------------------------------------------------
# 03 + 04: loop integrals and periods on closed orbits


@pytest.fixture(scope="module")
def closed_orbits():
    t0 = time.perf_counter()
    configs = []
    p_ro, spec_ro = field_ro(), axial(smoothbump(0.2, 4.0, 1.0))
    for rho in (0.1, 0.5, 0.9):
        tr = integrate_curve(p_ro, [rho, 0.0, 0.25])
        configs.append((f"ro rho={rho}", p_ro, spec_ro, tr, 2.0 * np.pi))
    for mu in (0.5, 1.0, 2.0):
        p, spec = field_cr(mu), hopfbase(mu)
        for rho in (0.1, 0.5, 0.9):
            tr = integrate_curve(p, cr_orbit_seed(mu, rho))
            configs.append((f"cr:{mu} rho={rho}", p, spec, tr,
                            2.0 * np.pi / mu))
    return configs, time.perf_counter() - t0


def test_criterion_03_loop_integrals(closed_orbits):
    configs, t_trace = closed_orbits
    t0 = time.perf_counter()
    worst = {"div": 0.0, "absY": 0.0, "flux": 0.0}
    for label, p, spec, tr, _ in configs:
        li = loop_integrals(tr, p, spec)
        worst["div"] = max(worst["div"], abs(li.int_div))
        worst["absY"] = max(worst["absY"], abs(li.int_absY - 4.0 * np.pi))
        worst["flux"] = max(worst["flux"], abs(li.int_flux))
    dt = time.perf_counter() - t0 + t_trace
    ok = all(v <= 1.0e-7 for v in worst.values()) and dt < 30.0
    _report(3, ok, f"{len(configs)} orbits, |div| {worst['div']:.2e}, "
                   f"|absY-4pi| {worst['absY']:.2e}, "
                   f"|flux| {worst['flux']:.2e}, {dt:.1f}s")
    for v in worst.values():
        assert v <= 1.0e-7
    assert dt < 30.0


def test_criterion_04_orbit_periods(closed_orbits):
    configs, _ = closed_orbits
    worst = 0.0
    for label, p, spec, tr, tau in configs:
        assert tr.closed, label
        worst = max(worst, abs(tr.period - tau))
    ok = worst <= 1.0e-8
    _report(4, ok, f"{len(configs)} periods, worst |tau - 2pi/mu| {worst:.2e}")
    assert worst <= 1.0e-8


# ---------------------------------------------------------------------------
# 05: commutator identities at random points


def test_criterion_05_commutator_residuals():
    rng = np.random.default_rng(7)
    f = gaussian_packet((0.9, 0.2, -0.3), 0.6, spinor=(1.0, 0.4 - 0.2j))
    worst = 0.0
    for p, spec in ((field_ro(), axial(smoothbump(0.2, 4.0, 0.7))),
                    (field_cr(1.0), hopfbase(1.0))):
        pts = sample_points(p, 200, rng)
        worst = max(worst, *commutator_residuals(p, spec, f, pts))
    ok = worst <= 1.0e-9
    _report(5, ok, f"worst commutator residual {worst:.2e} at 200 points "
                   f"per configuration")
    assert worst <= 1.0e-9


# ---------------------------------------------------------------------------
# 06: w-weighted norm decomposition under quadrature refinement


def test_criterion_06_norm_decomposition():
    t0 = time.perf_counter()
    p = field_ro()
    spec = axial(smoothbump(0.1, 3.0, 0.8))
    f = bump_packet((0.3, 2.2), (-0.9, 0.9), spinor=(0.8, 0.6j))
    ranges = ((-1.6, 1.6), (-1.6, 1.6), (-1.0, 1.0))
    _, _, rel128 = norm_decomposition_check(p, spec, f,
                                            QuadBox(ranges, n=128))
    _, _, rel256 = norm_decomposition_check(p, spec, f,
                                            QuadBox(ranges, n=256))
    dt = time.perf_counter() - t0
    ok = rel128 <= 1.0e-3 and rel256 <= rel128 / 4.0 and dt < 120.0
    _report(6, ok, f"rel err {rel128:.2e} @128^3 -> {rel256:.2e} @256^3 "
                   f"({rel128 / max(rel256, 1e-300):.0f}x), {dt:.1f}s")
    assert rel128 <= 1.0e-3
    assert rel256 <= rel128 / 4.0
    assert dt < 120.0


# ---------------------------------------------------------------------------
# 07: holonomy quantization on nine (field, orbit) configurations


def test_criterion_07_holonomy_quantization():
    configs = []
    p_ro, spec_ro = field_ro(), axial(smoothbump(0.2, 4.0, 1.0))
    for rho in (0.5, 1.0, 1.5):
        configs.append((p_ro, spec_ro, integrate_curve(p_ro, [rho, 0, 0.2])))
    for mu in (0.5, 1.0, 2.0):
        p, spec = field_cr(mu), hopfbase(mu)
        for rho in (0.3, 0.6):
            configs.append((p, spec, integrate_curve(p, cr_orbit_seed(mu, rho))))
    assert len(configs) == 9

    worst_q = worst_m = worst_spread = 0.0
    for p, spec, tr in configs:
        res = admissible_spectrum(p, spec, tr)
        worst_q = max(worst_q, res.quantization_residual)
        worst_m = max(worst_m, abs(res.monodromy_at_zero + 1.0))
        offs = [admissible_spectrum(p, scaled(spec, t), tr).offset
                for t in (0.0, 1.0, 10.0)]
        worst_spread = max(worst_spread, max(offs) - min(offs))
    ok = worst_q <= 1.0e-6 and worst_m <= 1.0e-6 and worst_spread <= 1.0e-9
    _report(7, ok, f"9 configurations: offset defect {worst_q:.2e}, "
                   f"|mono(0)+1| {worst_m:.2e}, "
                   f"t-scaling spread {worst_spread:.2e}")
    assert worst_q <= 1.0e-6
    assert worst_m <= 1.0e-6
    assert worst_spread <= 1.0e-9


# ---------------------------------------------------------------------------
# 08: positive control (classical zero mode)


def test_criterion_08_positive_control():
    spec, mode = construct_losyau(n_points=1000, rng_seed=7)
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(3, 1000), scale=1.5)
    Dv = apply_D(spec, mode, pts)
    mags = spinor_abs(eval_spinor(mode, [pts[0], pts[1], pts[2]]))
    cont = float((np.sqrt((np.abs(Dv) ** 2).sum(axis=0)) / mags).max())

    ratios = {}
    for order in (2, 4):
        rs = [zeromode_residual_on_grid(spec, mode,
                                        GridSpec(L=2.5, n=n, order=order),
                                        interior_margin=1.0)
              for n in (16, 32)]
        ratios[order] = rs[0] / rs[1]

    sigmas = [sigma_min(assemble(GridSpec(L=6.0, n=n), spec))
              for n in (16, 24, 32)]
    decreasing = sigmas[0] > sigmas[1] > sigmas[2]

    ok = (cont <= 1.0e-10
          and abs(ratios[2] - 4.0) <= 0.3 * 4.0
          and abs(ratios[4] - 16.0) <= 0.3 * 16.0
          and decreasing)
    _report(8, ok, f"continuum residual {cont:.2e}; grid ratio "
                   f"order2 {ratios[2]:.2f} (ideal 4), "
                   f"order4 {ratios[4]:.2f} (ideal 16); "
                   f"sigma_min {sigmas[0]:.4f} > {sigmas[1]:.4f} > "
                   f"{sigmas[2]:.4f}")
    assert cont <= 1.0e-10
    assert abs(ratios[2] - 4.0) <= 0.3 * 4.0
    assert abs(ratios[4] - 16.0) <= 0.3 * 16.0
    assert decreasing


# ---------------------------------------------------------------------------
# 09: no spectral collapse for the no-zero-mode families


def test_criterion_09_spectral_floor():
    t0 = time.perf_counter()
    gs = GridSpec(L=6.0, n=24)
    ts = np.arange(21.0)
    free = free_sigma_min(gs)
    floor = 0.5 * free

    mins = {}
    for name, spec in (("axial", axial(smoothbump(0.5, 9.0, 0.25))),
                       ("modulated", modulated(hopfbase(1.0),
                                               smoothbump(0.05, 0.5, 1.0)))):
        sw = scaling_sweep(spec, ts, gs)
        mins[name] = float(sw.sigma_mins.min())

    sig_ly = sigma_min(assemble(gs, lossyau()))
    dt = time.perf_counter() - t0
    ok = (all(v > floor for v in mins.values())
          and sig_ly < 0.25 * floor and dt < 600.0)
    _report(9, ok, f"floor {floor:.4f}; min sigma over t<=20: "
                   f"axial {mins['axial']:.4f}, "
                   f"modulated {mins['modulated']:.4f}; "
                   f"control {sig_ly:.4f} < {0.25 * floor:.4f}, {dt:.0f}s")
    assert mins["axial"] > floor
    assert mins["modulated"] > floor
    assert sig_ly < 0.25 * floor
    assert dt < 600.0


# ---------------------------------------------------------------------------
# 10: cutoff derivative bound halves per R -> R^2


def test_criterion_10_cutoff_bound():
    import math
    sups = []
    for k in (2, 4, 8):
        sup, bound = cutoff_bound_check(
            CutoffPair(field_cr(1.0), R=math.e ** k))
        assert sup <= bound
        sups.append(sup)
    r1, r2 = sups[0] / sups[1], sups[1] / sups[2]
    ok = abs(r1 - 2.0) <= 0.4 and abs(r2 - 2.0) <= 0.4
    _report(10, ok, f"sup ratios {r1:.4f}, {r2:.4f} (target 2 +- 20%)")
    assert abs(r1 - 2.0) <= 0.4
    assert abs(r2 - 2.0) <= 0.4
