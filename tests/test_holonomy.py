"""Transport quantization along closed orbits.

For the rotation and circular fields with their parallel potentials the
phase integrand reduces to |Y|/4 pointwise (the div term vanishes on the
orbit average and X.A = 0 identically), so the admissible eigenvalues sit
at odd multiples of pi/tau and the multiplier at 0 is exactly -1.  The
tests pin those numbers and the internal sector consistency checks.
"""

import numpy as np
import pytest

from ckfield.ckf import eval_ckf, field_cr, field_ro, field_ud
from ckfield import holonomy
from ckfield.cli import main
from ckfield.errors import FrameUndefined, NotClosed, SectorMismatch
from ckfield.flows import cr_orbit_seed, integrate_curve
from ckfield.holonomy import (admissible_spectrum, frame_spinor,
                              phase_integrand, transport)
from ckfield.potentials import axial, hopfbase, scaled, smoothbump
from ckfield.spinors import sigma_apply


def _ro_setup():
    p = field_ro()
    spec = axial(smoothbump(0.2, 4.0, 0.7))
    trace = integrate_curve(p, [0.9, 0.0, 0.2])
    return p, spec, trace


def _cr_setup(mu=1.0, rho=0.5):
    p = field_cr(mu)
    return p, hopfbase(mu), integrate_curve(p, cr_orbit_seed(mu, rho))


def test_rotation_phase_integrand_is_constant_half():
    p, spec, trace = _ro_setup()
    vals = phase_integrand(p, spec, trace)
    # |Y| = 2, div X = 0, X.A = 0 for the axial potential
    np.testing.assert_allclose(vals, 0.5 + 0.0j, atol=1.0e-13)


def test_rotation_spectrum_quantization():
    p, spec, trace = _ro_setup()
    res = admissible_spectrum(p, spec, trace)
    assert res.step == pytest.approx(1.0, abs=1.0e-9)
    assert res.offset == pytest.approx(0.5, abs=1.0e-9)
    assert res.quantization_residual < 1.0e-9
    assert abs(res.monodromy_at_zero + 1.0) < 1.0e-9
    assert res.sector_mismatch < 1.0e-10
    assert res.sector_vs_scalar < 1.0e-12
    assert res.phase_integral.real == pytest.approx(np.pi, abs=1.0e-9)
    assert abs(res.phase_integral.imag) < 1.0e-9


@pytest.mark.parametrize("mu,rho", [(0.5, 0.3), (1.0, 0.5), (2.0, 0.6)])
def test_circular_spectrum_quantization(mu, rho):
    p, spec, trace = _cr_setup(mu, rho)
    res = admissible_spectrum(p, spec, trace)
    tau = trace.period
    assert res.step == pytest.approx(2.0 * np.pi / tau, abs=1.0e-9)
    # offset at the odd multiples of pi / tau, i.e. half a step
    assert res.offset == pytest.approx(np.pi / tau, abs=1.0e-8)
    assert res.quantization_residual < 1.0e-8
    assert abs(res.monodromy_at_zero + 1.0) < 1.0e-8
    assert res.sector_mismatch < 1.0e-10
    assert res.sector_vs_scalar < 1.0e-10


def test_zero_is_never_admissible():
    p, spec, trace = _ro_setup()
    res = admissible_spectrum(p, spec, trace)
    # the admissible lattice offset + k step inside [lo, hi]
    lo, hi = -2.1, 2.1
    ks = np.arange(np.floor((lo - res.offset) / res.step),
                   np.ceil((hi - res.offset) / res.step) + 1)
    lams = [lam for lam in res.offset + ks * res.step if lo <= lam <= hi]
    assert lams == pytest.approx([-1.5, -0.5, 0.5, 1.5], abs=1.0e-9)
    assert min(abs(l) for l in lams) > 0.4


def test_spectrum_invariant_under_potential_scaling():
    p, spec, trace = _ro_setup()
    results = [admissible_spectrum(p, scaled(spec, t), trace)
               for t in (0.0, 1.0, 10.0)]
    offs = [r.offset for r in results]
    steps = [r.step for r in results]
    assert max(offs) - min(offs) < 1.0e-9
    assert max(steps) - min(steps) < 1.0e-12


def test_transport_multiplier_at_selected_lambdas():
    p, spec, trace = _ro_setup()
    res = admissible_spectrum(p, spec, trace)
    assert transport(p, spec, trace, res.offset) == pytest.approx(1.0,
                                                                  abs=1.0e-9)
    half = transport(p, spec, trace, res.offset + 0.5 * res.step)
    assert half == pytest.approx(-1.0, abs=1.0e-9)


def test_open_curves_are_rejected():
    tr = integrate_curve(field_ud(), [0.1, 0.2, 0.3], t_max=2.0)
    with pytest.raises(NotClosed):
        transport(field_ud(), None, tr, 0.0)
    with pytest.raises(NotClosed):
        admissible_spectrum(field_ud(), None, tr)


def test_frame_spinor_diagonalizes_sigma_X():
    p = field_ro()
    x = np.array([0.9, 0.0, 0.2])
    ep, em = frame_spinor(p, x)
    assert np.linalg.norm(ep) == pytest.approx(1.0, abs=1.0e-13)
    assert np.linalg.norm(em) == pytest.approx(1.0, abs=1.0e-13)
    assert abs(np.vdot(ep, em)) < 1.0e-13
    X = eval_ckf(p, x)
    w = np.linalg.norm(X)
    np.testing.assert_allclose(np.array(sigma_apply(X, ep)), w * ep,
                               atol=1.0e-13)
    np.testing.assert_allclose(np.array(sigma_apply(X, em)), -w * em,
                               atol=1.0e-13)


def test_frame_spinor_needs_nondegenerate_frame():
    with pytest.raises(FrameUndefined):
        frame_spinor(field_ro(), [0.0, 0.0, 1.0])   # w = 0 on the axis
    with pytest.raises(FrameUndefined):
        frame_spinor(field_ud(), [1.0, 0.0, 0.0])   # Y = 0 everywhere


def test_sector_mismatch_is_typed_and_carries_margin(monkeypatch, tmp_path):
    p, spec, trace = _ro_setup()
    monkeypatch.setattr(holonomy, "SECTOR_TOL", -1.0)
    with pytest.raises(SectorMismatch) as exc:
        admissible_spectrum(p, spec, trace)
    assert exc.value.tol == -1.0
    assert 0.0 <= exc.value.mismatch < 1.0e-10
    # a failed certificate: the CLI exits 1, a failed check, with no
    # traceback
    assert main(["holonomy", "--ckf", "ro", "--potential", "axial",
                 "--orbit-seed", "0.9,0,0.2", "--outdir", str(tmp_path)]) == 1
