"""The shared field context against the plain-point formulas, and the one
scaled frame rule.

Holonomy, the loop integrals and f w^3 read X, w, div X, Y and A from
`potentials._Field`.  The references below evaluate the same quantities
with the plain-point evaluators (`eval_ckf`, `eval_ckf_curl`, `div_ckf`,
`eval_potential`, `eval_field`); the results must agree bit for bit.
"""

import numpy as np
import pytest

from ckfield.ckf import (CkfParams, EPS_FRAME, div_ckf, eval_ckf,
                         eval_ckf_curl, field_cr, field_ro, frame_threshold)
from ckfield.errors import FrameUndefined
from ckfield.flows import cr_orbit_seed, integrate_curve, loop_integrals
from ckfield.holonomy import admissible_spectrum, frame_spinor, phase_integrand
from ckfield.potentials import (axial, eval_field, eval_potential,
                                fw3_along_curve, gauged, hopfbase, modulated,
                                parent_field, scaled, smoothbump)
from ckfield.spinops import apply_S, commutator_residuals
from ckfield.spinors import gaussian_packet


def _specs(base, profile):
    return [base, modulated(base, profile), scaled(base, 10.0),
            scaled(base, 0.0), gauged(base, "x1x2x3")]


def _orbit(kind, arg):
    if kind == "ro":
        p, x0 = field_ro(), arg
        specs = _specs(axial(smoothbump(0.2, 4.0, 0.7)),
                       smoothbump(0.1, 5.0, 0.9))
    else:
        mu, rho = arg
        p, x0 = field_cr(mu), cr_orbit_seed(mu, rho)
        specs = _specs(hopfbase(mu), smoothbump(0.05, 0.95, 1.0))
    return p, integrate_curve(p, x0), specs


ORBITS = ([("ro", x0) for x0 in ([0.9, 0.0, 0.2], [1.5, 0.3, -0.4])]
          + [("cr", (mu, rho)) for mu in (0.5, 1.0, 1.7)
             for rho in (0.1, 0.5, 0.9)])


def _ref_phase(p, spec, xs):
    absY = np.sqrt((eval_ckf_curl(p, xs) ** 2).sum(axis=0))
    vals = 0.25 * absY - (2.0 / 3.0) * 1j * div_ckf(p, xs)
    if spec is not None:
        vals = vals - (eval_ckf(p, xs) * eval_potential(spec, xs)).sum(axis=0)
    return vals


def _ref_loops(p, spec, trace):
    xs, wts = trace.xs, trace.weights
    int_div = float(wts @ np.asarray(div_ckf(p, xs)))
    int_absY = float(wts @ np.sqrt((eval_ckf_curl(p, xs) ** 2).sum(axis=0)))
    int_flux = None
    if spec is not None:
        X, A = eval_ckf(p, xs), eval_potential(spec, xs)
        int_flux = float(wts @ (X * A).sum(axis=0))
    return int_div, int_absY, int_flux


def _ref_fw3(spec, xs):
    X = eval_ckf(parent_field(spec), xs)
    w2 = (X ** 2).sum(axis=0)
    values = (eval_field(spec, xs) * X).sum(axis=0) * np.sqrt(w2)
    return values, float(values.max() - values.min())


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind,arg", ORBITS,
                         ids=[f"{k}{a}" for k, a in ORBITS])
def test_context_matches_plain_point_formulas_bitwise(kind, arg):
    p, trace, specs = _orbit(kind, arg)
    assert trace.closed
    for spec in [None] + specs:
        ref = _ref_phase(p, spec, trace.xs)
        assert _same_bits(phase_integrand(p, spec, trace), ref)
        # the order-1 context admissible_spectrum seeds gives the same phase
        res = admissible_spectrum(p, spec, trace)
        assert _same_bits(res.phase_integral, complex(trace.weights @ ref))
        assert tuple(loop_integrals(trace, p, spec)) == \
            _ref_loops(p, spec, trace)
        if spec is not None:
            values, spread = fw3_along_curve(spec, trace)
            ref_values, ref_spread = _ref_fw3(spec, trace.xs)
            assert _same_bits(values, ref_values) and spread == ref_spread


def test_frame_rule_is_relative_to_the_field_scale():
    # scale 1e3: w = 5e-8 is above EPS_FRAME but at most EPS_FRAME * scale
    p = CkfParams(a=np.zeros(3), b0=0.0, b=np.array([0.0, 0.0, 1.0e3]),
                  c=np.zeros(3))
    x = np.array([5.0e-11, 0.0, 0.0])
    w = float(np.linalg.norm(eval_ckf(p, x)))
    assert EPS_FRAME < w <= frame_threshold(p) == EPS_FRAME * 1.0e3
    f = gaussian_packet((0.0, 0.0, 0.0), 0.5)
    with pytest.raises(FrameUndefined):
        apply_S(p, f, x)
    with pytest.raises(FrameUndefined):
        commutator_residuals(p, None, f, x)
    with pytest.raises(FrameUndefined):
        frame_spinor(p, x)
    with pytest.raises(FrameUndefined):
        integrate_curve(p, x)
