"""The shared field context against the plain-point formulas, seeded
values against plain ones, and the one scaled frame rule.

Holonomy and the loop integrals read X, w, div X, Y and A from
`potentials._Field`.  The references below evaluate the same quantities
with the plain-point evaluators (`eval_ckf`, `div_ckf`, `eval_potential`
and the curl oracle `eval_ckf_curl` below); the results must agree bit for
bit.  So must the value of every closed form evaluated on seeded jets and
on plain points: a jet's value is the plain value.
"""

from dataclasses import replace

import numpy as np
import pytest

import ckfield.holonomy
from ckfield.ckf import (CanonicalForm, CkfParams, EPS_FRAME, curl_components,
                         div_ckf, eval_ckf, field_cr, field_ro,
                         frame_threshold, reconstruct)
from ckfield.errors import FrameUndefined
from ckfield.flows import cr_orbit_seed, integrate_curve, loop_integrals
from ckfield.holonomy import admissible_spectrum, frame_spinor, phase_integrand
from ckfield.jets import seed, value
from ckfield.potentials import (axial, constant, eval_potential, gauged,
                                gaussian, hopfbase, lossyau, modulated,
                                polynomial, potential_components, scaled,
                                smoothbump)
from ckfield.spinops import apply_S, commutator_residuals
from ckfield.spinors import (bump_packet, eval_spinor, gaussian_packet,
                             losyau_mode)


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


def eval_ckf_curl(p, x):
    # Y = curl X at plain points, shape (3,) + batch, from the closed form
    return np.stack(curl_components(p, np.asarray(x, dtype=float)))


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


_AXIAL = axial(smoothbump(0.2, 4.0, 0.7))
SEEDED_SPECS = {
    "axial-smoothbump": _AXIAL,
    "axial-gaussian": axial(gaussian(0.5, 1.0, 1.3), smoothbump(-2.0, 2.5)),
    "axial-polynomial": axial(polynomial([0.3, -0.2, 0.05]),
                              gaussian(0.2, 1.5)),
    "axial-constant": axial(constant(0.8), polynomial([1.0, 0.4])),
    "hopfbase": hopfbase(0.7),
    "modulated-axial": modulated(_AXIAL, smoothbump(0.1, 5.0, 0.9)),
    "modulated-hopfbase": modulated(hopfbase(1.0),
                                    smoothbump(0.05, 0.95, 1.0)),
    "lossyau": lossyau(),
    "scaled": scaled(modulated(hopfbase(1.3), gaussian(0.4, 0.3)), -0.7),
    "gauged-sin_x1_x2": gauged(_AXIAL, "sin_x1_x2"),
    "gauged-x1x2x3": gauged(hopfbase(1.0), "x1x2x3"),
    "gauged-linear": gauged(lossyau(), "linear:0.3,-1.2,2.0"),
}
SEEDED_SPINORS = [
    gaussian_packet((0.3, -0.2, 0.5), 0.8, spinor=(0.6, 0.8j),
                    poly=((1.0, (0, 0, 0)), (0.5, (1, 0, 2)),
                          (-0.3, (0, 1, 0)))),
    bump_packet((0.3, 2.5), (-1.0, 1.2), spinor=(1.0, 0.5 - 0.5j)),
    losyau_mode(),
]


def _same_values(seeded, plain, shape):
    return all(_same_bits(np.broadcast_to(value(a), shape),
                          np.broadcast_to(value(b), shape))
               for a, b in zip(seeded, plain))


@pytest.mark.parametrize("spec", SEEDED_SPECS.values(), ids=SEEDED_SPECS)
@pytest.mark.parametrize("order", (1, 2))
def test_seeded_potential_values_are_the_plain_values(spec, order):
    pts = np.random.default_rng(5).normal(scale=1.5, size=(3, 2000))
    plain = eval_potential(spec, pts)
    seeded = potential_components(spec, seed(pts, order=order))
    assert _same_values(seeded, list(plain), pts.shape[1:])


@pytest.mark.parametrize("field", SEEDED_SPINORS,
                         ids=[f.kind for f in SEEDED_SPINORS])
@pytest.mark.parametrize("order", (1, 2))
def test_seeded_spinor_values_are_the_plain_values(field, order):
    pts = np.random.default_rng(6).normal(scale=1.2, size=(3, 2000))
    plain = eval_spinor(field, [pts[0], pts[1], pts[2]])
    seeded = eval_spinor(field, seed(pts, order=order))
    assert _same_values(seeded, plain, pts.shape[1:])


@pytest.mark.parametrize("kind,arg", [("ro", [0.9, 0.0, 0.2]),
                                      ("cr", (0.5, 0.5)), ("cr", (1.7, 0.9))])
def test_phase_integrand_is_admissible_spectrums_integrand(kind, arg,
                                                          monkeypatch):
    # admissible_spectrum reads its integrand from an order-1 seeded
    # context, phase_integrand from the unseeded nodes
    p, trace, _ = _orbit(kind, arg)
    base = _AXIAL if kind == "ro" else hopfbase(arg[0])
    seen = []
    real = ckfield.holonomy._phase_values

    def recording(ctx):
        seen.append(real(ctx))
        return seen[-1]

    monkeypatch.setattr(ckfield.holonomy, "_phase_values", recording)
    for gauge in ("sin_x1_x2", "x1x2x3", "linear:0.3,-1.2,2.0"):
        spec = gauged(base, gauge)
        admissible_spectrum(p, spec, trace)
        integrand = seen[-1]
        assert _same_bits(phase_integrand(p, spec, trace), integrand)


def _refuses(call, *margins):
    # the refusal states each measured margin and the threshold
    with pytest.raises(FrameUndefined) as err:
        call()
    for margin in margins:
        assert margin in str(err.value), (margin, str(err.value))


def test_frame_rule_is_relative_to_the_field_scale():
    # scale 1e3: w = 5e-8 is above EPS_FRAME but at most EPS_FRAME * scale
    p = CkfParams(a=np.zeros(3), b0=0.0, b=np.array([0.0, 0.0, 1.0e3]),
                  c=np.zeros(3))
    x = np.array([5.0e-11, 0.0, 0.0])
    w = float(np.linalg.norm(eval_ckf(p, x)))
    assert EPS_FRAME < w <= frame_threshold(p) == EPS_FRAME * 1.0e3
    margins = (f"min w = {w:.3e}",
               f"frame threshold {frame_threshold(p):.3e}")
    f = gaussian_packet((0.0, 0.0, 0.0), 0.5)
    _refuses(lambda: apply_S(p, f, x), *margins)
    _refuses(lambda: commutator_residuals(p, None, f, x), *margins)
    _refuses(lambda: frame_spinor(p, x), *margins, "min |Y| = 2.000e+03")
    _refuses(lambda: integrate_curve(p, x), *margins)
    # a closed orbit one of whose nodes is moved to x
    trace = integrate_curve(p, [1.0, 0.0, 0.0])
    assert trace.closed
    trace = replace(trace, xs=np.concatenate([trace.xs, x[:, None]], axis=1))
    _refuses(lambda: phase_integrand(p, None, trace), *margins)
    _refuses(lambda: admissible_spectrum(p, None, trace), *margins)


def test_orbit_plane_normal_uses_the_scaled_frame_rule():
    # special field of scale 1e3: |Y| = 2e3 r vanishes on the axis, so at
    # r = 2.5e-11 it is 5e-8, above EPS_FRAME but not above the threshold
    p = reconstruct(CanonicalForm(kind="Special", x0=np.zeros(3),
                                  axis=np.array([0.0, 0.0, 1.0]), scale=1.0e3,
                                  nu=0.5, admissible=True))
    x = np.array([2.5e-11, 0.0, 0.3])
    ny = float(np.linalg.norm(eval_ckf_curl(p, x)))
    assert EPS_FRAME < ny <= frame_threshold(p)
    tr = integrate_curve(p, x, t_max=1.0e-4)
    assert not tr.closed
    assert tr.plane_normal is None
    # the frame spinors and the phase integrand need the plane as well
    margins = (f"min |Y| = {ny:.3e}",
               f"frame threshold {frame_threshold(p):.3e}")
    _refuses(lambda: frame_spinor(p, x), *margins)
    _refuses(lambda: phase_integrand(p, None, replace(tr, xs=x[:, None])),
             *margins)
