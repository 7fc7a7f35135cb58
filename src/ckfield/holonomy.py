"""Eigenvalue quantization of Q along closed orbits.

For a closed integral curve of period tau inside {w > 0, |Y| > 0}, an
eigenspinor of Q with eigenvalue lambda restricted to the orbit satisfies a
scalar linear ODE in each spin sector, with multiplier over one period

    exp(-i * (integral of [ |Y|/4 - (2i/3) div X - X.A ] dt  -  lambda tau)).

Periodicity forces lambda into the arithmetic progression with step 2 pi /
tau; the three loop integrals (div-integral zero, total |Y| integral 4 pi,
zero flux) pin its offset to the odd multiples of pi / tau, so 0 is never
in the set.  The integrand's |Y|/4 term is not the naive diagonal of Q on
the frame spinors e_pm = P_pm e0: transporting e_pm around the orbit adds a
geometric piece, and the two contributions combine to the scalar above.
We recompute the per-sector coefficient <e_pm, Q e_pm> exactly (jets, with
the x-dependence of e_pm included) and require both sectors to reproduce
the scalar integrand; this validates the decoupling rather than assuming it.

X, w, div X, Y and A come from one `potentials._Field` context per call:
`admissible_spectrum` seeds it at order 1 and reads the phase integrand
(order-0 view) and the sector coefficients from it; `phase_integrand` and
`transport` need no derivatives and read the same integrand, bit for bit,
from the unseeded nodes.  Frames need w > 0 and |Y| > 0, which the context
decides (`_Field.check_frame`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ckf import CkfParams
from .errors import FrameUndefined, NotClosed, SectorMismatch
from .flows import CurveTrace
from .jets import seed, value, vdot
from .potentials import PotentialSpec, _Field
from .spinops import _P_pair, _Q_core
from .spinors import spinor_inner

__all__ = ["HolonomyResult", "phase_integrand", "transport",
           "admissible_spectrum", "frame_spinor"]

SECTOR_TOL = 1.0e-10


@dataclass(frozen=True)
class HolonomyResult:
    phase_integral: complex
    offset: float
    step: float
    monodromy_at_zero: complex
    quantization_residual: float
    sector_mismatch: float       # |monodromy(+) - monodromy(-)| from jets
    sector_vs_scalar: float      # max |<e_pm, Q e_pm> - scalar integrand|


def _phase_values(ctx: _Field) -> np.ndarray:
    # |Y|/4 - (2i/3) div X - X.A from the context's order-0 view
    ctx.check_frame("orbit leaves {w > 0, |Y| > 0}", True)
    c = ctx.at(0)
    vals = 0.25 * c.abs_curl() - (2.0 / 3.0) * 1j * value(c.divX)
    if c.A is not None:
        vals = vals - value(vdot(c.X, c.A))
    return vals


def phase_integrand(p: CkfParams, spec: Optional[PotentialSpec],
                    trace: CurveTrace) -> np.ndarray:
    """|Y|/4 - (2i/3) div X - X.A at the trace nodes (complex array)."""
    return _phase_values(_Field(p, spec, trace.xs))


def transport(p: CkfParams, spec: Optional[PotentialSpec],
              trace: CurveTrace, lam: float) -> complex:
    """Multiplier u(tau)/u(0) of the sector ODE at eigenvalue parameter lam."""
    if not trace.closed:
        raise NotClosed("transport needs a closed orbit")
    vals = phase_integrand(p, spec, trace)
    phase = complex(trace.weights @ vals)
    return complex(np.exp(-1j * (phase - lam * trace.period)))


def frame_spinor(p: CkfParams, x):
    """(e_plus, e_minus) at x: e0 with (sigma.n) e0 = e0, |e0|^2 = 2, split
    by the projections P_pm = (I pm S)/2; n is the plane normal Y/|Y|.
    Both returned spinors are unit length when X.Y = 0."""
    ctx = _Field(p, None, np.asarray(x, dtype=float).reshape(3))
    ctx.check_frame("frame spinors need w > 0 and |Y| > 0", True)
    e0 = _e0_from_normal(ctx.plane_normal())
    return tuple(np.array(E) for E in _P_pair(ctx, e0))


def _e0_from_normal(n):
    # e0 with (sigma.n) e0 = e0 for the plane normal n = Y/|Y|; two algebraic
    # branches keep the construction away from division blowup
    if n[2] > -1.0 + 1.0e-6:
        r = 1.0 / np.sqrt(1.0 + n[2])
        return (complex((1.0 + n[2]) * r), complex(n[0], n[1]) * r)
    r = 1.0 / np.sqrt(1.0 - n[2])
    return (complex(n[0], -n[1]) * r, complex((1.0 - n[2]) * r))


def _sector_coefficients(ctx: _Field, trace: CurveTrace):
    """<e_pm, Q e_pm> / |e_pm|^2 at every node, with e_pm(x) = P_pm(x) e0.

    e0 is fixed from the orbit's plane normal; the x-dependence of the
    projections is differentiated exactly, so the geometric transport term
    is included.  ctx holds the trace nodes seeded at order 1.
    """
    if trace.plane_normal is None:
        raise FrameUndefined("trace has no plane normal")
    e0 = _e0_from_normal(trace.plane_normal)
    out = []
    for E in _P_pair(ctx, e0):
        num = value(spinor_inner(E, _Q_core(ctx, E)))
        den = value(spinor_inner(E, E)).real
        out.append(np.asarray(num) / np.asarray(den))
    return out[0], out[1]


def admissible_spectrum(p: CkfParams, spec: Optional[PotentialSpec],
                        trace: CurveTrace) -> HolonomyResult:
    """Quantize: monodromy(lambda) = 1 forces lambda in offset + (2pi/tau)Z.

    quantization_residual measures the distance of the computed offset from
    the nearest odd multiple of pi/tau; the non-existence mechanism is that
    this residual vanishes, placing 0 outside the admissible set.
    """
    if not trace.closed:
        raise NotClosed("spectrum needs a closed orbit")
    ctx = _Field(p, spec, seed(trace.xs, order=1))
    vals = _phase_values(ctx)
    tau = trace.period
    phase = complex(trace.weights @ vals)
    step = 2.0 * np.pi / tau
    offset = (phase.real / tau) % step
    residual = abs(offset - 0.5 * step)
    mono0 = complex(np.exp(-1j * phase))

    cp, cm = _sector_coefficients(ctx, trace)
    mono_p = complex(np.exp(-1j * (trace.weights @ cp)))
    mono_m = complex(np.exp(-1j * (trace.weights @ cm)))
    mismatch = abs(mono_p - mono_m)
    if mismatch > SECTOR_TOL:
        raise SectorMismatch(mismatch, SECTOR_TOL)
    vs_scalar = float(max(np.abs(cp - vals).max(), np.abs(cm - vals).max()))

    return HolonomyResult(phase_integral=phase, offset=offset, step=step,
                          monodromy_at_zero=mono0,
                          quantization_residual=residual,
                          sector_mismatch=mismatch,
                          sector_vs_scalar=vs_scalar)
