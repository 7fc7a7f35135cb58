"""Integral curves of admissible fields: periods, loop integrals, geometry.

Closure detection uses a Poincare section: the plane through x0 with normal
X(x0)/|X(x0)|, crossings restricted to the +direction.  The start point lies
on the section, so the solver reports a crossing at t = 0 and stops at the
next one, the first return: orbits of admissible fields in {w > 0} are
circles (`classify` rejects every other field), so that return is the
minimal period.  It counts as closed only if it lands within the closure
tolerance of x0 after t_min; otherwise the trace is reported open, as is
one that reaches t_max without returning.  By default [t_min, t_max] is
[T/2, 2T] around the exact period T the canonical form gives.

A closed orbit is a Moebius image of a uniformly traversed circle, so every
loop integrand is analytic and tau-periodic in t, with its nearest pole at
distance ln(1/rho) in the angle variable.  The orbit's Moebius invariant
rho comes in closed form from the canonical form `classify` returns: 0 for
rotations, |z - mu| / |z + mu| for special fields, with z = r + i h the
seed's distance from the axis and height along it and mu = sqrt(2 nu).  The
periodic trapezoidal rule then has error O(rho^N), and the trace carries its
N = max(64, ceil(ln eps / ln rho)) equispaced nodes with weights tau/N, eps
below double roundoff: a few hundred at rho = 0.9.

`loop_integrals` and `planarity_and_curvature` read X, w, div X, Y, A and
the jets of X from a `potentials._Field` context on the trace nodes;
`integrate_curve` needs w above `ckf.frame_threshold(p)` at the start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .ckf import (CanonicalForm, CkfParams, _norm, classify, eval_ckf,
                  eval_ckf_curl, frame_threshold)
from .errors import (BlowUp, FrameUndefined, IntegrationFailed,
                     NotAdmissible, NotClosed, NotSimpleRotation, ZeroField)
from .jets import partial, seed, value, vcross, vdot
from .potentials import PotentialSpec, _Field
from .quadrature import periodic_trapezoid

__all__ = [
    "CurveTrace", "LoopIntegrals", "FixedPoint", "FixedPointCensus",
    "integrate_curve", "loop_integrals", "planarity_and_curvature",
    "fixed_point_census", "cr_orbit_seed", "cr_orbit_closed_form",
    "ESCAPE_RADIUS", "TOL_CLOSE", "RK_TOL",
]

ESCAPE_RADIUS = 1.0e6
TOL_CLOSE = 1.0e-10
RK_TOL = 1.0e-12            # default relative tolerance of the orbit integrator
MIN_NODES = 64
TRAPEZOID_EPS = 1.0e-17     # target rho^N of the trapezoid error, below roundoff
AXIS_TOL = 1.0e-12          # distance from a special field's axis that is on it


@dataclass(frozen=True, eq=False)
class CurveTrace:
    """One integral curve, traced up to its first return.

    A closed trace (`closed`, `period` = tau) holds the N nodes k tau / N of
    the periodic trapezoidal rule and the weights tau / N, so sums of
    weights * f(xs) are loop integrals.  An open trace holds MIN_NODES
    equispaced samples of [0, t_end] and weights None: no integral in the
    library accepts it.  nfev and steps count the solver's right-hand-side
    calls and accepted steps.  speed_ratio, max/min |X| on the whole orbit,
    is exact: ((1 + rho)/(1 - rho))^2 for its invariant rho, which sets N.
    """

    ts: np.ndarray                  # (N,)
    xs: np.ndarray                  # (3, N)
    weights: Optional[np.ndarray]   # (N,) for closed traces, else None
    closed: bool
    period: Optional[float]
    plane_normal: Optional[np.ndarray]
    x0: np.ndarray
    closure_error: Optional[float]
    nfev: int
    steps: int
    speed_ratio: float

    @property
    def samples(self):
        """The curve as a list of (t, point) pairs."""
        return list(zip(self.ts, self.xs.T))


class LoopIntegrals(NamedTuple):
    int_div: float
    int_absY: float
    int_flux: Optional[float]


class FixedPoint(NamedTuple):
    point: np.ndarray
    kind: str


@dataclass(frozen=True)
class FixedPointCensus:
    """Isolated zeros of X plus any degenerate zero locus."""

    isolated: tuple
    degenerate: Optional[dict]

    def __iter__(self):
        return iter(self.isolated)

    def __len__(self):
        return len(self.isolated)


def _rhs(p: CkfParams):
    # X written out by components on plain floats: np.cross and the small
    # array temporaries of the vector form cost ~30x more per call
    a0, a1, a2 = p.a.tolist()
    b0 = float(p.b0)
    e0, e1, e2 = p.b.tolist()
    c0, c1, c2 = p.c.tolist()

    def f(t, y):
        x0, x1, x2 = y.tolist()
        s = b0 + c0 * x0 + c1 * x1 + c2 * x2
        h = 0.5 * (x0 * x0 + x1 * x1 + x2 * x2)
        return np.array([a0 + s * x0 + e1 * x2 - e2 * x1 - h * c0,
                         a1 + s * x1 + e2 * x0 - e0 * x2 - h * c1,
                         a2 + s * x2 + e0 * x1 - e1 * x0 - h * c2])

    return f


def cr_orbit_seed(mu: float, rho: float, theta: float = 0.0) -> np.ndarray:
    """Point of the circular-field orbit with invariant rho, at x3 = 0."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("need 0 <= rho < 1")
    r0 = mu * (1.0 + rho) / (1.0 - rho)
    return np.array([r0 * np.cos(theta), r0 * np.sin(theta), 0.0])


def cr_orbit_closed_form(mu: float, rho: float, theta: float, ts):
    """Exact orbit z(t) = mu (1 + rho e^{-i mu t}) / (1 - rho e^{-i mu t}).

    Returns points of shape (3, len(ts)); z = r + i x3 in the half-plane at
    azimuth theta.  Starts at the rho-orbit seed for ts[0] = 0.
    """
    ts = np.asarray(ts, dtype=float)
    e = rho * np.exp(-1j * mu * ts)
    z = mu * (1.0 + e) / (1.0 - e)
    r, x3 = z.real, z.imag
    return np.stack([r * np.cos(theta), r * np.sin(theta), x3])


def _orbit_rho(cf: CanonicalForm, x0: np.ndarray) -> float:
    """Moebius invariant rho of the orbit through x0; X = scale X_cr(mu) in
    a special field's canonical coordinates, so the scale drops out.  The
    axis curve, a line through infinity, has rho = 1."""
    if cf.kind != "Special":
        return 0.0
    y = x0 - cf.x0
    h = float(y @ cf.axis)
    r = _norm(y - h * cf.axis)
    if r <= AXIS_TOL:
        return 1.0
    mu = math.sqrt(2.0 * cf.nu)
    z = complex(r, h)
    return abs(z - mu) / abs(z + mu)


def _trapezoid_nodes(rho: float) -> int:
    """N = max(64, ceil(ln eps / ln rho)) for an orbit of invariant rho < 1."""
    if rho <= 0.0:
        return MIN_NODES
    return max(MIN_NODES, math.ceil(math.log(TRAPEZOID_EPS) / math.log(rho)))


def integrate_curve(p: CkfParams, x0, t_max: Optional[float] = None,
                    rk_tol: float = RK_TOL) -> CurveTrace:
    """Trace the integral curve of X through x0 and detect first return."""
    try:
        cf = classify(p)
    except (ZeroField, NotSimpleRotation) as exc:
        raise NotAdmissible(str(exc)) from exc
    if not cf.admissible:
        raise NotAdmissible(f"{cf.kind} fields have no admissible flow")

    x0 = np.asarray(x0, dtype=float).reshape(3)
    X0 = eval_ckf(p, x0)
    w0 = float(np.linalg.norm(X0))
    eps = frame_threshold(p)
    if w0 <= eps:
        raise FrameUndefined("starting point is (numerically) a zero of X")
    nhat = X0 / w0

    Y0 = eval_ckf_curl(p, x0)
    absY0 = float(np.linalg.norm(Y0))
    tau_char = 4.0 * np.pi / absY0 if absY0 > 0.0 else None
    rho = _orbit_rho(cf, x0)
    if cf.kind != "Translation" and rho < 1.0:
        mu = math.sqrt(2.0 * cf.nu) if cf.kind == "Special" else 1.0
        T = 2.0 * math.pi / (cf.scale * mu)       # the exact period
        t_min, t_default = 0.5 * T, 2.0 * T
    elif tau_char is not None:      # open: the time scale of |Y(x0)|
        t_min, t_default = 1.0e-6 * tau_char, 2000.0 * tau_char
    else:                           # open, Y(x0) = 0: a translation or axis
        t_min, t_default = 0.0, 100.0 * (1.0 + float(np.linalg.norm(x0))) / w0
    if t_max is None:
        t_max = t_default

    def section(t, y):
        return (y - x0) @ nhat
    section.direction = 1
    section.terminal = 2        # the t = 0 crossing, then the first return

    def blowup(t, y):
        return y @ y - ESCAPE_RADIUS ** 2
    blowup.terminal = True
    blowup.direction = 1

    rtol = max(rk_tol, 2.3e-14)
    atol = rtol * max(1.0, float(np.abs(x0).max()))
    max_step = tau_char / 8.0 if tau_char is not None else t_max / 50.0
    sol = solve_ivp(_rhs(p), (0.0, t_max), x0, method="DOP853",
                    rtol=rtol, atol=atol, max_step=max_step,
                    events=(section, blowup), dense_output=True)
    if len(sol.t_events[1]) > 0:
        extra = " (axis curve of a circular field)" if rho == 1.0 else ""
        raise BlowUp(f"|curve| reached {ESCAPE_RADIUS:g} at "
                     f"t = {sol.t_events[1][0]:.6g}{extra}")
    if not sol.success and sol.status != 1:
        raise IntegrationFailed(sol.status, sol.message)

    period = None
    closure = None
    close_tol = max(TOL_CLOSE, 100.0 * rk_tol) * max(1.0, float(np.linalg.norm(x0)))
    for t_evt, y_evt in zip(sol.t_events[0], sol.y_events[0]):
        if t_evt <= t_min:
            continue
        err = float(np.linalg.norm(y_evt - x0))
        if err <= close_tol:
            period, closure = float(t_evt), err
            break

    closed = period is not None
    t_end = period if closed else float(sol.t[-1])

    if closed:
        ts, wts = periodic_trapezoid(t_end, _trapezoid_nodes(rho))
    else:
        ts, wts = np.linspace(0.0, t_end, MIN_NODES), None
    xs = sol.sol(ts)
    ratio = ((1.0 + rho) / (1.0 - rho)) ** 2 if rho < 1.0 else math.inf

    return CurveTrace(ts=ts, xs=xs, weights=wts, closed=closed,
                      period=period,
                      plane_normal=(Y0 / absY0 if absY0 > eps else None),
                      x0=x0, closure_error=closure, nfev=int(sol.nfev),
                      steps=int(sol.t.size - 1), speed_ratio=ratio)


def loop_integrals(trace: CurveTrace, p: CkfParams,
                   spec: Optional[PotentialSpec] = None) -> LoopIntegrals:
    """(∮ div X dt, ∮ |Y| dt, ∮ X.A dt) over one period."""
    if not trace.closed:
        raise NotClosed("loop integrals need a closed curve")
    wts = trace.weights
    ctx = _Field(p, spec, trace.xs)
    int_div = float(wts @ ctx.divX)
    int_absY = float(wts @ ctx.abs_curl())
    int_flux = None
    if spec is not None:
        int_flux = float(wts @ vdot(ctx.X, ctx.A))
    return LoopIntegrals(int_div, int_absY, int_flux)


def planarity_and_curvature(trace: CurveTrace, p: CkfParams):
    """(max plane deviation, max curvature residual) over the samples.

    Curvature from second-derivative data, kappa = |g' x g''| / |g'|^3 with
    g'' the convective derivative of X, compared against |Y| / (2w).
    """
    if not trace.closed:
        raise NotClosed("planarity is defined for closed curves")
    if trace.plane_normal is None:
        raise FrameUndefined("curve has no plane normal (Y = 0 at x0)")
    xs = trace.xs
    dev = np.abs((xs - trace.x0[:, None]).T @ trace.plane_normal)

    ctx = _Field(p, None, seed(xs, order=1))
    Xv = np.stack([value(c) for c in ctx.X])
    gX = np.stack([np.stack([partial(ctx.X[j], i) for j in range(3)])
                   for i in range(3)])            # gX[i, j] = d_i X_j
    gamma2 = np.einsum("in,ijn->jn", Xv, gX)
    cross = np.stack(vcross(Xv, gamma2))
    w = value(ctx.w)
    kappa = np.sqrt((cross ** 2).sum(axis=0)) / w ** 3
    kappa_ref = ctx.abs_curl() / (2.0 * w)
    return float(dev.max()), float(np.abs(kappa - kappa_ref).max())


def fixed_point_census(p: CkfParams) -> FixedPointCensus:
    """Exact zeros of X from the canonical form.

    Isolated zeros exist only for the non-admissible kinds (dilation
    centers, the special-field pair at nu < 0, the nu = 0 dipole point);
    rotation axes and the nu > 0 circles are degenerate loci, reported
    separately.
    """
    cf = classify(p)
    if cf.kind == "Translation":
        return FixedPointCensus(isolated=(), degenerate=None)
    if cf.kind == "Dilation":
        return FixedPointCensus(
            isolated=(FixedPoint(cf.x0.copy(), "dilation"),), degenerate=None)
    if cf.kind == "Rotation":
        return FixedPointCensus(
            isolated=(),
            degenerate={"kind": "line", "point": cf.x0.copy(),
                        "direction": cf.axis.copy()})
    # Special
    nu = cf.nu
    if nu < 0.0:
        s = np.sqrt(2.0 * abs(nu))
        return FixedPointCensus(
            isolated=(FixedPoint(cf.x0 + s * cf.axis, "special"),
                      FixedPoint(cf.x0 - s * cf.axis, "special")),
            degenerate=None)
    if nu == 0.0:
        return FixedPointCensus(
            isolated=(FixedPoint(cf.x0.copy(), "dipole"),), degenerate=None)
    return FixedPointCensus(
        isolated=(),
        degenerate={"kind": "circle", "center": cf.x0.copy(),
                    "radius": float(np.sqrt(2.0 * nu)),
                    "normal": cf.axis.copy()})
