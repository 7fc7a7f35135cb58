"""Spinor operators D, Q, S, their commutator identities, the w-weighted
norm decomposition, and the log-log cutoff functions.

Conventions: D = sigma.(-i grad - A); for a conformal Killing field X with
w = |X|, Y = curl X,

    Q  = X.(-i grad - A) + (1/4) sigma.Y - (2/3) i div X
    S  = w^{-1} sigma.X,   P_pm = (I pm S) / 2,   Dw : f -> D(w f).

All derivatives come from forward-mode jets; the commutator identities need
second derivatives, so their inputs are seeded at order 2 and each operator
application consumes one order.  Nothing here is ever finite-differenced.

Each operator exists once, as a core on jets (D is `spinors._D_core`;
P_+ F and P_- F come as one pair from one S F, `_P_pair`).
The cores read the field context `potentials._Field` (X, w, div X, Y, 1/w
and A, evaluated once per point batch), which `holonomy` and `flows` read
too.  Its parallelism check, which Q and the commutator residuals need,
takes B = curl A from the gradient of the context's A jets, so each call
evaluates the potential once.  S, P_pm and the commutator identities need
a frame, w > 0, which the context decides (`_Field.check_frame`).

Every product runs at the derivative order its result carries.  A core
reads the context truncated to that order (`_Field.at`): D, Q and D_w
consume one order of their argument, S and P_pm none, and an order-0 jet
(a bare value) is what is left once the derivatives are used up.  A spinor
of plain numbers or arrays is a constant (see `jets`), so a fixed spinor
such as holonomy's e0 meets the context at its full order and P_pm e0
keeps its x-dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ckf import CkfParams, is_simple_rotation, simple_rotation_residual
from .errors import NotSimpleRotation, SupportViolation
from .jets import seed, value, vdot
from .potentials import PotentialSpec, _Field, potential_components
from .quadrature import QuadBox, box_axes
from .spinors import (SpinorField, _D_core, _covariant, _order, eval_spinor,
                      sigma_apply, spinor_abs)

__all__ = [
    "apply_D", "apply_Q", "apply_S", "commutator_residuals",
    "norm_decomposition_check", "CutoffPair", "chi0_prime", "CHI0_PRIME_MAX",
    "grad_chi_R", "cutoff_bound_check",
]

# -- pointwise cores on jets ------------------------------------------------

def _Q_core(ctx: _Field, F):
    c = ctx.at(_order(F) - 1)
    T = _covariant(c.A, F)
    X = c.X
    q0 = X[0] * T[0][0] + X[1] * T[1][0] + X[2] * T[2][0]
    q1 = X[0] * T[0][1] + X[1] * T[1][1] + X[2] * T[2][1]
    sY = sigma_apply(c.Y, F)
    return [q0 + 0.25 * sY[0] - (2.0 / 3.0) * 1j * c.divX * F[0],
            q1 + 0.25 * sY[1] - (2.0 / 3.0) * 1j * c.divX * F[1]]


def _S_core(ctx: _Field, F):
    c = ctx.at(_order(F))
    sX = sigma_apply(c.X, F)
    return [c.invw * sX[0], c.invw * sX[1]]


def _P_pair(ctx: _Field, F):
    # (P+ F, P- F) from one S F
    SF = _S_core(ctx, F)
    return ([0.5 * (F[0] + SF[0]), 0.5 * (F[1] + SF[1])],
            [0.5 * (F[0] - SF[0]), 0.5 * (F[1] - SF[1])])


def _Dw_core(ctx: _Field, F):
    c = ctx.at(_order(F))
    return _D_core(c.A, [c.w * F[0], c.w * F[1]])


def _spinor_values(F):
    return np.stack([np.asarray(value(F[0]), dtype=complex),
                     np.asarray(value(F[1]), dtype=complex)])


# -- pointwise public API ----------------------------------------------------

def apply_D(spec: Optional[PotentialSpec], f: SpinorField, x) -> np.ndarray:
    """sigma.(-i grad - A) f at x; shape (2,) + batch, complex."""
    xc = seed(x, order=1)
    A = None if spec is None else potential_components(spec, xc)
    return _spinor_values(_D_core(A, eval_spinor(f, xc)))


def apply_Q(p: CkfParams, spec: Optional[PotentialSpec], f: SpinorField,
            x) -> np.ndarray:
    """Q f at x.  Requires curl A parallel to X at x (or spec = None)."""
    xc = seed(x, order=1)
    ctx = _Field(p, spec, xc)
    F = eval_spinor(f, xc)
    ctx.check_parallel()
    return _spinor_values(_Q_core(ctx, F))


def apply_S(p: CkfParams, f: SpinorField, x) -> np.ndarray:
    """S f = w^{-1} (sigma.X) f at x; FrameUndefined where w vanishes."""
    xc = seed(x, order=1)
    ctx = _Field(p, None, xc)
    F = eval_spinor(f, xc)
    ctx.check_frame("S = w^{-1} sigma.X needs w > 0", False)
    return _spinor_values(_S_core(ctx, F))


def commutator_residuals(p: CkfParams, spec: Optional[PotentialSpec],
                         f: SpinorField, x):
    """Residual norms of [Dw,Q]f, [Q,S]f, {Dw,S}f - 2Qf - (X.Y)/(2w) Sf."""
    xc = seed(x, order=2)
    ctx = _Field(p, spec, xc)
    F = eval_spinor(f, xc)
    ctx.check_parallel()
    ctx.check_frame("commutator identities live in {w > 0}", False)

    QF = _Q_core(ctx, F)
    DwF = _Dw_core(ctx, F)
    r1 = [a - b for a, b in zip(_Dw_core(ctx, QF), _Q_core(ctx, DwF))]

    SF = _S_core(ctx, F)
    r2 = [a - b for a, b in zip(_Q_core(ctx, SF), _S_core(ctx, QF))]

    anti = [a + b for a, b in zip(_Dw_core(ctx, SF), _S_core(ctx, DwF))]
    c = ctx.at(0)
    coef = 0.5 * vdot(c.X, c.Y) / c.w
    r3 = [anti[k] - 2.0 * QF[k] - coef * SF[k] for k in range(2)]

    return tuple(float(np.max(spinor_abs(r))) for r in (r1, r2, r3))


# -- the w-weighted norm decomposition ---------------------------------------

def _support_scan(p: CkfParams, f: SpinorField, grid: QuadBox):
    """Cheap scan: interior peak, boundary peak, min w on the support."""
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = grid.ranges
    m = 48
    gx = np.linspace(x_lo, x_hi, m)
    gy = np.linspace(y_lo, y_hi, m)
    gz = np.linspace(z_lo, z_hi, m)
    pts = np.stack(np.meshgrid(gx, gy, gz, indexing="ij")).reshape(3, -1)

    def mag(q):
        # + 0.0 * q[0] broadcasts a constant spinor over the points
        return spinor_abs([value(c) + 0.0 * q[0]
                           for c in eval_spinor(f, [q[0], q[1], q[2]])])

    mags = mag(pts)
    peak = float(mags.max())

    faces = []
    mb = 64
    for axis, (lo, hi) in enumerate(grid.ranges):
        others = [grid.ranges[i] for i in range(3) if i != axis]
        u = np.linspace(others[0][0], others[0][1], mb)
        v = np.linspace(others[1][0], others[1][1], mb)
        U, V = np.meshgrid(u, v, indexing="ij")
        for val in (lo, hi):
            q = [None, None, None]
            q[axis] = np.full(U.size, val)
            rest = [i for i in range(3) if i != axis]
            q[rest[0]], q[rest[1]] = U.ravel(), V.ravel()
            faces.append(np.stack(q))
    boundary_peak = float(mag(np.concatenate(faces, axis=1)).max())

    on_supp = mags > 1.0e-9 * max(peak, 1.0e-300)
    w = _Field(p, None, pts[:, on_supp]).w
    w_min = float(w.min()) if w.size else math.inf
    return peak, boundary_peak, w_min


def norm_decomposition_check(p: CkfParams, spec: Optional[PotentialSpec],
                             f: SpinorField, grid: QuadBox):
    """||Dw f||_w^2 vs ||T+ f||_w^2 + ||T- f||_w^2 + ||Q f||_w^2.

    T_pm = P_pm Dw P_mp.  Returns (lhs, (t_plus, t_minus, q), rel_err);
    raises SupportViolation when lhs is 0, which makes rel_err undefined.
    Streams the tensor-product Gauss-Legendre grid in z-slabs to bound
    memory; accumulation order is fixed, so results are reproducible.
    """
    s = max(1.0, p.scale())
    if not is_simple_rotation(p):
        raise NotSimpleRotation(f"norm decomposition needs X.Y = 0; "
                                f"residuals {simple_rotation_residual(p)}")

    peak, boundary_peak, w_min = _support_scan(p, f, grid)
    if boundary_peak > 1.0e-12 * max(peak, 1.0e-300):
        raise SupportViolation(
            f"spinor field is not negligible on the quadrature box boundary "
            f"(boundary peak {boundary_peak:.3e} vs interior {peak:.3e})")
    if w_min < 1.0e-6 * s:
        raise SupportViolation(
            f"spinor support touches {{w = 0}} (min w on support {w_min:.3e})")

    (xn, xw), (yn, yw), (zn, zw) = box_axes(grid)
    n = grid.n
    chunk = max(1, int(5.0e5) // (n * n))

    # Nodes outside the spinor's support contribute exactly zero to every
    # integral (the bump vanishes on an open set there), so drop them.
    if f.kind == "bump_packet":
        u_lo, u_hi = f.u_range
        z_lo, z_hi = f.z_range
    else:
        u_lo = z_lo = -math.inf
        u_hi = z_hi = math.inf

    XG, YG = np.meshgrid(xn, yn, indexing="ij")
    wxy = np.outer(xw, yw).reshape(-1)
    xg, yg = XG.reshape(-1), YG.reshape(-1)
    keep_xy = (xg * xg + yg * yg >= u_lo) & (xg * xg + yg * yg <= u_hi)
    xg, yg, wxy = xg[keep_xy], yg[keep_xy], wxy[keep_xy]

    lhs = 0.0
    t_plus = 0.0
    t_minus = 0.0
    q_term = 0.0
    for z0 in range(0, n, chunk):
        zsel = (zn[z0:z0 + chunk] >= z_lo) & (zn[z0:z0 + chunk] <= z_hi)
        zs = zn[z0:z0 + chunk][zsel]
        wz = zw[z0:z0 + chunk][zsel]
        if zs.size == 0 or xg.size == 0:
            continue
        P = np.stack([np.repeat(xg, zs.size), np.repeat(yg, zs.size),
                      np.tile(zs, xg.size)])
        wts3 = np.repeat(wxy, zs.size) * np.tile(wz, xg.size)

        xc = seed(P, order=1)
        ctx = _Field(p, spec, xc)
        F = eval_spinor(f, xc)
        wts = wts3 * np.asarray(value(ctx.w), dtype=float)
        def accum(G):
            g = _spinor_values(G)
            return float(wts @ (np.abs(g) ** 2).sum(axis=0))
        lhs += accum(_Dw_core(ctx, F))
        Fp, Fm = _P_pair(ctx, F)
        t_plus += accum(_P_pair(ctx, _Dw_core(ctx, Fm))[0])
        t_minus += accum(_P_pair(ctx, _Dw_core(ctx, Fp))[1])
        q_term += accum(_Q_core(ctx, F))

    if lhs == 0.0:
        raise SupportViolation(
            f"||Dw f||_w^2 is 0 on the quadrature nodes, so the relative "
            f"error is undefined: the box must hold the spinor's support "
            f"(support-scan peak {peak:.3e})")
    rel_err = abs(lhs - (t_plus + t_minus + q_term)) / lhs
    return lhs, (t_plus, t_minus, q_term), rel_err


# -- cutoff functions --------------------------------------------------------

def chi0_prime(t):
    """d chi0 / dt in closed form, supported on (0, 1), for the C-infinity
    step chi0(t) = e(1-t) / (e(1-t) + e(t)), e(s) = exp(-1/s) for s > 0 and
    0 otherwise: chi0 = 1 for t <= 0 and 0 for t >= 1."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    ts = np.where(inside, t, 0.5)
    a = np.exp(-1.0 / (1.0 - ts))
    b = np.exp(-1.0 / ts)
    da = -a / (1.0 - ts) ** 2
    db = b / ts ** 2
    val = (da * b - a * db) / (a + b) ** 2
    return np.where(inside, val, 0.0)


# ||chi0'||_inf = 2, exactly: chi0 = s(-u) with the logistic
# s(u) = 1/(1 + e^-u) and u = 1/(1-t) - 1/t, so |chi0'| = u' s(u) s(-u).
# That is symmetric about t = 1/2 and increasing on (0, 1/2], so the
# maximum sits at t = 1/2, where u' = 8 and s(0)^2 = 1/4.
CHI0_PRIME_MAX = 2.0


@dataclass(frozen=True)
class CutoffPair:
    """The outer cutoff radius R of chi_R (see `grad_chi_R`) for the
    attached field, whose w weights the bound (`cutoff_bound_check`)."""

    ckf: CkfParams
    R: float

    def __post_init__(self):
        if not self.R > math.e:
            raise ValueError("need R > e")


def grad_chi_R(c: CutoffPair, x):
    """grad chi_R = chi0'(loglog|x| - loglog R) x / (|x|^2 log|x|) for the
    outer cutoff chi_R(x) = chi0(loglog|x| - loglog R), which is 1 for
    |x| <= R and 0 for |x| >= R^e."""
    x = np.asarray(x, dtype=float)
    r = np.sqrt((x * x).sum(axis=0))
    lo = np.log(np.log(c.R))
    active = (r > c.R) & (r < c.R ** math.e)
    rs = np.where(active, r, math.e)
    s = np.log(np.log(rs)) - lo
    coef = np.where(active, chi0_prime(s) / (rs * rs * np.log(rs)), 0.0)
    return coef * x


def cutoff_bound_check(c: CutoffPair):
    """(sup of w^{1/2} |grad chi_R| over the transition shell, its bound).

    The bound is 2 C ||chi0'||_inf / log R with C the shell maximum of
    w^{1/2} / (1 + |x|); the chain uses (1 + r)/r <= 2 and log r >= log R
    on r >= R > e, so the shell-local constant is sound.
    """
    lo = np.log(np.log(c.R))
    s = np.linspace(1.0e-4, 1.0 - 1.0e-4, 400)
    r = np.exp(np.exp(s + lo))

    n_dirs = 256
    k = np.arange(n_dirs)
    phi = np.arccos(1.0 - 2.0 * (k + 0.5) / n_dirs)
    theta = np.pi * (1.0 + 5 ** 0.5) * k
    dirs = np.stack([np.sin(phi) * np.cos(theta),
                     np.sin(phi) * np.sin(theta), np.cos(phi)])

    pts = (dirs[:, :, None] * r[None, None, :]).reshape(3, -1)
    w = _Field(c.ckf, None, pts).w
    g = grad_chi_R(c, pts)
    gn = np.sqrt((g * g).sum(axis=0))
    sup_outer = float(np.max(np.sqrt(w) * gn))

    rr = np.sqrt((pts * pts).sum(axis=0))
    C = float(np.max(np.sqrt(w) / (1.0 + rr)))
    bound = 2.0 * C * CHI0_PRIME_MAX / np.log(c.R)
    return sup_outer, bound
