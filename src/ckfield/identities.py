"""Pointwise differential identities of conformal Killing fields.

Every identity relates X, w = |X|, div X, Y = curl X, Z = X x Y and the
componentwise Laplacian of X.  All derivatives entering the residuals are
produced by forward-mode differentiation of X(x) itself (no closed-form
shortcuts), so each identity is a genuine consistency check of the whole
evaluation chain.  Residuals are exact up to roundoff.

The registry is keyed by stable string ids; each identity's formula is
the docstring of its residual function.  Identities marked simple_only
hold only when X . Y = 0 (the simple-rotation condition); the suite skips
them for generic fields.

Points need w above the absolute `ckf.EPS_FRAME`, not the scaled
`ckf.frame_threshold(p)`: batched `CkfParams` have no single scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ckf import EPS_FRAME, CkfParams, ckf_components, is_simple_rotation
from .errors import FrameUndefined, UnknownIdentity
from .jets import seed, vcross, vcurl

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    point: np.ndarray
    residual: float
    passed: bool


class _Ctx:
    """Shared evaluation context: X and its jets at a point batch.

    Arrays are indexed as gX[i, j] = d_i X_j, hX[i, k, j] = d_i d_k X_j,
    with a trailing batch axis when x has one.
    """

    __slots__ = ("Xv", "gX", "hX", "Yv", "gY", "divX", "gdiv", "lapX",
                 "w2", "w", "gw2", "XdotY", "gXdotY", "XxY", "DXX", "DXY",
                 "DZY", "XdotLap", "YdotLap")

    def __init__(self, p: CkfParams, x: np.ndarray):
        xc = seed(x, order=2)
        X = ckf_components(p, xc)
        tail = np.shape(X[0].f)
        self.Xv = np.stack([np.broadcast_to(np.asarray(X[j].f, float), tail)
                            for j in range(3)])
        self.gX = np.stack([np.stack([np.broadcast_to(X[j].g[i], tail)
                                      for j in range(3)]) for i in range(3)])
        self.hX = np.stack([np.stack([np.stack(
            [np.broadcast_to(X[j].h[i, k], tail) for j in range(3)])
            for k in range(3)]) for i in range(3)])
        Y = vcurl(X)
        self.Yv = np.stack([np.broadcast_to(Y[j].f, tail) for j in range(3)])
        self.gY = np.stack([np.stack([np.broadcast_to(Y[j].g[i], tail)
                                      for j in range(3)]) for i in range(3)])
        gX, hX = self.gX, self.hX
        self.divX = gX[0, 0] + gX[1, 1] + gX[2, 2]
        self.gdiv = hX[:, 0, 0] + hX[:, 1, 1] + hX[:, 2, 2]
        self.lapX = hX[0, 0] + hX[1, 1] + hX[2, 2]
        Xv, Yv = self.Xv, self.Yv
        self.w2 = np.einsum("i...,i...->...", Xv, Xv)
        self.w = np.sqrt(self.w2)
        self.gw2 = 2.0 * np.einsum("j...,ij...->i...", Xv, gX)
        self.XdotY = np.einsum("i...,i...->...", Xv, Yv)
        self.gXdotY = (np.einsum("j...,ij...->i...", Yv, gX)
                       + np.einsum("j...,ij...->i...", Xv, self.gY))
        self.XxY = np.stack(vcross(Xv, Yv))
        self.DXX = np.einsum("i...,ij...->j...", Xv, gX)
        self.DXY = np.einsum("i...,ij...->j...", Xv, self.gY)
        self.DZY = np.einsum("i...,ij...->j...", self.XxY, self.gY)
        self.XdotLap = np.einsum("i...,i...->...", Xv, self.lapX)
        self.YdotLap = np.einsum("i...,i...->...", Yv, self.lapX)

    def grad_w(self):
        return 0.5 * self.gw2 / self.w


def _vmax(v):
    return np.max(np.abs(v), axis=0)


def _directional_w(alpha: float) -> Callable[[_Ctx], np.ndarray]:
    def res(ctx: _Ctx):
        # X.grad(w^a) = (a/2) w^(a-2) X.grad(w^2), compared against
        # (a/3) (div X) w^a; relative to |rhs| where that exceeds 1, since
        # for a < 0 both terms grow like w^a as w -> 0
        xgw2 = np.einsum("i...,i...->...", ctx.Xv, ctx.gw2)
        lhs = 0.5 * alpha * ctx.w ** (alpha - 2.0) * xgw2
        rhs = (alpha / 3.0) * ctx.divX * ctx.w ** alpha
        return np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
    res.__doc__ = f"X.grad(w^{alpha:g}) = ({alpha:g}/3)(div X) w^{alpha:g}"
    return res


def _grad_xx_gradw2(ctx):
    """grad_X X = -1/2 grad(w^2) + (2/3)(div X) X"""
    return _vmax(ctx.DXX + 0.5 * ctx.gw2 - (2.0 / 3.0) * ctx.divX * ctx.Xv)


def _xy_from_gradxx(ctx):
    """X x Y = -2 grad_X X + (2/3)(div X) X"""
    return _vmax(ctx.XxY + 2.0 * ctx.DXX - (2.0 / 3.0) * ctx.divX * ctx.Xv)


def _grad_xx_xy(ctx):
    """grad_X X = (1/3)(div X) X - 1/2 X x Y"""
    return _vmax(ctx.DXX - (1.0 / 3.0) * ctx.divX * ctx.Xv + 0.5 * ctx.XxY)


def _grad_w2(ctx):
    """grad(w^2) = (2/3)(div X) X + X x Y"""
    return _vmax(ctx.gw2 - (2.0 / 3.0) * ctx.divX * ctx.Xv - ctx.XxY)


def _xcross_grad_w(ctx):
    """(X x grad) w = 1/2 (X.Y) X / w - 1/2 w Y"""
    lhs = np.stack(vcross(ctx.Xv, ctx.grad_w()))
    rhs = 0.5 * (ctx.XdotY / ctx.w) * ctx.Xv - 0.5 * ctx.w * ctx.Yv
    return _vmax(lhs - rhs)


def _triple_cross_xxy(ctx):
    """X x (X x Y) = (X.Y) X - w^2 Y"""
    lhs = np.stack(vcross(ctx.Xv, ctx.XxY))
    return _vmax(lhs - ctx.XdotY * ctx.Xv + ctx.w2 * ctx.Yv)


def _curl_is_killing(ctx):
    """d_i Y_j + d_j Y_i = 0 for Y = curl X"""
    # Y is a Killing field; the trace gives div Y = 0
    s = ctx.gY + np.swapaxes(ctx.gY, 0, 1)
    return np.max(np.abs(s), axis=(0, 1))


def _grad_xy_gradxdoty(ctx):
    """grad_X Y = (1/3)(div X) Y - grad(X.Y)"""
    return _vmax(ctx.DXY - (1.0 / 3.0) * ctx.divX * ctx.Yv + ctx.gXdotY)


def _grad_xy_laplacian(ctx):
    """grad_X Y = 2 X x (lap X)"""
    return _vmax(ctx.DXY - 2.0 * np.stack(vcross(ctx.Xv, ctx.lapX)))


def _grad_xxy_y(ctx):
    """grad_{XxY} Y = 2(X.lap X) Y - 2(Y.lap X) X"""
    return _vmax(ctx.DZY - 2.0 * ctx.XdotLap * ctx.Yv
                 + 2.0 * ctx.YdotLap * ctx.Xv)


def _laplacian_is_grad_div(ctx):
    """lap X = -(1/3) grad(div X)"""
    return _vmax(ctx.lapX + (1.0 / 3.0) * ctx.gdiv)


def _xdoty_zero(ctx):
    """X.Y = 0"""
    return np.abs(ctx.XdotY)


def _xxy_norm_simple(ctx):
    """|X x Y| = w |Y|"""
    nz = np.sqrt(np.einsum("i...,i...->...", ctx.XxY, ctx.XxY))
    ny = np.sqrt(np.einsum("i...,i...->...", ctx.Yv, ctx.Yv))
    return np.abs(nz - ctx.w * ny)


def _triple_cross_simple(ctx):
    """X x (X x Y) = -w^2 Y"""
    lhs = np.stack(vcross(ctx.Xv, ctx.XxY))
    return _vmax(lhs + ctx.w2 * ctx.Yv)


def _grad_w_norm_simple(ctx):
    """|grad w|^2 = (1/9)(div X)^2 + (1/4)|Y|^2"""
    gw = ctx.grad_w()
    lhs = np.einsum("i...,i...->...", gw, gw)
    ny2 = np.einsum("i...,i...->...", ctx.Yv, ctx.Yv)
    return np.abs(lhs - ctx.divX ** 2 / 9.0 - 0.25 * ny2)


def _grad_xy_simple(ctx):
    """grad_X Y = (1/3)(div X) Y"""
    return _vmax(ctx.DXY - (1.0 / 3.0) * ctx.divX * ctx.Yv)


def _grad_xxy_simple(ctx):
    """grad_{XxY} Y = 2 (X.lap X) Y"""
    return _vmax(ctx.DZY - 2.0 * ctx.XdotLap * ctx.Yv)


@dataclass(frozen=True)
class _Entry:
    fn: Callable[[_Ctx], np.ndarray]
    simple_only: bool = False
    needs_w: bool = False


REGISTRY: dict[str, _Entry] = {
    "directional_w_-1": _Entry(_directional_w(-1.0), needs_w=True),
    "directional_w_1": _Entry(_directional_w(1.0), needs_w=True),
    "directional_w_3": _Entry(_directional_w(3.0)),
    "grad_xx_gradw2": _Entry(_grad_xx_gradw2),
    "xy_from_gradxx": _Entry(_xy_from_gradxx),
    "grad_xx_xy": _Entry(_grad_xx_xy),
    "grad_w2": _Entry(_grad_w2),
    "xcross_grad_w": _Entry(_xcross_grad_w, needs_w=True),
    "triple_cross_xxy": _Entry(_triple_cross_xxy),
    "curl_is_killing": _Entry(_curl_is_killing),
    "grad_xy_gradxdoty": _Entry(_grad_xy_gradxdoty),
    "grad_xy_laplacian": _Entry(_grad_xy_laplacian),
    "grad_xxy_y": _Entry(_grad_xxy_y),
    "laplacian_is_grad_div": _Entry(_laplacian_is_grad_div),
    "XdotY_zero": _Entry(_xdoty_zero, simple_only=True),
    "xxy_norm_simple": _Entry(_xxy_norm_simple, simple_only=True),
    "triple_cross_simple": _Entry(_triple_cross_simple, simple_only=True),
    "grad_w_norm_simple": _Entry(_grad_w_norm_simple, simple_only=True,
                                 needs_w=True),
    "grad_xy_simple": _Entry(_grad_xy_simple, simple_only=True),
    "grad_xxy_simple": _Entry(_grad_xxy_simple, simple_only=True),
}

GENERAL_IDS = tuple(k for k, e in REGISTRY.items() if not e.simple_only)
SIMPLE_ONLY_IDS = tuple(k for k, e in REGISTRY.items() if e.simple_only)


def check_identity(identity_id: str, p: CkfParams, x) -> IdentityReport:
    """Evaluate one registered identity at x against DEFAULT_TOL."""
    try:
        entry = REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentity(identity_id) from None
    x = np.asarray(x, dtype=float)
    ctx = _Ctx(p, x)
    if entry.needs_w and not np.all(ctx.w > EPS_FRAME):
        raise FrameUndefined(
            f"identity {identity_id!r} needs w > {EPS_FRAME:g}; "
            f"w = {float(np.min(ctx.w)):.3e}")
    res = float(np.max(entry.fn(ctx)))
    return IdentityReport(identity_id=identity_id, point=x, residual=res,
                          passed=bool(res <= DEFAULT_TOL))


def sample_points(p: CkfParams, n_points: int, rng) -> np.ndarray:
    """Uniform points in [-2, 2]^3 with w > EPS_FRAME, shape (3, n); raises
    FrameUndefined if a round of candidates has none (the zero field)."""
    kept = []
    total = 0
    while total < n_points:
        cand = rng.uniform(-2.0, 2.0, size=(3, 2 * n_points + 8))
        w = np.linalg.norm(
            np.stack(ckf_components(p, [cand[0], cand[1], cand[2]])), axis=0)
        good = cand[:, w > EPS_FRAME]
        if not good.size:
            raise FrameUndefined(f"no candidate has w > {EPS_FRAME:g}; the "
                                 f"largest w is {w.max():.3e}")
        kept.append(good)
        total += good.shape[1]
    return np.concatenate(kept, axis=1)[:, :n_points]


def run_identity_suite(p: CkfParams, n_points: int = 100,
                       seed: int = 0) -> list[IdentityReport]:
    """Check every registered identity at n_points random points.

    Points are sampled uniformly in [-2,2]^3, rejecting w <= eps_frame.
    Identities that require the simple-rotation condition are skipped when
    the field does not satisfy it.  Each residual is compared against
    DEFAULT_TOL.  Deterministic given seed.
    """
    rng = np.random.default_rng(seed)
    pts = sample_points(p, n_points, rng)
    simple = is_simple_rotation(p)
    ctx = _Ctx(p, pts)
    reports = []
    for key, entry in REGISTRY.items():
        if entry.simple_only and not simple:
            continue
        res = np.atleast_1d(entry.fn(ctx))
        for k in range(pts.shape[1]):
            r = float(res[k])
            reports.append(IdentityReport(
                identity_id=key, point=pts[:, k].copy(), residual=r,
                passed=bool(r <= DEFAULT_TOL)))
    return reports
