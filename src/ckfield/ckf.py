"""Conformal Killing fields on R^3: evaluation, classification.

The ten-parameter family

    X(x) = a + b0*x + b x x + (c.x)x - 1/2|x|^2 c

(where "b x x" is the cross product) exhausts the conformal Killing fields
of flat R^3.  This module evaluates X and its exact derived quantities
(w = |X|, div X, Y = curl X), decides the simple-rotation condition
X . Y = 0, and canonicalizes fields into Translation / Dilation /
Rotation / Special form with exact reconstruction.

Closed forms (derived by hand, cross-checked against forward-mode
differentiation in the test suite):

    Y     = 2b + 2 c x x
    div X = 3 b0 + 3 c.x
    lap X = -c                       (componentwise Laplacian)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotSimpleRotation, ZeroField
from .jets import jsqrt, vcross, vnorm2

EPS_FRAME = 1e-10     # absolute threshold below which frames are undefined
EPS_CLASSIFY = 1e-9   # relative tolerance for classification decisions


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a float array over all its entries: the same
    sqrt(r.dot(r)) on the raveled array that np.linalg.norm computes for
    real input, without its general-purpose dispatch."""
    r = v.ravel(order="K")
    return math.sqrt(float(r.dot(r)))


def _scale(p: CkfParams, na: float, nb: float, nc: float) -> float:
    """p.scale() from the part norms |a|, |b|, |c| already taken."""
    b0 = p.b0
    nb0 = abs(b0) if isinstance(b0, float) else float(np.max(np.abs(b0)))
    return max(na, nb0, nb, nc)


def frame_threshold(p: CkfParams) -> float:
    """w and |Y| at or below which operators, orbits and holonomy of p have
    no frame: EPS_FRAME relative to the field's scale.  The field context
    `potentials._Field` is the one place that applies it."""
    return EPS_FRAME * max(1.0, p.scale())


_E3 = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True, eq=False)
class CkfParams:
    """Parameters (a, b0, b, c) of a conformal Killing field.

    a, b, c are 3-vectors (optionally with a trailing batch axis for
    vectorized evaluation); b0 is a scalar (or batch).  Instances are
    immutable values.
    """

    a: np.ndarray
    b0: float
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape[0] != 3:
                raise ValueError(f"{name} must have leading length 3")
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        b0 = self.b0
        if isinstance(b0, (float, int)):
            b0 = float(b0)
            finite = math.isfinite(b0)
        else:
            b0 = np.asarray(b0, dtype=float)
            finite = np.isfinite(b0).all()
            if not b0.ndim:
                b0 = float(b0)
        if not finite:
            raise ValueError("b0 must be finite")
        object.__setattr__(self, "b0", b0)

    @property
    def batched(self) -> bool:
        return (self.a.ndim > 1 or self.b.ndim > 1 or self.c.ndim > 1
                or isinstance(self.b0, np.ndarray))

    def scale(self) -> float:
        """max(|a|, |b0|, |b|, |c|), the natural size of the parameters."""
        return _scale(self, _norm(self.a), _norm(self.b), _norm(self.c))

    @staticmethod
    def from_dict(d: dict) -> "CkfParams":
        return CkfParams(a=np.asarray(d.get("a", (0, 0, 0)), float),
                         b0=float(d.get("b0", 0.0)),
                         b=np.asarray(d.get("b", (0, 0, 0)), float),
                         c=np.asarray(d.get("c", (0, 0, 0)), float))


def field_ud() -> CkfParams:
    """Unit translation along the x3-axis: X = e3."""
    return CkfParams(a=_E3.copy(), b0=0.0, b=np.zeros(3), c=np.zeros(3))


def field_ro() -> CkfParams:
    """Unit rotation about the x3-axis: X = e3 x x."""
    return CkfParams(a=np.zeros(3), b0=0.0, b=_E3.copy(), c=np.zeros(3))


def field_cr(mu: float) -> CkfParams:
    """Special field with degenerate circle of radius mu in the x1-x2 plane:
    X = 1/2 mu^2 e3 + x3 x - 1/2|x|^2 e3."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return CkfParams(a=np.array([0.0, 0.0, 0.5 * mu * mu]), b0=0.0,
                     b=np.zeros(3), c=_E3.copy())


def field_iso() -> CkfParams:
    """The isoclinic combination ro + cr(1); not a simple rotation.

    This is the field the positive-control (zero-mode) potential is
    parallel to.
    """
    return CkfParams(a=np.array([0.0, 0.0, 0.5]), b0=0.0,
                     b=_E3.copy(), c=_E3.copy())


# -- evaluation ------------------------------------------------------------

def ckf_components(p: CkfParams, x):
    """X components; x is a length-3 sequence of jets or arrays."""
    a, b0, b, c = p.a, p.b0, p.b, p.c
    cx = c[0] * x[0] + c[1] * x[1] + c[2] * x[2]
    r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    out = []
    for k in range(3):
        kp, kq = (k + 1) % 3, (k + 2) % 3
        out.append(a[k] + b0 * x[k] + (b[kp] * x[kq] - b[kq] * x[kp])
                   + cx * x[k] - 0.5 * r2 * c[k])
    return out


def curl_components(p: CkfParams, x):
    """Y = curl X = 2b + 2 c x x."""
    b, c = p.b, p.c
    return [2.0 * b[0] + 2.0 * (c[1] * x[2] - c[2] * x[1]),
            2.0 * b[1] + 2.0 * (c[2] * x[0] - c[0] * x[2]),
            2.0 * b[2] + 2.0 * (c[0] * x[1] - c[1] * x[0])]


def div_ckf(p: CkfParams, x):
    """div X = 3 b0 + 3 c.x."""
    c = p.c
    return 3.0 * (p.b0 + c[0] * x[0] + c[1] * x[1] + c[2] * x[2])


def eval_ckf(p: CkfParams, x) -> np.ndarray:
    """X(x) for a plain point/batch; returns an array of shape (3,) + batch."""
    if not isinstance(x, (list, tuple)):
        x = np.asarray(x, dtype=float)
    xc = [x[0], x[1], x[2]]
    return np.stack([np.asarray(v, float) for v in ckf_components(p, xc)])


def frame_quantities(p: CkfParams, xc):
    """(X, w, divX, Y) on jet or array components, via the closed forms."""
    X = ckf_components(p, xc)
    Y = curl_components(p, xc)
    w = jsqrt(vnorm2(X))
    return X, w, div_ckf(p, xc), Y


# -- simple-rotation condition and classification ---------------------------

def _require_unbatched(p: CkfParams, caller: str) -> None:
    if p.batched:
        raise ValueError(f"{caller} expects unbatched parameters")


def simple_rotation_residual(p: CkfParams):
    """(a.b, c.b, b0*b - c x a): all vanish iff X . curl X = 0 on R^3."""
    _require_unbatched(p, "simple_rotation_residual")
    r1 = float(p.a @ p.b)
    r2 = float(p.c @ p.b)
    r3 = p.b0 * p.b - np.array(vcross(p.c, p.a))
    return r1, r2, r3


def _is_simple(p: CkfParams, s: float) -> bool:
    """The simple-rotation test of unbatched p whose scale s is known."""
    if s == 0.0:
        return True
    r1, r2, r3 = simple_rotation_residual(p)
    return max(abs(r1), abs(r2), _norm(r3)) <= EPS_CLASSIFY * s * s


def is_simple_rotation(p: CkfParams) -> bool:
    _require_unbatched(p, "is_simple_rotation")
    return _is_simple(p, p.scale())


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Canonical data of a simple-rotation conformal Killing field.

    kind is one of Translation / Dilation / Rotation / Special.  `axis` is
    the unit direction of a, b or c; `scale` its positive magnitude.  `nu`
    is the Special-form parameter (admissible iff nu > 0, degenerate circle
    radius sqrt(2 nu)).  `rate` keeps the signed dilation coefficient b0,
    which a positive scale alone cannot represent.
    """

    kind: str
    x0: Optional[np.ndarray]
    axis: Optional[np.ndarray]
    scale: float
    nu: Optional[float]
    admissible: bool
    rate: Optional[float] = None


def classify(p: CkfParams) -> CanonicalForm:
    """Canonicalize a simple-rotation field (raises otherwise)."""
    _require_unbatched(p, "classify")
    na, nb, nc = _norm(p.a), _norm(p.b), _norm(p.c)
    s = _scale(p, na, nb, nc)
    if s == 0.0:
        raise ZeroField("all parameters vanish")
    if not _is_simple(p, s):
        r = simple_rotation_residual(p)
        raise NotSimpleRotation(
            f"residuals (a.b, c.b, |b0 b - c x a|) = "
            f"({r[0]:.3e}, {r[1]:.3e}, {_norm(r[2]):.3e}) "
            f"exceed {EPS_CLASSIFY:g} * scale^2")
    if nc > EPS_CLASSIFY * s:
        x0 = (np.array(vcross(p.c, p.b)) - p.b0 * p.c) / nc**2
        nu = 0.5 * (2.0 * float(p.a @ p.c) + nb**2 - float(p.b0)**2) / nc**2
        return CanonicalForm(kind="Special", x0=x0, axis=p.c / nc, scale=nc,
                             nu=nu, admissible=bool(nu > 0.0))
    if nb > EPS_CLASSIFY * s:
        x0 = np.array(vcross(p.b, p.a)) / nb**2
        return CanonicalForm(kind="Rotation", x0=x0, axis=p.b / nb, scale=nb,
                             nu=None, admissible=True)
    if abs(float(p.b0)) > EPS_CLASSIFY * s:
        b0 = float(p.b0)
        return CanonicalForm(kind="Dilation", x0=-p.a / b0, axis=None,
                             scale=abs(b0), nu=None, admissible=False,
                             rate=b0)
    return CanonicalForm(kind="Translation", x0=None, axis=p.a / na,
                         scale=na, nu=None, admissible=True)


def reconstruct(cf: CanonicalForm) -> CkfParams:
    """Exact parameters generated by canonical data (inverse of classify)."""
    zero = np.zeros(3)
    if cf.kind == "Translation":
        return CkfParams(a=cf.scale * cf.axis, b0=0.0, b=zero, c=zero)
    if cf.kind == "Dilation":
        b0 = cf.rate if cf.rate is not None else cf.scale
        return CkfParams(a=-b0 * cf.x0, b0=b0, b=zero, c=zero)
    if cf.kind == "Rotation":
        b = cf.scale * cf.axis
        return CkfParams(a=-np.array(vcross(b, cf.x0)), b0=0.0, b=b, c=zero)
    if cf.kind == "Special":
        c = cf.scale * cf.axis
        x0, nu = cf.x0, cf.nu
        a = nu * c + float(c @ x0) * x0 - 0.5 * float(x0 @ x0) * c
        return CkfParams(a=a, b0=-float(c @ x0), b=-np.array(vcross(c, x0)),
                         c=c)
    raise ValueError(f"unknown kind {cf.kind!r}")
