"""Analytic two-component spinor fields and small Pauli algebra helpers.

A spinor field here is a closed-form map R^3 -> C^2 evaluated on coordinate
jets, so exact first and second derivatives are available wherever an
operator needs them.  The families:

* ``gaussian_packet``  (polynomial) * exp(-|x-c|^2 / 2 width^2) * const spinor
* ``bump_packet``      smooth bump in u = x1^2+x2^2 times a smooth bump in
                       x3, times a constant spinor; compactly supported in a
                       solid torus around the x3-axis (u_lo > 0 keeps the
                       support away from the axis).
* ``losyau_mode``      (1+|x|^2)^{-3/2} (1 + i x3, i x1 - x2), the classical
                       zero mode of the isoclinic-field potential.

Pauli convention: sigma_1, sigma_2, sigma_3 standard, so for a vector v

    sigma.v = [[v3, v1 - i v2], [v1 + i v2, -v3]].

`_D_core`, sigma.(-i grad - A) on jets, is shared by `spinops` and
`potentials.construct_losyau`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .jets import derivative, jexp, jconj, jwhere, order, truncate, value

__all__ = [
    "SpinorField", "gaussian_packet", "bump_packet", "losyau_mode",
    "eval_spinor", "sigma_apply", "spinor_inner", "spinor_abs",
    "PAULI", "smooth_bump_scalar",
]

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def sigma_apply(v, s):
    """(sigma . v) s for a 3-vector v and spinor s of jets or numbers."""
    return [v[2] * s[0] + (v[0] - 1j * v[1]) * s[1],
            (v[0] + 1j * v[1]) * s[0] - v[2] * s[1]]


def _order(F):
    return min(order(F[0]), order(F[1]))


def _covariant(A, F):
    # [(-i d_k - A_k) F for k = 1, 2, 3], at one order below F
    m = _order(F) - 1
    Fm = [truncate(F[0], m), truncate(F[1], m)]
    out = []
    for k in range(3):
        t0 = -1j * derivative(F[0], k)
        t1 = -1j * derivative(F[1], k)
        if A is not None:
            Ak = truncate(A[k], m)
            t0 = t0 - Ak * Fm[0]
            t1 = t1 - Ak * Fm[1]
        out.append((t0, t1))
    return out


def _D_core(A, F):
    """sigma.(-i grad - A) F on jets, one derivative order below F; A is a
    list of jets or arrays, or None for the free operator."""
    T = _covariant(A, F)
    return [T[0][1] - 1j * T[1][1] + T[2][0],
            T[0][0] + 1j * T[1][0] - T[2][1]]


def spinor_inner(a, b):
    """<a, b> = conj(a0) b0 + conj(a1) b1 (antilinear in the first slot)."""
    return jconj(a[0]) * b[0] + jconj(a[1]) * b[1]


def spinor_abs(s):
    """Pointwise |s| from component values."""
    s0, s1 = value(s[0]), value(s[1])
    return np.sqrt(np.abs(s0) ** 2 + np.abs(s1) ** 2)


def smooth_bump_scalar(u, lo: float, hi: float, amp: float = 1.0):
    """amp * exp(-1/(1-s^2)) with s = (2u - lo - hi)/(hi - lo), 0 outside.

    The guard threshold keeps 1/t finite where the factor has already
    underflowed to 0 in double precision (exp(-1/t) = 0 for t < 1/745).
    """
    s = (2.0 * u - (lo + hi)) / (hi - lo)
    t = 1.0 - s * s
    inside = value(t) > 1.0e-3
    tsafe = jwhere(inside, t, 1.0)
    return jwhere(inside, amp * jexp(-1.0 / tsafe), 0.0)


@dataclass(frozen=True, eq=False)
class SpinorField:
    kind: str
    center: Optional[tuple] = None
    width: Optional[float] = None
    spinor: Optional[tuple] = None
    poly: Optional[tuple] = None   # ((coeff, (p1, p2, p3)), ...)
    u_range: Optional[tuple] = None
    z_range: Optional[tuple] = None


def from_dict(d: dict) -> SpinorField:
    kind = d["kind"]
    if kind == "gaussian_packet":
        poly = d.get("poly")
        if poly is not None:
            poly = tuple((c, tuple(p)) for c, p in poly)
        return gaussian_packet(d["center"], d["width"],
                               spinor=[complex(re, im) for re, im in d["spinor"]]
                               if "spinor" in d else (1.0, 0.0),
                               poly=poly)
    if kind == "bump_packet":
        return bump_packet(d["u_range"], d["z_range"],
                           spinor=[complex(re, im) for re, im in d["spinor"]]
                           if "spinor" in d else (1.0, 0.0))
    if kind == "losyau_mode":
        return losyau_mode()
    raise ValueError(f"unknown spinor field kind {kind!r}")


def gaussian_packet(center, width: float, spinor=(1.0, 0.0), poly=None) -> SpinorField:
    if width <= 0:
        raise ValueError("width must be positive")
    return SpinorField(kind="gaussian_packet", center=tuple(float(c) for c in center),
                       width=float(width), spinor=tuple(complex(s) for s in spinor),
                       poly=poly)


def bump_packet(u_range, z_range, spinor=(1.0, 0.0)) -> SpinorField:
    u_lo, u_hi = (float(v) for v in u_range)
    z_lo, z_hi = (float(v) for v in z_range)
    if not (0.0 <= u_lo < u_hi and z_lo < z_hi):
        raise ValueError("need 0 <= u_lo < u_hi and z_lo < z_hi")
    return SpinorField(kind="bump_packet", u_range=(u_lo, u_hi),
                       z_range=(z_lo, z_hi), spinor=tuple(complex(s) for s in spinor))


def losyau_mode() -> SpinorField:
    return SpinorField(kind="losyau_mode")


def losyau_psi(xc):
    """(1+|x|^2)^{-3/2} (I + i x.sigma)(1,0) on coordinate jets."""
    x1, x2, x3 = xc
    h = 1.0 + x1 * x1 + x2 * x2 + x3 * x3
    pref = h ** (-1.5)
    return [pref * (1.0 + 1j * x3), pref * (1j * x1 - x2)]


def _poly_eval(poly, xc):
    x1, x2, x3 = xc
    total = 0.0
    for coeff, (p1, p2, p3) in poly:
        term = coeff
        for _ in range(p1):
            term = term * x1
        for _ in range(p2):
            term = term * x2
        for _ in range(p3):
            term = term * x3
        total = term + total
    return total


def eval_spinor(field: SpinorField, xc):
    """Spinor components [s0, s1] on coordinate jets (or plain arrays)."""
    if field.kind == "losyau_mode":
        return losyau_psi(xc)
    if field.kind == "gaussian_packet":
        c = field.center
        d2 = ((xc[0] - c[0]) ** 2 + (xc[1] - c[1]) ** 2 + (xc[2] - c[2]) ** 2)
        env = jexp(d2 * (-0.5 / field.width ** 2))
        if field.poly is not None:
            env = env * _poly_eval(field.poly, xc)
        return [env * field.spinor[0], env * field.spinor[1]]
    if field.kind == "bump_packet":
        u = xc[0] * xc[0] + xc[1] * xc[1]
        env = (smooth_bump_scalar(u, *field.u_range)
               * smooth_bump_scalar(xc[2], *field.z_range))
        return [env * field.spinor[0], env * field.spinor[1]]
    raise ValueError(f"unknown spinor field kind {field.kind!r}")
