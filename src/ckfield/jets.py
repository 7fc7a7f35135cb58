"""Forward-mode derivatives in the three spatial coordinates.

A `Jet` is truncated Taylor data: the value of an expression together with
its gradient and (optionally) its Hessian with respect to x1, x2, x3.  This
is dual-number forward differentiation nested to depth two and stored flat,
so first and second derivatives are exact up to roundoff; no finite
differencing happens anywhere downstream.

Values may be real or complex and may carry trailing batch axes: seeding a
(3, N) block of points evaluates an expression and its derivatives at N
points in one vectorized pass.  Only the operations the analytic families
actually need are implemented.

A jet's value is the plain value: every operation computes its value part
by the same floating-point expression as on plain arrays (the value of
a / b is the true quotient, not a times a rounded 1/b), so an expression
evaluated on seeded jets and on plain points gives the same bits.

A jet has order 2 (value, gradient, Hessian), 1 (no Hessian) or 0 (a bare
value whose derivatives were used up, `Jet(f, None)`).  Arithmetic between
jets runs at the lower order, so a missing gradient or Hessian is
contagious and no product computes derivatives its result cannot carry.
`derivative` takes d/dx_k one order down, and `truncate` drops orders
before an expensive product.  Plain numbers and arrays are constants: they
report order 2 and never truncate a jet they meet.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Jet", "seed", "value", "order", "truncate", "derivative", "partial",
    "jsqrt", "jexp", "jsin", "jcos",
    "jwhere", "jreal", "jimag", "jconj",
    "vdot", "vcross", "vcurl", "vnorm2",
]


def _outer(u, v):
    return u[:, None] * v[None, :]


def _neg(a):
    return None if a is None else -a


def _chain(a, v, d1, d2):
    """Compose a scalar function (value v, derivatives d1, d2 at a.f) with a."""
    if a.g is None:
        return Jet(v, None)
    h = None
    if a.h is not None:
        h = d1 * a.h + d2 * _outer(a.g, a.g)
    return Jet(v, d1 * a.g, h)


class Jet:
    """Value (+ optional gradient (+ optional Hessian)) w.r.t. the three
    coordinates.

    Mixed-order arithmetic truncates to the lower order (a missing gradient
    or Hessian is contagious); plain numbers and arrays act as constants and
    do not truncate.
    """

    __slots__ = ("f", "g", "h")

    # keep numpy from broadcasting over Jet operands, so ndarray + Jet
    # falls through to __radd__ and friends
    __array_ufunc__ = None

    def __init__(self, f, g, h=None):
        self.f = f
        self.g = g
        self.h = h

    def __repr__(self):
        return f"Jet(order={order(self)}, f={self.f!r})"

    def __add__(self, other):
        if isinstance(other, Jet):
            if self.g is None or other.g is None:
                return Jet(self.f + other.f, None)
            h = None
            if self.h is not None and other.h is not None:
                h = self.h + other.h
            return Jet(self.f + other.f, self.g + other.g, h)
        return Jet(self.f + other, self.g, self.h)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, _neg(self.g), _neg(self.h))

    def __sub__(self, other):
        if isinstance(other, Jet):
            if self.g is None or other.g is None:
                return Jet(self.f - other.f, None)
            h = None
            if self.h is not None and other.h is not None:
                h = self.h - other.h
            return Jet(self.f - other.f, self.g - other.g, h)
        return Jet(self.f - other, self.g, self.h)

    def __rsub__(self, other):
        return Jet(other - self.f, _neg(self.g), _neg(self.h))

    def __mul__(self, other):
        if isinstance(other, Jet):
            f = self.f * other.f
            if self.g is None or other.g is None:
                return Jet(f, None)
            g = self.f * other.g + other.f * self.g
            h = None
            if self.h is not None and other.h is not None:
                h = (self.f * other.h + other.f * self.h
                     + _outer(self.g, other.g) + _outer(other.g, self.g))
            return Jet(f, g, h)
        return Jet(self.f * other, None if self.g is None else self.g * other,
                   None if self.h is None else self.h * other)

    __rmul__ = __mul__

    def _reciprocal(self):
        inv = 1.0 / self.f
        return _chain(self, inv, -inv * inv, 2.0 * inv * inv * inv)

    # the value is the true quotient; the derivatives follow the quotient
    # rule through the reciprocal's chain
    def __truediv__(self, other):
        if isinstance(other, Jet):
            q = self * other._reciprocal()
            return Jet(self.f / other.f, q.g, q.h)
        return _map(lambda a: a / other, self)

    def __rtruediv__(self, other):
        q = self._reciprocal() * other
        return Jet(other / self.f, q.g, q.h)

    def __pow__(self, p):
        if isinstance(p, int) and p == 2:
            return self * self
        v = self.f ** p
        d1 = p * self.f ** (p - 1)
        d2 = p * (p - 1) * self.f ** (p - 2)
        return _chain(self, v, d1, d2)


def seed(x, order: int = 2):
    """Coordinate jets at x (shape (3,) or (3,) + batch) with unit gradients."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != 3:
        raise ValueError("expected leading axis of length 3")
    shape = x.shape[1:]
    out = []
    for k in range(3):
        g = np.zeros((3,) + shape)
        g[k] = 1.0
        h = np.zeros((3, 3) + shape) if order >= 2 else None
        out.append(Jet(x[k].copy(), g, h))
    return out


def value(z):
    return z.f if isinstance(z, Jet) else z


def order(z) -> int:
    """Derivative order a value carries: 0, 1 or 2; constants report 2."""
    if not isinstance(z, Jet) or z.h is not None:
        return 2
    return 0 if z.g is None else 1


def truncate(z, m: int):
    """z with its derivatives above order m dropped; shares z's arrays.
    Constants stay as they are."""
    if not isinstance(z, Jet) or order(z) <= m:
        return z
    return Jet(z.f, z.g if m >= 1 else None, None)


def derivative(z, k: int):
    """d/dx_k of a jet as a jet one derivative order lower; 0.0 for
    constants.  An order-0 jet has no derivative left to take."""
    if not isinstance(z, Jet):
        return 0.0
    if z.g is None:
        raise ValueError("an order-0 jet carries no derivative")
    return Jet(z.g[k], None if z.h is None else z.h[k])


def partial(z, k: int):
    """d/dx_k of a jet, one derivative order lower (plain value at order 1)."""
    d = derivative(z, k)
    return d.f if isinstance(d, Jet) and d.g is None else d


def _const_like(ref: Jet, v):
    g = None if ref.g is None else np.zeros_like(ref.g)
    h = None if ref.h is None else np.zeros_like(ref.h)
    return Jet(v + np.zeros_like(ref.f), g, h)


def jsqrt(z):
    if not isinstance(z, Jet):
        return np.sqrt(z)
    r = np.sqrt(z.f)
    return _chain(z, r, 0.5 / r, -0.25 / (r * z.f))


def jexp(z):
    if not isinstance(z, Jet):
        return np.exp(z)
    v = np.exp(z.f)
    return _chain(z, v, v, v)


def jsin(z):
    if not isinstance(z, Jet):
        return np.sin(z)
    return _chain(z, np.sin(z.f), np.cos(z.f), -np.sin(z.f))


def jcos(z):
    if not isinstance(z, Jet):
        return np.cos(z)
    return _chain(z, np.cos(z.f), -np.sin(z.f), -np.cos(z.f))


def jwhere(mask, a, b):
    """Elementwise select between two jets (or constants) by a boolean mask."""
    if not isinstance(a, Jet) and not isinstance(b, Jet):
        return np.where(mask, a, b)
    aj = a if isinstance(a, Jet) else _const_like(b, a)
    bj = b if isinstance(b, Jet) else _const_like(a, b)
    f = np.where(mask, aj.f, bj.f)
    if aj.g is None or bj.g is None:
        return Jet(f, None)
    h = None
    if aj.h is not None and bj.h is not None:
        h = np.where(mask, aj.h, bj.h)
    return Jet(f, np.where(mask, aj.g, bj.g), h)


def _map(fn, z):
    # apply an elementwise linear map to every order z carries
    return Jet(fn(z.f), None if z.g is None else fn(z.g),
               None if z.h is None else fn(z.h))


def jreal(z):
    if not isinstance(z, Jet):
        return np.real(z)
    return _map(np.real, z)


def jimag(z):
    if not isinstance(z, Jet):
        return np.imag(z)
    return _map(np.imag, z)


def jconj(z):
    if not isinstance(z, Jet):
        return np.conj(z)
    return _map(np.conj, z)


# -- small vector helpers on length-3 sequences of jets or numbers --------

def vdot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def vcross(u, v):
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def vcurl(u):
    """curl of a 3-vector of jets, one derivative order lower."""
    return [partial(u[2], 1) - partial(u[1], 2),
            partial(u[0], 2) - partial(u[2], 0),
            partial(u[1], 0) - partial(u[0], 1)]


def vnorm2(u):
    return vdot(u, u)
