"""Forward-mode jets against central finite differences."""

import numpy as np
import pytest

from ckfield.jets import (Jet, derivative, jconj, jcos, jexp, jimag, jreal,
                          jsin, jsqrt, jwhere, order, partial, seed, truncate,
                          value, vcross, vdot, vnorm2)

FD_H = 1e-5
FD_TOL = 1e-7


def _fn(xc):
    """Composite scalar exercising every primitive."""
    x1, x2, x3 = xc
    r2 = x1 * x1 + x2 * x2 + x3 * x3
    return (jsqrt(r2 + 1.0) * jexp(-0.3 * x3) + jsin(x1 * x2)
            + jcos(x3) / (2.0 + x1) + (r2 + 0.7) ** -1.5)


def _fn_plain(x):
    x1, x2, x3 = x
    r2 = x1 * x1 + x2 * x2 + x3 * x3
    return (np.sqrt(r2 + 1.0) * np.exp(-0.3 * x3) + np.sin(x1 * x2)
            + np.cos(x3) / (2.0 + x1) + (r2 + 0.7) ** -1.5)


def test_gradient_matches_finite_differences(rng):
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, 3)
        z = _fn(seed(x, order=1))
        assert np.isclose(value(z), _fn_plain(x), rtol=1e-13)
        for k in range(3):
            e = np.zeros(3)
            e[k] = FD_H
            fd = (_fn_plain(x + e) - _fn_plain(x - e)) / (2 * FD_H)
            assert abs(partial(z, k) - fd) < FD_TOL


def test_hessian_matches_finite_differences(rng):
    x = rng.uniform(-1.0, 1.0, 3)
    z = _fn(seed(x, order=2))
    for i in range(3):
        for k in range(3):
            ei, ek = np.zeros(3), np.zeros(3)
            ei[i] = FD_H
            ek[k] = FD_H
            fd = (_fn_plain(x + ei + ek) - _fn_plain(x + ei - ek)
                  - _fn_plain(x - ei + ek) + _fn_plain(x - ei - ek)) / (4 * FD_H ** 2)
            got = value(partial(partial(z, i), k))
            assert abs(got - fd) < 1e-5
    # Hessian symmetry is exact
    for i in range(3):
        for k in range(3):
            assert z.h[i, k] == z.h[k, i]


def test_batched_seed_matches_pointwise(rng):
    xs = rng.uniform(-1.0, 1.0, (3, 7))
    zb = _fn(seed(xs, order=2))
    for j in range(7):
        zj = _fn(seed(xs[:, j], order=2))
        assert np.isclose(value(zb)[j], value(zj))
        assert np.allclose(zb.g[:, j], zj.g)
        assert np.allclose(zb.h[:, :, j], zj.h)


def test_mixed_order_truncates():
    x = seed(np.array([0.3, -0.2, 0.9]), order=2)
    lo = seed(np.array([0.3, -0.2, 0.9]), order=1)
    z = x[0] * lo[1]
    assert isinstance(z, Jet) and z.h is None
    # constants never truncate
    z2 = x[0] * 2.0 + 1.0
    assert z2.h is not None


def _same_bits(a, b):
    assert (a.h is None) == (b.h is None)
    for u, v in ((a.f, b.f), (a.g, b.g), (a.h, b.h)):
        if u is not None:
            assert np.array_equal(np.asarray(u).view(np.uint8),
                                  np.asarray(v).view(np.uint8))


def test_subtraction_is_bitwise_negate_and_add(rng):
    pts = rng.uniform(-1, 1, (3, 5))
    x2, x1 = seed(pts, order=2), seed(pts, order=1)
    a = jexp(x2[0] * (0.3 + 0.7j)) * x2[1]        # complex, with Hessian
    b = jsin(x2[2]) / (2.0 + x2[0])               # real, with Hessian
    c = jcos(x1[1]) * x1[2]                       # real, h = None
    k = rng.uniform(-1, 1, 5) + 0.4j
    for u, v in ((a, b), (b, a), (a, c), (c, b), (c, c)):
        _same_bits(u - v, u + (-v))
    for j in (a, b, c):
        for s in (k, 0.25, k[0]):
            _same_bits(j - s, j + (-s))
            _same_bits(s - j, (-j) + s)


def test_division_and_power(rng):
    x = seed(rng.uniform(0.5, 1.5, 3), order=2)
    a = (1.0 + x[0] * x[1])
    b = (2.0 + x[2] ** 2)
    q = a / b
    back = q * b
    assert np.isclose(value(back), value(a), rtol=1e-14)
    assert np.allclose(back.g, a.g, atol=1e-13)
    assert np.allclose(back.h, a.h, atol=1e-13)
    # reciprocal from the right
    r = 1.0 / b
    assert np.allclose((r * b).g, 0.0, atol=1e-14)


def test_division_value_is_the_plain_quotient(rng):
    pts = rng.uniform(0.3, 3.0, (3, 500))
    c = rng.uniform(0.3, 3.0, 500)
    for m in (0, 1, 2):
        x = [truncate(z, m) for z in seed(pts, order=2)]
        a, b = x[0] * x[1] + 0.7j, jexp(x[2]) - 0.9
        af, bf = pts[0] * pts[1] + 0.7j, np.exp(pts[2]) - 0.9
        for q, plain in ((a / b, af / bf), (a / 3.7, af / 3.7),
                         (a / c, af / c), (1.3 / b, 1.3 / bf),
                         (c / b, c / bf)):
            assert order(q) == m
            np.testing.assert_array_equal(q.f, plain)
            assert q.f.tobytes() == plain.tobytes()


def test_vector_helpers(rng):
    x = seed(rng.uniform(-1, 1, 3), order=1)
    u = [x[0], x[1] * x[2], x[2] + 1.0]
    v = [x[1], x[0] - x[2], x[0] * 0.0 + 2.0]
    uv = vdot(u, v)
    assert np.isclose(value(uv),
                      sum(value(a) * value(b) for a, b in zip(u, v)))
    c = vcross(u, v)
    uval = np.array([value(a) for a in u])
    vval = np.array([value(b) for b in v])
    assert np.allclose([value(ci) for ci in c], np.cross(uval, vval))
    assert np.isclose(value(vnorm2(u)), uval @ uval)
    # u . (u x v) = 0 identically, including the gradient
    z = vdot(u, c)
    assert abs(value(z)) < 1e-14
    assert np.max(np.abs(z.g)) < 1e-13


def test_value_and_partial_on_plain_numbers():
    assert value(3.5) == 3.5
    assert partial(2.0, 1) == 0.0


def test_order_and_truncate(rng):
    pts = rng.uniform(-1, 1, (3, 4))
    z = jexp(seed(pts, order=2)[0]) * (1.0 + 0.5j)
    assert [order(z), order(seed(pts, order=1)[1]), order(Jet(pts[0], None))] \
        == [2, 1, 0]
    # plain numbers and arrays are constants
    assert order(2.5) == order(pts[0]) == 2
    for m in (0, 1):
        t = truncate(z, m)
        assert order(t) == m and t.h is None
        assert t.f is z.f                        # no copy
        assert (t.g is z.g) if m == 1 else t.g is None
    assert truncate(z, 2) is z
    c = pts[0]
    assert truncate(c, 0) is c


def test_derivative_is_one_order_lower(rng):
    pts = rng.uniform(0.5, 1.5, (3, 5))
    z2 = _fn(seed(pts, order=2))
    z1 = _fn(seed(pts, order=1))
    for k in range(3):
        d2, d1 = derivative(z2, k), derivative(z1, k)
        assert order(d2) == 1 and order(d1) == 0
        assert np.shares_memory(d1.f, z1.g) and np.shares_memory(d2.g, z2.h)
        np.testing.assert_array_equal(d1.f, z1.g[k])
        np.testing.assert_array_equal(d2.f, z2.g[k])
        np.testing.assert_array_equal(d2.g, z2.h[k])
        # partial keeps its contract: a jet at order 2, a plain array at 1
        assert isinstance(partial(z2, k), Jet)
        assert not isinstance(partial(z1, k), Jet)
        np.testing.assert_array_equal(partial(z1, k), z1.g[k])
    assert derivative(3.0, 1) == 0.0
    with pytest.raises(ValueError):
        derivative(Jet(pts[0], None), 0)


def test_order_zero_is_contagious(rng):
    pts = rng.uniform(0.5, 1.5, (3, 6))
    x1 = seed(pts, order=1)
    x2 = seed(pts, order=2)
    z0 = Jet(pts[0] * (0.3 + 0.2j), None)
    mask = pts[1] > 1.0
    for a in (x1[1], x2[2]):
        results = [z0 + a, a + z0, z0 - a, a - z0, z0 * a, a * z0,
                   jwhere(mask, z0, a), jwhere(mask, a, z0)]
        for r in results:
            assert order(r) == 0 and r.g is None and r.h is None
    r0 = Jet(pts[1], None)
    unary = [-z0, z0 + 1.0, 1.0 + z0, z0 - 2.0, 2.0 - z0, z0 * 3.0, 3.0 * z0,
             z0 / 2.0, 1.0 / r0, r0 ** 2, r0 ** 1.5, jexp(z0), jsqrt(r0),
             jsin(z0), jcos(z0), jreal(z0), jimag(z0), jconj(z0),
             jwhere(mask, z0, 1.0), jwhere(mask, 1.0, z0)]
    for r in unary:
        assert order(r) == 0 and r.g is None and r.h is None
    # the values are those of the full-order computation
    full = jexp(x2[0] * (0.3 + 0.2j)) / (2.0 + x2[1])
    low = jexp(truncate(x2[0], 0) * (0.3 + 0.2j)) / (2.0 + x2[1])
    np.testing.assert_array_equal(low.f, full.f)


def test_seed_rejects_bad_shape():
    with pytest.raises(ValueError):
        seed(np.zeros((2, 5)))
