"""Identity registry cross-checked by an independent finite-difference oracle.

The identity residuals inside ckfield are built from forward-mode jets of
X(x); the oracle here recomputes every derived quantity (w2 gradient, div,
curl, Laplacian) by central differences of plain field evaluations so a
systematic error in the jet chain cannot certify itself.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ckfield.ckf import (EPS_FRAME, CkfParams, eval_ckf, field_cr, field_iso,
                         field_ro, field_ud)
from ckfield.errors import FrameUndefined, UnknownIdentity
from ckfield.identities import (GENERAL_IDS, REGISTRY, SIMPLE_ONLY_IDS,
                                check_identity, run_identity_suite,
                                sample_points)

finite = st.floats(-3.0, 3.0, allow_nan=False)
vec3 = st.tuples(finite, finite, finite)

FD_H = 1e-5


def _params(a, b0, b, c):
    return CkfParams(a=np.asarray(a, float), b0=float(b0),
                     b=np.asarray(b, float), c=np.asarray(c, float))


def _fd_grad(f, x, h=FD_H):
    g = np.zeros(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def _fd_jacobian(p, x, h=FD_H):
    """J[i, j] = d_i X_j by central differences."""
    J = np.zeros((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        J[i] = (eval_ckf(p, x + e) - eval_ckf(p, x - e)) / (2 * h)
    return J


def test_derived_quantities_against_finite_differences(rng):
    """div, curl, grad w2, Laplacian from the closed forms match FD."""
    p = _params(rng.normal(size=3), rng.normal(), rng.normal(size=3),
                rng.normal(size=3))
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, 3)
        J = _fd_jacobian(p, x)
        assert np.isclose(np.trace(J), 3 * (p.b0 + p.c @ x), atol=1e-8)
        Y_fd = np.array([J[1, 2] - J[2, 1], J[2, 0] - J[0, 2],
                         J[0, 1] - J[1, 0]])
        assert np.allclose(Y_fd, 2 * p.b + 2 * np.cross(p.c, x), atol=1e-8)
        gw2_fd = _fd_grad(lambda y: float(np.sum(eval_ckf(p, y) ** 2)), x)
        X = eval_ckf(p, x)
        divX = 3 * (p.b0 + p.c @ x)
        Y = 2 * p.b + 2 * np.cross(p.c, x)
        # grad(w2) = (2/3)(div X) X + X x Y, the identity under test,
        # verified here purely with finite differences
        assert np.allclose(gw2_fd, (2 / 3) * divX * X + np.cross(X, Y),
                           atol=1e-7)
        # componentwise Laplacian by second differences; X is quadratic in
        # x so the stencil is truncation-free and a large step suppresses
        # the 1/h^2 rounding amplification
        h2 = 1.0e-2
        for j in range(3):
            lap = 0.0
            for i in range(3):
                e = np.zeros(3)
                e[i] = h2
                lap += (eval_ckf(p, x + e)[j] - 2 * X[j]
                        + eval_ckf(p, x - e)[j]) / h2 ** 2
            assert np.isclose(lap, -p.c[j], atol=1e-8)


def test_grad_w2_spec_point():
    rep = check_identity("grad_w2", field_cr(1.0), (0.3, -0.2, 0.7))
    assert rep.residual < 1e-12
    assert rep.passed
    # independent oracle at the same point
    p = field_cr(1.0)
    x = np.array([0.3, -0.2, 0.7])
    gw2_fd = _fd_grad(lambda y: float(np.sum(eval_ckf(p, y) ** 2)), x)
    X = eval_ckf(p, x)
    divX = 3 * (p.c @ x)
    Y = 2 * np.cross(p.c, x)
    assert np.allclose(gw2_fd, (2 / 3) * divX * X + np.cross(X, Y), atol=1e-7)


def test_xdoty_zero_exact_for_rotation(rng):
    for _ in range(5):
        x = rng.uniform(-2, 2, 3)
        rep = check_identity("XdotY_zero", field_ro(), x)
        assert rep.residual == 0.0


def test_grad_w_norm_simple_translation():
    rep = check_identity("grad_w_norm_simple", field_ud(), (0.4, 0.2, -1.0))
    assert rep.residual == 0.0


@given(vec3, finite, vec3, vec3, vec3)
def test_general_identities_hold_for_any_ckf(a, b0, b, c, x):
    p = _params(a, b0, b, c)
    x = np.asarray(x, float)
    w = np.linalg.norm(eval_ckf(p, x))
    scale = max(p.scale(), 1.0) ** 2 * max(np.max(np.abs(x)), 1.0) ** 3
    for key in GENERAL_IDS:
        try:
            rep = check_identity(key, p, x)
        except FrameUndefined:
            assert w <= EPS_FRAME
            continue
        assert rep.residual <= 1e-10 * max(scale, 1.0), (key, rep.residual)


@pytest.mark.parametrize("z", [1.0e-10, 1.0e-9, 1.0e-6])
def test_general_identities_hold_near_a_dilation_zero(z):
    # the terms of directional_w_-1 grow like 1/w as w = 1.5 z -> 0; its
    # residual is measured relative to them, so roundoff stays roundoff
    p = _params((0.0, 0.0, 0.0), 1.5, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    for key in GENERAL_IDS:
        rep = check_identity(key, p, (0.0, 0.0, z))
        assert rep.passed, (key, rep.residual)


def test_simple_only_identities_on_simple_fields(rng):
    for p in (field_ro(), field_cr(0.5), field_cr(2.0)):
        pts = sample_points(p, 50, rng)
        for key in SIMPLE_ONLY_IDS:
            rep = check_identity(key, p, pts)
            assert rep.residual <= 1e-10, (key, rep.residual)


def test_simple_only_identity_fails_on_iso():
    # the isoclinic field has X.Y != 0; the registry must catch it
    rep = check_identity("XdotY_zero", field_iso(), (1.0, 0.5, 0.2))
    assert rep.residual > 1e-3
    assert not rep.passed


def test_needs_w_raises_on_axis():
    with pytest.raises(FrameUndefined):
        check_identity("directional_w_1", field_ro(), (0.0, 0.0, 0.3))


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        check_identity("not_an_identity", field_ro(), (1, 0, 0))


def test_identity_docs_exist():
    # each identity states its formula as its residual function's docstring
    docs = [entry.fn.__doc__ for entry in REGISTRY.values()]
    assert all(doc and " = " in doc for doc in docs), docs
    assert len(set(docs)) == len(REGISTRY)


def test_suite_rotation_and_special():
    for p in (field_ro(), field_cr(2.0)):
        reports = run_identity_suite(p, n_points=100, seed=7)
        assert all(r.passed for r in reports)
        assert ({r.identity_id for r in reports}
                == set(GENERAL_IDS + SIMPLE_ONLY_IDS))


def test_suite_skips_simple_only_for_generic_field(rng):
    p = _params(rng.normal(size=3), rng.normal(), rng.normal(size=3),
                rng.normal(size=3))
    reports = run_identity_suite(p, n_points=100, seed=7)
    ids = {r.identity_id for r in reports}
    assert ids == set(GENERAL_IDS)
    assert all(r.passed for r in reports)


def test_sample_points_shape_and_frame(rng):
    p = field_ro()
    pts = sample_points(p, 64, rng)
    assert pts.shape == (3, 64)
    assert np.all(np.abs(pts) <= 2.0)
    w = np.linalg.norm(eval_ckf(p, pts), axis=0)
    assert np.all(w > EPS_FRAME)


def test_suite_deterministic():
    a = run_identity_suite(field_ro(), n_points=20, seed=3)
    b = run_identity_suite(field_ro(), n_points=20, seed=3)
    assert all(np.array_equal(x.point, y.point) and x.residual == y.residual
               for x, y in zip(a, b))
