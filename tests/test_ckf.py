"""Field evaluation, frames, and classification round trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ckfield.ckf import (EPS_CLASSIFY, CkfParams, _norm, classify,
                         cke_residual, eval_ckf, field_cr, field_iso, field_ro,
                         field_ud, frame_at, frame_quantities, frame_threshold,
                         is_simple_rotation, jacobian_ckf, laplacian_ckf,
                         reconstruct, simple_rotation_residual)
from ckfield.errors import FrameUndefined, NotSimpleRotation, ZeroField
from ckfield.identities import check_identity
from ckfield.jets import seed, value, vcross

finite = st.floats(-3.0, 3.0, allow_nan=False)
vec3 = st.tuples(finite, finite, finite)


def _params(a, b0, b, c):
    return CkfParams(a=np.asarray(a, float), b0=float(b0),
                     b=np.asarray(b, float), c=np.asarray(c, float))


# -- evaluation --------------------------------------------------------------

def test_eval_rotation_at_unit_x1():
    p = _params((0, 0, 0), 0, (0, 0, 1), (0, 0, 0))
    assert np.allclose(eval_ckf(p, (1.0, 0.0, 0.0)), (0.0, 1.0, 0.0))


def test_eval_special_at_origin_keeps_constant():
    mu = 1.3
    p = field_cr(mu)
    assert np.allclose(eval_ckf(p, (0.0, 0.0, 0.0)), (0, 0, 0.5 * mu ** 2))


def test_eval_translation_plus_dilation():
    p = _params((1, 0, 0), 2.0, (0, 0, 0), (0, 0, 0))
    assert np.allclose(eval_ckf(p, (0.0, 1.0, 0.0)), (1.0, 2.0, 0.0))


def test_eval_batch_matches_single(rng):
    p = _params(rng.normal(size=3), rng.normal(), rng.normal(size=3),
                rng.normal(size=3))
    xs = rng.uniform(-2, 2, (3, 11))
    batch = eval_ckf(p, xs)
    for j in range(11):
        assert np.allclose(batch[:, j], eval_ckf(p, xs[:, j]))


def test_jacobian_matches_jets(rng):
    p = _params(rng.normal(size=3), rng.normal(), rng.normal(size=3),
                rng.normal(size=3))
    x = rng.uniform(-2, 2, 3)
    from ckfield.ckf import ckf_components
    from ckfield.jets import partial
    xc = seed(x, order=1)
    X = ckf_components(p, xc)
    J = jacobian_ckf(p, x)
    for i in range(3):
        for j in range(3):
            assert np.isclose(J[i, j], partial(X[j], i), atol=1e-13)


def test_frame_at_rotation_example():
    fr = frame_at(field_ro(), (1.0, 0.0, 0.0))
    assert np.allclose(fr.Y, (0, 0, 2))
    assert np.isclose(fr.w, 1.0)
    assert fr.divX == 0.0
    assert np.allclose(fr.T, (0, 1, 0))
    assert np.isclose(fr.T @ fr.N, 0) and np.isclose(fr.T @ fr.B, 0)
    assert np.isclose(np.linalg.norm(fr.N), 1)


def test_frame_at_special_origin():
    fr = frame_at(field_cr(1.0), (0.0, 0.0, 0.0))
    assert np.isclose(fr.w, 0.5)
    assert fr.divX == 0.0


def test_frame_at_translation_has_no_frame():
    fr = frame_at(field_ud(), (0.3, 0.1, -0.5))
    assert np.isclose(fr.w, 1.0)
    with pytest.raises(FrameUndefined):
        fr.T


def test_frame_quantities_closed_forms(rng):
    p = _params(rng.normal(size=3), rng.normal(), rng.normal(size=3),
                rng.normal(size=3))
    x = rng.uniform(-2, 2, 3)
    X, w, d, Y = frame_quantities(p, [x[0], x[1], x[2]])
    assert np.isclose(w, np.linalg.norm([value(c) for c in X]))
    assert np.isclose(d, 3 * (p.b0 + p.c @ x))
    assert np.allclose(Y, 2 * p.b + 2 * np.cross(p.c, x))
    assert np.allclose(laplacian_ckf(p), -p.c)


# -- exact differential structure --------------------------------------------

@given(vec3, finite, vec3, vec3, vec3)
def test_conformal_killing_equation(a, b0, b, c, x):
    p = _params(a, b0, b, c)
    scale = max(p.scale(), 1.0)
    assert cke_residual(p, np.asarray(x)) <= 1e-12 * scale


@given(vec3, finite, vec3, vec3, vec3)
def test_curl_is_killing(a, b0, b, c, x):
    p = _params(a, b0, b, c)
    scale = max(p.scale(), 1.0)
    res = check_identity("curl_is_killing", p, np.asarray(x)).residual
    assert res <= 1e-12 * scale


def test_curl_killing_examples():
    assert check_identity("curl_is_killing", field_ro(),
                          (5.0, -2.0, 1.0)).residual == 0.0
    assert check_identity("curl_is_killing", field_cr(1.0),
                          (1.0, 2.0, 3.0)).residual < 1e-12


# -- simple-rotation condition ------------------------------------------------

def test_canonical_fields_are_simple_but_iso_is_not():
    for p in (field_ud(), field_ro(), field_cr(0.5), field_cr(2.0)):
        assert is_simple_rotation(p)
    assert not is_simple_rotation(field_iso())


def test_residual_invariant_under_rotation(rng):
    p = _params(rng.normal(size=3), rng.normal(), rng.normal(size=3),
                rng.normal(size=3))
    # random proper rotation via QR
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    pr = _params(q @ p.a, p.b0, q @ p.b, q @ p.c)
    r1, r2, r3 = simple_rotation_residual(p)
    s1, s2, s3 = simple_rotation_residual(pr)
    assert np.isclose(r1, s1, atol=1e-12)
    assert np.isclose(r2, s2, atol=1e-12)
    assert np.isclose(np.linalg.norm(r3), np.linalg.norm(s3), atol=1e-12)


def test_xdoty_vanishes_iff_simple(rng):
    # the algebraic residuals decide X.Y = 0 as a field identity
    b = rng.normal(size=3)
    x0 = rng.normal(size=3)
    p = _params(-np.cross(b, x0), 0.0, b, (0, 0, 0))
    xs = rng.uniform(-2, 2, (3, 50))
    X = eval_ckf(p, xs)
    Y = 2 * p.b[:, None] + 2 * np.cross(p.c, xs.T).T
    assert np.max(np.abs((X * Y).sum(axis=0))) < 1e-12
    assert is_simple_rotation(p)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_simple_rotation_test_rejects_batched_params(rng, n):
    # a batch of 3 used to form a 3x3 matmul and fail converting it; other
    # sizes failed inside matmul.  An all-zero batch is rejected too, and so
    # is a batch of b0 alone, which a 3-batch broadcast into b0*b unnoticed.
    z = np.zeros((3, n))
    for p in (CkfParams(a=rng.normal(size=(3, n)), b0=rng.normal(size=n),
                        b=rng.normal(size=(3, n)), c=rng.normal(size=(3, n))),
              CkfParams(a=z, b0=0.0, b=z, c=z),
              CkfParams(a=rng.normal(size=3), b0=rng.normal(size=n),
                        b=np.zeros(3), c=np.zeros(3))):
        assert p.batched
        for fn in (simple_rotation_residual, is_simple_rotation, classify):
            with pytest.raises(ValueError,
                               match=f"^{fn.__name__} expects unbatched"):
                fn(p)


# -- classification -----------------------------------------------------------

def test_classify_canonical_examples():
    cf = classify(field_ud())
    assert cf.kind == "Translation" and cf.admissible

    cf = classify(field_ro())
    assert cf.kind == "Rotation" and cf.admissible
    assert np.allclose(cf.axis, (0, 0, 1)) and np.allclose(cf.x0, 0)

    for mu in (0.5, 1.0, 2.0):
        cf = classify(field_cr(mu))
        assert cf.kind == "Special" and cf.admissible
        assert np.isclose(cf.nu, 0.5 * mu ** 2)
        assert np.allclose(cf.x0, 0)
        assert np.allclose(cf.axis, (0, 0, 1))


def test_classify_dilation_keeps_sign():
    p = _params((0.5, 0, 0), -1.5, (0, 0, 0), (0, 0, 0))
    cf = classify(p)
    assert cf.kind == "Dilation" and not cf.admissible
    assert cf.rate == -1.5 and cf.scale == 1.5
    q = reconstruct(cf)
    assert q.b0 == -1.5
    assert np.allclose(q.a, p.a)


def test_classify_special_inadmissible_branch():
    c = np.array([0.0, 0.0, 1.0])
    p = _params(-0.25 * c, 0.0, (0, 0, 0), c)   # nu = -0.25
    cf = classify(p)
    assert cf.kind == "Special" and not cf.admissible
    assert np.isclose(cf.nu, -0.25)


def test_classify_rejects_non_simple_and_zero():
    with pytest.raises(NotSimpleRotation):
        classify(field_iso())
    with pytest.raises(ZeroField):
        classify(_params((0, 0, 0), 0, (0, 0, 0), (0, 0, 0)))


def test_generic_round_trip_at_roundoff(rng):
    """Float round trips on generic simple fields agree to a few ulp."""
    worst = 0.0
    for _ in range(200):
        b = rng.uniform(-2, 2, 3)
        x0 = rng.uniform(-2, 2, 3)
        p = _params(-np.cross(b, x0), 0.0, b, (0, 0, 0))
        q = reconstruct(classify(p))
        s = p.scale()
        worst = max(worst,
                    np.max(np.abs(q.a - p.a)) / s,
                    np.max(np.abs(q.b - p.b)) / s)
    assert worst < 5e-15


def _exact_unit(rng):
    # rejection-sample a direction whose float norm is exactly 1
    while True:
        v = rng.normal(size=3)
        u = v / np.linalg.norm(v)
        if np.dot(u, u) == 1.0:
            return u


def _pow2(rng, lo=-3, hi=3):
    return float(2.0 ** rng.integers(lo, hi + 1)) * float(rng.choice([-1.0, 1.0]))


def exact_simple_params(kind, rng):
    """Random simple-rotation parameters whose canonical data is exactly
    representable, so classify/reconstruct must round-trip bitwise."""
    z = np.zeros(3)
    if kind == "Translation":
        return CkfParams(a=abs(_pow2(rng)) * _exact_unit(rng), b0=0.0, b=z, c=z)
    if kind == "Dilation":
        b0 = _pow2(rng)
        x0 = rng.uniform(-2, 2, 3)
        return CkfParams(a=-b0 * x0, b0=b0, b=z, c=z)
    if kind == "Rotation":
        return CkfParams(a=z.copy(), b0=0.0,
                         b=abs(_pow2(rng)) * _exact_unit(rng), c=z)
    c = abs(_pow2(rng)) * _exact_unit(rng)
    return CkfParams(a=_pow2(rng) * c, b0=0.0, b=z, c=c)


def params_bitwise_equal(p, q):
    return (np.array_equal(p.a, q.a) and p.b0 == q.b0
            and np.array_equal(p.b, q.b) and np.array_equal(p.c, q.c))


def test_exact_round_trip_on_canonical_data(rng):
    kinds = ("Translation", "Dilation", "Rotation", "Special")
    for i in range(100):
        p = exact_simple_params(kinds[i % 4], rng)
        cf = classify(p)
        assert cf.kind == kinds[i % 4]
        assert params_bitwise_equal(p, reconstruct(cf))


# The expressions classify and reconstruct were first written with
# (np.linalg.norm, np.stack over vcross); the library's values must stay
# byte for byte those of this oracle.

def _oracle_scale(p):
    return max(float(np.linalg.norm(p.a)), float(np.max(np.abs(p.b0))),
               float(np.linalg.norm(p.b)), float(np.linalg.norm(p.c)))


def _oracle_classify(p, tol=EPS_CLASSIFY):
    """(kind, x0, axis, scale, nu, admissible, rate)."""
    s = _oracle_scale(p)
    if s == 0.0:
        raise ZeroField("all parameters vanish")
    r1, r2 = float(p.a @ p.b), float(p.c @ p.b)
    r3 = p.b0 * p.b - np.stack(vcross(p.c, p.a))
    if not max(abs(r1), abs(r2), float(np.linalg.norm(r3))) <= tol * s * s:
        raise NotSimpleRotation(
            f"residuals (a.b, c.b, |b0 b - c x a|) = "
            f"({r1:.3e}, {r2:.3e}, {np.linalg.norm(r3):.3e}) "
            f"exceed {tol:g} * scale^2")
    na, nb, nc = (np.linalg.norm(p.a), np.linalg.norm(p.b),
                  np.linalg.norm(p.c))
    if nc > tol * s:
        x0 = (np.stack(vcross(p.c, p.b)) - p.b0 * p.c) / nc**2
        nu = 0.5 * (2.0 * float(p.a @ p.c) + nb**2 - float(p.b0)**2) / nc**2
        return "Special", x0, p.c / nc, nc, nu, bool(nu > 0.0), None
    if nb > tol * s:
        return ("Rotation", np.stack(vcross(p.b, p.a)) / nb**2, p.b / nb, nb,
                None, True, None)
    if abs(float(p.b0)) > tol * s:
        b0 = float(p.b0)
        return "Dilation", -p.a / b0, None, abs(b0), None, False, b0
    return "Translation", None, p.a / na, na, None, True, None


def _oracle_reconstruct(kind, x0, axis, scale, nu, admissible, rate):
    z = np.zeros(3)
    if kind == "Translation":
        return scale * axis, 0.0, z, z
    if kind == "Dilation":
        return -rate * x0, rate, z, z
    if kind == "Rotation":
        b = scale * axis
        return -np.stack(vcross(b, x0)), 0.0, b, z
    c = scale * axis
    a = nu * c + float(c @ x0) * x0 - 0.5 * float(x0 @ x0) * c
    return a, -float(c @ x0), -np.stack(vcross(c, x0)), c


def _same_bytes(u, v):
    if u is None or v is None or isinstance(u, (str, bool)):
        return u == v
    u, v = np.asarray(u), np.asarray(v)
    return u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


def _classify_inputs(rng, n):
    """Simple fields of the four kinds from generic canonical data, generic
    non-simple fields and parts near EPS_CLASSIFY relative to the scale."""
    z = np.zeros(3)
    out = []
    for i in range(n):
        mag = 10.0 ** rng.uniform(-3, 3)
        u = rng.normal(size=3)
        u *= mag / np.linalg.norm(u)
        x0 = rng.normal(size=3)
        kind = i % 6
        if kind == 0:
            p = CkfParams(a=u, b0=0.0, b=z, c=z)
        elif kind == 1:
            b0 = float(mag * rng.choice([-1.0, 1.0]))
            p = CkfParams(a=-b0 * x0, b0=b0, b=z, c=z)
        elif kind == 2:
            p = CkfParams(a=-np.cross(u, x0), b0=0.0, b=u, c=z)
        elif kind == 3:
            nu = rng.normal()
            p = CkfParams(a=nu * u + (u @ x0) * x0 - 0.5 * (x0 @ x0) * u,
                          b0=-float(u @ x0), b=-np.cross(u, x0), c=u)
        elif kind == 4:
            p = CkfParams(a=rng.normal(size=3), b0=rng.normal(),
                          b=rng.normal(size=3), c=rng.normal(size=3))
        else:
            eps = EPS_CLASSIFY * 10.0 ** rng.uniform(-0.5, 0.5)
            p = CkfParams(a=-np.cross(u, x0) * rng.choice([0.0, 1.0]),
                          b0=float(eps * mag * rng.choice([-1.0, 0.0, 1.0])),
                          b=u * rng.choice([1.0, eps]),
                          c=rng.normal(size=3) * eps * mag * rng.choice([0.0, 1.0]))
        out.append(p)
    return out


def test_classify_values_are_the_oracles(rng):
    kinds = set()
    for p in _classify_inputs(rng, 2000):
        try:
            want = _oracle_classify(p)
        except (NotSimpleRotation, ZeroField) as e:
            with pytest.raises(type(e)) as got:
                classify(p)
            assert str(got.value) == str(e)
            kinds.add(type(e).__name__)
            continue
        cf = classify(p)
        got = (cf.kind, cf.x0, cf.axis, cf.scale, cf.nu, cf.admissible, cf.rate)
        assert all(_same_bytes(u, v) for u, v in zip(got, want)), (p, got, want)
        kinds.add(cf.kind)
        q = reconstruct(cf)
        assert all(_same_bytes(u, v) for u, v in zip((q.a, q.b0, q.b, q.c),
                                                       _oracle_reconstruct(*want)))
        assert type(q.b0) is float
    assert kinds == {"Translation", "Dilation", "Rotation", "Special",
                     "NotSimpleRotation"}


def test_admissible_kinds_only():
    # admissible iff Translation, Rotation, or Special with nu > 0
    assert classify(field_ud()).admissible
    assert classify(field_ro()).admissible
    assert classify(field_cr(1.0)).admissible
    p = _params((1, 0, 0), 0.7, (0, 0, 0), (0, 0, 0))
    assert not classify(p).admissible


def test_reconstruct_unknown_kind():
    from ckfield.ckf import CanonicalForm
    cf = CanonicalForm(kind="Spiral", x0=None, axis=None, scale=1.0,
                       nu=None, admissible=False)
    with pytest.raises(ValueError):
        reconstruct(cf)


def test_param_validation():
    with pytest.raises(ValueError):
        _params((np.inf, 0, 0), 0, (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        CkfParams(a=np.zeros(2), b0=0.0, b=np.zeros(3), c=np.zeros(3))
    with pytest.raises(ValueError):
        field_cr(0.0)


@pytest.mark.parametrize("name", ["a", "b", "c"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_param_validation_rejects_nonfinite_parts(name, bad):
    for shape in ((3,), (3, 4)):
        parts = {"a": np.zeros(shape), "b": np.zeros(shape), "c": np.zeros(shape)}
        parts[name][(1,) * len(shape)] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            CkfParams(b0=0.0, **parts)


@pytest.mark.parametrize("name", ["a", "b", "c"])
def test_param_validation_rejects_wrong_leading_length(name):
    for shape in ((2,), (4,), (2, 5)):
        parts = {"a": np.zeros(3), "b": np.zeros(3), "c": np.zeros(3),
                 name: np.zeros(shape)}
        with pytest.raises(ValueError,
                           match=f"^{name} must have leading length 3$"):
            CkfParams(b0=0.0, **parts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_param_validation_rejects_nonfinite_b0(bad):
    z = np.zeros(3)
    for b0 in (bad, np.float64(bad), np.array(bad), np.array([0.0, bad]),
               [1.0, bad]):
        with pytest.raises(ValueError, match="^b0 must be finite$"):
            CkfParams(a=z, b0=b0, b=z, c=z)


def test_stored_b0_is_a_float_or_a_batch():
    z = np.zeros(3)
    for b0 in (1.5, -2, True, np.float64(0.25), np.int64(3), np.array(-0.5)):
        p = CkfParams(a=z, b0=b0, b=z, c=z)
        assert type(p.b0) is float and p.b0 == float(b0)
    for b0 in (np.array([1.0, -2.0]), [3, 4], np.array([[0.5]])):
        p = CkfParams(a=z, b0=b0, b=z, c=z)
        assert type(p.b0) is np.ndarray and p.b0.dtype == float
        assert np.array_equal(p.b0, np.asarray(b0, float))


def test_scale_is_max_of_part_norms():
    p = _params((3, 4, 0), -2.0, (0, 0, 1), (0.5, 0, 0))
    assert p.scale() == 5.0


def _norm_cases(rng):
    tiny = np.nextafter(0.0, 1.0)
    vecs = [np.zeros(3), np.array([tiny, 0.0, -tiny]),
            np.array([3e-310, -2e-308, 1e-320]), np.array([1e200, 0.0, 0.0]),
            np.array([-1e200, 1e200, 1.0])]
    for e in (-150, 150, -300, 0):
        vecs.append(rng.normal(size=3) * 10.0 ** e)
        vecs.append(rng.normal(size=(3, 7)) * 10.0 ** e)
    vecs.append(rng.normal(size=(5, 3)).T)          # not C-contiguous
    vecs.append(rng.normal(size=(3, 8))[:, ::-2])   # strided
    return vecs


@np.errstate(over="ignore")
def test_norm_is_numpys_norm_bitwise(rng):
    for v in _norm_cases(rng):
        n = _norm(v)
        assert type(n) is float
        assert np.float64(n).tobytes() == np.linalg.norm(v).tobytes()
    assert _norm(np.array([1e200, 0.0, 0.0])) == np.inf


@np.errstate(over="ignore")
def test_scale_is_the_norm_formula_bitwise(rng):
    cases = _norm_cases(rng)
    b0s = (0.0, -2.5, 1e-310, -1e200, 7, np.float64(-3.0), np.array(0.5))
    for i, v in enumerate(cases):
        w = cases[(i + 3) % len(cases)]
        k = cases[(i + 5) % len(cases)]
        for b0 in b0s + (-np.abs(rng.normal(size=7)) * 10.0 ** (i - 8),
                         rng.normal(size=7) * 1e150):
            p = CkfParams(a=v, b0=b0, b=w, c=k)
            s = p.scale()
            assert type(s) is float
            assert np.float64(s).tobytes() == np.float64(_oracle_scale(p)).tobytes()
            assert frame_threshold(p) == 1e-10 * max(1.0, _oracle_scale(p))


def test_canonical_scale_and_nu_are_floats(rng):
    for i in range(8):
        cf = classify(exact_simple_params(
            ("Translation", "Dilation", "Rotation", "Special")[i % 4], rng))
        assert type(cf.scale) is float
        assert cf.nu is None or type(cf.nu) is float
    assert type(classify(field_cr(1.0)).nu) is float


def test_to_dict_round_trip():
    p = field_cr(1.5)
    q = CkfParams.from_dict(p.to_dict())
    assert params_bitwise_equal(p, q)
