"""Spinor operators D, Q, S checked against independent oracles.

D and Q are rebuilt here from Pauli matrices and central finite differences
of the raw spinor components, so agreement is evidence about the jet-based
implementation and not a self-comparison.  The commutator identities and the
w-weighted norm decomposition are then checked at the tolerances the rest of
the package relies on.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from ckfield.ckf import CkfParams, eval_ckf, field_cr, field_iso, field_ro
from ckfield.errors import (FrameUndefined, NotParallel, NotSimpleRotation,
                            SupportViolation)
from ckfield.flows import eval_ckf_curl
from ckfield.jets import Jet, order, seed
from ckfield.potentials import (PARALLEL_TOL, axial, eval_potential, gaussian,
                                gauged, hopfbase, lossyau, parallelism_residual,
                                scaled, smoothbump)
from ckfield.quadrature import QuadBox, box_axes
from ckfield.spinops import (CHI0_PRIME_MAX, CutoffPair, apply_D, apply_Q,
                             apply_S, chi0_prime, commutator_residuals,
                             cutoff_bound_check, grad_chi_R,
                             norm_decomposition_check)
from ckfield.spinors import (PAULI, bump_packet, eval_spinor, gaussian_packet,
                             losyau_mode, sigma_apply, spinor_abs)

SIGMA = np.stack(PAULI)


def _vals(f, x):
    s = eval_spinor(f, [x[0], x[1], x[2]])
    return np.array([complex(s[0]), complex(s[1])])


def _fd_spinor_grad(f, x, h=1.0e-5):
    out = []
    for k in range(3):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        out.append((_vals(f, xp) - _vals(f, xm)) / (2.0 * h))
    return out


def _oracle_D(spec, f, x):
    pieces = [-1j * g for g in _fd_spinor_grad(f, x)]
    if spec is not None:
        A = eval_potential(spec, x)
        s = _vals(f, x)
        pieces = [pieces[k] - A[k] * s for k in range(3)]
    return sum(PAULI[k] @ pieces[k] for k in range(3))


def _oracle_Q(p, spec, f, x):
    pieces = [-1j * g for g in _fd_spinor_grad(f, x)]
    s = _vals(f, x)
    if spec is not None:
        A = eval_potential(spec, x)
        pieces = [pieces[k] - A[k] * s for k in range(3)]
    X = eval_ckf(p, x)
    Y = eval_ckf_curl(p, x)
    div = 3.0 * (float(p.b0) + float(p.c @ x))
    sY = sum(Y[k] * PAULI[k] for k in range(3))
    return (sum(X[k] * pieces[k] for k in range(3)) + 0.25 * sY @ s
            - (2.0 / 3.0) * 1j * div * s)


# ---------------------------------------------------------------------------
# Pauli algebra


def test_pauli_product_rule():
    # (sigma.a)(sigma.b) = a.b I + i sigma.(a x b), 1000 random pairs
    rng = np.random.default_rng(11)
    a = rng.normal(size=(1000, 3))
    b = rng.normal(size=(1000, 3))
    Ma = np.einsum("nk,kij->nij", a, SIGMA)
    Mb = np.einsum("nk,kij->nij", b, SIGMA)
    got = Ma @ Mb
    expect = ((a * b).sum(axis=1)[:, None, None] * np.eye(2)
              + 1j * np.einsum("nk,kij->nij", np.cross(a, b), SIGMA))
    assert np.abs(got - expect).max() < 1.0e-13


def test_vector_triple_product_rule():
    rng = np.random.default_rng(12)
    a, b, c = rng.normal(size=(3, 1000, 3))
    got = np.cross(a, np.cross(b, c))
    expect = (a * c).sum(axis=1)[:, None] * b - (a * b).sum(axis=1)[:, None] * c
    assert np.abs(got - expect).max() < 1.0e-13


def test_sigma_apply_matches_matrix_action():
    rng = np.random.default_rng(13)
    v = rng.normal(size=3)
    s = rng.normal(size=2) + 1j * rng.normal(size=2)
    got = np.array(sigma_apply(v, s))
    expect = sum(v[k] * PAULI[k] for k in range(3)) @ s
    np.testing.assert_allclose(got, expect, atol=1.0e-15)
    # sigma.n is an involution for unit n
    n = v / np.linalg.norm(v)
    back = np.array(sigma_apply(n, sigma_apply(n, s)))
    np.testing.assert_allclose(back, s, atol=1.0e-14)


# ---------------------------------------------------------------------------
# pointwise operators vs oracles


def test_apply_D_matches_fd_oracle():
    spec = axial(smoothbump(0.2, 4.0, 0.7))
    f = gaussian_packet((0.3, -0.2, 0.4), 0.8, spinor=(1.0, 0.5 - 0.25j))
    rng = np.random.default_rng(5)
    for _ in range(12):
        x = rng.uniform(-1.2, 1.2, size=3)
        got = apply_D(spec, f, x)
        np.testing.assert_allclose(got, _oracle_D(spec, f, x), atol=1.0e-6)


def test_apply_D_without_potential():
    f = gaussian_packet((0.0, 0.1, -0.3), 0.7)
    x = np.array([0.4, -0.5, 0.2])
    np.testing.assert_allclose(apply_D(None, f, x), _oracle_D(None, f, x),
                               atol=1.0e-6)


def test_apply_D_batch_shape():
    f = gaussian_packet((0.0, 0.0, 0.0), 1.0)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(3, 7))
    out = apply_D(None, f, pts)
    assert out.shape == (2, 7)
    assert np.iscomplexobj(out)


def test_losyau_mode_is_a_continuum_zero_mode():
    rng = np.random.default_rng(21)
    pts = rng.uniform(-2.0, 2.0, size=(3, 50))
    Dv = apply_D(lossyau(), losyau_mode(), pts)
    mags = spinor_abs(eval_spinor(losyau_mode(), [pts[0], pts[1], pts[2]]))
    rel = np.sqrt((np.abs(Dv) ** 2).sum(axis=0)) / mags
    assert rel.max() < 1.0e-12


def test_apply_Q_matches_fd_oracle():
    p = field_cr(1.0)
    spec = hopfbase(1.0)
    f = gaussian_packet((0.2, 0.1, -0.1), 0.6, spinor=(0.7, 0.3j))
    rng = np.random.default_rng(6)
    for _ in range(8):
        x = rng.uniform(-0.5, 0.5, size=3)
        got = apply_Q(p, spec, f, x)
        np.testing.assert_allclose(got, _oracle_Q(p, spec, f, x), atol=1.0e-6)


def test_apply_Q_rejects_nonparallel_potential():
    f = gaussian_packet((0.5, 0.0, 0.0), 0.5)
    with pytest.raises(NotParallel):
        apply_Q(field_ro(), hopfbase(1.0), f, np.array([0.5, 0.2, 0.1]))


def test_apply_S_matches_projection_oracle_and_is_isometry():
    p = field_ro()
    f = gaussian_packet((0.6, -0.1, 0.2), 0.5, spinor=(0.4, 1.0))
    rng = np.random.default_rng(7)
    for _ in range(8):
        x = rng.uniform(-1.0, 1.0, size=3)
        x[0] += 1.5  # keep away from the rotation axis
        X = eval_ckf(p, x)
        n = X / np.linalg.norm(X)
        got = apply_S(p, f, x)
        expect = np.array(sigma_apply(n, _vals(f, x)))
        np.testing.assert_allclose(got, expect, atol=1.0e-13)
        assert np.linalg.norm(got) == pytest.approx(
            np.linalg.norm(_vals(f, x)), abs=1.0e-13)


def test_apply_S_undefined_on_axis():
    f = gaussian_packet((0.0, 0.0, 0.0), 1.0)
    with pytest.raises(FrameUndefined):
        apply_S(field_ro(), f, np.array([0.0, 0.0, 0.3]))


# ---------------------------------------------------------------------------
# commutator identities


def _torus_points(rng, n, rho_lo=0.4, rho_hi=1.6, z=0.8):
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    rho = rng.uniform(rho_lo, rho_hi, size=n)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi),
                     rng.uniform(-z, z, size=n)])


def test_commutators_rotation_with_axial_potential():
    rng = np.random.default_rng(8)
    pts = _torus_points(rng, 30)
    f = gaussian_packet((0.9, 0.2, -0.3), 0.6, spinor=(1.0, 0.2 + 0.5j))
    r1, r2, r3 = commutator_residuals(field_ro(),
                                      axial(smoothbump(0.2, 4.0, 0.7)),
                                      f, pts)
    assert max(r1, r2, r3) < 1.0e-9


def test_commutators_circular_with_hopf_potential():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-0.5, 0.5, size=(3, 30))  # well inside the zero circle
    f = gaussian_packet((0.1, 0.0, 0.2), 0.5)
    r1, r2, r3 = commutator_residuals(field_cr(1.0), hopfbase(1.0), f, pts)
    assert max(r1, r2, r3) < 1.0e-9


def test_commutators_survive_gauge_and_scaling():
    rng = np.random.default_rng(10)
    pts = _torus_points(rng, 20)
    f = gaussian_packet((0.8, -0.1, 0.1), 0.5)
    spec = gauged(axial(smoothbump(0.2, 4.0, 0.7)), "sin_x1_x2")
    assert max(commutator_residuals(field_ro(), spec, f, pts)) < 1.0e-9
    pts2 = rng.uniform(-0.5, 0.5, size=(3, 20))
    assert max(commutator_residuals(field_cr(1.0), scaled(hopfbase(1.0), 2.5),
                                    f, pts2)) < 1.0e-9


def test_commutators_without_potential():
    rng = np.random.default_rng(14)
    pts = _torus_points(rng, 20)
    f = gaussian_packet((0.7, 0.3, 0.0), 0.6)
    assert max(commutator_residuals(field_ro(), None, f, pts)) < 1.0e-9


def test_commutators_reject_bad_inputs():
    f = gaussian_packet((0.5, 0.0, 0.0), 0.5)
    x = np.array([0.5, 0.2, 0.1])
    with pytest.raises(NotParallel):
        commutator_residuals(field_ro(), hopfbase(1.0), f, x)
    with pytest.raises(FrameUndefined):
        commutator_residuals(field_ro(), None, f, np.array([0.0, 0.0, 0.5]))


def test_gauged_potential_with_roundoff_sized_field_is_parallel():
    # far out, B = curl A is ~1e-16..1e-8 while the x1 x2 x3 gauge term puts
    # O(1) entries into grad A, so B's roundoff rivals B itself; that must not
    # read as a parallelism residual
    spec = gauged(axial(gaussian(0.5, 1.0)), "x1x2x3")
    pts = np.random.default_rng(11).normal(scale=1.3, size=(3, 3000))
    assert np.max(parallelism_residual(spec, pts)) <= PARALLEL_TOL
    f = gaussian_packet((0.9, 0.2, -0.3), 0.6, spinor=(1.0, 0.4 - 0.2j))
    assert max(commutator_residuals(field_ro(), spec, f, pts)) < 1.0e-9
    assert apply_Q(field_ro(), spec, f, pts).shape == (2, 3000)


def test_operators_evaluate_the_potential_once(monkeypatch):
    # the parallelism check reads B = curl A from the field context's A jets
    import ckfield.potentials
    import ckfield.spinops
    calls = []
    real = ckfield.potentials.potential_components

    def counting(spec, xc):
        calls.append(spec.kind)
        return real(spec, xc)

    monkeypatch.setattr(ckfield.potentials, "potential_components", counting)
    monkeypatch.setattr(ckfield.spinops, "potential_components", counting)
    pts = np.random.default_rng(15).uniform(-0.5, 0.5, size=(3, 10))
    f = gaussian_packet((0.1, 0.0, 0.2), 0.5)
    commutator_residuals(field_cr(1.0), hopfbase(1.0), f, pts)
    assert calls == ["hopfbase"]
    calls.clear()
    apply_Q(field_cr(1.0), hopfbase(1.0), f, pts)
    assert calls == ["hopfbase"]


# ---------------------------------------------------------------------------
# derivative orders: every core runs at the order its result carries


def _norm_slab():
    p, spec = field_ro(), axial(smoothbump(0.1, 3.0, 0.8))
    f = bump_packet((0.3, 2.2), (-0.9, 0.9), spinor=(0.8, 0.6j))
    pts = _torus_points(np.random.default_rng(16), 50)
    return p, spec, f, pts


def _record_jet_products(monkeypatch):
    # the lower operand order of every jet-by-jet product, in call order
    seen = []
    real = Jet.__mul__

    def mul(a, b):
        if isinstance(b, Jet):
            seen.append(min(order(a), order(b)))
        return real(a, b)

    monkeypatch.setattr(Jet, "__mul__", mul)
    monkeypatch.setattr(Jet, "__rmul__", mul)
    return seen


def test_cores_on_order_one_seeds_return_values(monkeypatch):
    from ckfield.spinops import _D_core, _Dw_core, _Field, _P_pair, _Q_core
    p, spec, f, pts = _norm_slab()
    xc = seed(pts, order=1)
    ctx = _Field(p, spec, xc)
    F = eval_spinor(f, xc)
    Fp, Fm = _P_pair(ctx, F)
    Tp = _P_pair(ctx, _Dw_core(ctx, Fm))[0]
    Tm = _P_pair(ctx, _Dw_core(ctx, Fp))[1]
    seen = _record_jet_products(monkeypatch)
    for G in (_D_core(ctx.A, F), _Q_core(ctx, F), Tp, Tm):
        assert [order(c) for c in G] == [0, 0]
    # D and Q multiply bare values only: no product computes a gradient
    assert seen and max(seen) == 0
    # the projections keep F's order; a constant spinor stays x-dependent
    for G in (*_P_pair(ctx, F), *_P_pair(ctx, (1.0, 0.0))):
        assert [order(c) for c in G] == [1, 1]


def test_commutator_QF_carries_no_hessian(monkeypatch):
    import ckfield.spinops
    products = _record_jet_products(monkeypatch)
    seen = []
    real = ckfield.spinops._Q_core

    def recording(ctx, F):
        n0 = len(products)
        out = real(ctx, F)
        seen.append((min(order(c) for c in F), [order(c) for c in out],
                     max(products[n0:])))
        return out

    monkeypatch.setattr(ckfield.spinops, "_Q_core", recording)
    p, spec, f, pts = _norm_slab()
    commutator_residuals(p, spec, f, pts)
    # QF, Q(Dw F), Q(S F): the order-2 seed gives an order-1 QF built from
    # products without a Hessian, and every Q applied to an order-1 spinor
    # returns bare values built from bare values
    assert seen[0] == (2, [1, 1], 1)
    assert all(out == [order_in - 1] * 2 and top == order_in - 1
               for order_in, out, top in seen)


def test_field_context_is_freed_without_the_cycle_collector():
    from ckfield.spinops import _Dw_core, _Field, _P_pair, _Q_core
    p, spec, f, pts = _norm_slab()
    gc.disable()
    try:
        xc = seed(pts, order=1)
        ctx = _Field(p, spec, xc)
        F = eval_spinor(f, xc)
        _P_pair(ctx, _Dw_core(ctx, _P_pair(ctx, F)[1]))
        _Q_core(ctx, F)
        assert ctx._views              # the truncated views were cached
        ref = weakref.ref(ctx)
        view = weakref.ref(ctx.at(0))
        del ctx
        assert ref() is None and view() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# norm decomposition


def test_norm_decomposition_rotation_axial():
    p = field_ro()
    spec = axial(smoothbump(0.1, 3.0, 0.8))
    f = bump_packet((0.3, 2.2), (-0.9, 0.9), spinor=(0.8, 0.6j))
    box = QuadBox(((-1.6, 1.6), (-1.6, 1.6), (-1.0, 1.0)), n=64)
    lhs, (tp, tm, q), rel = norm_decomposition_check(p, spec, f, box)
    assert lhs > 0.0
    assert min(tp, tm, q) >= 0.0
    assert rel < 1.0e-3


@pytest.mark.parametrize("n", [16, 24])
def test_norm_decomposition_q_term_matches_apply_Q(n):
    # the decomposition's ||Q f||_w^2 against the public Q on every box node
    p = field_ro()
    spec = axial(smoothbump(0.1, 3.0, 0.8))
    f = bump_packet((0.3, 2.2), (-0.9, 0.9), spinor=(0.8, 0.6j))
    box = QuadBox(((-1.6, 1.6), (-1.6, 1.6), (-1.0, 1.0)), n=n)
    _, (_, _, q), _ = norm_decomposition_check(p, spec, f, box)
    (xn, xw), (yn, yw), (zn, zw) = box_axes(box)
    pts = np.stack(np.meshgrid(xn, yn, zn, indexing="ij")).reshape(3, -1)
    wts = np.einsum("i,j,k->ijk", xw, yw, zw).reshape(-1)
    w = np.sqrt((eval_ckf(p, pts) ** 2).sum(axis=0))
    Qf = apply_Q(p, spec, f, pts)
    expect = float((wts * w) @ (np.abs(Qf) ** 2).sum(axis=0))
    assert expect > 0.0
    assert abs(q - expect) <= 1.0e-12 * expect


def test_norm_decomposition_is_deterministic():
    p = field_ro()
    f = bump_packet((0.3, 2.2), (-0.9, 0.9))
    box = QuadBox(((-1.6, 1.6), (-1.6, 1.6), (-1.0, 1.0)), n=16)
    out1 = norm_decomposition_check(p, None, f, box)
    out2 = norm_decomposition_check(p, None, f, box)
    assert out1 == out2


def test_norm_decomposition_rejects_boundary_support():
    f = bump_packet((0.3, 2.2), (-0.9, 0.9))
    box = QuadBox(((-1.6, 1.6), (-1.6, 1.6), (-0.5, 0.5)), n=16)
    with pytest.raises(SupportViolation, match="boundary"):
        norm_decomposition_check(field_ro(), None, f, box)


def test_norm_decomposition_rejects_support_touching_zero_set():
    # dilation center placed exactly on a scan node; w = 0 there
    x0 = np.full(3, np.linspace(-1.0, 1.0, 48)[24])
    p = CkfParams(a=-x0, b0=1.0, b=np.zeros(3), c=np.zeros(3))
    f = gaussian_packet(x0, 0.1)
    box = QuadBox(((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), n=16)
    with pytest.raises(SupportViolation, match="touches"):
        norm_decomposition_check(p, None, f, box)


@pytest.mark.parametrize("f, ranges", [
    # a box that misses the packet's support
    (bump_packet((0.3, 2.2), (-0.9, 0.9)), ((3.0, 4.0),) * 3),
    # a spinor that is zero everywhere
    (bump_packet((0.3, 2.2), (-0.9, 0.9), spinor=(0.0, 0.0)),
     ((-1.6, 1.6), (-1.6, 1.6), (-1.0, 1.0))),
], ids=["box_misses_support", "zero_spinor"])
def test_norm_decomposition_rejects_a_vanishing_spinor(f, ranges):
    box = QuadBox(ranges, n=16)
    with pytest.raises(SupportViolation, match=r"peak 0\.000e\+00"):
        norm_decomposition_check(field_ro(), None, f, box)


def test_norm_decomposition_needs_simple_rotation():
    f = bump_packet((0.3, 2.2), (-0.9, 0.9))
    box = QuadBox(((-1.6, 1.6), (-1.6, 1.6), (-1.0, 1.0)), n=16)
    with pytest.raises(NotSimpleRotation):
        norm_decomposition_check(field_iso(), None, f, box)


# ---------------------------------------------------------------------------
# cutoff functions: the cutoffs themselves are the finite-difference oracles
# of the derivatives the library computes


def _estep(s):
    # exp(-1/s) for s > 0, 0 otherwise, without evaluating 1/0
    s = np.asarray(s, dtype=float)
    pos = s > 0.0
    safe = np.where(pos, s, 1.0)
    return np.where(pos, np.exp(-1.0 / safe), 0.0)


def chi0(t):
    """C-infinity non-increasing step: 1 for t <= 0, 0 for t >= 1."""
    a = _estep(1.0 - np.asarray(t, dtype=float))
    b = _estep(np.asarray(t, dtype=float))
    return a / (a + b)


def chi_R(c, x):
    """chi0(loglog|x| - loglog R) for |x| > e, else 1: so 1 for |x| <= R
    and 0 for |x| >= R^e."""
    x = np.asarray(x, dtype=float)
    r = np.sqrt((x * x).sum(axis=0))
    big = r > math.e
    rs = np.where(big, r, math.e * 1.0000001)
    return np.where(big, chi0(np.log(np.log(rs)) - np.log(np.log(c.R))),
                    1.0)


def test_chi0_endpoints_and_midpoint():
    assert chi0(-1.0) == 1.0
    assert chi0(0.0) == 1.0
    assert chi0(1.0) == 0.0
    assert chi0(2.0) == 0.0
    assert chi0(0.5) == pytest.approx(0.5, abs=1.0e-15)
    t = np.linspace(-0.5, 1.5, 401)
    v = chi0(t)
    assert np.all(np.diff(v) <= 1.0e-15)
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_chi0_prime_matches_fd_and_support():
    t = np.linspace(0.05, 0.95, 37)
    h = 1.0e-6
    fd = (chi0(t + h) - chi0(t - h)) / (2.0 * h)
    np.testing.assert_allclose(chi0_prime(t), fd, atol=1.0e-7)
    assert chi0_prime(-0.2) == 0.0
    assert chi0_prime(1.2) == 0.0
    assert chi0_prime(0.5) == pytest.approx(-2.0, abs=1.0e-12)


def test_chi0_prime_max_value():
    # the grid holds t = 1/2, where |chi0'| attains its maximum
    t = np.linspace(0.0, 1.0, 2_000_001)
    assert np.abs(chi0_prime(t)).max() == pytest.approx(CHI0_PRIME_MAX,
                                                        abs=1.0e-9)


def test_chi0_prime_max_is_exactly_two():
    t = np.linspace(0.0, 1.0, 2_000_001)
    assert np.abs(chi0_prime(t)).max() <= CHI0_PRIME_MAX == 2.0


def test_cutoff_pair_validation():
    with pytest.raises(ValueError):
        CutoffPair(field_cr(1.0), R=2.0, eps=0.1)   # R <= e
    with pytest.raises(ValueError):
        CutoffPair(field_cr(1.0), R=10.0, eps=1.5)


def test_chi_R_plateau_and_support():
    c = CutoffPair(field_cr(1.0), R=math.e ** 2, eps=0.05)
    e3 = np.array([[0.0], [0.0], [1.0]])
    assert chi_R(c, 0.5 * c.R * e3)[0] == 1.0
    assert chi_R(c, 0.999 * c.R * e3)[0] == 1.0
    assert chi_R(c, (c.R ** math.e * 1.001) * e3)[0] == 0.0
    mid = chi_R(c, math.exp(math.exp(0.5 + math.log(math.log(c.R)))) * e3)[0]
    assert 0.0 < mid < 1.0


def test_grad_chi_R_matches_fd():
    c = CutoffPair(field_cr(1.0), R=math.e ** 2, eps=0.05)
    r = math.exp(math.exp(0.4 + math.log(math.log(c.R))))
    x = r * np.array([0.6, -0.64, 0.48]) / np.linalg.norm([0.6, -0.64, 0.48])
    h = 1.0e-4 * r
    fd = np.empty(3)
    for k in range(3):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fd[k] = (chi_R(c, xp[:, None])[0] - chi_R(c, xm[:, None])[0]) / (2 * h)
    np.testing.assert_allclose(grad_chi_R(c, x[:, None])[:, 0], fd,
                               atol=1.0e-8)
    # vanishes off the transition shell
    assert np.all(grad_chi_R(c, 0.5 * c.R * np.eye(3)[:, :1]) == 0.0)


def test_cutoff_bound_and_halving():
    sups = []
    for R in (math.e ** 2, math.e ** 4, math.e ** 8):
        sup, bound = cutoff_bound_check(CutoffPair(field_cr(1.0), R, 0.05))
        assert sup <= bound
        sups.append(sup)
    assert sups[0] / sups[1] == pytest.approx(2.0, rel=0.25)
    assert sups[1] / sups[2] == pytest.approx(2.0, rel=0.25)
