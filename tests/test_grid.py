"""Discretized operator: Hermiticity, spectra, gauge covariance, residuals.

Small grids (n = 8, dim = 1024) keep every check against dense linear
algebra affordable, so the sparse assembly, the closed-form free sigma_min,
and the LOBPCG path can each be compared with an exact reference.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from ckfield.errors import FreeZeroMode, GridTooLarge, NoConvergence
from ckfield.grid import (SOLVE_TOL, GridOperator, GridSpec, _MAXITER,
                          _d1_matrix, _free_inverse, _rotation_sectors,
                          _sigma_min_block, _sigma_min_dense,
                          _sigma_min_lobpcg, _stencil, assemble, axis_points,
                          free_sigma_min, grid_points, scaling_sweep,
                          sigma_min, zeromode_residual_on_grid)
from ckfield.potentials import (axial, eval_potential, gauge_pair, gauged,
                                gaussian, hopfbase, lossyau, modulated,
                                scaled, smoothbump)
from ckfield.spinors import PAULI, losyau_mode

AXIAL = axial(smoothbump(0.2, 4.0, 0.7))
# the criterion-9 axial family on the benchmark's n = 10 grid
SWEEP_GS = GridSpec(L=6.0, n=10)
SWEEP_SPEC = axial(smoothbump(0.5, 9.0, 0.25))
SWEEP_TS = np.arange(0.0, 21.0, 2.0)
# the criterion-9 modulated family: its A is nonzero on every site
SWEEP_MODULATED = modulated(hopfbase(1.0), smoothbump(0.05, 0.5, 1.0))


def test_grid_spec_geometry_and_validation():
    gs = GridSpec(L=6.0, n=25)
    assert gs.h == pytest.approx(0.5)
    assert gs.dim == 2 * 25 ** 3
    assert gs.order == 4
    pts = axis_points(gs)
    assert pts[0] == -6.0 and pts[-1] == 6.0
    with pytest.raises(ValueError):
        GridSpec(L=6.0, n=4)
    with pytest.raises(ValueError):
        GridSpec(L=6.0, n=8, order=3)
    with pytest.raises(ValueError):
        GridSpec(L=6.0, n=8, coupling="plaquette")
    with pytest.raises(ValueError):
        GridSpec(L=-1.0, n=8)


def test_grid_points_site_order():
    gs = GridSpec(L=2.0, n=8)
    g = axis_points(gs)
    pts = grid_points(gs)
    ix, iy, iz = 3, 1, 6
    np.testing.assert_array_equal(pts[:, ix * 64 + iy * 8 + iz],
                                  [g[ix], g[iy], g[iz]])


@pytest.mark.parametrize("coupling", ["site", "link"])
@pytest.mark.parametrize("order", [2, 4])
def test_operator_is_exactly_hermitian(coupling, order):
    gs = GridSpec(L=2.0, n=8, order=order, coupling=coupling)
    M = assemble(gs, AXIAL).matrix
    assert (M - M.conjugate().T).nnz == 0


def _kron_assembly(gs, spec):
    """Reference M from Kronecker products: the 1-d difference matrix D1
    lifted to each axis (site coupling), or per-axis Peierls hop matrices
    H + H^dagger (link coupling), each kron'd with its Pauli matrix."""
    n = gs.n
    A = eval_potential(spec, grid_points(gs)) if spec is not None else None
    if gs.coupling == "site" or A is None:
        D1, I1 = _d1_matrix(n, gs.order, gs.h), sp.identity(n, format="csr")
        I2 = sp.identity(n * n, format="csr")
        Ds = (sp.kron(D1, I2, format="csr"),
              sp.kron(I1, sp.kron(D1, I1), format="csr"),
              sp.kron(I2, D1, format="csr"))
        M = sum(sp.kron(-1j * D, sig, format="csr")
                for D, sig in zip(Ds, PAULI))
        if A is None:
            return M
        return M - sum(sp.kron(sp.diags(A[k]), PAULI[k], format="csr")
                       for k in range(3))
    sites, M = np.arange(n ** 3), 0
    for k in range(3):
        stride, rows, cols, vals = n ** (2 - k), [], [], []
        for d, g in zip(*_stencil(gs.order, gs.h)):
            s = sites[(sites // stride) % n <= n - 1 - d]
            abar = 0.5 * (A[k][s] + A[k][s + d * stride])
            rows.append(s)
            cols.append(s + d * stride)
            vals.append(-1j * g * np.exp(-1j * d * gs.h * abar))
        H = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                           np.concatenate(cols))), shape=(n ** 3,) * 2).tocsr()
        M = M + sp.kron(H + H.conjugate().T, PAULI[k], format="csr")
    return M


@pytest.mark.parametrize("coupling,order,n", [
    ("site", 2, 8), ("site", 4, 8), ("site", 4, 9),
    ("link", 2, 8), ("link", 4, 8), ("link", 4, 9)])
def test_assembly_matches_kron_reference_bitwise(coupling, order, n):
    gs = GridSpec(L=2.0, n=n, order=order, coupling=coupling)
    specs = [None, AXIAL, SWEEP_MODULATED, lossyau(),
             gauged(hopfbase(1.0), "x1x2x3"), scaled(lossyau(), 0.0),
             scaled(AXIAL, 0.0), scaled(hopfbase(1.0), -0.7)]
    for spec in specs:
        op = assemble(gs, spec)
        assert op.potential is spec     # the spec itself, not a copy
        got, ref = op.matrix, _kron_assembly(gs, spec)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype, (spec, name)
            # bytes, so that +0.0 and -0.0 differ too
            assert a.tobytes() == b.tobytes(), (spec, name)


@pytest.mark.parametrize("coupling", ["site", "link"])
def test_scaling_sweep_matches_solves_of_assembled_operators(coupling):
    gs = GridSpec(L=6.0, n=10, coupling=coupling)
    ts = [0.0, 1.0, 3.0]    # t = 3 rounds t (a + b) / 2 unlike (t a + t b) / 2
    res = scaling_sweep(SWEEP_MODULATED, ts, gs)
    X0, sigmas, iterations, residuals = None, [], [], []
    for t in ts:
        sig, X0, its, eta = _sigma_min_block(
            assemble(gs, scaled(SWEEP_MODULATED, t)), 0, SOLVE_TOL, X0)
        sigmas.append(sig)
        iterations.append(its)
        residuals.append(eta)
    assert res.sigma_mins.tobytes() == np.asarray(sigmas).tobytes()
    assert res.iterations.tobytes() == np.asarray(iterations).tobytes()
    assert res.residuals.tobytes() == np.asarray(residuals).tobytes()


def test_free_sigma_min_matches_dense():
    for order in (2, 4):
        gs = GridSpec(L=2.0, n=8, order=order)
        op = assemble(gs)
        assert sigma_min(op) == pytest.approx(free_sigma_min(gs),
                                              abs=1.0e-12)


def test_odd_grid_has_no_free_floor():
    # odd n: the antisymmetric D1 is singular, so sigma_free = 0 would make
    # the criterion-9 gate sigma > sigma_free / 2 pass vacuously
    gs = GridSpec(L=6.0, n=9)
    with pytest.raises(FreeZeroMode) as exc:
        free_sigma_min(gs)
    assert exc.value.n == 9
    with pytest.raises(FreeZeroMode):     # dim 1458: the LOBPCG path
        sigma_min(assemble(gs, AXIAL))
    # the grid itself stays valid for residual checks
    r = zeromode_residual_on_grid(lossyau(), losyau_mode(),
                                  GridSpec(L=2.5, n=9), interior_margin=1.0)
    assert np.isfinite(r)


@pytest.mark.parametrize("order", [2, 4])
def test_free_inverse_matches_dense(order):
    gs = GridSpec(L=3.0, n=8, order=order)
    M = assemble(gs).matrix.toarray()
    ref_inv = np.linalg.inv(M @ M)
    rng = np.random.default_rng(1)
    B = rng.standard_normal((gs.dim, 3)) + 1j * rng.standard_normal((gs.dim, 3))
    ref = ref_inv @ B
    apply = _free_inverse(gs)
    np.testing.assert_allclose(apply(B), ref, atol=1.0e-12 * np.abs(ref).max())
    np.testing.assert_allclose(apply(B[:, 1]), ref[:, 1],
                               atol=1.0e-12 * np.abs(ref).max())


def test_planted_null_vector_has_zero_residual():
    # shift the free operator by an exact eigenvalue: sigma_min must hit 0
    gs = GridSpec(L=2.0, n=8)
    op = assemble(gs)
    M = op.matrix.toarray()
    w, V = np.linalg.eigh(M)
    i = np.argmin(np.abs(w))
    lam, v = w[i], V[:, i]
    assert np.linalg.norm(M @ v - lam * v) < 1.0e-12
    shifted = GridOperator(
        matrix=(op.matrix - lam * sp.identity(op.dim, format="csr")).tocsr(),
        grid=gs, potential=None)
    assert sigma_min(shifted) < 1.0e-12


def test_lobpcg_agrees_with_dense():
    gs = GridSpec(L=2.0, n=8)
    op = assemble(gs, AXIAL)
    ref = sigma_min(op)
    it = _sigma_min_lobpcg(op, 0, SOLVE_TOL, _MAXITER, None)[0]
    assert it == pytest.approx(ref, rel=1.0e-4)


def test_lobpcg_uncertified_raises():
    gs = GridSpec(L=6.0, n=12)
    op = assemble(gs)
    with pytest.raises(NoConvergence, match="after 1 iterations"):
        _sigma_min_lobpcg(op, 0, 1.0e-30, 1, None)


class _MatmulOnly:
    """A matrix that offers only shape, dtype, @ and toarray, and counts
    the vectors it multiplies (the access the benchmark's tracer wraps)."""

    __slots__ = ("_m", "shape", "dtype", "products")

    def __init__(self, m):
        self._m, self.shape, self.dtype = m, m.shape, m.dtype
        self.products = 0

    def __matmul__(self, x):
        self.products += 1 if x.ndim == 1 else x.shape[1]
        return self._m @ x

    def toarray(self):
        return self._m.toarray()


def test_lobpcg_needs_only_matmul():
    op = assemble(SWEEP_GS, scaled(SWEEP_SPEC, 10.0))
    wrapped = _MatmulOnly(op.matrix)
    got = sigma_min(GridOperator(matrix=wrapped, grid=op.grid,
                                 potential=op.potential))
    assert wrapped.products > 0
    assert got == pytest.approx(_sigma_min_dense(op), rel=1.0e-9)


@pytest.mark.parametrize("coupling", ["site", "link"])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("spec", [
    lossyau(), scaled(SWEEP_SPEC, 20.0), hopfbase(1.0),
    scaled(SWEEP_MODULATED, 20.0)])
def test_rotation_sectors_split_the_spectrum_exactly(spec, order, coupling):
    # the four 90-degree-rotation sectors of dim/4 together hold every
    # eigenvalue: a wrong phase would move levels even where the minimum
    # happens to agree
    op = assemble(GridSpec(L=6.0, n=8, order=order, coupling=coupling), spec)
    D = op.matrix.toarray()
    ref = np.linalg.eigvalsh(D)
    blocks = _rotation_sectors(D, 8)
    assert [B.shape for B in blocks] == [(op.dim // 4,) * 2] * 4
    got = np.sort(np.concatenate([np.linalg.eigvalsh(B) for B in blocks]))
    np.testing.assert_allclose(got, ref, rtol=0.0,
                               atol=1.0e-12 * np.abs(ref).max())
    assert _sigma_min_dense(op) == pytest.approx(np.abs(ref).min(),
                                                 rel=1.0e-12)


@pytest.mark.parametrize("gs,spec", [
    (GridSpec(L=6.0, n=8), gauged(axial(gaussian(0.5, 1.0)), "x1x2x3")),
    (GridSpec(L=6.0, n=9), lossyau())])
def test_dense_path_without_rotation_symmetry_is_the_full_solve(gs, spec):
    # a nonlinear gauge breaks the rotation far above roundoff, and odd n
    # has fixed sites on the axis: both diagonalize the whole matrix
    op = assemble(gs, spec)
    D = op.matrix.toarray()
    assert len(_rotation_sectors(D, gs.n)) == 1
    ref = float(np.abs(np.linalg.eigvalsh(D)).min())
    assert _sigma_min_dense(op) == ref


def test_dense_path_needs_only_toarray():
    # no products, so the benchmark's matvec count stays LOBPCG's alone
    op = assemble(GridSpec(L=6.0, n=8), lossyau())
    wrapped = _MatmulOnly(op.matrix)
    got = sigma_min(GridOperator(matrix=wrapped, grid=op.grid,
                                 potential=op.potential))
    assert wrapped.products == 0
    assert got == _sigma_min_dense(op)


def test_lobpcg_unreachable_tol_keeps_best_iterate():
    # residuals stall near rounding level long before tol = 1e-15; the
    # iterates after that drift, so the solver returns its best one
    op = assemble(GridSpec(L=6.0, n=10), lossyau())
    ref = _sigma_min_dense(op)
    got = _sigma_min_lobpcg(op, 0, 1.0e-15, 300, None)[0]
    assert got == pytest.approx(ref, rel=1.0e-9)


@pytest.mark.parametrize("n,spec", [
    (10, lossyau()),
    (12, lossyau()),
    (10, scaled(SWEEP_SPEC, 20.0)),
])
def test_cold_lobpcg_matches_dense(n, spec):
    # dims 2000 and 3456: above the dense cut-over, still cheap to check
    op = assemble(GridSpec(L=6.0, n=n), spec)
    ref = float(np.abs(np.linalg.eigvalsh(op.matrix.toarray())).min())
    assert sigma_min(op) == pytest.approx(ref, rel=1.0e-9)


def test_link_coupling_gauge_covariance():
    # linear gauge functions are lattice-exact: conjugation by the site
    # phases must reproduce the shifted-potential matrix to rounding
    gauge = "linear:0.4,-0.3,0.9"
    gs = GridSpec(L=2.0, n=8, coupling="link")
    base = hopfbase(1.0)
    M0 = assemble(gs, base).matrix
    M1 = assemble(gs, gauged(base, gauge)).matrix
    g, _ = gauge_pair(gauge, grid_points(gs))
    U = sp.diags(np.exp(1j * np.repeat(np.asarray(g), 2)))
    diff = (U @ M0 @ U.conjugate().T - M1).toarray()
    assert np.abs(diff).max() < 1.0e-12


def test_free_squared_spectrum_bound_order2():
    gs = GridSpec(L=2.0, n=8, order=2)
    w = np.linalg.eigvalsh(assemble(gs).matrix.toarray())
    assert (w ** 2).max() <= 12.0 / gs.h ** 2 * (1.0 + 1.0e-9)


def test_fourth_order_stencil_beats_second():
    n, L, k = 40, 3.0, 1.3
    x = np.linspace(-L, L, n)
    h = x[1] - x[0]
    f, df = np.sin(k * x), k * np.cos(k * x)
    errs = {}
    for order in (2, 4):
        got = _d1_matrix(n, order, h) @ f
        errs[order] = np.abs(got - df)[4:-4].max()   # interior rows only
    assert errs[4] < 0.01 * errs[2]


def test_losyau_grid_residual_small_on_matched_potential():
    gs = GridSpec(L=2.5, n=16)
    r = zeromode_residual_on_grid(lossyau(), losyau_mode(), gs,
                                  interior_margin=1.0)
    assert 1.0e-4 < r < 0.1


def test_losyau_mode_is_not_a_zero_mode_of_axial_potential():
    gs = GridSpec(L=2.5, n=16)
    r = zeromode_residual_on_grid(AXIAL, losyau_mode(), gs,
                                  interior_margin=1.0)
    assert r > 0.3


def test_grid_size_guard():
    gs = GridSpec(L=2.0, n=67)      # dim 601,526 > MAX_DIM
    with pytest.raises(GridTooLarge):
        assemble(gs)
    with pytest.raises(GridTooLarge):
        scaling_sweep(AXIAL, [0.0], gs)


def test_scaling_sweep_dense_path():
    gs = GridSpec(L=2.0, n=8)
    res = scaling_sweep(AXIAL, [0.0, 1.0], gs)
    assert res.sigma_mins.shape == (2,)
    assert res.sigma_mins[0] == pytest.approx(free_sigma_min(gs),
                                              abs=1.0e-12)
    np.testing.assert_array_equal(res.ts, [0.0, 1.0])
    np.testing.assert_array_equal(res.iterations, [0, 0])
    np.testing.assert_array_equal(res.residuals, [0.0, 0.0])


@pytest.fixture(scope="module")
def warm_sweep():
    return scaling_sweep(SWEEP_SPEC, SWEEP_TS, SWEEP_GS)


def test_scaling_sweep_reports_solver_work(warm_sweep):
    res = warm_sweep
    assert res.iterations.shape == res.residuals.shape == SWEEP_TS.shape
    assert (res.iterations > 0).all()
    # every t is certified: eta within the bound of _sigma_min_lobpcg
    assert (res.residuals <= 0.05 * res.sigma_mins ** 2).all()
    # each solve stops once the lowest pair has converged; waiting for all
    # six block vectors took 306 iterations over this sweep
    assert res.iterations.sum() < 230


@pytest.mark.xfail(strict=True, reason=(
    "known fault: the smallest level crosses in from outside the warm "
    "block, so at t = 20 the sweep is ~3.3e-3 relative above the minimum"))
def test_warm_sweep_matches_cold_solves(warm_sweep):
    # the cold solve at t = 20 is checked against a dense eigensolve above
    cold = [sigma_min(assemble(SWEEP_GS, scaled(SWEEP_SPEC, float(t))))
            for t in SWEEP_TS]
    np.testing.assert_allclose(warm_sweep.sigma_mins, cold, rtol=1.0e-9)
