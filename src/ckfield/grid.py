"""Finite-difference discretization of sigma.(-i grad - A) on a box.

Site-major, spin-minor ordering: unknown index = 2 * site + spin with
site = ix * n^2 + iy * n + iz on [-L, L]^3, Dirichlet boundary (stencils
truncated at the walls).  Two couplings to the potential:

  site: M = sum_k (-i D_k) kron sigma_k - sum_k diag(A_k) kron sigma_k,
        with D_k the antisymmetric central difference along axis k.  The
        multiplication term is evaluated at sites, which is the symmetric
        average of forward/backward application; M is exactly Hermitian.

  link: Peierls phases.  The hop s -> s + d e_k carries
        -i gamma_d exp(-i d h Abar_k) with Abar_k the endpoint average of
        A_k; the reverse hop is the conjugate, so M is Hermitian bitwise,
        and a linear gauge change A -> A + grad g conjugates M by the
        diagonal unitary exp(i g) up to the stencil's truncation error
        (exactly, for g linear).

The smallest singular value is computed from M^2 by an in-library block
LOBPCG (Knyazev, SIAM J. Sci. Comput. 23(2), 2001) with a seeded or
warm-started block of 6 vectors, preconditioned by the exact inverse
(M0^2)^-1 of the free (A = 0) operator squared.  M0^2 is a Kronecker sum
of the 1-d matrix D1^T D1 over the three axes (times the 2x2 identity), so
its inverse is applied in the real eigenbasis of that n x n matrix: three
axis-wise matrix products, one diagonal scale, three more products.  Odd n
gives D1 a zero eigenvalue, so the free floor and the preconditioner raise
FreeZeroMode there.

A solve stops as soon as the lowest two Ritz vectors have residual norm
<= tol; the upper block vectors only speed the iteration up and are not
converged.  Two, because M of the axial and modulated families has
+-sigma pairs, so the lowest level of M^2 is double.  The solver touches
M only through its shape and M @ B.  The Ritz residual of the
unpreconditioned M^2, recomputed explicitly, certifies the result or
NoConvergence is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, solve_triangular

from .errors import FreeZeroMode, GridTooLarge, NoConvergence
from .potentials import PotentialSpec, eval_potential, spec_to_dict
from .spinors import PAULI, SpinorField, eval_spinor

__all__ = ["GridSpec", "GridOperator", "SweepResult", "grid_points",
           "assemble", "free_sigma_min", "sigma_min", "scaling_sweep",
           "zeromode_residual_on_grid", "MAX_DIM", "SOLVE_TOL"]

MAX_DIM = 600_000

# M of the axial and modulated families has +-sigma pairs, so the lowest
# level of M^2 is double: a solve stops once both its columns converge
_PAIR = 2

# LOBPCG block width; the columns above _PAIR only speed the iteration up
_BLOCK = 6

# residual norm at which a Ritz column of M^2 counts as converged
SOLVE_TOL = 1.0e-7


@dataclass(frozen=True)
class GridSpec:
    L: float
    n: int
    order: int = 4
    coupling: str = "site"

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("need n >= 8")
        if self.order not in (2, 4):
            raise ValueError("stencil order must be 2 or 4")
        if self.coupling not in ("site", "link"):
            raise ValueError("coupling must be 'site' or 'link'")
        if not self.L > 0:
            raise ValueError("need L > 0")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.n - 1)

    @property
    def dim(self) -> int:
        return 2 * self.n ** 3


@dataclass(frozen=True)
class GridOperator:
    matrix: sp.csr_matrix
    grid: GridSpec
    potential: Optional[dict]     # serialized spec, for provenance

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SweepResult:
    ts: np.ndarray
    sigma_mins: np.ndarray
    grid: GridSpec
    potential: Optional[dict]
    iterations: np.ndarray    # in-library LOBPCG iterations per t; 0 if dense
    residuals: np.ndarray     # certified Ritz residual eta per t; 0 if dense


def _stencil(order: int, h: float):
    # (offsets d, weights gamma_d) of the antisymmetric derivative: the
    # +d hop carries +gamma_d, the -d hop -gamma_d
    if order == 2:
        return (1,), (1.0 / (2.0 * h),)
    return (1, 2), (8.0 / (12.0 * h), -1.0 / (12.0 * h))


def _d1_matrix(n: int, order: int, h: float) -> sp.csr_matrix:
    offs, gams = _stencil(order, h)
    D = sp.lil_matrix((n, n))
    for d, g in zip(offs, gams):
        D.setdiag(np.full(n - d, g), d)
        D.setdiag(np.full(n - d, -g), -d)
    return D.tocsr()


def axis_points(gs: GridSpec) -> np.ndarray:
    return np.linspace(-gs.L, gs.L, gs.n)


def grid_points(gs: GridSpec) -> np.ndarray:
    """Coordinates of all sites, shape (3, n^3), in site-index order."""
    g = axis_points(gs)
    X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
    return np.stack([X.ravel(), Y.ravel(), Z.ravel()])


def _check_size(gs: GridSpec, max_dim: int):
    if gs.dim > max_dim:
        raise GridTooLarge(f"operator dimension {gs.dim} exceeds {max_dim}")


def _site_space_matrices(gs: GridSpec):
    n = gs.n
    D1 = _d1_matrix(n, gs.order, gs.h)
    I1 = sp.identity(n, format="csr")
    I2 = sp.identity(n * n, format="csr")
    return (sp.kron(D1, I2, format="csr"),
            sp.kron(I1, sp.kron(D1, I1), format="csr"),
            sp.kron(I2, D1, format="csr"))


def _link_space_matrix(gs: GridSpec, Ak: np.ndarray, axis: int) -> sp.csr_matrix:
    """Hops of one axis with Peierls phases; returns H + H^dagger."""
    n = gs.n
    stride = (n * n, n, 1)[axis]
    offs, gams = _stencil(gs.order, gs.h)
    sites = np.arange(n ** 3)
    idx_along = (sites // stride) % n
    rows = []
    cols = []
    vals = []
    for d, g in zip(offs, gams):
        ok = idx_along <= n - 1 - d
        s = sites[ok]
        s2 = s + d * stride
        abar = 0.5 * (Ak[s] + Ak[s2])
        rows.append(s)
        cols.append(s2)
        vals.append(-1j * g * np.exp(-1j * d * gs.h * abar))
    H = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n ** 3, n ** 3)).tocsr()
    return H + H.conjugate().T


def assemble(gs: GridSpec, spec: Optional[PotentialSpec] = None,
             max_dim: int = MAX_DIM) -> GridOperator:
    """Sparse M approximating sigma.(-i grad - A) with Dirichlet walls."""
    _check_size(gs, max_dim)
    pts = grid_points(gs)
    A = eval_potential(spec, pts) if spec is not None else None

    if gs.coupling == "site" or spec is None:
        Dx, Dy, Dz = _site_space_matrices(gs)
        M = sum(sp.kron(-1j * Dk, sig, format="csr")
                for Dk, sig in zip((Dx, Dy, Dz), PAULI))
        if A is not None:
            M = M - sum(sp.kron(sp.diags(A[k]), PAULI[k], format="csr")
                        for k in range(3))
    else:
        M = sum(sp.kron(_link_space_matrix(gs, A[k], k), PAULI[k],
                        format="csr") for k in range(3))

    tag = spec_to_dict(spec) if spec is not None else None
    return GridOperator(matrix=M.tocsr(), grid=gs, potential=tag)


def _free_spectrum(gs: GridSpec):
    """(lam, V) with D1^T D1 = V diag(lam) V^T, lam ascending.

    M0^2 = sum_k (D1^T D1)_k kron I_2 because the Pauli cross terms cancel
    against commuting D_k, so its spectrum is {lam_i + lam_j + lam_k} with
    eigenvectors V kron V kron V.  For odd n the antisymmetric D1 is
    singular (lam_0 = 0), so FreeZeroMode is raised.
    """
    if gs.n % 2:
        raise FreeZeroMode(gs.n)
    D1 = _d1_matrix(gs.n, gs.order, gs.h).toarray()
    return np.linalg.eigh(D1.T @ D1)


def free_sigma_min(gs: GridSpec) -> float:
    """sigma_min of the A = 0 operator: sqrt(3 lam_min(D1^T D1))."""
    lam, _ = _free_spectrum(gs)
    return float(np.sqrt(3.0 * lam[0]))


def _free_inverse(gs: GridSpec):
    """B -> (M0^2)^-1 B in the eigenbasis of D1^T D1, in real arithmetic.

    A complex (dim, k) block viewed as real is an (n, n, n, 4k) array (the
    spin and the real/imaginary parts ride along in the last axis), so each
    axis transform is one batched matmul.
    """
    lam, V = _free_spectrum(gs)
    n = gs.n
    scale = 1.0 / (lam[:, None, None, None] + lam[None, :, None, None]
                   + lam[None, None, :, None])

    def axes(X, W):
        m = X.shape[-1]
        X = (W @ X.reshape(n, -1)).reshape(n, n, n * m)
        X = np.matmul(W, X)
        return np.matmul(W, X.reshape(n * n, n, m)).reshape(n, n, n, m)

    def apply(B):
        X = np.ascontiguousarray(B, dtype=complex)
        Y = axes(X.view(np.float64).reshape(n, n, n, -1), V.T)
        Y *= scale
        return axes(Y, V).reshape(-1).view(complex).reshape(B.shape)

    return apply


def _cholesky_qr(G: np.ndarray) -> np.ndarray:
    """R^-1 for a Gram matrix G = V^H V = R^H R, so that V R^-1 is
    orthonormal; raises LinAlgError if G is not positive definite."""
    L = np.linalg.cholesky(G)
    return solve_triangular(L, np.eye(len(G)), lower=True).conj().T


def _rayleigh_ritz(S, AS, k: int):
    """Lowest k Ritz pairs of M^2 on the span of the blocks S = [X, W] or
    [X, W, P], given AS = M^2 S; X is orthonormal.

    W and P are orthonormalized by Cholesky QR of their Gram blocks.  The
    factor enters only the small projected matrices, so no tall block is
    rescaled.  P is left out when its Gram block, or the Gram matrix of
    [X, W, P], is not positive definite.  Returns (theta, X, AX, P, AP),
    or None if [X, W] fails as well.
    """
    k_w = k + S[1].shape[1]
    S, AS = np.hstack(S), np.hstack(AS)
    SH = S.conj().T
    gA, gB = SH @ AS, SH @ S
    T = np.eye(S.shape[1], dtype=complex)
    try:
        T[k:k_w, k:k_w] = _cholesky_qr(gB[k:k_w, k:k_w])
    except np.linalg.LinAlgError:
        return None
    widths = [k_w]
    if S.shape[1] > k_w:
        try:
            T[k_w:, k_w:] = _cholesky_qr(gB[k_w:, k_w:])
            widths.insert(0, S.shape[1])
        except np.linalg.LinAlgError:
            pass
    for m in widths:                    # with P first, then without
        Tm = T[:, :m]
        a, b = Tm.conj().T @ gA @ Tm, Tm.conj().T @ gB @ Tm
        try:
            theta, C = eigh((a + a.conj().T) / 2, (b + b.conj().T) / 2,
                            subset_by_index=[0, k - 1])
        except np.linalg.LinAlgError:
            continue
        C = Tm @ C
        CP = C.copy()
        CP[:k] = 0.0                    # P: the new X without the old X
        C = np.hstack([C, CP])
        XP, AXP = S @ C, AS @ C
        return theta, XP[:, :k], AXP[:, :k], XP[:, k:], AXP[:, k:]
    return None


def _lobpcg(M, X: np.ndarray, precondition, tol: float, maxiter: int):
    """Lowest Ritz pairs of M^2 by block LOBPCG (Knyazev 2001).

    Returns (theta, X, iterations) with theta ascending and X orthonormal.
    The iteration stops once the lowest _PAIR columns have residual
    norm <= tol.  Columns already below tol get no search direction (soft
    locking).  W is projected off X before the Rayleigh-Ritz step.  The
    block returned is the iterate whose lowest pair had the smallest
    residual: below a tol that rounding cannot reach, the recurrences for
    M^2 X and M^2 P drift and later iterates lose accuracy.
    """
    def A(B):
        return M @ (M @ B)

    k = X.shape[1]
    X = X @ _cholesky_qr(X.conj().T @ X)
    AX = A(X)
    theta, C = eigh(X.conj().T @ AX)
    X, AX = X @ C, AX @ C
    P = AP = None
    best = (np.inf, theta, X)
    iterations = 0
    while True:
        R = AX - X * theta
        norms = np.linalg.norm(R, axis=0)
        if norms[:_PAIR].max() < best[0]:
            best = (norms[:_PAIR].max(), theta, X)
        active = norms > tol
        if not active[:_PAIR].any() or iterations == maxiter:
            break
        iterations += 1
        W = precondition(R[:, active])
        W -= X @ (X.conj().T @ W)
        S, AS = [X, W], [AX, A(W)]
        if P is not None:
            S.append(P[:, active])
            AS.append(AP[:, active])
        step = _rayleigh_ritz(S, AS, k)
        if step is None:
            break               # the residuals left lie in span(X)
        theta, X, AX, P, AP = step
    _, theta, X = best
    return theta, X, iterations


def _sigma_min_block(op: GridOperator, rng_seed: int = 0,
                     tol: float = SOLVE_TOL, maxiter: int = 5000,
                     method: str = "auto", X0: Optional[np.ndarray] = None):
    """(sigma_min, Ritz block, iterations, eta); sweeps warm-start from the
    block.  The dense path returns (sigma_min, None, 0, 0.0)."""
    M = op.matrix
    dim = M.shape[0]
    if method == "dense" or (method == "auto" and dim <= 1200):
        w = np.linalg.eigvalsh(M.toarray())
        return float(np.abs(w).min()), None, 0, 0.0

    free_inv = _free_inverse(op.grid)
    if X0 is None or X0.shape != (dim, _BLOCK):
        rng = np.random.default_rng(rng_seed)
        X0 = (rng.standard_normal((dim, _BLOCK))
              + 1j * rng.standard_normal((dim, _BLOCK)))
    vals, vecs, iterations = _lobpcg(M, X0, free_inv, tol, maxiter)
    lam = float(vals[0])
    v = vecs[:, 0]
    v = v / np.linalg.norm(v)
    r = M @ (M @ v) - lam * v
    eta = float(np.linalg.norm(r))
    lam = max(lam, 0.0)
    # Hermitian perturbation bound: some eigenvalue of M^2 lies within eta
    if eta > 0.05 * max(lam, 1.0e-12):
        raise NoConvergence(
            f"LOBPCG residual {eta:.3e} does not certify the Ritz value "
            f"{lam:.6e}; increase maxiter or lower tol")
    return float(np.sqrt(lam)), vecs, iterations, eta


def sigma_min(op: GridOperator, rng_seed: int = 0, tol: float = SOLVE_TOL,
              maxiter: int = 5000, method: str = "auto") -> float:
    """Smallest singular value of M, certified by the M^2 Ritz residual."""
    return _sigma_min_block(op, rng_seed=rng_seed, tol=tol, maxiter=maxiter,
                            method=method)[0]


def scaling_sweep(spec: PotentialSpec, ts, gs: GridSpec,
                  rng_seed: int = 0, **kw) -> SweepResult:
    """sigma_min(M[t A]) over the scaling values t.

    Consecutive solves reuse the previous Ritz block as the LOBPCG seed;
    for a slowly varying family this cuts the iteration count by an order
    of magnitude without touching the certification in _sigma_min_block.

    Known fault: the warm block only follows the levels it holds.  When
    the smallest level crosses in from outside the block, the sweep
    returns a certified but non-minimal Ritz value.  For
    axial(smoothbump(0.5, 9.0, 0.25)) on GridSpec(6.0, 10), swept over
    t = 0, 2, ..., 20, the value at t = 20 is about 3.3e-3 relative above
    the dense minimum 0.11838; a cold solve there is exact.
    """
    from .potentials import scaled
    ts = np.asarray(ts, dtype=float)
    sigmas, iterations, residuals = [], [], []
    X0 = None
    for t in ts:
        op = assemble(gs, scaled(spec, float(t)) if t != 1.0 else spec)
        sig, X0, its, eta = _sigma_min_block(op, rng_seed=rng_seed, X0=X0,
                                             **kw)
        sigmas.append(sig)
        iterations.append(its)
        residuals.append(eta)
    return SweepResult(ts=ts, sigma_mins=np.asarray(sigmas), grid=gs,
                       potential=spec_to_dict(spec),
                       iterations=np.asarray(iterations),
                       residuals=np.asarray(residuals))


def zeromode_residual_on_grid(spec: PotentialSpec, mode: SpinorField,
                              gs: GridSpec,
                              interior_margin: float = 1.75) -> float:
    """|M psi| / |psi| over interior sites, for a claimed zero mode psi.

    The margin discards the layer where truncated stencils see the
    Dirichlet wall; the residual then measures pure discretization error
    and should shrink at the stencil's order as h -> 0.
    """
    op = assemble(gs, spec)
    pts = grid_points(gs)
    comps = eval_spinor(mode, [pts[0], pts[1], pts[2]])
    psi = np.empty(op.dim, dtype=complex)
    psi[0::2] = np.asarray(comps[0], dtype=complex)
    psi[1::2] = np.asarray(comps[1], dtype=complex)
    r = op.matrix @ psi

    inner = (np.abs(pts) <= gs.L - interior_margin).all(axis=0)
    mask = np.repeat(inner, 2)
    num = float(np.linalg.norm(r[mask]))
    den = float(np.linalg.norm(psi[mask]))
    return num / den
