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

Both couplings are assembled from one table of stencil hops, without
Kronecker products: each hop s -> s + d e_k that stays inside the box
writes its 2x2 block v sigma_k and the reverse hop conj(v) sigma_k, with
v = -i gamma_d (site) or the Peierls value (link); site coupling adds the
on-site block -A.sigma.  Each row's entries are laid out in ascending
column order, so the CSR arrays are filled directly and only exact zeros
are dropped.  scaling_sweep evaluates the grid points and the potential
once and scales it by t for each operator.

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

The solver is chosen by dimension alone (_sigma_min_block).  Up to
_DENSE_DIM the dense path runs and proves minimality: it takes the
smallest |eigenvalue| of M.toarray(), split for even n into the four
sectors of the 90 degree rotation about x3 where the matrix has that
symmetry to rounding (_rotation_sectors), and multiplies no vectors.
Above it LOBPCG runs, and no dim x dim array is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, solve_triangular

from .errors import FreeZeroMode, GridTooLarge, NoConvergence
from .potentials import PotentialSpec, eval_potential
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

# sigma_min diagonalizes M up to this dimension and runs LOBPCG above it
_DENSE_DIM = 1200
_MAXITER = 5000             # LOBPCG iteration cap


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
    potential: Optional[PotentialSpec]     # the spec assembled, if any

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SweepResult:
    ts: np.ndarray
    sigma_mins: np.ndarray
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
    return sp.diags(list(gams) + [-g for g in gams],
                    list(offs) + [-d for d in offs], shape=(n, n),
                    format="csr")


def axis_points(gs: GridSpec) -> np.ndarray:
    return np.linspace(-gs.L, gs.L, gs.n)


def grid_points(gs: GridSpec) -> np.ndarray:
    """Coordinates of all sites, shape (3, n^3), in site-index order."""
    g = axis_points(gs)
    X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
    return np.stack([X.ravel(), Y.ravel(), Z.ravel()])


# spin b that row spin a of a site reaches through sigma_k, per axis k:
# sigma_x and sigma_y flip the spin, sigma_z keeps it
_SPIN_TO = ((1, 0), (1, 0), (0, 1))


def _operator_matrix(gs: GridSpec, A: Optional[np.ndarray]) -> sp.csr_matrix:
    """M in CSR from the stencil's hops and the potential values A (3, n^3).

    The hop s -> s2 = s + d e_k carries v sigma_k[a, b] at (2 s + a, 2 s2 + b)
    and the reverse hop conj(v) sigma_k[a, b] at (2 s2 + a, 2 s + b), with
    v = -i gamma_d (site coupling, or A is None) or the Peierls value
    -i gamma_d exp(-i d h Abar_k) (link coupling).  Site coupling adds the
    on-site block -A.sigma.

    Every row gets one slot per hop (and two on-site slots), in ascending
    column order: backward hops, on-site, forward hops.  A slot whose hop
    leaves the box, or whose on-site entry vanishes, holds 0 and is
    dropped by eliminate_zeros, which compacts the arrays in place (the
    CSR arrays keep the padded buffers, at most a few slots per row
    larger); no hop value is 0.  Every zero real or imaginary part that
    is kept is +0.0, as sparse additions leave it.
    """
    n = gs.n
    # the hop table: (k, d, gamma_d) in descending order of the site
    # offset d n^(2 - k)
    offs, gams = _stencil(gs.order, gs.h)
    hops = [(k, d, g) for k in range(3)
            for d, g in sorted(zip(offs, gams), reverse=True)]
    onsite = A is not None and gs.coupling == "site"
    link = A is not None and not onsite
    m = len(hops)
    width = 2 * m + 2 * onsite
    rows = 2 * n ** 3
    # column of slot j in spin row a, relative to 2 s; int32 indices hold
    # rows * width <= MAX_DIM * 14 slots
    cols = np.empty((2, width), dtype=np.int32)
    for i, (k, d, _) in enumerate(hops):
        for a in (0, 1):
            b = _SPIN_TO[k][a]
            cols[a, i] = -2 * d * n ** (2 - k) + b
            cols[a, width - 1 - i] = 2 * d * n ** (2 - k) + b
    if onsite:
        cols[:, m:m + 2] = (0, 1)
    two_s = np.arange(0, rows, 2, dtype=np.int32)
    indices = two_s.reshape(n, n, n, 1, 1) + cols
    data = np.zeros((n, n, n, 2, width), dtype=complex)
    if A is not None:
        A = A.reshape(3, n, n, n)
    for i, (k, d, g) in enumerate(hops):
        src, dst = [slice(None)] * 3, [slice(None)] * 3
        src[k], dst[k] = slice(0, n - d), slice(d, n)
        src, dst = tuple(src), tuple(dst)
        if link:
            abar = 0.5 * (A[k][src] + A[k][dst])
            v = -1j * g * np.exp(-1j * d * gs.h * abar)
        else:
            v = -1j * g
        sig = [PAULI[k][a, _SPIN_TO[k][a]] for a in (0, 1)]
        spins = slice(None)
        data[src + (spins, width - 1 - i)] = np.multiply.outer(v, sig) + 0.0
        data[dst + (spins, i)] = np.multiply.outer(np.conj(v), sig) + 0.0
    if onsite:
        # row 2 s holds (-A_z, -A_x + i A_y), row 2 s + 1 (-A_x - i A_y, A_z)
        data[..., 0, m] = -A[2]
        data[..., 0, m + 1].real = 0.0 - A[0]
        data[..., 0, m + 1].imag = A[1] + 0.0
        data[..., 1, m].real = 0.0 - A[0]
        data[..., 1, m].imag = 0.0 - A[1]
        data[..., 1, m + 1] = A[2]
    indptr = np.arange(0, rows * width + 1, width, dtype=np.int32)
    M = sp.csr_matrix((data.reshape(-1), indices.reshape(-1), indptr),
                      shape=(rows, rows))
    M.eliminate_zeros()
    return M


def _on_sites(gs: GridSpec, spec: Optional[PotentialSpec]):
    """(A on the sites, None without a potential, and grid_points(gs));
    raises GridTooLarge above MAX_DIM before anything is allocated."""
    if gs.dim > MAX_DIM:
        raise GridTooLarge(f"operator dimension {gs.dim} exceeds {MAX_DIM}")
    pts = grid_points(gs)
    return (eval_potential(spec, pts) if spec is not None else None), pts


def assemble(gs: GridSpec,
             spec: Optional[PotentialSpec] = None) -> GridOperator:
    """Sparse M approximating sigma.(-i grad - A) with Dirichlet walls;
    raises GridTooLarge above MAX_DIM."""
    A, _ = _on_sites(gs, spec)
    return GridOperator(matrix=_operator_matrix(gs, A), grid=gs, potential=spec)


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


def _rotation_sectors(D: np.ndarray, n: int) -> list:
    """Hermitian blocks whose spectra together are the spectrum of D, up
    to 1.5 delta (see below); [D] itself where that is not at roundoff.

    U is the 90 degree rotation about x3: site (ix, iy, iz) goes to
    (n-1-iy, ix, iz), i.e. (x, y, z) -> (-y, x, z), and the spin by
    exp(-i pi sigma3 / 4).  U^4 = -I, so its eigenvalues are
    z_q = exp(i pi (2q + 1) / 4), q = 0..3.  For even n every site orbit
    has four members and the quadrant ix, iy < n/2 holds one of each, so
    E (its unknowns) and U E, U^2 E, U^3 E split the unknowns into four
    blocks; B_ab = (U^a E)^H D (U^b E) are index gathers on D.  Sector q
    is S_q = 1/4 sum_ab z_q^(a-b) B_ab, the block on the z_q-eigenspace
    of the average P(D) = 1/4 sum_m U^m D U^-m.

    With delta = ||U D U^H - D||_F (from B_{a+1,b+1} - B_ab, U^4 = -I at
    the wrap), ||D - P(D)||_2 <= (0+1+2+3)/4 delta = 1.5 delta, so by Weyl
    every eigenvalue of P(D) is within 1.5 delta of one of D.  The sectors
    are returned only if 1.5 delta <= dim eps ||D||_F, the backward-error
    scale of the full eigensolve.  Odd n leaves fixed sites on the x3
    axis and returns [D].  No dim x dim array besides D is built.
    """
    if n % 2:
        return [D]
    h = n // 2
    ix, iy, iz = np.meshgrid(np.arange(h), np.arange(h), np.arange(n),
                             indexing="ij")
    spin_phase = np.exp(-0.25j * np.pi * np.array([1.0, -1.0]))
    # unknowns of U^b E and the phases U^b puts on them
    idx, phase = [], []
    for b in range(4):
        s = ((ix * n + iy) * n + iz).reshape(-1, 1)
        idx.append((2 * s + (0, 1)).ravel())
        phase.append(np.tile(spin_phase ** b, len(s)))
        ix, iy = n - 1 - iy, ix
    z = np.exp(0.25j * np.pi * (2 * np.arange(4) + 1))
    m = len(idx[0])
    S = np.zeros((4, m, m), dtype=complex)
    delta2 = 0.0
    for d in range(4):
        # the diagonal b = a + d mod 4: z_q^(a-b) = z_q^-d until b wraps,
        # then z_q^(4-d) = -z_q^-d
        B = []
        for a in range(4):
            b = (a + d) % 4
            Bab = D[np.ix_(idx[a], idx[b])]
            Bab *= phase[a].conj()[:, None]
            Bab *= phase[b]
            B.append(Bab)
        T = np.zeros_like(B[0])
        for a, Bab in enumerate(B):
            b = (a + d) % 4
            T += Bab if b >= a else -Bab
            # B_{a+1,b+1}, with U^4 = -I where a + 1 or b + 1 wraps
            diff = (-1) ** ((a == 3) + (b == 3)) * B[(a + 1) % 4] - Bab
            delta2 += np.vdot(diff, diff).real
        for q in range(4):
            S[q] += (0.25 * z[q] ** -d) * T
    norm = np.sqrt(np.vdot(D, D).real)
    if 1.5 * np.sqrt(delta2) <= len(D) * np.finfo(float).eps * norm:
        return list(S)
    return [D]


def _sigma_min_dense(op: GridOperator) -> float:
    """The smallest |eigenvalue| of M.toarray(), sector by sector."""
    blocks = _rotation_sectors(op.matrix.toarray(), op.grid.n)
    return float(min(np.abs(np.linalg.eigvalsh(B)).min() for B in blocks))


def _sigma_min_lobpcg(op: GridOperator, rng_seed: int, tol: float,
                      maxiter: int, X0: Optional[np.ndarray]):
    """(sigma, Ritz block, iterations, eta) from LOBPCG on M^2, started
    from X0 or, if None, from a block seeded by rng_seed."""
    M = op.matrix
    dim = M.shape[0]
    free_inv = _free_inverse(op.grid)
    if X0 is None:
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
    bound = 0.05 * max(lam, 1.0e-12)
    if eta > bound:
        raise NoConvergence(f"LOBPCG residual {eta:.3e} > bound {bound:.3e} "
                            f"on {lam:.6e} after {iterations} iterations")
    return float(np.sqrt(lam)), vecs, iterations, eta


def _sigma_min_block(op: GridOperator, rng_seed: int, tol: float,
                     X0: Optional[np.ndarray]):
    """(sigma_min, Ritz block or None, iterations, eta) by dimension."""
    if op.dim <= _DENSE_DIM:
        return _sigma_min_dense(op), None, 0, 0.0
    return _sigma_min_lobpcg(op, rng_seed, tol, _MAXITER, X0)


def sigma_min(op: GridOperator, rng_seed: int = 0,
              tol: float = SOLVE_TOL) -> float:
    """sigma_min of M by the solver its dimension picks (module docstring).

    Up to _DENSE_DIM the value is proven to be the minimum.  Above it the
    explicit M^2 Ritz residual certifies only that it is *a* singular
    value of M, and a warm sweep can return a higher level (scaling_sweep).
    A tol below rounding (about 1e-13) runs LOBPCG to _MAXITER iterations;
    its best iterate is returned, still certified.
    """
    return _sigma_min_block(op, rng_seed, tol, None)[0]


def scaling_sweep(spec: PotentialSpec, ts, gs: GridSpec,
                  rng_seed: int = 0, tol: float = SOLVE_TOL) -> SweepResult:
    """sigma_min(M[t A]) over the scaling values t.

    Consecutive solves reuse the previous Ritz block as the LOBPCG seed;
    for a slowly varying family this cuts the iteration count by an order
    of magnitude without touching the certification in _sigma_min_lobpcg.

    Known fault: the warm block only follows the levels it holds.  When
    the smallest level crosses in from outside the block, the sweep
    returns a certified but non-minimal Ritz value.  For
    axial(smoothbump(0.5, 9.0, 0.25)) on GridSpec(6.0, 10), swept over
    t = 0, 2, ..., 20, the value at t = 20 is about 3.3e-3 relative above
    the dense minimum 0.11838; a cold solve there is exact.
    """
    ts = np.asarray(ts, dtype=float)
    # t A_1 is bitwise eval_potential(scaled(spec, t)): scaling multiplies
    # each component by t
    A1, _ = _on_sites(gs, spec)
    sigmas, iterations, residuals = [], [], []
    X0 = None
    for t in ts:
        op = GridOperator(matrix=_operator_matrix(gs, float(t) * A1),
                          grid=gs, potential=None)
        sig, X0, its, eta = _sigma_min_block(op, rng_seed, tol, X0)
        sigmas.append(sig)
        iterations.append(its)
        residuals.append(eta)
    return SweepResult(ts=ts, sigma_mins=np.asarray(sigmas),
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
    A, pts = _on_sites(gs, spec)
    M = _operator_matrix(gs, A)
    comps = eval_spinor(mode, [pts[0], pts[1], pts[2]])
    psi = np.empty(gs.dim, dtype=complex)
    psi[0::2] = np.asarray(comps[0], dtype=complex)
    psi[1::2] = np.asarray(comps[1], dtype=complex)
    r = M @ psi

    inner = (np.abs(pts) <= gs.L - interior_margin).all(axis=0)
    mask = np.repeat(inner, 2)
    num = float(np.linalg.norm(r[mask]))
    den = float(np.linalg.norm(psi[mask]))
    return num / den
