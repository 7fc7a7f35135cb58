"""Vector potentials whose curl is parallel to a conformal Killing field.

Closed-form families, all evaluated through coordinate jets so curls and
divergences are exact derivatives of the analytic expressions:

* ``axial``     A = f(u, x3) e3 with u = x1^2 + x2^2, f a product of
                profiles; then B = curl A = -2 (df/du) (-x2, x1, 0), parallel
                to the rotation field.
* ``hopfbase``  A = (mu^2 + |x|^2)^{-2} (-x2, x1, 0); then
                B = 4 (mu^2 + |x|^2)^{-3} X_cr(mu), parallel to the circular
                field with scale mu.
* ``modulated`` A = f . base, where f is constant along the parent flow.
                For a rotation parent f = profile(u); for a circular parent
                f = profile(rho) with rho = |z - mu| / |z + mu|,
                z = sqrt(x1^2+x2^2) + i x3.  Since grad f is orthogonal to X
                and the base satisfies X . A = 0, the extra term
                grad f x A stays parallel to X.
* ``lossyau``   the potential of the classical zero mode
                psi = (1+|x|^2)^{-3/2} (1 + i x3, i x1 - x2): in closed form
                A = 6 (1+|x|^2)^{-2} (ro + cr_1)(x).  ``construct_losyau``
                re-derives A pointwise from psi and certifies the identity.
* ``scaled``    t . A for coupling sweeps.
* ``gauged``    A + grad g for a named closed-form gauge function; curl is
                unchanged, so this exercises gauge invariance end to end.

The parent CKF is implied by the construction (rotation for axial, circular
for hopfbase, the isoclinic combination for lossyau) and propagates through
the wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ckf import (CkfParams, eval_ckf, field_ro, field_cr, field_iso,
                  frame_quantities)
from .errors import ConstructionFailed, NotParallel
from .jets import (seed, value, derivative, order, truncate, jexp,
                   jsqrt, jsin, jcos, jreal, jimag, vcross, vcurl, vnorm2)
from .spinors import (_D_core, losyau_mode, losyau_psi, sigma_apply,
                      spinor_abs, spinor_inner, smooth_bump_scalar)

__all__ = [
    "Profile", "smoothbump", "gaussian", "polynomial", "constant",
    "PotentialSpec", "axial", "hopfbase", "modulated", "lossyau",
    "scaled", "gauged", "parent_field", "potential_components",
    "eval_potential", "eval_field", "parallelism_residual",
    "construct_losyau", "spec_from_dict",
]

PARALLEL_TOL = 1.0e-8       # largest residual that counts as parallel
PARALLEL_FLOOR = 1.0e-300   # avoids 0/0 at isolated zeros of B
CURL_ROUNDOFF = 16.0        # c in |error of B| <= c eps max_ij |d_i A_j|
LOSYAU_TOL = 1.0e-10        # largest certificate residual of the control


# -- scalar profiles -------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """Smooth scalar profile of one variable, evaluated on jets or arrays."""

    kind: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    amplitude: Optional[float] = None
    center: Optional[float] = None
    width: Optional[float] = None
    coefficients: Optional[tuple] = None
    val: Optional[float] = None

    def __call__(self, u):
        if self.kind == "smoothbump":
            return smooth_bump_scalar(u, self.lo, self.hi, self.amplitude)
        if self.kind == "gaussian":
            arg = (u - self.center) ** 2 * (-0.5 / self.width ** 2)
            return self.amplitude * jexp(arg)
        if self.kind == "polynomial":
            acc = self.coefficients[-1] + u * 0.0
            for c in self.coefficients[-2::-1]:
                acc = acc * u + c
            return acc
        if self.kind == "constant":
            return self.val + u * 0.0
        raise ValueError(f"unknown profile kind {self.kind!r}")


def smoothbump(lo: float, hi: float, amplitude: float = 1.0) -> Profile:
    if not lo < hi:
        raise ValueError("need lo < hi")
    return Profile(kind="smoothbump", lo=float(lo), hi=float(hi),
                   amplitude=float(amplitude))


def gaussian(center: float, width: float, amplitude: float = 1.0) -> Profile:
    if width <= 0:
        raise ValueError("width must be positive")
    return Profile(kind="gaussian", center=float(center), width=float(width),
                   amplitude=float(amplitude))


def polynomial(coefficients) -> Profile:
    # ascending order: coefficients[k] multiplies u^k
    return Profile(kind="polynomial",
                   coefficients=tuple(float(c) for c in coefficients))


def constant(val: float) -> Profile:
    return Profile(kind="constant", val=float(val))


def profile_from_dict(d: dict) -> Profile:
    kind = d["kind"]
    if kind == "smoothbump":
        return smoothbump(d["lo"], d["hi"], d.get("amplitude", 1.0))
    if kind == "gaussian":
        return gaussian(d["center"], d["width"], d.get("amplitude", 1.0))
    if kind == "polynomial":
        return polynomial(d["coefficients"])
    if kind == "constant":
        return constant(d["val"])
    raise ValueError(f"unknown profile kind {kind!r}")


# -- named gauge functions -------------------------------------------------
# closed-form pairs (g, grad g); "linear:k1,k2,k3" is parsed on the fly

def _gauge_sin_x1_x2(xc):
    x1, x2, _ = xc
    g = jsin(x1) * x2
    return g, [jcos(x1) * x2, jsin(x1), x1 * 0.0]


def _gauge_x1x2x3(xc):
    x1, x2, x3 = xc
    return x1 * x2 * x3, [x2 * x3, x1 * x3, x1 * x2]


def gauge_pair(name: str, xc):
    """Return (g, grad g) for a named closed-form gauge function."""
    if name == "sin_x1_x2":
        return _gauge_sin_x1_x2(xc)
    if name == "x1x2x3":
        return _gauge_x1x2x3(xc)
    if name.startswith("linear:"):
        ks = [float(v) for v in name.split(":", 1)[1].split(",")]
        if len(ks) != 3:
            raise ValueError("linear gauge needs three coefficients")
        g = ks[0] * xc[0] + ks[1] * xc[1] + ks[2] * xc[2]
        return g, [ks[0] + xc[0] * 0.0, ks[1] + xc[0] * 0.0, ks[2] + xc[0] * 0.0]
    raise ValueError(f"unknown gauge function {name!r}")


# -- potential specs -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PotentialSpec:
    kind: str
    mu: Optional[float] = None
    profile_u: Optional[Profile] = None
    profile_v: Optional[Profile] = None
    invariant_profile: Optional[Profile] = None
    base: Optional["PotentialSpec"] = None
    t: float = 1.0
    gauge: Optional[str] = None


def axial(profile_u: Profile, profile_v: Optional[Profile] = None) -> PotentialSpec:
    """A = f(u) g(x3) e3; B parallel to the rotation field."""
    return PotentialSpec(kind="axial", profile_u=profile_u,
                         profile_v=profile_v if profile_v is not None else constant(1.0))


def hopfbase(mu: float) -> PotentialSpec:
    if mu <= 0:
        raise ValueError("mu must be positive")
    return PotentialSpec(kind="hopfbase", mu=float(mu))


def modulated(base: PotentialSpec, invariant_profile: Profile) -> PotentialSpec:
    """A = f . base with f constant along the parent flow."""
    if base.kind not in ("axial", "hopfbase"):
        raise ValueError("modulation is defined over axial or hopfbase specs")
    return PotentialSpec(kind="modulated", base=base,
                         invariant_profile=invariant_profile)


def lossyau() -> PotentialSpec:
    return PotentialSpec(kind="lossyau")


def scaled(base: PotentialSpec, t: float) -> PotentialSpec:
    return PotentialSpec(kind="scaled", base=base, t=float(t))


def gauged(base: PotentialSpec, gauge: str) -> PotentialSpec:
    return PotentialSpec(kind="gauged", base=base, gauge=gauge)


def parent_field(spec: PotentialSpec) -> CkfParams:
    """CKF the construction makes B parallel to."""
    if spec.kind == "axial":
        return field_ro()
    if spec.kind == "hopfbase":
        return field_cr(spec.mu)
    if spec.kind == "lossyau":
        return field_iso()
    if spec.kind in ("modulated", "scaled", "gauged"):
        return parent_field(spec.base)
    raise ValueError(f"unknown potential kind {spec.kind!r}")


def spec_from_dict(d: dict) -> PotentialSpec:
    kind = d["kind"]
    if kind == "axial":
        pv = profile_from_dict(d["profile_v"]) if "profile_v" in d else None
        return axial(profile_from_dict(d["profile_u"]), pv)
    if kind == "hopfbase":
        return hopfbase(d["mu"])
    if kind == "modulated":
        return modulated(spec_from_dict(d["base"]), profile_from_dict(d["profile"]))
    if kind == "lossyau":
        return lossyau()
    if kind == "scaled":
        return scaled(spec_from_dict(d["base"]), d["t"])
    if kind == "gauged":
        return gauged(spec_from_dict(d["base"]), d["gauge"])
    raise ValueError(f"unknown potential kind {kind!r}")


# -- evaluation ------------------------------------------------------------

def _invariant(spec: PotentialSpec, xc):
    """Flow invariant of the parent the modulation profile composes with."""
    x1, x2, x3 = xc
    if spec.base.kind == "axial":
        return x1 * x1 + x2 * x2
    # circular parent: rho = |z - mu| / |z + mu|, z = r + i x3; the tiny
    # offset keeps sqrt differentiable on the orbit circle itself without
    # breaking flow invariance (a constant shift of an invariant)
    mu = spec.base.mu
    r = jsqrt(x1 * x1 + x2 * x2)
    num = (r - mu) ** 2 + x3 * x3
    den = (r + mu) ** 2 + x3 * x3
    return jsqrt(num / den + 1.0e-300)


def potential_components(spec: PotentialSpec, xc):
    """Components [A1, A2, A3] on coordinate jets (or plain arrays)."""
    x1, x2, x3 = xc
    if spec.kind == "axial":
        f = spec.profile_u(x1 * x1 + x2 * x2) * spec.profile_v(x3)
        return [f * 0.0, f * 0.0, f]
    if spec.kind == "hopfbase":
        q = 1.0 / (spec.mu ** 2 + x1 * x1 + x2 * x2 + x3 * x3)
        s = q * q
        return [-x2 * s, x1 * s, s * 0.0]
    if spec.kind == "modulated":
        f = spec.invariant_profile(_invariant(spec, xc))
        return [f * c for c in potential_components(spec.base, xc)]
    if spec.kind == "lossyau":
        # 6 (1+|x|^2)^{-2} (ro + cr_1); certified against the zero-mode
        # construction by construct_losyau
        q = 1.0 / (1.0 + x1 * x1 + x2 * x2 + x3 * x3)
        s = 6.0 * q * q
        return [s * (x1 * x3 - x2), s * (x2 * x3 + x1),
                s * 0.5 * (1.0 + x3 * x3 - x1 * x1 - x2 * x2)]
    if spec.kind == "scaled":
        return [spec.t * c for c in potential_components(spec.base, xc)]
    if spec.kind == "gauged":
        _, dg = gauge_pair(spec.gauge, xc)
        return [c + d for c, d in zip(potential_components(spec.base, xc), dg)]
    raise ValueError(f"unknown potential kind {spec.kind!r}")


def _as_batch(x):
    x = np.asarray(x, dtype=float)
    if x.shape[0] != 3:
        raise ValueError("expected leading axis of length 3")
    return x


def eval_potential(spec: PotentialSpec, x):
    """A(x); x of shape (3,) or (3,) + batch."""
    x = _as_batch(x)
    comps = potential_components(spec, [x[0], x[1], x[2]])
    return np.stack([np.broadcast_to(value(c), x.shape[1:]) for c in comps])


def _field_values(A, shape):
    """B = curl A, shape (3,) + shape, from A on seeded jets of any order."""
    return np.stack([np.broadcast_to(np.asarray(value(c), dtype=float), shape)
                     for c in vcurl(A)])


def eval_field(spec: PotentialSpec, x):
    """B = curl A by exact differentiation of the analytic family."""
    x = _as_batch(x)
    return _field_values(potential_components(spec, seed(x, order=1)),
                         x.shape[1:])


def _parallel_residual(A, X):
    """|B x X| / max(|X| max(|B|, floor), tiny) pointwise, B = curl A.

    A holds jets of order >= 1 and X arrays (3,) + batch.  B's roundoff is
    at most c eps max_ij |d_i A_j|, and a gauge term can make that far
    larger than B itself.  The floor is that roundoff over PARALLEL_TOL, so
    roundoff alone never reads a residual above PARALLEL_TOL, while a B
    that is truly not parallel still does wherever it exceeds its roundoff.
    """
    shape = X.shape[1:]
    B = _field_values(A, shape)
    dA = np.stack([np.broadcast_to(np.abs(value(derivative(c, k))), shape)
                   for c in A for k in range(3)])
    roundoff = CURL_ROUNDOFF * np.finfo(float).eps * dA.max(axis=0)
    num = np.sqrt((np.stack(vcross(B, X)) ** 2).sum(axis=0))
    den = (np.maximum(np.sqrt((B ** 2).sum(axis=0)), roundoff / PARALLEL_TOL)
           * np.sqrt((X ** 2).sum(axis=0)))
    return num / np.maximum(den, PARALLEL_FLOOR)


def parallelism_residual(spec: PotentialSpec, x):
    """|B x X| / (|X| max(|B|, floor)) at x; 0 for every in-scope spec.

    The floor keeps B's roundoff from reading as a residual above
    PARALLEL_TOL (see `_parallel_residual`).
    """
    x = _as_batch(x)
    return _parallel_residual(potential_components(spec, seed(x, order=1)),
                              eval_ckf(parent_field(spec), x))


# -- the field context -----------------------------------------------------

class _Field:
    """X, w = |X|, div X, Y = curl X, 1/w and A on one point batch xc
    (A is None without a potential).  xc may be seeded jets of any order
    or plain coordinates; the values are the same bits either way.

    Every consumer reads it: the spinor-operator cores, holonomy, the loop
    integrals and planarity.
    """

    __slots__ = ("X", "w", "divX", "Y", "invw", "A", "order", "_views",
                 "__weakref__")

    def __init__(self, p: CkfParams, spec: Optional[PotentialSpec], xc):
        # w and 1/w are singular where X vanishes; Q is not, and the S, P and
        # Dw callers reject such points before they use w
        with np.errstate(divide="ignore", invalid="ignore"):
            self.X, self.w, self.divX, self.Y = frame_quantities(p, xc)
            self.invw = 1.0 / self.w
        self.A = None if spec is None else potential_components(spec, xc)
        self.order = order(xc[0])
        self._views = {}

    def at(self, m: int) -> "_Field":
        """This context truncated to derivative order m, cached per order.

        A view gets a dict of its own: one that held its parent's would
        form a reference cycle, and every slab's arrays would then live
        until the cyclic garbage collector ran.
        """
        if m >= self.order:
            return self
        view = self._views.get(m)
        if view is None:
            view = object.__new__(_Field)
            view.X = [truncate(c, m) for c in self.X]
            view.Y = [truncate(c, m) for c in self.Y]
            view.w, view.divX, view.invw = (
                truncate(self.w, m), truncate(self.divX, m),
                truncate(self.invw, m))
            view.A = None if self.A is None else [truncate(c, m)
                                                  for c in self.A]
            view.order = m
            view._views = {}
            self._views[m] = view
        return view

    def abs_curl(self) -> np.ndarray:
        """|Y| at the batch's points."""
        return np.sqrt(value(vnorm2(self.at(0).Y)))

    def check_parallel(self):
        """Raise NotParallel unless B = curl A is parallel to X on the batch;
        B comes from the gradient of the A jets, so xc must be seeded."""
        if self.A is None:
            return
        X = np.stack([np.asarray(value(c), dtype=float) for c in self.X])
        res = float(np.max(_parallel_residual(self.A, X)))
        if res > PARALLEL_TOL:
            raise NotParallel(f"B = curl A is not parallel to X "
                              f"(residual {res:.3e} > {PARALLEL_TOL:g})")


# -- the positive control --------------------------------------------------

def losyau_potential_from_mode(psi, t):
    """A_j = Re<psi, sigma_j t> / |psi|^2 on jets, t = sigma.(-i grad) psi.

    Returns (A components, max imaginary part) so the caller can certify
    that the defining ratio is in fact real.
    """
    n2 = jreal(spinor_inner(psi, psi))
    ey = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    comps, max_imag = [], 0.0
    for j in range(3):
        z = spinor_inner(psi, sigma_apply(ey[j], t))
        comps.append(jreal(z) / n2)
        max_imag = max(max_imag, float(np.max(np.abs(value(jimag(z) / n2)))))
    return comps, max_imag


def construct_losyau(n_points: int = 1000, rng_seed: int = 7):
    """Build the zero-mode control pair and certify it.

    The potential is defined pointwise by the mode itself; the closed form
    wired into ``potential_components`` must agree, the imaginary parts of
    the defining ratio must vanish, the mode must satisfy D psi = 0, and
    curl A must be parallel to the isoclinic field.  Any residual above
    LOSYAU_TOL raises ConstructionFailed: that signals an algebra error,
    not a runtime condition.
    """
    rng = np.random.default_rng(rng_seed)
    pts = rng.normal(scale=1.5, size=(3, n_points))
    xc = seed(pts, order=1)
    psi = losyau_psi(xc)
    t = _D_core(None, psi)      # sigma.(-i grad) psi

    comps, max_imag = losyau_potential_from_mode(psi, t)
    spec = lossyau()
    A = potential_components(spec, xc)
    closed = [value(c) for c in A]
    scale = 1.0 + max(float(np.max(np.abs(c))) for c in closed)
    mismatch = max(float(np.max(np.abs(value(c) - cc)))
                   for c, cc in zip(comps, closed)) / scale

    dirac_residual = float(np.max(spinor_abs(_D_core(A, psi))
                                  / spinor_abs(psi)))

    par = float(np.max(_parallel_residual(A, eval_ckf(field_iso(), pts))))

    tol = LOSYAU_TOL
    if max_imag > tol or mismatch > tol or dirac_residual > tol or par > tol:
        raise ConstructionFailed(
            "zero-mode control failed certification: "
            f"imag={max_imag:.3e} closed-form mismatch={mismatch:.3e} "
            f"|D psi|/|psi|={dirac_residual:.3e} parallelism={par:.3e}")
    return spec, losyau_mode()

