"""Field-line tracing: closure detection, periods, loop integrals.

The rotation and circular fields have closed-form orbits (circles around
the axis, resp. the Moebius-conjugated circles through the half-plane),
so periods and curve points can be checked against exact expressions
rather than against the integrator itself.
"""

import numpy as np
import pytest

from ckfield.ckf import (CanonicalForm, CkfParams, eval_ckf, field_cr,
                         field_iso, field_ro, field_ud, reconstruct)
from ckfield import flows
from ckfield.errors import (BlowUp, FrameUndefined, IntegrationFailed,
                            NotAdmissible, NotClosed)
from ckfield.flows import (FixedPoint, cr_orbit_closed_form, cr_orbit_seed,
                           eval_ckf_curl, fixed_point_census, integrate_curve,
                           loop_integrals, planarity_and_curvature)
from ckfield.potentials import axial, hopfbase, smoothbump
from ckfield.quadrature import periodic_trapezoid


def _dilation(b0=1.0, x0=(0.2, -0.5, 1.0)):
    x0 = np.asarray(x0, dtype=float)
    return CkfParams(a=-b0 * x0, b0=b0, b=np.zeros(3), c=np.zeros(3))


def _special_nu(nu):
    # c = e3, a = nu e3 puts the canonical center at the origin
    return CkfParams(a=np.array([0.0, 0.0, nu]), b0=0.0, b=np.zeros(3),
                     c=np.array([0.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# rotation orbits


def test_ro_orbit_is_closed_circle():
    p = field_ro()
    x0 = np.array([0.7, 0.0, 0.4])
    tr = integrate_curve(p, x0)
    assert tr.closed
    assert tr.period == pytest.approx(2.0 * np.pi, abs=1.0e-8)
    assert tr.closure_error <= 1.0e-8
    # orbit stays on the rho = 0.7 circle in the x3 = 0.4 plane
    rho = np.hypot(tr.xs[0], tr.xs[1])
    assert np.abs(rho - 0.7).max() < 1.0e-9
    assert np.abs(tr.xs[2] - 0.4).max() < 1.0e-9
    # Y = 2 e3 everywhere, so the orbit plane normal is exactly e3
    np.testing.assert_allclose(tr.plane_normal, [0.0, 0.0, 1.0], atol=1.0e-15)


def test_trace_weights_integrate_dt_to_period():
    tr = integrate_curve(field_ro(), [1.2, 0.0, 0.0])
    assert tr.weights.sum() == pytest.approx(tr.period, abs=1.0e-12)
    assert tr.ts.shape == tr.weights.shape
    assert tr.xs.shape == (3, tr.ts.size)
    assert len(tr.samples) == tr.ts.size


def test_periodic_trapezoid_converges_geometrically():
    # 1/(1 - 2 rho cos t + rho^2) has poles at distance ln(1/rho) from the
    # real axis; the rule's error is exactly I * 2 rho^n / (1 - rho^n)
    rho = 0.9
    exact = 2.0 * np.pi / (1.0 - rho ** 2)
    for n, tol in ((64, 2.1 * rho ** 64), (372, 1.0e-13)):
        ts, wts = periodic_trapezoid(2.0 * np.pi, n)
        assert ts[0] == 0.0 and ts.size == n
        np.testing.assert_allclose(wts, 2.0 * np.pi / n, rtol=1.0e-15)
        approx = wts @ (1.0 / (1.0 - 2.0 * rho * np.cos(ts) + rho ** 2))
        assert abs(approx - exact) / exact <= tol
    with pytest.raises(ValueError):
        periodic_trapezoid(1.0, 0)


# ---------------------------------------------------------------------------
# circular-field orbits


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_cr_period_matches_2pi_over_mu(mu):
    tr = integrate_curve(field_cr(mu), cr_orbit_seed(mu, 0.5))
    assert tr.closed
    assert tr.period == pytest.approx(2.0 * np.pi / mu, abs=1.0e-8)


def test_cr_orbit_matches_closed_form():
    mu, rho, theta = 1.0, 0.5, 0.3
    tr = integrate_curve(field_cr(mu), cr_orbit_seed(mu, rho, theta))
    exact = cr_orbit_closed_form(mu, rho, theta, tr.ts)
    assert np.abs(tr.xs - exact).max() < 1.0e-9


def test_rhs_matches_eval_ckf():
    # the integrator's component-wise X against the vector closed form
    rng = np.random.default_rng(4)
    for _ in range(5):
        p = CkfParams(a=rng.normal(size=3), b0=rng.normal(),
                      b=rng.normal(size=3), c=rng.normal(size=3))
        y = rng.normal(size=3)
        np.testing.assert_allclose(flows._rhs(p)(0.0, y), eval_ckf(p, y),
                                   rtol=1.0e-14, atol=1.0e-14)


def test_cr_orbit_stops_at_first_return(monkeypatch):
    solve = flows.solve_ivp
    sols = []

    def spy(*args, **kwargs):
        sols.append(solve(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(flows, "solve_ivp", spy)
    mu, rho = 1.0, 0.9
    tr = integrate_curve(field_cr(mu), cr_orbit_seed(mu, rho))
    (sol,) = sols
    assert tr.closed
    assert sol.t[-1] == pytest.approx(tr.period, rel=1.0e-12)
    assert tr.nfev == sol.nfev
    assert tr.steps == sol.t.size - 1 > 0
    # one period takes ~2.8k right-hand-side calls; seven took ~19.7k
    assert tr.nfev < 4000
    # the speed ratio of the rho-orbit is ((1 + rho)/(1 - rho))^2
    assert tr.speed_ratio == pytest.approx(((1 + rho) / (1 - rho)) ** 2,
                                           rel=1.0e-3)


def test_fast_seed_closes_in_the_exact_period_window():
    # |Y(x0)| = 4998 at rho = 0.9992, so a t_max of 2000 * 4 pi / |Y(x0)|
    # = 5.03 ends before the first return at 2 pi; the window [T/2, 2T]
    # from the canonical form holds it
    tr = integrate_curve(field_cr(1.0), cr_orbit_seed(1.0, 0.9992))
    assert tr.closed
    assert tr.period == pytest.approx(2.0 * np.pi, rel=0.0, abs=1.0e-12)


def test_near_degenerate_orbit_needs_few_nodes():
    mu, rho, theta = 1.0, 0.95, 0.4
    p = field_cr(mu)
    tr = integrate_curve(p, cr_orbit_seed(mu, rho, theta))
    assert tr.ts.size <= 1024
    ints = loop_integrals(tr, p, hopfbase(mu))
    assert abs(ints.int_div) <= 1.0e-10
    assert abs(ints.int_absY - 4.0 * np.pi) <= 1.0e-10
    assert abs(ints.int_flux) <= 1.0e-10
    exact = cr_orbit_closed_form(mu, rho, theta, tr.ts)
    assert np.abs(tr.xs - exact).max() <= 1.0e-9


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("kind,seed", [("Special", s) for s in (11, 12, 13)]
                         + [("Rotation", s) for s in (21, 22)])
def test_generic_admissible_orbits(kind, seed):
    # rotated, translated and scaled copies of the canonical fields: their
    # orbits are Moebius images of circles, which the node rule relies on
    rng = np.random.default_rng(seed)
    axis, center = _unit(rng), rng.uniform(-2.0, 2.0, 3)
    scale = rng.uniform(0.5, 2.0)
    perp = np.cross(axis, _unit(rng))
    perp /= np.linalg.norm(perp)
    if kind == "Special":
        nu = rng.uniform(0.2, 2.0)
        radius = np.sqrt(2.0 * nu)
        # off the axis and far from the degenerate circle of radius
        # sqrt(2 nu), where the orbits' speed ratios are ~100
        x0 = (center + radius * rng.choice([0.1, 10.0]) * perp
              + 0.2 * radius * rng.normal() * axis)
        period = 2.0 * np.pi / (scale * radius)
    else:
        nu = None
        x0 = center + rng.uniform(0.3, 2.0) * perp + rng.normal() * axis
        period = 2.0 * np.pi / scale
    p = reconstruct(CanonicalForm(kind=kind, x0=center, axis=axis,
                                  scale=scale, nu=nu, admissible=True))
    tr = integrate_curve(p, x0)
    assert tr.closed
    assert tr.period == pytest.approx(period, rel=1.0e-9)
    ints = loop_integrals(tr, p)
    assert abs(ints.int_div) <= 1.0e-9
    assert abs(ints.int_absY - 4.0 * np.pi) <= 1.0e-9


def _generic(kind, rng):
    """(field, seed, rho) for a rotated, translated and scaled copy of a
    canonical field; rho is the seed orbit's Moebius invariant, from its
    distance r to the axis and height h along it in canonical coordinates."""
    axis, center = _unit(rng), rng.uniform(-2.0, 2.0, 3)
    scale = rng.uniform(0.5, 2.0)
    perp = np.cross(axis, _unit(rng))
    perp /= np.linalg.norm(perp)
    nu = rng.uniform(0.2, 2.0) if kind == "Special" else None
    p = reconstruct(CanonicalForm(kind=kind, x0=center, axis=axis,
                                  scale=scale, nu=nu, admissible=True))
    r, h = rng.uniform(0.3, 3.0), rng.normal()
    rho = 0.0
    if kind == "Special":
        mu = np.sqrt(2.0 * nu)
        r, h = mu * r, mu * h
        rho = abs(complex(r, h) - mu) / abs(complex(r, h) + mu)
    return p, center + r * perp + h * axis, rho


@pytest.mark.parametrize("kind,seed", [("Special", s) for s in (31, 32, 33, 34)]
                         + [("Rotation", s) for s in (41, 42)])
def test_speed_ratio_and_nodes_come_from_the_orbit_invariant(kind, seed):
    p, x0, rho = _generic(kind, np.random.default_rng(seed))
    tr = integrate_curve(p, x0)
    assert tr.closed
    ratio = ((1.0 + rho) / (1.0 - rho)) ** 2
    assert tr.speed_ratio == pytest.approx(ratio, rel=1.0e-12, abs=0.0)
    n = 64 if rho == 0.0 else max(64, int(np.ceil(np.log(1.0e-17)
                                                  / np.log(rho))))
    assert tr.ts.size == n == flows._trapezoid_nodes(rho)
    # the traced nodes see nearly the whole speed range, and never more
    speeds = np.linalg.norm(eval_ckf(p, tr.xs), axis=0)
    seen = speeds.max() / speeds.min()
    assert ratio * (1.0 - 2.0e-2) <= seen <= ratio * (1.0 + 1.0e-9)


def test_axis_seed_of_a_generic_special_field_names_the_axis_curve():
    rng = np.random.default_rng(51)
    axis, center = _unit(rng), rng.uniform(-2.0, 2.0, 3)
    p = reconstruct(CanonicalForm(kind="Special", x0=center, axis=axis,
                                  scale=1.7, nu=0.8, admissible=True))
    with pytest.raises(BlowUp, match="axis curve"):
        integrate_curve(p, center + 0.3 * axis)


def test_open_axis_curve_has_infinite_speed_ratio():
    # stopped before it escapes: an open trace of MIN_NODES samples of a
    # line through infinity
    tr = integrate_curve(field_cr(1.0), [0.0, 0.0, 0.2], t_max=1.0)
    assert not tr.closed
    assert tr.ts.size == flows.MIN_NODES
    assert tr.speed_ratio == np.inf


def test_cr_orbit_seed_formula_and_validation():
    mu, rho = 2.0, 0.9
    np.testing.assert_allclose(cr_orbit_seed(mu, rho),
                               [mu * (1 + rho) / (1 - rho), 0.0, 0.0])
    with pytest.raises(ValueError):
        cr_orbit_seed(1.0, 1.0)
    with pytest.raises(ValueError):
        cr_orbit_seed(1.0, -0.1)


def test_closed_form_starts_at_seed():
    pts = cr_orbit_closed_form(0.5, 0.3, 1.1, [0.0])
    np.testing.assert_allclose(pts[:, 0], cr_orbit_seed(0.5, 0.3, 1.1),
                               atol=1.0e-13)


# ---------------------------------------------------------------------------
# non-closing / inadmissible cases


def test_translation_curve_never_closes():
    tr = integrate_curve(field_ud(), [0.1, 0.2, 0.3], t_max=5.0)
    assert not tr.closed
    assert tr.period is None
    assert tr.closure_error is None
    # open traces are equispaced samples of [0, t_end] with no weights
    assert tr.weights is None
    assert tr.ts[0] == 0.0 and tr.ts[-1] == pytest.approx(5.0)
    np.testing.assert_allclose(np.diff(tr.ts), tr.ts[1], rtol=1.0e-12)
    with pytest.raises(NotClosed):
        loop_integrals(tr, field_ud())
    with pytest.raises(NotClosed):
        planarity_and_curvature(tr, field_ud())


def test_cr_axis_curve_blows_up():
    # on the symmetry axis dx3/dt = (mu^2 + x3^2)/2 escapes in finite time
    with pytest.raises(BlowUp, match="axis curve"):
        integrate_curve(field_cr(1.0), [0.0, 0.0, 0.2])


def test_inadmissible_fields_are_rejected():
    with pytest.raises(NotAdmissible):
        integrate_curve(_dilation(), [1.0, 0.0, 0.0])
    with pytest.raises(NotAdmissible):
        integrate_curve(field_iso(), [1.0, 0.0, 0.0])
    with pytest.raises(NotAdmissible):
        integrate_curve(_special_nu(-0.5), [1.0, 0.0, 0.0])


def test_integrator_failure_is_typed(monkeypatch):
    solve = flows.solve_ivp

    def failing(*args, **kwargs):
        sol = solve(*args, **kwargs)
        sol.success, sol.status, sol.message = False, -1, "forced failure"
        return sol

    monkeypatch.setattr(flows, "solve_ivp", failing)
    with pytest.raises(IntegrationFailed) as exc:
        integrate_curve(field_ro(), [0.9, 0.0, 0.2])
    assert exc.value.status == -1
    assert "forced failure" in str(exc.value)


def test_seed_at_zero_of_field_is_rejected():
    with pytest.raises(FrameUndefined):
        integrate_curve(field_ro(), [0.0, 0.0, 0.3])


# ---------------------------------------------------------------------------
# loop integrals


def test_ro_loop_integrals_with_parallel_potential():
    p = field_ro()
    spec = axial(smoothbump(0.2, 4.0, 1.0))
    tr = integrate_curve(p, [0.9, 0.0, 0.1])
    ints = loop_integrals(tr, p, spec)
    # div X = 0 identically for the rotation field
    assert ints.int_div == 0.0
    assert abs(ints.int_absY - 4.0 * np.pi) < 1.0e-10
    # A is vertical and X is azimuthal, so X.A = 0 pointwise
    assert abs(ints.int_flux) < 1.0e-12


@pytest.mark.parametrize("mu,rho", [(0.5, 0.1), (1.0, 0.5), (2.0, 0.9)])
def test_cr_loop_integrals(mu, rho):
    p = field_cr(mu)
    tr = integrate_curve(p, cr_orbit_seed(mu, rho))
    ints = loop_integrals(tr, p, hopfbase(mu))
    assert abs(ints.int_div) < 1.0e-9
    assert abs(ints.int_absY - 4.0 * np.pi) < 1.0e-9
    assert abs(ints.int_flux) < 1.0e-9


def test_loop_integrals_without_spec_skips_flux():
    p = field_ro()
    tr = integrate_curve(p, [0.5, 0.0, 0.0])
    assert loop_integrals(tr, p).int_flux is None


# ---------------------------------------------------------------------------
# geometry of the traced curves


@pytest.mark.parametrize("p,seed", [
    (field_ro(), np.array([1.1, 0.0, -0.2])),
    (field_cr(1.0), cr_orbit_seed(1.0, 0.5)),
])
def test_orbits_are_planar_with_frame_curvature(p, seed):
    tr = integrate_curve(p, seed)
    dev, kappa_res = planarity_and_curvature(tr, p)
    assert dev < 1.0e-9
    assert kappa_res < 1.0e-9


def test_eval_ckf_curl_closed_form():
    # Y = 2b + 2 c x x for the full four-parameter family
    rng = np.random.default_rng(3)
    p = CkfParams(a=rng.normal(size=3), b0=0.7, b=rng.normal(size=3),
                  c=rng.normal(size=3))
    xs = rng.normal(size=(3, 17))
    Y = eval_ckf_curl(p, xs)
    expect = 2.0 * p.b[:, None] + 2.0 * np.cross(p.c[None, :], xs.T).T
    np.testing.assert_allclose(Y, expect, atol=1.0e-13)
    assert eval_ckf_curl(p, np.array([0.0, 0.0, 0.0])).shape == (3,)


# ---------------------------------------------------------------------------
# fixed points


def test_census_translation_has_no_zeros():
    census = fixed_point_census(field_ud())
    assert len(census) == 0
    assert census.degenerate is None


def test_census_rotation_axis_line():
    census = fixed_point_census(field_ro())
    assert len(census) == 0
    deg = census.degenerate
    assert deg["kind"] == "line"
    np.testing.assert_allclose(deg["point"], np.zeros(3), atol=1.0e-15)
    np.testing.assert_allclose(deg["direction"], [0.0, 0.0, 1.0])


def test_census_dilation_center():
    p = _dilation(b0=-1.5, x0=(0.2, -0.5, 1.0))
    census = fixed_point_census(p)
    assert census.degenerate is None
    (fp,) = tuple(census)
    assert isinstance(fp, FixedPoint)
    assert fp.kind == "dilation"
    np.testing.assert_allclose(fp.point, [0.2, -0.5, 1.0], atol=1.0e-14)
    np.testing.assert_allclose(eval_ckf(p, fp.point), np.zeros(3),
                               atol=1.0e-14)


@pytest.mark.parametrize("mu", [0.5, 2.0])
def test_census_cr_degenerate_circle(mu):
    census = fixed_point_census(field_cr(mu))
    assert len(census) == 0
    deg = census.degenerate
    assert deg["kind"] == "circle"
    assert deg["radius"] == pytest.approx(mu, abs=1.0e-14)
    np.testing.assert_allclose(deg["center"], np.zeros(3), atol=1.0e-15)
    np.testing.assert_allclose(deg["normal"], [0.0, 0.0, 1.0])
    # points of the circle really are zeros of X
    x = np.array([deg["radius"], 0.0, 0.0]) + deg["center"]
    np.testing.assert_allclose(eval_ckf(field_cr(mu), x), np.zeros(3),
                               atol=1.0e-14)


def test_census_special_negative_nu_pair():
    p = _special_nu(-0.5)
    census = fixed_point_census(p)
    assert census.degenerate is None
    pts = sorted((fp.point[2], fp.kind) for fp in census)
    s = np.sqrt(2.0 * 0.5)
    assert len(pts) == 2
    assert pts[0][0] == pytest.approx(-s, abs=1.0e-14)
    assert pts[1][0] == pytest.approx(s, abs=1.0e-14)
    assert {k for _, k in pts} == {"special"}
    for fp in census:
        np.testing.assert_allclose(eval_ckf(p, fp.point), np.zeros(3),
                                   atol=1.0e-14)


def test_census_special_zero_nu_dipole():
    census = fixed_point_census(_special_nu(0.0))
    (fp,) = tuple(census)
    assert fp.kind == "dipole"
    np.testing.assert_allclose(fp.point, np.zeros(3), atol=1.0e-15)
