"""Potential families: parallelism, exactness of B = curl A, JSON specs."""

import json

import numpy as np
import pytest

from ckfield.ckf import eval_ckf, field_cr, field_iso, field_ro
from ckfield.errors import ConstructionFailed, FrameUndefined
from ckfield.flows import integrate_curve
from ckfield.jets import partial, seed, value, vcurl
from ckfield.potentials import (Profile, axial, constant, construct_losyau,
                                eval_field, eval_potential, gauge_pair,
                                gaussian, gauged, hopfbase, lossyau, modulated,
                                parallelism_residual, parent_field, polynomial,
                                potential_components, profile_from_dict,
                                scaled, smoothbump, spec_from_dict)

FD_H = 1e-5


def _specs():
    return [
        axial(smoothbump(0.5, 9.0, 0.25)),
        axial(gaussian(2.0, 1.0), gaussian(0.0, 2.0)),
        axial(polynomial([0.3, 0.0, 0.1])),
        hopfbase(0.5),
        hopfbase(2.0),
        modulated(hopfbase(1.0), smoothbump(0.05, 0.5, 1.0)),
        modulated(axial(constant(1.0)), smoothbump(1.0, 4.0, 0.7)),
        lossyau(),
        scaled(hopfbase(1.0), 3.5),
        gauged(axial(smoothbump(1.0, 4.0)), "sin_x1_x2"),
        gauged(scaled(modulated(hopfbase(1.0), smoothbump(0.1, 0.6)), 2.0),
               "x1x2x3"),
    ]


def test_parallelism_everywhere(rng):
    pts = rng.uniform(-2.5, 2.5, (3, 200))
    for spec in _specs():
        res = parallelism_residual(spec, pts)
        # the relative residual is ill-conditioned in the underflowed tail
        # of a compactly supported profile (|B| ~ 1e-12 against absolute
        # curl rounding ~ 1e-16), so restrict to points where B is
        # appreciable on the spec's own scale
        mag = np.sqrt((eval_field(spec, pts) ** 2).sum(axis=0))
        keep = mag > 1e-6 * mag.max()
        assert keep.any(), spec.kind
        assert np.max(res[keep]) < 1e-10, spec.kind


def test_field_matches_finite_difference_curl(rng):
    for spec in _specs():
        x = rng.uniform(-1.5, 1.5, 3)
        B = eval_field(spec, x)
        fd = np.zeros((3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = FD_H
            fd[i] = (eval_potential(spec, x + e)
                     - eval_potential(spec, x - e)) / (2 * FD_H)
        curl_fd = np.array([fd[1, 2] - fd[2, 1], fd[2, 0] - fd[0, 2],
                            fd[0, 1] - fd[1, 0]])
        assert np.allclose(B, curl_fd, atol=1e-7), spec.kind


def field_divergence(spec, x):
    """div curl A at the points x, shape (3, n), from order-2 jets."""
    b = vcurl(potential_components(spec, seed(x, order=2)))
    return sum(value(partial(b[i], i)) for i in range(3))


def test_field_divergence_vanishes(rng):
    pts = rng.uniform(-2, 2, (3, 64))
    for spec in _specs():
        assert np.max(np.abs(field_divergence(spec, pts))) < 1e-11, spec.kind


def test_gauge_term_leaves_field_unchanged(rng):
    base = axial(smoothbump(0.5, 4.0))
    pts = rng.uniform(-2, 2, (3, 32))
    for name in ("sin_x1_x2", "x1x2x3", "linear:0.3,-1.2,0.7"):
        g = gauged(base, name)
        assert np.allclose(eval_field(g, pts), eval_field(base, pts),
                           atol=1e-12)
        # but the potential itself differs
        assert not np.allclose(eval_potential(g, pts),
                               eval_potential(base, pts))


def test_gauge_pairs_are_consistent(rng):
    x = rng.uniform(-1, 1, 3)
    for name in ("sin_x1_x2", "x1x2x3", "linear:1.0,2.0,-0.5"):
        xc = seed(x, order=1)
        g, dg = gauge_pair(name, xc)
        for k in range(3):
            e = np.zeros(3)
            e[k] = FD_H
            gp = gauge_pair(name, seed(x + e, order=1))[0]
            gm = gauge_pair(name, seed(x - e, order=1))[0]
            fd = (value(gp) - value(gm)) / (2 * FD_H)
            assert np.isclose(value(dg[k]), fd, atol=1e-7)
    with pytest.raises(ValueError):
        gauge_pair("unknown", seed(x, order=1))
    with pytest.raises(ValueError):
        gauge_pair("linear:1,2", seed(x, order=1))


def test_parent_fields():
    assert np.allclose(parent_field(axial(constant(1.0))).b, (0, 0, 1))
    assert np.allclose(parent_field(hopfbase(1.5)).c, (0, 0, 1))
    assert np.allclose(parent_field(lossyau()).b, field_iso().b)
    nested = gauged(scaled(modulated(hopfbase(0.5), constant(2.0)), 3.0), "x1x2x3")
    assert parent_field(nested).c @ (0, 0, 1) == 1.0


def test_axial_potential_is_vertical(rng):
    spec = axial(smoothbump(0.5, 9.0, 0.25))
    pts = rng.uniform(-3, 3, (3, 40))
    A = eval_potential(spec, pts)
    assert np.allclose(A[:2], 0.0)
    # depends on x only through u = x1^2 + x2^2 when profile_v is constant
    a = eval_potential(spec, np.array([1.2, 0.9, 0.4]))
    b = eval_potential(spec, np.array([-0.9, 1.2, -2.0]))
    assert np.isclose(a[2], b[2], rtol=1e-14)


def test_hopfbase_axis_value():
    spec = hopfbase(1.0)
    B0 = eval_field(spec, np.zeros(3))
    X0 = eval_ckf(field_cr(1.0), np.zeros(3))
    # both point along e3 at the origin
    assert B0[2] != 0.0 and np.allclose(B0[:2], 0)
    assert np.allclose(X0, (0, 0, 0.5))


def test_scaled_is_linear(rng):
    base = hopfbase(1.0)
    pts = rng.uniform(-2, 2, (3, 16))
    assert np.allclose(eval_potential(scaled(base, 2.5), pts),
                       2.5 * eval_potential(base, pts))
    assert np.allclose(eval_potential(scaled(base, 0.0), pts), 0.0)


def test_modulation_requires_supported_base():
    with pytest.raises(ValueError):
        modulated(lossyau(), constant(1.0))


def fw3_along_curve(spec, trace):
    """f w^3 = (B.X) w at the trace samples, with B = f X, and its spread
    max - min; constant on integral curves."""
    X = eval_ckf(parent_field(spec), trace.xs)
    values = ((eval_field(spec, trace.xs) * X).sum(axis=0)
              * np.sqrt((X ** 2).sum(axis=0)))
    return values, float(values.max() - values.min())


def test_modulation_factor_constant_on_orbit():
    # the modulation profile depends only on a flow invariant, so f w^3
    # stays constant along closed orbits of the parent field
    spec = modulated(hopfbase(1.0), smoothbump(0.05, 0.5, 1.0))
    p = parent_field(spec)
    from ckfield.flows import cr_orbit_seed
    trace = integrate_curve(p, cr_orbit_seed(1.0, 0.3))
    values, spread = fw3_along_curve(spec, trace)
    assert spread < 1e-9 * max(1.0, np.max(np.abs(values)))

    spec2 = axial(smoothbump(0.5, 9.0, 0.25))
    trace2 = integrate_curve(field_ro(), np.array([1.3, 0.0, 0.4]))
    _, spread2 = fw3_along_curve(spec2, trace2)
    assert spread2 < 1e-9


def test_losyau_construction_certifies():
    spec, mode = construct_losyau(n_points=400)
    assert spec.kind == "lossyau"
    assert mode.kind == "losyau_mode"


def test_losyau_construction_evaluates_the_control_once(monkeypatch):
    import ckfield.potentials as P
    calls = []
    for name in ("seed", "potential_components"):
        real = getattr(P, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(P, name, counted)
    construct_losyau(n_points=400)
    assert sorted(calls) == ["potential_components", "seed"]


def test_losyau_potential_closed_form(rng):
    # A = 6 (1+|x|^2)^{-2} (ro + cr_1) evaluated directly
    pts = rng.uniform(-2, 2, (3, 32))
    A = eval_potential(lossyau(), pts)
    q = 6.0 / (1.0 + (pts ** 2).sum(axis=0)) ** 2
    Xiso = eval_ckf(field_iso(), pts)
    assert np.allclose(A, q * Xiso, atol=1e-13)


def test_profiles():
    f = smoothbump(1.0, 2.0, 3.0)
    assert value(f(np.array(0.5))) == 0.0
    assert value(f(np.array(2.5))) == 0.0
    assert np.isclose(value(f(np.array(1.5))), 3.0 * np.exp(-1.0))
    g = gaussian(0.0, 1.0, 2.0)
    assert np.isclose(value(g(np.array(0.0))), 2.0)
    h = polynomial([1.0, 2.0, 3.0])
    assert np.isclose(value(h(np.array(2.0))), 1 + 4 + 12)
    k = constant(4.0)
    assert value(k(np.array(9.0))) == 4.0
    with pytest.raises(ValueError):
        smoothbump(2.0, 1.0)
    with pytest.raises(ValueError):
        gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        Profile(kind="mystery")(np.array(1.0))


def test_profile_smooth_at_support_edge():
    # C-infinity junction: value and first derivative vanish at lo and hi
    f = smoothbump(1.0, 2.0)
    for edge in (1.0, 2.0):
        x = seed(np.array([edge, 0.0, 0.0]), order=1)
        z = f(x[0])
        assert abs(value(z)) < 1e-300
        assert np.max(np.abs(z.g)) < 1e-300


# the JSON form `--potential` accepts for each spec of _specs(), in order
JSON_SPECS = [
    '{"kind": "axial", "profile_u": {"kind": "smoothbump", "lo": 0.5, '
    '"hi": 9.0, "amplitude": 0.25}}',
    '{"kind": "axial", "profile_u": {"kind": "gaussian", "center": 2.0, '
    '"width": 1.0}, "profile_v": {"kind": "gaussian", "center": 0.0, '
    '"width": 2.0}}',
    '{"kind": "axial", "profile_u": {"kind": "polynomial", '
    '"coefficients": [0.3, 0, 0.1]}}',
    '{"kind": "hopfbase", "mu": 0.5}',
    '{"kind": "hopfbase", "mu": 2}',
    '{"kind": "modulated", "base": {"kind": "hopfbase", "mu": 1.0}, '
    '"profile": {"kind": "smoothbump", "lo": 0.05, "hi": 0.5, '
    '"amplitude": 1.0}}',
    '{"kind": "modulated", "base": {"kind": "axial", "profile_u": '
    '{"kind": "constant", "val": 1}}, "profile": {"kind": "smoothbump", '
    '"lo": 1, "hi": 4, "amplitude": 0.7}}',
    '{"kind": "lossyau"}',
    '{"kind": "scaled", "t": 3.5, "base": {"kind": "hopfbase", "mu": 1}}',
    '{"kind": "gauged", "gauge": "sin_x1_x2", "base": {"kind": "axial", '
    '"profile_u": {"kind": "smoothbump", "lo": 1, "hi": 4}}}',
    '{"kind": "gauged", "gauge": "x1x2x3", "base": {"kind": "scaled", '
    '"t": 2, "base": {"kind": "modulated", "base": {"kind": "hopfbase", '
    '"mu": 1}, "profile": {"kind": "smoothbump", "lo": 0.1, "hi": 0.6}}}}',
]


def test_spec_from_dict_reads_json_specs(rng):
    pts = rng.uniform(-2, 2, (3, 8))
    for text, spec in zip(JSON_SPECS, _specs(), strict=True):
        back = spec_from_dict(json.loads(text))
        assert back.kind == spec.kind
        np.testing.assert_array_equal(eval_potential(back, pts),
                                      eval_potential(spec, pts))
    with pytest.raises(ValueError):
        spec_from_dict({"kind": "mystery"})
    with pytest.raises((ValueError, KeyError)):
        profile_from_dict({"kind": "mystery"})


def test_hopfbase_validation():
    with pytest.raises(ValueError):
        hopfbase(0.0)
    with pytest.raises(ValueError):
        hopfbase(-1.0)
