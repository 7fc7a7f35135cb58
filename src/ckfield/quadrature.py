"""Quadrature rules: composite 2-point Gauss-Legendre on intervals and boxes,
and the periodic trapezoidal rule for closed orbits.

The package uses two rules, each where its convergence is known:

* Boxes (the w-weighted norm decomposition) use the composite 2-point
  Gauss-Legendre rule.  Two nodes per uniform cell integrate cubics exactly,
  so the composite error is O(h^4 f'''') for smooth integrands, and the
  convergence-order checks on boxes all mean the same thing.
* Closed orbits (loop integrals, holonomy phases) use the periodic
  trapezoidal rule.  Their integrands are analytic and periodic in t, where
  equispaced nodes with equal weights converge geometrically, like rho^N
  for an integrand analytic in a strip of half-width ln(1/rho) (Trefethen &
  Weideman, "The exponentially convergent trapezoidal rule", SIAM Rev.
  2014).  Near-degenerate orbits (rho near 1) need a few hundred nodes where
  the composite Gauss rule needed ~10^5, so "one rule everywhere" was given
  up for these integrals; `flows.integrate_curve` picks N from rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["gl2_axis", "periodic_trapezoid", "QuadBox", "box_axes"]

# 2-point Gauss-Legendre abscissae on [-1, 1], weight 1 each
_GL_OFF = 1.0 / np.sqrt(3.0)


def _even_nodes(n: int) -> int:
    """n, if the composite 2-point rule can have n nodes."""
    if n < 2 or n % 2:
        raise ValueError("need an even node count >= 2")
    return n


def gl2_axis(lo: float, hi: float, n: int):
    """Nodes and weights of the composite 2-point rule with n = 2*cells nodes."""
    cells = _even_nodes(n) // 2
    h = (hi - lo) / cells
    centers = lo + (np.arange(cells) + 0.5) * h
    nodes = np.empty(n)
    nodes[0::2] = centers - 0.5 * h * _GL_OFF
    nodes[1::2] = centers + 0.5 * h * _GL_OFF
    weights = np.full(n, 0.5 * h)
    return nodes, weights


def periodic_trapezoid(period: float, n: int):
    """Nodes k*period/n (k = 0..n-1) and equal weights period/n."""
    if n < 1:
        raise ValueError("need a node count >= 1")
    return period * np.arange(n) / n, np.full(n, period / n)


@dataclass(frozen=True)
class QuadBox:
    """Tensor-product quadrature over an axis-aligned box."""

    ranges: tuple   # ((lo, hi), (lo, hi), (lo, hi))
    n: int          # nodes per axis

    def __post_init__(self):
        if len(self.ranges) != 3 or any(lo >= hi for lo, hi in self.ranges):
            raise ValueError("need three nonempty (lo, hi) ranges")
        _even_nodes(self.n)


def box_axes(box: QuadBox):
    """Per-axis (nodes, weights) for the box's composite rule."""
    return [gl2_axis(lo, hi, box.n) for lo, hi in box.ranges]
