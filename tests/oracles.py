"""Analytic oracles that more than one test module checks the package against."""

from __future__ import annotations

import numpy as np

from holorigid.dynamics import classify, companion_roots
from holorigid.jets import jet_compose, jet_multiply


def fixed_points(h):
    """Fixed points of one Henon factor with multipliers and stability.

    The first component forces x = y, so fixed points are (t, t) with
    p(t) - (1 + delta) t = 0; the Jacobian there is [[0, 1],
    [-delta, p'(t)]], whose eigenvalues solve mu^2 - p'(t) mu + delta = 0.
    """
    coeffs = np.array(h.p_coeffs, dtype=complex)
    coeffs[1] -= 1.0 + h.delta
    out = []
    for t in companion_roots(coeffs):
        slope = 0j  # p'(t) by Horner
        for k in range(h.degree, 0, -1):
            slope = slope * t + k * h.p_coeffs[k]
        jac = np.array([[0.0, 1.0], [-h.delta, slope]])
        mults = tuple(sorted(np.linalg.eigvals(jac),
                             key=lambda z: (z.real, z.imag)))
        out.append((np.array([t, t]), mults, classify(mults)))
    return out


def weighted_pullback(u, f, h):
    """Jet of u * (h o f) at the base of f, by dict jet products: the route
    that the dense Fock matrices are checked against."""
    return jet_multiply(u, jet_compose(h, f))
