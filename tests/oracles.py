"""Analytic oracles that the tests check the package against."""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

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


EPS = np.finfo(float).eps


def _index_terms(f, r, points):
    """t_i = 1 / ((f^r)'(z_i) - 1) at each point z_i of a one-variable f of
    degree >= 2, by the chain rule along the walk z_i, f(z_i), ..., and a
    bound tau_i on the relative rounding error of t_i.

    The walk's error e grows as in ``dynamics._orbit_ratio``, by f' times e
    plus 2 deg eps sum |c_k||w|^k per Horner step, with f' bounded on the
    disk of radius e by its majorant sum |c'_k| (|w| + e)^k.  A factor f'(w)
    of the chain rule is then off by its Horner error plus |f''| e, f''
    bounded by its majorant the same way, and each complex product adds at
    most 2 eps.  Past first order in eps the bound is a factor of 2.
    """
    c = np.zeros(f.degree + 1, dtype=complex)
    for (k,), a in f.components[0].items():
        c[k] = a
    dc, ddc = P.polyder(c), P.polyder(c, 2)
    w = np.asarray(points, dtype=complex)
    lam, err, e = np.ones_like(w), np.zeros(len(w)), np.zeros(len(w))
    horner = 2 * f.degree * EPS
    for _ in range(r):
        size, slope = np.abs(w), P.polyval(w, dc)
        off = P.polyval(size + e, np.abs(ddc)) * e + horner * P.polyval(size, np.abs(dc))
        err = err * (np.abs(slope) + off) + np.abs(lam) * (off + 2 * EPS * np.abs(slope))
        e = P.polyval(size + e, np.abs(dc)) * e + horner * P.polyval(size, np.abs(c))
        lam, w = lam * slope, P.polyval(w, c)
    return 1 / (lam - 1), 2 * (err / np.abs(lam - 1) + 2 * EPS)


def residue_sum(f, r, points):
    """E = |sum t_i| / sum |t_i| with t_i = 1 / ((f^r)'(z_i) - 1) over the
    points z_i of a one-variable f of degree >= 2.

    Over all D = deg(f)^r roots of f^r(z) - z, when they are simple, the sum
    is 0: the holomorphic index formula (Milnor, *Dynamics in One Complex
    Variable*, 2006, section 12), in which infinity, a superattracting fixed
    point, has index 1.
    """
    t = _index_terms(f, r, points)[0]
    return float(abs(t.sum()) / np.abs(t).sum())


def residue_bound(f, r, points, radii):
    """A bound on ``residue_sum(f, r, points)`` when the pairwise disjoint
    disks of ``radii`` about the points hold one root of f^r(z) - z each,
    as the Newton disks of ``periodic_points_1d(..., detail=True)`` do;
    inf where a rounding bound reaches 1.

    Let g = f^r(z) - z, with leading coefficient a, exact roots zeta_i and
    points z_i, |z_i - zeta_i| <= rho_i.  For L_i = a prod_(j != i) (z_i - z_j)
    the sum of 1 / L_i is 0 (a divided difference of the constant 1), and

        g'(z_i) / L_i = (1 + (z_i - zeta_i) sum_(k != i) 1 / (z_i - zeta_k))
                        prod_(j != i) (1 + (z_j - zeta_j) / (z_i - z_j)),

    so |t_i - 1 / L_i| <= |t_i| (exp(x_i) - 1) for exact t_i, with
    x_i = sum_(j != i) (rho_i + rho_j) / (|z_i - z_j| - rho_j).  The computed
    t_i add their rounding tau_i (``_index_terms``), and the two sums of E
    at most 2 D eps.
    """
    z, rho = np.asarray(points, dtype=complex), np.asarray(radii, dtype=float)
    t, tau = _index_terms(f, r, z)
    gap = np.abs(z[:, None] - z) - rho
    np.fill_diagonal(gap, np.inf)
    if not (gap > 0).all() or tau.max() >= 1:
        return np.inf
    x = ((rho[:, None] + rho) / gap).sum(axis=1)
    share = np.abs(t) / np.abs(t).sum()
    return float(share @ ((np.expm1(x) + tau) / (1 - tau))) + 2 * len(z) * EPS
