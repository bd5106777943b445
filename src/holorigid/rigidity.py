"""Obstruction certificates from local dynamical data.

Each certificate records a verdict, the witness data it rests on, and the
hypotheses it is conditional on.  The mechanisms:

* a periodic orbit with a multiplier of modulus > 1 and nonvanishing weight
  cocycle rules out boundedness (modulus >= 1 rules out compactness), given
  the graded-image condition for the ambient space;
* any periodic point at all rules out hypercyclicity (dim V >= 1) and
  supercyclicity (dim V >= 2);
* more than r periodic points of period dividing r on one level set of the
  cocycle u_r rule out cyclicity, given linear independence of the point
  evaluations;
* when the weight vanishes at a fixed point of order m and |f'(p)| > 1, the
  quadratic-exponent growth |f'(p)|^(m k^2 / 2) of the k-step graded action
  outruns any exponential bound, so boundedness again fails (one variable).

A certificate never asserts the converse: NoObstruction means this toolkit
found nothing, not that the property holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import (
    AllPoints,
    DEDUP_RADIUS,
    GENERIC_POINT,
    PeriodicOrbit,
    PolyFunc,
    PolyMap,
    TOL_CLASS,
    TOL_ORBIT,
    _coeffs_1d,
    cluster_points,
    cocycle_poly,
    companion_roots,
    iterate_point,
    make_orbit,
    orbit_points,
    periodic_points_1d,
    weight_cocycle,
)
from .errors import OrbitError, OrderUndeterminedError, PreconditionError
from .jets import Jet, multi_indices

UNBOUNDED = "Unbounded"
NON_COMPACT = "NonCompact"
NOT_CYCLIC = "NotCyclic"
NOT_SUPERCYCLIC = "NotSupercyclic"
NOT_HYPERCYCLIC = "NotHypercyclic"
NO_OBSTRUCTION = "NoObstruction"
INAPPLICABLE = "Inapplicable"

TOL_WEIGHT = 1e-12
TOL_LEVEL_SCALE = 1e-7
TOL_RANK = 1e-9

ASSUME_GRADED_IMAGE = (
    "graded image condition for (V, f^r, u_r, p): the degree-n graded "
    "weighted pullback maps the full n-jet space into the subspace induced "
    "by V, for infinitely many n"
)
ASSUME_EVALUATIONS_INDEPENDENT = (
    "the point-evaluation functionals restricted to V are linearly independent"
)
ASSUME_DIM_GE_1 = "dim V >= 1"
ASSUME_DIM_GE_2 = "dim V >= 2"
ASSUME_CONTINUOUS_INCLUSION = (
    "V is a quasi-Banach space continuously included in the holomorphic functions"
)


@dataclass(frozen=True)
class ObstructionCertificate:
    """Machine-checkable verdict with witness data and explicit hypotheses."""

    verdict: str
    witness: dict
    assumptions: tuple
    tolerances: dict

    def to_json_dict(self) -> dict:
        from .serialize import encode

        return {
            "verdict": self.verdict,
            "witness": encode(self.witness),
            "assumptions": list(self.assumptions),
            "tolerances": encode(self.tolerances),
        }


def _orbit_witness(orbit: PeriodicOrbit, u_r) -> dict:
    return {
        "point": list(orbit.points[0]),
        "orbit": [list(p) for p in orbit.points],
        "period": orbit.period,
        "multipliers": list(orbit.multipliers),
        "stability": orbit.stability,
        "u_r": complex(u_r),
        "orbit_residual": orbit.residual,
    }


def _verify_orbit(f: PolyMap, orbit: PeriodicOrbit, tol_orbit: float):
    p = np.asarray(orbit.points[0], dtype=complex)
    res = np.linalg.norm(iterate_point(f, p, orbit.period) - p)
    if not res <= tol_orbit * (1.0 + np.linalg.norm(p)):  # NaN fails too
        raise OrbitError(f"orbit fails verification: residual {res:.3e}")


def _multiplier_certificate(f, u, orbit, verdict, obstructs, note,
                            tol_class, tol_weight, tol_orbit):
    """A verdict from the largest multiplier modulus on a verified orbit.

    A vanishing cocycle gives Inapplicable with ``note``; otherwise the
    verdict holds when ``obstructs(|worst multiplier|)``.
    """
    _verify_orbit(f, orbit, tol_orbit)
    u_r = weight_cocycle(u, [np.asarray(p) for p in orbit.points])
    tols = {"tol_class": tol_class, "tol_weight": tol_weight,
            "tol_orbit": tol_orbit}
    witness = _orbit_witness(orbit, u_r)
    assumptions = (ASSUME_GRADED_IMAGE, ASSUME_CONTINUOUS_INCLUSION)
    if abs(u_r) <= tol_weight:
        witness["note"] = note
        return ObstructionCertificate(INAPPLICABLE, witness, assumptions, tols)
    worst = max(orbit.multipliers, key=abs, default=0j)
    if obstructs(abs(worst)):
        witness["eigenvalue"] = complex(worst)
        witness["abs_eigenvalue"] = abs(worst)
        return ObstructionCertificate(verdict, witness, assumptions, tols)
    return ObstructionCertificate(NO_OBSTRUCTION, witness, assumptions, tols)


def certify_bounded(f: PolyMap, u, orbit: PeriodicOrbit,
                    tol_class=TOL_CLASS, tol_weight=TOL_WEIGHT,
                    tol_orbit=TOL_ORBIT) -> ObstructionCertificate:
    """Boundedness obstruction from a periodic orbit.

    A multiplier of modulus > 1 with u_r(p) != 0 yields Unbounded; a
    vanishing cocycle yields Inapplicable (for one variable the growth
    diagnostic covers that regime); otherwise NoObstruction.
    """
    note = ("weight cocycle vanishes on the orbit; the eigenvalue bound does "
            "not apply" + (" (see the one-variable vanishing-weight growth "
                           "diagnostic)" if f.dim == 1 else ""))
    return _multiplier_certificate(f, u, orbit, UNBOUNDED,
                                   lambda m: m > 1.0 + tol_class, note,
                                   tol_class, tol_weight, tol_orbit)


def certify_compact(f: PolyMap, u, orbit: PeriodicOrbit,
                    tol_class=TOL_CLASS, tol_weight=TOL_WEIGHT,
                    tol_orbit=TOL_ORBIT) -> ObstructionCertificate:
    """Compactness obstruction: any multiplier of modulus >= 1 suffices."""
    return _multiplier_certificate(f, u, orbit, NON_COMPACT,
                                   lambda m: m >= 1.0 - tol_class,
                                   "weight cocycle vanishes on the orbit",
                                   tol_class, tol_weight, tol_orbit)


def _periodic_point_certificate(verdict, dim_assumption, found_orbits,
                                search_complete):
    tols = {"tol_orbit": TOL_ORBIT}
    if found_orbits:
        first = found_orbits[0]
        witness = {
            "point": list(first.points[0]),
            "period": first.period,
            "orbits_found": len(found_orbits),
        }
        return ObstructionCertificate(verdict, witness, (dim_assumption,), tols)
    witness = {
        "orbits_found": 0,
        "search_complete": bool(search_complete),
        "note": ("no periodic points exist for this symbol"
                 if search_complete else
                 "no periodic orbit found; the search is not exhaustive, so "
                 "this is not a proof of absence"),
    }
    return ObstructionCertificate(NO_OBSTRUCTION, witness, (dim_assumption,), tols)


def certify_hypercyclic(f: PolyMap, found_orbits,
                        search_complete=False) -> ObstructionCertificate:
    """Any periodic orbit rules out hypercyclicity (dim V >= 1)."""
    return _periodic_point_certificate(NOT_HYPERCYCLIC, ASSUME_DIM_GE_1,
                                       tuple(found_orbits), search_complete)


def certify_supercyclic(f: PolyMap, found_orbits,
                        search_complete=False) -> ObstructionCertificate:
    """Any periodic orbit rules out supercyclicity once dim V >= 2."""
    return _periodic_point_certificate(NOT_SUPERCYCLIC, ASSUME_DIM_GE_2,
                                       tuple(found_orbits), search_complete)


def certify_cyclic(f: PolyMap, u, r: int, lambda_levels=None, points=None,
                   tol_level_scale=TOL_LEVEL_SCALE) -> ObstructionCertificate:
    """Cyclicity obstruction: more than r points on one u_r level set.

    For one-variable polynomial symbols the period-r points come from
    periodic_points_1d: all deg(f)^r roots of f^r(z) - z when their Newton
    disks are pairwise disjoint.  For other symbols the caller must supply
    the point list.  Points are counted as distinct values; root
    multiplicity > 1 is flagged in the witness without being interpreted.
    """
    assumptions = (ASSUME_EVALUATIONS_INDEPENDENT,)
    tols = {"tol_level_scale": tol_level_scale, "tol_orbit": TOL_ORBIT}
    multiplicity_flags = []
    if points is None:
        if f.dim != 1:
            raise PreconditionError(
                "complete periodic-point enumeration needs a one-variable "
                "polynomial; supply points= for other symbols"
            )
        detail = periodic_points_1d(f, r, detail=True)
        if isinstance(detail, AllPoints):
            return _all_points_cyclic(f, u, r, assumptions, tols)
        points = [np.array([z]) for z in detail.points]
        multiplicity_flags = [m for m in detail.multiplicities]
    else:
        points = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in points]

    values = [weight_cocycle(u, orbit_points(f, p, r)) for p in points]
    clusters = cluster_points(values, tol_level_scale)

    if lambda_levels is not None:
        levels = [complex(lam) for lam in lambda_levels]
        pairs = []
        for lam in levels:
            members = [i for i, v in enumerate(values)
                       if abs(v - lam) <= tol_level_scale * (1.0 + abs(lam))]
            pairs.append((lam, members))
    else:
        pairs = [(values[cl[0]], cl) for cl in clusters]

    witness = {
        "period_bound": r,
        "points_found": len(points),
        "levels": [{"lambda": lam, "count": len(members)}
                   for lam, members in pairs],
    }
    if any(m > 1 for m in multiplicity_flags):
        witness["multiplicity_flags"] = multiplicity_flags
    for lam, members in pairs:
        if len(members) > r:
            witness["lambda"] = complex(lam)
            witness["count"] = len(members)
            witness["level_points"] = [list(points[i]) for i in members]
            return ObstructionCertificate(NOT_CYCLIC, witness, assumptions, tols)
    return ObstructionCertificate(NO_OBSTRUCTION, witness, assumptions, tols)


def _all_points_cyclic(f, u, r, assumptions, tols):
    """f^r = id: every point is periodic, so level-set counts can be infinite."""
    witness = {"period_bound": r, "all_points": True}
    if u is None or (isinstance(u, PolyFunc) and u.degree == 0):
        lam = weight_cocycle(u, orbit_points(f, np.zeros(f.dim, dtype=complex), r))
        witness.update({"lambda": complex(lam), "count": None,
                        "count_infinite": True,
                        "note": "u_r is constant on all of the plane"})
        return ObstructionCertificate(NOT_CYCLIC, witness, assumptions, tols)
    if isinstance(u, PolyFunc):
        u_r = cocycle_poly(u, f, r)
        if u_r.degree == 0:
            witness.update({"lambda": complex(next(iter(u_r.terms.values()), 0j)),
                            "count": None, "count_infinite": True,
                            "note": "u_r is constant on all of the plane"})
            return ObstructionCertificate(NOT_CYCLIC, witness, assumptions, tols)
        # count distinct solutions of u_r(z) = lam at a generic level lam
        lam = u_r(np.array([GENERIC_POINT]))
        shifted = dict(u_r.terms)
        zero = (0,) * f.dim
        shifted[zero] = shifted.get(zero, 0j) - lam
        count = len(cluster_points(companion_roots(_coeffs_1d(shifted)),
                                   DEDUP_RADIUS))
        witness.update({"lambda": complex(lam), "count": count,
                        "note": "generic level set of the polynomial cocycle"})
        if count > r:
            return ObstructionCertificate(NOT_CYCLIC, witness, assumptions, tols)
        return ObstructionCertificate(NO_OBSTRUCTION, witness, assumptions, tols)
    witness["note"] = ("f^r is the identity but the weight is not polynomial; "
                       "level sets cannot be enumerated")
    return ObstructionCertificate(NO_OBSTRUCTION, witness, assumptions, tols)


@dataclass(frozen=True)
class AffineVerdict:
    """Outcome of the one-variable affine classification."""

    affine: bool
    a: complex | None
    b: complex | None
    obstructed: bool
    statement: str
    witness: PeriodicOrbit | None
    searched_r: int


_NO_BOUNDED_STATEMENT = (
    "no weighted composition operator with nonzero weight and this symbol is "
    "bounded on any infinite-dimensional quasi-Banach space continuously "
    "included in the entire functions"
)


def affine_verdict_1d(f: PolyMap, r_max: int = 8) -> AffineVerdict:
    """Classify a one-variable polynomial symbol by the affine dichotomy.

    Degree >= 2 forces a repelling periodic orbit (returned as the witness);
    affine symbols obstruct exactly when |a| > 1.
    """
    if f.dim != 1:
        raise PreconditionError("affine_verdict_1d needs a one-variable map")
    table = f.components[0]
    a = complex(table.get((1,), 0j))
    b = complex(table.get((0,), 0j))
    if f.degree <= 1:
        if abs(a) > 1.0 + TOL_CLASS:
            p = b / (1.0 - a)
            orbit = make_orbit(f, [p], 1)
            return AffineVerdict(True, a, b, True, _NO_BOUNDED_STATEMENT,
                                 orbit, 1)
        return AffineVerdict(True, a, b, False,
                             "affine symbol with |a| <= 1: consistent with "
                             "boundedness", None, 0)
    for r in range(1, r_max + 1):
        pts = periodic_points_1d(f, r)
        if isinstance(pts, AllPoints):
            continue
        for z in pts:
            orbit = make_orbit(f, [z], r)
            if orbit.stability == "repelling":
                return AffineVerdict(False, None, None, True,
                                     _NO_BOUNDED_STATEMENT, orbit, r)
    # degree >= 2 always has a repelling orbit; reaching here means the
    # scan budget was too small
    return AffineVerdict(False, None, None, True,
                         _NO_BOUNDED_STATEMENT + " (witness search exhausted "
                         f"at period {r_max}; a repelling orbit exists at "
                         "some higher period)", None, r_max)


@dataclass(frozen=True)
class GrowthDiagnostic:
    """Vanishing-weight growth data at a fixed point (one variable).

    The k-step graded action carries the factor |f'(p)|^(m k^2 / 2) on top
    of exponential terms, so a positive quadratic coefficient certifies
    unboundedness for any space with continuous inclusion.
    """

    m: int
    n0: int
    quad_coeff: float
    obstruction: bool
    derivative: complex
    defer_to_bounded: bool = False


def growth_diagnostic_1d(f: PolyMap, u_jet: Jet, p,
                         n0: int = 0, tol_orbit=TOL_ORBIT) -> GrowthDiagnostic:
    """Order of vanishing of the weight against |f'(p)| at a fixed point."""
    if f.dim != 1 or u_jet.dim != 1:
        raise PreconditionError("growth diagnostic is one-variable only")
    p = complex(np.atleast_1d(np.asarray(p, dtype=complex))[0])
    res = abs(f([p])[0] - p)
    if res > tol_orbit * (1.0 + abs(p)):
        raise OrbitError(f"p is not fixed: residual {res:.3e}")
    scale = max([abs(c) for c in u_jet.coeffs.values()], default=0.0)
    order = u_jet.order(tol=1e-12 * max(1.0, scale))
    if order is None:
        raise OrderUndeterminedError(
            f"order undetermined at cap {u_jet.cap}: weight jet vanishes"
        )
    fp = complex(f.jacobian([p])[0, 0])
    if order == 0:
        return GrowthDiagnostic(0, n0, 0.0, False, fp, defer_to_bounded=True)
    quad = 0.5 * order * (math.log(abs(fp)) if abs(fp) > 0 else -math.inf)
    return GrowthDiagnostic(order, n0, quad, quad > 0, fp)


class DualityFlags(NamedTuple):
    image_cond: bool
    kernel_cond: bool


def duality_check(L, B, d=None, n=None, tol_rank=TOL_RANK) -> DualityFlags:
    """Two equivalent formulations of the graded image condition.

    ``image_cond`` tests col(L) <= span(B) by rank comparison.
    ``kernel_cond`` tests that the annihilator of span(B) under the
    monomial-coefficient pairing <D, h> = D(h) lies in the kernel of the
    transposed (dual) map.  When d and n are given the pairing carries the
    factorial weights of degree-n multi-indices; the two flags agree either
    way on well-conditioned data.
    """
    L = np.asarray(L, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if B.ndim != 2 or L.ndim != 2 or B.shape[0] != L.shape[0]:
        raise PreconditionError(
            f"inconsistent shapes: L {L.shape}, B {B.shape}"
        )
    if d is not None and n is not None:
        w = np.array([math.prod(math.factorial(a) for a in alpha)
                      for alpha in multi_indices(d, n)], dtype=float)
        if len(w) != B.shape[0]:
            raise PreconditionError("pairing weights do not match row count")
    else:
        w = np.ones(B.shape[0])

    aug = np.concatenate([B, L], axis=1)
    smax = np.linalg.norm(aug, 2) if aug.size else 0.0
    cut = tol_rank * max(smax, 1e-300)
    rank_b = int(np.sum(np.linalg.svd(B, compute_uv=False) > cut)) if B.size else 0
    rank_aug = int(np.sum(np.linalg.svd(aug, compute_uv=False) > cut))
    image_cond = rank_b == rank_aug

    # annihilator of span(B): functionals c with c^T (W B) = 0, i.e. the
    # null space of (W B)^T under the plain (bilinear) product
    wb = w[:, None] * B
    m = wb.T
    if m.size:
        _, s, vh = np.linalg.svd(m, full_matrices=True)
        rank_m = int(np.sum(s > tol_rank * max(s[0] if len(s) else 0.0, 1e-300)))
        null_basis = vh[rank_m:, :].conj().T  # columns y with m @ y = 0
    else:
        null_basis = np.eye(B.shape[0], dtype=complex)
    if null_basis.shape[1] == 0:
        kernel_cond = True
    else:
        # dual map kills the annihilator iff L^T W y = 0 for every such y
        resid = L.T @ (w[:, None] * null_basis)
        scale = max(np.linalg.norm(w[:, None] * L, 2), 1e-300)
        kernel_cond = bool(np.linalg.norm(resid, 2) <= 10 * tol_rank * scale)
    return DualityFlags(image_cond, kernel_cond)
