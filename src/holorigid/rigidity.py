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

from . import dynamics
from .dynamics import (
    AllPoints,
    DEDUP_RADIUS,
    GENERIC_POINT,
    PeriodicOrbit,
    PolyFunc,
    PolyMap,
    _coeffs_1d,
    cluster_points,
    cocycle_poly,
    companion_roots,
    make_orbit,
    orbit_points,
    periodic_orbits,
    periodic_points_1d,
    weight_cocycle,
)
from .errors import OrderUndeterminedError, PreconditionError
from .jets import Jet, multi_indices
from .sphere import first_near_best

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


def _multiplier_tolerances() -> dict:
    """The tolerances block of every multiplier certificate."""
    return {"tol_class": dynamics.TOL_CLASS, "tol_weight": TOL_WEIGHT,
            "tol_orbit": dynamics.TOL_ORBIT}


def _multiplier_certificate(f, u, orbits, verdict, bands, note):
    """A verdict from the largest multiplier moduli of the orbits.

    An orbit obstructs when its cocycle clears TOL_WEIGHT and its largest
    |multiplier| is in ``bands``; the witness is the first of these
    within TIE_TOL of the largest modulus, so that ties up to rounding, such
    as the points of one orbit or of conjugate orbits, go by orbit order.
    Otherwise the first orbit with a vanishing cocycle gives Inapplicable
    with ``note``, and otherwise the first orbit gives NoObstruction.  Only
    the witness orbit is verified and encoded.
    """
    if not orbits:
        return ObstructionCertificate(
            NO_OBSTRUCTION,
            {"orbits_found": 0, "note": "no periodic orbits available to test"},
            (ASSUME_GRADED_IMAGE,), {})
    cocycles = [weight_cocycle(u, orbit.points) for orbit in orbits]
    worst = [max(orbit.multipliers, key=abs, default=0j) for orbit in orbits]
    hits = [i for i, (u_r, w) in enumerate(zip(cocycles, worst))
            if abs(u_r) > TOL_WEIGHT and dynamics._modulus_band(abs(w)) in bands]
    if hits:
        k = hits[first_near_best(np.nan_to_num([abs(worst[i]) for i in hits]))]
    else:
        k = next((i for i, u_r in enumerate(cocycles)
                  if abs(u_r) <= TOL_WEIGHT), 0)
    dynamics._closed_walk(f, orbits[k].points[0], orbits[k].period)
    witness = _orbit_witness(orbits[k], cocycles[k])
    assumptions = (ASSUME_GRADED_IMAGE, ASSUME_CONTINUOUS_INCLUSION)
    tols = _multiplier_tolerances()
    if hits:
        witness["eigenvalue"] = complex(worst[k])
        witness["abs_eigenvalue"] = abs(worst[k])
        return ObstructionCertificate(verdict, witness, assumptions, tols)
    if abs(cocycles[k]) <= TOL_WEIGHT:
        witness["note"] = note
        return ObstructionCertificate(INAPPLICABLE, witness, assumptions, tols)
    return ObstructionCertificate(NO_OBSTRUCTION, witness, assumptions, tols)


def certify_bounded(f: PolyMap, u, *orbits: PeriodicOrbit) -> ObstructionCertificate:
    """Boundedness obstruction from the strongest of the periodic orbits.

    A multiplier of modulus > 1 with u_r(p) != 0 yields Unbounded; a
    vanishing cocycle yields Inapplicable (for one variable the growth
    diagnostic covers that regime); otherwise NoObstruction.
    """
    note = ("weight cocycle vanishes on the orbit; the eigenvalue bound does "
            "not apply" + (" (see the one-variable vanishing-weight growth "
                           "diagnostic)" if f.dim == 1 else ""))
    return _multiplier_certificate(f, u, orbits, UNBOUNDED, ("above",), note)


def certify_compact(f: PolyMap, u, *orbits: PeriodicOrbit) -> ObstructionCertificate:
    """Compactness obstruction: any multiplier of modulus >= 1 suffices."""
    return _multiplier_certificate(f, u, orbits, NON_COMPACT, ("at", "above"),
                                   "weight cocycle vanishes on the orbit")


def _periodic_point_certificate(verdict, dim_assumption, found_orbits,
                                search_complete):
    tols = {"tol_orbit": dynamics.TOL_ORBIT}
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


def certify_hypercyclic(found_orbits, search_complete=False) -> ObstructionCertificate:
    """Any periodic orbit rules out hypercyclicity (dim V >= 1)."""
    return _periodic_point_certificate(NOT_HYPERCYCLIC, ASSUME_DIM_GE_1,
                                       tuple(found_orbits), search_complete)


def certify_supercyclic(found_orbits, search_complete=False) -> ObstructionCertificate:
    """Any periodic orbit rules out supercyclicity once dim V >= 2."""
    return _periodic_point_certificate(NOT_SUPERCYCLIC, ASSUME_DIM_GE_2,
                                       tuple(found_orbits), search_complete)


def certify_cyclic(f: PolyMap, u, r: int, lambda_levels=None,
                   points=None) -> ObstructionCertificate:
    """Cyclicity obstruction: more than r points on one u_r level set.

    For one-variable polynomial symbols the period-r points come from
    periodic_points_1d: all deg(f)^r roots of f^r(z) - z when their Newton
    disks are pairwise disjoint.  For other symbols the caller must supply
    the point list, and a point f^r moves raises OrbitError.  Points are
    counted as distinct values; root multiplicity > 1 is flagged in the
    witness without being interpreted.
    """
    assumptions = (ASSUME_EVALUATIONS_INDEPENDENT,)
    tols = {"tol_level_scale": TOL_LEVEL_SCALE,
            "tol_orbit": dynamics.TOL_ORBIT}
    multiplicity_flags = []
    if points is None:
        if f.dim != 1:
            raise PreconditionError(
                "the cyclic obstruction counts every periodic point, and "
                "only a one-variable polynomial has them all enumerated")
        detail = periodic_points_1d(f, r, detail=True)
        if isinstance(detail, AllPoints):
            return _all_points_cyclic(f, u, r, assumptions, tols)
        points = [np.array([z]) for z in detail.points]
        multiplicity_flags = list(detail.multiplicities)
    else:
        points = [dynamics._closed_walk(f, p, r)[0][0] for p in points]

    values = [weight_cocycle(u, orbit_points(f, p, r)) for p in points]
    if lambda_levels is not None:
        pairs = [(lam, [i for i, v in enumerate(values)
                        if abs(v - lam) <= TOL_LEVEL_SCALE * (1.0 + abs(lam))])
                 for lam in map(complex, lambda_levels)]
    else:
        pairs = [(values[cl[0]], cl) for cl in cluster_points(values, TOL_LEVEL_SCALE)]

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
        if dynamics._modulus_band(abs(a)) == "above":
            p = b / (1.0 - a)
            orbit = make_orbit(f, [p], 1)
            return AffineVerdict(True, a, b, True, _NO_BOUNDED_STATEMENT,
                                 orbit, 1)
        return AffineVerdict(True, a, b, False,
                             "affine symbol with |a| <= 1: consistent with "
                             "boundedness", None, 0)
    for r, orbits, _ in periodic_orbits(f, r_max):
        for orbit in orbits:
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
    of exponential terms, so |f'(p)| in the "above" modulus band certifies
    unboundedness for any space with continuous inclusion.
    """

    m: int
    quad_coeff: float
    obstruction: bool
    derivative: complex
    defer_to_bounded: bool = False


def growth_diagnostic_1d(f: PolyMap, u_jet: Jet, p) -> GrowthDiagnostic:
    """Order of vanishing of the weight against |f'(p)| at a fixed point."""
    if f.dim != 1 or u_jet.dim != 1:
        raise PreconditionError("growth diagnostic is one-variable only")
    p = complex(np.atleast_1d(np.asarray(p, dtype=complex))[0])
    fp = complex(make_orbit(f, [p], 1).multipliers[0])  # f'(p), once p closes
    order = u_jet.order()
    if order is None:
        raise OrderUndeterminedError(
            f"order undetermined at cap {u_jet.cap}: weight jet vanishes"
        )
    if order == 0:
        return GrowthDiagnostic(0, 0.0, False, fp, defer_to_bounded=True)
    quad = 0.5 * order * (math.log(abs(fp)) if abs(fp) > 0 else -math.inf)
    return GrowthDiagnostic(order, quad, dynamics._modulus_band(abs(fp)) == "above", fp)


class DualityFlags(NamedTuple):
    image_cond: bool
    kernel_cond: bool


def duality_check(L, B, d=None, n=None) -> DualityFlags:
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
    # np.linalg.norm(aug, 2) is the largest of these same singular values
    s_aug = np.linalg.svd(aug, compute_uv=False)
    cut = TOL_RANK * max(s_aug.max(initial=0.0), 1e-300)
    rank_b = int(np.sum(np.linalg.svd(B, compute_uv=False) > cut)) if B.size else 0
    rank_aug = int(np.sum(s_aug > cut))
    image_cond = rank_b == rank_aug

    # annihilator of span(B): functionals c with c^T (W B) = 0, i.e. the
    # null space of (W B)^T under the plain (bilinear) product
    wb = w[:, None] * B
    m = wb.T
    if m.size:
        _, s, vh = np.linalg.svd(m, full_matrices=True)
        rank_m = int(np.sum(s > TOL_RANK * max(s[0] if len(s) else 0.0, 1e-300)))
        null_basis = vh[rank_m:, :].conj().T  # columns y with m @ y = 0
    else:
        null_basis = np.eye(B.shape[0], dtype=complex)
    if null_basis.shape[1] == 0:
        kernel_cond = True
    else:
        # dual map kills the annihilator iff L^T W y = 0 for every such y
        resid = L.T @ (w[:, None] * null_basis)
        scale = max(np.linalg.norm(w[:, None] * L, 2), 1e-300)
        kernel_cond = bool(np.linalg.norm(resid, 2) <= 10 * TOL_RANK * scale)
    return DualityFlags(image_cond, kernel_cond)
