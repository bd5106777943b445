"""Obstruction certificates from local dynamical data.

Each certificate records a verdict, the witness data it rests on, and the
hypotheses it is conditional on.  The mechanisms:

* a periodic orbit with a multiplier of modulus > 1 and nonvanishing weight
  cocycle rules out boundedness (modulus >= 1 rules out compactness), given
  the graded-image condition for the ambient space; in one variable at
  degree >= 2 such an orbit always exists, and a search that misses it
  says so;
* any periodic point at all rules out hypercyclicity (dim V >= 1) and
  supercyclicity (dim V >= 2);
* more than r periodic points of period dividing r on one level set of the
  cocycle u_r rule out cyclicity, given linear independence of the point
  evaluations.

Every certificate reads the orbits it is given, and checks the ones its
verdict cites with ``dynamics.check_orbit``: nothing here searches.

A certificate never asserts the converse: NoObstruction means this toolkit
found nothing, not that the property holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dynamics
from .dynamics import (
    PeriodicOrbit,
    PolyFunc,
    PolyMap,
    cluster_points,
    first_near_best,
    orbit_points,
    weight_cocycle,
)
# unused here; bench/test_bench.py checks that tracing patches this binding
from .dynamics import periodic_points_1d  # noqa: F401
from .errors import PreconditionError
from .serialize import encode

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
HIGHER_PERIOD = (
    "f has degree >= 2, so it has infinitely many repelling cycles, and all "
    "but finitely many avoid the zeros of a weight that is not identically "
    "zero: a cycle this search did not reach obstructs boundedness and "
    "compactness"
)


@dataclass(frozen=True)
class ObstructionCertificate:
    """Machine-checkable verdict with witness data and explicit hypotheses."""

    verdict: str
    witness: dict
    assumptions: tuple
    tolerances: dict

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": encode(self.witness),
            "assumptions": list(self.assumptions),
            "tolerances": encode(self.tolerances),
        }


def _orbit_witness(orbit: PeriodicOrbit, u_r) -> dict:
    for name, values in (("multipliers", orbit.multipliers), ("u_r", (u_r,))):
        if not np.isfinite(values).all():
            raise PreconditionError(  # no verdict rests on an overflow
                f"the witness field {name!r} holds a non-finite number")
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
    the witness orbit is checked and encoded.  Where f is one-variable of
    degree >= 2 these two carry ``higher_period``: the theorem that an
    obstructing cycle exists past the orbits tested.
    """
    exhausted = ({"higher_period": HIGHER_PERIOD}
                 if f.dim == 1 and f.degree >= 2 else {})
    assumptions = (ASSUME_GRADED_IMAGE, ASSUME_CONTINUOUS_INCLUSION)
    tols = _multiplier_tolerances()
    if not orbits:
        return ObstructionCertificate(
            NO_OBSTRUCTION,
            {"orbits_found": 0, "note": "no periodic orbits available to test",
             **exhausted}, assumptions, tols)
    cocycles = [weight_cocycle(u, orbit.points) for orbit in orbits]
    worst = [max(orbit.multipliers, key=abs, default=0j) for orbit in orbits]
    hits = [i for i, (u_r, w) in enumerate(zip(cocycles, worst))
            if abs(u_r) > TOL_WEIGHT and dynamics._modulus_band(abs(w)) in bands]
    if hits:
        k = hits[first_near_best(np.nan_to_num([abs(worst[i]) for i in hits]))]
    else:
        k = next((i for i, u_r in enumerate(cocycles)
                  if abs(u_r) <= TOL_WEIGHT), 0)
    dynamics.check_orbit(f, orbits[k])
    witness = _orbit_witness(orbits[k], cocycles[k])
    if hits:
        witness["eigenvalue"] = complex(worst[k])
        witness["abs_eigenvalue"] = abs(worst[k])
        return ObstructionCertificate(verdict, witness, assumptions, tols)
    vanishing = abs(cocycles[k]) <= TOL_WEIGHT
    if vanishing:
        witness["note"] = note
    witness.update(exhausted)
    return ObstructionCertificate(INAPPLICABLE if vanishing else NO_OBSTRUCTION,
                                  witness, assumptions, tols)


def certify_bounded(f: PolyMap, u, *orbits: PeriodicOrbit) -> ObstructionCertificate:
    """Boundedness obstruction from the strongest of the periodic orbits.

    A multiplier of modulus > 1 with u_r(p) != 0 yields Unbounded; a
    vanishing cocycle yields Inapplicable; otherwise NoObstruction.
    """
    return _multiplier_certificate(
        f, u, orbits, UNBOUNDED, ("above",),
        "weight cocycle vanishes on the orbit; the eigenvalue bound does not apply")


def certify_compact(f: PolyMap, u, *orbits: PeriodicOrbit) -> ObstructionCertificate:
    """Compactness obstruction: any multiplier of modulus >= 1 suffices."""
    return _multiplier_certificate(f, u, orbits, NON_COMPACT, ("at", "above"),
                                   "weight cocycle vanishes on the orbit")


def _periodic_point_certificate(f, verdict, dim_assumption, found_orbits,
                                search_complete):
    """The verdict rests on the first orbit, checked on f."""
    tols = {"tol_orbit": dynamics.TOL_ORBIT}
    if found_orbits:
        first = found_orbits[0]
        dynamics.check_orbit(f, first)
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
    """Any periodic orbit of f rules out hypercyclicity (dim V >= 1)."""
    return _periodic_point_certificate(f, NOT_HYPERCYCLIC, ASSUME_DIM_GE_1,
                                       tuple(found_orbits), search_complete)


def certify_supercyclic(f: PolyMap, found_orbits,
                        search_complete=False) -> ObstructionCertificate:
    """Any periodic orbit of f rules out supercyclicity once dim V >= 2."""
    return _periodic_point_certificate(f, NOT_SUPERCYCLIC, ASSUME_DIM_GE_2,
                                       tuple(found_orbits), search_complete)


def certify_cyclic(f: PolyMap, u, r: int, *orbits: PeriodicOrbit,
                   lambda_levels=None) -> ObstructionCertificate:
    """Cyclicity obstruction: more than r points on one u_r level set.

    The points are the first points of ``orbits``, one verified orbit per
    point of period dividing r as ``dynamics.orbits_of_period`` gives them,
    and u_r is read off each cycle repeated r / period times; only the
    witness level's orbits are checked, so a hand-built one cannot carry
    it.  Where f^r is the identity (``dynamics._iterate_is_identity``)
    every point is periodic: the orbits are not read, and a generic level
    of a polynomial u_r is counted by its degree.
    """
    if r < 1 or any(r % orbit.period for orbit in orbits):
        raise PreconditionError(f"r = {r}: the cyclic obstruction needs "
                                f"r >= 1 and orbits of period dividing r")
    assumptions = (ASSUME_EVALUATIONS_INDEPENDENT,)
    tols = {"tol_level_scale": TOL_LEVEL_SCALE, "tol_orbit": dynamics.TOL_ORBIT}
    if dynamics._iterate_is_identity(f, r):
        return _all_points_cyclic(f, u, r, assumptions, tols)
    values = [weight_cocycle(u, o.points * (r // o.period)) for o in orbits]
    if lambda_levels is not None:
        pairs = [(lam, [i for i, v in enumerate(values)
                        if abs(v - lam) <= TOL_LEVEL_SCALE * (1.0 + abs(lam))])
                 for lam in map(complex, lambda_levels)]
    else:
        pairs = [(values[cl[0]], cl) for cl in cluster_points(values, TOL_LEVEL_SCALE)]

    witness = {"period_bound": r, "points_found": len(orbits),
               "levels": [{"lambda": lam, "count": len(members)}
                          for lam, members in pairs]}
    for lam, members in pairs:
        if len(members) > r:
            for i in members:
                dynamics.check_orbit(f, orbits[i])
            witness.update({"lambda": complex(lam), "count": len(members),
                            "level_points": [list(orbits[i].points[0]) for i in members]})
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
        # f = az + b with a a root of unity, so u o f^j has the leading term
        # of u times a^(j deg u): u_r has degree r deg u, and all but its
        # finitely many critical values are levels of that many points
        count = r * u.degree
        witness.update(count=count,
                       note="generic level set of the polynomial cocycle")
        return ObstructionCertificate(NOT_CYCLIC if count > r else NO_OBSTRUCTION,
                                      witness, assumptions, tols)
    witness["note"] = ("f^r is the identity but the weight is not polynomial; "
                       "level sets cannot be enumerated")
    return ObstructionCertificate(NO_OBSTRUCTION, witness, assumptions, tols)


class DualityFlags(NamedTuple):
    image_cond: bool
    kernel_cond: bool


def duality_check(L, B) -> DualityFlags:
    """Two equivalent formulations of the graded image condition.

    ``image_cond`` tests col(L) <= span(B) by rank comparison.
    ``kernel_cond`` tests that the annihilator of span(B) under the
    monomial-coefficient pairing <D, h> = D(h) lies in the kernel of the
    transposed (dual) map.  The two flags agree on well-conditioned data.

    L (..., rows, cols) and B (..., rows, width) may be stacks with equal
    leading axes: each step runs over the whole stack, and the flags are
    bool arrays of the leading shape.  One 2-D pair gives Python bools.
    """
    L = np.asarray(L, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if B.ndim < 2 or L.shape[:-1] != B.shape[:-1]:
        raise PreconditionError(
            f"inconsistent shapes: L {L.shape}, B {B.shape}"
        )
    rows = B.shape[-2]

    aug = np.concatenate([B, L], axis=-1)
    # np.linalg.norm(aug, 2) is the largest of these same singular values
    s_aug = np.linalg.svd(aug, compute_uv=False)
    cut = TOL_RANK * np.maximum(s_aug.max(axis=-1, initial=0.0), 1e-300)[..., None]
    rank_b = np.sum(np.linalg.svd(B, compute_uv=False) > cut, axis=-1) if B.size else 0
    image_cond = rank_b == np.sum(s_aug > cut, axis=-1)

    # annihilator of span(B): functionals c with c^T B = 0, i.e. the null
    # space of B^T under the plain (bilinear) product; its basis is the
    # columns of vh^H from rank_m on, the others masked to zero
    m = np.swapaxes(B, -1, -2)
    if m.size:
        _, s, vh = np.linalg.svd(m, full_matrices=True)
        cut_m = TOL_RANK * np.maximum(s.max(axis=-1, initial=0.0), 1e-300)
        rank_m = np.sum(s > cut_m[..., None], axis=-1)
        null_basis = np.swapaxes(vh.conj(), -1, -2) * (
            np.arange(rows) >= rank_m[..., None])[..., None, :]
    else:
        null_basis = np.eye(rows, dtype=complex)
    # dual map kills the annihilator iff L^T y = 0 for every such y; a
    # masked column adds a zero column, and an empty basis a zero residual
    resid = np.swapaxes(L, -1, -2) @ null_basis
    scale = np.maximum(np.linalg.norm(L, 2, axis=(-2, -1)), 1e-300)
    flags = DualityFlags(image_cond, np.linalg.norm(
        resid, 2, axis=(-2, -1)) <= 10 * TOL_RANK * scale)
    return DualityFlags(*map(bool, flags)) if L.ndim == 2 else flags
