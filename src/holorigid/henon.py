"""Generalized Henon maps on C^2 and their saddle periodic points.

A generalized Henon map is (x, y) -> (y, p(y) - delta * x) with deg p >= 2
and delta != 0 (the Jacobian determinant is delta, so the map is a
polynomial automorphism).  Finite compositions of such maps always carry a
saddle periodic point; finding one, with a nonvanishing weight cocycle,
yields an Unbounded certificate through the boundedness obstruction.
The reduction of a general polynomial automorphism to Henon factors is not
performed here: callers supply the composition directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DEFAULT_MAX_TERMS,
    PolyMap,
    SearchConfig,
    companion_roots,
    classify,
    periodic_orbits,
)
from .errors import PreconditionError
from .rigidity import (
    INAPPLICABLE,
    NO_OBSTRUCTION,
    UNBOUNDED,
    ObstructionCertificate,
    certify_bounded,
)

ASSUME_REDUCTION_SUPPLIED = (
    "the verdict concerns the supplied Henon composition; if it stands in "
    "for a more general polynomial automorphism, the reduction carrying a "
    "bounded weighted operator to the composition is a user-supplied "
    "hypothesis on the ambient space V"
)


@dataclass(frozen=True)
class GeneralizedHenon:
    """(x, y) -> (y, p(y) - delta * x), deg p >= 2, delta != 0."""

    p_coeffs: tuple  # ascending coefficients of p
    delta: complex

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.p_coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if len(coeffs) < 3:
            raise PreconditionError("Henon polynomial must have degree >= 2")
        if complex(self.delta) == 0:
            raise PreconditionError("delta must be nonzero (invertibility)")
        object.__setattr__(self, "p_coeffs", coeffs)
        object.__setattr__(self, "delta", complex(self.delta))

    @property
    def degree(self) -> int:
        return len(self.p_coeffs) - 1

    def polymap(self) -> PolyMap:
        second = {(0, k): c for k, c in enumerate(self.p_coeffs) if c != 0}
        second[(1, 0)] = second.get((1, 0), 0j) - self.delta
        return PolyMap(2, ({(0, 1): 1.0 + 0j}, second))

    def __call__(self, z) -> np.ndarray:
        x, y = complex(z[0]), complex(z[1])
        p_y = 0j
        for c in reversed(self.p_coeffs):
            p_y = p_y * y + c
        return np.array([y, p_y - self.delta * x])

    def p_derivative(self, y: complex) -> complex:
        out = 0j
        for k in range(self.degree, 0, -1):
            out = out * y + k * self.p_coeffs[k]
        return out


@dataclass(frozen=True)
class HenonComposition:
    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise PreconditionError("composition needs at least one factor")
        object.__setattr__(self, "factors", factors)

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        for fac in self.factors:
            z = fac(z)
        return z

    @property
    def jacobian_determinant(self) -> complex:
        out = 1.0 + 0j
        for fac in self.factors:
            out *= fac.delta
        return out


def to_polymap(h: HenonComposition, max_terms=DEFAULT_MAX_TERMS) -> PolyMap:
    """Explicit coefficient tables of the composition (may overflow the cap)."""
    out = h.factors[0].polymap()
    for fac in h.factors[1:]:
        out = fac.polymap().compose(out, max_terms)
    return out


def fixed_points(h: GeneralizedHenon):
    """Fixed points of a single factor with multipliers and stability.

    The first component forces x = y, so fixed points are (t, t) with
    p(t) - (1 + delta) t = 0; the Jacobian there is [[0, 1],
    [-delta, p'(t)]], whose eigenvalues solve mu^2 - p'(t) mu + delta = 0.
    """
    coeffs = np.array(h.p_coeffs, dtype=complex)
    coeffs[1] -= 1.0 + h.delta
    out = []
    for t in companion_roots(coeffs):
        jac = np.array([[0.0, 1.0], [-h.delta, h.p_derivative(t)]])
        mults = tuple(sorted(np.linalg.eigvals(jac),
                             key=lambda z: (z.real, z.imag)))
        out.append((np.array([t, t]), mults, classify(mults)))
    return out


def saddle_certificate(h: HenonComposition, u=None, r_max: int = 4,
                       config: SearchConfig = SearchConfig(starts=200)
                       ) -> ObstructionCertificate:
    """Search periods 1..r_max for a saddle orbit and certify unboundedness.

    Every period runs one Newton multistart on f^r with the same budget,
    ``config.starts`` starts drawn from ``config.seed``.  The first saddle
    with nonvanishing cocycle gives Unbounded; saddles with vanishing
    cocycle leave an Inapplicable record; no saddle found is NoObstruction
    with an explicit incompleteness flag (the multistart search is not
    exhaustive).
    """
    fm = to_polymap(h)
    vanished = None
    for r, orbits, _ in periodic_orbits(fm, r_max, u, config):
        for orbit in orbits:
            if orbit.stability != "saddle":
                continue
            cert = certify_bounded(fm, u, orbit)
            witness = dict(cert.witness)
            witness["henon_factors"] = len(h.factors)
            witness["jacobian_determinant"] = h.jacobian_determinant
            witness["searched_period"] = r
            cert = ObstructionCertificate(
                cert.verdict, witness,
                cert.assumptions + (ASSUME_REDUCTION_SUPPLIED,),
                cert.tolerances)
            if cert.verdict == UNBOUNDED:
                return cert
            if cert.verdict == INAPPLICABLE and vanished is None:
                vanished = cert
    if vanished is not None:
        return vanished
    witness = {
        "searched_r_max": r_max,
        "search_complete": False,
        "note": ("no saddle orbit found up to the searched period; saddles "
                 "exist for Henon compositions, so extend the budget"),
    }
    return ObstructionCertificate(NO_OBSTRUCTION, witness,
                                  ("search is heuristic",),
                                  {"starts": config.starts, "r_max": r_max})
