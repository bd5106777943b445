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

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    PolyMap,
    SearchConfig,
    periodic_orbits,
)
from .errors import PreconditionError
from .rigidity import (
    INAPPLICABLE,
    NO_OBSTRUCTION,
    UNBOUNDED,
    ObstructionCertificate,
    _multiplier_tolerances,
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


def to_polymap(h: HenonComposition) -> PolyMap:
    """Explicit coefficient tables of the composition (may overflow the cap)."""
    out = h.factors[0].polymap()
    for fac in h.factors[1:]:
        out = fac.polymap().compose(out)
    return out


def saddle_certificate(h: HenonComposition, u=None, r_max: int = 4,
                       config: SearchConfig = SearchConfig(starts=200)
                       ) -> ObstructionCertificate:
    """Search periods 1..r_max for saddle orbits and certify unboundedness.

    Every period runs one Newton multistart on f^r with the same budget,
    ``config.starts`` starts drawn from ``config.seed``, and hands its saddle
    orbits to ``certify_bounded``.  The first period giving Unbounded wins,
    else the first giving Inapplicable; no saddle found is NoObstruction
    with an explicit incompleteness flag (the multistart is not exhaustive).
    """
    fm = to_polymap(h)
    vanished = None
    for r, orbits, _ in periodic_orbits(fm, r_max, config):
        saddles = [orbit for orbit in orbits if orbit.stability == "saddle"]
        cert = certify_bounded(fm, u, *saddles)
        cert = replace(cert, witness={
            **cert.witness, "henon_factors": len(h.factors),
            "jacobian_determinant": h.jacobian_determinant, "searched_period": r},
            assumptions=cert.assumptions + (ASSUME_REDUCTION_SUPPLIED,))
        if cert.verdict == UNBOUNDED:
            return cert
        if cert.verdict == INAPPLICABLE and vanished is None:
            vanished = cert
    if vanished is not None:
        return vanished
    witness = {
        "searched_r_max": r_max,
        "starts": config.starts,
        "search_complete": False,
        "note": ("no saddle orbit found up to the searched period; saddles "
                 "exist for Henon compositions, so extend the budget"),
    }
    return ObstructionCertificate(NO_OBSTRUCTION, witness, ("search is heuristic",),
                                  _multiplier_tolerances())
