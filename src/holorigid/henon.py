"""Generalized Henon maps on C^2 and their compositions.

A generalized Henon map is (x, y) -> (y, p(y) - delta * x) with deg p >= 2
and delta != 0 (the Jacobian determinant is delta, so the map is a
polynomial automorphism).  Finite compositions of such maps always carry a
saddle periodic point; finding one, with a nonvanishing weight cocycle,
yields an Unbounded certificate through the boundedness obstruction, which
searches the composition's coefficient tables like any map on C^2.
The reduction of a general polynomial automorphism to Henon factors is not
performed here: callers supply the composition directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import PolyMap, SearchConfig, periodic_orbits
from .errors import PreconditionError
from .rigidity import ObstructionCertificate, certify_bounded

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


def _factor_certificate(cert: ObstructionCertificate,
                        h: HenonComposition) -> ObstructionCertificate:
    """``cert`` on the map of h, with its factor count, its Jacobian
    determinant and the reduction hypothesis: every certificate built from
    a factor document."""
    return replace(cert, witness={
        **cert.witness, "henon_factors": len(h.factors),
        "jacobian_determinant": h.jacobian_determinant},
        assumptions=cert.assumptions + (ASSUME_REDUCTION_SUPPLIED,))


def saddle_certificate(h: HenonComposition, u=None, r_max: int = 4,
                       config: SearchConfig = SearchConfig(starts=200)
                       ) -> ObstructionCertificate:
    """``certify_bounded`` over every periodic orbit of period 1..r_max.

    Every period runs one Newton multistart on f^r with the same budget,
    ``config.starts`` starts drawn from ``config.seed``, as ``certify
    --mode bounded`` does, so the witness is the orbit of largest
    obstructing |multiplier| over all periods.  Henon compositions carry
    saddle orbits, but the multistart is not exhaustive: NoObstruction
    means none was found.
    """
    fm = to_polymap(h)
    orbits = periodic_orbits(fm, r_max, config)[0]
    return _factor_certificate(certify_bounded(fm, u, *orbits), h)
