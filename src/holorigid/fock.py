"""Truncated Fock-space model: explicit matrices for u * (h o f).

The model space is spanned by the orthonormal monomials e_alpha =
z^alpha / sqrt(alpha!) with |alpha| <= N.  Finite sections only ever give
lower bounds on operator norms, so the module claims divergence (evidence
of unboundedness) but never boundedness.  Every column records whether
coefficients beyond the cap were discarded, and the restriction-norm
profile exposes the two regimes: geometric decay for contracting symbols,
the |alpha|^n lower bound for expanding ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientDegreeError, StructureError
from .jets import (
    Jet,
    JetMap,
    PowerCache,
    graded_basis,
    multi_indices,
    table_multiply,
)
from .dynamics import PolyFunc, PolyMap

TRUNCATION_COEFF_TOL = 1e-14
DEFAULT_CAP_1D = 40
DEFAULT_CAP_2D = 12


def sqrt_factorial(alpha) -> float:
    return math.sqrt(math.prod(math.factorial(a) for a in alpha))


@dataclass(frozen=True)
class TruncatedSpaceModel:
    """Monomial model of a Fock space restricted to degree <= N."""

    d: int
    N: int


@dataclass(frozen=True)
class OperatorMatrix:
    """Matrix of the weighted composition operator on the truncated basis.

    ``top_degree[j]`` is the highest degree of u * f^beta_j with a
    coefficient of modulus > 1e-14 (0 if none); loss flags derive from it.
    """

    entries: np.ndarray
    basis: tuple
    N: int
    d: int
    top_degree: tuple
    symbol_value_at_zero: tuple

    @property
    def degrees(self) -> np.ndarray:
        return np.array([sum(a) for a in self.basis])

    @property
    def column_loss(self) -> tuple:
        return tuple(t > self.N for t in self.top_degree)

    @property
    def truncation_loss(self) -> bool:
        return max(self.top_degree) > self.N

    def fixes_origin(self) -> bool:
        return max(abs(v) for v in self.symbol_value_at_zero) <= 1e-12


def coefficient_matrix(u: Jet, f: JetMap, N: int) -> OperatorMatrix:
    """Unweighted matrix: entry (alpha, beta) is the z^alpha coefficient
    of u * f^beta.  This is the action in plain Taylor coordinates.

    Power products of the component jets themselves (constants included)
    are exact on every retained degree, so no base-point gymnastics are
    needed and f(0) != 0 is handled transparently.
    """
    if u.dim != f.dim_in or f.dim_in != f.dim_out:
        raise StructureError("weight and self-map jets must share one dimension")
    cap = min(u.cap, f.cap)
    if cap < N:
        raise InsufficientDegreeError(
            f"insufficient jet degree: cap {cap} < N = {N}"
        )
    u = u.truncated(cap)
    powers = PowerCache([c.truncated(cap).coeffs for c in f.components],
                        f.dim_in, cap=cap)
    basis = graded_basis(f.dim_in, N)
    index = {a: i for i, a in enumerate(basis)}
    m = np.zeros((len(basis), len(basis)), dtype=complex)
    top = []
    for j, beta in enumerate(basis):
        col = table_multiply(u.coeffs, powers.power(beta), cap)
        top.append(max((sum(a) for a, c in col.items()
                        if abs(c) > TRUNCATION_COEFF_TOL), default=0))
        for alpha, c in col.items():
            if sum(alpha) <= N:
                m[index[alpha], j] = c
    return OperatorMatrix(m, basis, N, f.dim_in, tuple(top), f.value())


def operator_matrix(u: Jet, f: JetMap, N: int) -> OperatorMatrix:
    """Matrix on the orthonormal basis e_alpha = z^alpha / sqrt(alpha!).

    entry(alpha, beta) = [z^alpha](u * f^beta) * sqrt(alpha!) / sqrt(beta!).
    Discarded coefficients of modulus > 1e-14 set the per-column loss flag;
    loss is reported, not fatal, because finite sections are only ever used
    for norm lower bounds.
    """
    raw = coefficient_matrix(u, f, N)
    w = np.array([sqrt_factorial(a) for a in raw.basis])
    return replace(raw, entries=raw.entries * w[:, None] / w[None, :])


def jets_from_polys(u, f: PolyMap, N: int):
    """Jets at 0 of a polynomial weight and map, at a cap that loses nothing.

    The product u * f^beta has degree at most deg(u) + N * deg(f); expanding
    to that cap makes truncation-loss detection exact.
    """
    if u is None:
        u = PolyFunc.one(f.dim)
    cap = max(N, u.degree + N * max(f.degree, 1))
    base = (0j,) * f.dim
    return u.to_jet(base, cap), f.to_jetmap(base, cap)


def operator_matrix_from_polys(u, f: PolyMap, N: int) -> OperatorMatrix:
    uj, fj = jets_from_polys(u, f, N)
    return operator_matrix(uj, fj, N)


def truncated_norm(m: OperatorMatrix) -> float:
    """Largest singular value of the finite section."""
    if m.entries.size == 0:
        return 0.0
    return float(np.linalg.norm(m.entries, 2))


@dataclass(frozen=True)
class RestrictionProfile:
    """Norms of the sections restricted to columns of degree >= n."""

    levels: tuple  # (n, norm, lossy) triples
    fixes_origin: bool
    invariance_warning: str | None


def restriction_norm_profile(m: OperatorMatrix) -> RestrictionProfile:
    """Operator norm of the submatrix keeping columns with |beta| >= n.

    This is the finite section of the operator restricted to the functions
    vanishing to order n at 0.  When the symbol fixes 0 those subspaces are
    invariant and the profile mirrors the eigenvalue bound; otherwise the
    profile is still emitted, with a warning flag.
    """
    starts = np.searchsorted(m.degrees, np.arange(m.N + 1))
    rows = tuple((n, float(np.linalg.norm(m.entries[:, k:], 2)),
                  any(m.column_loss[k:])) for n, k in enumerate(starts))
    fixes = m.fixes_origin()
    warning = None if fixes else (
        "symbol does not fix 0: the order-n subspaces are not invariant and "
        "the profile is only a family of section norms"
    )
    return RestrictionProfile(rows, fixes, warning)


def norm_sweep(m: OperatorMatrix) -> tuple:
    """(N, truncated_norm, lossy) rows for the sections N = 0..m.N.

    The basis ascends in degree, so section N is the leading block of m;
    when m's jets lose nothing (``jets_from_polys``) that block equals the
    matrix built at cap N, and so does its loss flag, read from top_degree.
    """
    ends = np.searchsorted(m.degrees, np.arange(m.N + 1), side="right")
    return tuple((n, float(np.linalg.norm(m.entries[:k, :k], 2)),
                  max(m.top_degree[:k]) > n) for n, k in enumerate(ends))


def graded_level_block(m: OperatorMatrix, from_level: int, to_level: int) -> np.ndarray:
    """Submatrix mapping degree-``from_level`` columns to degree-``to_level`` rows."""
    return m.entries[np.ix_(m.degrees == to_level, m.degrees == from_level)]


def block_growth_norms(u: Jet, f: JetMap, n: int, k_max: int, N: int,
                       weighted: bool = False) -> tuple:
    """Norms of k-fold products of consecutive graded level blocks.

    The weight's vanishing order m shifts each block from level j to level
    j + m.  In Taylor coordinates (weighted=False) the k-step product for
    u = u_m z^m, f = lam z is exactly |u_m|^k |lam|^(k n + m k(k-1)/2): the
    second difference of the log sequence recovers log |lam|.  The Fock
    normalization (weighted=True) multiplies in sqrt((n+km)! / n!)-type
    factors, which the caller must account for separately.
    """
    m_ord = u.order()
    if m_ord is None:
        raise InsufficientDegreeError("weight jet vanishes to its cap")
    if n + k_max * max(m_ord, 1) > N:
        raise InsufficientDegreeError(
            f"need N >= {n + k_max * max(m_ord, 1)} to take {k_max} steps"
        )
    mat = operator_matrix(u, f, N) if weighted else coefficient_matrix(u, f, N)
    norms = []
    prod = None
    for k in range(1, k_max + 1):
        level = n + (k - 1) * m_ord
        block = graded_level_block(mat, level, level + m_ord)
        prod = block if prod is None else block @ prod
        norms.append(float(np.linalg.norm(prod, 2)))
    return tuple(norms)


def assumption_witness(model: TruncatedSpaceModel, n_max: int) -> dict:
    """Exhibit basis elements realizing every degree-n monomial class.

    For the monomial model each class is realized by e_alpha itself, which
    certifies that the induced graded subspace is the full jet space at
    every level up to the cap; levels beyond the cap are reported as not
    realized rather than guessed.  For d = 1 the report also traces the
    dimension-counting argument: each graded piece has dimension 0 or 1,
    and an infinite-dimensional space must hit dimension 1 infinitely often.
    """
    levels = []
    for n in range(n_max + 1):
        if n <= model.N:
            levels.append({
                "n": n,
                "realized": True,
                "witnesses": [list(a) for a in multi_indices(model.d, n)],
            })
        else:
            levels.append({"n": n, "realized": False,
                           "note": "not realized at cap"})
    report = {"d": model.d, "N": model.N, "levels": levels}
    if model.d == 1:
        report["one_variable_argument"] = {
            "graded_dimensions": [1 if n <= model.N else 0
                                  for n in range(n_max + 1)],
            "note": (
                "each graded piece of a one-variable space has dimension 0 "
                "or 1; were it 0 from some level on, the space would embed "
                "in a finite jet space, impossible for infinite dimension"
            ),
        }
    return report


def conjugate_translation(f: PolyMap, u, p):
    """Move the distinguished point p to 0: g = f(. + p) - p, v = u(. + p).

    Useful before matrix assembly, since the monomial model is 0-centered.
    """
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    shift = PolyMap.linear(np.eye(f.dim), p)
    g = f.compose(shift)
    comps = tuple({**table, (0,) * f.dim: table.get((0,) * f.dim, 0j) - pi}
                  for table, pi in zip(g.components, p))
    g = PolyMap(f.dim, comps)
    if u is None:
        return g, None
    if isinstance(u, PolyFunc):
        carrier = PolyMap(f.dim, (u.terms,) * f.dim).compose(shift)
        return g, PolyFunc(f.dim, carrier.components[0])
    return g, (lambda z, _u=u, _p=p: _u(np.asarray(z) + _p))
