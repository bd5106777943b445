"""Truncated Fock-space model: explicit matrices for u * (h o f).

The model space is spanned by the orthonormal monomials e_alpha =
z^alpha / sqrt(alpha!) with |alpha| <= N.  Finite sections only ever give
lower bounds on operator norms, so the module claims divergence (evidence
of unboundedness) but never boundedness.  Every column records whether
coefficients beyond the cap were discarded, and the restriction-norm
profile exposes the two regimes: geometric decay for contracting symbols,
the |alpha|^n lower bound for expanding ones.

``coefficient_matrix`` builds the powers f^beta one degree level at a
time, each term of a component table or of the weight one vectorised
multiply-add over the whole level, on dense float columns with the real and
imaginary parts apart.  The parts are apart because numpy's complex product
differs from CPython's (ar*br - ai*bi, ar*bi + ai*br) in the last bit on
SIMD hosts.  Computed part by part, with the table outermost as in
``jets.table_multiply``, each entry keeps the bits of the dict products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InsufficientDegreeError, PreconditionError, StructureError
from .jets import Jet, JetMap, graded_basis, multi_indices
from .dynamics import PolyFunc, PolyMap

TRUNCATION_COEFF_TOL = 1e-14
DEFAULT_CAP_1D = 40
DEFAULT_CAP_2D = 12
TAIL_TOL = 2.0 ** -48  # largest relative shortfall of a profile row read off the power vector
POWER_STEPS = 64  # power steps on A^H A behind that vector


def sqrt_factorial(alpha) -> float:
    return math.sqrt(math.prod(math.factorial(a) for a in alpha))


@dataclass(frozen=True)
class OperatorMatrix:
    """Matrix of the weighted composition operator on the truncated basis.

    ``top_degree[j]`` is the highest degree of u * f^beta_j with a
    coefficient of modulus > TRUNCATION_COEFF_TOL (0 if none); loss flags
    derive from it.  ``norm`` is the largest singular value of ``entries``,
    factored once: ``truncated_norm``, the n = 0 row of
    ``restriction_norm_profile`` and the last row of ``norm_sweep`` all
    read it.  ``dataclasses.replace`` builds a new instance, which does not
    inherit it.
    """

    entries: np.ndarray
    basis: tuple
    N: int
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
        """f(0) = 0 exactly, as the jets at 0 carry the constant terms of f."""
        return not any(self.symbol_value_at_zero)

    @cached_property
    def norm(self) -> float:
        return _spectral_norm(self.entries)


def _spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


class _GradedMonomials:
    """The monomials of degree <= cap in graded order.

    A column of coefficients on them is two float arrays, real and
    imaginary parts, with +0.0 for absent terms.
    """

    def __init__(self, d: int, cap: int):
        self.exponents = np.array(graded_basis(d, cap), dtype=np.intp)
        self.degrees = self.exponents.sum(axis=1)
        self.cap = cap
        # counts[m + 1, k]: multi-indices of degree m in k >= 1 variables
        self._counts = np.array(
            [[math.comb(m + k - 1, m) if m >= 0 < k else 0
              for k in range(d + 2)] for m in range(-1, cap + 1)],
            dtype=np.intp)
        self._shifts: dict = {}

    def shift(self, alpha) -> tuple:
        """(n, rows): z^alpha moves the first n monomials, those of degree
        <= cap - |alpha|, to ``rows`` (a slice when they are one block).

        The row of a monomial counts the monomials of lower degree, then,
        coordinate by coordinate, those of its degree with a larger
        exponent there.
        """
        got = self._shifts.get(alpha)
        if got is None:
            n = int(np.searchsorted(self.degrees, self.cap - sum(alpha),
                                    side="right"))
            e = self.exponents[:n] + np.array(alpha, dtype=np.intp)
            d = e.shape[1]
            left = e.sum(axis=1)
            rows = self._counts[left, d + 1]
            for j in range(d - 1):
                rows = rows + self._counts[left - e[:, j], d - j]
                left = left - e[:, j]
            if n and rows[-1] - rows[0] == n - 1:  # rows increase: one block
                rows = slice(int(rows[0]), int(rows[0]) + n)
            got = self._shifts[alpha] = (n, rows)
        return got

    def times(self, re: np.ndarray, im: np.ndarray, table: dict) -> tuple:
        """Columns (re, im) times ``table``, without terms above degree cap:
        the terms are added in table order, each as CPython's product."""
        out_re = np.zeros_like(re)
        out_im = np.zeros_like(im)
        for alpha, c in table.items():
            n, rows = self.shift(alpha)
            br, bi = re[:n], im[:n]
            out_re[rows] += c.real * br - c.imag * bi
            out_im[rows] += c.real * bi + c.imag * br
        return out_re, out_im


def coefficient_matrix(u: Jet, f: JetMap, N: int) -> OperatorMatrix:
    """Unweighted matrix: entry (alpha, beta) is the z^alpha coefficient
    of u * f^beta.  This is the action in plain Taylor coordinates.

    Power products of the component jets themselves (constants included)
    are exact on every retained degree, so no base-point gymnastics are
    needed and f(0) != 0 is handled transparently.

    The powers are built one degree level at a time: f^beta is
    f_i * f^(beta - e_i) with i the first nonzero index of beta, as in
    ``PowerCache``, and in graded order the predecessors of the level-n
    powers with that i are the last ``len(multi_indices(d - i, n - 1))``
    powers of level n - 1.  Each level's columns and top degrees are read
    off before the next level replaces it.
    """
    if u.dim != f.dim_in or f.dim_in != f.dim_out:
        raise StructureError("weight and self-map jets must share one dimension")
    cap = min(u.cap, f.cap)
    if cap < N:
        raise InsufficientDegreeError(
            f"insufficient jet degree: cap {cap} < N = {N}"
        )
    d = f.dim_in
    weight = u.truncated(cap).coeffs
    tables = [c.truncated(cap).coeffs for c in f.components]
    mono = _GradedMonomials(d, cap)
    basis = graded_basis(d, N)
    size = len(basis)
    m = np.zeros((size, size), dtype=complex)
    top: list = []
    re = np.zeros((len(mono.degrees), 1))
    re[0, 0] = 1.0
    im = np.zeros_like(re)
    # overflowing powers give inf and nan, as the dict products do
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N + 1):
            if n:
                tails = [len(multi_indices(d - i, n - 1)) for i in range(d)]
                parts = [mono.times(re[:, -t:], im[:, -t:], table)
                         for t, table in zip(tails, tables)]
                re, im = map(np.hstack, zip(*parts))
            col_re, col_im = mono.times(re, im, weight)
            kept = np.hypot(col_re, col_im) > TRUNCATION_COEFF_TOL
            cols = slice(len(top), len(top) + re.shape[1])
            top.extend(np.where(kept, mono.degrees[:, None], 0)
                       .max(axis=0).tolist())
            m.real[:, cols] = col_re[:size]
            m.imag[:, cols] = col_im[:size]
    return OperatorMatrix(m, basis, N, tuple(top), f.value())


def operator_matrix(u: Jet, f: JetMap, N: int) -> OperatorMatrix:
    """Matrix on the orthonormal basis e_alpha = z^alpha / sqrt(alpha!).

    entry(alpha, beta) = [z^alpha](u * f^beta) * sqrt(alpha!) / sqrt(beta!).
    Discarded coefficients of modulus > TRUNCATION_COEFF_TOL set the
    per-column loss flag; loss is reported, not fatal, because finite
    sections are only ever used for norm lower bounds.  An entry that
    overflows to inf or nan raises PreconditionError.
    """
    raw = coefficient_matrix(u, f, N)
    w = np.array([sqrt_factorial(a) for a in raw.basis])
    with np.errstate(over="ignore", invalid="ignore"):
        entries = raw.entries * w[:, None] / w[None, :]
    if not np.isfinite(entries).all():  # no SVD converges on inf or nan
        raise PreconditionError(f"N = {N}: the matrix has a non-finite entry")
    return replace(raw, entries=entries)


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
    if N > 170:  # 171! is past float range, and with it sqrt_factorial((N,))
        raise PreconditionError(f"N = {N}: sqrt(N!) is past float range")
    uj, fj = jets_from_polys(u, f, N)
    return operator_matrix(uj, fj, N)


def truncated_norm(m: OperatorMatrix) -> float:
    """Largest singular value of the finite section."""
    return m.norm


@dataclass(frozen=True)
class RestrictionProfile:
    """Norms of the sections restricted to columns of degree >= n."""

    levels: tuple  # (n, norm, lossy) triples
    invariance_warning: str | None


def restriction_norm_profile(m: OperatorMatrix) -> RestrictionProfile:
    """Operator norm of the submatrix keeping columns with |beta| >= n.

    This is the finite section of the operator restricted to the functions
    vanishing to order n at 0.  When the symbol fixes 0 those subspaces are
    invariant and the profile mirrors the eigenvalue bound; otherwise the
    profile is still emitted, with a warning flag.

    Row 0 is ``m.norm``.  A column block never has a larger norm than the
    whole matrix, so for the power vector v (``_power_vector``) the tail A_k
    of the columns from k on has ||A_k v_k|| / ||v_k|| <= ||A_k|| <= m.norm.
    Where that lower bound is within TAIL_TOL of m.norm the row prints it,
    however v was found; every other tail, and every tail when there is no
    v, takes its own SVD.  Every row is capped at m.norm, since an SVD of a
    tail can round above it.
    """
    a, norm = m.entries, m.norm
    starts = np.searchsorted(m.degrees, np.arange(m.N + 1))
    rows = [(0, norm, any(m.column_loss))]
    # an overflowing power step or tail gives inf or nan, and that row its SVD
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = _power_vector(a, norm)
        for n, k in enumerate(starts[1:], 1):
            low = (np.nan if v is None else
                   np.linalg.norm(a[:, k:] @ v[k:]) / np.linalg.norm(v[k:]))
            value = (low if (1.0 - TAIL_TOL) * norm <= low < np.inf
                     else _spectral_norm(a[:, k:]))
            rows.append((n, float(min(value, norm)), any(m.column_loss[k:])))
    warning = None if m.fixes_origin() else (
        "symbol does not fix 0: the order-n subspaces are not invariant and "
        "the profile is only a family of section norms"
    )
    return RestrictionProfile(tuple(rows), warning)


def _power_vector(a: np.ndarray, norm: float):
    """A unit v with ||a v|| >= (1 - TAIL_TOL) norm, from at most
    POWER_STEPS power steps on a^H a from the unit vector of equal entries,
    or None."""
    v = np.full(a.shape[1], a.shape[1] ** -0.5)
    for _ in range(POWER_STEPS):
        w = a @ v
        if np.linalg.norm(w) >= (1.0 - TAIL_TOL) * norm:
            return v
        v = a.conj().T @ w
        v /= np.linalg.norm(v) or 1.0  # a zero v stays zero and never passes
    return None


def norm_sweep(m: OperatorMatrix) -> tuple:
    """(N, truncated_norm, lossy) rows for the sections N = 0..m.N.

    The basis ascends in degree, so section N is the leading block of m;
    when m's jets lose nothing (``jets_from_polys``) that block equals the
    matrix built at cap N, and so does its loss flag, read from top_degree.
    """
    ends = np.searchsorted(m.degrees, np.arange(m.N + 1), side="right")
    return tuple((n, m.norm if k == len(m.basis)
                  else _spectral_norm(m.entries[:k, :k]),
                  max(m.top_degree[:k]) > n) for n, k in enumerate(ends))
