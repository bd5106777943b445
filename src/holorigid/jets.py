"""Truncated power-series (jet) arithmetic and graded pullback matrices.

A jet is the Taylor expansion of a holomorphic function at a base point,
truncated at a total-degree cap; a jet map collects the component jets of a
holomorphic map.  The weighted pullback h -> u * (h o f) acts on jets, and at
degree n it induces a finite matrix on the homogeneous monomial basis whose
eigenvalues are u(p) * lambda_1^{n_1} ... lambda_d^{n_d} over the exponent
tuples of total degree n (lambda_i the eigenvalues of the linear part of f).

Jets and the polynomial maps of ``dynamics`` share one kernel for sparse
coefficient tables (exponent tuple -> coefficient): ``table_multiply``,
``PowerCache`` and ``substitute``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BaseMismatchError,
    InsufficientDegreeError,
    StructureError,
    TermOverflowError,
)

MultiIndex = tuple  # exponent vector: one non-negative int per variable

TOL_EIG = 1e-8  # relative gap of paired eigenvalues in ``multiset_close``
TOL_ORDER = 1e-12  # a coefficient below this, relative, does not set ``Jet.order``


def base_tolerance(q) -> float:
    """Tolerance under which two base points count as coincident."""
    return 1e-9 * (1.0 + float(np.linalg.norm(np.asarray(q, dtype=complex))))


@lru_cache(maxsize=None)
def multi_indices(d: int, n: int) -> tuple[MultiIndex, ...]:
    """All length-``d`` multi-indices of total degree ``n``, graded-lex order.

    Within a fixed degree the leading exponent decreases, e.g. for d=2, n=2:
    (2,0), (1,1), (0,2).  The count is C(n+d-1, d-1).
    """
    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    if d == 1:
        return ((n,),)
    out = []
    for k in range(n, -1, -1):
        out.extend((k,) + rest for rest in multi_indices(d - 1, n - k))
    return tuple(out)


@lru_cache(maxsize=None)
def graded_basis(d: int, cap: int) -> tuple[MultiIndex, ...]:
    """All multi-indices with total degree <= cap, degrees ascending."""
    out = []
    for n in range(cap + 1):
        out.extend(multi_indices(d, n))
    return tuple(out)


def _as_base(base, dim) -> tuple:
    base = tuple(complex(b) for b in base)
    if len(base) != dim:
        raise StructureError(f"base point has length {len(base)}, dim is {dim}")
    return base


@dataclass(frozen=True)
class Jet:
    """Taylor expansion at ``base`` truncated to total degree ``cap``.

    ``coeffs`` maps exponent tuples to complex coefficients; absent keys mean
    zero.  Instances are immutable values; all operations return new jets.
    """

    dim: int
    cap: int
    base: tuple
    coeffs: dict

    def __post_init__(self):
        object.__setattr__(self, "base", _as_base(self.base, self.dim))
        clean = {}
        for alpha, c in self.coeffs.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.dim or any(a < 0 for a in alpha):
                raise StructureError(f"bad multi-index {alpha} for dim {self.dim}")
            if sum(alpha) > self.cap:
                raise StructureError(
                    f"multi-index {alpha} exceeds degree cap {self.cap}"
                )
            c = complex(c)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise StructureError(f"non-finite coefficient at {alpha}")
            if c != 0:
                clean[alpha] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def zero(cls, dim, cap, base):
        return cls(dim, cap, base, {})

    @classmethod
    def constant(cls, dim, cap, base, value):
        return cls(dim, cap, base, {(0,) * dim: complex(value)})

    @classmethod
    def monomial(cls, dim, cap, base, alpha, coeff=1.0):
        return cls(dim, cap, base, {tuple(alpha): complex(coeff)})

    def term(self, alpha) -> complex:
        return self.coeffs.get(tuple(alpha), 0j)

    @property
    def value(self) -> complex:
        """Value at the base point (the constant coefficient)."""
        return self.coeffs.get((0,) * self.dim, 0j)

    def order(self):
        """Smallest total degree carrying a coefficient of modulus above
        TOL_ORDER * max(1, max |c|).

        Returns None when no coefficient exceeds that up to the cap.
        """
        scale = max([abs(c) for c in self.coeffs.values()], default=0.0)
        tol = TOL_ORDER * max(1.0, scale)
        degs = [sum(a) for a, c in self.coeffs.items() if abs(c) > tol]
        return min(degs) if degs else None

    def truncated(self, cap: int) -> "Jet":
        return Jet(self.dim, cap, self.base,
                   {a: c for a, c in self.coeffs.items() if sum(a) <= cap})

    def scaled(self, s) -> "Jet":
        s = complex(s)
        return Jet(self.dim, self.cap, self.base,
                   {a: s * c for a, c in self.coeffs.items()})

    def __add__(self, other: "Jet") -> "Jet":
        _check_aligned(self, other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0j) + c
        return Jet(self.dim, self.cap, self.base, out)

    def __sub__(self, other: "Jet") -> "Jet":
        return self + other.scaled(-1.0)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_multiply(self, other)
        return self.scaled(other)

    __rmul__ = __mul__


def _check_aligned(a: Jet, b: Jet):
    if a.dim != b.dim or a.cap != b.cap:
        raise StructureError(
            f"jet mismatch: dim/cap ({a.dim},{a.cap}) vs ({b.dim},{b.cap})"
        )
    if max(abs(x - y) for x, y in zip(a.base, b.base)) > base_tolerance(a.base):
        raise StructureError(f"jet base points differ: {a.base} vs {b.base}")


def table_multiply(a: dict, b: dict, cap=None) -> dict:
    """Product of two coefficient tables, without terms above degree ``cap``.

    Without a cap this is the plain double loop, ``a`` outermost.  With a
    cap the larger factor is bucketed by degree, so each term of the
    smaller one only scans partners that can still fit under the cap.
    Exact zeros are dropped, so tables never hold them.
    """
    out: dict = {}
    if cap is None:
        for ka, ca in a.items():
            for kb, cb in b.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                out[key] = out.get(key, 0j) + ca * cb
    else:
        if len(b) < len(a):
            a, b = b, a
        by_deg: dict[int, list] = {}
        for beta, cb in b.items():
            by_deg.setdefault(sum(beta), []).append((beta, cb))
        for alpha, ca in a.items():
            da = sum(alpha)
            for db, bucket in by_deg.items():
                if da + db > cap:
                    continue
                for beta, cb in bucket:
                    key = tuple(x + y for x, y in zip(alpha, beta))
                    out[key] = out.get(key, 0j) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def check_terms(table: dict, max_terms, what: str) -> dict:
    """Raise TermOverflowError when ``table`` has more than max_terms terms."""
    if max_terms is not None and len(table) > max_terms:
        raise TermOverflowError(
            f"{what} {len(table)} terms (cap {max_terms}); "
            "use pointwise iteration instead"
        )
    return table


class PowerCache:
    """Memoized power products prod_i g_i^{alpha_i} of fixed tables g_i.

    The tables are in ``dim`` variables; products drop terms above degree
    ``cap`` and raise TermOverflowError past ``max_terms`` terms.
    """

    def __init__(self, tables, dim: int, cap=None, max_terms=None):
        self.tables = tuple(tables)
        self.cap = cap
        self.max_terms = max_terms
        self.memo = {(0,) * len(self.tables): {(0,) * dim: 1.0 + 0j}}

    def power(self, alpha) -> dict:
        alpha = tuple(alpha)
        got = self.memo.get(alpha)
        if got is None:
            i = next(k for k, a in enumerate(alpha) if a > 0)
            prev = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            got = check_terms(
                table_multiply(self.power(prev), self.tables[i], self.cap),
                self.max_terms, "polynomial grew to")
            self.memo[alpha] = got
        return got


def substitute(table: dict, powers: PowerCache) -> dict:
    """sum_alpha c_alpha * g^alpha: the table evaluated on the cached g."""
    out: dict = {}
    for alpha, c in table.items():
        for key, v in powers.power(alpha).items():
            out[key] = out.get(key, 0j) + c * v
    return {k: v for k, v in out.items() if v != 0}


def jet_multiply(a: Jet, b: Jet) -> Jet:
    """Product of two jets at the same base, truncated to the common cap."""
    _check_aligned(a, b)
    return Jet(a.dim, a.cap, a.base, table_multiply(a.coeffs, b.coeffs, a.cap))


@dataclass(frozen=True)
class JetMap:
    """Component jets of a holomorphic map, sharing base point and cap."""

    dim_in: int
    dim_out: int
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != self.dim_out:
            raise StructureError(
                f"expected {self.dim_out} components, got {len(comps)}"
            )
        first = comps[0]
        for c in comps:
            if c.dim != self.dim_in:
                raise StructureError("component dim differs from dim_in")
            if c.cap != first.cap or c.base != first.base:
                raise StructureError("components disagree on cap or base point")
        object.__setattr__(self, "components", comps)

    @property
    def cap(self) -> int:
        return self.components[0].cap

    @property
    def base(self) -> tuple:
        return self.components[0].base

    def value(self) -> tuple:
        """Image of the base point: constant terms of the components."""
        return tuple(c.value for c in self.components)

    def linear_matrix(self) -> np.ndarray:
        """Jacobian at the base point, read off the degree-1 coefficients."""
        a = np.zeros((self.dim_out, self.dim_in), dtype=complex)
        for i, comp in enumerate(self.components):
            for j in range(self.dim_in):
                e = tuple(1 if k == j else 0 for k in range(self.dim_in))
                a[i, j] = comp.term(e)
        return a


class JetComposer:
    """Composes jets with a fixed jet map, caching its power products.

    Reusing one composer across many right-compositions with the same map
    (e.g. one column per basis monomial) avoids recomputing the powers of
    the shifted components f_i - f_i(p).
    """

    def __init__(self, f: JetMap):
        self.f = f
        self.target = f.value()
        zero = (0,) * f.dim_in
        shifted = [{a: c for a, c in comp.coeffs.items() if a != zero}
                   for comp in f.components]
        self._powers = PowerCache(shifted, f.dim_in, cap=f.cap)

    def compose(self, h: Jet) -> Jet:
        f = self.f
        if h.dim != f.dim_out:
            raise StructureError(
                f"jet of dim {h.dim} composed with map of dim_out {f.dim_out}"
            )
        if h.cap != f.cap:
            raise StructureError(f"cap mismatch: {h.cap} vs {f.cap}")
        gap = max(abs(x - y) for x, y in zip(h.base, self.target))
        if gap > base_tolerance(h.base):
            raise BaseMismatchError(
                f"composition base mismatch: |f(p) - q| = {gap:.3e}"
            )
        return Jet(f.dim_in, f.cap, f.base, substitute(h.coeffs, self._powers))


def jet_compose(h: Jet, f: JetMap) -> Jet:
    """Taylor coefficients of h o f at the base of f, truncated to the cap.

    Requires f to send its base point to the base point of h (within the
    base tolerance); the residual constant term of each component is zeroed
    exactly, which makes the truncation exact.
    """
    return JetComposer(f).compose(h)


def jetmap_compose(f: JetMap, g: JetMap) -> JetMap:
    """Jet map of f o g; g must send its base to the base of f."""
    composer = JetComposer(g)
    return JetMap(g.dim_in, f.dim_out,
                  tuple(composer.compose(c) for c in f.components))


def weighted_pullback(u: Jet, f: JetMap, h: Jet) -> Jet:
    """Jet of u * (h o f) at the base of f (and of u)."""
    _check_aligned(u, f.components[0])
    return jet_multiply(u, jet_compose(h, f))


@dataclass(frozen=True)
class GradedOperatorMatrix:
    """Matrix of the degree-n graded weighted pullback on monomials.

    Rows and columns follow ``basis_order`` (graded-lex multi-indices of
    total degree n); column j holds the degree-n part of the pullback of
    the j-th basis monomial.
    """

    n: int
    d: int
    entries: np.ndarray
    basis_order: tuple


def graded_matrix_formula(u_at_p, A, n: int) -> GradedOperatorMatrix:
    """Matrix of P -> u(p) * P(A z) on degree-n monomials.

    This is the closed-form route: only the weight value u(p) and the
    linear part A of the map enter.  For n = 0 the matrix is [[u(p)]].
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise StructureError(f"linear part must be square, got shape {A.shape}")
    d = A.shape[0]
    if n < 0:
        raise ValueError("n must be >= 0")
    basis = multi_indices(d, n)
    u_at_p = complex(u_at_p)
    # rows of A give the substituted linear forms (A z)_i
    forms = [{tuple(1 if k == j else 0 for k in range(d)): complex(A[i, j])
              for j in range(d) if A[i, j] != 0}
             for i in range(d)]
    cache = PowerCache(forms, d, cap=max(n, 1))
    m = np.zeros((len(basis), len(basis)), dtype=complex)
    for j, beta in enumerate(basis):
        if n == 0:
            m[0, 0] = u_at_p
            break
        image = cache.power(beta)
        for i, alpha in enumerate(basis):
            m[i, j] = u_at_p * image.get(alpha, 0j)
    return GradedOperatorMatrix(n, d, m, basis)


def graded_matrix_bruteforce(u: Jet, f: JetMap, n: int) -> GradedOperatorMatrix:
    """Degree-n graded matrix built monomial by monomial via the pullback.

    Column j is the degree-n homogeneous part of u * (m_j o f) where m_j is
    the j-th degree-n basis monomial at f(p).  At a fixed point this must
    agree with :func:`graded_matrix_formula`; at a non-fixed point it is the
    matrix between the monomial bases at f(p) and p.
    """
    if f.dim_in != f.dim_out:
        raise StructureError("graded matrices need a self-map jet")
    d = f.dim_in
    _check_aligned(u, f.components[0])
    if u.cap < n or f.cap < n:
        raise InsufficientDegreeError(
            f"insufficient jet degree: cap {min(u.cap, f.cap)} < n = {n}"
        )
    basis = multi_indices(d, n)
    target = f.value()
    composer = JetComposer(f)
    m = np.zeros((len(basis), len(basis)), dtype=complex)
    for j, beta in enumerate(basis):
        mono = Jet.monomial(d, f.cap, target, beta)
        col = jet_multiply(u, composer.compose(mono))
        for i, alpha in enumerate(basis):
            m[i, j] = col.term(alpha)
    return GradedOperatorMatrix(n, d, m, basis)


def graded_eigenvalues(m: GradedOperatorMatrix) -> tuple:
    """Eigenvalue multiset of the graded matrix (dense QR eigensolver)."""
    vals = np.linalg.eigvals(m.entries)
    return tuple(sorted(vals, key=lambda z: (z.real, z.imag)))


def eigenvalue_law(u_at_p, eigenvalues, n: int) -> tuple:
    """Predicted multiset {u(p) * prod lambda_i^{n_i} : |n| = n}."""
    lams = tuple(complex(x) for x in eigenvalues)
    out = []
    for alpha in multi_indices(len(lams), n):
        prod = complex(u_at_p)
        for lam, a in zip(lams, alpha):
            prod *= lam ** a
        out.append(prod)
    return tuple(sorted(out, key=lambda z: (z.real, z.imag)))


def multiset_close(a, b) -> bool:
    """Whether two complex multisets match under greedy nearest pairing.

    Elements of ``a`` are taken by decreasing modulus, each paired with the
    nearest element of ``b`` not yet taken; every pair must lie within
    TOL_EIG * (1 + |x|).
    """
    a = sorted((complex(x) for x in a), key=abs, reverse=True)
    b = [complex(x) for x in b]
    if len(a) != len(b):
        return False
    for x in a:
        j = min(range(len(b)), key=lambda k: abs(b[k] - x))
        if abs(b.pop(j) - x) > TOL_EIG * (1.0 + abs(x)):
            return False
    return True
