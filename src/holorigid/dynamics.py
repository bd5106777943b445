"""Polynomial self-maps of C^d: orbits, periodic points, multipliers.

Periodic points p with f^r(p) = p carry a multiplier multiset, the
eigenvalues of the Jacobian of f^r along the orbit, and a weight cocycle
value u_r(p) = prod_{j<r} u(f^j(p)).  In one variable the points of period
dividing r are the roots of f^r(z) - z, found all at once by cyclic Newton
on the orbit system from the preimage tree of a point under f^r, with
Aberth-Ehrlich where that falls short, and certified by pairwise disjoint
Newton disks; on C^d, d >= 2, a seeded Newton multistart, one lockstep
over all periods, supplies witnesses without any completeness claim.
``orbits_of_period`` is the one periodic-orbit search, and
``periodic_orbits`` its loop over periods; every obstruction reads them.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import OrbitError, PreconditionError
from .jets import Jet, JetMap, PowerCache, _as_base, check_terms, substitute, \
    table_multiply

DEFAULT_MAX_TERMS = 4096
TOL_ORBIT = 1e-8
TOL_CLASS = 1e-9
TIE_TOL = 1e-12  # relative gap below which two maxima are equal
DEDUP_RADIUS = 1e-6
NEWTON_RESIDUAL = 1e-12
NEWTON_STEPS = 100
START_RADIUS = 5.0  # Newton multistart: starts uniform in a polydisc of this radius
ESCAPE_NORM = 1e9  # Newton multistart: a start whose norm passes this has diverged
SWEEPS_PER_ROOT = 20
SHOOTING_STEPS = 25  # cyclic Newton steps per row of the one-variable search
SHOOTING_REACH = 0.3  # a cyclic Newton step moves no z_j by more than this (1 + |z_j|)
STALL_STEP = 2.0 ** -42  # about 1000 eps: root steps this small are rounding noise
GENERIC_POINT = 0.7318 + 0.2834j  # off the special orbits of simple maps
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# sparse polynomial tables


def _poly_clean(table: dict) -> dict:
    return {tuple(int(x) for x in a): complex(c) for a, c in table.items()
            if complex(c) != 0}


def _power(z: complex, n: int) -> complex:
    """z ** n, n >= 1, rounded as numpy's complex128 scalar power: 0 at 0; z,
    z * z, z * (z * z) to n = 3; square and multiply to 99; numpy's own past
    that.  CPython's ** differs in signed zeros and raises OverflowError."""
    if z == 0:
        return 0j
    if n <= 3:
        return z if n == 1 else z * z if n == 2 else z * (z * z)
    if n >= 100:
        with np.errstate(all="ignore"):
            return complex(np.complex128(z) ** n)
    out = 1 + 0j
    while True:
        if n & 1:
            out *= z
        n >>= 1
        if not n:
            return out
        z *= z


def _compile(table: dict) -> tuple:
    """A table as the terms (c, ((i, a), ...)) that ``_poly_eval`` reads: in
    table order, each with only its nonzero exponents a of z_i."""
    return tuple((c, tuple((i, a) for i, a in enumerate(alpha) if a))
                 for alpha, c in table.items())


def _poly_eval(terms: tuple, z: list) -> complex:
    """A ``_compile``d table at a point given as a list of complex: numpy
    complex128 scalars' bits from CPython arithmetic, without their cost and
    warnings."""
    total = 0j
    for c, powers in terms:
        term = c
        for i, a in powers:
            term *= _power(z[i], a)
        total += term
    return total


def _poly_diff(table: dict, j: int) -> dict:
    out = {}
    for alpha, c in table.items():
        if alpha[j] == 0:
            continue
        key = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
        out[key] = out.get(key, 0j) + alpha[j] * c
    return out


def _poly_degree(table: dict) -> int:
    return max((sum(a) for a in table), default=0)


def _poly_to_jet(table: dict, dim: int, base, cap: int) -> Jet:
    """Taylor expansion of a polynomial table at a new base point."""
    base = _as_base(base, dim)
    shifts = [_poly_clean({tuple(1 if k == j else 0 for k in range(dim)): 1.0,
                           (0,) * dim: base[j]})
              for j in range(dim)]
    coeffs = substitute(table, PowerCache(shifts, dim, cap=cap))
    if not np.isfinite(list(coeffs.values())).all():
        raise PreconditionError(f"the Taylor expansion at {base} overflows")
    return Jet(dim, cap, base, coeffs)


def _monomial_table(tables: list, dim: int):
    """Exponents E (M, dim) of every monomial of the tables, in order of first
    appearance, and coefficients C (len(tables), M), one row per table."""
    index = {a: m for m, a in
             enumerate(dict.fromkeys(a for table in tables for a in table))}
    coef = np.zeros((len(tables), len(index)), dtype=complex)
    for row, table in enumerate(tables):
        coef[row, [index[a] for a in table]] = list(table.values())
    return np.array(list(index), dtype=np.intp).reshape(-1, dim), coef


def _monomial_values(z: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """z^alpha for every row alpha of exps at a stack of points: (N, M)."""
    powers = np.empty((int(exps.max(initial=0)) + 1,) + z.T.shape, dtype=complex)
    powers[0], powers[1:] = 1.0, z.T  # z ** 0 is 1 even at inf and NaN
    np.cumprod(powers, axis=0, out=powers)
    return np.prod(powers[exps, np.arange(z.shape[1])], axis=1).T


def _monomial_products(z: np.ndarray, exps: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """_monomial_values times coef.T; one point runs as two copies of itself,
    as numpy reduces one row by other loops and multiplies it by gemv."""
    pair = np.concatenate([z, z]) if len(z) == 1 else z
    return (_monomial_values(pair, exps) @ coef.T)[:len(z)]


def _as_point(z, dim: int) -> np.ndarray:
    if type(z) is np.ndarray and z.dtype == complex and z.shape == (dim,):
        return z  # as np.asarray would: a walk's points take this path
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.shape != (dim,):
        raise PreconditionError(f"point of shape {arr.shape}, expected ({dim},)")
    return arr


def _as_points(points, dim: int) -> np.ndarray:
    z = np.asarray(points, dtype=complex)
    if z.ndim != 2 or z.shape[1] != dim:
        raise PreconditionError(f"points of shape {z.shape}, expected (N, {dim})")
    return z


@dataclass(frozen=True)
class PolyFunc:
    """Scalar polynomial on C^d, used for polynomial weights."""

    dim: int
    terms: dict

    def __post_init__(self):
        object.__setattr__(self, "terms", _poly_clean(self.terms))
        for a in self.terms:
            if len(a) != self.dim:
                raise PreconditionError(f"term {a} has wrong arity for dim {self.dim}")

    @classmethod
    def one(cls, dim):
        return cls(dim, {(0,) * dim: 1.0})

    @property
    def degree(self) -> int:
        return _poly_degree(self.terms)

    @cached_property
    def _terms(self):
        return _compile(self.terms)

    def __call__(self, z) -> complex:  # numpy's type: abs() of an overflow is inf
        return np.complex128(_poly_eval(self._terms, _as_point(z, self.dim).tolist()))

    def to_jet(self, base, cap: int) -> Jet:
        return _poly_to_jet(self.terms, self.dim, base, cap)


@dataclass(frozen=True)
class PolyMap:
    """Polynomial self-map of C^d given by one coefficient table per component."""

    dim: int
    components: tuple

    def __post_init__(self):
        comps = tuple(_poly_clean(c) for c in self.components)
        if len(comps) != self.dim:
            raise PreconditionError(
                f"{len(comps)} components for a self-map of C^{self.dim}"
            )
        for comp in comps:
            for a in comp:
                if len(a) != self.dim:
                    raise PreconditionError(
                        f"term {a} has wrong arity for dim {self.dim}"
                    )
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_coeffs_1d(cls, coeffs) -> "PolyMap":
        """One-variable map from ascending coefficients c0 + c1 z + ..."""
        return cls(1, ({(k,): c for k, c in enumerate(coeffs)},))

    @classmethod
    def linear(cls, a, b=None) -> "PolyMap":
        a = np.asarray(a, dtype=complex)
        d = a.shape[0]
        b = np.zeros(d) if b is None else np.asarray(b, dtype=complex)
        units = [tuple(e) for e in np.eye(d, dtype=int)]
        return cls(d, tuple({**dict(zip(units, a[i])), (0,) * d: b[i]}
                            for i in range(d)))

    @property
    def degree(self) -> int:
        return max(_poly_degree(c) for c in self.components)

    def is_affine(self) -> bool:
        return self.degree <= 1

    def __call__(self, z) -> np.ndarray:
        z = _as_point(z, self.dim).tolist()
        return np.array([_poly_eval(c, z) for c in self._terms[0]])

    @cached_property
    def _partials(self):
        return tuple(tuple(_poly_diff(c, j) for j in range(self.dim))
                     for c in self.components)

    @cached_property
    def _terms(self):
        """``_compile``d components and partials: (f_i), (df_i / dz_j)."""
        return (tuple(map(_compile, self.components)),
                tuple(tuple(map(_compile, row)) for row in self._partials))

    def jacobian(self, z) -> np.ndarray:
        z = _as_point(z, self.dim).tolist()
        return np.array([[_poly_eval(p, z) for p in row] for row in self._terms[1]])

    @cached_property
    def _escape_levels(self) -> list:
        """The levels of the one-variable ``_escape_tree`` built so far."""
        return []

    @cached_property
    def _monomial_matrix(self):
        """Exponents E (M, d) of the monomials of f and of its first and second
        partials, and coefficients C (d + d*d + d**3, M): row i is f_i, row
        d + d*i + j the partial of f_i by z_j, and row d + d*d + d*d*i + d*j + k
        the second partial of f_i by z_j and z_k.  The monomials of f come
        first, then those of its partials; the third and fourth entries count
        the monomials of f and of f with its partials."""
        first = list(self.components) + [p for row in self._partials for p in row]
        seconds = [_poly_diff(p, k) for p in first[self.dim:] for k in range(self.dim)]
        exps, coef = _monomial_table(first + seconds, self.dim)
        return (exps, coef, len({a for table in self.components for a in table}),
                len({a for table in first for a in table}))

    def evaluate_batch(self, points):
        """f and its Jacobian at a stack of points: (N, d) -> (N, d), (N, d, d).

        About 20-30 us a call plus 0.1 us a point, against about 2-4 us for
        a ``__call__`` of z^2 - 1 or a Henon map (shared 2-core x86-64,
        numpy 2.4.6), so code that follows one point at a time keeps
        ``__call__``.
        """
        z = _as_points(points, self.dim)
        exps, coef, _, count = self._monomial_matrix
        d = self.dim
        out = _monomial_products(z, exps[:count], coef[:d + d * d, :count])
        return out[:, :d], out[:, d:].reshape(len(z), d, d)

    def values_batch(self, points) -> np.ndarray:
        """f alone at a stack of points: (N, d) -> (N, d)."""
        z = _as_points(points, self.dim)
        exps, coef, count, _ = self._monomial_matrix
        return _monomial_products(z, exps[:count], coef[:self.dim, :count])

    def second_order_batch(self, points):
        """f, its Jacobian and its second partials at a stack of points:
        (N, d) -> (N, d), (N, d, d), (N, d, d, d), entry [n, i, j, k] of the
        last being the second partial of f_i by z_j and z_k at point n."""
        z = _as_points(points, self.dim)
        exps, coef, _, _ = self._monomial_matrix
        out = _monomial_products(z, exps, coef)
        n, d = len(z), self.dim
        return (out[:, :d], out[:, d:d + d * d].reshape(n, d, d),
                out[:, d + d * d:].reshape(n, d, d, d))

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """Coefficient table of self o inner, capped at DEFAULT_MAX_TERMS terms."""
        if inner.dim != self.dim:
            raise PreconditionError("composition dimension mismatch")
        powers = PowerCache(inner.components, self.dim, max_terms=DEFAULT_MAX_TERMS)
        comps = tuple(check_terms(substitute(table, powers), DEFAULT_MAX_TERMS,
                                  "composition produced")
                      for table in self.components)
        return PolyMap(self.dim, comps)

    def to_jetmap(self, base, cap: int) -> JetMap:
        comps = tuple(_poly_to_jet(c, self.dim, base, cap)
                      for c in self.components)
        return JetMap(self.dim, self.dim, comps)


def iterate(f: PolyMap, r: int) -> PolyMap:
    """Coefficient table of the r-fold composition f o ... o f."""
    if r < 1:
        raise PreconditionError("iteration count must be >= 1")
    if f.degree >= 2 and f.degree ** r > DEFAULT_MAX_TERMS:
        warnings.warn(
            f"deg(f)^r = {f.degree ** r} exceeds the term safety cap "
            f"{DEFAULT_MAX_TERMS}; expansion may overflow", stacklevel=2)
    out = f
    for _ in range(r - 1):
        out = f.compose(out)
    return out


def orbit_points(f: PolyMap, p, r: int) -> list:
    """p, f(p), ..., f^(r-1)(p): the one orbit walker, r - 1 calls of f."""
    pts = [_as_point(p, f.dim)]
    for _ in range(r - 1):
        pts.append(f(pts[-1]))
    return pts


def _closes(residual, size):
    """The one closure test: |f^r(p) - p| <= TOL_ORBIT (1 + |p|); NaN fails."""
    return residual <= TOL_ORBIT * (1.0 + size)


def _closed_walk(f: PolyMap, p, r: int):
    """p, ..., f^r(p), |f^r(p) - p|, |p| and the exact period (least d | r
    with f^d(p) back at p); OrbitError unless it closes.  Points are Python
    complex in one variable, where np.linalg.norm's sqrt(re^2 + im^2) runs
    in float arithmetic; several variables take one errstate for overflow."""
    walk = orbit_points(f, p, r + 1)
    z = [x.item() for x in walk] if f.dim == 1 else walk

    def norm(w):
        return (math.sqrt(w.real * w.real + w.imag * w.imag) if f.dim == 1
                else float(np.linalg.norm(w)))
    with np.errstate(over="ignore", invalid="ignore") if f.dim > 1 else nullcontext():
        closure, size = norm(z[r] - z[0]), norm(z[0])
        if not _closes(closure, size):
            raise OrbitError(f"f^{r}(p) - p has residual {closure:.3e}")
        exact = next((d for d in range(1, r) if r % d == 0
                      and _closes(norm(z[d] - z[0]), size)), r)
    return z, closure, size, exact


# ---------------------------------------------------------------------------
# one-variable periodic points


class AllPoints:
    """Sentinel: f^r is the identity, so every point has period dividing r."""

    def __repr__(self):
        return "AllPoints"


ALL_POINTS = AllPoints()


def _coeffs_1d(table: dict) -> np.ndarray:
    deg = _poly_degree(table)
    out = np.zeros(deg + 1, dtype=complex)
    for (k,), c in table.items():
        out[k] = c
    return out


def companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a polynomial (ascending coefficients) via its companion matrix."""
    c = np.asarray(coeffs, dtype=complex)
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    if len(c) < 2:
        return np.zeros(0, dtype=complex)
    return _preimages(c, 1, [np.zeros(1, dtype=complex)])[-1]


def cluster_points(points, radius: float, slack=None) -> list:
    """Greedy clustering shared by every point and level dedup.

    Points (complex scalars or vectors) are visited in lexicographic order
    of their real and imaginary parts; each joins the first cluster whose
    representative ``rep`` lies within radius * (1 + |rep|), or within the
    ``slack`` of both when one is given per point, or else starts a new one.
    Returns the clusters as lists of indices into ``points``, each led by the
    index of its representative.

    One vectorised pass places a whole cluster: the first unplaced point
    leads it, and every later unplaced point in reach joins at once.  A
    pass scans only the sorted points whose first real part, the primary
    key, is within a padded max(reach, lead slack) of the lead's.
    """
    if len(points) == 0:
        return []
    pts = np.asarray(points, dtype=complex).reshape(len(points), -1)
    keys = [part for col in pts.T[::-1] for part in (col.imag, col.real)]
    order = np.lexsort(keys)
    pts = pts[order]
    first = pts[:, 0].real  # ascending, NaN last
    if slack is not None:
        slack = np.asarray(slack, dtype=float)[order]
    free = np.ones(len(pts), dtype=bool)
    clusters: list[list] = []
    lead = 0
    while lead < len(pts):
        rep = pts[lead]
        reach = radius * (1.0 + np.linalg.norm(rep))
        bound = reach if slack is None else np.maximum(reach, slack[lead])
        # a NaN limit sorts last, so the window is then all the rest; an
        # infinite one leaves out only points with a NaN key, which join none
        lo = float(first[lead])  # float arithmetic: inf - inf gives no warning
        limit = lo + 2.0 * float(bound) + 2.0 ** -50 * abs(lo)  # 4 eps |lo|
        end = np.searchsorted(first, limit, "right")
        rest = lead + 1 + np.flatnonzero(free[lead + 1:end])
        if rest.size:
            dist = np.linalg.norm(pts[rest] - rep, axis=1)
            hit = dist <= reach
            if slack is not None:
                hit |= dist <= np.minimum(slack[lead], slack[rest])
            rest = rest[hit]
            free[rest] = False
        clusters.append([order[lead].item()] + order[rest].tolist())
        free[lead] = False
        lead += int(np.argmax(free[lead:])) or len(pts)  # 0: none is free
    return clusters


def _settled(size, last, scale):
    """Whether a root step is at rounding level: below 4 eps ``scale``, or
    below STALL_STEP ``scale`` and not under half the ``last`` step, as a
    converging simple root's always is."""
    return (size <= 4.0 * EPS * scale) | (
        (size <= STALL_STEP * scale) & (size > 0.5 * last))


def durand_kerner(ratio, starts, rows=None) -> np.ndarray:
    """All roots of a polynomial g of degree len(starts), by Aberth-Ehrlich.

    Aberth-Ehrlich is Durand-Kerner's cubically convergent refinement: each
    sweep moves every approximation by N_i / (1 - N_i sum_{j != i} 1 /
    (z_i - z_j)), where ``ratio(z)`` returns the Newton ratio N = g / g' at
    an array of points.  Only ``rows`` (default all) move, for at most
    SWEEPS_PER_ROOT sweeps per row.  A row freezes once its step is
    ``_settled`` or its N is not finite; one that sits on another moves
    off it by DEDUP_RADIUS (1 + |z|), each in a direction of its own."""
    z = np.array(starts, dtype=complex)
    active = np.arange(len(z)) if rows is None else np.asarray(rows, dtype=np.intp)
    last = np.full(len(z), np.inf)
    for _ in range(SWEEPS_PER_ROOT * len(active)):
        if active.size == 0:
            break
        n = ratio(z[active])
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            sums = _inverse_sums(z, active)
            step = n / (1.0 - n * sums)
        moved = np.isfinite(step)
        z[active[moved]] -= step[moved]
        stuck = active[~moved & np.isfinite(n)]
        z[stuck] += DEDUP_RADIUS * (1.0 + np.abs(z[stuck])) * np.exp(1j * stuck)
        size = np.abs(step)
        still = (moved & ~_settled(size, last[active], 1.0 + np.abs(z[active]))
                 | ~moved & np.isfinite(n))
        last[active] = size
        active = active[still]
    return z


def _inverse_sums(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1 / (z_i - z_j) for each i in ``rows``, in row blocks of
    about 2^18 differences."""
    size = max(1, 2 ** 18 // len(z))
    out = []
    for lo in range(0, len(rows), size):
        block = rows[lo:lo + size]
        diff = z[block, None] - z[None, :]
        diff[np.arange(len(block)), block] = np.inf
        out.append(np.sum(1.0 / diff, axis=1))
    return np.concatenate(out)


def root_count_1d(f: PolyMap, r: int) -> int:
    """Roots of f^r(z) - z counted with multiplicity, f^r not the identity.

    deg(f)^r for deg f >= 2; an affine az + b gives one root, or none when
    a == 1 and f^r(z) - z = rb is a nonzero constant.
    """
    if f.degree >= 2:
        return f.degree ** r
    return 0 if f.components[0].get((1,), 0j) == 1 else 1


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.polyval(c, x) without its dispatch: 0 * x + c[0] is NaN at inf x."""
    y = np.zeros_like(x)
    for a in c:
        y = y * x + a
    return y


def _orbit_ratio(f: PolyMap, r: int, z: np.ndarray, bound: bool = False):
    """g(z) = f^r(z) - z, the Newton ratio N = g / g' and its rounding slack.

    (f^r)' comes from the chain rule along the orbit, so no coefficient of
    f^r is formed.  A running bound e on the rounding error of g grows by
    |f'(w)| e + 2 deg eps sum |c_k||w|^k per Horner step, plus eps |z| for
    the final subtraction; the slack is e / |g'|, so |N| + slack bounds the
    ratio |g| / |g'| of the exact g.  For deg >= 2, once |f^k(z)| passes
    the bound beyond which one more step could overflow, f^r behaves like
    (f^k)^(deg^(r-k)): g is inf there, N is f^k / ((f^k)' deg^(r-k)) and
    the slack is inf.  An affine f is never cut.  Without ``bound`` the
    slack is None.
    """
    c = _coeffs_1d(f.components[0])[::-1]
    dc = np.polyder(c)
    abs_c = np.abs(c)
    deg = len(c) - 1
    escape = (1e300 / max(1.0, float(np.sum(abs_c)))) ** (1.0 / deg) \
        if deg >= 2 else np.inf
    g = np.full(len(z), np.inf, dtype=complex)
    n = np.empty(len(z), dtype=complex)
    slack = np.full(len(z), np.inf) if bound else None
    live = np.arange(len(z))
    w, dw, e = z.copy(), np.ones(len(z), dtype=complex), np.zeros(len(z))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for k in range(r):
            far = np.abs(w) > escape
            if far.any():
                n[live[far]] = w[far] / (dw[far] * float(deg) ** (r - k))
                live, w, dw, e = live[~far], w[~far], dw[~far], e[~far]
            slope = _horner(dc, w)
            if bound:
                e = np.abs(slope) * e + 2.0 * deg * EPS * _horner(abs_c, np.abs(w))
            dw = dw * slope
            w = _horner(c, w)
        g[live] = w - z[live]
        n[live] = g[live] / (dw - 1.0)
        if bound:
            slack[live] = (e + EPS * np.abs(z[live])) / np.abs(dw - 1.0)
    return g, n, slack


def _preimages(c: np.ndarray, r: int, levels: list) -> list:
    """``levels`` of the preimage tree of z0 = levels[0][0] under f (ascending
    coefficients c) grown in place to k = 0, ..., r: f^-k(z0), point i of
    level k a preimage of point i // deg of level k - 1, one eigvals call per
    new level.  Raises PreconditionError where a companion matrix overflows."""
    deg = len(c) - 1
    companion = np.zeros((deg, deg), dtype=complex)
    companion[1:, :-1] = np.eye(deg - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        companion[:, -1] = -c[:-1] / c[-1]
        while len(levels) <= r:
            stack = np.repeat(companion[None], len(levels[-1]), axis=0)
            stack[:, 0, -1] = (levels[-1] - c[0]) / c[-1]
            if not np.isfinite(stack).all():
                raise PreconditionError(
                    f"the preimages of {levels[0][0]:.6g} under f^{r} overflow: "
                    "the coefficients of f are out of floating-point range")
            levels.append(np.linalg.eigvals(stack).ravel())
    return levels


def _shoot(c: np.ndarray, levels: list) -> np.ndarray:
    """z_0 of each row of the cyclic system F_j = f(z_j) - z_{j+1 mod r},
    r = len(levels) - 1, solved by Newton (multiple shooting) for all rows
    at once; f has ascending coefficients c.  Leaf w starts its row at z_j =
    the ancestor of w at level r - j.  A step dz_{j+1} = f'(z_j) dz_j - F_j
    from dz_0 = x runs as P_j x + Q_j and closes at x = Q_r / (1 - P_r); a
    step that moves some z_j by more than SHOOTING_REACH (1 + |z_j|) is
    scaled down to that, on z itself until a row stops: when its relative
    step is ``_settled`` or not finite, or after SHOOTING_STEPS steps."""
    r, deg = len(levels) - 1, len(c) - 1
    leaf = np.arange(len(levels[-1]))
    z = np.stack([levels[r - j][leaf // deg ** j] for j in range(r)])
    desc = c[::-1]
    active, last = leaf, np.full(len(leaf), np.inf)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for _ in range(SHOOTING_STEPS):
            if active.size == 0:
                break
            w = z if active.size == z.shape[1] else z[:, active]
            residual, slope = np.full_like(w, desc[0]), np.zeros_like(w)
            for a in desc[1:]:  # Horner for f and f' at once
                slope, residual = slope * w + residual, residual * w + a
            residual[:-1] -= w[1:]
            residual[-1] -= w[0]
            p, q = np.empty_like(w), np.empty_like(w)
            p[0], q[0] = 1.0, 0.0
            for j in range(r - 1):
                p[j + 1] = slope[j] * p[j]
                q[j + 1] = slope[j] * q[j] - residual[j]
            x = (slope[-1] * q[-1] - residual[-1]) / (1.0 - slope[-1] * p[-1])
            step = p * x + q
            size = np.max(np.abs(step) / (1.0 + np.abs(w)), axis=0)
            step *= np.minimum(1.0, SHOOTING_REACH / size)
            moved = np.isfinite(size)
            np.subtract(w, step, out=w, where=moved)
            if w is not z:
                z[:, active] = w
            still = moved & ~_settled(size, last[active], 1.0)
            last[active] = size
            active = active[still]
    return z[0]


def _overlapping(z: np.ndarray, radii: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The Newton disks among ``rows`` to drop so that the rest are pairwise
    disjoint.

    One at a time, largest radius first, a disk that holds another kept
    approximation is dropped: it may hold no root of its own.  Disks that
    then still meet another are all dropped, since two of them may share
    one root.
    """
    keep = np.ones(len(rows), dtype=bool)
    for k in np.argsort(-radii[rows], kind="stable"):
        keep[k] = False
        keep[k] = not np.any(np.abs(z[rows[keep]] - z[rows[k]]) <= radii[rows[k]])
    kept = rows[keep]
    keep[keep] = ~_meeting(z[kept], radii[kept])
    return rows[~keep]


def _meeting(z: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Whether each disk (z_i, radii_i) meets another, for finite z: sorted
    by real part, disk i is compared only with those within radii_i +
    max(radii), padded against rounding; an infinite disk meets all."""
    big = float(np.max(radii, initial=0.0))
    meets = np.full(len(z), len(z) > 1 and np.isinf(big))
    if meets.all():  # an infinite disk, or none at all
        return meets
    order = np.argsort(z.real, kind="stable")
    zs, rs, x = z[order], radii[order], z.real[order]
    with np.errstate(over="ignore"):  # an infinite limit takes all the rest
        limit = x + 2.0 * (rs + big) + 2.0 ** -50 * np.abs(x)
    width = np.searchsorted(x, limit, "right") - np.arange(len(z))
    for k in range(1, int(np.max(width))):
        i = np.flatnonzero(width > k)
        hit = i[np.abs(zs[i] - zs[i + k]) <= rs[i] + rs[i + k]]
        meets[order[hit]] = meets[order[hit + k]] = True
    return meets


def _point_order(z: np.ndarray) -> np.ndarray:
    """Indices of z by real part rounded to 1e-9, then imaginary part, so that
    conjugate points, whose real parts agree only up to rounding, come in
    the same order whatever their last bits.  A real part that rounding
    would overflow, above about 1.8e299, is its own key."""
    with np.errstate(over="ignore", invalid="ignore"):
        rounded = np.round(z.real, 9)
    return np.lexsort((z.imag, np.where(np.isfinite(rounded), rounded, z.real)))


@dataclass(frozen=True)
class PeriodicPoints1D:
    """Distinct solutions of f^r(z) = z with their certificate.

    ``radii`` are Newton-disk radii deg(g) * (|g| + e) / |g'| at each point
    of g = f^r(z) - z, with e a bound on the rounding error of g; each disk
    holds a root, since g'/g = sum 1/(z - zeta_k).
    ``unresolved`` lists root approximations whose orbit residual stayed
    above TOL_ORBIT; they are excluded from ``points``.
    """

    points: tuple
    multiplicities: tuple
    residuals: tuple
    radii: tuple
    unresolved: tuple = ()


def _certificate(f: PolyMap, r: int, roots: np.ndarray):
    """g = f^r(z) - z at the roots, the rounding slack of g / g', the Newton
    disk radii, whether each root closes, and whether its disk meets another."""
    g, n, slack = _orbit_ratio(f, r, roots, bound=True)
    radii = len(roots) * (np.abs(n) + slack)
    radii[np.isnan(radii)] = np.inf  # g = g' = 0: no disk to certify
    return g, slack, radii, _closes(np.abs(g), np.abs(roots)), _meeting(roots, radii)


def _escape_tree(f: PolyMap, r: int) -> list:
    """Levels 0, ..., r of the ``_preimages`` of z0 = R e^(0.7i), |f(z)| >= 2|z|
    on |z| >= R; kept on f, grown past its deepest level only, read-only."""
    c, levels = _coeffs_1d(f.components[0]), f._escape_levels
    if not levels:
        with np.errstate(over="ignore"):  # _preimages rejects an infinite radius
            radius = max(1.0, (2.0 + np.sum(np.abs(c[:-1]))) / abs(c[-1]))
        levels.append(np.array([radius * np.exp(0.7j)]))
    for level in _preimages(c, r, levels):
        level.setflags(write=False)
    return levels[:r + 1]


def _approximations(f: PolyMap, r: int) -> tuple:
    """The D = deg(f)^r roots of f^r(z) - z, deg f >= 2, and their
    ``_certificate``.  ``_shoot`` takes each of the D leaves of the
    ``_escape_tree`` to a periodic point.  Rows whose root does not close,
    and those ``_overlapping`` gives up (two leaves often reach one root),
    go back to their leaves for Aberth-Ehrlich with the rest held fixed.
    Unless that certifies all D, Aberth-Ehrlich from all the leaves gives
    the roots: only it settles multiple roots."""
    levels = _escape_tree(f, r)
    leaves = levels[-1]

    def ratio(z):
        return _orbit_ratio(f, r, z)[1]

    roots = _shoot(_coeffs_1d(f.components[0]), levels)
    cert = _certificate(f, r, roots)
    _, _, radii, ok, meets = cert
    if ok.all() and not meets.any():
        return roots, cert
    bad = ~ok
    bad[_overlapping(roots, radii, np.flatnonzero(meets))] = True
    roots[bad] = leaves[bad]
    roots = durand_kerner(ratio, roots, np.flatnonzero(bad))
    cert = _certificate(f, r, roots)
    _, _, _, ok, meets = cert
    if bad.all() or ok.all() and not meets.any():  # bad.all(): all leaves moved
        return roots, cert
    roots = durand_kerner(ratio, leaves)
    return roots, _certificate(f, r, roots)


def _iterate_is_identity(f: PolyMap, r: int) -> bool:
    """f^r = id, read exactly off a one-variable f = az + b: a is a root of
    unity of order dividing r, and b = 0 where a = 1; False for other maps."""
    if f.dim != 1 or f.degree >= 2:
        return False
    b, a = (f.components[0].get((k,), 0j) for k in (0, 1))
    # the roots of unity among Gaussian dyadics: 1, -1, i, -i
    order = {1: 1, -1: 2, 1j: 4, -1j: 4}.get(a)
    return order is not None and r % order == 0 and (a != 1 or b == 0)


def periodic_points_1d(f: PolyMap, r: int, detail: bool = False):
    """All complex solutions of f^r(z) = z (distinct values).

    Returns ALL_POINTS where f^r is the identity (``_iterate_is_identity``);
    otherwise an affine f = az + b has one point, its fixed point
    b / (1 - a), or none when a = 1 or that quotient is not finite.  For
    deg f >= 2 the D = deg(f)^r roots of f^r(z) - z (D above
    DEFAULT_MAX_TERMS is rejected) come from ``_approximations``.  When
    every root meets TOL_ORBIT and the D Newton disks are pairwise
    disjoint, which proves one root in each, every root is a point.
    Otherwise roots are clustered at radius 1e-6 * (1 + |p|), and fewer
    than D points are returned; should the clusters still number D,
    ``_overlapping`` drops disks until the rest are disjoint.  Points come
    in ``_point_order``.
    """
    if f.dim != 1:
        raise PreconditionError("periodic_points_1d needs a one-variable map")
    if r < 1:
        raise PreconditionError("iteration count must be >= 1")
    total = root_count_1d(f, r)
    if f.degree >= 2:
        if total > DEFAULT_MAX_TERMS:
            raise PreconditionError(
                f"f^{r}(z) - z has {total} roots, more than the cap "
                f"{DEFAULT_MAX_TERMS}")
        roots, (g, slack, radii, ok, meets) = _approximations(f, r)
    else:
        if _iterate_is_identity(f, r):
            return ALL_POINTS
        b, a = (f.components[0].get((k,), 0j) for k in (0, 1))
        roots = np.array([b / (1.0 - a)] if a != 1 else [], dtype=complex)
        roots = roots[np.isfinite(roots)]
        g, slack, radii, ok, meets = _certificate(f, r, roots)
    if ok.all() and not meets.any():  # D simple roots, one in each disk
        clusters = [[i] for i in range(len(roots))]
    else:
        clusters = cluster_points(roots[ok], DEDUP_RADIUS, slack[ok])
        if len(clusters) == total:  # the count must not claim them all
            ok[_overlapping(roots, radii, np.flatnonzero(meets))] = False
            clusters = cluster_points(roots[ok], DEDUP_RADIUS, slack[ok])
    kept = np.flatnonzero(ok)
    clusters = [kept[cl] for cl in clusters]
    reps = np.array([cl[0] for cl in clusters], dtype=np.intp)
    order = _point_order(roots[reps])
    clusters, reps = [clusters[k] for k in order], reps[order]
    points = tuple(complex(roots[i]) for i in reps)
    if not detail:
        return list(points)
    return PeriodicPoints1D(
        points=points,
        multiplicities=tuple(len(cl) for cl in clusters),
        residuals=tuple(float(abs(g[i])) for i in reps),
        radii=tuple(float(radii[i]) for i in reps),
        unresolved=tuple(complex(z) for z in roots[~ok]),
    )


# ---------------------------------------------------------------------------
# Newton multistart on C^d, d >= 2


def _alt_sum(terms: list, sign=1):
    """sign * (t0 - t1 + t2 - ...): the added terms left to right, then each subtracted."""
    return reduce(np.subtract, terms[sign > 0::2], reduce(np.add, terms[sign < 0::2]))


def _chain(step: np.ndarray, m) -> list:
    """Entries of step @ m, row-major, for a stack step (N, d, d) and the d * d
    entry arrays of m, entry (i, j) the sum of step[i, k] * m[k, j] left to
    right.  numpy runs a stacked complex matmul as one zgemm call per matrix."""
    d = step.shape[-1]
    s, m = list(step.reshape(-1, d * d).T), list(m)
    return [sum([s[i + k] * m[k * d + j] for k in range(1, d)], s[i] * m[j])
            for i in range(0, d * d, d) for j in range(d)]


def _minor(m, d: int, rows: tuple, cols: tuple):
    """Determinant of the rows x cols block of the d * d entry arrays m, by
    Laplace expansion along its first row, each entry times its minor."""
    if len(rows) == 1:
        return m[rows[0] * d + cols[0]]
    return _alt_sum([m[rows[0] * d + c] * _minor(m, d, rows[1:], cols[:k] + cols[k + 1:])
                     for k, c in enumerate(cols)])


def _solve(m, v: np.ndarray):
    """Cramer's rule for m x = v, m by its d * d entry arrays: x (0 where det
    == 0), det != 0.  For m = (a, b, c, d), x = (d v0 - b v1, a v1 - c v0) / det."""
    d, full = v.shape[1], tuple(range(v.shape[1]))
    rest = [full[:k] + full[k + 1:] for k in full]
    det = _minor(m, d, full, full)
    x = np.stack([_alt_sum([_minor(m, d, rest[j], rest[i]) * v[:, j] for j in full],
                           (-1) ** i) for i in full], axis=1)
    return x / np.where(det == 0, np.inf, det)[:, None], det != 0


@dataclass(frozen=True)
class SearchConfig:
    """Multistart Newton budget: ``starts`` seeded starts (reproducible).

    ``starts`` and ``seed`` must be ints >= 0, booleans excluded.
    """

    starts: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   and v >= 0 for v in (self.starts, self.seed)):
            raise PreconditionError(f"{self} needs ints starts >= 0 and seed >= 0")


@dataclass(frozen=True)
class SearchResult:
    points: tuple
    converged: int
    starts: int
    seed: int


def _norms(v: np.ndarray, axis=-1) -> np.ndarray:
    """np.linalg.norm's own formula for norms over axis, without its dispatch."""
    return np.sqrt(np.add.reduce((v.conj() * v).real, axis=axis))


def _newton_lockstep(f: PolyMap, periods, config: SearchConfig) -> list:
    """The multistart's SearchResult for f^r(z) = z on C^d, d >= 2, at each r
    of ``periods`` (descending), in one lockstep.  Row k * starts + s runs start
    s at periods[k]; live rows keep that order and step in blocks of at most
    ``config.starts``, chain stage j on the prefix whose period exceeds j, so
    each row has the bits of a search of its period alone."""
    n, d = config.starts, f.dim
    rng = np.random.default_rng(config.seed)
    rad = rng.uniform(0.0, 1.0, size=(n, d)) ** 0.5 * START_RADIUS
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(n, d))
    z = np.tile(rad * np.exp(1j * ang), (len(periods), 1))
    converged, alive = np.zeros(len(z), dtype=bool), np.ones(len(z), dtype=bool)
    bound = [n * sum(r > j for r in periods) for j in range(max(periods, default=0))]
    eye = np.eye(d, dtype=complex).reshape(d * d, 1)  # the entries of I
    with np.errstate(all="ignore"):  # divergent starts overflow, then drop
        for _ in range(NEWTON_STEPS):
            live = np.flatnonzero(alive)
            if live.size == 0:
                break
            for rows in (live[lo:lo + n] for lo in range(0, live.size, n)):
                zl = z[rows]
                w, chain = zl.copy(), eye.repeat(len(rows), 1)  # D(f^j) after stage j
                for j in range(periods[rows[0] // n]):  # rows below bound[j]: period > j
                    m = rows.searchsorted(bound[j])
                    w[:m], jac = f.evaluate_batch(w[:m])
                    chain[:, :m] = _chain(jac, chain[:, :m])
                    del jac  # so that the next stage's arrays can take its memory
                fv = w - zl
                converged[rows] = _norms(fv) <= NEWTON_RESIDUAL * (1.0 + _norms(zl))
                step, solved = _solve(chain - eye, fv)
                alive[rows] = keep = ~converged[rows] & solved
                rows, zl = rows[keep], zl[keep] - step[keep]
                z[rows] = zl
                alive[rows] = _norms(zl) <= ESCAPE_NORM  # NaN fails too
    found = [zk[ok] for zk, ok in zip(z.reshape(len(periods), n, d),
                                      converged.reshape(len(periods), n))]
    return [SearchResult(tuple(tuple(x[cl[0]]) for cl in cluster_points(x, DEDUP_RADIUS)),
                         len(x), n, config.seed) for x in found]


def periodic_points_2d(f: PolyMap, r: int, config: SearchConfig = SearchConfig()):
    """Newton multistart for f^r(z) = z on C^2.  Not guaranteed complete."""
    if f.dim != 2 or r < 1:
        raise PreconditionError("periodic_points_2d needs a 2-variable map, r >= 1")
    return _newton_lockstep(f, (r,), config)[0]


# ---------------------------------------------------------------------------
# multipliers, stability, cocycle


def _chain_multipliers(f: PolyMap, pts) -> tuple:
    """Eigenvalues of the Jacobian chain along ``_closed_walk`` points; a
    1x1 chain is its own, each step summed from +0j as numpy's ``@`` does."""
    if f.dim == 1:  # f' from its compiled table, as ``jacobian`` reads it
        m, slope = 1 + 0j, f._terms[1][0][0]
        for x in pts:
            m = _poly_eval(slope, [x]) * m + 0j
        return (np.complex128(m),)  # eigvals' type: abs() of an overflow is inf
    jac = np.eye(f.dim, dtype=complex)
    for x in pts:
        jac = f.jacobian(x) @ jac
    vals = np.linalg.eigvals(jac)
    return tuple(sorted(vals, key=lambda z: (z.real, z.imag)))


def multipliers(f: PolyMap, p, r: int) -> tuple:
    """Eigenvalues of D(f^r) at p, via the Jacobian chain along the orbit."""
    walk = _closed_walk(f, p, r)[0]
    return _chain_multipliers(f, walk[:-1])


def _modulus_band(m: float):
    """The one multiplier-modulus rule: "zero" below TOL_CLASS, "below" below
    1 - TOL_CLASS, "above" above 1 + TOL_CLASS, else "at"; NaN is in none."""
    if m < TOL_CLASS:
        return "zero"
    if m < 1.0 - TOL_CLASS:
        return "below"
    if m > 1.0 + TOL_CLASS:
        return "above"
    return "at" if m >= 1.0 - TOL_CLASS else None


def first_near_best(values) -> int:
    """Lowest index whose value is within TIE_TOL (relative) of the largest.

    The values must be finite.  Equal maxima, such as q and conj(q) for a
    map with real coefficients, then resolve by order rather than by
    last-bit rounding.
    """
    values = np.asarray(values)
    return int(np.flatnonzero(values >= values.max() * (1.0 - TIE_TOL))[0])


def classify(mults) -> str:
    """Stability class from the bands of the multiplier moduli."""
    bands = {_modulus_band(abs(m)) for m in mults}
    if bands == {"zero"}:
        return "superattracting"
    if bands and bands <= {"zero", "below"}:
        return "attracting"
    if bands == {"above"}:
        return "repelling"
    if "above" in bands and bands & {"zero", "below"}:
        return "saddle"
    return "indifferent" if bands == {"at"} else "inconclusive"


def evaluate_weight(u, point) -> complex:
    """Evaluate a weight: None means u == 1; PolyFunc and callables both work."""
    if u is None:
        return 1.0 + 0j
    if isinstance(u, PolyFunc):
        return u(point)
    return complex(u(np.atleast_1d(np.asarray(point, dtype=complex))))


def weight_cocycle(u, orbit) -> complex:
    """Product of the weight along the orbit: u_r = prod_j u(orbit[j])."""
    if u is None:
        return 1.0 + 0j
    with np.errstate(over="ignore", invalid="ignore"):  # callers test finiteness
        return math.prod((evaluate_weight(u, p) for p in orbit), start=1.0 + 0j)


def cocycle_poly(u: PolyFunc, f: PolyMap, r: int) -> PolyFunc:
    """The cocycle u_r = prod_{j<r} u o f^j as an explicit polynomial."""
    if u.dim != f.dim:
        raise PreconditionError("weight and map dimensions differ")
    out = {(0,) * f.dim: 1.0 + 0j}
    stage = PolyMap.linear(np.eye(f.dim))  # f^0
    for j in range(r):
        powers = PowerCache(stage.components, f.dim, max_terms=DEFAULT_MAX_TERMS)
        factor = check_terms(substitute(u.terms, powers), DEFAULT_MAX_TERMS,
                             "composition produced")
        out = check_terms(table_multiply(out, factor), DEFAULT_MAX_TERMS,
                          "polynomial grew to")
        if j + 1 < r:
            stage = f.compose(stage)
    return PolyFunc(f.dim, out)


@dataclass(frozen=True)
class PeriodicOrbit:
    """A verified periodic orbit with its multiplier data.

    ``period`` is the exact period (smallest divisor of the declared one
    for which the orbit closes); ``points`` has that length.
    """

    points: tuple
    period: int
    multipliers: tuple
    stability: str
    residual: float


def make_orbit(f: PolyMap, p, r: int) -> PeriodicOrbit:
    """Verified PeriodicOrbit at p, from one walk p, f(p), ..., f^r(p): its
    closure, exact period (least divisor d of r with f^d(p) back at p) and
    multipliers."""
    if r < 1:
        raise PreconditionError("iteration count must be >= 1")
    walk, closure, size, exact = _closed_walk(f, p, r)
    mults = _chain_multipliers(f, walk[:exact])
    return PeriodicOrbit(
        points=tuple((x,) if f.dim == 1 else tuple(x.tolist()) for x in walk[:exact]),
        period=exact,
        multipliers=mults,
        stability=classify(mults),
        residual=closure,
    )


# ---------------------------------------------------------------------------
# the periodic-orbit search shared by every obstruction


def _verified(f: PolyMap, r: int, points, record: dict):
    """(orbits, record): ``make_orbit`` at ``points``; a walk it rejects is left out."""
    orbits = []
    for p in points:
        try:
            orbits.append(make_orbit(f, p, r))
        except OrbitError:  # closed in the search, not in the walk
            record["complete"] = False
    return orbits, record


def _found(result: SearchResult):  # the points and record of a multistart
    return result.points, {"complete": False, "starts": result.starts,
                           "converged": result.converged, "seed": result.seed}


def orbits_of_period(f: PolyMap, r: int, config: SearchConfig = SearchConfig()):
    """(orbits, record): the ``make_orbit`` result for every point of period
    dividing r, in point order, and the search record.

    In one variable the points are all roots of f^r(z) - z, and
    ``record["complete"]`` holds when as many distinct points were resolved
    as f^r(z) - z has roots; where f^r is the identity, the orbit through
    GENERIC_POINT is offered and the record is incomplete.  On C^d, d >= 2,
    the record carries the ``config`` Newton multistart's ``starts``,
    ``converged`` and ``seed``.  A point whose walk ``make_orbit`` rejects
    is left out, and the record is then incomplete.
    """
    if f.dim > 1:
        return _verified(f, r, *_found(_newton_lockstep(f, (r,), config)[0]))
    found = periodic_points_1d(f, r)
    if isinstance(found, AllPoints):
        return _verified(f, r, [np.array([GENERIC_POINT])], {"complete": False})
    record = {"complete": len(found) == root_count_1d(f, r)}
    return _verified(f, r, [np.array([z]) for z in found], record)


def periodic_orbits(f: PolyMap, r_max: int, config: SearchConfig = SearchConfig()):
    """Yield (r, orbits, record) for r = 1, ..., r_max: ``orbits_of_period``'s
    orbits of exact period r and its record, for d >= 2 all from one lockstep."""
    if f.dim > 1:
        searches = _newton_lockstep(f, range(r_max, 0, -1), config)[::-1]
        found = (_verified(f, r, *_found(s)) for r, s in enumerate(searches, 1))
    else:
        found = (orbits_of_period(f, r, config) for r in range(1, r_max + 1))
    for r, (orbits, record) in enumerate(found, 1):
        yield r, [orbit for orbit in orbits if orbit.period == r], record
