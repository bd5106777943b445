"""Polynomial self-maps of C^d: orbits, periodic points, multipliers.

Periodic points p with f^r(p) = p carry a multiplier multiset, the
eigenvalues of the Jacobian of f^r along the orbit, and a weight cocycle
value u_r(p) = prod_{j<r} u(f^j(p)).  In one variable the points of period
dividing r are found completely as roots of f^r(z) - z (companion-matrix
eigenvalues, cross-checked by Durand-Kerner); in two variables a seeded
Newton multistart supplies witnesses without any completeness claim.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    OrbitError,
    PreconditionError,
    SelfCheckError,
)
from .jets import (
    Jet,
    JetMap,
    PowerCache,
    check_terms,
    greedy_pairs,
    substitute,
    table_multiply,
)

DEFAULT_MAX_TERMS = 4096
TOL_ORBIT = 1e-8
TOL_CLASS = 1e-9
IDENTITY_COEFF_TOL = 1e-12
DEDUP_RADIUS = 1e-6
NEWTON_RESIDUAL = 1e-12


# ---------------------------------------------------------------------------
# sparse polynomial tables


def _poly_clean(table: dict) -> dict:
    return {tuple(int(x) for x in a): complex(c) for a, c in table.items()
            if complex(c) != 0}


def _poly_eval(table: dict, z: np.ndarray) -> complex:
    total = 0j
    for alpha, c in table.items():
        term = c
        for zi, a in zip(z, alpha):
            if a:
                term *= zi ** a
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
    base = tuple(complex(b) for b in base)
    shifts = [_poly_clean({tuple(1 if k == j else 0 for k in range(dim)): 1.0,
                           (0,) * dim: base[j]})
              for j in range(dim)]
    return Jet(dim, cap, base, substitute(table, PowerCache(shifts, dim, cap=cap)))


def _as_point(z, dim: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.shape != (dim,):
        raise PreconditionError(f"point of shape {arr.shape}, expected ({dim},)")
    return arr


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

    def __call__(self, z) -> complex:
        return _poly_eval(self.terms, _as_point(z, self.dim))

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
        b = np.zeros(d, dtype=complex) if b is None else np.asarray(b, dtype=complex)
        comps = []
        for i in range(d):
            table = {tuple(1 if k == j else 0 for k in range(d)): a[i, j]
                     for j in range(d)}
            table[(0,) * d] = b[i]
            comps.append(table)
        return cls(d, tuple(comps))

    @property
    def degree(self) -> int:
        return max(_poly_degree(c) for c in self.components)

    def is_affine(self) -> bool:
        return self.degree <= 1

    def __call__(self, z) -> np.ndarray:
        z = _as_point(z, self.dim)
        return np.array([_poly_eval(c, z) for c in self.components])

    @cached_property
    def _partials(self):
        return tuple(tuple(_poly_diff(c, j) for j in range(self.dim))
                     for c in self.components)

    def jacobian(self, z) -> np.ndarray:
        z = _as_point(z, self.dim)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(self.dim):
            for j in range(self.dim):
                out[i, j] = _poly_eval(self._partials[i][j], z)
        return out

    def compose(self, inner: "PolyMap", max_terms=DEFAULT_MAX_TERMS) -> "PolyMap":
        """Coefficient table of self o inner."""
        if inner.dim != self.dim:
            raise PreconditionError("composition dimension mismatch")
        powers = PowerCache(inner.components, self.dim, max_terms=max_terms)
        comps = tuple(check_terms(substitute(table, powers), max_terms,
                                  "composition produced")
                      for table in self.components)
        return PolyMap(self.dim, comps)

    def to_jetmap(self, base, cap: int) -> JetMap:
        comps = tuple(_poly_to_jet(c, self.dim, base, cap)
                      for c in self.components)
        return JetMap(self.dim, self.dim, comps)


def iterate(f: PolyMap, r: int, max_terms=DEFAULT_MAX_TERMS) -> PolyMap:
    """Coefficient table of the r-fold composition f o ... o f."""
    if r < 1:
        raise PreconditionError("iteration count must be >= 1")
    if f.degree >= 2 and f.degree ** r > max_terms:
        warnings.warn(
            f"deg(f)^r = {f.degree ** r} exceeds the term safety cap "
            f"{max_terms}; expansion may overflow", stacklevel=2)
    out = f
    for _ in range(r - 1):
        out = f.compose(out, max_terms)
    return out


def iterate_point(f: PolyMap, z, r: int) -> np.ndarray:
    z = _as_point(z, f.dim)
    for _ in range(r):
        z = f(z)
    return z


def orbit_points(f: PolyMap, p, r: int) -> list:
    pts = [_as_point(p, f.dim)]
    for _ in range(r - 1):
        pts.append(f(pts[-1]))
    return pts


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
    deg = len(c) - 1
    if deg < 1:
        return np.zeros(0, dtype=complex)
    monic = c / c[-1]
    m = np.zeros((deg, deg), dtype=complex)
    m[1:, :-1] = np.eye(deg - 1)
    m[:, -1] = -monic[:-1]
    return np.linalg.eigvals(m)


def _fujiwara_radius(monic: np.ndarray) -> float:
    """Upper bound on root moduli: 2 max_k |a_(D-k)|^(1/k) for monic input."""
    deg = len(monic) - 1
    best = 0.0
    for k in range(1, deg + 1):
        mag = abs(monic[deg - k])
        if mag > 0:
            best = max(best, mag ** (1.0 / k))
    return 2.0 * best if best > 0 else 1.0


def durand_kerner(coeffs: np.ndarray, max_iter=None, tol=1e-14) -> np.ndarray:
    """Simultaneous root iteration; independent cross-check for companion roots.

    Starts on a spiral inside the Fujiwara root bound (the Cauchy bound is
    uselessly large once monic coefficients grow), sweeps with a budget
    scaled by the degree, and finishes each root with plain Newton steps on
    the polynomial itself.
    """
    c = np.asarray(coeffs, dtype=complex)
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    deg = len(c) - 1
    if deg < 1:
        return np.zeros(0, dtype=complex)
    monic = c / c[-1]
    desc = monic[::-1]
    d_desc = np.polyder(desc)
    if max_iter is None:
        max_iter = max(500, 40 * deg)
    radius = _fujiwara_radius(monic)
    z = radius * (0.4 + 0.9j) ** np.arange(1, deg + 1)
    for _ in range(max_iter):
        p = np.polyval(desc, z)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        den = np.prod(diff, axis=1)
        safe = np.abs(den) > 0
        delta = np.where(safe, p / np.where(safe, den, 1.0), 0.0)
        z = z - delta
        if np.max(np.abs(delta)) <= tol * (1.0 + np.max(np.abs(z))):
            break
    # per-root Newton polish (still independent of the companion matrix)
    for _ in range(30):
        p = np.polyval(desc, z)
        dp = np.polyval(d_desc, z)
        ok = np.abs(dp) > 1e-300
        step = np.where(ok, p / np.where(ok, dp, 1.0), 0.0)
        scale = np.abs(np.polyval(np.abs(desc), np.abs(z)))
        done = np.abs(p) <= 1e-13 * (1.0 + scale)
        step = np.where(done, 0.0, step)
        if not np.any(np.abs(step) > 0):
            break
        z = z - step
    return z


def cluster_points(points, radius: float) -> list:
    """Greedy clustering shared by every point and level dedup.

    Points (complex scalars or vectors) are visited in lexicographic order
    of their real and imaginary parts; each joins the first cluster whose
    representative ``rep`` lies within radius * (1 + |rep|), or else starts
    a new one.  Returns the clusters as lists of indices into ``points``,
    each led by the index of its representative.
    """
    def size(z):
        return abs(z) if np.ndim(z) == 0 else np.linalg.norm(z)

    def key(i):
        return tuple(part for x in np.atleast_1d(points[i])
                     for part in (x.real, x.imag))

    clusters: list[list] = []
    reach: list[float] = []  # radius * (1 + |rep|) of each cluster
    for i in sorted(range(len(points)), key=key):
        z = points[i]
        for cl, bound in zip(clusters, reach):
            if size(z - points[cl[0]]) <= bound:
                cl.append(i)
                break
        else:
            clusters.append([i])
            reach.append(radius * (1.0 + size(z)))
    return clusters


@dataclass(frozen=True)
class PeriodicPoints1D:
    """Distinct solutions of f^r(z) = z with cross-check diagnostics.

    ``unresolved`` lists root candidates of the expanded polynomial whose
    pointwise orbit residual could not be driven below tolerance (possible
    for severely ill-conditioned high-degree expansions); they are excluded
    from ``points``.
    """

    points: tuple
    multiplicities: tuple
    residuals: tuple
    companion: tuple
    durand_kerner: tuple
    crosscheck_distance: float
    unresolved: tuple = ()


def periodic_points_1d(f: PolyMap, r: int, detail: bool = False):
    """All complex solutions of f^r(z) = z (distinct values).

    Returns ALL_POINTS when f^r is the identity map.  Roots come from the
    companion matrix of f^r(z) - z and must agree with an independent
    Durand-Kerner run to 1e-8; each root is Newton-polished and clustered
    at radius 1e-6 * (1 + |p|).
    """
    if f.dim != 1:
        raise PreconditionError("periodic_points_1d needs a one-variable map")
    g = iterate(f, r)
    coeffs = _coeffs_1d(g.components[0])
    if len(coeffs) < 2:
        coeffs = np.concatenate([coeffs, [0j]])
    coeffs[1] -= 1.0  # f^r(z) - z
    if np.all(np.abs(coeffs) <= IDENTITY_COEFF_TOL):
        return ALL_POINTS
    raw = companion_roots(coeffs)
    check = durand_kerner(coeffs)
    if len(raw) != len(check) or not np.all(np.isfinite(check)):
        raise SelfCheckError("Durand-Kerner produced a bad root count")
    # backward-error audit: both routes must return numerical roots.  At an
    # ill-conditioned root the two true-roots-of-perturbed-polynomials can
    # drift apart far beyond 1e-8, so the pairing distance is reported in
    # the detail record rather than hard-failing on conditioning.
    trimmed = np.trim_zeros(coeffs, "b")
    desc = (trimmed / trimmed[-1])[::-1]
    mags = np.abs(desc)
    for label, roots in (("companion", raw), ("Durand-Kerner", check)):
        if len(roots) == 0:
            continue
        resid = np.abs(np.polyval(desc, roots))
        rel = resid / (1.0 + np.polyval(mags, np.abs(roots)))
        if np.max(rel) > 1e-9:
            raise SelfCheckError(
                f"{label} values are not roots: relative residual "
                f"{np.max(rel):.3e}"
            )
    dist = max((gap for _, gap in greedy_pairs(raw, check)), default=0.0)

    def resid(z):
        return iterate_point(f, [z], r)[0] - z

    def derivative(z):
        jac = 1.0 + 0j
        w = np.array([z])
        for _ in range(r):
            jac *= f.jacobian(w)[0, 0]
            w = f(w)
        return jac - 1.0

    polished = []
    unresolved = []
    for z in raw:
        # damped Newton on the pointwise iterate: a step is kept only when
        # the residual actually drops, so ill-conditioned starting values
        # cannot send the iteration off to infinity
        z = complex(z)
        val = resid(z)
        for _ in range(100):
            if abs(val) <= NEWTON_RESIDUAL * (1.0 + abs(z)):
                break
            dval = derivative(z)
            if abs(dval) < 1e-14:
                break  # multiple root; keep the best value found
            step = val / dval
            improved = False
            for _ in range(40):
                cand = z - step
                cand_val = resid(cand)
                if abs(cand_val) < abs(val):
                    z, val = cand, cand_val
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        if abs(val) <= TOL_ORBIT * (1.0 + abs(z)):
            polished.append(z)
        else:
            unresolved.append(z)

    clusters = cluster_points(polished, DEDUP_RADIUS)
    points = tuple(polished[cl[0]] for cl in clusters)
    if not detail:
        return list(points)
    return PeriodicPoints1D(
        points=points,
        multiplicities=tuple(len(cl) for cl in clusters),
        residuals=tuple(abs(resid(z)) for z in points),
        companion=tuple(raw),
        durand_kerner=tuple(check),
        crosscheck_distance=dist,
        unresolved=tuple(unresolved),
    )


# ---------------------------------------------------------------------------
# two-variable Newton multistart


@dataclass(frozen=True)
class SearchConfig:
    """Multistart Newton search parameters (seeded, hence reproducible)."""

    starts: int = 2000
    radius: float = 5.0
    newton_steps: int = 100
    seed: int = 0
    residual_tol: float = NEWTON_RESIDUAL
    cluster_radius: float = DEDUP_RADIUS


@dataclass(frozen=True)
class SearchResult:
    points: tuple
    converged: int
    starts: int
    seed: int
    complete: bool = False


def periodic_points_2d(f: PolyMap, r: int, config: SearchConfig = SearchConfig()):
    """Newton multistart for f^r(z) = z on C^2.  Not guaranteed complete."""
    if f.dim != 2:
        raise PreconditionError("periodic_points_2d needs a two-variable map")
    rng = np.random.default_rng(config.seed)
    rad = rng.uniform(0.0, 1.0, size=(config.starts, 2)) ** 0.5 * config.radius
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(config.starts, 2))
    starts = rad * np.exp(1j * ang)

    def run(z0):
        z = z0.copy()
        for _ in range(config.newton_steps):
            w = z
            jac = np.eye(2, dtype=complex)
            for _ in range(r):
                jac = f.jacobian(w) @ jac
                w = f(w)
            fv = w - z
            nrm = np.linalg.norm(fv)
            if nrm <= config.residual_tol * (1.0 + np.linalg.norm(z)):
                return z
            m = jac - np.eye(2)
            try:
                step = np.linalg.solve(m, fv)
            except np.linalg.LinAlgError:
                return None
            z = z - step
            if not np.all(np.isfinite(z)) or np.linalg.norm(z) > 1e9:
                return None
        return None

    found = [z for z in map(run, starts) if z is not None]
    clusters = cluster_points(found, config.cluster_radius)
    return SearchResult(
        points=tuple(tuple(found[cl[0]]) for cl in clusters),
        converged=len(found),
        starts=config.starts,
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# multipliers, stability, cocycle


def multipliers(f: PolyMap, p, r: int, tol_orbit=TOL_ORBIT) -> tuple:
    """Eigenvalues of D(f^r) at p, via the Jacobian chain along the orbit."""
    p = _as_point(p, f.dim)
    pts = orbit_points(f, p, r)
    closure = np.linalg.norm(f(pts[-1]) - p)
    if closure > tol_orbit * (1.0 + np.linalg.norm(p)):
        raise OrbitError(
            f"point is not {r}-periodic: residual {closure:.3e}"
        )
    jac = np.eye(f.dim, dtype=complex)
    for x in pts:
        jac = f.jacobian(x) @ jac
    vals = np.linalg.eigvals(jac)
    return tuple(sorted(vals, key=lambda z: (z.real, z.imag)))


def classify(mults, tol_class=TOL_CLASS) -> str:
    """Stability class from the multiplier moduli."""
    mods = [abs(m) for m in mults]
    if not mods:
        return "inconclusive"
    if all(m < tol_class for m in mods):
        return "superattracting"
    if all(m < 1.0 - tol_class for m in mods):
        return "attracting"
    if all(m > 1.0 + tol_class for m in mods):
        return "repelling"
    if any(m > 1.0 + tol_class for m in mods) and any(m < 1.0 - tol_class for m in mods):
        return "saddle"
    if all(abs(m - 1.0) <= tol_class for m in mods):
        return "indifferent"
    return "inconclusive"


def evaluate_weight(u, point) -> complex:
    """Evaluate a weight: None means u == 1; PolyFunc and callables both work."""
    if u is None:
        return 1.0 + 0j
    if isinstance(u, PolyFunc):
        return u(point)
    return complex(u(np.atleast_1d(np.asarray(point, dtype=complex))))


def weight_cocycle(u, orbit) -> complex:
    """Product of the weight along the orbit: u_r = prod_j u(orbit[j])."""
    total = 1.0 + 0j
    for p in orbit:
        total *= evaluate_weight(u, p)
    return total


def cocycle_poly(u: PolyFunc, f: PolyMap, r: int,
                 max_terms=DEFAULT_MAX_TERMS) -> PolyFunc:
    """The cocycle u_r = prod_{j<r} u o f^j as an explicit polynomial."""
    if u.dim != f.dim:
        raise PreconditionError("weight and map dimensions differ")
    out = {(0,) * f.dim: 1.0 + 0j}
    stage = PolyMap.linear(np.eye(f.dim))  # f^0
    for j in range(r):
        powers = PowerCache(stage.components, f.dim, max_terms=max_terms)
        factor = check_terms(substitute(u.terms, powers), max_terms,
                             "composition produced")
        out = check_terms(table_multiply(out, factor), max_terms,
                          "polynomial grew to")
        if j + 1 < r:
            stage = f.compose(stage, max_terms)
    return PolyFunc(f.dim, out)


@dataclass(frozen=True)
class PeriodicOrbit:
    """A verified periodic orbit with its multiplier and cocycle data.

    ``period`` is the exact period (smallest divisor of the declared one
    for which the orbit closes); ``points`` has that length.
    """

    points: tuple
    period: int
    u_r_value: complex
    multipliers: tuple
    stability: str
    residual: float


def make_orbit(f: PolyMap, p, r: int, u=None, tol_orbit=TOL_ORBIT) -> PeriodicOrbit:
    """Build a PeriodicOrbit at p, verifying closure and reducing the period."""
    p = _as_point(p, f.dim)
    closure = np.linalg.norm(iterate_point(f, p, r) - p)
    if closure > tol_orbit * (1.0 + np.linalg.norm(p)):
        raise OrbitError(f"f^{r}(p) - p has residual {closure:.3e}")
    exact = r
    for div in range(1, r):
        if r % div == 0:
            res = np.linalg.norm(iterate_point(f, p, div) - p)
            if res <= tol_orbit * (1.0 + np.linalg.norm(p)):
                exact = div
                break
    pts = orbit_points(f, p, exact)
    mults = multipliers(f, p, exact, tol_orbit)
    return PeriodicOrbit(
        points=tuple(tuple(x) for x in pts),
        period=exact,
        u_r_value=weight_cocycle(u, pts),
        multipliers=mults,
        stability=classify(mults),
        residual=float(closure),
    )
