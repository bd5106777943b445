"""Constructive repelling fixed points for non-affine maps on C^d, d >= 2.

Given non-affine polynomial f, the radius-r sphere maximum M(r) of ||f||
makes H(s) = log(M(e^s)/e^s) convex and unbounded above.  At any s with
H(s) > 0 and H'(s) > 0, putting r = e^s, q the maximizer, p = f(q),
a = r/M(r) in (0,1), and U a determinant-one unitary with a U p = q, the
map g = f o (aU) fixes p and its derivative A satisfies A* p = eta p with
eta = r M'(r)/M(r) > 1.  Everything is verified numerically: unitarity,
the fixed point, the adjoint eigenvector, and the realized eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PolyMap
from .errors import ConstructionError, PreconditionError, RangeError

TOL_FIX = 1e-6
TOL_VEC = 1e-6
TOL_ETA = 1e-3
TOL_UNITARY = 1e-9
SELECT_MARGIN = 1e-6
KINK_DISAGREEMENT = 1e-2
HALVINGS = 4  # backtracking step sizes per batched evaluation
ARMIJO = 1e-4  # fraction of the predicted gain a step must realize
CURVATURE_FLOOR = 1e-8  # smallest |eigenvalue|, relative to the Hessian's terms
ROUNDING = 4.0 * np.finfo(float).eps  # relative gain of phi below its rounding
SLOPE = np.sqrt(ROUNDING)  # relative slope r |grad| / phi whose gain is ROUNDING
TIE_TOL = 1e-12  # relative gap below which two sphere maxima are equal


@dataclass(frozen=True)
class MaxSearchConfig:
    """Budget for the multistart Riemannian Newton ascent on a sphere."""

    starts: int = 64
    max_iter: int = 300
    gtol: float = 1e-10
    seed: int = 0


@dataclass(frozen=True)
class SphereMax:
    point: np.ndarray
    value: float
    grad_norm: float


@dataclass(frozen=True)
class SphereMaxProfile:
    """Sampled sphere maxima with log-log derivative estimates.

    samples hold (r, M(r), argmax); H_values hold (s, H(s), H'(s)) with H'
    by central differences (None at the grid ends).
    """

    samples: tuple
    H_values: tuple


@dataclass(frozen=True)
class RepellingConstruction:
    a: float
    U: np.ndarray
    p: np.ndarray
    eta: float
    residual_fix: float
    residual_eigvec: float
    r: float
    s: float
    M: float
    q: np.ndarray
    lagrange_multiplier: float
    lagrange_identity_error: float
    eigenvalues: tuple
    profile: "SphereMaxProfile | None" = None


def _phi_derivatives(f: PolyMap, x: np.ndarray):
    """phi = ||f||^2 at a stack of points x = (Re z, Im z), with its gradient
    (N, 2d) and Hessian (N, 2d, 2d) in those real coordinates.

    With g = 2 J^H f, A = J^H J and B = sum_i conj(f_i) d^2 f_i, the second
    order term of phi(z + w) is w^H A w + Re(w^T B w).
    """
    d = f.dim
    fz, jac, second = f.second_order_batch(x[:, :d] + 1j * x[:, d:])
    grad = 2.0 * np.matmul(fz.conj()[:, None, :], jac)[:, 0].conj()
    a = np.matmul(jac.conj().transpose(0, 2, 1), jac)
    b = np.einsum("ni,nijk->njk", fz.conj(), second)
    hess = 2.0 * np.block([[a.real + b.real, -a.imag - b.imag],
                           [a.imag - b.imag, a.real - b.real]])
    return (np.linalg.norm(fz, axis=1) ** 2,
            np.concatenate([grad.real, grad.imag], axis=1), hess)


def _phi(f: PolyMap, x: np.ndarray) -> np.ndarray:
    """phi = ||f||^2 alone at a stack of points x = (Re z, Im z)."""
    d = f.dim
    return np.linalg.norm(f.values_batch(x[:, :d] + 1j * x[:, d:]), axis=1) ** 2


def _newton_steps(x: np.ndarray, r: np.ndarray, grad: np.ndarray, hess: np.ndarray):
    """Tangent gradient norm, saddle-free Newton step and Newton decrement on
    spheres.

    The Riemannian Hessian P H P - (x.grad / r^2) P of phi on the sphere is
    split by eigh after its radial direction x is pushed below the tangent
    spectrum, so that no eigenvector mixes x with a flat tangent direction.
    The step divides each eigencomponent of the gradient by |lambda|, floored
    at CURVATURE_FLOOR of the size of the terms the Hessian is formed from,
    which makes it an ascent direction at saddles and minima too.  Those
    terms are first divided by a power of two near their size, so that phi
    up to the overflow threshold still gets a step; a row whose terms
    overflow anyway gets a NaN step and decrement.  The gradient norm is
    taken through the same power of two, so its square does not overflow.
    """
    normal = x / r[:, None]
    radial = np.sum(normal * grad, axis=1)
    g = grad - radial[:, None] * normal
    weingarten = radial / r
    unit = np.ldexp(1.0, np.frexp(np.abs(hess).max(axis=(1, 2)) + np.abs(weingarten))[1])
    hess, weingarten = hess / unit[:, None, None], weingarten / unit
    outer = normal[:, :, None] * normal[:, None, :]
    proj = np.eye(x.shape[1]) - outer
    h = proj @ hess @ proj - weingarten[:, None, None] * proj
    overflow = ~np.isfinite(h).all(axis=(1, 2))
    h[overflow] = 0.0
    size = np.linalg.norm(h, axis=(1, 2))
    lam, vec = np.linalg.eigh(h - (3.0 * size)[:, None, None] * outer)
    scale = np.linalg.norm(hess, axis=(1, 2)) + np.abs(weingarten)
    floor = np.maximum(CURVATURE_FLOOR * scale, np.finfo(float).tiny)[:, None]
    g_unit = g / unit[:, None]
    coef = np.matmul(g_unit[:, None, :], vec)[:, 0]
    coef /= np.maximum(np.abs(lam), floor)
    coef[overflow] = np.nan
    step = np.matmul(vec, coef[:, :, None])[:, :, 0]
    return unit * np.linalg.norm(g_unit, axis=1), step, np.sum(step * g, axis=1)


def _ascend(f: PolyMap, z0: np.ndarray, r, max_iter: int, gtol: float,
            decrement_tol: float = ROUNDING):
    """Saddle-free Riemannian Newton ascent of ||f||^2 on spheres of radius r.

    r is one radius, or one per row of z0.  All starts run in lockstep.  Each
    step is capped at length r; one batched evaluation of f tries HALVINGS
    fractions 1, 1/2, ... of it on the normalizing retraction, and the largest
    that passes the Armijo test is taken.  Derivatives are evaluated only at
    the accepted points.  A row stops when its tangent norm meets gtol and,
    on spheres larger than about SLOPE / gtol, SLOPE / r, below which a step
    gains no more than the rounding of phi; when its Newton decrement (twice
    the predicted gain) falls below decrement_tol * phi, by default the
    rounding of phi; when its remaining Armijo gain falls below the rounding
    of phi; or when f overflows.  Returns points, ||f|| and tangent norms.
    Raises PreconditionError, naming the radius, where ||f|| overflowed at
    a start: the maximum on that sphere overflows too, and the best of the
    other starts would be silently low.
    """
    d = f.dim
    r = np.broadcast_to(np.asarray(r, dtype=float), (len(z0),))
    z = z0 * (r / np.linalg.norm(z0, axis=1))[:, None]
    x = np.concatenate([z.real, z.imag], axis=1)
    tangent_norm = np.full(len(x), np.inf)
    halvings = 0.5 ** np.arange(HALVINGS)
    with np.errstate(over="ignore", invalid="ignore"):
        phi, grad, hess = _phi_derivatives(f, x)
        live = np.flatnonzero(_finite_rows(phi, grad, hess))
        for _ in range(max_iter):
            if not live.size:
                break
            tangent_norm[live], step, decrement = _newton_steps(
                x[live], r[live], grad[live], hess[live])
            rounding = ROUNDING * phi[live]
            open_ = ((tangent_norm[live]
                      > np.minimum(gtol, SLOPE / r[live]) * (1.0 + phi[live]))
                     & (decrement > decrement_tol * phi[live]))
            live, step, decrement, rounding = (
                live[open_], step[open_], decrement[open_], rounding[open_])
            t = np.minimum(1.0, r[live] / np.linalg.norm(step, axis=1))
            moved = np.zeros(len(live), dtype=bool)
            todo = t * decrement > rounding
            while todo.any():
                rows, ts = live[todo], t[todo, None] * halvings
                cand = x[rows, None] + ts[..., None] * step[todo, None]
                cand *= (r[rows, None] / np.linalg.norm(cand, axis=2))[..., None]
                gain = (_phi(f, cand.reshape(-1, 2 * d)).reshape(ts.shape)
                        - phi[rows, None])
                accept = gain > np.maximum(ARMIJO * ts * decrement[todo, None],
                                           rounding[todo, None])
                hit = accept.any(axis=1)
                x[rows[hit]] = cand[hit, np.argmax(accept, axis=1)[hit]]
                moved[np.flatnonzero(todo)[hit]] = True
                t[todo] = ts[:, -1] * 0.5
                todo &= ~moved & (t * decrement > rounding)
            live = live[moved]
            if live.size:
                phi[live], grad[live], hess[live] = _phi_derivatives(f, x[live])
                live = live[_finite_rows(phi[live], grad[live], hess[live])]
    bad = np.flatnonzero(~np.isfinite(phi))
    if bad.size:
        raise PreconditionError(
            f"||f|| overflowed at a start on the sphere of radius {r[bad[0]]:.6g}")
    return x[:, :d] + 1j * x[:, d:], np.sqrt(phi), tangent_norm


def _finite_rows(phi, grad, hess) -> np.ndarray:
    return (np.isfinite(phi) & np.isfinite(grad).all(axis=1)
            & np.isfinite(hess).all(axis=(1, 2)))


def _first_best(values: np.ndarray, r) -> int:
    """``first_near_best`` of the ascent values on the sphere of radius r.

    Raises PreconditionError when ||f|| overflowed at every start.
    """
    if not np.isfinite(values).any():
        raise PreconditionError(
            f"||f|| is not finite at any start on the sphere of radius {r:.6g}")
    return first_near_best(values)


def first_near_best(values: np.ndarray) -> int:
    """Lowest index whose value is within TIE_TOL (relative) of the largest
    finite one, of which there must be one.

    Equal maxima, such as q and conj(q) for a map with real coefficients,
    then resolve by order rather than by last-bit rounding.
    """
    finite = np.isfinite(values)
    top = values[finite].max()
    return int(np.flatnonzero(finite & (values >= top * (1.0 - TIE_TOL)))[0])


def _seeded_starts(config: MaxSearchConfig, d: int) -> np.ndarray:
    """The config.starts seeded random starts of one sphere search (zeros dropped)."""
    rng = np.random.default_rng(config.seed)
    raw = rng.normal(size=(config.starts, d)) + 1j * rng.normal(size=(config.starts, d))
    return raw[np.linalg.norm(raw, axis=1) > 1e-12]


def sphere_max(f: PolyMap, r: float, config: MaxSearchConfig = MaxSearchConfig(),
               warm_starts=()) -> SphereMax:
    """Best of a multistart ascent: a certified lower bound for M(r).

    warm_starts seed extra ascents ahead of the seeded ones; the returned
    point is the first start, in that order, whose value is the best up to
    rounding (_first_best).
    """
    if r <= 0:
        raise PreconditionError("radius must be positive")
    d = f.dim
    warm = np.array(list(warm_starts), dtype=complex).reshape(-1, d)
    norms = np.linalg.norm(warm, axis=1)
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise PreconditionError("warm starts must be finite nonzero points")
    starts = np.concatenate([warm, _seeded_starts(config, d)])
    z, value, grad_norm = _ascend(f, starts, r, config.max_iter, config.gtol)
    best = _first_best(value, r)
    return SphereMax(z[best], float(value[best]), float(grad_norm[best]))


def _side_maxima(f: PolyMap, r: float, h: float, q: np.ndarray,
                 config: MaxSearchConfig):
    """M(r + h) and M(r - h) from one lockstep ascent.

    Each side starts from q, then the seeded starts of config, so it returns
    what sphere_max(f, r +- h, config, warm_starts=(q,)) returns.
    """
    starts = np.concatenate([q[None], _seeded_starts(config, f.dim)])
    _, value, _ = _ascend(f, np.tile(starts, (2, 1)),
                          np.repeat([r + h, r - h], len(starts)),
                          config.max_iter, config.gtol)
    plus, minus = value.reshape(2, -1)
    return (float(plus[_first_best(plus, r + h)]),
            float(minus[_first_best(minus, r - h)]))


def sphere_audit(f: PolyMap, r: float) -> float:
    """Largest ||f|| over 10,000 random sphere points (seed 1); it must not
    exceed a claimed maximum."""
    rng, shape = np.random.default_rng(1), (10_000, f.dim)
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    batch *= (r / np.linalg.norm(batch, axis=1))[:, None]
    return float(np.linalg.norm(f.values_batch(batch), axis=1).max(initial=0.0))


def hadamard_profile(f: PolyMap, s_range=(-1.0, 3.0), steps: int = 25,
                     config: MaxSearchConfig = MaxSearchConfig()) -> SphereMaxProfile:
    """Sample H(s) = log(M(e^s)/e^s) on a grid, with central-difference H'.

    Convexity of H and its eventual positivity (for non-affine f) make any
    grid point with H > 0 and H' > 0 usable for the construction.  One
    lockstep ascent runs the seeded starts of sphere_max at every radius;
    a second restarts each radius from its neighbours' maximizers.  A warm
    result is kept only where it is higher than every cold one by more than
    TIE_TOL relative (_first_best).  The samples serve to pick a grid point
    and to seed the polish, so both passes stop a start once its Newton
    decrement falls below TIE_TOL * phi: on a nearly flat ridge, as for mix3
    on spheres of radius e^1.3 to e^3, a start otherwise gains about 1e-11
    relative per step for hundreds of steps.
    """
    lo, hi = float(s_range[0]), float(s_range[1])
    if not (hi > lo) or steps < 3:
        raise PreconditionError("s_range must be nondegenerate with steps >= 3")
    grid = np.linspace(lo, hi, steps)
    radii = np.exp(grid)
    starts = _seeded_starts(config, f.dim)
    n = len(starts)
    # cold pass: every radius from the same seeded starts, one lockstep ascent
    z, value, _ = _ascend(f, np.tile(starts, (steps, 1)), np.repeat(radii, n),
                          config.max_iter, config.gtol, TIE_TOL)
    z, value = z.reshape(steps, n, f.dim), value.reshape(steps, n)
    best = np.array([_first_best(v, r) for v, r in zip(value, radii)])
    # warm pass: each radius from its neighbours' maximizers, which _ascend
    # rescales to its sphere; the cold starts win ties
    target, source = np.array([(i, j) for i in range(steps) for j in (i - 1, i + 1)
                               if 0 <= j < steps]).T
    warm_z, warm_value, _ = _ascend(f, z[source, best[source]], radii[target],
                                    config.max_iter, config.gtol, TIE_TOL)
    samples = []
    for i, r in enumerate(radii):
        mine = target == i
        points = np.concatenate([z[i], warm_z[mine]])
        values = np.concatenate([value[i], warm_value[mine]])
        k = _first_best(values, r)
        samples.append((float(r), float(values[k]), points[k]))
    h = np.array([np.log(m) - np.log(r) for r, m, _ in samples])
    spacing = grid[1] - grid[0]
    h_values = []
    for i, s in enumerate(grid):
        if 0 < i < steps - 1:
            hp = float((h[i + 1] - h[i - 1]) / (2 * spacing))
        else:
            hp = None
        h_values.append((float(s), float(h[i]), hp))
    return SphereMaxProfile(tuple(samples), tuple(h_values))


def select_growth_point(profile: SphereMaxProfile):
    """Index of the smallest grid point with H > 10 SELECT_MARGIN and
    H' > TOL_ETA.

    eta = 1 + H' must clear 1 + TOL_ETA.  A grid point straddling a kink of H
    (left/right difference disagreement above 1e-2) is skipped, since the
    derivative estimate there is meaningless; raises RangeError when no
    point qualifies.
    """
    hv = profile.H_values
    s_grid = [s for s, _, _ in hv]
    h = [x for _, x, _ in hv]
    for i in range(1, len(hv) - 1):
        s, h_i, hp = hv[i]
        if h_i <= 10 * SELECT_MARGIN or hp is None or hp <= TOL_ETA:
            continue
        spacing = s_grid[i] - s_grid[i - 1]
        left = (h[i] - h[i - 1]) / spacing
        right = (h[i + 1] - h[i]) / spacing
        if abs(left - right) > KINK_DISAGREEMENT:
            continue  # near a kink; shift along the grid
        return i
    raise RangeError(
        "no grid point with positive H and H': extend s_range "
        "(the map may need larger radii, or is affine)"
    )


def su_map_between(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A unitary with determinant 1 sending x to y (requires ||x|| = ||y||).

    Rotation in the complex plane spanned by x and y, identity on the
    orthogonal complement; the rank-2 rotation is chosen in SU(2), and the
    parallel case corrects the phase on one complement direction.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    d = len(x)
    nx = np.linalg.norm(x)
    if abs(nx - np.linalg.norm(y)) > 1e-9 * (1.0 + nx):
        raise PreconditionError("su_map_between needs vectors of equal norm")
    if nx == 0:
        return np.eye(d, dtype=complex)
    e1 = x / nx
    mu = np.vdot(e1, y)  # component of y along e1
    w = y - mu * e1
    nw = np.linalg.norm(w)
    if nw <= 1e-12 * nx:
        # y = c x with |c| = 1: phase on e1, inverse phase on a complement vector
        c = mu / nx
        u = np.eye(d, dtype=complex) + (c - 1.0) * np.outer(e1, e1.conj())
        if d >= 2:
            k = int(np.argmin(np.abs(e1)))
            e2 = np.zeros(d, dtype=complex)
            e2[k] = 1.0
            e2 = e2 - np.vdot(e1, e2) * e1
            e2 /= np.linalg.norm(e2)
            u += (np.conj(c) - 1.0) * np.outer(e2, e2.conj())
        return u
    # near-parallel vectors leave w dominated by cancellation noise, so
    # re-orthogonalize before trusting the frame
    e2 = w / nw
    e2 = e2 - np.vdot(e1, e2) * e1
    e2 /= np.linalg.norm(e2)
    alpha = np.vdot(e1, y) / nx
    beta = np.vdot(e2, y) / nx
    scale = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    alpha /= scale
    beta /= scale
    v = np.array([[alpha, -np.conj(beta)], [beta, np.conj(alpha)]])  # det = 1
    frame = np.stack([e1, e2], axis=1)
    return (np.eye(d, dtype=complex)
            - frame @ frame.conj().T
            + frame @ v @ frame.conj().T)


def construct_repelling(f: PolyMap, s_range=(-1.0, 3.0), steps: int = 25,
                        config: MaxSearchConfig = MaxSearchConfig(),
                        polish_starts: int = 200) -> RepellingConstruction:
    """Produce (a, U, p) with f o (aU) fixing p repellingly, fully verified.

    Raises PreconditionError for affine or one-variable maps, RangeError
    when the sampled s-range shows no growth point, and ConstructionError
    (with diagnostics) when a residual check fails.
    """
    if f.dim < 2:
        raise PreconditionError("the construction needs d >= 2")
    if f.is_affine():
        raise PreconditionError(
            "the construction needs a non-affine polynomial map: some "
            "component must carry a term of total degree >= 2"
        )
    profile = hadamard_profile(f, s_range, steps, config)
    idx = select_growth_point(profile)
    s = profile.H_values[idx][0]
    r = float(np.exp(s))

    polish = MaxSearchConfig(starts=polish_starts, max_iter=4 * config.max_iter,
                             gtol=min(config.gtol, 1e-12), seed=config.seed)
    warm = (profile.samples[idx][2],)
    best = sphere_max(f, r, polish, warm_starts=warm)
    q, m_r = best.point, best.value

    # M'(r) by central differences; each endpoint re-maximized from q
    h = 1e-4 * r
    side = MaxSearchConfig(starts=8, max_iter=2 * config.max_iter,
                           gtol=min(config.gtol, 1e-12), seed=config.seed + 1)
    m_plus, m_minus = _side_maxima(f, r, h, q, side)
    m_prime = (m_plus - m_minus) / (2 * h)
    eta = r * m_prime / m_r

    p = f(q)
    a = r / m_r
    if not (0.0 < a < 1.0):
        raise ConstructionError(
            f"a = r/M(r) = {a:.6f} is not in (0,1); H(s) <= 0 at the "
            "selected point", {"r": r, "M": m_r})
    u_mat = su_map_between(a * p, q)
    unitary_defect = float(np.linalg.norm(u_mat.conj().T @ u_mat - np.eye(f.dim), 2))
    det_defect = abs(np.linalg.det(u_mat) - 1.0)
    if unitary_defect > TOL_UNITARY or det_defect > TOL_UNITARY:
        raise ConstructionError(
            "unitary construction failed",
            {"unitary_defect": unitary_defect, "det_defect": det_defect})

    b_mat = f.jacobian(q)
    a_mat = a * b_mat @ u_mat

    # cross-check the chain rule against the jet of f o (aU) at p
    g_map = f.compose(PolyMap.linear(a * u_mat))
    jet_jac = g_map.to_jetmap(tuple(p), 1).linear_matrix()
    jac_gap = float(np.linalg.norm(jet_jac - a_mat, 2))
    if jac_gap > 1e-9 * (1.0 + np.linalg.norm(a_mat, 2)):
        raise ConstructionError("jet Jacobian disagrees with the chain rule",
                                {"gap": jac_gap})

    residual_fix = float(np.linalg.norm(g_map(p) - p) / (1.0 + np.linalg.norm(p)))
    residual_eigvec = float(
        np.linalg.norm(a_mat.conj().T @ p - eta * p) / np.linalg.norm(p))

    lam = float(np.real(np.vdot(q, b_mat.conj().T @ p)) / (r * r))
    lam_pred = m_r * m_prime / r
    lam_err = abs(lam - lam_pred) / max(abs(lam_pred), 1e-300)

    eigs = np.linalg.eigvals(a_mat)
    eig_gap = float(min(abs(e - eta) for e in eigs))

    diagnostics = {
        "residual_fix": residual_fix, "residual_eigvec": residual_eigvec,
        "eta": eta, "eig_gap": eig_gap, "lagrange_error": lam_err,
        "grad_norm": best.grad_norm, "r": r, "M": m_r,
        "hint": "try a finer derivative step or more starts",
    }
    if residual_fix > TOL_FIX:
        raise ConstructionError("fixed-point residual too large", diagnostics)
    if residual_eigvec > TOL_VEC:
        raise ConstructionError("adjoint eigenvector residual too large",
                                diagnostics)
    if eta <= 1.0 + TOL_ETA:
        raise ConstructionError(
            f"eta = {eta:.6f} not above 1: selected s has no usable growth",
            diagnostics)
    if eig_gap > TOL_ETA:
        raise ConstructionError(
            "no eigenvalue of the derivative matches eta", diagnostics)
    if lam_err > 1e-3:
        raise ConstructionError(
            "Lagrange multiplier identity failed", diagnostics)

    return RepellingConstruction(
        a=a, U=u_mat, p=p, eta=float(eta),
        residual_fix=residual_fix, residual_eigvec=residual_eigvec,
        r=r, s=float(s), M=m_r, q=q,
        lagrange_multiplier=lam, lagrange_identity_error=lam_err,
        eigenvalues=tuple(sorted(eigs, key=lambda z: (z.real, z.imag))),
        profile=profile,
    )
