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

from .dynamics import PolyMap, SearchConfig
from .errors import ConstructionError, PreconditionError, RangeError

TOL_FIX = 1e-6
TOL_VEC = 1e-6
TOL_ETA = 1e-3
TOL_UNITARY = 1e-9  # defects of U; norm gap in su_map_between, relative to 1 + ||x||
TOL_JAC = 1e-9  # jet Jacobian against the chain rule, relative to 1 + ||A||
TOL_LAGRANGE = 1e-3  # relative error of the Lagrange multiplier identity
SELECT_MARGIN = 1e-6
KINK_DISAGREEMENT = 1e-2
HALVINGS = 4  # backtracking step sizes per batched evaluation
ARMIJO = 1e-4  # fraction of the predicted gain a step must realize
CURVATURE_FLOOR = 1e-8  # smallest |eigenvalue|, relative to the Hessian's terms
ROUNDING = 4.0 * np.finfo(float).eps  # relative gain of phi below its rounding
TIE_TOL = 1e-12  # relative gap below which two sphere maxima are equal
MAX_ITER = 300  # Newton steps per ascent
SIDE_STARTS = 8  # seeded starts of each side maximum for M'(r)


@dataclass(frozen=True)
class SphereMax:
    point: np.ndarray
    value: float
    grad_norm: float


@dataclass(frozen=True)
class SphereMaxProfile:
    """Sampled sphere maxima with log-log derivative estimates.

    samples hold (r, M(r), argmax); H_values hold (s, H(s), H'(s)) with H'
    by central differences (None at the grid ends).  A profile stopped at its
    growth point samples only up to that point's right neighbour: H and H'
    are None beyond it, and H' there too.
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


def _norms(v: np.ndarray, axis=-1) -> np.ndarray:
    """np.linalg.norm's own formula for norms over axis, without its dispatch."""
    return np.sqrt(np.add.reduce((v.conj() * v).real, axis=axis))


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
    hess = np.empty((len(x), 2, d, 2, d))  # 2 [[Re(A+B), -Im(A+B)], [Im(A-B), Re(A-B)]]
    np.add(a.real, b.real, out=hess[:, 0, :, 0])
    np.subtract(np.negative(a.imag), b.imag, out=hess[:, 0, :, 1])
    np.subtract(a.imag, b.imag, out=hess[:, 1, :, 0])
    np.subtract(a.real, b.real, out=hess[:, 1, :, 1])
    hess *= 2.0
    return (_norms(fz) ** 2, np.concatenate([grad.real, grad.imag], axis=1),
            hess.reshape(len(x), 2 * d, 2 * d))


def _phi(f: PolyMap, x: np.ndarray) -> np.ndarray:
    """phi = ||f||^2 alone at a stack of points x = (Re z, Im z)."""
    d = f.dim
    return _norms(f.values_batch(x[:, :d] + 1j * x[:, d:])) ** 2


def _newton_steps(x: np.ndarray, r: np.ndarray, grad: np.ndarray, hess: np.ndarray,
                  eye: np.ndarray):
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
    eye is the identity of the real coordinates, built once per ascent.
    """
    normal = x / r[:, None]
    radial = np.add.reduce(normal * grad, axis=1)
    g = grad - radial[:, None] * normal
    weingarten = radial / r
    unit = np.ldexp(1.0, np.frexp(np.maximum.reduce(np.abs(hess), axis=(1, 2))
                                  + np.abs(weingarten))[1])
    hess, weingarten = hess / unit[:, None, None], weingarten / unit
    outer = normal[:, :, None] * normal[:, None, :]
    proj = eye - outer
    h = proj @ hess @ proj - weingarten[:, None, None] * proj
    overflow = ~np.logical_and.reduce(np.isfinite(h), axis=(1, 2))
    h[overflow] = 0.0
    size = _norms(h, (1, 2))
    lam, vec = np.linalg.eigh(h - (3.0 * size)[:, None, None] * outer)
    scale = _norms(hess, (1, 2)) + np.abs(weingarten)
    floor = np.maximum(CURVATURE_FLOOR * scale, np.finfo(float).tiny)[:, None]
    g_unit = g / unit[:, None]
    coef = np.matmul(g_unit[:, None, :], vec)[:, 0]
    coef /= np.maximum(np.abs(lam), floor)
    coef[overflow] = np.nan
    step = np.matmul(vec, coef[:, :, None])[:, :, 0]
    return unit * _norms(g_unit), step, np.add.reduce(step * g, axis=1)


def _ascend(f: PolyMap, z0: np.ndarray, r, decrement_tol=ROUNDING, grow=None):
    """Saddle-free Riemannian Newton ascent of ||f||^2 on spheres of radius r.

    r and decrement_tol are one value, or one per row; rows past those of z0
    wait until grow starts them.  All rows run in lockstep on one compact
    state of the live rows.  Each step is capped at length r; one batched
    evaluation of f tries HALVINGS fractions 1, 1/2, ... of it on the
    normalizing retraction, and the largest that passes the Armijo test is
    taken; derivatives are evaluated only at the accepted points.  A row
    stops after MAX_ITER steps, when its Newton decrement (twice the
    predicted gain) falls below decrement_tol * phi, when no step gains more
    than the rounding of phi, or when f overflows.  After a step in which
    rows stopped, grow sees the stopped flags, points and ||f|| (current for
    live rows) of all rows, and returns None (every live row retires where
    it stands and the ascent returns), or rows that start anew with their
    starts and radii, and live rows that retire unstopped.  Returns points,
    ||f|| and tangent norms (evidence only) of every row.
    Raises PreconditionError where there is no start, where r^2 or ||f||^2
    at a joining start is below the smallest normal float, or where ||f||
    overflowed at a row of an ascent that ran to its end, naming the radius:
    the best of the other starts on that sphere would be silently low.
    """
    if not len(z0):
        raise PreconditionError("a sphere search needs at least one start")
    d, halvings, fresh, eye = f.dim, 0.5 ** np.arange(HALVINGS), False, np.eye(2 * f.dim)
    live = None  # row, steps, x, radius, phi, grad, hess, tangent norm
    r = np.array(np.broadcast_to(r, (max(len(z0), np.size(r)),)), dtype=float)
    tol = np.broadcast_to(decrement_tol, r.shape)
    z, value = np.zeros((len(r), d), dtype=complex), np.zeros(len(r))
    tangent_norm, done = np.full(len(r), np.inf), np.zeros(len(r), dtype=bool)
    joins = np.arange(len(z0)), z0, r[:len(z0)], ()

    def stop(mask, final=True):  # write the masked live rows out, drop them
        nonlocal live, fresh
        out, keep = np.flatnonzero(mask), np.flatnonzero(~mask)
        rows, x, phi, tangent = (live[k][out] for k in (0, 2, 4, 7))
        z[rows], value[rows] = x[:, :d] + 1j * x[:, d:], np.sqrt(phi)
        tangent_norm[rows] = tangent
        done[rows] = fresh = final
        live = [a[keep] for a in live]

    # divide: t = r / 0 for a row whose zero step has stopped it, never read
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            rows, start, radii, retire = joins
            if live is not None and len(rows) + len(retire):
                stop(np.isin(live[0], np.r_[rows, retire]), final=False)
            if len(rows):  # rows join with MAX_ITER steps of their own
                r[rows], done[rows] = radii, False
                start = start * (radii / _norms(start))[:, None]
                x = np.concatenate([start.real, start.imag], axis=1)
                block = [rows, np.zeros_like(rows), x, radii, *_phi_derivatives(f, x),
                         np.full(len(x), np.inf)]
                # the ascent squares r and ||f||: below the smallest normal
                # float they lose their precision, or vanish
                low = np.minimum(radii * radii, block[4]) < np.finfo(float).tiny
                if low.any():
                    raise PreconditionError("r^2 or ||f||^2 underflowed at a start on "
                                            f"the sphere of radius {radii[low][0]:.6g}")
                live = block if live is None else [*map(np.concatenate, zip(live, block))]
            joins = (), (), (), ()
            _, steps, _, _, phi, grad, hess, _ = live
            finished = ~(np.isfinite(phi) & np.isfinite(grad).all(axis=1)
                         & np.isfinite(hess).all(axis=(1, 2))) | (steps >= MAX_ITER)
            if finished.any():
                stop(finished)
            if grow is not None and fresh:
                value[live[0]], fresh = np.sqrt(live[4]), False
                joins = grow(done, z, value)
                if joins is None:
                    stop(live[0] >= 0, final=False)
                    return z, value, tangent_norm
                if len(joins[0]) or len(joins[3]):
                    continue
            if not len(live[0]):
                break
            row, steps, x, rad, phi, grad, hess, _ = live
            live[7], step, decrement = _newton_steps(x, rad, grad, hess, eye)
            live[1] = steps + 1
            rounding = ROUNDING * phi
            t = np.minimum(1.0, rad / _norms(step))
            todo = (decrement > tol[row] * phi) & (t * decrement > rounding)
            moved = np.zeros(len(x), dtype=bool)
            while todo.any():
                idx = np.flatnonzero(todo)
                ts = t[idx, None] * halvings
                cand = x[idx, None] + ts[..., None] * step[idx, None]
                cand *= (rad[idx, None] / _norms(cand))[..., None]
                gain = (_phi(f, cand.reshape(-1, 2 * d)).reshape(ts.shape)
                        - phi[idx, None])
                accept = gain > np.maximum(ARMIJO * ts * decrement[idx, None],
                                           rounding[idx, None])
                hit = accept.any(axis=1)
                x[idx[hit]] = cand[hit, np.argmax(accept, axis=1)[hit]]
                moved[idx[hit]] = True
                t[idx] = ts[:, -1] * 0.5
                todo &= ~moved & (t * decrement > rounding)
            if not moved.all():
                stop(~moved)
            if len(live[0]):
                live[4:7] = _phi_derivatives(f, live[2])
    _overflow_check(value, r)
    return z, value, tangent_norm


def _overflow_check(value: np.ndarray, r: np.ndarray):
    """PreconditionError naming the radius of the first row whose ||f|| overflowed."""
    bad = np.flatnonzero(~np.isfinite(value))
    if bad.size:
        raise PreconditionError(
            f"||f|| overflowed at a start on the sphere of radius {r[bad[0]]:.6g}")


def first_near_best(values) -> int:
    """Lowest index whose value is within TIE_TOL (relative) of the largest.

    The values must be finite.  Equal maxima, such as q and conj(q) for a
    map with real coefficients, then resolve by order rather than by
    last-bit rounding.
    """
    values = np.asarray(values)
    return int(np.flatnonzero(values >= values.max() * (1.0 - TIE_TOL))[0])


def _seeded_starts(config: SearchConfig, d: int) -> np.ndarray:
    """The config.starts seeded random starts of one sphere search (zeros dropped)."""
    rng = np.random.default_rng(config.seed)
    raw = rng.normal(size=(config.starts, d)) + 1j * rng.normal(size=(config.starts, d))
    return raw[np.linalg.norm(raw, axis=1) > 1e-12]


def sphere_max(f: PolyMap, r: float, config: SearchConfig = SearchConfig(starts=64),
               warm_starts=()) -> SphereMax:
    """Best of a multistart ascent: a certified lower bound for M(r).

    warm_starts seed extra ascents ahead of the seeded ones; the returned
    point is the first start, in that order, whose value is the best up to
    rounding (first_near_best).  A row rounds in any lockstep as it does
    alone, so construct_repelling runs these rows beside its profile.
    """
    if not 0 < r < np.inf:  # NaN fails too
        raise PreconditionError(f"radius must be positive and finite, got {r}")
    d = f.dim
    warm = np.array(list(warm_starts), dtype=complex).reshape(-1, d)
    norms = np.linalg.norm(warm, axis=1)
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise PreconditionError("warm starts must be finite nonzero points")
    z, value, grad_norm = _ascend(f, np.concatenate([warm, _seeded_starts(config, d)]), r)
    best = first_near_best(value)
    return SphereMax(z[best], float(value[best]), float(grad_norm[best]))


def hadamard_profile(f: PolyMap, s_range=(-1.0, 3.0), steps: int = 25,
                     config: SearchConfig = SearchConfig(starts=64)
                     ) -> SphereMaxProfile:
    """Sample H(s) = log(M(e^s)/e^s) on a grid, with central-difference H'.

    Convexity of H and its eventual positivity (for non-affine f) make any
    grid point with H > 0 and H' > 0 usable for the construction.  One
    lockstep ascent runs the seeded starts of sphere_max at every radius;
    once all cold starts of a radius have stopped, its maximizer restarts
    each neighbouring radius in the same lockstep.  A warm result is kept
    only where it beats every cold one by more than TIE_TOL relative
    (first_near_best).  Every start stops once its Newton decrement falls
    below TIE_TOL * phi: on a nearly flat ridge, as for mix3 on spheres of
    radius e^1.3 to e^3, it otherwise gains about 1e-11 relative per step
    for hundreds of steps.
    """
    return _profile(f, s_range, steps, config)


def _profile(f: PolyMap, s_range, steps: int, config: SearchConfig, polish_starts=None):
    """hadamard_profile; with polish_starts, construct_repelling's whole search.

    Then select_growth_point also runs on the current best ||f|| of radii
    without a final sample: rows of radii past this provisional point + 2
    (warm rows aimed past it + 1) retire unstopped, to restart if it moves
    up, and the seeded polish and side rows run at its radius.  The sample
    joins them once the point is decided, q once the polish has stopped.
    Returns the profile (H kept up to the growth point's right neighbour),
    the growth point, q, M(r), the tangent norm at q, M(r + h) and M(r - h).
    """
    lo, hi = float(s_range[0]), float(s_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise PreconditionError(f"s_range must be finite, got ({lo}, {hi})")
    if not (hi > lo) or steps < 3:
        raise PreconditionError("s_range must be nondegenerate with steps >= 3")
    grid = np.linspace(lo, hi, steps)
    with np.errstate(over="ignore"):  # an infinite radius fails only if read
        radii = np.exp(grid)
    construct, d = polish_starts is not None, f.dim
    starts = _seeded_starts(config, d)
    n, known, idx = len(starts), 0, None
    # the warm rows follow the cold ones: radius target[k] from source[k]
    target, source = np.array([(i, j) for i in range(steps) for j in (i - 1, i + 1)
                               if 0 <= j < steps]).T
    rows = [np.r_[i * n:(i + 1) * n, steps * n + np.flatnonzero(target == i)]
            for i in range(steps)]  # the cold starts win ties
    samples, h, best = [None] * steps, [None] * steps, {}  # best: seeded radius -> row
    # then the polish rows from pw, the r + h side from sp, the r - h side from sm
    polish = _seeded_starts(SearchConfig(polish_starts or 0, config.seed), d)
    side = _seeded_starts(SearchConfig(SIDE_STARTS if construct else 0, config.seed + 1), d)
    pw = steps * n + len(target)
    sp, sm = pw + 1 + len(polish), pw + 2 + len(polish) + len(side)
    total = sm + 1 + len(side) if construct else pw
    origin = np.concatenate([np.tile(starts, (steps, 1)), np.zeros((total - steps * n, d))])
    origin[pw + 1:sp], origin[sp + 1:sm], origin[sm + 1:] = polish, side, side
    radius = np.concatenate([np.repeat(radii, n), radii[target], np.ones(total - pw)])
    # a profile row runs while need (its radius index, + 1 if warm) <= reach;
    # key: where each row last started (0 for a profile row), -1 if not yet
    need = np.r_[np.repeat(np.arange(steps), n), np.full(len(target), 2 * steps)]
    key = np.r_[np.zeros(steps * n, int), np.full(total - steps * n, -1)]

    def grow(done, z, value):
        nonlocal known, idx
        for i in np.flatnonzero(done[:steps * n].reshape(steps, n).all(axis=1)).tolist():
            mine, block = rows[i], value[i * n:(i + 1) * n]
            if samples[i] is None and done[mine].all() and np.isfinite(value[mine]).all():
                k = mine[first_near_best(value[mine])]
                samples[i] = (float(radii[i]), float(value[k]), z[k].copy())
                h[i] = np.log(samples[i][1]) - np.log(samples[i][0])
            if i not in best and np.isfinite(block).all():  # restart the neighbours
                best[i] = i * n + first_near_best(block)
                warm = steps * n + np.flatnonzero(source == i)
                origin[warm], need[warm] = z[best[i]], target[warm - steps * n] + 1
        top = idx
        if construct and idx is None and (h + [None])[known] is not None:
            known = (h + [None]).index(None)  # the final prefix grew
            idx = top = select_growth_point(SphereMaxProfile((), _h_values(grid, h)))
        if construct and idx is None:
            current = value[:steps * n].reshape(steps, n).max(axis=1)
            np.maximum.at(current, target, value[steps * n:pw])
            guess = [x if x is not None else g if np.isfinite(g) else None
                     for x, g in zip(h, (np.log(current) - np.log(radii)).tolist())]
            try:
                top = select_growth_point(SphereMaxProfile((), _h_values(grid, guess)))
            except RangeError:
                top = None
        want = np.full(total, -1)
        reach = -1 if idx is not None else steps if top is None else top + 2
        want[:pw][need <= reach] = 0
        if top is not None:
            r = float(np.exp(grid[top]))
            radius[pw:sp], radius[sp:sm], radius[sm:] = r, r + 1e-4 * r, r - 1e-4 * r
            want[pw + 1:sp] = want[sp + 1:sm] = want[sm + 1:] = top
        if idx is not None:
            origin[pw], want[pw] = samples[idx][2], idx
            if (done & (key == idx))[pw:sp].all():
                _overflow_check(value[pw:sp], radius[pw:sp])
                origin[sp] = origin[sm] = z[pw + first_near_best(value[pw:sp])]
                want[sp] = want[sm] = idx
                if (done & (key == idx))[sp:].all():
                    _overflow_check(value[sp:], radius[sp:])
                    return None
        start = (want >= 0) & (want != key)
        park = (want < 0) & (key >= 0) & ~done
        key[park], key[start] = -1, want[start]
        return np.flatnonzero(start), origin[start], radius[start], np.flatnonzero(park)

    z, value, tangent = _ascend(f, origin[:steps * n], radius,
                                np.where(np.arange(total) < pw, TIE_TOL, ROUNDING), grow)
    if idx is not None:
        h[idx + 2:] = samples[idx + 2:] = [None] * (steps - idx - 2)
    profile = SphereMaxProfile(tuple(x for x in samples if x), _h_values(grid, h))
    if not construct:
        return profile
    k = pw + first_near_best(value[pw:sp])
    return (profile, idx, z[k], float(value[k]), float(tangent[k]),
            *(float(v[first_near_best(v)]) for v in (value[sp:sm], value[sm:])))


def _h_values(grid, h):
    """(s, H, H') per grid point, H' by central differences; None where H is
    not sampled, and H' also at the grid ends and beside such a point."""
    spacing = grid[1] - grid[0]
    return tuple((float(s), None if h[i] is None else float(h[i]),
                  float((h[i + 1] - h[i - 1]) / (2 * spacing))
                  if 0 < i < len(grid) - 1 and None not in (h[i - 1], h[i + 1])
                  else None) for i, s in enumerate(grid))


def select_growth_point(profile: SphereMaxProfile):
    """Index of the smallest grid point with H > 10 SELECT_MARGIN and
    H' > TOL_ETA.

    eta = 1 + H' must clear 1 + TOL_ETA.  A grid point straddling a kink of H
    (left/right difference disagreement above 1e-2) is skipped, since the
    derivative estimate there is meaningless; raises RangeError when no
    point qualifies.  The scan returns None where it first needs an H that
    the profile does not hold yet.
    """
    hv = profile.H_values
    s_grid = [s for s, _, _ in hv]
    h = [x for _, x, _ in hv]
    for i in range(1, len(hv) - 1):
        s, h_i, hp = hv[i]
        if None in h[i - 1:i + 2]:
            return None
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
    """A unitary with determinant 1 sending x to y (requires ||x|| = ||y||
    up to TOL_UNITARY (1 + ||x||)).

    Rotation in the complex plane spanned by x and y, identity on the
    orthogonal complement; the rank-2 rotation is chosen in SU(2), and the
    parallel case corrects the phase on one complement direction.  SU(1) is
    {1}, so in one variable y must equal x up to TOL_UNITARY (1 + |x|).
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    d = len(x)
    nx = np.linalg.norm(x)
    if abs(nx - np.linalg.norm(y)) > TOL_UNITARY * (1.0 + nx):
        raise PreconditionError("su_map_between needs vectors of equal norm")
    if d == 1 and abs(x[0] - y[0]) > TOL_UNITARY * (1.0 + nx):
        raise PreconditionError("su_map_between in one variable needs y = x")
    if nx == 0 or d == 1:
        return np.eye(d, dtype=complex)
    e1 = x / nx
    mu = np.vdot(e1, y)  # component of y along e1
    w = y - mu * e1
    nw = np.linalg.norm(w)
    if nw <= 1e-12 * nx:
        # y = c x with |c| = 1: phase on e1, inverse phase on a complement vector
        c = mu / nx
        u = np.eye(d, dtype=complex) + (c - 1.0) * np.outer(e1, e1.conj())
        k = int(np.argmin(np.abs(e1)))
        e2 = np.zeros(d, dtype=complex)
        e2[k] = 1.0
        e2 = e2 - np.vdot(e1, e2) * e1
        e2 /= np.linalg.norm(e2)
        return u + (np.conj(c) - 1.0) * np.outer(e2, e2.conj())
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
                        config: SearchConfig = SearchConfig(starts=64),
                        polish_starts: int = 200) -> RepellingConstruction:
    """Produce (a, U, p) with f o (aU) fixing p repellingly, fully verified.

    One lockstep ascent (_profile) runs hadamard_profile's profile up to the
    growth point s, never reading the grid past its right neighbour, and, bit
    for bit, q and M(r) = sphere_max(f, r = e^s, SearchConfig(polish_starts,
    seed), warm_starts=(sample at s,)) and M(r +- 1e-4 r) = sphere_max(f,
    r +- 1e-4 r, SearchConfig(SIDE_STARTS, seed + 1), warm_starts=(q,)).
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
    profile, idx, q, m_r, grad_norm, m_plus, m_minus = _profile(
        f, s_range, steps, config, polish_starts)
    s = profile.H_values[idx][0]
    r = float(np.exp(s))
    m_prime = (m_plus - m_minus) / (2e-4 * r)  # central differences, h = 1e-4 r
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
    if jac_gap > TOL_JAC * (1.0 + np.linalg.norm(a_mat, 2)):
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
        "grad_norm": grad_norm, "r": r, "M": m_r,
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
    if lam_err > TOL_LAGRANGE:
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
