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


@dataclass(frozen=True)
class MaxSearchConfig:
    """Budget for the multistart projected-gradient ascent on a sphere."""

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
    seed: int
    profile: "SphereMaxProfile | None" = None


def _phi_and_grad(f: PolyMap, z: np.ndarray):
    """||f(z)||^2 and its Euclidean gradient 2 J(z)^H f(z) at a stack of points."""
    fz, jac = f.evaluate_batch(z)
    grad = 2.0 * np.matmul(fz.conj()[:, None, :], jac)[:, 0].conj()
    return np.linalg.norm(fz, axis=1) ** 2, grad


def _ascend(f: PolyMap, z0: np.ndarray, r: float, max_iter: int, gtol: float):
    """Projected gradient Armijo ascent of ||f||^2 on the sphere of radius r.

    All starts run in lockstep with their own step sizes; one batched call
    tries HALVINGS steps t, t/2, ... and takes the largest accepted one, as
    a one-at-a-time search would.  Returns points, ||f|| and tangent norms.
    """
    z = z0 * (r / np.linalg.norm(z0, axis=1))[:, None]
    phi, grad = _phi_and_grad(f, z)
    step = 1.0 / (1.0 + np.linalg.norm(grad, axis=1))
    tangent_norm = np.full(len(z), np.inf)
    live = np.arange(len(z))
    halvings = 0.5 ** np.arange(HALVINGS)
    for _ in range(max_iter):
        # project out the radial direction (real inner product)
        radial = np.real(np.sum(z[live].conj() * grad[live], axis=1)) / (r * r)
        tangent = grad[live] - radial[:, None] * z[live]
        tangent_norm[live] = np.linalg.norm(tangent, axis=1)
        open_ = tangent_norm[live] > gtol * (1.0 + phi[live])
        live, tangent, t = live[open_], tangent[open_], step[live[open_]]
        moved = np.zeros(len(live), dtype=bool)
        todo = t > 1e-18
        while todo.any():
            rows, ts = live[todo], t[todo, None] * halvings
            cand = z[rows, None] + ts[..., None] * tangent[todo, None]
            cand *= (r / np.linalg.norm(cand, axis=2))[..., None]
            cand = cand.reshape(-1, f.dim)
            phi_c, grad_c = _phi_and_grad(f, cand)
            accept = (ts > 1e-18) & (phi_c.reshape(ts.shape) > phi[rows, None]
                                     + 1e-4 * ts * tangent_norm[rows, None] ** 2)
            hit = accept.any(axis=1)
            k = np.flatnonzero(hit) * HALVINGS + np.argmax(accept, axis=1)[hit]
            rows = rows[hit]
            z[rows], phi[rows], grad[rows] = cand[k], phi_c[k], grad_c[k]
            step[rows] = np.minimum(ts.ravel()[k] * 2.0, 1e6)
            moved[np.flatnonzero(todo)[hit]] = True
            t[todo] = ts[:, -1] * 0.5
            todo &= ~moved & (t > 1e-18)
        live = live[moved]
        if not live.size:
            break
    return z, np.sqrt(phi), tangent_norm


def sphere_max(f: PolyMap, r: float, config: MaxSearchConfig = MaxSearchConfig(),
               warm_starts=()) -> SphereMax:
    """Best of a multistart ascent: a certified lower bound for M(r).

    warm_starts seed extra ascents (used to track the maximizer along a
    radius grid); the returned value is the best over all starts.
    """
    if r <= 0:
        raise PreconditionError("radius must be positive")
    rng = np.random.default_rng(config.seed)
    d = f.dim
    raw = rng.normal(size=(config.starts, d)) + 1j * rng.normal(size=(config.starts, d))
    starts = list(warm_starts) + [z for z in raw if np.linalg.norm(z) > 1e-12]
    z, value, grad_norm = _ascend(f, np.array(starts, dtype=complex).reshape(-1, d),
                                  r, config.max_iter, config.gtol)
    best = int(np.argmax(value))
    return SphereMax(z[best], float(value[best]), float(grad_norm[best]))


def sphere_audit(f: PolyMap, r: float, value: float, samples: int = 10_000,
                 seed: int = 1) -> float:
    """Largest ||f|| over random sphere points; must not exceed the claimed max."""
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(samples, f.dim)) + 1j * rng.normal(size=(samples, f.dim))
    batch *= (r / np.linalg.norm(batch, axis=1))[:, None]
    return float(np.linalg.norm(f.evaluate_batch(batch)[0], axis=1).max(initial=0.0))


def hadamard_profile(f: PolyMap, s_range=(-1.0, 3.0), steps: int = 25,
                     config: MaxSearchConfig = MaxSearchConfig()) -> SphereMaxProfile:
    """Sample H(s) = log(M(e^s)/e^s) on a grid, with central-difference H'.

    Convexity of H and its eventual positivity (for non-affine f) make any
    grid point with H > 0 and H' > 0 usable for the construction.
    """
    lo, hi = float(s_range[0]), float(s_range[1])
    if not (hi > lo) or steps < 3:
        raise PreconditionError("s_range must be nondegenerate with steps >= 3")
    grid = np.linspace(lo, hi, steps)
    samples = []
    warm = ()
    for s in grid:
        r = float(np.exp(s))
        sm = sphere_max(f, r, config, warm_starts=warm)
        samples.append((r, sm.value, sm.point))
        warm = (sm.point,)
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


def select_growth_point(profile: SphereMaxProfile, margin: float = SELECT_MARGIN,
                        tol_eta: float = TOL_ETA):
    """Index of the smallest grid point with H safely positive and H' > tol_eta.

    eta = 1 + H' must clear 1 + tol_eta.  A grid point straddling a kink of H
    (left/right difference disagreement above 1e-2) is skipped, since the
    derivative estimate there is meaningless; raises RangeError when no
    point qualifies.
    """
    hv = profile.H_values
    s_grid = [s for s, _, _ in hv]
    h = [x for _, x, _ in hv]
    for i in range(1, len(hv) - 1):
        s, h_i, hp = hv[i]
        if h_i <= 10 * margin or hp is None or hp <= tol_eta:
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
                        polish_starts: int = 200,
                        tol_fix: float = TOL_FIX, tol_vec: float = TOL_VEC,
                        tol_eta: float = TOL_ETA) -> RepellingConstruction:
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
    idx = select_growth_point(profile, tol_eta=tol_eta)
    s = profile.H_values[idx][0]
    r = float(np.exp(s))

    polish = MaxSearchConfig(starts=polish_starts, max_iter=4 * config.max_iter,
                             gtol=min(config.gtol, 1e-12), seed=config.seed)
    warm = (profile.samples[idx][2],)
    best = sphere_max(f, r, polish, warm_starts=warm)
    q, m_r = best.point, best.value

    # M'(r) by central differences; each endpooint re-maximized from q
    h = 1e-4 * r
    side = MaxSearchConfig(starts=8, max_iter=2 * config.max_iter,
                           gtol=min(config.gtol, 1e-12), seed=config.seed + 1)
    m_plus = sphere_max(f, r + h, side, warm_starts=(q,)).value
    m_minus = sphere_max(f, r - h, side, warm_starts=(q,)).value
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
    if residual_fix > tol_fix:
        raise ConstructionError("fixed-point residual too large", diagnostics)
    if residual_eigvec > tol_vec:
        raise ConstructionError("adjoint eigenvector residual too large",
                                diagnostics)
    if eta <= 1.0 + tol_eta:
        raise ConstructionError(
            f"eta = {eta:.6f} not above 1: selected s has no usable growth",
            diagnostics)
    if eig_gap > tol_eta:
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
        seed=config.seed,
        profile=profile,
    )
