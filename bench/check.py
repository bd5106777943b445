"""Output checker for the benchmark's CLI jobs.

Every check here recomputes a claim from the job's own input and the
payload, with plain Python arithmetic, so it does not lean on the
program's self-checks.  A job passes when the CLI exited 0 and its payload
survives the check; ``wrong`` marks a payload the CLI emitted with exit 0
that the check rejected, which is an incorrect output rather than a
refusal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

ORBIT_TOL = 1e-8
EIG_RTOL = 1e-6
UNITARY_TOL = 1e-8
GRADED_TOL = 1e-8
SWEEP_RTOL = 1e-9


@dataclass
class Outcome:
    ok: bool
    wrong: bool = False
    reason: str = ""
    found_points: int | None = None


class Rejected(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise Rejected(message)


def _c(pair) -> complex:
    if isinstance(pair, (list, tuple)):
        return complex(pair[0], pair[1])
    return complex(pair)


def _vec(pairs) -> np.ndarray:
    return np.array([_c(x) for x in pairs], dtype=complex)


# ---------------------------------------------------------------------------
# independent evaluation of the symbols


def poly_eval(poly: list, z) -> np.ndarray:
    z = [complex(x) for x in z]
    out = []
    for comp in poly:
        total = 0j
        for alpha, c in comp.items():
            term = c
            for zi, a in zip(z, alpha):
                term *= zi ** a
            total += term
        out.append(total)
    return np.array(out)


def poly_jacobian(poly: list, z) -> np.ndarray:
    z = [complex(x) for x in z]
    d = len(z)
    jac = np.zeros((len(poly), d), dtype=complex)
    for i, comp in enumerate(poly):
        for alpha, c in comp.items():
            for j in range(d):
                if alpha[j] == 0:
                    continue
                term = c * alpha[j]
                for k, (zk, a) in enumerate(zip(z, alpha)):
                    term *= zk ** (a - 1 if k == j else a)
                jac[i, j] += term
    return jac


def henon_step(factors: list, z) -> tuple:
    """One application of the composition, with its Jacobian."""
    x, y = complex(z[0]), complex(z[1])
    jac = np.eye(2, dtype=complex)
    for p, delta in factors:
        p_y = sum(c * y ** k for k, c in enumerate(p))
        dp_y = sum(k * c * y ** (k - 1) for k, c in enumerate(p) if k)
        jac = np.array([[0, 1], [-delta, dp_y]], dtype=complex) @ jac
        x, y = y, p_y - delta * x
    return np.array([x, y]), jac


def _orbit_data(job, point: np.ndarray, period: int):
    """f^period(point) and D(f^period)(point), from the job's symbol."""
    z = point
    jac = np.eye(len(point), dtype=complex)
    for _ in range(period):
        if job.henon is not None:
            z, step_jac = henon_step(job.henon, z)
        else:
            step_jac = poly_jacobian(job.poly, z)
            z = poly_eval(job.poly, z)
        jac = step_jac @ jac
    return z, jac


def _check_periodic(job, point: np.ndarray, period: int) -> np.ndarray:
    """Verify that point has period dividing `period`; return the multipliers."""
    _require(1 <= period <= max(job.r, 1), f"period {period} outside 1..{job.r}")
    image, jac = _orbit_data(job, point, period)
    resid = float(np.linalg.norm(image - point))
    _require(resid <= ORBIT_TOL * (1.0 + np.linalg.norm(point)),
             f"f^{period}(p) - p has residual {resid:.3e}")
    return np.linalg.eigvals(jac)


def _check_count(found, expected):
    _require(isinstance(found, int) and found >= 0, f"bad point count {found!r}")
    _require(found <= expected,
             f"{found} points reported, only {expected} exist")


# ---------------------------------------------------------------------------
# per-kind checks; each returns the job's periodic-point count or None


def _bounded(job, doc):
    # weight u == 1 and degree >= 2: a repelling (1-D) or saddle (Henon)
    # orbit exists in the searched periods, so theory requires Unbounded
    _require(doc.get("verdict") == "Unbounded",
             f"verdict {doc.get('verdict')!r}, theory requires 'Unbounded'")
    wit = doc["witness"]
    mults = _check_periodic(job, _vec(wit["point"]), int(wit["period"]))
    worst = max(abs(m) for m in mults)
    _require(worst > 1.0, f"largest multiplier modulus {worst:.6g} <= 1")
    claimed = float(wit["abs_eigenvalue"])
    _require(abs(worst - claimed) <= EIG_RTOL * max(1.0, worst),
             f"eigenvalue modulus {claimed!r}, recomputed {worst!r}")
    found = doc["metadata"]["orbits_examined"]
    _check_count(found, job.expected_points)
    return found


def _hypercyclic(job, doc):
    # degree >= 2 symbols always have periodic points
    _require(doc.get("verdict") == "NotHypercyclic",
             f"verdict {doc.get('verdict')!r}, theory requires 'NotHypercyclic'")
    wit = doc["witness"]
    _check_periodic(job, _vec(wit["point"]), int(wit["period"]))
    found = wit["orbits_found"]
    _require(found >= 1, "NotHypercyclic without an orbit")
    _check_count(found, job.expected_points)
    return found


def _cocycle(job, point: np.ndarray) -> complex:
    value, z = 1 + 0j, point
    for _ in range(job.r):
        value *= poly_eval([job.weight], z)[0]
        z = poly_eval(job.poly, z)
    return value


def _cyclic(job, doc):
    verdict = doc.get("verdict")
    _require(verdict in ("NotCyclic", "NoObstruction"),
             f"unexpected verdict {verdict!r}")
    wit = doc["witness"]
    found = wit["points_found"]
    _check_count(found, job.expected_points)
    counts = [lv["count"] for lv in wit["levels"]]
    _require(sum(counts) == found,
             f"level counts sum to {sum(counts)}, {found} points reported")
    crowded = any(c > job.r for c in counts)
    _require(crowded == (verdict == "NotCyclic"),
             f"verdict {verdict} but level counts {counts} at r={job.r}")
    if verdict == "NotCyclic":
        lam = _c(wit["lambda"])
        pts = wit["level_points"]
        _require(len(pts) == wit["count"] > job.r, "level witness too small")
        for pair in pts:
            p = _vec(pair)
            _check_periodic(job, p, job.r)
            val = _cocycle(job, p)
            _require(abs(val - lam) <= 1e-6 * (1.0 + abs(lam)),
                     f"u_r(p) = {val} is not on the level {lam}")
    return found


def _henon(job, doc):
    # Henon compositions carry saddle orbits
    _require(doc.get("verdict") == "Unbounded",
             f"verdict {doc.get('verdict')!r}, theory requires 'Unbounded'")
    wit = doc["witness"]
    mults = sorted(abs(m) for m in _check_periodic(
        job, _vec(wit["point"]), int(wit["period"])))
    _require(mults[0] < 1.0 < mults[-1], f"not a saddle: |multipliers| {mults}")
    claimed = float(wit["abs_eigenvalue"])
    _require(abs(mults[-1] - claimed) <= EIG_RTOL * mults[-1],
             f"eigenvalue modulus {claimed!r}, recomputed {mults[-1]!r}")
    return None


def _repelling(job, doc):
    a = float(doc["a"])
    u_mat = np.array([[_c(x) for x in row] for row in doc["U"]])
    p = _vec(doc["p"])
    tol = doc["tolerances"]
    d = len(p)
    _require(0.0 < a < 1.0, f"a = {a} not in (0, 1)")
    _require(np.linalg.norm(u_mat.conj().T @ u_mat - np.eye(d), 2) <= UNITARY_TOL,
             "U is not unitary")
    _require(abs(np.linalg.det(u_mat) - 1.0) <= UNITARY_TOL, "det U != 1")
    x = a * (u_mat @ p)
    resid = float(np.linalg.norm(poly_eval(job.poly, x) - p)
                  / (1.0 + np.linalg.norm(p)))
    _require(resid <= float(tol["tol_fix"]),
             f"||f(aUp) - p|| / (1 + ||p||) = {resid:.3e}")
    eta = float(doc["eta"])
    _require(eta > 1.0 + float(tol["tol_eta"]), f"eta = {eta} not above 1")
    a_mat = a * poly_jacobian(job.poly, x) @ u_mat
    vec_resid = float(np.linalg.norm(a_mat.conj().T @ p - eta * p)
                      / np.linalg.norm(p))
    _require(vec_resid <= float(tol["tol_vec"]),
             f"A* p - eta p residual {vec_resid:.3e}")
    return None


def _graded(job, doc):
    _require(float(doc["max_entry_mismatch"]) <= GRADED_TOL,
             f"formula/brute-force mismatch {doc['max_entry_mismatch']}")
    _require(doc["eigenvalue_law_match"] is True, "eigenvalue law mismatch")
    n, d = int(doc["n"]), len(doc["point"])
    size = math.comb(n + d - 1, d - 1)
    _require(len(doc["basis"]) == size, f"basis has {len(doc['basis'])} "
             f"monomials, degree {n} in {d} variables has {size}")
    return None


def _fock(job, doc):
    n_cap = job.extra["N"]
    sweep = doc["sweep"]
    _require([row["N"] for row in sweep] == list(range(n_cap + 1)),
             "sweep does not cover N = 0..cap")
    norms = [float(row["norm"]) for row in sweep]
    for lo, hi in zip(norms, norms[1:]):
        # each finite section contains the previous one as a submatrix
        _require(hi >= lo - SWEEP_RTOL * max(1.0, lo),
                 f"sweep norm decreases from {lo!r} to {hi!r}")
    last = norms[-1]
    _require(abs(float(doc["truncated_norm"]) - last) <= SWEEP_RTOL * max(1.0, last),
             "truncated_norm differs from the last sweep row")
    return None


def _duality(job, doc):
    flags = doc["flags"]
    _require(doc["instances"] == job.extra["instances"] == len(flags),
             "instance count mismatch")
    disagree = sum(1 for image, kernel in flags if image != kernel)
    _require(disagree == doc["disagreements"], "disagreement count is wrong")
    _require(doc["all_agree"] is True and disagree == 0,
             f"{disagree} image/kernel disagreements")
    return None


CHECKS = {
    "bounded": _bounded,
    "hypercyclic": _hypercyclic,
    "cyclic": _cyclic,
    "henon": _henon,
    "repelling": _repelling,
    "graded": _graded,
    "fock": _fock,
    "duality": _duality,
}


def check(job, rc, stdout: str) -> Outcome:
    """Judge one job from its exit code and standard output."""
    if rc != 0:
        return Outcome(False, reason=f"exit code {rc}")
    try:
        doc = json.loads(stdout)
        found = CHECKS[job.kind](job, doc)
    except Rejected as exc:
        return Outcome(False, wrong=True, reason=str(exc))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(False, wrong=True,
                       reason=f"malformed payload: {type(exc).__name__}: {exc}")
    return Outcome(True, found_points=found)
