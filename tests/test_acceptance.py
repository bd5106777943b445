"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a pass line once its assertions hold; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from holorigid.dynamics import (
    ALL_POINTS,
    PolyFunc,
    PolyMap,
    SearchConfig,
    classify,
    make_orbit,
    orbits_of_period,
    periodic_points_1d,
)
from holorigid.fock import (
    operator_matrix_from_polys,
    restriction_norm_profile,
    truncated_norm,
)
from holorigid.henon import GeneralizedHenon, HenonComposition, saddle_certificate
from holorigid.jets import (
    Jet,
    JetMap,
    eigenvalue_law,
    graded_basis,
    graded_eigenvalues,
    graded_matrix_bruteforce,
    graded_matrix_formula,
    multiset_close,
)
from holorigid.rigidity import (
    NOT_CYCLIC,
    NO_OBSTRUCTION,
    UNBOUNDED,
    certify_bounded,
    certify_cyclic,
    duality_check,
)
from holorigid.sphere import construct_repelling

from oracles import fixed_points, weighted_pullback

SQUARE = PolyMap.from_coeffs_1d([0, 0, 1])
HALF = PolyMap.from_coeffs_1d([0, 0.5])
DOUBLE = PolyMap.from_coeffs_1d([0, 2])


def ok(num, name):
    print(f"[acceptance] criterion {num:02d} ({name}): PASS")


def test_criterion_01_graded_eigenvalue_law():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(200):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(0, 6))
        lams = rng.uniform(0.3, 1.8, d) * np.exp(2j * np.pi * rng.uniform(size=d))
        basis = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) \
            + 3.0 * np.eye(d)
        a = basis @ np.diag(lams) @ np.linalg.inv(basis)
        u_p = complex(rng.normal(), rng.normal())
        while abs(u_p) < 1e-3:
            u_p = complex(rng.normal(), rng.normal())
        got = graded_eigenvalues(graded_matrix_formula(u_p, a, n))
        want = eigenvalue_law(u_p, lams, n)
        assert multiset_close(got, want)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    ok(1, "graded eigenvalue law")


def test_criterion_02_formula_bruteforce_equivalence():
    rng = np.random.default_rng(102)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(0, 5))
        base = (0j,) * d
        comps = []
        for _ in range(d):
            coeffs = {alpha: complex(rng.normal(), rng.normal())
                      for alpha in graded_basis(d, 6)
                      if sum(alpha) >= 1 and rng.uniform() < 0.35}
            comps.append(Jet(d, 6, base, coeffs))
        f = JetMap(d, d, tuple(comps))
        u_coeffs = {alpha: complex(rng.normal(), rng.normal())
                    for alpha in graded_basis(d, 6) if rng.uniform() < 0.35}
        u = Jet(d, 6, base, u_coeffs)
        brute = graded_matrix_bruteforce(u, f, n)
        formula = graded_matrix_formula(u.value, f.linear_matrix(), n)
        gap = float(np.max(np.abs(brute.entries - formula.entries)))
        assert gap <= 1e-10, f"entrywise gap {gap:.3e}"
    ok(2, "formula/brute-force graded equivalence")


def test_criterion_03_boundedness_obstruction():
    start = time.perf_counter()
    cert = certify_bounded(SQUARE, None, make_orbit(SQUARE, [1], 1))
    assert time.perf_counter() - start < 1.0
    assert cert.verdict == UNBOUNDED
    assert cert.witness["point"] == pytest.approx([1 + 0j])
    assert cert.witness["eigenvalue"] == pytest.approx(2 + 0j)

    start = time.perf_counter()
    clear = certify_bounded(HALF, None, make_orbit(HALF, [0], 1))
    assert time.perf_counter() - start < 1.0
    assert clear.verdict == NO_OBSTRUCTION
    ok(3, "boundedness obstruction")


def test_criterion_04_fock_divergence():
    # oracle: the z^2 matrix has orthogonal columns sqrt((2m)!/m!) e_{2m},
    # so the exact norm at N = 20 is sqrt(20!/10!) = 818805.576...
    oracle = math.sqrt(math.factorial(20) / math.factorial(10))
    norm20 = truncated_norm(operator_matrix_from_polys(None, SQUARE, 20))
    assert norm20 >= oracle - 1.0
    assert norm20 == pytest.approx(oracle, rel=1e-12)

    for n_cap in range(41):
        m = operator_matrix_from_polys(None, HALF, n_cap)
        assert abs(truncated_norm(m) - 1.0) <= 1e-9
    ok(4, "Fock norm divergence / contraction")


def test_criterion_05_restriction_decay_and_growth():
    profile = restriction_norm_profile(operator_matrix_from_polys(None, HALF, 40))
    for n, value, _ in profile.levels:
        assert abs(value - 2.0 ** (-n)) <= 1e-9

    expanding = restriction_norm_profile(
        operator_matrix_from_polys(None, DOUBLE, 40))
    for n, value, _ in expanding.levels:
        assert value >= 2.0 ** n
    ok(5, "restriction norm decay and eigenvalue bound")


def test_criterion_06_growth_mechanism():
    weight_z = PolyFunc(1, {(1,): 1})
    m = operator_matrix_from_polys(weight_z, DOUBLE, 36)
    for col in range(31):
        assert abs(m.entries[col + 1, col]
                   - 2 ** col * math.sqrt(col + 1)) <= 1e-9 * 2 ** col
    ok(6, "vanishing-weight growth mechanism")


def test_criterion_07_cyclicity_bound():
    detail = periodic_points_1d(SQUARE, 2, detail=True)
    assert len(detail.points) == 4
    # four pairwise disjoint Newton disks hold the four roots of z^4 - z
    pts, radii = np.array(detail.points), np.array(detail.radii)
    gaps = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(gaps, np.inf)
    assert np.all(gaps > radii[:, None] + radii[None, :])
    orbits, _ = orbits_of_period(SQUARE, 2)
    cert = certify_cyclic(SQUARE, None, 2, *orbits)
    assert cert.verdict == NOT_CYCLIC
    assert cert.witness["lambda"] == pytest.approx(1 + 0j)
    assert cert.witness["count"] == 4 > 2

    negation = PolyMap.from_coeffs_1d([0, -1])
    assert periodic_points_1d(negation, 2) is ALL_POINTS
    sentinel = certify_cyclic(negation, None, 2)
    assert sentinel.verdict == NOT_CYCLIC
    assert sentinel.witness["count_infinite"]
    ok(7, "cyclicity point-count bound")


def test_criterion_08_sphere_construction():
    f = PolyMap(2, ({(2, 0): 1}, {(0, 1): 1}))
    start = time.perf_counter()
    rc = construct_repelling(f, (-1.0, 2.5), 25,
                             SearchConfig(starts=16, seed=3),
                             polish_starts=200)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    assert abs(rc.eta - 2.0) <= 1e-3
    assert rc.residual_fix <= 1e-6
    assert rc.residual_eigvec <= 1e-6
    assert np.linalg.norm(rc.U.conj().T @ rc.U - np.eye(2), 2) <= 1e-9
    assert abs(np.linalg.det(rc.U) - 1.0) <= 1e-9
    ok(8, "sphere growth construction")


def test_criterion_09_henon_saddle():
    henon = GeneralizedHenon((-3, 0, 1), 0.3)
    # oracle: x = y = t with t^2 - 1.3 t - 3 = 0, discriminant 13.69,
    # so t = (1.3 + sqrt(13.69)) / 2 = 2.5; multipliers solve
    # mu^2 - p'(t) mu + delta = mu^2 - 5 mu + 0.3 = 0
    t_oracle = (1.3 + math.sqrt(13.69)) / 2
    mult_oracle = sorted(np.roots([1, -5, 0.3]), key=abs)
    points = {round(pt[0].real, 3): (pt, mults, stab)
              for pt, mults, stab in fixed_points(henon)}
    pt, mults, stability = points[2.5]
    assert abs(pt[0] - t_oracle) <= 1e-8
    assert sorted(mults, key=abs) == pytest.approx(mult_oracle, rel=1e-10)
    assert stability == "saddle"
    assert classify(mults) == "saddle"

    cert = saddle_certificate(HenonComposition((henon,)), None, r_max=1,
                              config=SearchConfig(starts=150, seed=11))
    assert cert.verdict == UNBOUNDED
    ok(9, "Henon saddle mechanism")


def test_criterion_10_duality_equivalence():
    rng = np.random.default_rng(110)
    for k in range(100):
        rows = int(rng.integers(2, 9))
        width = int(rng.integers(1, rows + 1))
        cols = int(rng.integers(1, 7))
        q1, _ = np.linalg.qr(rng.normal(size=(rows, width))
                             + 1j * rng.normal(size=(rows, width)))
        q2, _ = np.linalg.qr(rng.normal(size=(width, width))
                             + 1j * rng.normal(size=(width, width)))
        sing = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=width))
        b = q1 @ np.diag(sing) @ q2  # condition number <= 1e6
        if k % 2 == 0:
            l_mat = b @ (rng.normal(size=(width, cols))
                         + 1j * rng.normal(size=(width, cols)))
        else:
            l_mat = rng.normal(size=(rows, cols)) \
                + 1j * rng.normal(size=(rows, cols))
        flags = duality_check(l_mat, b)
        assert flags.image_cond == flags.kernel_cond
    ok(10, "duality equivalence")


def test_criterion_11_counterexample_fidelity():
    # u = e^(z^2/2), f = (z+1)^2/2: u * (e^-z o f) = e^(-1/2) e^-z, since
    # z^2/2 - (z+1)^2/2 = -z - 1/2
    cap = 8
    u = Jet(1, cap, (0j,), {(2 * k,): 1.0 / (2 ** k * math.factorial(k))
                            for k in range(cap // 2 + 1)})
    f = JetMap(1, 1, (Jet(1, cap, (0j,),
                          {(0,): 0.5, (1,): 1.0, (2,): 0.5}),))
    h = Jet(1, cap, (0.5 + 0j,),
            {(k,): math.exp(-0.5) * (-1.0) ** k / math.factorial(k)
             for k in range(cap + 1)})
    got = weighted_pullback(u, f, h)
    for k in range(cap + 1):
        want = math.exp(-0.5) * (-1.0) ** k / math.factorial(k)
        assert abs(got.term((k,)) - want) <= 1e-10

    # simultaneously: the orbit certificate is Unbounded only conditionally,
    # and it says so (the rank-one span of e^-z realizes the failure mode)
    fm = PolyMap.from_coeffs_1d([0.5, 1, 0.5])
    weight = lambda z: np.exp(z[0] ** 2 / 2)
    cert = certify_bounded(fm, weight, make_orbit(fm, [1j], 1))
    assert cert.verdict == UNBOUNDED
    assert cert.witness["u_r"] == pytest.approx(math.exp(-0.5))
    assert any("graded image" in a for a in cert.assumptions)
    ok(11, "counterexample fidelity and conditionality")
