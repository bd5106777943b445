"""Orbits, periodic points, multipliers, and the weight cocycle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holorigid import dynamics
from holorigid.dynamics import (
    ALL_POINTS,
    DEFAULT_MAX_TERMS,
    GENERIC_POINT,
    TOL_ORBIT,
    AllPoints,
    PolyFunc,
    PolyMap,
    SearchConfig,
    classify,
    cluster_points,
    cocycle_poly,
    companion_roots,
    durand_kerner,
    iterate,
    iterate_point,
    make_orbit,
    multipliers,
    orbit_points,
    periodic_orbits,
    periodic_points_1d,
    periodic_points_2d,
    root_count_1d,
    solve_2x2,
    weight_cocycle,
)
from holorigid.errors import OrbitError, PreconditionError, TermOverflowError

SQUARE = PolyMap.from_coeffs_1d([0, 0, 1])          # z^2
SQUARE_MINUS_1 = PolyMap.from_coeffs_1d([-1, 0, 1])  # z^2 - 1
HENON = PolyMap(2, ({(0, 1): 1}, {(0, 2): 1, (0, 0): -3, (1, 0): -0.3}))
MIX3 = PolyMap(3, ({(1, 1, 0): 1, (0, 0, 1): 0.5}, {(0, 2, 0): 1, (1, 0, 0): -0.3},
                   {(0, 0, 3): 0.2, (1, 0, 0): 1}))


class TestBatchEvaluation:
    @pytest.mark.parametrize("f", [SQUARE_MINUS_1, HENON, MIX3],
                             ids=["quadratic", "henon", "mix3"])
    def test_matches_pointwise(self, f):
        rng = np.random.default_rng(8)
        z = 2.0 * (rng.normal(size=(200, f.dim)) + 1j * rng.normal(size=(200, f.dim)))
        values, jacs = f.evaluate_batch(z)
        assert values.shape == (200, f.dim) and jacs.shape == (200, f.dim, f.dim)
        for zi, v, jac in zip(z, values, jacs):
            assert np.linalg.norm(v - f(zi)) <= 1e-13 * np.linalg.norm(f(zi))
            want = f.jacobian(zi)
            assert np.linalg.norm(jac - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("f", [SQUARE_MINUS_1, HENON, MIX3],
                             ids=["quadratic", "henon", "mix3"])
    def test_second_order_matches_pointwise(self, f):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(50, f.dim)) + 1j * rng.normal(size=(50, f.dim))
        values, jacs, seconds = f.second_order_batch(z)
        assert seconds.shape == (50, f.dim, f.dim, f.dim)
        assert np.allclose(f.values_batch(z), values, rtol=1e-14, atol=0)
        want_values, want_jacs = f.evaluate_batch(z)
        assert np.allclose(values, want_values, rtol=1e-14, atol=0)
        assert np.allclose(jacs, want_jacs, rtol=1e-14, atol=0)
        for zi, second in zip(z, seconds):
            for i, row in enumerate(f._partials):
                for j, partial in enumerate(row):
                    want = PolyMap(f.dim, [dynamics._poly_diff(partial, k)
                                           for k in range(f.dim)])(zi)
                    assert np.allclose(second[i, j], want, rtol=1e-13, atol=1e-13)

    def test_second_order_table_belongs_to_its_map(self):
        # maps built and dropped in turn may reuse one id(); each must
        # evaluate its own coefficients
        z = np.array([[0.5 + 0.25j, -1.0 + 0.5j]])
        for c in (1.0, 2.0, 3.0):
            f = PolyMap(2, ({(2, 0): c}, {(1, 1): c, (0, 1): 1.0}))
            values, _, seconds = f.second_order_batch(z)
            assert np.allclose(values[0], f(z[0]), rtol=1e-15)
            assert seconds[0, 0, 0, 0] == 2 * c
            del f

    def test_wrong_shape_rejected(self):
        with pytest.raises(PreconditionError):
            HENON.evaluate_batch(np.zeros(2))
        with pytest.raises(PreconditionError):
            HENON.values_batch(np.zeros(2))
        with pytest.raises(PreconditionError):
            HENON.second_order_batch(np.zeros((3, 3)))


def _greedy_reference(points, radius):
    """The one-representative-at-a-time greedy loop cluster_points replaces."""
    def size(z):
        return abs(z) if np.ndim(z) == 0 else np.linalg.norm(z)

    order = sorted(range(len(points)), key=lambda i: tuple(
        part for x in np.atleast_1d(points[i]) for part in (x.real, x.imag)))
    clusters, reach = [], []
    for i in order:
        for cl, bound in zip(clusters, reach):
            if size(points[i] - points[cl[0]]) <= bound:
                cl.append(i)
                break
        else:
            clusters.append([i])
            reach.append(radius * (1.0 + size(points[i])))
    return clusters


class TestClusterPoints:
    def test_matches_reference_loop(self):
        rng = np.random.default_rng(4)
        for dim in (0, 2, 3):
            shape = (150,) if dim == 0 else (150, dim)
            base = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            near = base[:50] + 0.05 * rng.normal(size=base[:50].shape)
            points = list(np.concatenate([base, near, base[:15]]))  # with repeats
            for radius in (1e-6, 0.02, 0.3):
                want = _greedy_reference(points, radius)
                assert cluster_points(points, radius) == want

    def test_reach_boundary_is_inside(self):
        # |rep| = 5 exactly and radius 0.25, so the reach is exactly 1.5
        scalars = [3 + 4j, 3 + 5.5j, 3 + 5.5000001j]
        vectors = [np.array([3, 4], dtype=complex), np.array([4.5, 4], dtype=complex),
                   np.array([4.5000001, 4], dtype=complex)]
        for points in (scalars, vectors):
            want = _greedy_reference(points, 0.25)
            assert want == [[0, 1], [2]]
            assert cluster_points(points, 0.25) == want

    def test_empty(self):
        assert cluster_points([], 1e-6) == []

    def test_slack_joins_only_within_both(self):
        # 3e-6 apart is beyond the radius; within the slack of both points
        # they join, but not with a point whose own slack is below the gap
        points = [0j, 3e-6 + 0j, 6e-6 + 0j]
        assert cluster_points(points, 1e-6, [1e-4, 1e-4, 1e-12]) == [[0, 1], [2]]
        assert cluster_points(points, 1e-6) == [[0], [1], [2]]


class TestIterate:
    def test_square_twice(self):
        assert iterate(SQUARE, 2).components == ({(4,): 1 + 0j},)

    def test_square_minus_one_twice(self):
        # (z^2 - 1)^2 - 1 = z^4 - 2 z^2 (hand expansion)
        assert iterate(SQUARE_MINUS_1, 2).components == \
            ({(2,): -2 + 0j, (4,): 1 + 0j},)

    def test_r_equals_one_is_identity_of_iteration(self):
        assert iterate(HENON, 1).components == HENON.components

    def test_overflow_advises_pointwise(self):
        f = PolyMap.from_coeffs_1d([1, 1, 1, 1, 1])
        with pytest.warns(UserWarning, match="safety cap"):
            with pytest.raises(TermOverflowError, match="pointwise"):
                iterate(f, 8, max_terms=64)

    def test_overflow_warning(self):
        f = PolyMap.from_coeffs_1d([0, 0, 1])
        with pytest.warns(UserWarning, match="safety cap"):
            try:
                iterate(f, 14, max_terms=100)
            except TermOverflowError:
                pass


class TestPeriodicPoints1D:
    def test_square_fixed_points(self):
        assert sorted(periodic_points_1d(SQUARE, 1), key=abs) == \
            pytest.approx([0j, 1 + 0j])

    def test_square_period_two(self):
        # roots of z^4 - z: 0, 1, and the primitive cube roots of unity
        pts = periodic_points_1d(SQUARE, 2)
        want = [0, 1, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)]
        assert len(pts) == 4
        for w in want:
            assert min(abs(p - w) for p in pts) < 1e-9

    def test_negation_is_all_points(self):
        assert periodic_points_1d(PolyMap.from_coeffs_1d([0, -1]), 2) is ALL_POINTS

    def test_translation_has_no_periodic_points(self):
        assert periodic_points_1d(PolyMap.from_coeffs_1d([1, 1]), 3) == []

    def test_residuals_meet_orbit_tolerance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
            f = PolyMap.from_coeffs_1d(coeffs)
            detail = periodic_points_1d(f, 2, detail=True)
            for p, res in zip(detail.points, detail.residuals):
                assert res <= 1e-8 * (1 + abs(p))

    def test_companion_and_durand_kerner_agree(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            deg = int(rng.integers(2, 9))
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            desc = coeffs[::-1]

            def ratio(z):
                return np.polyval(desc, z) / np.polyval(np.polyder(desc), z)

            cauchy = 1 + np.max(np.abs(coeffs[:-1] / coeffs[-1]))
            a = companion_roots(coeffs)
            b = list(durand_kerner(ratio, cauchy * np.exp(1j * np.arange(deg))))
            for x in sorted(a, key=abs, reverse=True):
                j = min(range(len(b)), key=lambda k: abs(b[k] - x))
                assert abs(b[j] - x) < 1e-8 * (1 + abs(x))
                b.pop(j)

    @pytest.mark.parametrize("coeffs, r", [
        ([-1, 0, 1], 6), ([-1, 0, 1], 7), ([-1, 0, 1], 8), ([0, 0, 1], 8),
        # z^2 + c whose expanded-coefficient roots once failed at r = 7
        ([0.33202574981319277 + 0.4621597843756524j, 0, 1], 7),
        # monic cubic whose expanded-coefficient roots merged 81 into 78
        ([0.0819 + 0.4559j, -0.1901 - 0.5024j, 0.4533 - 0.0832j, 1], 4),
        # periodic points at scale 1e-6, closer than the dedup radius
        ([0, 0, 1e6], 4),
    ])
    def test_every_root_certified(self, coeffs, r):
        f = PolyMap.from_coeffs_1d(coeffs)
        detail = periodic_points_1d(f, r, detail=True)
        total = f.degree ** r
        pts = np.array(detail.points)
        radii = np.array(detail.radii)
        assert len(pts) == total and detail.multiplicities == (1,) * total
        assert detail.unresolved == ()
        gaps = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(gaps, np.inf)
        assert np.all(gaps > radii[:, None] + radii[None, :])
        assert np.all(np.array(detail.residuals) <= TOL_ORBIT * (1 + np.abs(pts)))

    def test_double_root_is_one_point(self):
        # z + z^2 - z = z^2: the parabolic fixed point 0 is a double root
        detail = periodic_points_1d(PolyMap.from_coeffs_1d([0, 1, 1]), 1,
                                    detail=True)
        assert detail.multiplicities == (2,)
        assert abs(detail.points[0]) < 1e-8

    def test_rounded_double_root_is_one_point(self):
        # z^2 + 1/4 has its parabolic fixed point 1/2 as a double root; g
        # rounds to 0 at both approximations, so only the rounding bound in
        # the Newton-disk radius keeps the two disks from counting as disjoint
        f = PolyMap.from_coeffs_1d([0.25, 0, 1])
        detail = periodic_points_1d(f, 1, detail=True)
        assert detail.multiplicities == (2,)
        assert abs(detail.points[0] - 0.5) < 1e-6
        (_, _, record), = periodic_orbits(f, 1)
        assert record == {"complete": False}

    @pytest.mark.parametrize("r, distinct", [(2, 2), (4, 14), (10, 1022)])
    def test_triple_root_is_one_point(self, r, distinct):
        # -1/2 is a fixed point of z^2 - 3/4 with multiplier -1, so a triple
        # root of f^r(z) - z for even r.  Its three approximations lie up to
        # 3e-6 apart, beyond the dedup radius but within the rounding slack
        # of each, and make one point
        f = PolyMap.from_coeffs_1d([-0.75, 0, 1])
        detail = periodic_points_1d(f, r, detail=True)
        assert len(detail.points) == distinct and detail.unresolved == ()
        triple = [p for p, m in zip(detail.points, detail.multiplicities) if m > 1]
        assert len(triple) == 1 and abs(triple[0] + 0.5) < 1e-5
        assert sum(detail.multiplicities) == 2 ** r

    def test_meeting_disks_are_not_counted(self, monkeypatch):
        # fixed points 0 and 1e-5; approximations 2e-6 inside each pass the
        # residual test and the dedup radius, but their Newton disks meet
        f = PolyMap.from_coeffs_1d([0, 1 - 1e-5, 1])
        monkeypatch.setattr(dynamics, "durand_kerner", lambda ratio, starts:
                            np.array([2e-6, 8e-6], dtype=complex))
        detail = periodic_points_1d(f, 1, detail=True)
        assert len(detail.points) < 2
        assert len(detail.unresolved) == 2

    def test_covering_disk_is_dropped_alone(self, monkeypatch):
        # g = f(z) - z = (z^2 - 1e-10)(z - 1): roots +-1e-5 and 1.  The
        # approximation 0 passes the residual test, but g'(0) = -1e-10 gives
        # it a Newton disk of radius 3 that covers the other two, whose tiny
        # disks are disjoint: only the covering disk goes
        f = PolyMap.from_coeffs_1d([1e-10, 1 - 1e-10, -1, 1])
        monkeypatch.setattr(dynamics, "durand_kerner", lambda ratio, starts:
                            np.array([0, 1e-5, 1], dtype=complex))
        detail = periodic_points_1d(f, 1, detail=True)
        assert detail.points == (1e-5, 1) and detail.multiplicities == (1, 1)
        assert detail.unresolved == (0j,)
        assert abs(detail.points[1] - detail.points[0]) > sum(detail.radii)

    def test_stalled_root_freezes(self, monkeypatch):
        # a root of z^2 - 2 near 0.0483 keeps an Aberth step of 1.2e-15, above
        # 4 eps (1 + |z|), and used to run the whole 20 * 256 sweep budget
        sweeps = []
        solve = dynamics.durand_kerner

        def counting(ratio, starts):
            return solve(lambda z: sweeps.append(1) or ratio(z), starts)

        monkeypatch.setattr(dynamics, "durand_kerner", counting)
        detail = periodic_points_1d(PolyMap.from_coeffs_1d([-2, 0, 1]), 8, detail=True)
        assert len(sweeps) <= 60
        assert len(detail.points) == 256 and detail.unresolved == ()

    def test_degree_1024_certified(self):
        detail = periodic_points_1d(SQUARE_MINUS_1, 10, detail=True)
        pts, radii = np.array(detail.points), np.array(detail.radii)
        assert len(pts) == 1024 and detail.multiplicities == (1,) * 1024
        gaps = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(gaps, np.inf)
        assert np.all(gaps > radii[:, None] + radii[None, :])

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=3, max_size=4),
           lead=st.complex_numbers(min_magnitude=0.25, max_magnitude=2.0),
           r=st.integers(1, 4))
    def test_complete_means_disjoint_disks(self, coeffs, lead, r):
        f = PolyMap.from_coeffs_1d(coeffs[:-1] + [lead])
        detail = periodic_points_1d(f, r, detail=True)
        pts, radii = np.array(detail.points), np.array(detail.radii)
        assert np.all(np.array(detail.residuals) <= TOL_ORBIT * (1 + np.abs(pts)))
        if len(pts) == root_count_1d(f, r):
            assert detail.multiplicities == (1,) * len(pts)
            gaps = np.abs(pts[:, None] - pts[None, :])
            np.fill_diagonal(gaps, np.inf)
            assert np.all(gaps > radii[:, None] + radii[None, :])

    def test_root_count_above_cap_is_rejected(self):
        r = int(np.log2(DEFAULT_MAX_TERMS)) + 1
        with pytest.raises(PreconditionError, match="roots"):
            periodic_points_1d(SQUARE, r)

    @pytest.mark.parametrize("coeffs", [[-np.finfo(float).max, 0, 1], [-1, 0, 1e-320]],
                             ids=["huge-constant", "subnormal-leading"])
    def test_start_overflow_is_rejected(self, coeffs):
        # the Aberth starts f^-r(z0) overflow; np.linalg.eigvals raised
        # LinAlgError on the infinite companion matrix
        with pytest.raises(PreconditionError, match="out of floating-point range"):
            periodic_points_1d(PolyMap.from_coeffs_1d(coeffs), 1)

    def test_degree_64_completeness(self):
        # deg(f^r) = 64 for a cubic iterated... 4^3 = 64: quartic, r = 3
        f = PolyMap.from_coeffs_1d([0.2, -0.4, 0.0, 0.0, 1.0])
        pts = periodic_points_1d(f, 3)
        assert len(pts) <= 64
        for p in pts:
            assert abs(iterate_point(f, [p], 3)[0] - p) <= 1e-8 * (1 + abs(p))

    def test_iterated_random_polynomials_stress(self):
        # degree-64 expansions with wildly scaled coefficients: every
        # returned point must still verify pointwise, and every candidate
        # must be resolved (this distribution once exposed a diverging
        # Newton polish and a stalling root iteration)
        rng = np.random.default_rng(77)
        for _ in range(30):
            deg = int(rng.integers(1, 5))
            f = PolyMap.from_coeffs_1d(rng.normal(size=deg + 1)
                                       + 1j * rng.normal(size=deg + 1))
            r = int(rng.integers(1, 4))
            detail = periodic_points_1d(f, r, detail=True)
            if isinstance(detail, AllPoints):
                continue
            assert detail.unresolved == ()
            for p, res in zip(detail.points, detail.residuals):
                assert res <= 1e-8 * (1 + abs(p))


class TestMultipliers:
    def test_linear_map(self):
        assert multipliers(PolyMap.from_coeffs_1d([0, 2]), [0], 1) == \
            pytest.approx((2 + 0j,))

    def test_square_at_one(self):
        assert multipliers(SQUARE, [1], 1) == pytest.approx((2 + 0j,))

    def test_superattracting_two_cycle(self):
        # f'(0) * f'(-1) = 0 * (-2) = 0
        assert multipliers(SQUARE_MINUS_1, [0], 2) == pytest.approx((0j,))

    def test_not_periodic_raises_with_residual(self):
        with pytest.raises(OrbitError, match="residual"):
            multipliers(SQUARE, [0.5], 1)

    def test_orbit_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
            f = PolyMap.from_coeffs_1d(coeffs)
            pts = periodic_points_1d(f, 3)
            if isinstance(pts, AllPoints) or not pts:
                continue
            p = pts[0]
            orbit = orbit_points(f, [p], 3)
            base = sorted(multipliers(f, orbit[0], 3), key=abs)
            for q in orbit[1:]:
                other = sorted(multipliers(f, q, 3), key=abs)
                assert np.allclose(base, other, atol=1e-8 * (1 + abs(base[-1])))


class TestClassify:
    @pytest.mark.parametrize("mults,want", [
        ((2.0,), "repelling"),
        ((4.939, 0.0607), "saddle"),
        ((1.0,), "indifferent"),
        ((0.0,), "superattracting"),
        ((0.5, 0.2), "attracting"),
        ((2.0, 1.0), "inconclusive"),
        ((np.exp(1j * 0.3),), "indifferent"),
    ])
    def test_examples(self, mults, want):
        assert classify(mults) == want


class TestWeightCocycle:
    def test_trivial_weight(self):
        assert weight_cocycle(None, [np.array([1 + 2j]), np.array([3j])]) == 1

    def test_gaussian_weight_on_fixed_point(self):
        # u = e^(z^2/2) at the fixed point i of (z+1)^2/2: u(i) = e^(-1/2)
        u = lambda z: np.exp(z[0] ** 2 / 2)
        assert weight_cocycle(u, [np.array([1j])]) == pytest.approx(np.exp(-0.5))

    def test_vanishing_factor(self):
        u = PolyFunc(1, {(1,): 1})
        assert weight_cocycle(u, [np.array([0j]), np.array([-1 + 0j])]) == 0

    def test_multiplicative_splitting(self):
        # u_{a+b}(p) = u_a(p) * u_b(f^a(p))
        rng = np.random.default_rng(13)
        f = PolyMap.from_coeffs_1d([0.3, 0.2, 0.1])
        u = PolyFunc(1, {(0,): 0.5, (1,): 1.0, (2,): -0.25})
        for _ in range(10):
            p = np.array([complex(rng.normal(), rng.normal())])
            a, b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            whole = weight_cocycle(u, orbit_points(f, p, a + b))
            split = weight_cocycle(u, orbit_points(f, p, a)) * \
                weight_cocycle(u, orbit_points(f, iterate_point(f, p, a), b))
            assert whole == pytest.approx(split, rel=1e-10)

    def test_cocycle_poly_matches_pointwise(self):
        rng = np.random.default_rng(15)
        f = PolyMap.from_coeffs_1d([0.1, -0.7, 0.4])
        u = PolyFunc(1, {(0,): 1.0, (1,): 2.0})
        u3 = cocycle_poly(u, f, 3)
        for _ in range(10):
            p = np.array([complex(rng.normal(), rng.normal())])
            assert u3(p) == pytest.approx(
                weight_cocycle(u, orbit_points(f, p, 3)), rel=1e-10)

    def test_cocycle_poly_overflow(self):
        # u_3 = u (u o f) (u o f^2) has degree 7, so 8 terms; every
        # factor and power on the way has at most 5
        f = PolyMap.from_coeffs_1d([0.1, -0.7, 0.4])
        u = PolyFunc(1, {(0,): 1.0, (1,): 2.0})
        assert len(cocycle_poly(u, f, 3, max_terms=8).terms) == 8
        with pytest.raises(TermOverflowError, match="grew to 8 terms"):
            cocycle_poly(u, f, 3, max_terms=7)


class TestPeriodicPoints2D:
    def test_henon_fixed_points(self):
        # x = y = t with t^2 - 1.3 t - 3 = 0, i.e. t = 2.5 and t = -1.2
        res = periodic_points_2d(HENON, 1, SearchConfig(starts=300, seed=7))
        ts = sorted(p[0].real for p in res.points)
        assert ts == pytest.approx([-1.2, 2.5], abs=1e-9)
        assert res.seed == 7

    def test_affine_contraction_single_fixed_point(self):
        f = PolyMap.linear(np.eye(2) * 0.5)
        res = periodic_points_2d(f, 1, SearchConfig(starts=100, seed=1))
        assert len(res.points) == 1
        assert np.linalg.norm(np.array(res.points[0])) < 1e-10

    def test_translation_has_none(self):
        f = PolyMap(2, ({(1, 0): 1, (0, 0): 1}, {(0, 1): 1}))
        res = periodic_points_2d(f, 1, SearchConfig(starts=100, seed=1))
        assert res.points == ()

    def test_deterministic_under_seed(self):
        a = periodic_points_2d(HENON, 1, SearchConfig(starts=150, seed=3))
        b = periodic_points_2d(HENON, 1, SearchConfig(starts=150, seed=3))
        assert a == b

    def test_wrong_dimension_rejected(self):
        with pytest.raises(PreconditionError):
            periodic_points_2d(SQUARE, 1)

    def test_singular_system_is_dropped_alone(self):
        m = np.array([[[2, 1], [1, 1]], [[1, 2], [2, 4]], [[0, 1j], [1, 0]]],
                     dtype=complex)
        b = np.array([[3, 2], [1, 1], [1j, 2]], dtype=complex)
        x, ok = solve_2x2(m, b)
        assert ok.tolist() == [True, False, True]
        for i in (0, 2):
            assert np.allclose(x[i], np.linalg.solve(m[i], b[i]), rtol=1e-15)
        assert np.all(np.isfinite(x))


class TestMakeOrbit:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of PolyMap.__call__ and PolyMap.jacobian."""
        counts = {"__call__": 0, "jacobian": 0}
        for name in counts:
            def counting(*args, _name=name, _method=getattr(PolyMap, name)):
                counts[_name] += 1
                return _method(*args)
            monkeypatch.setattr(PolyMap, name, counting)
        return counts

    @pytest.mark.parametrize("f, r, periods, points", [
        (SQUARE_MINUS_1, 6, {1, 2, 3, 6},
         lambda: [[p] for p in periodic_points_1d(SQUARE_MINUS_1, 6)]),
        (HENON, 4, {1, 2, 4},
         lambda: [(2.5, 2.5), (-1.2, -1.2)]  # its two fixed points
         + list(periodic_points_2d(HENON, 4, SearchConfig(starts=400)).points)),
    ], ids=["square-minus-1", "henon"])
    def test_one_walk_per_orbit(self, calls, f, r, periods, points):
        seen = set()
        for p in points():
            calls.update({"__call__": 0, "jacobian": 0})
            orbit = make_orbit(f, p, r)
            assert calls == {"__call__": r, "jacobian": orbit.period}
            seen.add(orbit.period)
        assert seen == periods

    def test_exact_period_reduction(self):
        f = PolyMap.from_coeffs_1d([0, -1])
        orbit = make_orbit(f, [0], 2)
        assert orbit.period == 1 and len(orbit.points) == 1
        orbit = make_orbit(f, [1], 2)
        assert orbit.period == 2 and len(orbit.points) == 2

    def test_two_cycle_data(self):
        u = PolyFunc(1, {(0,): 2.0, (1,): 1.0})  # u = z + 2
        orbit = make_orbit(SQUARE_MINUS_1, [0], 2, u)
        assert orbit.period == 2
        assert orbit.u_r_value == pytest.approx(2.0)  # u(0) u(-1) = 2 * 1
        assert orbit.stability == "superattracting"

    def test_rejects_non_periodic(self):
        with pytest.raises(OrbitError):
            make_orbit(SQUARE, [0.5], 1)

    def test_rejects_period_zero(self):
        with pytest.raises(PreconditionError):
            make_orbit(SQUARE, [1], 0)

    @pytest.mark.parametrize("p", [complex("inf"), complex("nan")])
    def test_nan_residual_is_not_closure(self, p):
        with pytest.raises(OrbitError), np.errstate(invalid="ignore"):
            make_orbit(SQUARE, [p], 1)
        with pytest.raises(OrbitError), np.errstate(invalid="ignore"):
            multipliers(SQUARE, [p], 2)


class TestPeriodicOrbits:
    def test_exact_period_points_are_the_moebius_counts(self):
        counts = []
        for r, orbits, record in periodic_orbits(SQUARE_MINUS_1, 4):
            assert all(orbit.period == r for orbit in orbits)
            assert record == {"complete": True}
            counts.append(len(orbits))
        assert counts == [2, 2, 6, 12]

    @pytest.mark.parametrize("coeffs", [[-1, 0, 1], [0, 1, 1]],
                             ids=["simple-roots", "double-root"])
    def test_complete_follows_the_root_count(self, coeffs):
        f = PolyMap.from_coeffs_1d(coeffs)
        records = [record for _, _, record in periodic_orbits(f, 3)]
        assert records == [
            {"complete": len(periodic_points_1d(f, r)) == root_count_1d(f, r)}
            for r in (1, 2, 3)]

    def test_identity_iterate_offers_the_generic_orbit(self):
        negation = PolyMap.from_coeffs_1d([0, -1])
        (_, fixed, first), (_, orbits, second) = periodic_orbits(negation, 2)
        assert [o.points for o in fixed] == [((0j,),)] and first["complete"]
        assert [o.points for o in orbits] == [((GENERIC_POINT,), (-GENERIC_POINT,))]
        assert second == {"complete": False}

    def test_two_variable_record(self):
        config = SearchConfig(starts=60, seed=3)
        for r, orbits, record in periodic_orbits(HENON, 2, config=config):
            result = periodic_points_2d(HENON, r, config)
            assert record == {"complete": False, "starts": 60,
                              "converged": result.converged, "seed": 3}
            assert all(orbit.period == r for orbit in orbits)
