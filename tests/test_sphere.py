"""Sphere maxima, the Hadamard profile, and the repelling construction."""

from __future__ import annotations

import numpy as np
import pytest

from holorigid.dynamics import PolyMap
from holorigid.errors import PreconditionError, RangeError
from holorigid.sphere import (
    TOL_ETA,
    MaxSearchConfig,
    SphereMaxProfile,
    _ascend,
    construct_repelling,
    hadamard_profile,
    select_growth_point,
    sphere_audit,
    sphere_max,
    su_map_between,
)

SQUARE_FIRST = PolyMap(2, ({(2, 0): 1}, {(0, 1): 1}))   # (z1^2, z2)
SQUARE_SECOND = PolyMap(2, ({(0, 1): 1}, {(2, 0): 1}))  # (z2, z1^2)
CUBE_FIRST = PolyMap(2, ({(3, 0): 1}, {(0, 1): 1}))     # (z1^3, z2)
HENON = PolyMap(2, ({(0, 1): 1}, {(0, 2): 1, (0, 0): -3, (1, 0): -0.3}))
MIX3 = PolyMap(3, ({(1, 1, 0): 1, (0, 0, 1): 0.5}, {(0, 2, 0): 1, (1, 0, 0): -0.3},
                   {(0, 0, 3): 0.2, (1, 0, 0): 1}))
FAST = MaxSearchConfig(starts=16, seed=3)


class TestSphereMax:
    def test_square_component_maximum(self):
        # ||f||^2 = |z1|^4 + |z2|^2 on |z1|^2 + |z2|^2 = 4 peaks at |z1| = 2
        best = sphere_max(SQUARE_FIRST, 2.0, MaxSearchConfig(starts=32, seed=3))
        assert best.value == pytest.approx(4.0, abs=1e-9)
        assert abs(best.point[0]) == pytest.approx(2.0, abs=1e-7)
        assert abs(best.point[1]) == pytest.approx(0.0, abs=1e-6)

    def test_swapped_map_radius_three(self):
        best = sphere_max(SQUARE_SECOND, 3.0, MaxSearchConfig(starts=32, seed=5))
        assert best.value == pytest.approx(9.0, abs=1e-8)

    def test_affine_isometry_linear_growth(self):
        theta = 0.4
        u = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]], dtype=complex)
        f = PolyMap.linear(u, [0.7, -0.2])
        b_norm = np.linalg.norm([0.7, -0.2])
        for r in (1.0, 5.0, 20.0):
            best = sphere_max(f, r, FAST)
            assert r - b_norm - 1e-8 <= best.value <= r + b_norm + 1e-8

    def test_value_is_audited_upper_envelope(self):
        best = sphere_max(SQUARE_FIRST, 2.0, FAST)
        probe = sphere_audit(SQUARE_FIRST, 2.0, best.value, samples=10_000, seed=1)
        assert probe <= best.value + 1e-9

    @pytest.mark.parametrize("f, r, point_tol", [
        (HENON, 2.0, 1e-12), (SQUARE_SECOND, 3.0, 1e-12), (MIX3, 0.7, 1e-6)])
    def test_lockstep_starts_are_independent(self, f, r, point_tol):
        # Rounding in a batched evaluation depends on the batch size.  Where
        # the maximum is flat, as for mix3 across (z2, z3) = 0, that moves
        # the stopping point by about 1e-7; values still agree.
        rng = np.random.default_rng(9)
        starts = rng.normal(size=(24, f.dim)) + 1j * rng.normal(size=(24, f.dim))
        points, values, _ = _ascend(f, starts, r, 300, 1e-10)
        for z0, point, value in zip(starts, points, values):
            alone, alone_value, _ = _ascend(f, z0[None], r, 300, 1e-10)
            assert abs(alone_value[0] - value) <= 1e-12 * value
            assert np.linalg.norm(alone[0] - point) <= point_tol * r

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(PreconditionError):
            sphere_max(SQUARE_FIRST, 0.0, FAST)


class TestHadamardProfile:
    def test_square_component_profile_is_hinge(self):
        # M(r) = max(r, r^2), so H(s) = max(s, 0)
        profile = hadamard_profile(SQUARE_FIRST, (-1.0, 2.0), 13, FAST)
        for s, h, _ in profile.H_values:
            assert h == pytest.approx(max(s, 0.0), abs=1e-9)

    def test_cube_component_slope_two(self):
        # M(r) = r^3 for r >= 1: H(s) = 2s, H' = 2 away from the kink
        profile = hadamard_profile(CUBE_FIRST, (0.5, 2.0), 7, FAST)
        for s, h, hp in profile.H_values:
            assert h == pytest.approx(2 * s, abs=1e-9)
            if hp is not None:
                assert hp == pytest.approx(2.0, abs=1e-8)

    def test_discrete_convexity(self):
        profile = hadamard_profile(SQUARE_FIRST, (-1.0, 2.5), 15, FAST)
        h = [x for _, x, _ in profile.H_values]
        second = np.diff(h, 2)
        assert np.min(second) >= -1e-6

    def test_affine_has_no_growth_point(self):
        f = PolyMap.linear(np.eye(2, dtype=complex) * 0.9)
        profile = hadamard_profile(f, (-1.0, 3.0), 9, FAST)
        with pytest.raises(RangeError, match="extend s_range"):
            select_growth_point(profile)

    def test_kink_is_skipped(self):
        # grid spacing 0.25 with a point just above the kink at 0
        profile = hadamard_profile(SQUARE_FIRST, (-0.95, 2.05), 13, FAST)
        idx = select_growth_point(profile)
        s, h, hp = profile.H_values[idx]
        assert h > 1e-5 and hp == pytest.approx(1.0, abs=1e-6)


    def test_growth_below_tol_eta_is_passed_over(self):
        # flat H, then slope 1 past a hinge between s = 2 and s = 3: at s = 1
        # the central difference sees only 3.7e-5 of the hinge, so eta = 1 + H'
        # could not clear 1 + tol_eta there
        h = [0.5, 0.5, 0.500074, 1.500074, 2.500074]
        h_values = tuple((float(s), hs, (h[s + 1] - h[s - 1]) / 2 if 0 < s < 4
                          else None) for s, hs in enumerate(h))
        profile = SphereMaxProfile((), h_values)
        assert 1e-5 < h_values[1][2] < TOL_ETA
        assert select_growth_point(profile) == 3  # s = 2 straddles the hinge
        assert select_growth_point(profile, tol_eta=1e-5) == 1


class TestUnitaryBetween:
    def test_random_pairs(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            y = rng.normal(size=d) + 1j * rng.normal(size=d)
            y *= np.linalg.norm(x) / np.linalg.norm(y)
            u = su_map_between(x, y)
            assert np.linalg.norm(u.conj().T @ u - np.eye(d), 2) < 1e-12
            assert abs(np.linalg.det(u) - 1) < 1e-12
            assert np.linalg.norm(u @ x - y) < 1e-9 * (1 + np.linalg.norm(x))

    def test_parallel_with_phase(self):
        x = np.array([1.0 + 0j, 2.0 - 1j, 0.5j])
        y = np.exp(0.3j) * x
        u = su_map_between(x, y)
        assert np.linalg.norm(u @ x - y) < 1e-12
        assert abs(np.linalg.det(u) - 1) < 1e-12

    def test_nearly_parallel_stays_unitary(self):
        x = np.array([2.0 + 0j, 0.0j])
        y = np.array([2.0 * np.exp(1e-9j), 1e-9 + 0j])
        y *= np.linalg.norm(x) / np.linalg.norm(y)
        u = su_map_between(x, y)
        assert np.linalg.norm(u.conj().T @ u - np.eye(2), 2) < 1e-12

    def test_norm_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            su_map_between(np.array([1.0 + 0j, 0j]), np.array([2.0 + 0j, 0j]))


class TestConstructRepelling:
    def test_square_component_reaches_eta_two(self):
        rc = construct_repelling(SQUARE_FIRST, (-1.0, 2.5), 25, FAST,
                                 polish_starts=64)
        assert rc.eta == pytest.approx(2.0, abs=1e-3)
        assert 0 < rc.a < 1
        assert rc.residual_fix <= 1e-6
        assert rc.residual_eigvec <= 1e-6
        assert np.linalg.norm(rc.U.conj().T @ rc.U - np.eye(2), 2) <= 1e-9
        assert abs(np.linalg.det(rc.U) - 1) <= 1e-9
        assert min(abs(e - rc.eta) for e in rc.eigenvalues) <= 1e-3
        assert rc.eta > 1 + 1e-3
        assert rc.lagrange_identity_error <= 1e-3

    def test_fixed_point_property_directly(self):
        rc = construct_repelling(SQUARE_FIRST, (-1.0, 2.5), 25, FAST,
                                 polish_starts=64)
        g = SQUARE_FIRST.compose(PolyMap.linear(rc.a * rc.U))
        assert np.linalg.norm(g(rc.p) - rc.p) <= 1e-6 * (1 + np.linalg.norm(rc.p))
        mults = np.linalg.eigvals(g.jacobian(rc.p))
        assert max(abs(m) for m in mults) > 1

    def test_swapped_map(self):
        rc = construct_repelling(SQUARE_SECOND, (-1.0, 2.5), 25,
                                 MaxSearchConfig(starts=16, seed=5),
                                 polish_starts=64)
        assert rc.eta == pytest.approx(2.0, abs=1e-3)

    def test_mix3_finds_growth(self):
        # H is flat left of a hinge near s = -1/3; the default grid's s = -0.5
        # picks up H' = 3.7e-5 from it, which gives eta = 1.000000
        rc = construct_repelling(MIX3, config=MaxSearchConfig(starts=16, seed=101),
                                 polish_starts=32)
        assert rc.s == pytest.approx(1.0)
        assert rc.eta > 1 + TOL_ETA

    def test_affine_rejected(self):
        with pytest.raises(PreconditionError, match="non-affine"):
            construct_repelling(PolyMap.linear(np.eye(2) * 0.5))

    def test_one_variable_rejected(self):
        with pytest.raises(PreconditionError, match="d >= 2"):
            construct_repelling(PolyMap.from_coeffs_1d([0, 0, 1]))

    def test_unhelpful_range_is_recoverable(self):
        with pytest.raises(RangeError, match="extend s_range"):
            construct_repelling(SQUARE_FIRST, (-3.0, -2.0), 5, FAST)
