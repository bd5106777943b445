"""Sphere maxima, the Hadamard profile, and the repelling construction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holorigid import sphere
from holorigid.dynamics import PolyMap
from holorigid.errors import PreconditionError, RangeError
from holorigid.sphere import (
    TOL_ETA,
    MaxSearchConfig,
    SphereMaxProfile,
    _ascend,
    _first_best,
    _phi_derivatives,
    _side_maxima,
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
        probe = sphere_audit(SQUARE_FIRST, 2.0)
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

    @pytest.mark.parametrize("f, point_tol", [
        (HENON, 1e-12), (SQUARE_SECOND, 1e-12), (MIX3, 1e-6)])
    def test_per_row_radii_match_one_call_per_radius(self, f, point_tol):
        rng = np.random.default_rng(11)
        starts = rng.normal(size=(18, f.dim)) + 1j * rng.normal(size=(18, f.dim))
        radii = np.tile([0.7, 2.0, 3.0], 6)
        points, values, _ = _ascend(f, starts, radii, 300, 1e-10)
        for r in (0.7, 2.0, 3.0):
            rows = radii == r
            alone, alone_values, _ = _ascend(f, starts[rows], r, 300, 1e-10)
            assert np.all(np.abs(alone_values - values[rows]) <= 1e-12 * values[rows])
            assert np.all(np.linalg.norm(alone - points[rows], axis=1) <= point_tol * r)

    def test_near_tie_goes_to_the_first_start(self):
        # every (2 e^{it}, 0) attains M(2) = 4 for (z1^2, z2); at t = 0.9 the
        # rounded value exceeds 4 by 1.8e-15, so the witness is the first start
        first, second = np.array([2.0, 0j]), np.array([2.0 * np.exp(0.9j), 0j])
        _, values, _ = _ascend(SQUARE_FIRST, np.array([first, second]), 2.0, 300, 1e-10)
        assert values[1] > values[0] == 4.0
        best = sphere_max(SQUARE_FIRST, 2.0, FAST, warm_starts=(first, second))
        assert best.value == 4.0
        assert np.array_equal(best.point, first)

    @pytest.mark.parametrize("f", [HENON, MIX3])
    def test_side_pair_matches_two_sphere_max_calls(self, f):
        side = MaxSearchConfig(starts=8, max_iter=600, gtol=1e-12, seed=4)
        r, h = 2.0, 2e-4
        q = sphere_max(f, r, FAST).point
        plus, minus = _side_maxima(f, r, h, q, side)
        for value, radius in ((plus, r + h), (minus, r - h)):
            alone = sphere_max(f, radius, side, warm_starts=(q,)).value
            assert abs(value - alone) <= 1e-12 * alone

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(PreconditionError):
            sphere_max(SQUARE_FIRST, 0.0, FAST)

    def test_zero_warm_start_rejected(self):
        with pytest.raises(PreconditionError, match="nonzero"):
            sphere_max(SQUARE_FIRST, 2.0, FAST, warm_starts=([0, 0],))

    def test_overflow_everywhere_names_the_radius(self):
        # |z1|^4 ~ 1e800 overflows at every start
        with pytest.raises(PreconditionError, match="radius 1e[+]200"):
            sphere_max(SQUARE_FIRST, 1e200, FAST)

    def test_newton_step_near_overflow(self):
        # M(r) = r^2 and ||f||^2 = 1e308 at the maximum: the Hessian's
        # squared entries overflow, so its terms are scaled before eigh
        r = float(np.exp(177.3))
        best = sphere_max(SQUARE_FIRST, r, FAST)
        assert best.value == pytest.approx(r * r, rel=1e-12)

    def test_overflow_at_some_starts_names_the_radius(self):
        # ||f||^2 = r^4 overflows at the maximizer while some starts stay
        # finite; their best was 17% low
        with pytest.raises(PreconditionError, match="radius 1.22256e[+]77"):
            sphere_max(SQUARE_FIRST, float(np.exp(177.5)), FAST)

    @pytest.mark.parametrize("s", [50.0, 176.0])
    def test_large_sphere_maximum(self, s):
        # the tangent norm is taken without overflow, and on a large sphere
        # the gtol test waits for a slope whose gain is below rounding: at
        # s = 50 the ascent used to stop a few percent below r^2
        r = float(np.exp(s))
        best = sphere_max(SQUARE_FIRST, r, FAST)
        assert best.value == pytest.approx(r * r, rel=1e-12)
        assert np.isfinite(best.grad_norm)

    def test_first_best_skips_non_finite_values(self):
        values = np.array([np.nan, 3.0, np.inf, 3.0 * (1 + 1e-15), 1.0])
        assert _first_best(values, 1.0) == 1
        with pytest.raises(PreconditionError, match="radius 2"):
            _first_best(np.array([np.nan, np.inf]), 2.0)

    def test_flat_maximum_meets_gtol(self):
        # the tangent Hessian of mix3 at r = 1.3 has an eigenvalue near
        # -2.7e-5 beside -30; a gradient ascent ended at tangent norm 1.4e-4
        # and value 1.77963875 after max_iter
        best = sphere_max(MIX3, 1.3, MaxSearchConfig(starts=64, seed=3))
        assert best.grad_norm <= 1e-7
        assert best.value > 1.7796388


def _sequential_profile_values(f, grid, config):
    """M(e^s) by one sphere_max per radius, each warm-started from the last."""
    values, warm = [], ()
    for s in grid:
        best = sphere_max(f, float(np.exp(s)), config, warm_starts=warm)
        values.append(best.value)
        warm = (best.point,)
    return np.array(values)


class TestHadamardProfile:
    @pytest.mark.parametrize("f", [SQUARE_FIRST, HENON, MIX3],
                             ids=["sq2", "henon", "mix3"])
    def test_lockstep_matches_sequential_reference(self, f):
        grid = np.linspace(-1.0, 3.0, 9)
        reference = _sequential_profile_values(f, grid, FAST)
        profile = hadamard_profile(f, (-1.0, 3.0), 9, FAST)
        values = np.array([m for _, m, _ in profile.samples])
        assert np.all(values >= reference * (1 - 2e-12))

    def test_profile_stops_at_the_tie_tolerance(self, monkeypatch):
        # on mix3 some cold starts climb a nearly flat ridge by about 1e-11
        # relative per Newton step; stopping at TIE_TOL ends the cold pass
        # before max_iter, and the samples stay within the tie tolerance of
        # ascents that run on to the rounding of phi
        config = MaxSearchConfig(starts=16, seed=101)
        iterations = []
        newton_steps, ascend = sphere._newton_steps, sphere._ascend

        def counted_newton_steps(*args):
            iterations[-1] += 1
            return newton_steps(*args)

        def counted_ascend(*args):
            iterations.append(0)
            return ascend(*args)

        monkeypatch.setattr(sphere, "_newton_steps", counted_newton_steps)
        monkeypatch.setattr(sphere, "_ascend", counted_ascend)
        profile = hadamard_profile(MIX3, config=config)
        assert iterations[0] < config.max_iter
        # the same ascents, stopped at the rounding of phi
        monkeypatch.setattr(sphere, "_ascend", lambda *args: ascend(*args[:5]))
        reference = hadamard_profile(MIX3, config=config)
        values = np.array([m for _, m, _ in profile.samples])
        expected = np.array([m for _, m, _ in reference.samples])
        assert np.all(np.abs(values - expected) <= 2e-12 * expected)
        assert select_growth_point(profile) == select_growth_point(reference)

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

    def test_overflow_at_some_starts_names_the_radius(self):
        # ||f||^2 = r^4 overflows at the maximizers from s = 177.4 on while
        # some starts stay finite; the profile used to read 0.73 and 0.38 of
        # r^2 at s = 177.6 and 177.9, and H' = -0.59
        with pytest.raises(PreconditionError, match="radius 1.35114e[+]77"):
            hadamard_profile(SQUARE_FIRST, (177.0, 177.9), 4, FAST)
        with pytest.raises(PreconditionError, match="radius"):
            _side_maxima(SQUARE_FIRST, float(np.exp(177.5)), 0.1 * float(np.exp(177.5)),
                         np.array([1.0, 0.0], dtype=complex), FAST)

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
        # could not clear 1 + TOL_ETA there
        h = [0.5, 0.5, 0.500074, 1.500074, 2.500074]
        h_values = tuple((float(s), hs, (h[s + 1] - h[s - 1]) / 2 if 0 < s < 4
                          else None) for s, hs in enumerate(h))
        profile = SphereMaxProfile((), h_values)
        assert 1e-5 < h_values[1][2] < TOL_ETA
        assert select_growth_point(profile) == 3  # s = 2 straddles the hinge


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

    def test_mix3_maximum_does_not_depend_on_the_seed(self):
        # a gradient ascent spread M by 4.9e-11 relative over these seeds
        m = [construct_repelling(MIX3, config=MaxSearchConfig(starts=16, seed=seed)).M
             for seed in range(101, 107)]
        assert max(m) - min(m) <= 1e-13 * max(m)

    def test_affine_rejected(self):
        with pytest.raises(PreconditionError, match="non-affine"):
            construct_repelling(PolyMap.linear(np.eye(2) * 0.5))

    def test_one_variable_rejected(self):
        with pytest.raises(PreconditionError, match="d >= 2"):
            construct_repelling(PolyMap.from_coeffs_1d([0, 0, 1]))

    def test_unhelpful_range_is_recoverable(self):
        with pytest.raises(RangeError, match="extend s_range"):
            construct_repelling(SQUARE_FIRST, (-3.0, -2.0), 5, FAST)


def _map_strategy(dim):
    exponent = st.tuples(*[st.integers(0, 3)] * dim).filter(lambda a: sum(a) <= 3)
    coefficient = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                     allow_infinity=False)
    component = st.dictionaries(exponent, coefficient, min_size=1, max_size=6)
    return st.tuples(*[component] * dim).map(lambda comps: PolyMap(dim, comps))


@st.composite
def _map_and_point(draw):
    dim = draw(st.sampled_from([2, 3]))
    coordinate = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    return draw(_map_strategy(dim)), np.array(draw(st.lists(
        coordinate, min_size=2 * dim, max_size=2 * dim)))


class TestPhiDerivatives:
    @settings(max_examples=60, deadline=None)
    @given(_map_and_point())
    def test_match_central_differences(self, case):
        # phi by pointwise evaluation in x = (Re z, Im z); the gradient
        # against differences of phi, the Hessian against differences of the
        # gradient
        f, x = case
        d, h = f.dim, 1e-5

        def phi(y):
            return float(np.linalg.norm(f(y[:d] + 1j * y[d:])) ** 2)

        value, grad, hess = (a[0] for a in _phi_derivatives(f, x[None]))
        steps = h * np.eye(2 * d)
        fd_grad = np.array([(phi(x + e) - phi(x - e)) / (2 * h) for e in steps])
        _, grad_plus, _ = _phi_derivatives(f, x + steps)
        _, grad_minus, _ = _phi_derivatives(f, x - steps)
        fd_hess = (grad_plus - grad_minus) / (2 * h)
        assert value == pytest.approx(phi(x), rel=1e-12, abs=1e-12)
        assert np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-6 * (1 + value))
        assert np.allclose(hess, hess.T, rtol=0, atol=1e-12 * (1 + np.abs(hess).max()))
        assert np.allclose(hess, fd_hess, rtol=1e-6,
                           atol=1e-6 * (1 + np.abs(hess).max()))
