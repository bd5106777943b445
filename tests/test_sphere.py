"""Sphere maxima, the Hadamard profile, and the repelling construction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holorigid import sphere
from holorigid.dynamics import PolyMap, SearchConfig
from holorigid.errors import ConstructionError, PreconditionError, RangeError
from holorigid.sphere import (
    TOL_ETA,
    SphereMaxProfile,
    _ascend,
    _phi,
    _phi_derivatives,
    _seeded_starts,
    construct_repelling,
    first_near_best,
    hadamard_profile,
    select_growth_point,
    sphere_max,
    su_map_between,
)

SQUARE_FIRST = PolyMap(2, ({(2, 0): 1}, {(0, 1): 1}))   # (z1^2, z2)
SQUARE_SECOND = PolyMap(2, ({(0, 1): 1}, {(2, 0): 1}))  # (z2, z1^2)
CUBE_FIRST = PolyMap(2, ({(3, 0): 1}, {(0, 1): 1}))     # (z1^3, z2)
HENON = PolyMap(2, ({(0, 1): 1}, {(0, 2): 1, (0, 0): -3, (1, 0): -0.3}))
MIX3 = PolyMap(3, ({(1, 1, 0): 1, (0, 0, 1): 0.5}, {(0, 2, 0): 1, (1, 0, 0): -0.3},
                   {(0, 0, 3): 0.2, (1, 0, 0): 1}))
FAST = SearchConfig(starts=16, seed=3)


def sphere_audit(f: PolyMap, r: float) -> float:
    """Largest ||f|| over 10,000 random sphere points (seed 1); it must not
    exceed a claimed maximum."""
    rng, shape = np.random.default_rng(1), (10_000, f.dim)
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    batch *= (r / np.linalg.norm(batch, axis=1))[:, None]
    return float(np.linalg.norm(f.values_batch(batch), axis=1).max(initial=0.0))


class TestSphereMax:
    def test_square_component_maximum(self):
        # ||f||^2 = |z1|^4 + |z2|^2 on |z1|^2 + |z2|^2 = 4 peaks at |z1| = 2
        best = sphere_max(SQUARE_FIRST, 2.0, SearchConfig(starts=32, seed=3))
        assert best.value == pytest.approx(4.0, abs=1e-9)
        assert abs(best.point[0]) == pytest.approx(2.0, abs=1e-7)
        assert abs(best.point[1]) == pytest.approx(0.0, abs=1e-6)

    def test_swapped_map_radius_three(self):
        best = sphere_max(SQUARE_SECOND, 3.0, SearchConfig(starts=32, seed=5))
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

    def test_no_start_rejected(self):
        with pytest.raises(PreconditionError, match="at least one start"):
            sphere_max(SQUARE_FIRST, 2.0, SearchConfig(starts=0))

    def test_warm_start_alone(self):
        best = sphere_max(SQUARE_FIRST, 2.0, SearchConfig(starts=0),
                          warm_starts=[(1.0, 1.0)])
        assert best.value == pytest.approx(4.0, abs=1e-9)

    def test_value_is_audited_upper_envelope(self):
        best = sphere_max(SQUARE_FIRST, 2.0, FAST)
        probe = sphere_audit(SQUARE_FIRST, 2.0)
        assert probe <= best.value + 1e-9

    @pytest.mark.parametrize("f, r", [(HENON, 2.0), (SQUARE_SECOND, 3.0), (MIX3, 0.7)])
    def test_lockstep_starts_are_independent(self, f, r):
        # every row rounds as it does alone, also on the flat maximum of mix3
        # across (z2, z3) = 0, where a last-bit change can move the stopping
        # point by about 1e-7
        rng = np.random.default_rng(9)
        starts = rng.normal(size=(24, f.dim)) + 1j * rng.normal(size=(24, f.dim))
        points, values, _ = _ascend(f, starts, r)
        for z0, point, value in zip(starts, points, values):
            alone, alone_value, _ = _ascend(f, z0[None], r)
            assert alone_value[0] == value
            assert np.array_equal(alone[0], point)

    @pytest.mark.parametrize("f", [HENON, SQUARE_SECOND, MIX3])
    def test_per_row_radii_match_one_call_per_radius(self, f):
        rng = np.random.default_rng(11)
        starts = rng.normal(size=(18, f.dim)) + 1j * rng.normal(size=(18, f.dim))
        radii = np.tile([0.7, 2.0, 3.0], 6)
        points, values, _ = _ascend(f, starts, radii)
        for r in (0.7, 2.0, 3.0):
            rows = radii == r
            alone, alone_values, _ = _ascend(f, starts[rows], r)
            assert np.array_equal(alone_values, values[rows])
            assert np.array_equal(alone, points[rows])

    def test_near_tie_goes_to_the_first_start(self):
        # every (2 e^{it}, 0) attains M(2) = 4 for (z1^2, z2); at t = 0.9 the
        # rounded value exceeds 4 by 1.8e-15, so the witness is the first start
        first, second = np.array([2.0, 0j]), np.array([2.0 * np.exp(0.9j), 0j])
        _, values, _ = _ascend(SQUARE_FIRST, np.array([first, second]), 2.0)
        assert values[1] > values[0] == 4.0
        best = sphere_max(SQUARE_FIRST, 2.0, FAST, warm_starts=(first, second))
        assert best.value == 4.0
        assert np.array_equal(best.point, first)

    @pytest.mark.parametrize("f", [HENON, MIX3])
    def test_side_pair_matches_two_sphere_max_calls(self, f):
        side = SearchConfig(starts=8, seed=4)
        r, h = 2.0, 2e-4
        q = sphere_max(f, r, FAST).point
        starts = np.concatenate([q[None], _seeded_starts(side, f.dim)])
        _, values, _ = _ascend(f, np.tile(starts, (2, 1)),
                               np.repeat([r + h, r - h], len(starts)))
        for v, radius in zip(values.reshape(2, -1), (r + h, r - h)):
            alone = sphere_max(f, radius, side, warm_starts=(q,)).value
            assert v[first_near_best(v)] == alone

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(PreconditionError):
            sphere_max(SQUARE_FIRST, 0.0, FAST)

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_radius_is_named(self, r):
        with pytest.raises(PreconditionError,
                           match=f"^radius must be positive and finite, got {r}$"):
            sphere_max(SQUARE_FIRST, r, FAST)

    def test_zero_warm_start_rejected(self):
        with pytest.raises(PreconditionError, match="nonzero"):
            sphere_max(SQUARE_FIRST, 2.0, FAST, warm_starts=([0, 0],))

    def test_overflow_everywhere_names_the_radius(self):
        # |z1|^4 ~ 1e800 overflows at every start
        with pytest.raises(PreconditionError, match="radius 1e[+]200"):
            sphere_max(SQUARE_FIRST, 1e200, FAST)

    @pytest.mark.parametrize("f, r", [(SQUARE_FIRST, 1e-160), (HENON, 1e-160),
                                      (SQUARE_FIRST, 0.0), (MIX3, 5e-324),
                                      (PolyMap(2, ({(3, 0): 1}, {(0, 3): 1})), 1e-60)])
    def test_underflow_names_the_radius(self, f, r):
        # r^2 is below the smallest normal float on the first four spheres
        # ((z1^2, z2) has ||f||^2 <= r^2 there, Henon keeps about 9); on the
        # last r^2 = 1e-120 is normal, but ||(z1^3, z2^3)||^2 <= 1e-360 is not
        with pytest.raises(PreconditionError, match=f"underflowed.*radius {r:.6g}$"):
            _ascend(f, _seeded_starts(FAST, f.dim), r)

    def test_small_sphere_with_normal_squares_is_searched(self):
        # r^2 = 1e-300, and ||f||^2 >= |z2|^2 stays normal at every start
        best = sphere_max(SQUARE_FIRST, 1e-150, FAST)
        assert best.value == pytest.approx(1e-150, rel=1e-12)

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
        # the ascent runs on until a step gains no more than the rounding of
        # phi: at s = 50 a gradient stop used to end it a few percent below r^2
        r = float(np.exp(s))
        best = sphere_max(SQUARE_FIRST, r, FAST)
        assert best.value == pytest.approx(r * r, rel=1e-12)
        assert np.isfinite(best.grad_norm)

    def test_flat_maximum_meets_gtol(self):
        # the tangent Hessian of mix3 at r = 1.3 has an eigenvalue near
        # -2.7e-5 beside -30; a gradient ascent ended at tangent norm 1.4e-4
        # and value 1.77963875 after MAX_ITER steps
        best = sphere_max(MIX3, 1.3, SearchConfig(starts=64, seed=3))
        assert best.grad_norm <= 1e-7
        assert best.value > 1.7796388


def _count_newton_steps(monkeypatch) -> list:
    """Newton steps of each _ascend call from now on, in call order."""
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
    return iterations


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
        # before MAX_ITER, and the samples stay within the tie tolerance of
        # ascents that run on to the rounding of phi
        config = SearchConfig(starts=16, seed=101)
        ascend = sphere._ascend
        iterations = _count_newton_steps(monkeypatch)
        profile = hadamard_profile(MIX3, config=config)
        assert iterations[0] < sphere.MAX_ITER
        # the same ascents, stopped at the rounding of phi
        monkeypatch.setattr(sphere, "_ascend", lambda f, z0, r, tol, grow=None:
                            ascend(f, z0, r, sphere.ROUNDING, grow))
        reference = hadamard_profile(MIX3, config=config)
        values = np.array([m for _, m, _ in profile.samples])
        expected = np.array([m for _, m, _ in reference.samples])
        assert np.all(np.abs(values - expected) <= 2e-12 * expected)
        assert select_growth_point(profile) == select_growth_point(reference)

    def test_no_start_rejected(self):
        with pytest.raises(PreconditionError, match="at least one start"):
            hadamard_profile(SQUARE_FIRST, (-1.0, 1.0), 5, SearchConfig(starts=0))

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
        r = float(np.exp(177.5))
        h = 0.1 * r
        starts = np.concatenate([[[1.0, 0.0]], _seeded_starts(FAST, 2)])
        with pytest.raises(PreconditionError, match="radius"):
            _ascend(SQUARE_FIRST, np.tile(starts, (2, 1)),
                    np.repeat([r + h, r - h], len(starts)))

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

    def test_one_variable_is_the_identity(self):
        # SU(1) = {1}: 1j * x is out of reach, x within TOL_UNITARY is not
        x = np.array([1.0 + 0j])
        assert np.array_equal(su_map_between(x, x * (1 + 1e-12)), np.eye(1))
        with pytest.raises(PreconditionError, match="one variable"):
            su_map_between(x, 1j * x)

    def test_norm_gap_is_judged_by_tol_unitary(self, monkeypatch):
        # || ||x|| - ||y|| || = 1e-10 is within TOL_UNITARY (1 + ||x||)
        x, y = np.array([1.0 + 0j, 0j]), np.array([0j, 1.0 + 1e-10 + 0j])
        assert np.linalg.norm(su_map_between(x, y) @ x - y) < 1e-9
        monkeypatch.setattr(sphere, "TOL_UNITARY", 1e-11)
        with pytest.raises(PreconditionError, match="equal norm"):
            su_map_between(x, y)


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
                                 SearchConfig(starts=16, seed=5),
                                 polish_starts=64)
        assert rc.eta == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("f", [SQUARE_FIRST, HENON, MIX3],
                             ids=["sq2", "henon", "mix3"])
    def test_stopped_profile_agrees_with_the_full_grid(self, f):
        # the construction stops its profile once the growth point is
        # decided; what it reports is what the full grid reports there
        config = SearchConfig(starts=16, seed=101)
        stopped = construct_repelling(f, config=config, polish_starts=16).profile
        full = hadamard_profile(f, config=config)
        idx = select_growth_point(stopped)
        assert idx == select_growth_point(full)
        assert len(stopped.samples) == idx + 2
        assert len(stopped.H_values) == len(full.H_values) == 25
        for i, ((s, h, hp), (s_full, h_full, hp_full)) in enumerate(
                zip(stopped.H_values, full.H_values)):
            assert s == s_full
            if i > idx + 1:
                assert h is None and hp is None
                continue
            assert abs(h - h_full) <= 2e-12 * abs(h_full)
            assert (hp is None) == (i in (0, idx + 1))

    def test_overflow_past_the_read_grid_is_not_read(self):
        # ||f||^2 = |z1|^4 overflows from s = 177.4 on; the growth point
        # s = 15.75 is decided before the profile reads those radii, while
        # the full grid still rejects them
        rc = construct_repelling(SQUARE_FIRST, (-1.0, 200.0), 25, FAST,
                                 polish_starts=16)
        assert rc.s == 15.75 and len(rc.profile.samples) == 4
        with pytest.raises(PreconditionError, match="radius 3.84117e[+]79"):
            hadamard_profile(SQUARE_FIRST, (-1.0, 200.0), 25, FAST)

    @pytest.mark.parametrize("build", [hadamard_profile, construct_repelling],
                             ids=["profile", "construction"])
    @pytest.mark.parametrize("s_range", [(-1.0, np.inf), (-np.inf, 3.0),
                                         (np.nan, 3.0)],
                             ids=["inf", "-inf", "nan"])
    def test_non_finite_range_is_named(self, build, s_range):
        # (-1, inf) passed the hi > lo check, and np.linspace turned it into
        # radius nan with an "invalid value" warning
        with pytest.raises(PreconditionError, match=r"^s_range must be finite"):
            build(SQUARE_FIRST, s_range, 25, FAST)

    @pytest.mark.parametrize("s_range, steps", [((3.0, 3.0), 25),
                                                ((3.0, -1.0), 25),
                                                ((-1.0, 3.0), 2)],
                             ids=["empty", "reversed", "two-steps"])
    def test_degenerate_grid_is_rejected(self, s_range, steps):
        with pytest.raises(PreconditionError, match="nondegenerate with steps >= 3"):
            construct_repelling(SQUARE_FIRST, s_range, steps, FAST)

    def test_mix3_finds_growth(self):
        # H is flat left of a hinge near s = -1/3; the default grid's s = -0.5
        # picks up H' = 3.7e-5 from it, which gives eta = 1.000000
        rc = construct_repelling(MIX3, config=SearchConfig(starts=16, seed=101),
                                 polish_starts=32)
        assert rc.s == pytest.approx(1.0)
        assert rc.eta > 1 + TOL_ETA

    def test_mix3_maximum_does_not_depend_on_the_seed(self):
        # a gradient ascent spread M by 4.9e-11 relative over these seeds
        m = [construct_repelling(MIX3, config=SearchConfig(starts=16, seed=seed)).M
             for seed in range(101, 107)]
        assert max(m) - min(m) <= 1e-13 * max(m)

    def test_every_ascent_stops_below_the_cap(self, monkeypatch):
        # the profile, polish and sides of mix3 run in one lockstep ascent,
        # and no row of it takes MAX_ITER steps
        iterations = _count_newton_steps(monkeypatch)
        construct_repelling(MIX3, config=SearchConfig(starts=16, seed=101))
        assert len(iterations) == 1
        assert iterations[0] < sphere.MAX_ITER

    def test_every_ascent_reads_the_cap(self, monkeypatch):
        # one Newton step per ascent does not reach a maximum that verifies
        iterations = _count_newton_steps(monkeypatch)
        monkeypatch.setattr(sphere, "MAX_ITER", 1)
        with pytest.raises(ConstructionError):
            construct_repelling(MIX3, config=SearchConfig(starts=16, seed=101))
        # the cold rows step; the provisional growth point, 1 after that
        # step, starts the warm rows aimed at radii 0 to 2 and the seeded
        # polish and side rows there; then it is 12, so the warm rows aimed at
        # 3 to 13 start and the seeded rows restart at 12; the decided point
        # starts the polish's warm row, and the polish starts the two q rows
        assert iterations == [5]

    @pytest.mark.parametrize("f", [SQUARE_FIRST, HENON, MIX3],
                             ids=["sq2", "henon", "mix3"])
    def test_construction_equals_its_standalone_searches(self, f):
        # the polish and side rows run beside the profile, in one lockstep,
        # and end bit for bit where sphere_max ends alone
        config = SearchConfig(starts=16, seed=101)
        profile, idx, q, m_r, grad_norm, m_plus, m_minus = sphere._profile(
            f, (-1.0, 3.0), 25, config, 200)
        r = float(np.exp(profile.H_values[idx][0]))
        h = 1e-4 * r
        polish = sphere_max(f, r, SearchConfig(200, 101),
                            warm_starts=(profile.samples[idx][2],))
        assert np.array_equal(q, polish.point)
        assert (m_r, grad_norm) == (polish.value, polish.grad_norm)
        side = SearchConfig(sphere.SIDE_STARTS, 102)
        assert m_plus == sphere_max(f, r + h, side, warm_starts=(q,)).value
        assert m_minus == sphere_max(f, r - h, side, warm_starts=(q,)).value
        rc = construct_repelling(f, config=config)
        assert np.array_equal(rc.q, q) and rc.M == m_r
        assert rc.eta == r * ((m_plus - m_minus) / (2 * h)) / m_r

    @pytest.mark.parametrize("f, s_range, wrong", [
        (MIX3, (-1.0, 3.0), 2), (MIX3, (-1.0, 3.0), 20),
        (SQUARE_FIRST, (-1.0, 200.0), 23)], ids=["low", "high", "overflowing"])
    def test_a_wrong_provisional_point_changes_nothing(self, monkeypatch, f,
                                                        s_range, wrong):
        # the first select_growth_point call, on current values before any
        # sample is final, is told a wrong point: rows past it + 2 park and
        # the seeded polish and side rows start there, then all restart.
        # At s = 183.4, ||f||^2 = |z1|^4 overflows on every one of them, and
        # no error is raised for that discarded radius.
        config = SearchConfig(starts=16, seed=101)
        want = construct_repelling(f, s_range, 25, config, polish_starts=48)
        select, calls = sphere.select_growth_point, []

        def wrong_first(profile):
            calls.append(profile)
            return wrong if len(calls) == 1 else select(profile)

        monkeypatch.setattr(sphere, "select_growth_point", wrong_first)
        got = construct_repelling(f, s_range, 25, config, polish_starts=48)
        assert len(calls) > 1
        for name in ("a", "U", "p", "eta", "r", "s", "M", "q", "eigenvalues"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.profile.H_values == want.profile.H_values
        for mine, theirs in zip(got.profile.samples, want.profile.samples):
            assert mine[:2] == theirs[:2] and np.array_equal(mine[2], theirs[2])

    def test_affine_rejected(self):
        with pytest.raises(PreconditionError, match="non-affine"):
            construct_repelling(PolyMap.linear(np.eye(2) * 0.5))

    def test_one_variable_rejected(self):
        with pytest.raises(PreconditionError, match="d >= 2"):
            construct_repelling(PolyMap.from_coeffs_1d([0, 0, 1]))

    def test_polish_from_the_warm_start_alone(self):
        rc = construct_repelling(SQUARE_FIRST, (-1.0, 2.5), 25, FAST,
                                 polish_starts=0)
        assert rc.eta == pytest.approx(2.0, abs=1e-3)

    def test_no_profile_start_rejected(self):
        with pytest.raises(PreconditionError, match="at least one start"):
            construct_repelling(SQUARE_FIRST, (-1.0, 2.5), 25,
                                SearchConfig(starts=0, seed=3))

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


@st.composite
def _map_stack_and_rows(draw):
    # runs of 1, 2, 3 or 7 rows anywhere in a stack of 2 to 700 points
    dim, n = draw(st.sampled_from([2, 3])), draw(st.integers(2, 700))
    length = min(draw(st.sampled_from([1, 2, 3, 7])), n)
    first = draw(st.integers(0, n - length))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, 2 * dim)) * draw(st.floats(0.1, 3.0))
    return draw(_map_strategy(dim)), x, slice(first, first + length)


class TestStackSlices:
    @settings(max_examples=100, deadline=None)
    @given(_map_stack_and_rows())
    def test_rows_round_as_in_the_full_stack(self, case):
        # numpy reduces a one-row stack by other loops and multiplies it by
        # gemv; the lockstep ascent ends where sphere_max alone ends only if
        # a row rounds alike in every stack
        f, x, rows = case
        z = x[:, :f.dim] + 1j * x[:, f.dim:]
        for name, evaluate, points in [
                ("evaluate_batch", f.evaluate_batch, z),
                ("values_batch", lambda y: (f.values_batch(y),), z),
                ("second_order_batch", f.second_order_batch, z),
                ("_phi_derivatives", lambda y: _phi_derivatives(f, y), x),
                ("_phi", lambda y: (_phi(f, y),), x)]:
            full, part = evaluate(points), evaluate(points[rows])
            for whole, piece in zip(full, part):
                assert np.array_equal(whole[rows], piece), name


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
