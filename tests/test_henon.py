"""Generalized Henon maps: composition, fixed points, saddle certificates."""

from __future__ import annotations

import numpy as np
import pytest

from holorigid import dynamics
from holorigid.dynamics import PolyFunc, SearchConfig
from holorigid.errors import PreconditionError
from holorigid.henon import (
    ASSUME_REDUCTION_SUPPLIED,
    GeneralizedHenon,
    HenonComposition,
    _factor_certificate,
    saddle_certificate,
    to_polymap,
)
from holorigid.rigidity import (
    ASSUME_CONTINUOUS_INCLUSION,
    ASSUME_GRADED_IMAGE,
    INAPPLICABLE,
    NO_OBSTRUCTION,
    TOL_WEIGHT,
    UNBOUNDED,
    certify_bounded,
)

from oracles import fixed_points

STANDARD = GeneralizedHenon((-3, 0, 1), 0.3)  # p(y) = y^2 - 3, delta = 0.3


class TestConstruction:
    def test_low_degree_rejected(self):
        with pytest.raises(PreconditionError, match="degree >= 2"):
            GeneralizedHenon((1, 2), 0.5)

    def test_zero_delta_rejected(self):
        with pytest.raises(PreconditionError, match="nonzero"):
            GeneralizedHenon((0, 0, 1), 0)

    def test_single_factor_polymap(self):
        fm = STANDARD.polymap()
        assert fm.components[0] == {(0, 1): 1 + 0j}
        assert fm.components[1] == {(0, 0): -3 + 0j, (0, 2): 1 + 0j,
                                    (1, 0): -0.3 + 0j}


class TestToPolymap:
    def test_two_identical_factors_degree_four(self):
        fm = to_polymap(HenonComposition((STANDARD, STANDARD)))
        assert fm.degree == 4

    def test_delta_one_square_composition(self):
        # delta = 1, p = y^2: h(x, y) = (y, y^2 - x); h(h(x,y)) has first
        # component y^2 - x and second (y^2 - x)^2 - y
        h = GeneralizedHenon((0, 0, 1), 1)
        comp = HenonComposition((h, h))
        fm = to_polymap(comp)
        z = np.array([1.0, 1.0])
        assert np.allclose(fm(z), comp(z))
        assert fm.components[0] == {(0, 2): 1 + 0j, (1, 0): -1 + 0j}

    def test_pointwise_agreement_on_random_points(self):
        rng = np.random.default_rng(19)
        factors = (GeneralizedHenon((0.5, -1, 0.7, 1), 0.4 - 0.1j),
                   GeneralizedHenon((-3, 0, 1), 0.3))
        comp = HenonComposition(factors)
        fm = to_polymap(comp)
        for _ in range(1000):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            direct = comp(z)
            table = fm(z)
            assert np.linalg.norm(table - direct) <= \
                1e-9 * (1 + np.linalg.norm(direct))


class TestFixedPoints:
    def test_reduced_quadratic(self):
        # t^2 - 1.3 t - 3 = 0: t = 2.5 and t = -1.2 exactly
        pts = sorted(fixed_points(STANDARD), key=lambda item: item[0][0].real)
        assert pts[0][0] == pytest.approx(np.array([-1.2, -1.2]))
        assert pts[1][0] == pytest.approx(np.array([2.5, 2.5]))

    def test_multipliers_solve_characteristic(self):
        # at t = 2.5: mu^2 - 5 mu + 0.3 = 0
        want = sorted(np.roots([1, -5, 0.3]), key=abs)
        pts = {round(item[0][0].real, 6): item for item in fixed_points(STANDARD)}
        _, mults, stability = pts[2.5]
        assert sorted(mults, key=abs) == pytest.approx(want, rel=1e-10)
        assert stability == "saddle"

    def test_diagonal_residual(self):
        fm = STANDARD.polymap()
        for pt, _, _ in fixed_points(STANDARD):
            assert pt[0] == pt[1]
            assert np.linalg.norm(fm(pt) - pt) <= 1e-10 * (1 + np.linalg.norm(pt))

    def test_determinant_law_single_factor(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
            coeffs[-1] += 2.0
            delta = complex(rng.normal(), rng.normal()) + 1.5
            h = GeneralizedHenon(tuple(coeffs), delta)
            for _, mults, _ in fixed_points(h):
                assert np.prod(mults) == pytest.approx(delta, rel=1e-8)

    def test_determinant_law_composition(self):
        from holorigid.dynamics import periodic_points_2d

        factors = (GeneralizedHenon((-3, 0, 1), 0.3),
                   GeneralizedHenon((1, 0, 1), -0.5))
        comp = HenonComposition(factors)
        fm = to_polymap(comp)
        found = periodic_points_2d(fm, 1, SearchConfig(starts=400, seed=2))
        assert found.points  # at least one fixed point of the composition
        for p in found.points:
            jac = fm.jacobian(np.asarray(p))
            assert np.linalg.det(jac) == pytest.approx(
                comp.jacobian_determinant, rel=1e-8)


class TestSaddleCertificate:
    def test_standard_example_unbounded(self):
        cert = saddle_certificate(HenonComposition((STANDARD,)), None, r_max=1,
                                  config=SearchConfig(starts=150, seed=11))
        assert cert.verdict == UNBOUNDED
        assert cert.witness["stability"] == "saddle"
        assert cert.witness["jacobian_determinant"] == pytest.approx(0.3)
        assert any("user-supplied" in a for a in cert.assumptions)

    def test_nonvanishing_exponential_weight(self):
        u = lambda z: np.exp(z[0] + z[1])
        cert = saddle_certificate(HenonComposition((STANDARD,)), u, r_max=1,
                                  config=SearchConfig(starts=150, seed=11))
        assert cert.verdict == UNBOUNDED
        assert abs(cert.witness["u_r"]) > 0

    def test_weight_vanishing_on_diagonal_is_inapplicable(self):
        # u = x - y vanishes on every fixed point of a single factor
        u = PolyFunc(2, {(1, 0): 1, (0, 1): -1})
        cert = saddle_certificate(HenonComposition((STANDARD,)), u, r_max=1,
                                  config=SearchConfig(starts=150, seed=11))
        assert cert.verdict == INAPPLICABLE

    def test_exhausted_budget_reports_incomplete(self):
        # with no search budget nothing is found, and the verdict says so
        # honestly instead of claiming absence
        cert = saddle_certificate(HenonComposition((STANDARD, STANDARD)), None,
                                  r_max=2, config=SearchConfig(starts=0, seed=5))
        assert cert.verdict == NO_OBSTRUCTION
        assert cert.witness["orbits_found"] == 0
        assert cert.assumptions == (ASSUME_GRADED_IMAGE, ASSUME_CONTINUOUS_INCLUSION,
                                    ASSUME_REDUCTION_SUPPLIED)
        assert cert.tolerances == {"tol_class": dynamics.TOL_CLASS,
                                   "tol_weight": TOL_WEIGHT,
                                   "tol_orbit": dynamics.TOL_ORBIT}

    def test_witness_is_certify_bounded_over_every_orbit(self):
        # the two fixed saddles have largest |multiplier| 2.27 and 4.94, and
        # the 2-cycle 5.82: the witness is the cycle, past the first period
        # that gives Unbounded
        comp, config = HenonComposition((STANDARD,)), SearchConfig(150, 11)
        fm = to_polymap(comp)
        orbits = dynamics.periodic_orbits(fm, 2, config)[0]
        assert [orbit.period for orbit in orbits] == [1, 1, 2, 2]
        want = certify_bounded(fm, None, *orbits)
        cert = saddle_certificate(comp, None, r_max=2, config=config)
        assert cert == _factor_certificate(want, comp)
        assert cert.witness["abs_eigenvalue"] == pytest.approx(5.82, abs=0.01)
        assert cert.witness["period"] == 2
        assert cert.witness["stability"] == "saddle"

    def test_caller_config_at_every_period(self, monkeypatch):
        # every period runs, past one that gives Unbounded too, all in one
        # lockstep search
        calls, runs = [], []
        search = dynamics._newton_lockstep

        def counting(f, periods, config):
            runs.append(tuple(periods))
            calls.extend((r, config) for r in sorted(periods))
            return search(f, periods, config)

        monkeypatch.setattr(dynamics, "_newton_lockstep", counting)
        config = SearchConfig(starts=40, seed=4)
        for u, verdict in ((PolyFunc(2, {}), INAPPLICABLE), (None, UNBOUNDED)):
            calls.clear(), runs.clear()
            cert = saddle_certificate(HenonComposition((STANDARD,)), u,
                                      r_max=3, config=config)
            assert runs == [(3, 2, 1)]  # the patch ran, once
            assert cert.verdict == verdict
            assert calls == [(1, config), (2, config), (3, config)]

    def test_factor_fields(self):
        factors = (STANDARD, GeneralizedHenon((1, 0, 1), -0.5))
        cert = saddle_certificate(HenonComposition(factors), None, r_max=1,
                                  config=SearchConfig(starts=100, seed=2))
        assert cert.witness["henon_factors"] == 2
        assert cert.witness["jacobian_determinant"] == pytest.approx(-0.15)
        assert cert.assumptions[-1] == ASSUME_REDUCTION_SUPPLIED
        assert "searched_period" not in cert.witness

    def test_parabolic_fixed_point_does_not_crash(self):
        # p = y^2, delta = -1 has a double fixed point at the origin with
        # multipliers exactly +-1; the Newton-located point carries O(1e-6)
        # error, so the verdict here is numerically marginal by nature
        h = GeneralizedHenon((0, 0, 1), -1)
        cert = saddle_certificate(HenonComposition((h,)), None, r_max=1,
                                  config=SearchConfig(starts=100, seed=5))
        assert cert.verdict in (NO_OBSTRUCTION, UNBOUNDED)
        if cert.verdict == UNBOUNDED:
            # any reported expansion is within root-finding noise of 1
            assert abs(cert.witness["abs_eigenvalue"] - 1) < 1e-4
