"""Certificates, the affine dichotomy, growth diagnostics, and duality."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from holorigid.dynamics import (
    AllPoints,
    PolyFunc,
    PolyMap,
    cocycle_poly,
    iterate,
    make_orbit,
    periodic_points_1d,
)
from holorigid.errors import OrbitError, OrderUndeterminedError, PreconditionError
from holorigid.jets import Jet
from holorigid.rigidity import (
    ASSUME_DIM_GE_1,
    ASSUME_DIM_GE_2,
    ASSUME_EVALUATIONS_INDEPENDENT,
    ASSUME_GRADED_IMAGE,
    INAPPLICABLE,
    NO_OBSTRUCTION,
    NON_COMPACT,
    NOT_CYCLIC,
    NOT_HYPERCYCLIC,
    NOT_SUPERCYCLIC,
    UNBOUNDED,
    affine_verdict_1d,
    certify_bounded,
    certify_compact,
    certify_cyclic,
    certify_hypercyclic,
    certify_supercyclic,
    duality_check,
    growth_diagnostic_1d,
)

SQUARE = PolyMap.from_coeffs_1d([0, 0, 1])
HALF = PolyMap.from_coeffs_1d([0, 0.5])
DOUBLE = PolyMap.from_coeffs_1d([0, 2])
COUNTEREXAMPLE_MAP = PolyMap.from_coeffs_1d([0.5, 1, 0.5])  # (z+1)^2 / 2


def gaussian_weight(z):
    return np.exp(z[0] ** 2 / 2)


class TestBounded:
    def test_square_is_obstructed_at_one(self):
        cert = certify_bounded(SQUARE, None, make_orbit(SQUARE, [1], 1))
        assert cert.verdict == UNBOUNDED
        assert cert.witness["eigenvalue"] == pytest.approx(2 + 0j)
        assert cert.witness["point"] == pytest.approx([1 + 0j])
        assert abs(cert.witness["u_r"]) > cert.tolerances["tol_weight"]
        assert ASSUME_GRADED_IMAGE in cert.assumptions

    def test_contraction_has_no_obstruction(self):
        cert = certify_bounded(HALF, None, make_orbit(HALF, [0], 1))
        assert cert.verdict == NO_OBSTRUCTION

    def test_conditional_on_graded_image(self):
        # the rank-one space spanned by e^-z shows the graded-image
        # hypothesis cannot be dropped: there uC_f is bounded even though
        # |f'(i)| = sqrt(2) > 1, and the certificate says so explicitly
        orbit = make_orbit(COUNTEREXAMPLE_MAP, [1j], 1, gaussian_weight)
        cert = certify_bounded(COUNTEREXAMPLE_MAP, gaussian_weight, orbit)
        assert cert.verdict == UNBOUNDED
        assert cert.witness["eigenvalue"] == pytest.approx(1 + 1j)
        assert cert.witness["u_r"] == pytest.approx(np.exp(-0.5))
        assert any("graded image" in a for a in cert.assumptions)

    def test_vanishing_cocycle_is_inapplicable(self):
        u = PolyFunc(1, {(1,): 1})  # u = z vanishes at the fixed point 0
        cert = certify_bounded(HALF, u, make_orbit(HALF, [0], 1, u))
        assert cert.verdict == INAPPLICABLE
        assert "growth" in cert.witness["note"]

    def test_unverified_orbit_rejected(self):
        orbit = make_orbit(SQUARE, [1], 1)
        other = PolyMap.from_coeffs_1d([0.3, 0.4])
        with pytest.raises(OrbitError):
            certify_bounded(other, None, orbit)

    def test_nan_orbit_rejected(self):
        orbit = replace(make_orbit(SQUARE, [1], 1), points=((complex("nan"),),))
        with pytest.raises(OrbitError), np.errstate(invalid="ignore"):
            certify_bounded(SQUARE, None, orbit)


class TestCompact:
    def test_rotation_is_non_compact(self):
        rot = PolyMap.from_coeffs_1d([0, np.exp(0.77j)])
        cert = certify_compact(rot, None, make_orbit(rot, [0], 1))
        assert cert.verdict == NON_COMPACT
        assert cert.witness["abs_eigenvalue"] == pytest.approx(1.0)

    def test_contraction_consistent_with_compactness(self):
        cert = certify_compact(HALF, None, make_orbit(HALF, [0], 1))
        assert cert.verdict == NO_OBSTRUCTION

    def test_expanding_map_fails_both(self):
        orbit = make_orbit(SQUARE, [1], 1)
        assert certify_bounded(SQUARE, None, orbit).verdict == UNBOUNDED
        compact = certify_compact(SQUARE, None, orbit)
        assert compact.verdict == NON_COMPACT
        assert compact.witness["abs_eigenvalue"] == pytest.approx(2.0)

    def test_monotonicity_compact_clear_implies_bounded_clear(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            lam = complex(rng.normal(), rng.normal())
            f = PolyMap.from_coeffs_1d([0, lam])
            orbit = make_orbit(f, [0], 1)
            if certify_compact(f, None, orbit).verdict == NO_OBSTRUCTION:
                assert certify_bounded(f, None, orbit).verdict == NO_OBSTRUCTION

    def test_witness_soundness_on_random_instances(self):
        # every obstruction verdict must expose the inequality it relies on
        rng = np.random.default_rng(22)
        for _ in range(40):
            lam = complex(rng.normal(), rng.normal())
            u_val = complex(rng.normal(), rng.normal()) * (rng.integers(0, 2))
            f = PolyMap.from_coeffs_1d([0, lam])
            u = PolyFunc(1, {(0,): u_val, (1,): 0.3})
            orbit = make_orbit(f, [0], 1, u)
            for certify in (certify_bounded, certify_compact):
                cert = certify(f, u, orbit)
                if cert.verdict == UNBOUNDED:
                    assert abs(cert.witness["eigenvalue"]) > 1
                    assert abs(cert.witness["u_r"]) > cert.tolerances["tol_weight"]
                elif cert.verdict == NON_COMPACT:
                    assert abs(cert.witness["eigenvalue"]) >= \
                        1 - cert.tolerances["tol_class"]
                    assert abs(cert.witness["u_r"]) > cert.tolerances["tol_weight"]
                elif cert.verdict == INAPPLICABLE:
                    assert abs(cert.witness["u_r"]) <= cert.tolerances["tol_weight"]


class TestIterationConsistency:
    def test_period_two_orbit_matches_iterated_fixed_point(self):
        # orbit {w, w^2} of z^2 through a primitive cube root of unity vs
        # the fixed point of z^4 with weight u_2
        w = np.exp(2j * np.pi / 3)
        u = PolyFunc(1, {(0,): 1.5, (1,): 0.5})
        orbit = make_orbit(SQUARE, [w], 2, u)
        cert_orbit = certify_bounded(SQUARE, u, orbit)
        g = iterate(SQUARE, 2)
        v = cocycle_poly(u, SQUARE, 2)
        cert_fixed = certify_bounded(g, v, make_orbit(g, [w], 1, v))
        assert cert_orbit.verdict == cert_fixed.verdict == UNBOUNDED
        assert cert_orbit.witness["eigenvalue"] == pytest.approx(
            cert_fixed.witness["eigenvalue"])
        assert cert_orbit.witness["u_r"] == pytest.approx(
            cert_fixed.witness["u_r"])


class TestHypercyclic:
    def test_square_has_periodic_points(self):
        orbits = [make_orbit(SQUARE, [0], 1)]
        cert = certify_hypercyclic(orbits)
        assert cert.verdict == NOT_HYPERCYCLIC
        assert cert.assumptions == (ASSUME_DIM_GE_1,)
        sup = certify_supercyclic(orbits)
        assert sup.verdict == NOT_SUPERCYCLIC
        assert sup.assumptions == (ASSUME_DIM_GE_2,)

    def test_translation_shows_no_obstruction(self):
        # z + 1 has no periodic points, so a complete search finds none
        cert = certify_hypercyclic([], search_complete=True)
        assert cert.verdict == NO_OBSTRUCTION
        assert cert.witness["search_complete"]

    def test_affine_with_fixed_point(self):
        f = PolyMap.from_coeffs_1d([1, 0.5])  # fixed point b/(1-a) = 2
        orbit = make_orbit(f, [2], 1)
        cert = certify_hypercyclic([orbit])
        assert cert.verdict == NOT_HYPERCYCLIC
        assert cert.witness["point"] == pytest.approx([2 + 0j])

    def test_incomplete_search_is_flagged(self):
        cert = certify_hypercyclic([], search_complete=False)
        assert cert.verdict == NO_OBSTRUCTION
        assert "not a proof of absence" in cert.witness["note"]


class TestCyclic:
    def test_square_period_two_level_one(self):
        cert = certify_cyclic(SQUARE, None, 2)
        assert cert.verdict == NOT_CYCLIC
        assert cert.witness["lambda"] == pytest.approx(1 + 0j)
        assert cert.witness["count"] == 4
        assert ASSUME_EVALUATIONS_INDEPENDENT in cert.assumptions

    def test_count_is_recomputable_from_witness(self):
        cert = certify_cyclic(SQUARE, None, 2)
        assert len(cert.witness["level_points"]) == cert.witness["count"]

    def test_translation_no_periodic_points(self):
        cert = certify_cyclic(PolyMap.from_coeffs_1d([1, 1]), None, 4)
        assert cert.verdict == NO_OBSTRUCTION
        assert cert.witness["points_found"] == 0

    def test_negation_all_points_sentinel(self):
        cert = certify_cyclic(PolyMap.from_coeffs_1d([0, -1]), None, 2)
        assert cert.verdict == NOT_CYCLIC
        assert cert.witness["count_infinite"]

    def test_all_points_with_nonconstant_polynomial_weight(self):
        u = PolyFunc(1, {(2,): 1.0, (0,): 0.5})
        cert = certify_cyclic(PolyMap.from_coeffs_1d([0, -1]), u, 2)
        # u_2(z) = u(z) u(-z) has degree 4 > 2: generic levels have 4 points
        assert cert.verdict == NOT_CYCLIC
        assert cert.witness["count"] == 4

    def test_all_points_with_opaque_weight_is_honest(self):
        cert = certify_cyclic(PolyMap.from_coeffs_1d([0, -1]),
                              lambda z: np.exp(z[0]), 2)
        assert cert.verdict == NO_OBSTRUCTION
        assert "cannot be enumerated" in cert.witness["note"]

    def test_explicit_levels(self):
        cert = certify_cyclic(SQUARE, None, 2, lambda_levels=[1.0, 5.0])
        assert cert.witness["levels"][1]["count"] == 0
        assert cert.verdict == NOT_CYCLIC

    def test_external_points_for_2d_symbol(self):
        henon = PolyMap(2, ({(0, 1): 1}, {(0, 2): 1, (0, 0): -3, (1, 0): -0.3}))
        pts = [np.array([2.5, 2.5]), np.array([-1.2, -1.2])]
        cert = certify_cyclic(henon, None, 1, points=pts)
        assert cert.verdict == NOT_CYCLIC  # both sit on the level u_1 = 1 > r
        assert cert.witness["count"] == 2

    def test_2d_without_points_rejected(self):
        henon = PolyMap(2, ({(0, 1): 1}, {(0, 2): 1, (1, 0): -0.3}))
        with pytest.raises(PreconditionError):
            certify_cyclic(henon, None, 1)


def _first_repelling_reference(f, r_max):
    """Reference scan: for r = 1..r_max, every point of period dividing r,
    tested at the declared r; the first repelling orbit and its r."""
    for r in range(1, r_max + 1):
        pts = periodic_points_1d(f, r)
        if isinstance(pts, AllPoints):
            continue
        for z in pts:
            orbit = make_orbit(f, [z], r)
            if orbit.stability == "repelling":
                return orbit, r
    return None, r_max


class TestAffineVerdict:
    @pytest.mark.parametrize("coeffs", [[0, 0, 1], [-1, 0, 1], [1j, 0, 1],
                                        [0.1, -0.5, 0.3j, 1]],
                             ids=["z2", "z2-1", "z2+i", "cubic"])
    def test_witness_matches_the_reference_scan(self, coeffs):
        f = PolyMap.from_coeffs_1d(coeffs)
        verdict = affine_verdict_1d(f, r_max=4)
        assert (verdict.witness, verdict.searched_r) == \
            _first_repelling_reference(f, 4)

    def test_square_yields_repelling_witness(self):
        verdict = affine_verdict_1d(SQUARE)
        assert not verdict.affine and verdict.obstructed
        assert verdict.witness.points == ((1 + 0j,),)
        assert abs(verdict.witness.multipliers[0]) > 1

    def test_gentle_affine_is_consistent(self):
        verdict = affine_verdict_1d(PolyMap.from_coeffs_1d([1, 0.5]))
        assert verdict.affine and not verdict.obstructed

    def test_expanding_affine(self):
        verdict = affine_verdict_1d(DOUBLE)
        assert verdict.affine and verdict.obstructed
        assert verdict.witness.points == ((0j,),)
        assert verdict.a == pytest.approx(2.0)


class TestGrowthDiagnostic:
    def test_simple_zero_with_expansion(self):
        u = Jet.monomial(1, 6, (0j,), (1,))
        diag = growth_diagnostic_1d(DOUBLE, u, 0)
        assert diag.m == 1
        assert diag.quad_coeff == pytest.approx(np.log(2) / 2)
        assert diag.obstruction

    def test_nonvanishing_weight_defers(self):
        u = Jet.constant(1, 6, (0j,), 1.0)
        diag = growth_diagnostic_1d(DOUBLE, u, 0)
        assert diag.defer_to_bounded and not diag.obstruction

    def test_double_zero_with_contraction(self):
        u = Jet.monomial(1, 6, (0j,), (2,))
        diag = growth_diagnostic_1d(HALF, u, 0)
        assert diag.quad_coeff == pytest.approx(-np.log(2))
        assert not diag.obstruction

    def test_zero_jet_is_undetermined(self):
        u = Jet.zero(1, 6, (0j,))
        with pytest.raises(OrderUndeterminedError, match="order undetermined"):
            growth_diagnostic_1d(DOUBLE, u, 0)

    def test_non_fixed_point_rejected(self):
        u = Jet.monomial(1, 6, (0.5 + 0j,), (1,))
        with pytest.raises(OrbitError):
            growth_diagnostic_1d(DOUBLE, u, 0.5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf is NaN
    @pytest.mark.parametrize("p", [float("nan"), complex("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_point_rejected(self, p):
        u = Jet(1, 4, (0j,), {(1,): 1})
        with pytest.raises(OrbitError):
            growth_diagnostic_1d(DOUBLE, u, p)


def random_conditioned_basis(rng, rows, cols, max_cond=1e6):
    """Random basis matrix with controlled condition number."""
    q1, _ = np.linalg.qr(rng.normal(size=(rows, cols))
                         + 1j * rng.normal(size=(rows, cols)))
    q2, _ = np.linalg.qr(rng.normal(size=(cols, cols))
                         + 1j * rng.normal(size=(cols, cols)))
    lo = 1.0 / np.sqrt(max_cond)
    hi = np.sqrt(max_cond)
    sing = np.exp(rng.uniform(np.log(lo), np.log(hi), size=cols))
    return q1 @ np.diag(sing) @ q2


class TestDuality:
    def test_full_space_always_true(self):
        rng = np.random.default_rng(1)
        l_mat = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        flags = duality_check(l_mat, np.eye(5))
        assert flags == (True, True)

    def test_zero_map_always_true(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        assert duality_check(np.zeros((5, 4)), b) == (True, True)

    def test_flags_agree_on_random_instances(self):
        rng = np.random.default_rng(3)
        for k in range(100):
            rows = int(rng.integers(2, 8))
            cols = int(rng.integers(1, 6))
            width = int(rng.integers(1, rows + 1))
            b = random_conditioned_basis(rng, rows, width)
            if k % 2 == 0:
                coeff = rng.normal(size=(width, cols)) \
                    + 1j * rng.normal(size=(width, cols))
                l_mat = b @ coeff
            else:
                l_mat = rng.normal(size=(rows, cols)) \
                    + 1j * rng.normal(size=(rows, cols))
            flags = duality_check(l_mat, b)
            assert flags.image_cond == flags.kernel_cond

    def test_factorial_pairing_weights(self):
        rng = np.random.default_rng(4)
        # degree-2 jets in two variables: three monomials
        for k in range(20):
            b = random_conditioned_basis(rng, 3, int(rng.integers(1, 4)))
            if k % 2 == 0:
                l_mat = b @ (rng.normal(size=(b.shape[1], 3))
                             + 1j * rng.normal(size=(b.shape[1], 3)))
            else:
                l_mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            flags = duality_check(l_mat, b, d=2, n=2)
            assert flags.image_cond == flags.kernel_cond

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            duality_check(np.zeros((4, 2)), np.zeros((5, 2)))
