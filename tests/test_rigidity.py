"""Certificates, the one-variable dichotomy, and duality."""

from __future__ import annotations

from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as P
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holorigid import dynamics, rigidity
from holorigid.dynamics import (
    PeriodicOrbit,
    PolyFunc,
    PolyMap,
    cocycle_poly,
    first_near_best,
    iterate,
    make_orbit,
    orbits_of_period,
    periodic_orbits,
)
from holorigid.errors import OrbitError, PreconditionError
from holorigid.henon import to_polymap
from holorigid.rigidity import (
    ASSUME_CONTINUOUS_INCLUSION,
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
    ObstructionCertificate,
    certify_bounded,
    certify_compact,
    certify_cyclic,
    certify_hypercyclic,
    certify_supercyclic,
    duality_check,
)
from holorigid.serialize import encode, load_henon, load_polymap, read_json

SQUARE = PolyMap.from_coeffs_1d([0, 0, 1])
HALF = PolyMap.from_coeffs_1d([0, 0.5])
COUNTEREXAMPLE_MAP = PolyMap.from_coeffs_1d([0.5, 1, 0.5])  # (z+1)^2 / 2
BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


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
        orbit = make_orbit(COUNTEREXAMPLE_MAP, [1j], 1)
        cert = certify_bounded(COUNTEREXAMPLE_MAP, gaussian_weight, orbit)
        assert cert.verdict == UNBOUNDED
        assert cert.witness["eigenvalue"] == pytest.approx(1 + 1j)
        assert cert.witness["u_r"] == pytest.approx(np.exp(-0.5))
        assert any("graded image" in a for a in cert.assumptions)

    def test_vanishing_cocycle_is_inapplicable(self):
        u = PolyFunc(1, {(1,): 1})  # u = z vanishes at the fixed point 0
        cert = certify_bounded(HALF, u, make_orbit(HALF, [0], 1))
        assert cert.verdict == INAPPLICABLE
        assert cert.witness["note"] == ("weight cocycle vanishes on the orbit; "
                                        "the eigenvalue bound does not apply")

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
            orbit = make_orbit(f, [0], 1)
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
        orbit = make_orbit(SQUARE, [w], 2)
        cert_orbit = certify_bounded(SQUARE, u, orbit)
        g = iterate(SQUARE, 2)
        v = cocycle_poly(u, SQUARE, 2)
        cert_fixed = certify_bounded(g, v, make_orbit(g, [w], 1))
        assert cert_orbit.verdict == cert_fixed.verdict == UNBOUNDED
        assert cert_orbit.witness["eigenvalue"] == pytest.approx(
            cert_fixed.witness["eigenvalue"])
        assert cert_orbit.witness["u_r"] == pytest.approx(
            cert_fixed.witness["u_r"])


def _strongest_reference(certs, obstructed):
    """The witness rule as it stood when every orbit had its own
    certificate: the first of the strongest verdict within rounding of the
    largest |eigenvalue|, else the first Inapplicable, else the first.
    No orbit at all prints the tolerances and assumptions of any other."""
    if not certs:
        return ObstructionCertificate(
            NO_OBSTRUCTION,
            {"orbits_found": 0, "note": "no periodic orbits available to test"},
            (ASSUME_GRADED_IMAGE, ASSUME_CONTINUOUS_INCLUSION),
            rigidity._multiplier_tolerances())
    for verdict in (obstructed, INAPPLICABLE):
        hits = [c for c in certs if c.verdict == verdict]
        if hits:
            moduli = [abs(c.witness.get("eigenvalue", 0)) for c in hits]
            return hits[first_near_best(np.nan_to_num(moduli))]
    return certs[0]


def _all_orbits(f, r_max):
    return periodic_orbits(f, r_max)[0]


Z2_MINUS_1 = PolyMap.from_coeffs_1d([-1, 0, 1])
EVERY_CERTIFICATE = pytest.mark.parametrize("certify", [
    lambda f, orbits: certify_bounded(f, None, *orbits),
    lambda f, orbits: certify_compact(f, None, *orbits),
    lambda f, orbits: certify_hypercyclic(f, orbits),
    lambda f, orbits: certify_supercyclic(f, orbits),
    lambda f, orbits: certify_cyclic(f, None, 2, *orbits),
], ids=["bounded", "compact", "hypercyclic", "supercyclic", "cyclic"])


def _cited_first():
    """The orbits of z^2 - 1 of period dividing 2, largest |multiplier|
    first: the four points lie on one level of u_2 = 1, so that every
    certificate of ``EVERY_CERTIFICATE`` cites the first."""
    return sorted(orbits_of_period(Z2_MINUS_1, 2)[0], key=lambda o: -abs(o.multipliers[0]))


def _encoded(cert):
    """The certificate as ``certify`` prints it: its fields, encoded."""
    return encode({field.name: getattr(cert, field.name) for field in fields(cert)})


class TestWitnessSelection:
    @pytest.mark.parametrize("certify, obstructed", [
        (certify_bounded, UNBOUNDED), (certify_compact, NON_COMPACT)])
    @pytest.mark.parametrize("f, u, r_max", [
        (Z2_MINUS_1, None, 6),
        # u = z + 1 vanishes on the 2-cycle {0, -1} only
        (Z2_MINUS_1, PolyFunc(1, {(0,): 1, (1,): 1}), 6),
        # u = z - 1 vanishes at the repelling fixed point 1, the only
        # obstructing orbit of period 1, and on no period-3 orbit
        (SQUARE, PolyFunc(1, {(0,): -1, (1,): 1}), 1),
        (SQUARE, PolyFunc(1, {(0,): -1, (1,): 1}), 3),
    ], ids=["z2-1", "z2-1-vanishing-2-cycle", "z2-vanishing-r1",
            "z2-vanishing-r3"])
    def test_matches_strongest_of_the_per_orbit_certificates(
            self, certify, obstructed, f, u, r_max):
        orbits = _all_orbits(f, r_max)
        want = _strongest_reference([certify(f, u, o) for o in orbits],
                                    obstructed)
        assert _encoded(certify(f, u, *orbits)) == _encoded(want)

    def test_every_rule_is_reached(self):
        vanishing = PolyFunc(1, {(0,): -1, (1,): 1})
        assert certify_bounded(SQUARE, vanishing,
                               *_all_orbits(SQUARE, 1)).verdict == INAPPLICABLE
        assert certify_bounded(HALF, None,
                               *_all_orbits(HALF, 2)).verdict == NO_OBSTRUCTION
        assert certify_compact(SQUARE, vanishing,
                               *_all_orbits(SQUARE, 3)).verdict == NON_COMPACT

    @pytest.mark.parametrize("certify", [certify_bounded, certify_compact])
    def test_no_orbits(self, certify):
        want = _strongest_reference([], UNBOUNDED)
        assert certify(HALF, None) == want
        assert certify(SQUARE, None) == replace(want, witness={
            **want.witness, "higher_period": rigidity.HIGHER_PERIOD})

    @pytest.mark.parametrize("certify", [certify_bounded, certify_compact])
    def test_one_verification_per_certificate(self, certify, monkeypatch):
        walked = []
        walk = dynamics._closed_walk

        def counting(f, p, r):
            walked.append(p)
            return walk(f, p, r)

        orbits = _all_orbits(Z2_MINUS_1, 6)
        assert len(orbits) > 20
        monkeypatch.setattr(dynamics, "_closed_walk", counting)
        cert = certify(Z2_MINUS_1, None, *orbits)
        assert len(walked) == 1
        assert walked[0] == tuple(cert.witness["point"])

    def test_an_unverified_witness_is_rejected_among_good_orbits(self):
        good = make_orbit(SQUARE, [1], 1)
        bad = replace(good, points=((complex("nan"),),))
        with pytest.raises(OrbitError), np.errstate(invalid="ignore"):
            certify_bounded(SQUARE, None, make_orbit(SQUARE, [0], 1), bad)


class TestHypercyclic:
    def test_square_has_periodic_points(self):
        orbits = [make_orbit(SQUARE, [0], 1)]
        cert = certify_hypercyclic(SQUARE, orbits)
        assert cert.verdict == NOT_HYPERCYCLIC
        assert cert.assumptions == (ASSUME_DIM_GE_1,)
        sup = certify_supercyclic(SQUARE, orbits)
        assert sup.verdict == NOT_SUPERCYCLIC
        assert sup.assumptions == (ASSUME_DIM_GE_2,)

    def test_translation_shows_no_obstruction(self):
        # z + 1 has no periodic points, so a complete search finds none
        cert = certify_hypercyclic(PolyMap.from_coeffs_1d([1, 1]), [],
                                   search_complete=True)
        assert cert.verdict == NO_OBSTRUCTION
        assert cert.witness["search_complete"]

    def test_affine_with_fixed_point(self):
        f = PolyMap.from_coeffs_1d([1, 0.5])  # fixed point b/(1-a) = 2
        orbit = make_orbit(f, [2], 1)
        cert = certify_hypercyclic(f, [orbit])
        assert cert.verdict == NOT_HYPERCYCLIC
        assert cert.witness["point"] == pytest.approx([2 + 0j])

    def test_incomplete_search_is_flagged(self):
        cert = certify_hypercyclic(SQUARE, [], search_complete=False)
        assert cert.verdict == NO_OBSTRUCTION
        assert "not a proof of absence" in cert.witness["note"]

    @pytest.mark.parametrize("certify", [certify_hypercyclic, certify_supercyclic])
    def test_a_hand_built_orbit_that_does_not_close_is_rejected(self, certify):
        # 0.3 is no fixed point of z^2: the certificate walks it and refuses
        fake = PeriodicOrbit(((0.3 + 0j,),), (0.6 + 0j,), 0.0)
        with pytest.raises(OrbitError, match=r"f\^1\(p\) - p has residual"):
            certify(SQUARE, [fake])


SCALED_COMPLEX = st.builds(lambda re, im, e: complex(re, im) * 10.0 ** e,
                           st.floats(-2, 2), st.floats(-2, 2), st.integers(-2, 2))


def _orbits(f, r):
    return orbits_of_period(f, r)[0]


class TestCyclic:
    def test_square_period_two_level_one(self):
        cert = certify_cyclic(SQUARE, None, 2, *_orbits(SQUARE, 2))
        assert cert.verdict == NOT_CYCLIC
        assert cert.witness["lambda"] == pytest.approx(1 + 0j)
        assert cert.witness["count"] == 4
        assert ASSUME_EVALUATIONS_INDEPENDENT in cert.assumptions

    def test_count_is_recomputable_from_witness(self):
        cert = certify_cyclic(SQUARE, None, 2, *_orbits(SQUARE, 2))
        assert len(cert.witness["level_points"]) == cert.witness["count"]

    def test_translation_no_periodic_points(self):
        f = PolyMap.from_coeffs_1d([1, 1])
        cert = certify_cyclic(f, None, 4, *_orbits(f, 4))
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

    def test_generic_count_names_no_level(self):
        # u = (z - G)^2 at the generic point G: its level u(G) = 0 holds G
        # alone, not the 2 points of a generic level
        g = dynamics.GENERIC_POINT
        u = PolyFunc(1, {(2,): 1.0, (1,): -2 * g, (0,): g * g})
        cert = certify_cyclic(PolyMap.from_coeffs_1d([0, 1]), u, 1)
        assert cert.verdict == NOT_CYCLIC and cert.witness["count"] == 2
        assert "lambda" not in cert.witness

    @given(a=st.sampled_from([1 + 0j, -1 + 0j, 1j, -1j]),
           b=SCALED_COMPLEX, k=st.integers(1, 3),
           lower=st.lists(SCALED_COMPLEX, min_size=1, max_size=3),
           lead=st.builds(complex, st.floats(0.5, 2), st.floats(-2, 2)),
           scale=st.integers(-2, 2))
    @settings(max_examples=100, deadline=None)
    def test_all_points_count_is_the_cocycle_degree(self, a, b, k, lower, lead,
                                                    scale):
        # coefficients of unlike sizes put distinct points of a level close
        f = PolyMap.from_coeffs_1d([0 if a == 1 else b, a])
        r = k * {1: 1, -1: 2}.get(a, 4)  # f^r is the identity
        u = PolyFunc(1, {(j,): c for j, c in
                         enumerate(lower + [lead * 10.0 ** scale])})
        cert = certify_cyclic(f, u, r)
        count = cocycle_poly(u, f, r).degree
        assert cert.witness["count"] == count
        assert cert.verdict == (NOT_CYCLIC if count > r else NO_OBSTRUCTION)

    def test_all_points_with_opaque_weight_is_honest(self):
        cert = certify_cyclic(PolyMap.from_coeffs_1d([0, -1]),
                              lambda z: np.exp(z[0]), 2)
        assert cert.verdict == NO_OBSTRUCTION
        assert "cannot be enumerated" in cert.witness["note"]

    def test_explicit_levels(self):
        cert = certify_cyclic(SQUARE, None, 2, *_orbits(SQUARE, 2),
                              lambda_levels=[1.0, 5.0])
        assert cert.witness["levels"][1]["count"] == 0
        assert cert.verdict == NOT_CYCLIC

    def test_external_points_for_2d_symbol(self):
        henon = PolyMap(2, ({(0, 1): 1}, {(0, 2): 1, (0, 0): -3, (1, 0): -0.3}))
        pts = [np.array([2.5, 2.5]), np.array([-1.2, -1.2])]
        cert = certify_cyclic(henon, None, 1, *(make_orbit(henon, p, 1) for p in pts))
        assert cert.verdict == NOT_CYCLIC  # both sit on the level u_1 = 1 > r
        assert cert.witness["count"] == 2

    def test_supplied_points_are_walked_once(self, monkeypatch):
        # 0 and the seventh roots of unity have period dividing 3 under z^2
        pts = [[0j]] + [[np.exp(2j * np.pi * k / 7)] for k in range(7)]
        u = PolyFunc(1, {(0,): 2, (1,): 1})
        want = [dynamics.weight_cocycle(u, dynamics.orbit_points(SQUARE, p, 3))
                for p in pts]
        calls, call = [], PolyMap.__call__
        monkeypatch.setattr(PolyMap, "__call__",
                            lambda f, z: calls.append(z) or call(f, z))
        orbits = [make_orbit(SQUARE, p, 3) for p in pts]
        cert = certify_cyclic(SQUARE, u, 3, *orbits)
        assert len(calls) == 3 * len(pts)
        levels = cert.witness["levels"]
        assert all(level["lambda"] in want for level in levels)  # bit for bit
        assert sorted(level["count"] for level in levels) == [1, 1, 3, 3]

    def test_external_points_must_be_periodic(self):
        # none of these is fixed by z^2, so no level count may rest on them
        with pytest.raises(OrbitError, match=r"^f\^1\(p\) - p has residual"):
            certify_cyclic(SQUARE, None, 1, *(make_orbit(SQUARE, p, 1)
                                              for p in [[0.3], [0.5], [0.7]]))

    def test_a_hand_built_witness_is_walked(self):
        # three "fixed points" of z^2 that are not: the level they would
        # crowd is the witness, and its orbits are walked before it is
        fake = [PeriodicOrbit(((x + 0j,),), (2 * x + 0j,), 0.0)
                for x in (0.3, 0.5, 0.7)]
        with pytest.raises(OrbitError, match=r"^f\^1\(p\) - p has residual"):
            certify_cyclic(SQUARE, None, 1, *fake)

    @pytest.mark.parametrize("r", [0, 4])
    def test_orbit_period_must_divide_r(self, r):
        # the period-3 orbit of z^2 through e^(2 pi i / 7) has no u_4
        orbit = make_orbit(SQUARE, [np.exp(2j * np.pi / 7)], 3)
        with pytest.raises(PreconditionError, match="period dividing r"):
            certify_cyclic(SQUARE, None, r, orbit)


class TestHigherPeriod:
    """In one variable at degree >= 2 an obstructing cycle always exists, so
    a certificate that found none says so; an affine map az + b obstructs
    exactly when its fixed point's multiplier a is past the band."""

    @pytest.mark.parametrize("certify", [certify_bounded, certify_compact])
    @pytest.mark.parametrize("f, u, r_max, want", [
        # u = z^2 - z - 1 vanishes at both fixed points of z^2 - 1
        (Z2_MINUS_1, PolyFunc(1, {(0,): -1, (1,): -1, (2,): 1}), 1,
         INAPPLICABLE),
        # z^2 + 1/4 has one parabolic fixed point, multiplier 1
        (PolyMap.from_coeffs_1d([0.25, 0, 1]), None, 1, None),
    ], ids=["vanishing-weight", "parabolic"])
    def test_a_search_that_misses_says_so(self, certify, f, u, r_max, want):
        cert = certify(f, u, *_all_orbits(f, r_max))
        if want is None:  # the parabolic point obstructs compactness only
            want = NO_OBSTRUCTION if certify is certify_bounded else NON_COMPACT
        assert cert.verdict == want
        assert ("higher_period" in cert.witness) is (want != NON_COMPACT)
        if want != NON_COMPACT:
            assert cert.witness["higher_period"] == rigidity.HIGHER_PERIOD

    @pytest.mark.parametrize("coeffs, want", [
        ([0, 2], UNBOUNDED), ([1, 0.5], NO_OBSTRUCTION),
        ([0, -1.5j], UNBOUNDED), ([3, np.exp(0.3j)], NO_OBSTRUCTION),
    ], ids=["2z", "z/2+1", "-1.5iz", "rotation"])
    def test_affine_obstructs_past_the_band(self, coeffs, want):
        f = PolyMap.from_coeffs_1d(coeffs)
        cert = certify_bounded(f, None, *_all_orbits(f, 3))
        a, b = coeffs[1], coeffs[0]
        assert cert.verdict == want and "higher_period" not in cert.witness
        assert cert.witness["point"] == pytest.approx([b / (1 - a)])
        if want == UNBOUNDED:
            assert cert.witness["eigenvalue"] == pytest.approx(a)

    def test_two_variables_never_claim_it(self):
        f = PolyMap(2, ({(2, 0): 1}, {(0, 1): 0.5}))
        cert = certify_bounded(f, PolyFunc(2, {(1, 0): 1}),
                               make_orbit(f, [0, 0], 1))
        assert cert.verdict == INAPPLICABLE
        assert "higher_period" not in cert.witness


class TestOneRulePerOrbitFact:
    """Closure, the multiplier moduli and whether a cited orbit is f's are
    each decided by one rule in ``dynamics``; patching the rule moves every
    decision that reads it."""

    def test_closure_predicate(self, monkeypatch):
        orbit = PeriodicOrbit(points=((1 + 0j,),), multipliers=(2 + 0j,),
                              residual=0.0)
        monkeypatch.setattr(dynamics, "_closes", lambda residual, size: False)
        for call in (lambda: make_orbit(SQUARE, [1], 1),
                     lambda: dynamics.multipliers(SQUARE, [1], 1),
                     lambda: certify_bounded(SQUARE, None, orbit)):
            with pytest.raises(OrbitError,
                               match=r"^f\^1\(p\) - p has residual 0\.000e\+00$"):
                call()

    @EVERY_CERTIFICATE
    def test_orbit_check(self, monkeypatch, certify):
        orbits = _cited_first()
        assert certify(Z2_MINUS_1, orbits).verdict != NO_OBSTRUCTION

        def refuse(f, orbit):
            raise OrbitError("refused")
        monkeypatch.setattr(dynamics, "check_orbit", refuse)
        with pytest.raises(OrbitError, match="^refused$"):
            certify(Z2_MINUS_1, orbits)

    @pytest.mark.parametrize("band, stability, bounded, compact", [
        ("above", "repelling", UNBOUNDED, NON_COMPACT),
        ("at", "indifferent", NO_OBSTRUCTION, NON_COMPACT),
        ("below", "attracting", NO_OBSTRUCTION, NO_OBSTRUCTION),
        (None, "inconclusive", NO_OBSTRUCTION, NO_OBSTRUCTION),
    ])
    def test_modulus_rule(self, monkeypatch, band, stability, bounded, compact):
        # the true moduli are 2 at the fixed point 1 of z^2 and 1/2 for HALF
        monkeypatch.setattr(dynamics, "_modulus_band", lambda m: band)
        orbit = make_orbit(SQUARE, [1], 1)
        assert dynamics.classify([0.5, 2.0]) == orbit.stability == stability
        assert certify_bounded(SQUARE, None, orbit).verdict == bounded
        assert certify_compact(SQUARE, None, orbit).verdict == compact
        assert certify_bounded(HALF, None, make_orbit(HALF, [0], 1)).verdict == bounded

    @pytest.mark.parametrize("name", ["henon_readme.json", "henon.json", "mix3.json"])
    def test_only_one_variable_lists_every_orbit_of_a_period(self, monkeypatch, name):
        # the multistart's list is never complete, so no search is started
        doc = read_json(BENCH_INPUTS / name)
        f = to_polymap(load_henon(doc)) if "factors" in doc else load_polymap(doc)

        def refuse(*args):
            raise AssertionError("the Newton multistart ran")
        monkeypatch.setattr(dynamics, "_newton_lockstep", refuse)
        with pytest.raises(PreconditionError, match=(
                r"^the cyclic obstruction counts every periodic point, and only "
                r"a one-variable polynomial has them all enumerated$")):
            orbits_of_period(f, 1)

    def test_modulus_bands_at_their_edges(self):
        # 1 + TOL_CLASS rounds up, so |m - 1| <= TOL_CLASS missed that one
        # modulus: it was neither indifferent nor past the bound, yet it
        # obstructed compactness
        tol = dynamics.TOL_CLASS
        lo, hi = 1.0 - tol, 1.0 + tol
        moduli = (tol / 2, np.nextafter(lo, 0.0), lo, hi, np.nextafter(hi, 2.0),
                  float("nan"))
        assert [dynamics._modulus_band(m) for m in moduli] == [
            "zero", "below", "at", "at", "above", None]
        f = PolyMap.from_coeffs_1d([0, hi])  # the fixed point 0 has multiplier hi
        orbit = make_orbit(f, [0], 1)
        assert orbit.multipliers == (hi,)
        assert dynamics.classify([hi]) == "indifferent"
        assert certify_compact(f, None, orbit).verdict == NON_COMPACT
        assert certify_bounded(f, None, orbit).verdict == NO_OBSTRUCTION


class TestCitedOrbits:
    """A certificate checks each orbit it cites with ``dynamics.check_orbit``
    on f and refuses one whose points or multipliers differ; its period and
    stability are read off those, so they cannot be forged apart."""

    def test_a_forged_multiplier_obstructs_nothing(self):
        # z/2 fixes 0 with multiplier 1/2: 5 would make it Unbounded
        forged = PeriodicOrbit(((0j,),), (5 + 0j,), 0.0)
        with pytest.raises(OrbitError, match=r"in its multipliers$"):
            certify_bounded(HALF, None, forged)

    def test_a_forged_period_is_not_printed(self):
        # a period is the number of points, so a forged one repeats a point
        forged = PeriodicOrbit(((0j,),) * 3, (0.125 + 0j,), 0.0)
        assert forged.period == 3
        with pytest.raises(OrbitError, match=r"in its points, multipliers$"):
            certify_hypercyclic(HALF, [forged])

    @EVERY_CERTIFICATE
    @pytest.mark.parametrize("field, value", [("multipliers", (5 + 0j,))])
    def test_every_certificate_refuses_a_forged_orbit(self, certify, field, value):
        orbits = _cited_first()
        assert orbits[0].period == 1 and orbits[0].stability == "repelling"
        assert certify(Z2_MINUS_1, orbits).verdict != NO_OBSTRUCTION
        forged = [replace(orbits[0], **{field: value}), *orbits[1:]]
        with pytest.raises(OrbitError, match=f"in its {field}$"):
            certify(Z2_MINUS_1, forged)

    @EVERY_CERTIFICATE
    def test_an_orbit_with_no_points_is_refused(self, certify):
        # check_orbit read points[0] (IndexError) and certify_cyclic took
        # r % period (ZeroDivisionError): the record refuses to be built
        with pytest.raises(OrbitError, match="^a periodic orbit holds at least one point$"):
            certify(Z2_MINUS_1, [*_cited_first(), PeriodicOrbit((), (), 0.0)])
        with pytest.raises(OrbitError, match="at least one point$"):
            certify(Z2_MINUS_1, [replace(_cited_first()[0], points=())])

    @pytest.mark.parametrize("field, value", [("period", 2), ("stability", "attracting")])
    def test_period_and_stability_cannot_be_forged(self, field, value):
        orbit = make_orbit(Z2_MINUS_1, [0], 2)
        assert [f.name for f in fields(PeriodicOrbit)] == [
            "points", "multipliers", "residual"]
        with pytest.raises(TypeError):
            replace(orbit, **{field: value})
        assert (orbit.period, orbit.stability) == (
            len(orbit.points), dynamics.classify(orbit.multipliers))

    def test_forged_points_of_a_cycle(self):
        cycle = make_orbit(Z2_MINUS_1, [0], 2)
        assert cycle.points == ((0j,), (-1 + 0j,))
        with pytest.raises(OrbitError, match=r"in its points$"):
            certify_hypercyclic(Z2_MINUS_1, [replace(cycle, points=((0j,), (1 + 0j,)))])

    def test_a_nan_multiplier_reaches_the_witness_check(self):
        # 1 + a z - (1 + a) z^2 closes {0, 1} only by rounding, and the
        # multiplier -a (a + 2) overflows to nan - inf i for a = 1e160 (1 + i)
        a = 1e160 * (1 + 1j)
        f = PolyMap.from_coeffs_1d([1, a, -1 - a])
        orbit = make_orbit(f, [0], 2)
        assert np.isnan(orbit.multipliers).all()
        with pytest.raises(PreconditionError, match="'multipliers' holds a non-finite"):
            certify_bounded(f, None, orbit)

    def test_the_residual_is_not_compared(self):
        # a search at r = 2 reports its residual for f^2, not f
        forged = replace(make_orbit(HALF, [0], 2), residual=1e-9)
        cert = certify_bounded(HALF, None, forged)
        assert cert.verdict == NO_OBSTRUCTION
        assert cert.witness["orbit_residual"] == 1e-9


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


def _multiplier_slack(coeffs, orbit, s=1.0, t=0j):
    """How far the multipliers of ``orbit`` of f (ascending ``coeffs``) and
    of its image under g(w) = f(s w) / s, or under g(w) = f(w + t) - t, may
    lie apart.

    A point closes within TOL_ORBIT (1 + |p|), so to first order it lies
    within that over |lambda - 1| of the periodic point; g's tolerance is
    s + |p| in f's coordinates under the scaling, at most 1 + |p| + |t|
    under the translation, and delta is the sum of the two.  Then lambda
    moves by |(f^p)''| delta, where (f^p)'' = sum_k f''(z_k) ((f^k)')^2
    prod_(j > k) f'(z_j) is bounded by majorants on disks about the orbit
    that hold both walks.  Each computed multiplier adds the rounding of a
    chain of p Horner steps, taken at |z| + 2|t|: g's point w = z - t and
    coefficients are bounded by the majorant of f' there.  Past first
    order: a factor 2.
    """
    c = np.asarray(coeffs, dtype=complex)
    dc, ddc = np.abs(P.polyder(c)), np.abs(P.polyder(c, 2))
    lam = orbit.multipliers[0]
    delta = dynamics.TOL_ORBIT * (1 + s + abs(t) + 2 * abs(orbit.points[0][0])) \
        / abs(lam - 1)
    d1, d2, chain = 1.0, 0.0, 1.0
    for (z,) in orbit.points:
        size = abs(z) + delta * max(1.0, d1)
        d1, d2 = P.polyval(size, dc) * d1, (P.polyval(size, ddc) * d1 ** 2
                                            + P.polyval(size, dc) * d2)
        chain *= P.polyval(size + 2 * abs(t), dc)
    rounding = 4 * orbit.period * len(c) * np.finfo(float).eps * chain
    return 2 * (delta * d2 + rounding)


def _translated(coeffs, t):
    """Ascending coefficients of g(w) = f(w + t) - t, for f's ascending
    ``coeffs`` and t Gaussian dyadics, by the Taylor shift in exact
    rationals; small numerators make each one exact as a float."""
    def exact(z):
        return [Fraction(z.real), Fraction(z.imag)]

    a, (tr, ti) = [exact(complex(c)) for c in coeffs], exact(complex(t))
    for i in range(len(a) - 1):
        for k in range(len(a) - 2, i - 1, -1):
            (xr, xi), (yr, yi) = a[k], a[k + 1]
            a[k] = [xr + yr * tr - yi * ti, xi + yr * ti + yi * tr]
    a[0] = [a[0][0] - tr, a[0][1] - ti]
    out = [complex(float(x), float(y)) for x, y in a]
    assert [exact(z) for z in out] == a
    return out


def _dyadic(numerator, denominator):
    """Gaussian dyadics (a + bi) / denominator, |a|, |b| <= numerator."""
    part = st.integers(-numerator, numerator)
    return st.builds(lambda a, b: complex(a, b) / denominator, part, part)


def _same_certificates(coeffs, g_coeffs, r, s=1.0, t=0j):
    """f (ascending ``coeffs``) and its conjugate g(w) = (f(s w + t) - t) / s
    (``g_coeffs``) give the same search block and per-period counts; where
    the search is complete, the same four verdicts and multipliers within
    ``_multiplier_slack``."""
    f, g = PolyMap.from_coeffs_1d(coeffs), PolyMap.from_coeffs_1d(g_coeffs)
    (orbits_f, search_f, _), (orbits_g, search_g, _) = (periodic_orbits(f, r),
                                                       periodic_orbits(g, r))
    assert search_f == search_g
    assert sorted(o.period for o in orbits_f) == sorted(o.period for o in orbits_g)
    if not search_f["complete"]:
        # as at a multiple root, whose multiplier is known to about
        # sqrt(eps): a verdict that reads |lambda| against 1 may flip
        return
    for certify in (certify_bounded, certify_compact):
        assert certify(f, None, *orbits_f).verdict == certify(g, None, *orbits_g).verdict
    for certify in (certify_hypercyclic, certify_supercyclic):
        assert (certify(f, orbits_f, search_complete=True).verdict
                == certify(g, orbits_g, search_complete=True).verdict)
    # one orbit is walked from each of its points: pair walks by start
    starts = np.array([o.points[0][0] * s + t for o in orbits_g])
    match = [int(np.argmin(np.abs(starts - o.points[0][0]))) for o in orbits_f]
    assert sorted(match) == list(range(len(orbits_g)))
    for orbit, m in zip(orbits_f, match):
        gap = abs(orbit.multipliers[0] - orbits_g[m].multipliers[0])
        assert gap <= _multiplier_slack(coeffs, orbit, s, t)


class TestConjugation:
    """The obstructions read local dynamics at periodic points, which a
    conjugation keeps: g(w) = f(s w) / s has the periodic points z / s and
    the multipliers of f, and g(w) = f(w + t) - t the points z - t.  With
    s = 2^k the coefficients c_j s^(j-1) of g are exact in floats, and so
    are those of the translate for small Gaussian dyadics."""

    @settings(max_examples=60, deadline=None)
    @given(lower=st.lists(st.complex_numbers(max_magnitude=2.0, allow_subnormal=False),
                          min_size=2, max_size=3),
           lead=st.complex_numbers(min_magnitude=0.25, max_magnitude=2.0),
           r=st.integers(1, 3), k=st.integers(-20, 20))
    def test_dyadic_scaling_keeps_the_certificate(self, lower, lead, r, k):
        coeffs, s = lower + [lead], 2.0 ** k
        _same_certificates(coeffs, [c * s ** (j - 1) for j, c in enumerate(coeffs)], r, s=s)

    @settings(max_examples=60, deadline=None)
    @given(lower=st.lists(_dyadic(8, 4), min_size=2, max_size=3),
           lead=_dyadic(8, 4).filter(bool), r=st.integers(1, 3),
           t=_dyadic(64, 8))
    def test_dyadic_translation_keeps_the_certificate(self, lower, lead, r, t):
        # quarter-integer coefficients, shifts up to 8 + 8i in eighths
        coeffs = lower + [lead]
        _same_certificates(coeffs, _translated(coeffs, t), r, t=t)


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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            duality_check(np.zeros((4, 2)), np.zeros((5, 2)))

    def test_stack_mismatch_rejected(self):
        for l_mat, b in [(np.zeros((3, 4, 2)), np.zeros((2, 4, 2))),
                         (np.zeros((3, 4, 2)), np.zeros((4, 2))),
                         (np.zeros(4), np.zeros(4))]:
            with pytest.raises(PreconditionError):
                duality_check(l_mat, b)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_stack_is_its_slices(self, data):
        count = data.draw(st.integers(0, 8))
        rows = data.draw(st.integers(1, 7))
        cols = data.draw(st.integers(1, 5))
        width = data.draw(st.integers(0, rows))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

        def gauss(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        # each slice its own rank and scale, so a rank cut or null-space
        # mask shared across the stack would misjudge some slice
        b = np.zeros((count, rows, width), dtype=complex)
        for k in range(count):
            rank = int(rng.integers(0, width + 1))
            b[k] = gauss(rows, rank) @ gauss(rank, width) * 10 ** rng.uniform(-6, 6)
        l_mat = gauss(count, rows, cols) * 10 ** rng.uniform(-6, 6, (count, 1, 1))
        # even slices of L lie in span(B), odd ones most likely not
        l_mat[::2] = b[::2] @ gauss(width, cols)
        got = duality_check(l_mat, b)
        assert got.image_cond.shape == got.kernel_cond.shape == (count,)
        want = [duality_check(l_k, b_k) for l_k, b_k in zip(l_mat, b)]
        assert [tuple(pair) for pair in zip(*got)] == want
        for l_k, b_k, flags in zip(l_mat, b, want):
            one = duality_check(l_k[None], b_k[None])
            assert [tuple(pair) for pair in zip(*one)] == [flags]
            assert type(flags.image_cond) is type(flags.kernel_cond) is bool
