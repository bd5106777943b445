"""Jet arithmetic, composition, and graded matrices."""

from __future__ import annotations

import math

import numpy as np
import pytest

from holorigid.errors import (
    BaseMismatchError,
    InsufficientDegreeError,
    StructureError,
)
from holorigid.jets import (
    Jet,
    JetMap,
    eigenvalue_law,
    graded_basis,
    graded_eigenvalues,
    graded_matrix_bruteforce,
    graded_matrix_formula,
    jet_compose,
    jet_multiply,
    multi_indices,
    multiset_close,
    table_multiply,
)

from oracles import weighted_pullback

BASE0_1 = (0j,)
BASE0_2 = (0j, 0j)


def jetmap_compose(f: JetMap, g: JetMap) -> JetMap:
    """Jet map of f o g; g must send its base to the base of f."""
    return JetMap(g.dim_in, f.dim_out,
                  tuple(jet_compose(c, g) for c in f.components))


def jet1(cap, coeffs, base=BASE0_1):
    return Jet(1, cap, base, {(k,): c for k, c in coeffs.items()})


def random_jet(rng, d, cap, density=0.5, base=None):
    base = base if base is not None else (0j,) * d
    coeffs = {alpha: complex(rng.normal(), rng.normal())
              for alpha in graded_basis(d, cap) if rng.uniform() < density}
    return Jet(d, cap, base, coeffs)


class TestMultiIndices:
    def test_one_variable(self):
        assert multi_indices(1, 3) == ((3,),)

    def test_binary_quadratics(self):
        assert multi_indices(2, 2) == ((2, 0), (1, 1), (0, 2))

    def test_count_stars_and_bars(self):
        # C(4, 2) = 6
        assert len(multi_indices(3, 2)) == 6

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (4, 2)])
    def test_graded_lex_strictly_decreasing_leading_exponent(self, d, n):
        idx = multi_indices(d, n)
        assert len(set(idx)) == len(idx) == math.comb(n + d - 1, d - 1)
        assert all(sum(a) == n for a in idx)
        # within the fixed degree the tuples decay lexicographically
        assert list(idx) == sorted(idx, reverse=True)


class TestMultiply:
    def test_difference_of_squares(self):
        a = jet1(2, {0: 1, 1: 1})
        b = jet1(2, {0: 1, 1: -1})
        assert jet_multiply(a, b).coeffs == {(0,): 1 + 0j, (2,): -1 + 0j}

    def test_truncation_kills_top_degree(self):
        z = jet1(1, {1: 1})
        assert jet_multiply(z, z).coeffs == {}

    def test_two_variable_square(self):
        # (1 + z1 + z2)^2 = 1 + 2 z1 + 2 z2 + z1^2 + 2 z1 z2 + z2^2
        s = Jet(2, 2, BASE0_2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        expect = {(0, 0): 1, (1, 0): 2, (0, 1): 2,
                  (2, 0): 1, (1, 1): 2, (0, 2): 1}
        assert jet_multiply(s, s).coeffs == {k: complex(v) for k, v in expect.items()}

    def test_commutative_and_bilinear(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = random_jet(rng, 2, 4)
            b = random_jet(rng, 2, 4)
            c = random_jet(rng, 2, 4)
            ab = jet_multiply(a, b)
            ba = jet_multiply(b, a)
            for key in set(ab.coeffs) | set(ba.coeffs):
                assert ab.term(key) == pytest.approx(ba.term(key), abs=1e-12)
            lhs = jet_multiply(a, b + c.scaled(2.5))
            rhs = jet_multiply(a, b) + jet_multiply(a, c).scaled(2.5)
            for key in set(lhs.coeffs) | set(rhs.coeffs):
                assert lhs.term(key) == pytest.approx(rhs.term(key), abs=1e-12)

    def test_structural_mismatch_raises(self):
        a = jet1(2, {0: 1})
        with pytest.raises(StructureError):
            jet_multiply(a, jet1(3, {0: 1}))
        with pytest.raises(StructureError):
            jet_multiply(a, jet1(2, {0: 1}, base=(1.0 + 0j,)))

    def test_cap_violation_rejected_at_construction(self):
        with pytest.raises(StructureError):
            jet1(2, {3: 1.0})


def _plain_double_loop(a: dict, b: dict) -> dict:
    """The uncapped product as the two-loop kernel ran it: ``a`` outermost."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0j) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def _bits(table: dict) -> list:
    """Keys in table order with the exact bits of each coefficient."""
    return [(k, v.real.hex(), v.imag.hex()) for k, v in table.items()]


def _random_table(rng, d, cap, size):
    basis = graded_basis(d, cap)
    picks = rng.choice(len(basis), size=min(size, len(basis)), replace=False)
    return {basis[i]: complex(*rng.normal(size=2)) for i in picks}


class TestTableMultiply:
    """One loop and one product order: ``a`` outermost, ``b`` inner, with
    the terms above the cap skipped."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_uncapped_is_the_plain_double_loop(self, d):
        rng = np.random.default_rng(19 + d)
        for _ in range(20):
            a = _random_table(rng, d, 4, int(rng.integers(1, 9)))
            b = _random_table(rng, d, 4, int(rng.integers(1, 13)))
            assert _bits(table_multiply(a, b)) == _bits(_plain_double_loop(a, b))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_capped_drops_the_terms_above_the_cap(self, d):
        rng = np.random.default_rng(29 + d)
        for _ in range(20):
            a = _random_table(rng, d, 4, int(rng.integers(1, 9)))
            b = _random_table(rng, d, 4, int(rng.integers(1, 13)))
            full = table_multiply(a, b)
            for cap in range(-1, 10):
                kept = {k: v for k, v in full.items() if sum(k) <= cap}
                assert _bits(table_multiply(a, b, cap)) == _bits(kept)

    def test_exact_cancellation_is_dropped(self):
        # (1 + z)(1 - z) = 1 - z^2: the z terms cancel to an exact zero
        a, b = {(0,): 1 + 0j, (1,): 1 + 0j}, {(0,): 1 + 0j, (1,): -1 + 0j}
        assert table_multiply(a, b) == {(0,): 1 + 0j, (2,): -1 + 0j}
        assert table_multiply(a, b, 1) == {(0,): 1 + 0j}


class TestCompose:
    def test_linear_in_linear(self):
        h = jet1(3, {1: 1})
        f = JetMap(1, 1, (jet1(3, {1: 2.5}),))
        assert jet_compose(h, f).coeffs == {(1,): 2.5 + 0j}

    def test_square_of_z_plus_z_squared(self):
        # (z + z^2)^2 = z^2 + 2 z^3 + z^4 (hand expansion)
        h = jet1(4, {2: 1})
        f = JetMap(1, 1, (jet1(4, {1: 1, 2: 1}),))
        assert jet_compose(h, f).coeffs == {(2,): 1 + 0j, (3,): 2 + 0j, (4,): 1 + 0j}

    def test_linear_in_h(self):
        rng = np.random.default_rng(7)
        f = JetMap(2, 2, (random_jet(rng, 2, 5), random_jet(rng, 2, 5)))
        target = f.value()
        h1 = random_jet(rng, 2, 5, base=target)
        h2 = random_jet(rng, 2, 5, base=target)
        lhs = jet_compose(h1 + h2.scaled(1.7j), f)
        rhs = jet_compose(h1, f) + jet_compose(h2, f).scaled(1.7j)
        for key in set(lhs.coeffs) | set(rhs.coeffs):
            assert lhs.term(key) == pytest.approx(rhs.term(key), abs=1e-10)

    def test_base_mismatch_raises(self):
        h = Jet(1, 3, (1.0 + 0j,), {(1,): 1})
        f = JetMap(1, 1, (jet1(3, {1: 1}),))  # f(0) = 0 != 1
        with pytest.raises(BaseMismatchError, match="composition base mismatch"):
            jet_compose(h, f)

    def test_associativity_on_random_towers(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = JetMap(2, 2, (random_jet(rng, 2, 6), random_jet(rng, 2, 6)))
            q = g.value()
            f = JetMap(2, 2, (random_jet(rng, 2, 6, base=q),
                              random_jet(rng, 2, 6, base=q)))
            w = f.value()
            h = random_jet(rng, 2, 6, base=w)
            left = jet_compose(jet_compose(h, f), g)
            right = jet_compose(h, jetmap_compose(f, g))
            for key in set(left.coeffs) | set(right.coeffs):
                assert left.term(key) == pytest.approx(
                    right.term(key), rel=1e-12, abs=1e-12)


class TestWeightedPullback:
    def test_trivial_weight_reduces_to_compose(self):
        rng = np.random.default_rng(3)
        f = JetMap(1, 1, (random_jet(rng, 1, 5),))
        h = random_jet(rng, 1, 5, base=f.value())
        one = Jet.constant(1, 5, BASE0_1, 1.0)
        assert weighted_pullback(one, f, h).coeffs == pytest.approx(
            jet_compose(h, f).coeffs)

    def test_monomial_shift(self):
        # u = z, f = 2z, h = z^n  ->  2^n z^(n+1)
        for n in range(5):
            cap = n + 2
            u = jet1(cap, {1: 1})
            f = JetMap(1, 1, (jet1(cap, {1: 2}),))
            h = jet1(cap, {n: 1})
            assert weighted_pullback(u, f, h).coeffs == {(n + 1,): 2 ** n + 0j}

    def test_filtration_preserved_exactly(self):
        # h vanishing to order n pulls back to order >= n at a fixed point
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            f = JetMap(2, 2, (random_jet(rng, 2, 5), random_jet(rng, 2, 5)))
            coeffs = {a: c for a, c in random_jet(rng, 2, 5).coeffs.items()
                      if sum(a) >= n}
            h = Jet(2, 5, f.value(), coeffs)
            u = random_jet(rng, 2, 5)
            out = weighted_pullback(u, f, h)
            assert all(sum(a) >= n for a in out.coeffs)


class TestGradedMatrices:
    def test_one_variable_power(self):
        m = graded_matrix_formula(1.0, [[2.0]], 3)
        assert m.entries == pytest.approx(np.array([[8.0]]))

    def test_diagonal_law(self):
        m = graded_matrix_formula(3.0, np.diag([2.0, 0.5]), 2)
        assert m.basis_order == ((2, 0), (1, 1), (0, 2))
        assert m.entries == pytest.approx(np.diag([12.0, 3.0, 0.75]))

    def test_shear_substitution(self):
        # z1 -> z1 + z2, z2 -> z2 on (z1^2, z1 z2, z2^2):
        # (z1+z2)^2 = z1^2 + 2 z1 z2 + z2^2, (z1+z2) z2 = z1 z2 + z2^2
        m = graded_matrix_formula(1.0, [[1, 1], [0, 1]], 2)
        expect = np.array([[1, 0, 0], [2, 1, 0], [1, 1, 1]], dtype=complex)
        assert m.entries == pytest.approx(expect)
        assert graded_eigenvalues(m) == pytest.approx((1.0, 1.0, 1.0))

    def test_degree_zero_is_weight_value(self):
        m = graded_matrix_formula(4.2 - 1j, np.eye(3), 0)
        assert m.entries == pytest.approx(np.array([[4.2 - 1j]]))

    def test_bruteforce_quadratic_term_invisible(self):
        # f = lam z + z^2: the degree-2 graded piece only sees lam
        lam = 1.5 - 0.5j
        u = Jet.constant(1, 4, BASE0_1, 1.0)
        f = JetMap(1, 1, (jet1(4, {1: lam, 2: 1}),))
        m = graded_matrix_bruteforce(u, f, 2)
        assert m.entries == pytest.approx(np.array([[lam ** 2]]))

    def test_bruteforce_weight_shifts_degree(self):
        # u = z, f = 2z: image of z^n sits at degree n+1, the square block is 0
        u = jet1(4, {1: 1})
        f = JetMap(1, 1, (jet1(4, {1: 2}),))
        for n in range(4):
            m = graded_matrix_bruteforce(u, f, n)
            assert m.entries == pytest.approx(np.zeros((1, 1)))

    def test_insufficient_cap_raises(self):
        u = Jet.constant(1, 2, BASE0_1, 1.0)
        f = JetMap(1, 1, (jet1(2, {1: 2}),))
        with pytest.raises(InsufficientDegreeError, match="insufficient jet degree"):
            graded_matrix_bruteforce(u, f, 3)

    def test_formula_matches_bruteforce_on_random_fixed_jets(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(0, 5))
            base = (0j,) * d
            comps = []
            for _ in range(d):
                j = random_jet(rng, d, 6, density=0.4)
                coeffs = dict(j.coeffs)
                coeffs.pop((0,) * d, None)  # force the base point fixed
                comps.append(Jet(d, 6, base, coeffs))
            f = JetMap(d, d, tuple(comps))
            u = random_jet(rng, d, 6, density=0.4)
            brute = graded_matrix_bruteforce(u, f, n)
            formula = graded_matrix_formula(u.value, f.linear_matrix(), n)
            assert np.max(np.abs(brute.entries - formula.entries)) < 1e-10

    def test_eigenvalue_law_examples(self):
        assert graded_eigenvalues(graded_matrix_formula(1.0, [[2.0]], 3)) \
            == pytest.approx((8.0,))
        vals = graded_eigenvalues(graded_matrix_formula(1.0, np.diag([2.0, 0.5]), 2))
        assert sorted(abs(v) for v in vals) == pytest.approx([0.25, 1.0, 4.0])

    def test_jordan_block_eigenvalues(self):
        lam = 0.3 + 1.1j
        m = graded_matrix_formula(1.0, [[lam, 1.0], [0.0, lam]], 2)
        assert graded_eigenvalues(m) == pytest.approx((lam ** 2,) * 3)

    def test_eigenvalue_law_random_diagonalizable(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(0, 6))
            lams = rng.uniform(0.3, 1.7, d) * np.exp(2j * np.pi * rng.uniform(size=d))
            p = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            p += 3 * np.eye(d)
            a = p @ np.diag(lams) @ np.linalg.inv(p)
            u_p = complex(rng.normal(), rng.normal())
            got = graded_eigenvalues(graded_matrix_formula(u_p, a, n))
            want = eigenvalue_law(u_p, lams, n)
            assert multiset_close(got, want)

    def test_cocycle_functoriality(self):
        # graded matrix of (u * (v o f)) (g o f)^* equals the product of the
        # graded matrices of u f^* and v g^* at matching base points
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            f = JetMap(2, 2, (random_jet(rng, 2, 5), random_jet(rng, 2, 5)))
            q = f.value()
            g = JetMap(2, 2, (random_jet(rng, 2, 5, base=q),
                              random_jet(rng, 2, 5, base=q)))
            u = random_jet(rng, 2, 5)
            v = random_jet(rng, 2, 5, base=q)
            m_f = graded_matrix_bruteforce(u, f, n)
            m_g = graded_matrix_bruteforce(v, g, n)
            combined_weight = jet_multiply(u, jet_compose(v, f))
            combined_map = jetmap_compose(g, f)
            m_all = graded_matrix_bruteforce(combined_weight, combined_map, n)
            assert np.max(np.abs(m_all.entries - m_f.entries @ m_g.entries)) < 1e-9


class TestCounterexampleIdentity:
    def test_weighted_pullback_of_exponential(self):
        # u = e^(z^2/2), f = (z+1)^2/2:  u * (e^-z o f) = e^(-1/2) e^-z,
        # because z^2/2 - (z+1)^2/2 = -z - 1/2 exactly
        cap = 8
        u = Jet(1, cap, BASE0_1,
                {(2 * k,): 1.0 / (2 ** k * math.factorial(k))
                 for k in range(cap // 2 + 1)})
        f = JetMap(1, 1, (jet1(cap, {0: 0.5, 1: 1.0, 2: 0.5}),))
        h = Jet(1, cap, (0.5 + 0j,),
                {(k,): math.exp(-0.5) * (-1.0) ** k / math.factorial(k)
                 for k in range(cap + 1)})
        target = Jet(1, cap, BASE0_1,
                     {(k,): math.exp(-0.5) * (-1.0) ** k / math.factorial(k)
                      for k in range(cap + 1)})
        got = weighted_pullback(u, f, h)
        for k in range(cap + 1):
            assert got.term((k,)) == pytest.approx(target.term((k,)), abs=1e-10)
