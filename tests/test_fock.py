"""Operator matrices on the truncated monomial model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holorigid import fock
from holorigid.dynamics import PolyFunc, PolyMap, cocycle_poly, iterate
from holorigid.errors import InsufficientDegreeError, PreconditionError
from holorigid.fock import (
    TRUNCATION_COEFF_TOL,
    coefficient_matrix,
    jets_from_polys,
    norm_sweep,
    operator_matrix,
    operator_matrix_from_polys,
    restriction_norm_profile,
    sqrt_factorial,
    truncated_norm,
)
from holorigid.jets import (
    Jet,
    JetMap,
    PowerCache,
    graded_basis,
    table_multiply,
)

from oracles import weighted_pullback

HALF = PolyMap.from_coeffs_1d([0, 0.5])
DOUBLE = PolyMap.from_coeffs_1d([0, 2])
SQUARE = PolyMap.from_coeffs_1d([0, 0, 1])
WEIGHT_Z = PolyFunc(1, {(1,): 1})
HENON = PolyMap(2, ({(0, 1): 1}, {(0, 2): 1, (0, 0): -3, (1, 0): -0.3}))


class TestOperatorMatrix:
    def test_scaling_map_is_diagonal(self):
        m = operator_matrix_from_polys(None, HALF, 8)
        assert m.entries == pytest.approx(np.diag(0.5 ** np.arange(9)))
        assert not m.truncation_loss

    def test_square_map_columns(self):
        # column m sends e_m to sqrt((2m)!/m!) e_{2m}, zero once 2m > N
        n_cap = 12
        m = operator_matrix_from_polys(None, SQUARE, n_cap)
        for col in range(n_cap + 1):
            expect = np.zeros(n_cap + 1)
            if 2 * col <= n_cap:
                expect[2 * col] = math.sqrt(
                    math.factorial(2 * col) / math.factorial(col))
            assert m.entries[:, col] == pytest.approx(expect)
            assert m.column_loss[col] == (2 * col > n_cap)

    def test_weighted_shift_subdiagonal(self):
        # u = z, f = 2z: z * (2z)^m / sqrt(m!) = 2^m sqrt(m+1) e_{m+1}
        n_cap = 31
        m = operator_matrix_from_polys(WEIGHT_Z, DOUBLE, n_cap)
        for k in range(31):
            assert m.entries[k + 1, k] == pytest.approx(
                2 ** k * math.sqrt(k + 1), rel=1e-12)

    def test_columns_match_weighted_pullback(self):
        # independent route: each column is the pullback of the monomial jet
        # expanded at f(0)
        rng = np.random.default_rng(31)
        n_cap = 6
        f = PolyMap.from_coeffs_1d(rng.normal(size=3) + 1j * rng.normal(size=3))
        u = PolyFunc(1, {(0,): 0.4, (1,): -0.3 + 0.2j})
        uj, fj = jets_from_polys(u, f, n_cap)
        mat = coefficient_matrix(uj, fj, n_cap)
        q = fj.value()
        for col in range(n_cap + 1):
            # expand z^col at q via the binomial theorem
            coeffs = {(k,): math.comb(col, k) * q[0] ** (col - k)
                      for k in range(col + 1)}
            mono = Jet(1, fj.cap, q, coeffs)
            pulled = weighted_pullback(uj, fj, mono)
            for row in range(n_cap + 1):
                assert mat.entries[row, col] == pytest.approx(
                    pulled.term((row,)), rel=1e-9, abs=1e-9)

    def test_cap_past_float_factorials_rejected_before_any_jet(self, monkeypatch):
        # 170! is the largest factorial below the float maximum
        assert operator_matrix_from_polys(None, HALF, 170).entries[170, 170] == 0.5 ** 170
        monkeypatch.setattr(fock, "jets_from_polys", None)  # never reached
        for f in (HALF, HENON):
            with pytest.raises(PreconditionError, match="N = 171"):
                operator_matrix_from_polys(None, f, 171)

    def test_overflowing_entries_rejected_before_any_svd(self, monkeypatch):
        big = PolyMap.from_coeffs_1d([0, 1e150, 1])
        # (1e150)^2 is finite: the matrix keeps the bits of the scaled
        # coefficient matrix
        uj, fj = jets_from_polys(None, big, 2)
        raw = coefficient_matrix(uj, fj, 2)
        w = np.array([sqrt_factorial(a) for a in raw.basis])
        want = raw.entries * w[:, None] / w[None, :]
        got = operator_matrix_from_polys(None, big, 2).entries
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        monkeypatch.setattr(np.linalg, "svd", None)  # never reached
        monkeypatch.setattr(np.linalg, "norm", None)
        with pytest.raises(PreconditionError, match="N = 6: .* non-finite"):
            operator_matrix_from_polys(None, big, 6)

    def test_insufficient_cap_rejected(self):
        u = Jet.constant(1, 3, (0j,), 1.0)
        f = JetMap(1, 1, (Jet(1, 3, (0j,), {(1,): 1}),))
        with pytest.raises(InsufficientDegreeError):
            operator_matrix(u, f, 5)

    def test_fock_weights_relate_matrices(self):
        m_plain = coefficient_matrix(*jets_from_polys(WEIGHT_Z, DOUBLE, 6), 6)
        m_fock = operator_matrix(*jets_from_polys(WEIGHT_Z, DOUBLE, 6), 6)
        w = np.array([sqrt_factorial(a) for a in m_fock.basis])
        assert m_fock.entries == pytest.approx(
            m_plain.entries * w[:, None] / w[None, :])


def _dict_coefficient_matrix(u: Jet, f: JetMap, N: int):
    """Reference: one ``table_multiply`` of the weight and a ``PowerCache``
    power per column, the dict loop the level assembly replaced."""
    cap = min(u.cap, f.cap)
    u = u.truncated(cap)
    powers = PowerCache([c.truncated(cap).coeffs for c in f.components],
                        f.dim_in, cap=cap)
    basis = graded_basis(f.dim_in, N)
    index = {a: i for i, a in enumerate(basis)}
    m = np.zeros((len(basis), len(basis)), dtype=complex)
    top = []
    for j, beta in enumerate(basis):
        col = table_multiply(u.coeffs, powers.power(beta), cap)
        top.append(max((sum(a) for a, c in col.items()
                        if abs(c) > TRUNCATION_COEFF_TOL), default=0))
        for alpha, c in col.items():
            if sum(alpha) <= N:
                m[index[alpha], j] = c
    return m, tuple(top)


README_HENON = PolyMap(2, ({(0, 1): 1},
                           {(0, 2): 1, (1, 0): -0.3, (0, 0): -3}))
MIX3 = PolyMap(3, ({(1, 1, 0): 1, (0, 0, 1): 0.5},
                   {(0, 2, 0): 1, (1, 0, 0): -0.3},
                   {(0, 0, 3): 0.2, (1, 0, 0): 1}))
LINEAR_2D = PolyFunc(2, {(0, 0): 0.7 - 0.2j, (1, 0): 0.31 + 0.4j,
                         (0, 1): -0.45 + 0.12j})
LINEAR_1D = PolyFunc(1, {(0,): 0.83 + 0.29j, (1,): -0.37 + 0.41j})


class TestLevelAssembly:
    """The level assembly reproduces the dict loop bit for bit."""

    @pytest.mark.parametrize("u, f, n_cap", [
        (LINEAR_2D, README_HENON, 16),
        (LINEAR_1D, PolyMap.from_coeffs_1d([0.27 - 0.53j, 0, 1]), 60),
        (PolyFunc(1, {(0,): 1.0, (2,): 0.5j}),
         PolyMap.from_coeffs_1d([0.4 + 0.1j, -0.6j, 0, 1]), 20),
        (PolyFunc(3, {(0, 0, 0): 1, (0, 1, 0): -0.25j}), MIX3, 4),
        (LINEAR_2D, PolyMap(2, ({(0, 0): 0.5 + 0.5j, (1, 1): 1},
                                {(0, 0): -1, (1, 0): 0.3, (0, 2): 1j})), 6),
        (None, README_HENON, 10),
        (LINEAR_2D, README_HENON, 0),
        (LINEAR_2D, README_HENON, 1),
        (LINEAR_1D, PolyMap.from_coeffs_1d([0.27 - 0.53j, 0, 1]), 0),
        (LINEAR_1D, PolyMap.from_coeffs_1d([0.27 - 0.53j, 0, 1]), 1),
        # the powers of 1e30 z^2 overflow to inf, then nan, above row N
        (PolyFunc(1, {(0,): 1, (1,): 2}), PolyMap.from_coeffs_1d([0, 0, 1e30]),
         14),
    ], ids=["henon-readme-N16", "quadc-N60", "monic-cubic", "mix3-N4",
            "moved-origin", "weight-none", "henon-N0", "henon-N1", "quadc-N0",
            "quadc-N1", "overflow"])
    def test_matches_dict_loop_bit_for_bit(self, u, f, n_cap):
        uj, fj = jets_from_polys(u, f, n_cap)
        want, want_top = _dict_coefficient_matrix(uj, fj, n_cap)
        got = coefficient_matrix(uj, fj, n_cap)
        assert np.array_equal(got.entries.view(np.uint64),
                              want.view(np.uint64))
        assert got.top_degree == want_top

    def test_weight_longer_than_an_early_power(self):
        # u has six terms and f four: a degree of u * f collects up to four
        # products, which both routes add with u outermost
        rng = np.random.default_rng(16)
        u = PolyFunc(1, {(k,): complex(*rng.normal(size=2))
                         for k in range(6)})
        f = PolyMap.from_coeffs_1d(rng.normal(size=4) + 1j * rng.normal(size=4))
        uj, fj = jets_from_polys(u, f, 8)
        want, want_top = _dict_coefficient_matrix(uj, fj, 8)
        got = coefficient_matrix(uj, fj, 8)
        assert np.array_equal(got.entries.view(np.uint64),
                              want.view(np.uint64))
        assert got.top_degree == want_top

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_dict_loop_property(self, data):
        d = data.draw(st.sampled_from([1, 2]))
        coeff = st.complex_numbers(max_magnitude=2.0)

        def table(low, high):
            return st.dictionaries(st.sampled_from(graded_basis(d, 3)), coeff,
                                   min_size=low, max_size=high)

        # sums of three or more products, which an order can tell apart
        u = PolyFunc(d, data.draw(table(3, 8)))
        f = PolyMap(d, tuple(data.draw(table(2, 5)) for _ in range(d)))
        n_cap = data.draw(st.integers(0, 8 if d == 1 else 5))
        cap = data.draw(st.integers(n_cap, n_cap + 6))  # below it, powers lose terms
        uj, fj = u.to_jet((0j,) * d, cap), f.to_jetmap((0j,) * d, cap)
        want, want_top = _dict_coefficient_matrix(uj, fj, n_cap)
        got = coefficient_matrix(uj, fj, n_cap)
        assert np.array_equal(got.entries.view(np.uint64),
                              want.view(np.uint64))
        assert got.top_degree == want_top


class TestTruncatedNorm:
    def test_contraction_norm_one_for_every_cap(self):
        for n_cap in (1, 5, 17, 40):
            m = operator_matrix_from_polys(None, HALF, n_cap)
            assert truncated_norm(m) == pytest.approx(1.0, abs=1e-9)

    def test_square_norm_is_top_column(self):
        # the columns hit disjoint rows, so the norm is the largest column norm
        m = operator_matrix_from_polys(None, SQUARE, 20)
        assert truncated_norm(m) == pytest.approx(
            math.sqrt(math.factorial(20) / math.factorial(10)), rel=1e-12)

    def test_zero_matrix(self):
        zero_weight = PolyFunc(1, {})
        m = operator_matrix_from_polys(zero_weight, HALF, 4)
        assert truncated_norm(m) == 0.0

    def test_zero_map_keeps_constant_column(self):
        zero = PolyMap(1, ({},))
        m = operator_matrix_from_polys(WEIGHT_Z, zero, 4)
        # u * f^beta = z * 0^beta: only the beta = 0 column survives
        assert truncated_norm(m) == pytest.approx(1.0)

    def test_nondecreasing_in_cap_without_loss(self):
        rows = norm_sweep(operator_matrix_from_polys(
            None, PolyMap.from_coeffs_1d([0, 1.3]), 12))
        norms = [v for _, v, lossy in rows if not lossy]
        assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


class TestSharedNorm:
    def test_three_outputs_read_one_norm(self):
        m = operator_matrix_from_polys(LINEAR_2D, README_HENON, 10)
        assert (truncated_norm(m) == norm_sweep(m)[-1][1]
                == restriction_norm_profile(m).levels[0][1]
                == float(np.linalg.norm(m.entries, 2)))

    def test_operator_matrix_does_not_inherit_the_raw_norm(self, monkeypatch):
        raws = []

        def factored(*args):
            raws.append(coefficient_matrix(*args))
            assert raws[-1].norm > 0  # cached before the entries are rescaled
            return raws[-1]

        monkeypatch.setattr(fock, "coefficient_matrix", factored)
        m = operator_matrix(*jets_from_polys(WEIGHT_Z, DOUBLE, 12), 12)
        assert "norm" in vars(raws[0]) and "norm" not in vars(m)
        assert m.norm == float(np.linalg.norm(m.entries, 2))
        assert m.norm != raws[0].norm


def _rebuilt_sweep(u, f, n_max):
    """Reference sweep: every section N rebuilt from scratch at its own cap."""
    rows = []
    for n in range(n_max + 1):
        m = operator_matrix_from_polys(u, f, n)
        rows.append((n, truncated_norm(m), m.truncation_loss))
    return tuple(rows)


@pytest.mark.parametrize("u, f, n_max", [
    (None, HALF, 12),
    (None, SQUARE, 14),
    (WEIGHT_Z, DOUBLE, 12),
    (PolyFunc(2, {(0, 0): 1, (1, 0): 0.5, (0, 1): -0.25j}), HENON, 8),
], ids=["half", "square", "weighted-double", "henon"])
def test_sweep_reads_leading_blocks(u, f, n_max):
    rows = norm_sweep(operator_matrix_from_polys(u, f, n_max))
    assert rows == _rebuilt_sweep(u, f, n_max)
    if f is SQUARE:  # column m is lossy once 2m > N, so every N >= 1 is
        assert [lossy for _, _, lossy in rows] == [n >= 1 for n in range(15)]


class TestRestrictionProfile:
    def test_contraction_decays_geometrically(self):
        m = operator_matrix_from_polys(None, HALF, 40)
        prof = restriction_norm_profile(m)
        for n, norm, lossy in prof.levels:
            assert norm == pytest.approx(2.0 ** (-n), abs=1e-9)
            assert not lossy
        assert prof.fixes_origin and prof.invariance_warning is None

    def test_expansion_dominates_power_lower_bound(self):
        n_cap = 24
        m = operator_matrix_from_polys(None, DOUBLE, n_cap)
        prof = restriction_norm_profile(m)
        for n, norm, _ in prof.levels:
            assert norm >= 2.0 ** n
            assert norm == pytest.approx(2.0 ** n_cap, rel=1e-12)

    def test_square_profile_diverges_in_cap(self):
        # at fixed N the norm is the top column sqrt(N!/(N/2)!) down to
        # level N/2 (columns beyond map outside the window); as N grows the
        # value at any fixed level diverges
        m = operator_matrix_from_polys(None, SQUARE, 16)
        prof = restriction_norm_profile(m)
        top = math.sqrt(math.factorial(16) / math.factorial(8))
        for n, value, _ in prof.levels:
            if n <= 8:
                assert value == pytest.approx(top, rel=1e-12)
            else:
                assert value == 0.0
        smaller = restriction_norm_profile(
            operator_matrix_from_polys(None, SQUARE, 8))
        for n in range(5):
            assert prof.levels[n][1] > smaller.levels[n][1]

    def test_invariance_warning_without_fixed_origin(self):
        f = PolyMap.from_coeffs_1d([1, 0, 1])  # f(0) = 1
        m = operator_matrix_from_polys(None, f, 6)
        prof = restriction_norm_profile(m)
        assert not prof.fixes_origin
        assert "not invariant" in prof.invariance_warning


def _lapack_profile(m):
    """The profile norms as one SVD per tail (row 0 is m.norm)."""
    starts = np.searchsorted(m.degrees, np.arange(m.N + 1))
    return [fock._spectral_norm(m.entries[:, k:]) if k else m.norm
            for k in starts]


class TestCertifiedTails:
    """Rows read off the power vector stay within TAIL_TOL of LAPACK's."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_bracket_the_tail_norm(self, data):
        d = data.draw(st.sampled_from([1, 2]))
        coeff = st.complex_numbers(max_magnitude=3.0)
        # a map without low-degree terms sends its high columns past N, so
        # some tails are zero
        low = data.draw(st.sampled_from([0, 1, 2]))
        terms = [a for a in graded_basis(d, 3) if sum(a) >= low]
        f = PolyMap(d, tuple(data.draw(st.dictionaries(
            st.sampled_from(terms), coeff, min_size=1, max_size=4))
            for _ in range(d)))
        u = PolyFunc(d, data.draw(st.dictionaries(
            st.sampled_from(graded_basis(d, 2)), coeff, max_size=4)))
        m = operator_matrix_from_polys(u, f, data.draw(
            st.integers(0, 14 if d == 1 else 7)))
        levels = restriction_norm_profile(m).levels
        assert levels[0][1] == m.norm
        slack = fock.TAIL_TOL + 64 * np.finfo(float).eps
        for (n, value, _), k in zip(levels, np.searchsorted(
                m.degrees, np.arange(m.N + 1))):
            tail = m.entries[:, k:]
            want = float(np.linalg.norm(tail, 2))
            assert value <= m.norm
            assert abs(value - want) <= slack * want
            if not tail.any():
                assert value == 0.0

    @pytest.mark.parametrize("u, f, n_cap", [
        (None, HALF, 20), (None, DOUBLE, 20), (None, SQUARE, 16),
        (LINEAR_2D, README_HENON, 10),
        (LINEAR_1D, PolyMap.from_coeffs_1d([0.27 - 0.53j, 0, 1]), 40),
    ], ids=["half", "double", "square", "henon", "quadc"])
    def test_no_power_steps_gives_the_lapack_rows(self, monkeypatch, u, f, n_cap):
        monkeypatch.setattr(fock, "POWER_STEPS", 0)
        m = operator_matrix_from_polys(u, f, n_cap)
        got = [value for _, value, _ in restriction_norm_profile(m).levels]
        assert np.array_equal(np.array(got).view(np.uint64),
                              np.array(_lapack_profile(m)).view(np.uint64))

    @pytest.mark.parametrize("f, svd_levels", [
        (HALF, range(1, 17)),    # top vector e_0: no tail holds it
        (DOUBLE, ()),            # top vector e_16: every tail holds it
        (SQUARE, range(9, 17)),  # top column 8; the columns past it are zero
    ], ids=["half", "double", "square"])
    def test_each_tail_takes_its_path(self, monkeypatch, f, svd_levels):
        m = operator_matrix_from_polys(None, f, 16)
        lapack, svd, sizes = _lapack_profile(m), fock._spectral_norm, []

        def counted(a):
            sizes.append(a.shape[1])
            return svd(a)

        monkeypatch.setattr(fock, "_spectral_norm", counted)
        levels = restriction_norm_profile(m).levels
        assert sizes == [17 - n for n in svd_levels]
        for (_, value, _), want in zip(levels, lapack):
            assert abs(value - want) <= fock.TAIL_TOL * want


class TestCompositionCompatibility:
    def test_square_of_operator_matches_cocycle_matrix(self):
        # (uC_f)^2 = (u * (u o f)) C_{f o f} on columns untouched by truncation
        n_cap = 16
        u = PolyFunc(1, {(0,): 1.0, (1,): 1.0 / 3.0})
        f = HALF
        m = operator_matrix_from_polys(u, f, n_cap)
        v = cocycle_poly(u, f, 2)
        g = iterate(f, 2)
        direct = operator_matrix_from_polys(v, g, n_cap)
        product = m.entries @ m.entries
        # u has degree 1, so column beta of the square involves rows up to
        # beta + 2: compare the columns that stay inside the cap
        safe = n_cap - 2
        assert product[:, :safe] == pytest.approx(direct.entries[:, :safe],
                                                  abs=1e-9)


class TestGrowthLaw:
    # u = z and f = 2z shift level j to level j + 1 alone, so the product of
    # k level blocks from level n is the one nonzero entry (n + k, n) of M^k

    def test_weighted_blocks_match_closed_form(self):
        # Fock normalization: 2^(kn + k(k-1)/2) * sqrt((n+k)!/n!)
        n = 2
        m = operator_matrix_from_polys(WEIGHT_Z, DOUBLE, 26).entries
        power = np.eye(len(m))
        for k in range(1, 13):
            power = m @ power
            assert np.flatnonzero(power[:, n]).tolist() == [n + k]
            want = 2.0 ** (k * n + k * (k - 1) / 2) * math.sqrt(
                math.factorial(n + k) / math.factorial(n))
            assert abs(power[n + k, n]) == pytest.approx(want, rel=1e-9)

    def test_coefficient_blocks_quadratic_exponent(self):
        # in Taylor coordinates the k-step product is exactly
        # 2^(kn + k(k-1)/2), so the second difference of the log is log 2
        n = 3
        m = coefficient_matrix(*jets_from_polys(WEIGHT_Z, DOUBLE, 26), 26).entries
        power, norms = np.eye(len(m)), []
        for k in range(1, 21):
            power = m @ power
            norms.append(abs(power[n + k, n]))
        second = np.diff(np.log(norms), 2)
        assert np.max(np.abs(second - np.log(2.0))) < 1e-6
