"""Orbits, periodic points, multipliers, and the weight cocycle."""

from __future__ import annotations

import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    make_orbit,
    multipliers,
    orbit_points,
    orbits_of_period,
    periodic_orbits,
    periodic_points_1d,
    periodic_points_2d,
    root_count_1d,
    weight_cocycle,
)
from holorigid.errors import (
    OrbitError,
    PreconditionError,
    StructureError,
    TermOverflowError,
)

from oracles import residue_bound, residue_sum

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

    @pytest.mark.parametrize("exps", [[[0, 1], [0, 2], [0, 0], [1, 0]],
                                      [[3, 1], [0, 5]], [[0, 0]]],
                             ids=["henon", "degree-5", "constant"])
    def test_power_table_matches_the_list_form(self, exps):
        # the table is the list of binary products z^k = z^(k-1) * z from
        # z^0 = 1, and each monomial multiplies its variables' powers left
        # to right, so every bit agrees, also where the powers overflow
        rng = np.random.default_rng(4)
        z = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
        z[:5] *= 1e80
        z[5, 0], z[6, 1], z[7] = np.inf, complex(np.nan, 1.0), np.nan
        exps = np.array(exps)
        with np.errstate(all="ignore"):
            got = dynamics._monomial_values(z, exps)
            powers = [np.ones_like(z.T)]
            for _ in range(int(exps.max())):
                powers.append(powers[-1] * z.T)
            want = np.array([powers[a][0] * powers[b][1] for a, b in exps]).T
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _numpy_scalar_eval(table, z):
    """The per-point evaluator on numpy complex128 scalars (the elements of
    a complex array): the bit-for-bit oracle of the CPython complex one."""
    total = 0j
    for alpha, c in table.items():
        term = c
        for zi, a in zip(np.asarray(z, dtype=complex), alpha):
            if a:
                term *= zi ** a
        total += term
    return total


_SIGNED = st.sampled_from([0.0, -0.0]) | st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)


@st.composite
def _sparse_maps_1d(draw):
    """One-variable maps of degree at most 5 with a few nonzero terms, their
    coefficients' parts signed zeros or floats up to 1e300."""
    coeff = st.builds(complex, _SIGNED, _SIGNED).filter(lambda c: c != 0)
    table = draw(st.dictionaries(st.integers(0, 5), coeff, min_size=1, max_size=4))
    return PolyMap(1, ({(k,): c for k, c in table.items()},))


def _bits(values):
    """repr of each complex value: equal exactly when the bits are, except
    that every NaN is alike; -0.0 and 0.0 differ."""
    return [repr(complex(v)) for v in np.ravel(values)]


_EDGE = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e40,
                  max_value=1e40)  # z^8 overflows past about 1e38.5


@st.composite
def _tables_and_points(draw):
    dim = draw(st.integers(1, 3))
    alpha = st.tuples(*[st.integers(0, 8)] * dim)
    coeff = st.builds(complex, _EDGE, _EDGE) | st.complex_numbers(
        max_magnitude=1e300, allow_nan=False, allow_infinity=False)
    tables = [draw(st.dictionaries(alpha, coeff, min_size=1, max_size=6))
              for _ in range(dim + 1)]
    point = draw(st.lists(st.builds(complex, _EDGE, _EDGE), min_size=dim,
                          max_size=dim))
    return dim, tables, np.array(point, dtype=complex)


class TestScalarEvaluator:
    @settings(max_examples=300, deadline=None)
    @given(_tables_and_points())
    def test_bits_match_numpy_scalars(self, case):
        dim, tables, z = case
        f, u = PolyMap(dim, tables[:dim]), PolyFunc(dim, tables[dim])
        with np.errstate(all="ignore"):
            values = [_numpy_scalar_eval(c, z) for c in f.components]
            jac = [[_numpy_scalar_eval(p, z) for p in row] for row in f._partials]
            weight = _numpy_scalar_eval(u.terms, z)
        assert _bits(f(z)) == _bits(values)
        assert _bits(f(list(z))) == _bits(values)
        assert _bits(f.jacobian(z)) == _bits(jac)
        assert _bits(u(z)) == _bits(weight)

    def test_terms_add_in_table_order(self):
        # 1e16 + 1 rounds back to 1e16, so the sum depends on term order
        terms = [((0,), 1e16), ((1,), 1.0), ((2,), -1e16)]
        for order, want in [(terms, 0j), (terms[::2] + terms[1:2], 1 + 0j)]:
            table = dict(order)
            f, u = PolyMap(1, (table,)), PolyFunc(1, table)
            assert _bits(f([1.0])) == _bits(u([1.0])) == _bits([want])
            assert _bits([want]) == _bits([_numpy_scalar_eval(table, [1.0])])

    @pytest.mark.parametrize("n", [4, 7, 99, 100, 150])
    @pytest.mark.parametrize("z", [1.01 - 0.02j, complex(-0.0, 1.0), 0.5 + 1e-300j,
                                   complex(2e3, -0.0), -0.0j])
    def test_powers_match_numpy_scalars(self, n, z):
        with np.errstate(all="ignore"):
            want = np.complex128(z) ** n
        assert _bits([dynamics._power(z, n)]) == _bits([want])

    def test_overflow_gives_numpy_values_without_warnings(self):
        # 5 escapes under z^2 - 1: f^9(5) is inf + NaN i, f^10(5) is NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            walk = orbit_points(SQUARE_MINUS_1, [5.0], 13)
            with pytest.raises(OrbitError, match=r"f\^12\(p\) - p has residual nan"):
                make_orbit(SQUARE_MINUS_1, [5.0], 12)
        table = SQUARE_MINUS_1.components[0]
        with np.errstate(all="ignore"):
            want = [np.complex128(5.0)]
            for _ in range(12):
                want.append(_numpy_scalar_eval(table, [want[-1]]))
        assert _bits(walk) == _bits(want)


def _greedy_reference(points, radius, slack=None):
    """The one-point-at-a-time greedy loop that cluster_points must match.

    Points go in lexicographic order of their real and imaginary parts, NaN
    last; each joins the first cluster whose lead lies within the lead's
    reach, or within the slack of both, else leads a new one.  Distances
    and reaches use the clusterer's arithmetic, so the bits agree.
    """
    vec = [np.atleast_1d(np.asarray(z, dtype=complex)) for z in points]

    def key(i):
        parts = [part for x in vec[i] for part in (x.real, x.imag)]
        return tuple((bool(np.isnan(p)), 0.0 if np.isnan(p) else p) for p in parts)

    clusters, reach = [], []
    with np.errstate(invalid="ignore", over="ignore"):
        for i in sorted(range(len(points)), key=key):
            for cl, bound in zip(clusters, reach):
                dist = np.linalg.norm((vec[i] - vec[cl[0]])[None], axis=1)[0]
                if dist <= bound or (slack is not None
                                     and dist <= min(slack[cl[0]], slack[i])):
                    cl.append(i)
                    break
            else:
                clusters.append([i])
                reach.append(radius * (1.0 + np.linalg.norm(vec[i])))
    return clusters


_SPECIAL = (np.nan, np.inf, -np.inf)


def _awkward_points(rng, dim, n):
    """n random points in C^dim (scalars for dim 0) with repeats,
    near-repeats and some NaN and inf entries."""
    shape = (n,) if dim == 0 else (n, dim)
    base = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    near = rng.integers(0, n, size=n // 3)
    base[near] = base[rng.integers(0, n, size=near.size)] + 1e-7 * rng.normal(
        size=base[near].shape)
    base[rng.integers(0, n, size=n // 5)] = base[rng.integers(0, n, size=n // 5)]
    flat = base.reshape(n, -1)
    for _ in range(3):
        row, col = rng.integers(0, n), rng.integers(0, flat.shape[1])
        if rng.random() < 0.5:
            flat[row, col] = complex(rng.choice(_SPECIAL), flat[row, col].imag)
        else:
            flat[row, col] = complex(flat[row, col].real, rng.choice(_SPECIAL))
    return list(base)


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

    @pytest.mark.parametrize("dim", [0, 2, 3])
    def test_matches_reference_with_slack_and_non_finite_points(self, dim):
        rng = np.random.default_rng(11 + dim)
        for _ in range(20):
            points = _awkward_points(rng, dim, 60)
            slack = 10.0 ** rng.uniform(-9, 0, size=60)
            slack[rng.random(60) < 0.25] = 0.0
            slack[rng.random(60) < 0.25] = np.inf  # escaped points
            for radius in (1e-6, 0.05):
                with np.errstate(invalid="ignore", over="ignore"):
                    assert (cluster_points(points, radius)
                            == _greedy_reference(points, radius))
                    assert (cluster_points(points, radius, slack)
                            == _greedy_reference(points, radius, slack))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reference_property(self, data):
        dim = data.draw(st.sampled_from([0, 2, 3]))
        part = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 3.0, 4.0, 1e-6, *_SPECIAL]),
                         st.floats(-5.0, 5.0))
        width = max(dim, 1)
        base = [complex(*data.draw(st.tuples(part, part))) for _ in range(4 * width)]
        base = np.array(base).reshape(4, width)
        picks = data.draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(
            [0.0, 1e-9, 2e-6, 1e-3])), min_size=1, max_size=20))
        rows = [base[k] + np.eye(width)[0] * nudge for k, nudge in picks]
        points = [row[0] for row in rows] if dim == 0 else rows
        radius = data.draw(st.sampled_from([0.0, 1e-6, 0.25, 1.0]))
        slack = data.draw(st.none() | st.lists(
            st.sampled_from([0.0, 1e-7, 1e-3, 0.5, np.inf]),
            min_size=len(points), max_size=len(points)))
        with np.errstate(invalid="ignore", over="ignore"):
            assert (cluster_points(points, radius, slack)
                    == _greedy_reference(points, radius, slack))

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

    def test_overflow_advises_pointwise(self, monkeypatch):
        monkeypatch.setattr(dynamics, "DEFAULT_MAX_TERMS", 64)
        f = PolyMap.from_coeffs_1d([1, 1, 1, 1, 1])
        with pytest.warns(UserWarning, match="safety cap"):
            with pytest.raises(TermOverflowError, match="pointwise"):
                iterate(f, 8)

    def test_overflow_warning(self, monkeypatch):
        monkeypatch.setattr(dynamics, "DEFAULT_MAX_TERMS", 100)
        f = PolyMap.from_coeffs_1d([0, 0, 1])
        with pytest.warns(UserWarning, match="safety cap"):
            try:
                iterate(f, 14)
            except TermOverflowError:
                pass


def _approximating(roots):
    """A stand-in for ``dynamics._approximations`` that returns ``roots``."""
    roots = np.asarray(roots, dtype=complex)
    return lambda f, r: (roots, dynamics._certificate(f, r, roots))


def _counted_ratio(f, r, sweeps):
    """The Newton ratio of f^r(z) - z, appending to ``sweeps`` per call."""
    return lambda z: sweeps.append(1) or dynamics._orbit_ratio(f, r, z)[1]


ROOTS_OF_UNITY = [1 + 0j, -1 + 0j, 1j, -1j]
# roots of unity of order 3, 6, 8 and 5 to double precision: none is exact
DECIMAL_ROTATIONS = [complex(-0.5, 0.8660254037844386),
                     complex(0.5, 0.8660254037844386),
                     complex(0.7071067811865476, 0.7071067811865476),
                     complex(0.30901699437494745, 0.9510565162951535)]


def _affine_iterate_is_identity(a, b, r):
    """Whether f^r = id for f = az + b, in exact arithmetic over Q(i):
    f^r(z) = a^r z + b (1 + a + ... + a^(r-1))."""
    def times(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    a, b = ((Fraction(z.real), Fraction(z.imag)) for z in (a, b))
    power, total = (1, 0), (0, 0)
    for _ in range(r):
        total = (total[0] + power[0], total[1] + power[1])
        power = times(power, a)
    return power == (1, 0) and times(b, total) == (0, 0)


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

    @given(a=st.sampled_from(ROOTS_OF_UNITY + DECIMAL_ROTATIONS)
           | st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
           b=st.sampled_from([0j, 1e-13 + 0j])
           | st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
           r=st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    # a fixed point near -1.44e306, past where an escape cut for degree >= 2
    # and rounding the real part to 1e-9 both overflow
    @example(a=1 + 6.942184854552086e-307j, b=1j, r=1)
    # b / (1 - a) is -inf, and -1.44e306 + inf i
    @example(a=1 + 6.942184854552086e-307j, b=125j, r=1)
    @example(a=1 + 6.942184854552086e-307j, b=125 + 1j, r=1)
    def test_affine_identity_is_exact(self, a, b, r):
        got = periodic_points_1d(PolyMap.from_coeffs_1d([b, a]), r)
        if _affine_iterate_is_identity(a, b, r):
            assert got is ALL_POINTS
        else:  # the fixed point, the one root of f^r(z) - z where a != 1,
            # unless it is past the float range
            fixed = b / (1 - a) if a != 1 else complex("inf")
            assert got == ([fixed] if np.isfinite(fixed) else [])

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
        assert periodic_orbits(f, 1)[1] == {"complete": False}

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
        monkeypatch.setattr(dynamics, "_approximations",
                            _approximating([2e-6, 8e-6]))
        detail = periodic_points_1d(f, 1, detail=True)
        assert len(detail.points) < 2
        assert len(detail.unresolved) == 2

    def test_covering_disk_is_dropped_alone(self, monkeypatch):
        # g = f(z) - z = (z^2 - 1e-10)(z - 1): roots +-1e-5 and 1.  The
        # approximation 0 passes the residual test, but g'(0) = -1e-10 gives
        # it a Newton disk of radius 3 that covers the other two, whose tiny
        # disks are disjoint: only the covering disk goes
        f = PolyMap.from_coeffs_1d([1e-10, 1 - 1e-10, -1, 1])
        monkeypatch.setattr(dynamics, "_approximations",
                            _approximating([0, 1e-5, 1]))
        detail = periodic_points_1d(f, 1, detail=True)
        assert detail.points == (1e-5, 1) and detail.multiplicities == (1, 1)
        assert detail.unresolved == (0j,)
        assert abs(detail.points[1] - detail.points[0]) > sum(detail.radii)

    def test_stalled_root_freezes(self):
        # a root of z^2 - 2 near 0.0483 keeps an Aberth step of 1.2e-15, above
        # 4 eps (1 + |z|), and used to run the whole 20 * 256 sweep budget
        f, sweeps = PolyMap.from_coeffs_1d([-2, 0, 1]), []
        roots = durand_kerner(_counted_ratio(f, 8, sweeps),
                              dynamics._escape_tree(f, 8)[-1])
        assert len(sweeps) <= 60
        _, _, _, ok, meets = dynamics._certificate(f, 8, roots)
        assert ok.all() and not meets.any()

    def test_coincident_starts_are_moved_apart(self, monkeypatch):
        # two equal starts make 1 / (z_i - z_j) infinite; that row used to
        # keep the whole 20 * 8 sweep budget, and one root came back twice
        # while both fixed points (1 +- sqrt 5) / 2 were missing
        sweeps = []
        starts = dynamics._escape_tree(SQUARE_MINUS_1, 3)[-1].copy()
        starts[1] = starts[0]
        roots = durand_kerner(_counted_ratio(SQUARE_MINUS_1, 3, sweeps), starts)
        assert len(sweeps) <= 40
        for p in ((1 + 5 ** 0.5) / 2, (1 - 5 ** 0.5) / 2):
            assert np.min(np.abs(roots - p)) < 1e-12
        monkeypatch.setattr(dynamics, "_approximations", _approximating(roots))
        detail = periodic_points_1d(SQUARE_MINUS_1, 3, detail=True)
        assert len(detail.points) == 8 and detail.multiplicities == (1,) * 8

    def test_row_with_no_newton_ratio_freezes(self):
        # g = z^2 - 1 with its Newton ratio NaN at the first start: no step
        # can move that row, which used to stay active for the whole budget
        sweeps, starts = [], np.array([0.3 + 0.2j, 2.0 - 1.0j])

        def ratio(z):
            sweeps.append(1)
            return np.where(z == starts[0], np.nan, (z * z - 1) / (2 * z))

        roots = durand_kerner(ratio, starts)
        assert len(sweeps) <= 10 and roots[0] == starts[0]

    def test_only_uncertified_rows_reach_aberth(self, monkeypatch):
        # cyclic Newton from the preimage tree certifies all but a few of
        # the 4096 roots of f^12(z) - z; Aberth moves only those
        rows, solve = [], dynamics.durand_kerner

        def counting(ratio, starts, moving=None):
            rows.append(len(starts) if moving is None else len(moving))
            return solve(ratio, starts, moving)

        monkeypatch.setattr(dynamics, "durand_kerner", counting)
        detail = periodic_points_1d(SQUARE_MINUS_1, 12, detail=True)
        assert len(detail.points) == 4096 and detail.unresolved == ()
        assert len(rows) <= 1 and sum(rows) <= 64

    @pytest.mark.parametrize("coeffs, r", [
        (coeffs, r) for coeffs in (
            [-1, 0, 1], [1j, 0, 1], [0.25, 0, 1], [-0.75, 0, 1],
            [-0.12 + 0.74j, 0, 1],  # the rabbit
            [0.33202574981319277 + 0.4621597843756524j, 0, 1],  # quadc
            [0.5, -1, 0, 2])
        for r in range(1, 9) if (len(coeffs) - 1) ** r <= 256])
    def test_shooting_matches_aberth_alone(self, monkeypatch, coeffs, r):
        # z^2 + 1/4 and z^2 - 3/4 (even r) have multiple roots, which only
        # the run from all the leaves settles: that result is returned as is
        f = PolyMap.from_coeffs_1d(coeffs)
        new = periodic_points_1d(f, r, detail=True)

        def aberth_alone(f, r):
            leaves = dynamics._escape_tree(f, r)[-1]
            return _approximating(durand_kerner(_counted_ratio(f, r, []), leaves))(f, r)

        monkeypatch.setattr(dynamics, "_approximations", aberth_alone)
        ref = periodic_points_1d(f, r, detail=True)
        assert new.multiplicities == ref.multiplicities
        assert new.unresolved == ref.unresolved
        if ref.multiplicities != (1,) * f.degree ** r:
            assert new == ref
            return
        p, q = np.array(new.points), np.array(ref.points)
        near = np.argmin(np.abs(p[:, None] - q[None, :]), axis=1)
        assert sorted(near) == list(range(len(q)))
        assert np.all(np.abs(p - q[near])
                      <= np.array(new.radii) + np.array(ref.radii)[near])

    def test_a_shot_root_is_polished_to_rounding(self):
        # g(w) = f(s w) / s has the fixed points of f over s.  Shot alone,
        # g's root near (1.28 - 1.80i) / s closed within TOL_ORBIT with a
        # Newton ratio of 8.4e-5, a million times its rounding slack, and
        # kept a disk of radius 2.5e-4; Aberth polishes it
        coeffs, s = [1.3212j, 0.5j, 1.3212j, 0.5521], 2.0 ** -14
        want = periodic_points_1d(PolyMap.from_coeffs_1d(coeffs), 1, detail=True)
        got = periodic_points_1d(
            PolyMap.from_coeffs_1d([c * s ** (j - 1) for j, c in enumerate(coeffs)]),
            1, detail=True)
        assert np.allclose(np.array(got.points) * s, want.points, rtol=1e-15, atol=0)
        assert max(got.radii) * s <= 1e-13  # in f's coordinates, as want's

    def test_meeting_matches_all_pairs(self):
        # integer centres and half-integer radii make exact touching pairs
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = int(rng.integers(0, 40))
            z = rng.integers(-6, 7, n) + 1j * rng.integers(-6, 7, n)
            if trial % 2:
                z = z * rng.uniform(0.5, 2) + rng.normal() * 1e3
            radii = rng.integers(0, 6, n) / 2.0
            if trial % 5 == 0 and n:
                radii[rng.integers(n)] = np.inf
            hit = np.abs(z[:, None] - z[None, :]) <= radii[:, None] + radii[None, :]
            np.fill_diagonal(hit, False)
            assert np.array_equal(dynamics._meeting(z, radii), hit.any(axis=1))

    def test_preimage_levels_keep_their_parents(self):
        levels = dynamics._escape_tree(PolyMap.from_coeffs_1d([0.5, -1, 0, 2]), 4)
        for k in range(1, 5):
            image = 2 * levels[k] ** 3 - levels[k] + 0.5
            parent = levels[k - 1][np.arange(3 ** k) // 3]
            assert np.allclose(image, parent, rtol=1e-9, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=2, max_size=3),
           lead=st.complex_numbers(min_magnitude=0.25, max_magnitude=2.0),
           earlier=st.lists(st.integers(1, 5), max_size=4), r=st.integers(1, 5))
    def test_tree_kept_on_the_map_matches_a_fresh_one(self, coeffs, lead, earlier, r):
        # the levels asked for earlier stay on the map, and deeper ones grow
        # from them: the same bits as a tree built at once on a fresh map
        f = PolyMap.from_coeffs_1d(coeffs + [lead])
        for k in earlier:
            dynamics._escape_tree(f, k)
        levels = dynamics._escape_tree(f, r)
        fresh = dynamics._escape_tree(PolyMap.from_coeffs_1d(coeffs + [lead]), r)
        assert len(levels) == len(fresh) == r + 1
        for level, want in zip(levels, fresh):
            assert np.array_equal(level.view(np.uint64), want.view(np.uint64))
            with pytest.raises(ValueError, match="read-only"):
                level[0] = 0

    def test_threads_growing_one_tree_keep_each_level_once(self, monkeypatch):
        # both threads build level 1 (one companion matrix) before either
        # keeps it: each tree, and the one kept on f, has the bits of a
        # tree grown alone
        fresh = dynamics._escape_tree(PolyMap.from_coeffs_1d([-1, 0, 1]), 4)
        barrier, eigvals = threading.Barrier(2, timeout=30), np.linalg.eigvals

        def together(a):
            if len(a) == 1:
                barrier.wait()
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", together)
        f = PolyMap.from_coeffs_1d([-1, 0, 1])
        with ThreadPoolExecutor(2) as pool:
            runs = [pool.submit(dynamics._escape_tree, f, 4) for _ in range(2)]
            trees = [run.result() for run in runs]
        for levels in trees + [f._escape_levels]:
            assert list(map(_bits, levels)) == list(map(_bits, fresh))

    def test_one_tree_serves_every_period(self, monkeypatch):
        # r = 1, ..., 8 on one map builds each level once: 8 eigvals calls
        # over 1, 2, ..., 128 companion matrices, not 36
        calls, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(len(a)) or eigvals(a))
        f = PolyMap.from_coeffs_1d([-1, 0, 1])  # a map with no tree built yet
        orbits = periodic_orbits(f, 8)[0]
        found = [sum(orbit.period == r for orbit in orbits) for r in range(1, 9)]
        assert found == [2, 2, 6, 12, 30, 54, 126, 240]  # r nu_2(r) points
        assert calls == [2 ** k for k in range(8)]

    def test_grown_tree_overflow_names_z0_and_the_requested_iterate(self):
        # an overflow past a kept level names the tree's root z0 and the
        # f^r asked for, not the level the growth started from
        c = np.array([-1, 0, 0.5], dtype=complex)  # (1e308 + 1) / 0.5 overflows
        levels = [np.array([3 + 4j]), np.array([1e308, -1e308], dtype=complex)]
        message = ("the preimages of 3+4j under f^5 overflow: the coefficients "
                   "of f are out of floating-point range")
        with pytest.raises(PreconditionError) as err:
            dynamics._preimages(c, 5, levels)
        assert str(err.value) == message and len(levels) == 2
        f = PolyMap.from_coeffs_1d([-np.finfo(float).max, 0, 1])
        z0 = np.finfo(float).max * np.exp(0.7j)
        for r in (1, 2):
            with pytest.raises(PreconditionError) as err:
                dynamics._escape_tree(f, r)
            assert str(err.value) == (
                f"the preimages of {z0:.6g} under f^{r} overflow: the "
                "coefficients of f are out of floating-point range")

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
            assert abs(orbit_points(f, [p], 4)[-1][0] - p) <= 1e-8 * (1 + abs(p))

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


# a quadratic up to period 6 or a cubic up to period 4: ascending
# coefficients below the leading one, the leading one, and r_max
_QUADRATIC_OR_CUBIC = st.sampled_from([(2, 6), (3, 4)]).flatmap(lambda kind: st.tuples(
    st.lists(st.complex_numbers(max_magnitude=2.0), min_size=kind[0], max_size=kind[0]),
    st.complex_numbers(min_magnitude=0.25, max_magnitude=2.0), st.integers(1, kind[1])))

# a point that stays small, a large one that passes the escape bound at once
# or after a step, or one that is not finite
_ORBIT_RATIO_POINT = st.builds(complex, *[
    st.floats(-4.0, 4.0) | st.sampled_from([1e150, -1e250, np.inf, -np.inf, np.nan])] * 2)
# z^2 + c whose shot disks meet at r = 7, so that period goes back to
# Aberth-Ehrlich: the c of bench/inputs/quadc_r7_selfcheck.json
QUADC = 0.33202574981319277 + 0.4621597843756524j


class TestShootingLockstep:
    """``periodic_orbits`` shoots every one-variable period of at most
    ``SHOOTING_BATCH`` roots in one ``_shoot`` lockstep before it walks any;
    each row keeps the bits it has when its period is shot alone, and every
    error is the one the periods gave in turn."""

    @settings(max_examples=40, deadline=None)
    @given(drawn=_QUADRATIC_OR_CUBIC)
    def test_each_period_keeps_the_bits_it_has_alone(self, drawn):
        coeffs, lead, r_max = drawn
        f = PolyMap.from_coeffs_1d(coeffs + [lead])
        dynamics._escape_tree(f, r_max)
        periods = tuple(range(r_max, 0, -1))
        shot = dynamics._shoot(f, periods)
        assert [len(roots) for roots in shot] == [f.degree ** r for r in periods]
        for r, roots in zip(periods, shot):
            assert _bits(roots) == _bits(dynamics._shoot(f, (r,))[0])

    @settings(max_examples=25, deadline=None)
    @given(drawn=_QUADRATIC_OR_CUBIC)
    def test_orbits_match_each_period_on_a_fresh_map(self, drawn):
        coeffs, lead, r_max = drawn
        f = PolyMap.from_coeffs_1d(coeffs + [lead])
        orbits, search, _ = periodic_orbits(f, r_max)
        assert sorted(f._shot_roots) == list(range(1, r_max + 1))
        want, complete = [], True
        for r in range(1, r_max + 1):
            found, record = orbits_of_period(PolyMap.from_coeffs_1d(coeffs + [lead]), r)
            want += [o for o in found if o.period == r]
            complete = complete and record["complete"]
        assert search == {"complete": complete}
        assert ([(_bits(o.points), _bits(o.multipliers), _bits(o.residual)) for o in orbits]
                == [(_bits(o.points), _bits(o.multipliers), _bits(o.residual))
                    for o in want])

    @settings(max_examples=60, deadline=None)
    @given(drawn=_QUADRATIC_OR_CUBIC, scale=st.sampled_from([1.0, 2.0 ** 600]),
           rows=st.lists(st.tuples(st.integers(1, 6), _ORBIT_RATIO_POINT), max_size=40),
           bound=st.booleans())
    def test_per_row_periods_keep_the_bits_of_each_period(self, drawn, scale, rows, bound):
        # coefficients scaled by 2^600 put the escape bound near 1e60, which
        # f(1) already passes: such rows take the escape branch at stage 1
        coeffs, lead, _ = drawn
        f = PolyMap.from_coeffs_1d([c * scale for c in coeffs + [lead]])
        rows = sorted(rows, key=lambda row: row[0])  # r ascends over the rows
        periods = np.array([r for r, _ in rows], dtype=int)
        z = np.array([p for _, p in rows], dtype=complex)
        batched = dynamics._orbit_ratio(f, periods, z, bound)
        for r in set(periods.tolist()):
            alone = dynamics._orbit_ratio(f, r, z[periods == r], bound)
            for got, want in zip(batched, alone):
                assert (got is want is None) or _bits(got[periods == r]) == _bits(want)

    @settings(max_examples=30, deadline=None)
    @given(drawn=_QUADRATIC_OR_CUBIC,
           awkward=st.lists(st.tuples(st.integers(0, 2 ** 16), _ORBIT_RATIO_POINT),
                            max_size=6))
    def test_batched_certificates_keep_the_bits_of_each_period(self, drawn, awkward):
        # shot roots, some replaced by points whose disks are infinite or NaN
        coeffs, lead, r_max = drawn
        f = PolyMap.from_coeffs_1d(coeffs + [lead])
        dynamics._escape_tree(f, r_max)
        periods = tuple(range(1, r_max + 1))
        shots = [roots.copy() for roots in dynamics._shoot(f, periods[::-1])[::-1]]
        for k, p in awkward:
            roots = shots[k % len(shots)]
            roots[k % len(roots)] = p
        batched = dynamics._certificates(f, periods, shots)
        for r, roots, cert in zip(periods, shots, batched):
            alone = dynamics._certificate(f, r, roots)
            assert [_bits(a) for a in cert] == [_bits(a) for a in alone]

    def test_kept_roots_are_read_only_and_copied(self, monkeypatch):
        # a period with more roots than SHOOTING_BATCH is shot alone in its
        # own search, and so is kept by none
        monkeypatch.setattr(dynamics, "SHOOTING_BATCH", 4)
        f = PolyMap.from_coeffs_1d([-1, 0, 1])
        periodic_orbits(f, 3)
        assert sorted(f._shot_roots) == [1, 2]
        for kept in (f._shot_roots[2][0], *f._shot_roots[2][1]):
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 0
        everything = [a for roots, cert in f._shot_roots.values() for a in (roots, *cert)]
        roots, cert = dynamics._approximations(f, 2)
        for handed in (roots, *cert):
            assert handed.flags.writeable
            assert not any(np.shares_memory(handed, kept) for kept in everything)

    def test_going_back_to_aberth_leaves_the_kept_arrays(self, monkeypatch):
        f = PolyMap.from_coeffs_1d([QUADC, 0, 1])
        periodic_orbits(f, 7)
        assert f._shot_roots[7][1][4].any()  # two disks meet
        kept = {r: [_bits(a) for a in (roots, *cert)]
                for r, (roots, cert) in f._shot_roots.items()}
        for r in range(1, 8):
            assert repr(periodic_points_1d(f, r, detail=True)) == repr(
                periodic_points_1d(PolyMap.from_coeffs_1d([QUADC, 0, 1]), r, detail=True))
        # every disk meets another: at r = 7, where the kept certificate
        # sends rows back to Aberth, periodic_points_1d drops every disk
        monkeypatch.setattr(dynamics, "_meeting", lambda z, radii: np.ones(len(z), bool))
        assert periodic_points_1d(f, 7, detail=True).points == ()
        assert {r: [_bits(a) for a in (roots, *cert)]
                for r, (roots, cert) in f._shot_roots.items()} == kept

    def test_an_overflow_below_r_max_names_its_own_iterate(self, monkeypatch):
        # the level that eigvals builds second is infinite, so level 3
        # overflows: the tree grows a level at a time before the lockstep,
        # and the error names f^3, as the search of each period in turn
        # did, not the f^5 of a tree grown at once
        calls, eigvals = [], np.linalg.eigvals

        def infinite_second_level(a):
            calls.append(len(a))
            values = eigvals(a)
            return np.full_like(values, np.inf) if len(calls) == 2 else values

        monkeypatch.setattr(np.linalg, "eigvals", infinite_second_level)
        f = PolyMap.from_coeffs_1d([-1, 0, 1])
        with pytest.raises(PreconditionError) as err:
            periodic_orbits(f, 5)
        assert str(err.value) == (
            "the preimages of 2.29453+1.93265j under f^3 overflow: the "
            "coefficients of f are out of floating-point range")
        assert calls == [1, 2] and len(f._escape_levels) == 3


class TestResidueSum:
    """Over all D roots of f^r(z) - z, the t_i = 1 / ((f^r)'(z_i) - 1) sum
    to 0 (oracles.residue_sum): a check of a complete point list that
    its count cannot make, with a bound from the Newton disks' slack."""

    @settings(max_examples=40, deadline=None)
    @given(lower=st.lists(st.complex_numbers(max_magnitude=2.0, allow_subnormal=False),
                          min_size=2, max_size=3),
           lead=st.complex_numbers(min_magnitude=0.25, max_magnitude=2.0),
           r=st.integers(1, 4))
    def test_complete_lists_meet_the_bound(self, lower, lead, r):
        # quadratics and cubics; the sum needs every root, each simple
        f = PolyMap.from_coeffs_1d(lower + [lead])
        found = periodic_points_1d(f, r, detail=True)
        assume(len(found.points) == root_count_1d(f, r))
        bound = residue_bound(f, r, found.points, found.radii)
        assert residue_sum(f, r, found.points) <= bound
        for k in range(len(found.points)):  # every point is needed
            rest = found.points[:k] + found.points[k + 1:]
            assert not residue_sum(f, r, rest) <= bound

    def test_one_point_of_z2_minus_1_missing(self):
        found = periodic_points_1d(SQUARE_MINUS_1, 8, detail=True)
        assert len(found.points) == 256
        bound = residue_bound(SQUARE_MINUS_1, 8, found.points, found.radii)
        assert residue_sum(SQUARE_MINUS_1, 8, found.points) <= bound
        for k in range(256):
            rest = found.points[:k] + found.points[k + 1:]
            assert residue_sum(SQUARE_MINUS_1, 8, rest) > bound


_PART = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]) | st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e200, max_value=1e200)


class TestHorner:
    @settings(max_examples=300, deadline=None)
    @given(c=st.lists(st.builds(complex, _PART, _PART), min_size=1, max_size=6),
           x=st.lists(st.builds(complex, _PART, _PART), min_size=1, max_size=8))
    @example(c=[1 + 0j], x=[complex(np.inf, 0.0)])  # 0 * inf + 1 is NaN
    def test_matches_polyval_bit_for_bit(self, c, x):
        c, x = np.array(c, dtype=complex), np.array(x, dtype=complex)
        with np.errstate(all="ignore"):
            for coeffs, points in [(c, x), (np.abs(c), np.abs(x))]:
                got, want = dynamics._horner(coeffs, points), np.polyval(coeffs, points)
                assert got.dtype == want.dtype
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


class TestTaylorExpansion:
    def test_base_point_of_another_space_is_rejected(self):
        u = PolyFunc(2, {(1, 1): 1.0})
        for base in ((0j,), (0j, 0j, 0j)):
            with pytest.raises(StructureError, match="base point has length"):
                u.to_jet(base, 3)
        with pytest.raises(StructureError, match="base point has length 1"):
            HENON.to_jetmap((1j,), 3)

    def test_moved_base(self):
        # z^2 at 1 + w is 1 + 2w + w^2
        jet = PolyFunc(1, {(2,): 1.0}).to_jet((1.0,), 2)
        assert jet.coeffs == {(0,): 1 + 0j, (1,): 2 + 0j, (2,): 1 + 0j}

    def test_overflowing_expansion_names_the_base_point(self):
        # (1e200)^2 is past float range: a precondition on the point, not a
        # malformed jet
        with pytest.raises(PreconditionError) as err:
            PolyFunc(2, {(2, 0): 1.0}).to_jet((1e200, 0), 2)
        assert str(err.value) == "the Taylor expansion at ((1e+200+0j), 0j) overflows"
        with pytest.raises(PreconditionError) as err:
            HENON.to_jetmap((0, 1e200), 2)
        assert str(err.value) == "the Taylor expansion at (0j, (1e+200+0j)) overflows"


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

    def test_overflowing_product_is_not_finite_without_a_warning(self):
        # 1 + 1e300 z^40 is finite at each of three points, and its product
        # over them overflows; pytest turns any RuntimeWarning into an error
        u = PolyFunc(1, {(0,): 1.0, (40,): 1e300})
        points = [np.array([1.2 + 0j]), np.array([1.1 + 0j]), np.array([0.9 + 0j])]
        assert all(np.isfinite(u(p)) for p in points)
        assert not np.isfinite(weight_cocycle(u, points))

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
                weight_cocycle(u, orbit_points(f, orbit_points(f, p, a + 1)[-1], b))
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

    def test_cocycle_poly_overflow(self, monkeypatch):
        # u_3 = u (u o f) (u o f^2) has degree 7, so 8 terms; every
        # factor and power on the way has at most 5
        f = PolyMap.from_coeffs_1d([0.1, -0.7, 0.4])
        u = PolyFunc(1, {(0,): 1.0, (1,): 2.0})
        monkeypatch.setattr(dynamics, "DEFAULT_MAX_TERMS", 8)
        assert len(cocycle_poly(u, f, 3).terms) == 8
        monkeypatch.setattr(dynamics, "DEFAULT_MAX_TERMS", 7)
        with pytest.raises(TermOverflowError, match="grew to 8 terms"):
            cocycle_poly(u, f, 3)


def _newton_reference(f, r, config):
    """The multistart as it ran before its early exit and its lockstep: all
    NEWTON_STEPS steps, even once no start is left, one period at a time, on
    the same per-step helpers.  Returns (points, converged)."""
    d = f.dim
    rng = np.random.default_rng(config.seed)
    rad = rng.uniform(0.0, 1.0, size=(config.starts, d)) ** 0.5 * dynamics.START_RADIUS
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(config.starts, d))
    z = rad * np.exp(1j * ang)
    live = np.arange(config.starts)
    converged = np.zeros(config.starts, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(dynamics.NEWTON_STEPS):
            w, jac = z[live], np.eye(d).reshape(d * d, 1)
            for _ in range(r):
                w, step_jac = f.evaluate_batch(w)
                jac = dynamics._chain(step_jac, jac)
            fv = w - z[live]
            done = (np.linalg.norm(fv, axis=1) <= dynamics.NEWTON_RESIDUAL
                    * (1.0 + np.linalg.norm(z[live], axis=1)))
            converged[live[done]] = True
            step, solved = dynamics._solve(np.array(jac) - np.eye(d).reshape(d * d, 1), fv)
            live, step = live[~done & solved], step[~done & solved]
            z[live] -= step
            live = live[np.linalg.norm(z[live], axis=1) <= dynamics.ESCAPE_NORM]
    found = list(z[converged])
    clusters = _greedy_reference(found, dynamics.DEDUP_RADIUS)
    return tuple(tuple(found[cl[0]]) for cl in clusters), len(found)


def _random_stack(rng, n, d=2):
    return rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))


def _entries(m):
    """The d * d entry arrays of a stack (N, d, d), row-major."""
    return m.reshape(len(m), -1).T


def _chain_2x2(step, m):
    """The 2x2 chain as the multistart wrote it before it served every d."""
    p, q, s, t = step.reshape(-1, 4).T
    a, b, c, d = m
    return p * a + q * c, p * b + q * d, s * a + t * c, s * b + t * d


def _solve_2x2(m, v):
    """The 2x2 Cramer solve as the multistart wrote it before it served every d."""
    a, b, c, d = m
    det = a * d - b * c
    x = np.stack([d * v[:, 0] - b * v[:, 1], a * v[:, 1] - c * v[:, 0]], axis=1)
    return x / np.where(det == 0, np.inf, det)[:, None], det != 0


def _awkward_2x2(rng, n):
    """A step, a chain and a right-hand side of height n whose rows past the
    first hold a singular chain, inf and NaN entries and an inf value."""
    step, m = _random_stack(rng, n), _random_stack(rng, n)
    v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    for k, row in enumerate(range(1, n)):
        if k % 4 == 0:
            m[row, 1] = 0.0  # det == 0
        elif k % 4 == 1:
            step[row, 0, 1], m[row, 1, 1] = np.inf, complex(np.nan, 1.0)
        elif k % 4 == 2:
            m[row, 0, 0], v[row, 1] = complex(1.0, np.inf), np.inf
        else:
            m[row] = 0.0
    return step, m, v


class TestJacobianChain:
    """The multistart keeps D(f^r) as d * d entry arrays, not a stack of
    d x d matrices, and solves on them by Cramer's rule."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1600])
    def test_two_variables_keep_the_2x2_bits(self, n):
        # bit for bit, NaN rows included: numpy's complex product is not
        # commutative in the last bit, so every operand order is kept
        step, m, v = _awkward_2x2(np.random.default_rng(n), n)
        with np.errstate(all="ignore"):
            got, want = dynamics._chain(step, _entries(m)), _chain_2x2(step, _entries(m))
            assert np.stack(got).tobytes() == np.stack(want).tobytes()
            (x, ok), (want_x, want_ok) = (dynamics._solve(_entries(m), v),
                                          _solve_2x2(_entries(m), v))
        assert x.tobytes() == want_x.tobytes() and ok.tolist() == want_ok.tolist()
        assert not ok[1::4].any()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_matmul(self, d):
        rng = np.random.default_rng(6)
        step, m = _random_stack(rng, 60, d), _random_stack(rng, 60, d)
        step[3, 0, 1], step[5, 1, 1] = np.inf, complex(np.nan, 0.0)
        m[7, 0, 0], m[9] = complex(1.0, np.inf), np.nan
        with np.errstate(all="ignore"):
            got = np.stack(dynamics._chain(step, _entries(m)), axis=1)
            want = np.matmul(step, m).reshape(60, -1)
            # d complex products and d - 1 sums, in either order
            bound = (2 * d * np.finfo(float).eps
                     * (np.abs(step) @ np.abs(m)).reshape(60, -1))
        # an overflowing row may give inf where zgemm gives NaN
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert np.flatnonzero(~np.isfinite(got).all(axis=1)).tolist() == [3, 5, 7, 9]
        ok = np.isfinite(want)
        assert np.all(np.abs(got - want)[ok] <= bound[ok])

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_row_does_not_depend_on_the_stack(self, d):
        # gemm and gemv may block a stack by its height; ufuncs go entry
        # by entry
        rng = np.random.default_rng(9)
        step, m = _random_stack(rng, 1600, d), _random_stack(rng, 1600, d)
        v = rng.normal(size=(1600, d)) + 1j * rng.normal(size=(1600, d))
        rows = [np.stack(dynamics._chain(step[:n], _entries(m[:n]))) for n in (1, 7, 1600)]
        xs = [dynamics._solve(_entries(m[:n]), v[:n])[0] for n in (1, 7, 1600)]
        assert rows[0].tobytes() == rows[1][:, :1].copy().tobytes()
        assert rows[1].tobytes() == rows[2][:, :7].copy().tobytes()
        assert xs[0].tobytes() == xs[1][:1].tobytes()
        assert xs[1].tobytes() == xs[2][:7].tobytes()

    @pytest.mark.parametrize("d", [3, 4])
    def test_solve_matches_lapack(self, d):
        # Cramer's rule is forward stable for small d: within
        # 8 d eps cond(m) ||x|| of LAPACK's solution
        rng = np.random.default_rng(d)
        m = _random_stack(rng, 1600, d)
        v = rng.normal(size=(1600, d)) + 1j * rng.normal(size=(1600, d))
        x, ok = dynamics._solve(_entries(m), v)
        want = np.linalg.solve(m, v[..., None])[..., 0]
        bound = (8 * d * np.finfo(float).eps * np.linalg.cond(m)
                 * np.linalg.norm(want, axis=1))
        assert ok.all() and np.all(np.linalg.norm(x - want, axis=1) <= bound)

    @pytest.mark.parametrize("d", [3, 4])
    def test_singular_rows_are_dropped_alone(self, d):
        rng = np.random.default_rng(d)
        # every term of a Laplace expansion of m[2] or m[3] has a factor 0
        m = _random_stack(rng, 4, d)
        m[2], m[3, :, 1] = 0.0, 0.0
        v = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
        x, ok = dynamics._solve(_entries(m), v)
        assert ok.tolist() == [True, True, False, False]
        assert np.allclose(x[:2], np.linalg.solve(m[:2], v[:2, :, None])[..., 0],
                           rtol=1e-13)
        assert np.all(x[2:] == 0)


class TestPeriodicPoints2D:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_stops_when_no_start_is_left(self, monkeypatch, seed):
        rows = []
        evaluate = PolyMap.evaluate_batch

        def counting(self, points):
            rows.append(len(points))
            return evaluate(self, points)

        for r in (1, 2, 3, 4):
            config = SearchConfig(starts=400, seed=seed)
            want = _newton_reference(HENON, r, config)
            rows.clear()
            monkeypatch.setattr(PolyMap, "evaluate_batch", counting)
            res = periodic_points_2d(HENON, r, config)
            monkeypatch.setattr(PolyMap, "evaluate_batch", evaluate)
            assert rows and min(rows) > 0
            assert len(rows) < r * dynamics.NEWTON_STEPS
            assert (res.points, res.converged) == want

    def test_no_starts_finds_nothing(self):
        res = periodic_points_2d(HENON, 2, SearchConfig(starts=0, seed=1))
        assert (res.points, res.converged, res.starts) == ((), 0, 0)

    @pytest.mark.parametrize("fields", [
        {"starts": -1}, {"starts": 2.5}, {"starts": True}, {"starts": "3"},
        {"seed": 1.0}, {"seed": False}, {"seed": None}, {"seed": -1},
    ], ids=["negative", "float", "bool", "str", "float-seed", "bool-seed",
            "none-seed", "negative-seed"])
    def test_invalid_budget_rejected(self, fields):
        with pytest.raises(PreconditionError, match="SearchConfig"):
            SearchConfig(**fields)

    def test_numpy_int_budget_accepted(self):
        assert SearchConfig(np.int64(3), np.int32(4)) == SearchConfig(3, 4)

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

    def test_period_zero_rejected(self):
        # f^0 has no Jacobian chain to solve with
        with pytest.raises(PreconditionError, match="r >= 1"):
            periodic_points_2d(HENON, 0, SearchConfig(starts=10))

    def test_singular_system_is_dropped_alone(self):
        m = np.array([[[2, 1], [1, 1]], [[1, 2], [2, 4]], [[0, 1j], [1, 0]]],
                     dtype=complex)
        b = np.array([[3, 2], [1, 1], [1j, 2]], dtype=complex)
        x, ok = dynamics._solve(_entries(m), b)
        assert ok.tolist() == [True, False, True]
        for i in (0, 2):
            assert np.allclose(x[i], np.linalg.solve(m[i], b[i]), rtol=1e-15)
        assert np.all(np.isfinite(x))


def _multistart_cuts():
    """The cuts ``certify`` printed for the multistart when ``cli`` read them."""
    return {"newton_residual": dynamics.NEWTON_RESIDUAL,
            "escape_norm": dynamics.ESCAPE_NORM, "dedup_radius": dynamics.DEDUP_RADIUS}


def _per_period_orbits(f, r_max, config):
    """periodic_orbits on C^d, d >= 2, as it ran before one lockstep served
    every period: a one-period multistart per period, then the walks."""
    orbits, search = [], {"complete": False}
    for r in range(1, r_max + 1):
        result = dynamics._newton_lockstep(f, (r,), config)[0]
        search[f"r={r}"] = {"starts": result.starts,
                            "converged": result.converged, "seed": result.seed}
        for p in result.points:
            try:
                orbit = make_orbit(f, p, r)
            except OrbitError:
                continue
            if orbit.period == r:
                orbits.append(orbit)
    return orbits, search, _multistart_cuts()


def _orbit_bits(found):
    orbits, search, cuts = found
    return search, cuts, [(o.period, o.stability, _bits(o.points), _bits(o.multipliers),
                     _bits(o.residual)) for o in orbits]


def _generator_reference(f, r_max, config):
    """The search as it once ran, a generator of (r, orbits, record) per
    period, folded into one orbit list and one search block the way
    ``certify`` did: the reference for what periodic_orbits returns."""
    def verified(r, points, record):
        orbits = []
        for p in points:
            try:
                orbits.append(make_orbit(f, p, r))
            except OrbitError:
                record["complete"] = False
        return orbits, record

    def of_period(r):
        found = periodic_points_1d(f, r)
        if isinstance(found, AllPoints):
            return verified(r, [np.array([GENERIC_POINT])], {"complete": False})
        record = {"complete": len(found) == root_count_1d(f, r)}
        return verified(r, [np.array([z]) for z in found], record)

    def generator():
        if f.dim > 1:
            searches = dynamics._newton_lockstep(f, range(r_max, 0, -1), config)[::-1]
            found = (verified(r, s.points, {
                "complete": False, "starts": s.starts, "converged": s.converged,
                "seed": s.seed}) for r, s in enumerate(searches, 1))
        else:
            found = (of_period(r) for r in range(1, r_max + 1))
        for r, (orbits, record) in enumerate(found, 1):
            yield r, [orbit for orbit in orbits if orbit.period == r], record

    orbits, complete, runs = [], True, {}
    for r, found, record in generator():
        orbits.extend(found)
        complete = record.pop("complete") and complete
        if record:
            runs[f"r={r}"] = record
    return orbits, {"complete": complete, **runs}, _multistart_cuts() if f.dim > 1 else {}


_COEFF = st.complex_numbers(max_magnitude=2.0, allow_subnormal=False)


@st.composite
def _maps_2d(draw):
    """Henon maps (y, p(y) - delta x) with deg p in 2..3, and other maps on
    C^2 of degree at most 3 with a few terms per component."""
    if draw(st.booleans()):
        p = draw(st.lists(_COEFF, min_size=3, max_size=4))
        p[-1] = p[-1] or 1.0
        delta = draw(_COEFF.filter(lambda c: c != 0))
        return PolyMap(2, ({(0, 1): 1.0}, {**{(0, k): c for k, c in enumerate(p)},
                                           (1, 0): -delta}))
    alpha = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda a: sum(a) <= 3)
    return PolyMap(2, tuple(draw(st.dictionaries(alpha, _COEFF, min_size=1,
                                                 max_size=4)) for _ in range(2)))


@st.composite
def _maps_3d(draw):
    """Maps on C^3 of degree at most 3 with a few terms per component."""
    alpha = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda a: sum(a) <= 3)
    return PolyMap(3, tuple(draw(st.dictionaries(alpha, _COEFF, min_size=1,
                                                 max_size=4)) for _ in range(3)))


class TestStackRows:
    """A row of a batch evaluation has the same bits alone as in any stack."""

    @settings(max_examples=12, deadline=None)
    @given(st.one_of(_maps_2d(), _maps_3d()), st.integers(0, 1000))
    def test_a_row_does_not_depend_on_the_stack(self, f, seed):
        rng = np.random.default_rng(seed)
        z = 2.0 * (rng.normal(size=(1600, f.dim)) + 1j * rng.normal(size=(1600, f.dim)))
        z[:100] *= 10.0 ** rng.uniform(60, 200, size=(100, 1))  # powers overflow
        z[100, 0], z[107, -1], z[114] = np.inf, complex(np.nan, 1.0), np.nan
        exps = f._monomial_matrix[0]
        kernels = [lambda x: dynamics._monomial_values(x, exps), f.evaluate_batch,
                   f.values_batch, f.second_order_batch]
        with np.errstate(all="ignore"):
            for kernel in kernels:
                whole = _stack_rows(kernel(z))
                for i in range(0, 1600, 7):
                    for n in (1, 2, 7):
                        assert _stack_rows(kernel(z[i:i + n]))[0] == whole[i], (
                            f"row {i} of {kernel} in a stack of {n}")


def _stack_rows(out):
    """The bytes of each row of a batch result, one or a tuple of arrays."""
    outs = out if isinstance(out, tuple) else (out,)
    return [b"".join(a[i].tobytes() for a in outs) for i in range(len(outs[0]))]


class TestLockstep:
    """periodic_orbits on C^d, d >= 2, runs every period in one Newton
    lockstep, and each row keeps the bits of a search of its own period."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(_maps_2d(), _maps_3d()), st.integers(1, 4), st.integers(0, 60),
           st.integers(0, 1000))
    def test_matches_a_search_per_period(self, f, r_max, starts, seed):
        config = SearchConfig(starts=starts, seed=seed)
        assert (_orbit_bits(periodic_orbits(f, r_max, config))
                == _orbit_bits(_per_period_orbits(f, r_max, config)))

    @pytest.mark.parametrize("f, r_max, starts", [
        (PolyMap.linear(np.eye(2)), 3, 20),  # every row converges at step 0
        (PolyMap(2, ({(0, 1): 1}, {(1, 0): 1})), 4, 30),  # (z2, z1): singular
        (PolyMap(2, ({(3, 0): 1e300, (0, 1): 1}, {(0, 3): 1e300})), 3, 40),
        (HENON, 4, 1),  # one start: each block is one row, run as two copies
        (HENON, 4, 400),
        (PolyMap.linear(np.eye(3)), 3, 20),
        (PolyMap(3, ({(0, 1, 0): 1}, {(0, 0, 1): 1}, {(1, 0, 0): 1})), 3, 30),
        (MIX3, 3, 200),
    ], ids=["identity", "swap", "overflow", "one-start", "henon", "identity-3",
            "cycle-3", "mix3"])
    def test_fixed_cases(self, monkeypatch, f, r_max, starts):
        config = SearchConfig(starts=starts, seed=3)
        rows, evaluate = [], PolyMap.evaluate_batch

        def counting(self, points):
            rows.append(len(points))
            return evaluate(self, points)

        want = [_newton_reference(f, r, config) for r in range(1, r_max + 1)]
        monkeypatch.setattr(PolyMap, "evaluate_batch", counting)
        for r in range(1, r_max + 1):
            dynamics._newton_lockstep(f, (r,), config)
        want_rows, rows[:] = rows[:], []
        found = dynamics._newton_lockstep(f, range(r_max, 0, -1), config)[::-1]
        monkeypatch.setattr(PolyMap, "evaluate_batch", evaluate)
        assert ([(_bits(res.points), res.converged) for res in found]
                == [(_bits(points), converged) for points, converged in want])
        # the same rows in fewer calls, none larger than one period's starts
        assert sum(rows) == sum(want_rows) and max(rows, default=0) <= starts
        assert len(rows) <= len(want_rows)
        assert (_orbit_bits(periodic_orbits(f, r_max, config))
                == _orbit_bits(_per_period_orbits(f, r_max, config)))

    def test_identity_converges_at_once(self):
        config = SearchConfig(starts=20, seed=5)
        found = dynamics._newton_lockstep(PolyMap.linear(np.eye(2)), (3, 2, 1), config)
        assert [(len(res.points), res.converged) for res in found] == [(20, 20)] * 3


class TestMakeOrbit:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of PolyMap.__call__ and PolyMap.jacobian, and the compiled
        tables that dynamics._poly_eval reads, in call order."""
        counts, tables = {"__call__": 0, "jacobian": 0}, []
        for name in counts:
            def counting(*args, _name=name, _method=getattr(PolyMap, name)):
                counts[_name] += 1
                return _method(*args)
            monkeypatch.setattr(PolyMap, name, counting)

        def reading(terms, z, _evaluate=dynamics._poly_eval):
            tables.append(terms)
            return _evaluate(terms, z)
        monkeypatch.setattr(dynamics, "_poly_eval", reading)
        return counts, tables

    @pytest.mark.parametrize("f, r, periods, points", [
        (SQUARE_MINUS_1, 6, {1, 2, 3, 6},
         lambda: [[p] for p in periodic_points_1d(SQUARE_MINUS_1, 6)]),
        (HENON, 4, {1, 2, 4},
         lambda: [(2.5, 2.5), (-1.2, -1.2)]  # its two fixed points
         + list(periodic_points_2d(HENON, 4, SearchConfig(starts=400)).points)),
    ], ids=["square-minus-1", "henon"])
    def test_one_walk_per_orbit(self, calls, f, r, periods, points):
        # r calls of f; in one variable the chain reads f' off its compiled
        # table once per point of the exact period, without a jacobian array
        counts, tables = calls
        seen = set()
        for p in points():
            counts.update({"__call__": 0, "jacobian": 0})
            tables.clear()
            orbit = make_orbit(f, p, r)
            if f.dim == 1:
                slopes = sum(t is f._terms[1][0][0] for t in tables)
                assert counts == {"__call__": r, "jacobian": 0}
                assert slopes == orbit.period
            else:
                assert counts == {"__call__": r, "jacobian": orbit.period}
            seen.add(orbit.period)
        assert seen == periods

    @pytest.mark.parametrize("coeffs, r", [
        ([-1, 0, 1], 8),
        # the monic cubic of the orbits-1d bench workload at seed 101
        ([0.0819349424353658 + 0.45586142076960334j,
          -0.1901103581365004 - 0.5023748452206457j,
          0.4532698611820751 - 0.08320577685661905j, 1], 4),
    ], ids=["square-minus-1", "cubic"])
    def test_one_variable_multiplier_is_the_matrix_chain(self, coeffs, r):
        # a 1x1 chain is its own eigenvalue: the scalar product must give
        # the bits of eigvals of the 1x1 @ chain
        f = PolyMap.from_coeffs_1d(coeffs)
        points = periodic_points_1d(f, r)
        assert len(points) == f.degree ** r
        for p in points:
            orbit = make_orbit(f, [p], r)
            jac = np.eye(1, dtype=complex)
            for x in orbit.points:
                jac = f.jacobian(x) @ jac
            assert _bits(orbit.multipliers) == _bits(np.linalg.eigvals(jac))

    @settings(max_examples=60, deadline=None)
    @given(_sparse_maps_1d(), st.integers(1, 4))
    @example(PolyMap.from_coeffs_1d([0, -1]), 2)  # f^2 is the identity
    def test_one_variable_multipliers_are_the_matrix_chain(self, f, r):
        # the same over random sparse maps with signed zeros and
        # coefficients up to 1e300.  0 is a fixed point where f has no
        # constant term; the other points have a period d dividing r with at
        # most 32 roots of f^d(z) - z, which keeps the root search quick
        points = [0j, complex(-0.0, -0.0)] if (0,) not in f.components[0] else []
        d = max(d for d in range(1, r + 1) if r % d == 0 and f.degree ** d <= 32)
        try:
            found = periodic_points_1d(f, d)
        except PreconditionError:  # companion matrices out of float range
            found = []
        points += [GENERIC_POINT] if isinstance(found, AllPoints) else found
        for p in points:
            try:
                orbit = make_orbit(f, [p], r)
            except OrbitError:
                continue
            jac = np.eye(1, dtype=complex)
            with np.errstate(all="ignore"):
                for x in orbit.points:
                    jac = f.jacobian(x) @ jac
            assert _bits(orbit.multipliers) == _bits(jac)
            # zgeev rescales a matrix whose largest |entry| is outside
            # [2^-459, 2^459] (sqrt(tiny) / eps and its inverse), which can
            # move the last bits of a 1x1 matrix's eigenvalue off its entry
            if abs(jac.item()) == 0 or 2.0 ** -459 <= abs(jac.item()) <= 2.0 ** 459:
                assert _bits(orbit.multipliers) == _bits(np.linalg.eigvals(jac))

    @pytest.mark.parametrize("coeffs, r", [
        ([-1, 0, 1], 6), ([QUADC, 0, 1], 4), ([0.5, -1, 0, 2], 4), ([1, 1e160, -1e160], 2)],
        ids=["square-minus-1", "quadc", "cubic", "overflowing-multiplier"])
    def test_one_variable_walk_keeps_its_bits(self, coeffs, r):
        # the reference reads the walk of orbit_points and the norm of
        # np.linalg.norm; its lower-period points are walked at r.  The
        # points 0 and 1 of 1 + 1e160 z - 1e160 z^2 close only by rounding,
        # and their multiplier overflows
        f = PolyMap.from_coeffs_1d(coeffs)
        found = [0j, 1 + 0j] if coeffs[0] == 1 else periodic_points_1d(f, r)
        exacts = set()
        for p in found:
            walk = [x.item() for x in orbit_points(f, [p], r + 1)]
            with np.errstate(over="ignore", invalid="ignore"):
                gap = [float(np.linalg.norm([x - walk[0]])) for x in walk]
                size = float(np.linalg.norm([walk[0]]))
            exact = min(d for d in range(1, r + 1)
                        if r % d == 0 and gap[d] <= TOL_ORBIT * (1 + size))
            mults = dynamics._chain_multipliers(f, walk[:exact])
            orbit = make_orbit(f, [p], r)
            assert orbit.period == exact and type(orbit.multipliers[0]) is np.complex128
            assert _bits(orbit.points) == _bits(walk[:exact])
            assert _bits(orbit.multipliers) == _bits(mults)
            assert repr(orbit.residual) == repr(gap[r])
            exacts.add(exact)
        divisors = {d for d in range(1, r + 1) if r % d == 0}
        assert exacts == ({2} if coeffs[0] == 1 else divisors)

    @pytest.mark.parametrize("f, p, r, residual", [
        (SQUARE, 0.5, 1, "2.500e-01"), (SQUARE_MINUS_1, 0.5, 3, "1.309e+00"),
        (SQUARE_MINUS_1, 5, 12, "nan"), (SQUARE, complex("inf"), 2, "nan")])
    def test_a_walk_that_does_not_close_names_its_residual(self, f, p, r, residual):
        # 5 escapes under z^2 - 1, and its walk overflows to inf and NaN
        # without a RuntimeWarning, which pytest would turn into an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OrbitError) as err:
                make_orbit(f, [p], r)
        assert str(err.value) == f"f^{r}(p) - p has residual {residual}"

    def test_exact_period_reduction(self):
        f = PolyMap.from_coeffs_1d([0, -1])
        orbit = make_orbit(f, [0], 2)
        assert orbit.period == 1 and len(orbit.points) == 1
        orbit = make_orbit(f, [1], 2)
        assert orbit.period == 2 and len(orbit.points) == 2

    def test_two_cycle_data(self):
        u = PolyFunc(1, {(0,): 2.0, (1,): 1.0})  # u = z + 2
        orbit = make_orbit(SQUARE_MINUS_1, [0], 2)
        assert orbit.period == 2
        # u(0) u(-1) = 2 * 1
        assert weight_cocycle(u, orbit.points) == pytest.approx(2.0)
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
    @pytest.mark.parametrize("f, r_max, starts", [
        *[(SQUARE_MINUS_1, r, 0) for r in range(1, 7)],
        (PolyMap.from_coeffs_1d([0, 1, 1]), 3, 0),  # z + z^2: a double root
        (PolyMap.from_coeffs_1d([0, -1]), 4, 0),  # (-z)^2 is the identity
        (PolyMap.from_coeffs_1d(
            [complex(-2138.8257435130076, 1159.7557898703005), 0, 1]), 4, 0),
        (HENON, 3, 200),
        (MIX3, 2, 100),
    ], ids=[*[f"z2-1-r{r}" for r in range(1, 7)], "double-root", "identity",
            "walk-rejects", "henon", "mix3"])
    def test_matches_the_generator_it_replaced(self, f, r_max, starts):
        config = SearchConfig(starts=starts, seed=101)
        found = periodic_orbits(f, r_max, config)
        want = _generator_reference(f, r_max, config)
        assert _orbit_bits(found) == _orbit_bits(want)
        assert list(found[1]) == list(want[1])
        assert type(found[1]["complete"]) is bool

    def test_exact_period_points_are_the_moebius_counts(self):
        orbits, search, cuts = periodic_orbits(SQUARE_MINUS_1, 4)
        assert search == {"complete": True} and cuts == {}
        assert [orbit.period for orbit in orbits] == sorted(
            orbit.period for orbit in orbits)
        assert [sum(o.period == r for o in orbits) for r in range(1, 5)] == [2, 2, 6, 12]
        assert all(orbits_of_period(SQUARE_MINUS_1, r)[1] == {"complete": True}
                   for r in range(1, 5))

    @pytest.mark.parametrize("coeffs", [[-1, 0, 1], [0, 1, 1]],
                             ids=["simple-roots", "double-root"])
    def test_complete_follows_the_root_count(self, coeffs):
        f = PolyMap.from_coeffs_1d(coeffs)
        want = [len(periodic_points_1d(f, r)) == root_count_1d(f, r)
                for r in (1, 2, 3)]
        assert [orbits_of_period(f, r)[1] for r in (1, 2, 3)] == [
            {"complete": complete} for complete in want]
        assert periodic_orbits(f, 3)[1] == {"complete": all(want)}

    def test_identity_iterate_offers_the_generic_orbit(self):
        negation = PolyMap.from_coeffs_1d([0, -1])
        orbits, search, _ = periodic_orbits(negation, 2)
        assert [o.points for o in orbits] == [
            ((0j,),), ((GENERIC_POINT,), (-GENERIC_POINT,))]
        assert orbits_of_period(negation, 1)[1] == {"complete": True}
        assert orbits_of_period(negation, 2)[1] == search == {"complete": False}

    @pytest.mark.parametrize("b", [1j, 125j, 125 + 1j])
    def test_affine_fixed_point_past_the_float_range_is_incomplete(self, b):
        # a = 1 + 6.9e-307i: b / (1 - a) is -1.44e306 for b = i, and not
        # finite for the other two, which keep no point and say so
        f = PolyMap.from_coeffs_1d([b, 1 + 6.942184854552086e-307j])
        orbits, search, _ = periodic_orbits(f, 1)
        assert len(orbits) == search["complete"] == (b == 1j)

    def test_a_point_the_walk_rejects_is_left_out(self):
        # the search's closure test passes this root of f^4(z) - z, and the
        # orbit walk's, in other arithmetic, fails it
        f = PolyMap.from_coeffs_1d(
            [complex(-2138.8257435130076, 1159.7557898703005), 0, 1])
        point = 47.313805745776875 - 12.127834442468746j
        assert point in periodic_points_1d(f, 4)
        with pytest.raises(OrbitError, match="residual 5.905e-07"):
            make_orbit(f, [point], 4)
        orbits, search, _ = periodic_orbits(f, 4)
        assert orbits_of_period(f, 4)[1] == search == {"complete": False}
        assert sum(orbit.period == 4 for orbit in orbits) == 10
        assert all(orbit.points[0] != (point,) for orbit in orbits)

    @pytest.mark.parametrize("f", [SQUARE_MINUS_1, HENON], ids=["square-minus-1", "henon"])
    @pytest.mark.parametrize("r_max", [0, -1])
    def test_an_empty_search_is_refused(self, monkeypatch, f, r_max):
        # no period was searched, so no search may be called complete
        def no_search(*args):
            raise AssertionError("searched")
        monkeypatch.setattr(dynamics, "_shoot", no_search)
        monkeypatch.setattr(dynamics, "_newton_lockstep", no_search)
        with pytest.raises(PreconditionError, match="iteration count must be >= 1"):
            periodic_orbits(f, r_max)

    def test_two_variable_record(self):
        config = SearchConfig(starts=60, seed=3)
        orbits, search, cuts = periodic_orbits(HENON, 2, config=config)
        assert list(search) == ["complete", "r=1", "r=2"]
        assert cuts == _multistart_cuts()
        assert search == {"complete": False, **{
            f"r={r}": {"starts": 60, "seed": 3,
                       "converged": periodic_points_2d(HENON, r, config).converged}
            for r in (1, 2)}}
        assert [orbit.period for orbit in orbits] == sorted(
            orbit.period for orbit in orbits)
        assert {orbit.period for orbit in orbits} <= {1, 2}
