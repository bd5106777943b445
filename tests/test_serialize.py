"""JSON schema loading, dumping, and rejection messages."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holorigid.cli import main
from holorigid.dynamics import PolyFunc, PolyMap
from holorigid.errors import SchemaError
from holorigid.henon import to_polymap
from holorigid.serialize import (
    MAX_EXPONENT,
    dump_polymap,
    encode,
    load_duality,
    load_henon,
    load_map,
    load_polymap,
    load_weight,
)


def polymap_doc():
    return {"dim": 2, "components": [
        [{"alpha": [2, 0], "re": 1.0, "im": 0.0}],
        [{"alpha": [0, 1], "re": 0.5, "im": -1.0}],
    ]}


class TestPolyMap:
    def test_roundtrip(self):
        f = load_polymap(polymap_doc())
        assert load_polymap(dump_polymap(f)) == f

    def test_missing_components_named(self):
        with pytest.raises(SchemaError, match="map: missing field 'components'"):
            load_polymap({"dim": 1})

    def test_wrong_component_count(self):
        doc = polymap_doc()
        doc["components"].pop()
        with pytest.raises(SchemaError, match="expected 2 entries"):
            load_polymap(doc)

    def test_alpha_arity_named(self):
        doc = polymap_doc()
        doc["components"][0][0]["alpha"] = [2]
        with pytest.raises(SchemaError,
                           match=r"map.components\[0\]\[0\].alpha"):
            load_polymap(doc)

    def test_non_numeric_coefficient(self):
        doc = polymap_doc()
        doc["components"][1][0]["re"] = "x"
        with pytest.raises(SchemaError, match="re/im must be numbers"):
            load_polymap(doc)

    @pytest.mark.parametrize("key", ["re", "im"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, False,
                                       10 ** 400])
    def test_non_finite_or_boolean_coefficient_named(self, key, value):
        # json reads NaN, Infinity and 1e400 as non-finite floats and a
        # 400-digit literal as an int beyond the float range
        doc = polymap_doc()
        doc["components"][1][0][key] = value
        with pytest.raises(SchemaError, match=rf"map.components\[1\]\[0\].{key}: "):
            load_polymap(doc)

    def test_coefficient_sum_beyond_float_range(self):
        doc = polymap_doc()
        doc["components"][0] = [{"alpha": [2, 0], "re": 1e308}] * 2
        with pytest.raises(SchemaError, match=r"map.components\[0\]\[1\]: .*float range"):
            load_polymap(doc)

    def test_boolean_dim_and_exponents_rejected(self):
        doc = {"dim": True, "components": [[{"alpha": [True], "re": 1.0}]]}
        with pytest.raises(SchemaError, match="map.dim: wrong type"):
            load_polymap(doc)
        doc["dim"] = 1
        with pytest.raises(SchemaError, match=r"map.components\[0\]\[0\].alpha"):
            load_polymap(doc)


def weight_document(u: PolyFunc) -> dict:
    return {"dim": u.dim, "terms": [{"alpha": list(a), "re": c.real, "im": c.imag}
                                    for a, c in u.terms.items()]}


class TestWeight:
    def test_weight_roundtrip(self):
        u = load_weight({"dim": 1, "terms": [{"alpha": [2], "re": 0.5}]})
        assert load_weight(weight_document(u)) == u

    @pytest.mark.parametrize("dim", [0, -1])
    def test_weight_dim_below_one_rejected(self, dim):
        with pytest.raises(SchemaError, match="weight.dim: must be >= 1"):
            load_weight({"dim": dim, "terms": []})


class TestHenon:
    def test_roundtrip(self):
        comp = load_henon({"factors": [
            {"p": [-3, 0, 1], "delta": [0.3, 0.0]},
            {"p": [[0.0, 1.0], 0, 1], "delta": 2},
        ]})
        assert len(comp.factors) == 2
        assert comp.factors[0].delta == 0.3
        assert comp.factors[1].p_coeffs[0] == 1j

    def test_zero_delta_rejected(self):
        with pytest.raises(SchemaError, match=r"factors\[0\].delta"):
            load_henon({"factors": [{"p": [0, 0, 1], "delta": 0}]})

    def test_low_degree_rejected(self):
        with pytest.raises(SchemaError, match="degree must be >= 2"):
            load_henon({"factors": [{"p": [1, 1], "delta": 1}]})

    def test_non_finite_delta_rejected(self):
        with pytest.raises(SchemaError, match=r"factors\[0\].delta"):
            load_henon({"factors": [{"p": [0, 0, 1], "delta": [math.nan, 0.0]}]})

    @pytest.mark.parametrize("delta", [math.nan, [0.0, math.inf], True, [1.0, False]])
    def test_delta_must_be_finite_numbers(self, delta):
        with pytest.raises(SchemaError, match=r"delta: expected a finite"):
            load_henon({"factors": [{"p": [0, 0, 1], "delta": delta}]})

    def test_empty_factors_rejected(self):
        with pytest.raises(SchemaError, match="nonempty"):
            load_henon({"factors": []})


class TestMapAndDualityDocuments:
    """``load_map`` reads a map from components or Henon factors, and
    ``load_duality`` the matrices L and B, with the schema errors ``cli``
    prints."""

    def test_a_map_from_components_or_factors(self):
        f, comp = load_map(polymap_doc())
        assert comp is None and f == load_polymap(polymap_doc())
        doc = {"factors": [{"p": [-3, 0, 1], "delta": [0.3, 0.0]}]}
        f, comp = load_map(doc)
        assert comp == load_henon(doc) and f == to_polymap(comp)

    def test_factors_and_components_is_a_schema_error(self):
        with pytest.raises(SchemaError, match=(
                r"^map: a document gives 'factors' or 'components', not both$")):
            load_map({**polymap_doc(), "factors": []})

    def test_duality_matrices(self):
        L, B = load_duality({"L": [[2, [0.0, 1.0]]], "B": [[[1.0, -1.0]]]})
        assert L.dtype == B.dtype == complex
        assert L.tolist() == [[2, 1j]] and B.tolist() == [[1 - 1j]]

    @pytest.mark.parametrize("doc, message", [
        ({"L": [[[math.nan, 0]]], "B": [[1]]},
         r"duality.L\[0\]\[0\]: expected a finite number or \[re, im\] pair"),
        ({"L": [[1], [1, 2]], "B": [[1]]},
         "duality.L: expected a nonempty list of rows of equal length"),
        ({"L": [[1]]}, "duality: missing field 'B'"),
    ], ids=["nan", "ragged", "no-B"])
    def test_duality_schema_errors(self, doc, message):
        with pytest.raises(SchemaError, match=f"^{message}$"):
            load_duality(doc)


class TestEncode:
    def test_complex_to_pairs(self):
        import numpy as np

        out = encode({"z": 1 + 2j, "arr": np.array([1j, 2.0]),
                      "nested": [{"v": np.complex128(3 - 1j)}]})
        assert out == {"z": [1.0, 2.0], "arr": [[0.0, 1.0], [2.0, 0.0]],
                       "nested": [{"v": [3.0, -1.0]}]}


# Property tests.  Replacement integers are small, so that a mutated map of
# degree at most 5 keeps `certify --mode bounded --r 2` fast, or beyond
# MAX_EXPONENT or the float range; floats range over every JSON number, NaN
# and infinities too.
_coefficients = st.complex_numbers(allow_nan=False, allow_infinity=False)


def _tables(dim, max_exponent=3, coefficients=_coefficients):
    exponent = st.tuples(*[st.integers(0, max_exponent)] * dim)
    return st.dictionaries(exponent, coefficients, max_size=4)


_polymaps = st.integers(1, 3).flatmap(
    lambda dim: st.tuples(*[_tables(dim)] * dim).map(lambda t: PolyMap(dim, t)))
_weights = st.integers(1, 3).flatmap(
    lambda dim: _tables(dim).map(lambda t: PolyFunc(dim, t)))


class TestRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(_polymaps)
    def test_polymap_round_trip_is_exact(self, f):
        # the JSON text holds the bits of every coefficient, -0.0 included
        text = json.dumps(dump_polymap(f))
        g = load_polymap(json.loads(text))
        assert g == f
        assert json.dumps(dump_polymap(g)) == text

    @settings(max_examples=100, deadline=None)
    @given(_weights)
    def test_weight_round_trip_is_exact(self, u):
        # the JSON text holds the bits of every coefficient, -0.0 included
        v = load_weight(json.loads(json.dumps(weight_document(u))))
        assert v == u and repr(v.terms) == repr(u.terms)


_KEYS = st.sampled_from(["dim", "components", "alpha", "re", "im", "terms", "x"])
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5)
    | st.sampled_from([MAX_EXPONENT + 1, 2 ** 63, 10 ** 400])
    | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6)


def _paths(doc, path=()):
    yield path
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def _mutated(draw, docs):
    """A document with one node replaced by any JSON value, or removed."""
    doc = copy.deepcopy(draw(docs))
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(_json_values)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


_small = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_map_docs = st.integers(1, 2).flatmap(
    lambda dim: st.tuples(*[_tables(dim, 2, _small)] * dim)
    .map(lambda t: dump_polymap(PolyMap(dim, t))))


class TestMutatedDocuments:
    @settings(max_examples=200, deadline=None)
    @given(_mutated(_map_docs))
    def test_loads_or_raises_schema_error(self, doc):
        try:
            f = load_polymap(doc)
        except SchemaError:
            return
        assert all(math.isfinite(abs(c)) for table in f.components for c in table.values())

    @settings(max_examples=60, deadline=None)
    @given(_mutated(_map_docs))
    def test_cli_exits_with_a_documented_code(self, doc):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["certify", str(path), "--mode", "bounded", "--r", "2",
                             "--starts", "8"])
        assert code in (0, 1, 2, 4)
        if code == 1:
            assert err.getvalue().startswith(("schema error:", "error:"))
