"""JSON schemas for maps, weights, and Henon data.

Complex numbers travel as [re, im] pairs.  Numbers must be finite and not
booleans: json reads NaN, Infinity and 1e400 as non-finite floats, and
true/false as the integers 1/0.  Loaders raise SchemaError with a message
naming the offending field; dumpers emit plain dict/list structures ready
for json.dumps.
"""

from __future__ import annotations

import json
import math

from .errors import SchemaError
from .dynamics import DEFAULT_MAX_TERMS, PolyFunc, PolyMap

# Largest exponent a document may hold.  One variable gets no further: f(z) - z
# would have more roots than the root-count cap; in two variables exponents
# near 2^63 and above overflowed the evaluators.
MAX_EXPONENT = DEFAULT_MAX_TERMS


def _finite(x) -> bool:
    """Whether x is a number other than a boolean, finite as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _cnum(obj, where: str) -> complex:
    if _finite(obj):
        return complex(obj)
    if (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(_finite(x) for x in obj)):
        return complex(obj[0], obj[1])
    raise SchemaError(f"{where}: expected a finite number or [re, im] pair")


def _require(obj, key, where, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{where}: missing field '{key}'")
    val = obj[key]
    if kind is not None and (not isinstance(val, kind) or isinstance(val, bool)):
        raise SchemaError(f"{where}.{key}: wrong type")
    return val


def encode(value):
    """Recursively convert complex scalars/arrays to JSON-ready structures."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, np.ndarray):
        return [encode(v) for v in value.tolist()]
    if isinstance(value, complex) or isinstance(value, np.complexfloating):
        z = complex(value)
        return [z.real, z.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) or isinstance(value, int) or value is None:
        return value
    if isinstance(value, (str, bool)):
        return value
    raise TypeError(f"cannot encode {type(value)!r}")


def _load_terms(items, dim, where) -> dict:
    if not isinstance(items, list):
        raise SchemaError(f"{where}: expected a list of terms")
    table = {}
    for k, term in enumerate(items):
        spot = f"{where}[{k}]"
        alpha = _require(term, "alpha", spot, list)
        if len(alpha) != dim or not all(isinstance(a, int) and not isinstance(a, bool)
                                        and 0 <= a <= MAX_EXPONENT for a in alpha):
            raise SchemaError(f"{spot}.alpha: expected {dim} integers from 0 "
                              f"to {MAX_EXPONENT}")
        re = term.get("re", 0.0)
        im = term.get("im", 0.0)
        for name, value in (("re", re), ("im", im)):
            if not _finite(value):
                raise SchemaError(f"{spot}.{name}: re/im must be numbers, finite "
                                  "and not true/false")
        key = tuple(alpha)
        # a repeated alpha adds up; a first one keeps the sign of a zero part
        table[key] = table[key] + complex(re, im) if key in table else complex(re, im)
        if not (math.isfinite(table[key].real) and math.isfinite(table[key].imag)):
            raise SchemaError(f"{spot}: the coefficients of alpha {alpha} "
                              "sum beyond the float range")
    return table


def _dump_terms(table) -> list:
    out = []
    for alpha in sorted(table, key=lambda a: (sum(a), tuple(-x for x in a))):
        c = complex(table[alpha])
        out.append({"alpha": list(alpha), "re": c.real, "im": c.imag})
    return out


def load_polymap(obj) -> PolyMap:
    dim = _require(obj, "dim", "map", int)
    if dim < 1:
        raise SchemaError("map.dim: must be >= 1")
    comps = _require(obj, "components", "map", list)
    if len(comps) != dim:
        raise SchemaError(f"map.components: expected {dim} entries, got {len(comps)}")
    tables = tuple(_load_terms(c, dim, f"map.components[{i}]")
                   for i, c in enumerate(comps))
    return PolyMap(dim, tables)


def dump_polymap(f: PolyMap) -> dict:
    return {"dim": f.dim, "components": [_dump_terms(c) for c in f.components]}


def load_weight(obj) -> PolyFunc:
    dim = _require(obj, "dim", "weight", int)
    if dim < 1:
        raise SchemaError("weight.dim: must be >= 1")
    terms = _require(obj, "terms", "weight", list)
    return PolyFunc(dim, _load_terms(terms, dim, "weight.terms"))


def dump_weight(u: PolyFunc) -> dict:
    return {"dim": u.dim, "terms": _dump_terms(u.terms)}


def load_henon(obj):
    from .henon import GeneralizedHenon, HenonComposition

    factors = _require(obj, "factors", "henon", list)
    if not factors:
        raise SchemaError("henon.factors: must be nonempty")
    out = []
    for i, fac in enumerate(factors):
        where = f"henon.factors[{i}]"
        p = _require(fac, "p", where, list)
        coeffs = tuple(_cnum(c, f"{where}.p[{k}]") for k, c in enumerate(p))
        delta = _cnum(_require(fac, "delta", where), f"{where}.delta")
        if delta == 0:
            raise SchemaError(f"{where}.delta: must be nonzero")
        if len(coeffs) < 3 or coeffs[-1] == 0:
            raise SchemaError(f"{where}.p: polynomial degree must be >= 2")
        out.append(GeneralizedHenon(coeffs, delta))
    return HenonComposition(tuple(out))


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})")
