"""JSON file formats for fields and ideals.

All unbounded integers are written as decimal strings so files survive
readers with 64-bit integer parsers; readers accept both plain ints and
strings, of any length. Matrices are row-major.
"""

import json

from .nf import Ideal, NumberField, decimal_str, parse_decimal


def encode_int(x):
    return decimal_str(int(x))


def decode_int(v):
    if isinstance(v, bool):
        raise ValueError("expected an integer, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return parse_decimal(v)
    raise ValueError(f"expected an integer or decimal string, got {type(v).__name__}")


def _array(v, what, item=decode_int):
    """[item(x) for x in v] for a JSON array v, else a ValueError."""
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a list, got {type(v).__name__}")
    return [item(x) for x in v]


def field_to_dict(K):
    return {"defining_poly": [encode_int(c) for c in K.poly]}


def field_from_dict(data):
    if not isinstance(data, dict) or "defining_poly" not in data:
        raise ValueError("field file needs a 'defining_poly' entry")
    return NumberField(_array(data["defining_poly"], "defining_poly"))


def read_json(path):
    """Parse a JSON file, reading plain integer literals of any length."""
    with open(path) as fh:
        return json.load(fh, parse_int=parse_decimal)


def load_field(path):
    return field_from_dict(read_json(path))


def ideal_from_dict(data, K):
    if not isinstance(data, dict):
        raise ValueError("ideal file needs 'generators' or 'hnf'")
    if "generators" in data:
        gens = _array(data["generators"], "generators", lambda g: K.element(_array(g, "generator")))
        return Ideal.from_generators(K, gens)
    if "hnf" in data:
        rows = _array(data["hnf"], "hnf", lambda row: _array(row, "hnf row"))
        return Ideal.from_hnf_matrix(K, rows)
    raise ValueError("ideal file needs 'generators' or 'hnf'")


def load_ideal(path, K):
    return ideal_from_dict(read_json(path), K)
