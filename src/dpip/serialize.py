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


def field_to_dict(K):
    return {"defining_poly": [encode_int(c) for c in K.poly]}


def field_from_dict(data):
    if "defining_poly" not in data:
        raise ValueError("field file needs a 'defining_poly' entry")
    return NumberField([decode_int(c) for c in data["defining_poly"]])


def read_json(path):
    """Parse a JSON file, reading plain integer literals of any length."""
    with open(path) as fh:
        return json.load(fh, parse_int=parse_decimal)


def load_field(path):
    return field_from_dict(read_json(path))


def ideal_to_dict(I):
    return {"hnf": [[encode_int(x) for x in row] for row in I.hnf_matrix()]}


def ideal_from_dict(data, K):
    if "generators" in data:
        gens = [
            K.element([decode_int(x) for x in coords]) for coords in data["generators"]
        ]
        return Ideal.from_generators(K, gens)
    if "hnf" in data:
        rows = [[decode_int(x) for x in row] for row in data["hnf"]]
        return Ideal.from_hnf_matrix(K, rows)
    raise ValueError("ideal file needs 'generators' or 'hnf'")


def load_ideal(path, K):
    return ideal_from_dict(read_json(path), K)
