"""JSON wire formats shared by the CLI: rationals as strings, never floats.

Matrix encoding: {"rows": r, "cols": c, "entries": [["p/q", ...], ...]} with
entries nested row by row and each rational written "p/q" (or "p" when the
denominator is one).

Every rational read here, from a flag or from an input file, has at most
MAX_DIGITS digits in its numerator and in its denominator, and so does the
least common denominator of each matrix's entries: longer integers would
cost more than the CLI's size caps allow and, past 4300 digits, could not
be printed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .bvariety import BTriple
from .core import RatMatrix, Vector, rat
from .quiver import ARROWS, QuiverRep


def fraction_to_str(x: Fraction) -> str:
    return str(rat(x))


MAX_DIGITS = 50

_LIMIT = 10**MAX_DIGITS
_TOO_LONG = f"rationals are limited to {MAX_DIGITS} digits in numerator and denominator"


def parse_fraction(s) -> Fraction:
    """An int, a Fraction or a text "p/q" (or "p", or a decimal) of at most MAX_DIGITS digits."""
    if isinstance(s, bool):
        raise ValueError("booleans are not rationals")
    if not isinstance(s, (int, str, Fraction)):
        raise ValueError(f"cannot parse rational from {s!r}")
    # a text this long, or one with an exponent, can spell an integer too long to
    # build; a shorter text is read, and its value checked
    if isinstance(s, str):
        if len(s) > 4 * MAX_DIGITS:
            raise ValueError(_TOO_LONG)
        if "e" in s.lower():
            raise ValueError(f"exponents are not accepted in rational {s!r}")
    try:
        x = rat(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {s!r}") from None
    if max(abs(x.numerator), x.denominator) >= _LIMIT:
        raise ValueError(_TOO_LONG)
    return x


def digits(s) -> int:
    """The number of digits of the longer of the numerator and denominator of
    the rational s, as read by ``parse_fraction``."""
    x = parse_fraction(s)
    return len(str(max(abs(x.numerator), x.denominator)))


def matrix_to_json(m: RatMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[fraction_to_str(x) for x in m.row(i)] for i in range(m.rows)],
    }


_JSON_TYPES = {dict: "object", list: "array", int: "integer"}


def _field(d, key: str, kind: type = object, where: str = ""):
    """d[key], checked to be of the JSON type kind; where names d in errors."""
    name = f"{where}.{key}" if where else key
    if not isinstance(d, dict):
        raise ValueError(f"{where or 'input'} must be a JSON object")
    if key not in d:
        raise ValueError(f"missing field {name!r}")
    value = d[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"field {name!r} must be a JSON {_JSON_TYPES[kind]}")
    return value


def _rational_field(d, key: str) -> Fraction:
    value = _field(d, key)
    try:
        return parse_fraction(value)
    except ValueError as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


def _matrix(d, where: str) -> RatMatrix:
    rows, cols = _field(d, "rows", int, where), _field(d, "cols", int, where)
    entries = _field(d, "entries", list, where)
    for i, row in enumerate(entries):
        if not isinstance(row, list):
            raise ValueError(f"field '{where}.entries' row {i} must be a JSON array")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValueError(f"entry grid of {where!r} does not match rows/cols")
    values = tuple(parse_fraction(x) for row in entries for x in row)
    d = 1
    for x in values:
        d = lcm(d, x.denominator)
        if d >= _LIMIT:
            raise ValueError(f"the entries of {where!r} are limited to a common denominator of {MAX_DIGITS} digits")
    return RatMatrix(rows, cols, values)


def matrix_from_json(d: dict) -> RatMatrix:
    return _matrix(d, "matrix")


def vector_to_json(v: Vector) -> list[str]:
    return [fraction_to_str(x) for x in v]


def vector_from_json(lst) -> Vector:
    if not isinstance(lst, list):
        raise ValueError("vector must be a JSON array")
    return tuple(parse_fraction(x) for x in lst)


def rep_to_json(rep: QuiverRep) -> dict:
    return {
        "dim": list(rep.dim),
        "F": {a: matrix_to_json(rep.F[a]) for a in ARROWS},
        "G": {a: matrix_to_json(rep.G[a]) for a in ARROWS},
        "tau": fraction_to_str(rep.tau),
    }


def rep_from_json(d: dict) -> QuiverRep:
    dim = _field(d, "dim", list)
    if len(dim) != 3 or not all(isinstance(x, int) and not isinstance(x, bool) for x in dim):
        raise ValueError("field 'dim' must be a JSON array of three integers")
    F, G = _field(d, "F", dict), _field(d, "G", dict)
    return QuiverRep(
        tuple(dim),
        {a: _matrix(_field(F, a, where="F"), f"F.{a}") for a in ARROWS},
        {a: _matrix(_field(G, a, where="G"), f"G.{a}") for a in ARROWS},
        _rational_field(d, "tau"),
    )


def triple_to_json(t: BTriple) -> dict:
    return {
        "Y": matrix_to_json(t.Y),
        "Z": matrix_to_json(t.Z),
        "v": vector_to_json(t.v),
        "tau": fraction_to_str(t.tau),
    }


def triple_from_json(d: dict) -> BTriple:
    return BTriple(
        _matrix(_field(d, "Y"), "Y"),
        _matrix(_field(d, "Z"), "Z"),
        vector_from_json(_field(d, "v", list)),
        _rational_field(d, "tau"),
    )


def pair_to_json(x: RatMatrix, y: RatMatrix) -> dict:
    return {"X": matrix_to_json(x), "Y": matrix_to_json(y)}


def pair_from_json(d: dict) -> tuple[RatMatrix, RatMatrix]:
    return _matrix(_field(d, "X"), "X"), _matrix(_field(d, "Y"), "Y")
