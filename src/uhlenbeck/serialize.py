"""JSON wire formats shared by the CLI: rationals as strings, never floats.

Matrix encoding: {"rows": r, "cols": c, "entries": [["p/q", ...], ...]} with
entries nested row by row and each rational written "p/q" (or "p" when the
denominator is one).
"""

from __future__ import annotations

from fractions import Fraction

from .bvariety import BTriple
from .core import RatMatrix, Vector, rat
from .quiver import ARROWS, QuiverRep


def fraction_to_str(x: Fraction) -> str:
    x = rat(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(s) -> Fraction:
    if isinstance(s, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(s, (int, str, Fraction)):
        try:
            return rat(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational {s!r}") from None
    raise ValueError(f"cannot parse rational from {s!r}")


def matrix_to_json(m: RatMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[fraction_to_str(x) for x in m.row(i)] for i in range(m.rows)],
    }


def matrix_from_json(d: dict) -> RatMatrix:
    rows, cols = int(d["rows"]), int(d["cols"])
    entries = d["entries"]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValueError("entry grid does not match rows/cols")
    return RatMatrix(rows, cols, tuple(parse_fraction(x) for row in entries for x in row))


def vector_to_json(v: Vector) -> list[str]:
    return [fraction_to_str(x) for x in v]


def vector_from_json(lst) -> Vector:
    return tuple(parse_fraction(x) for x in lst)


def rep_to_json(rep: QuiverRep) -> dict:
    return {
        "dim": list(rep.dim),
        "F": {a: matrix_to_json(rep.F[a]) for a in ARROWS},
        "G": {a: matrix_to_json(rep.G[a]) for a in ARROWS},
        "tau": fraction_to_str(rep.tau),
    }


def rep_from_json(d: dict) -> QuiverRep:
    dim = tuple(int(x) for x in d["dim"])
    if len(dim) != 3:
        raise ValueError("dimension vector must have three entries")
    F = {a: matrix_from_json(d["F"][a]) for a in ARROWS}
    G = {a: matrix_from_json(d["G"][a]) for a in ARROWS}
    return QuiverRep(dim, F, G, parse_fraction(d["tau"]))


def triple_to_json(t: BTriple) -> dict:
    return {
        "Y": matrix_to_json(t.Y),
        "Z": matrix_to_json(t.Z),
        "v": vector_to_json(t.v),
        "tau": fraction_to_str(t.tau),
    }


def triple_from_json(d: dict) -> BTriple:
    return BTriple(
        matrix_from_json(d["Y"]),
        matrix_from_json(d["Z"]),
        vector_from_json(d["v"]),
        parse_fraction(d["tau"]),
    )


def pair_to_json(x: RatMatrix, y: RatMatrix) -> dict:
    return {"X": matrix_to_json(x), "Y": matrix_to_json(y)}


def pair_from_json(d: dict) -> tuple[RatMatrix, RatMatrix]:
    return matrix_from_json(d["X"]), matrix_from_json(d["Y"])
