import json
import re
import random
from fractions import Fraction

import pytest

from conftest import rand_matrix
from uhlenbeck.bvariety import jordan_triple
from uhlenbeck.core import RatMatrix
from uhlenbeck.quiver import monad_of_point
from uhlenbeck.serialize import (
    MAX_DIGITS,
    digits,
    fraction_to_str,
    matrix_from_json,
    matrix_to_json,
    pair_from_json,
    pair_to_json,
    parse_fraction,
    rep_from_json,
    rep_to_json,
    triple_from_json,
    triple_to_json,
    vector_from_json,
)


def test_fraction_strings():
    assert fraction_to_str(Fraction(3)) == "3"
    assert fraction_to_str(Fraction(-7, 2)) == "-7/2"
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-5") == Fraction(-5)
    assert parse_fraction(2) == Fraction(2)
    with pytest.raises(ValueError):
        parse_fraction(True)
    with pytest.raises(ValueError):
        parse_fraction(0.5)


def test_rationals_have_a_digit_bound():
    long = "9" * MAX_DIGITS
    for text in (long, "-" + long, f"{long}/{long[:-1]}8", f" -{long}/{long[:-1]}7 "):
        x = parse_fraction(text)
        assert digits(x) == MAX_DIGITS and parse_fraction(x) == x
    assert parse_fraction(10**MAX_DIGITS - 1) == 10**MAX_DIGITS - 1
    too_long = "rationals are limited to 50 digits in numerator and denominator"
    # one digit over, in the numerator, the denominator or an int; and a text
    # long enough that int() would refuse it
    for value in ("1" + long, f"1/1{long}", 10**MAX_DIGITS, -(10**MAX_DIGITS), "7" * 4000, f"{'7' * 4000}/7"):
        with pytest.raises(ValueError, match=too_long):
            parse_fraction(value)
    # an exponent could spell a huge integer in a few characters
    for text in ("1e3", "2E-1", "1e999999999"):
        with pytest.raises(ValueError, match="exponents are not accepted"):
            parse_fraction(text)
    assert parse_fraction("0.25") == Fraction(1, 4)


def test_matrix_entries_share_a_bounded_denominator():
    # each entry is within the bound; their common denominator is the product of the
    # primes, 65 digits, so the integer form is refused before it is built
    primes = [10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091, 10093, 10099, 10103, 10111]
    entries = [[f"1/{p}" for p in primes]]
    with pytest.raises(ValueError, match="limited to a common denominator of 50 digits"):
        matrix_from_json({"rows": 1, "cols": len(primes), "entries": entries})
    ok = matrix_from_json({"rows": 1, "cols": 12, "entries": [row[:12] for row in entries]})
    assert ok.entry(0, 11) == Fraction(1, 10103)


def test_matrix_roundtrip():
    rng = random.Random(701)
    for _ in range(10):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        m = m.scale(Fraction(1, rng.randint(1, 5)))
        encoded = matrix_to_json(m)
        assert json.loads(json.dumps(encoded)) == encoded  # JSON-safe
        assert matrix_from_json(encoded) == m


def test_matrix_json_layout():
    m = RatMatrix.from_rows([[Fraction(1, 2), 3]])
    assert matrix_to_json(m) == {"rows": 1, "cols": 2, "entries": [["1/2", "3"]]}


def test_matrix_rejects_bad_grid():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [["1", "2"]]})


def test_rep_roundtrip():
    rep = monad_of_point((Fraction(2), Fraction(-3, 4)), Fraction(5, 7))
    again = rep_from_json(json.loads(json.dumps(rep_to_json(rep))))
    assert again == rep


def test_triple_roundtrip():
    triple = jordan_triple(4, Fraction(-1, 3), Fraction(2))
    again = triple_from_json(json.loads(json.dumps(triple_to_json(triple))))
    assert again == triple


def test_pair_roundtrip():
    rng = random.Random(702)
    x, y = rand_matrix(rng, 3, 3), rand_matrix(rng, 3, 3)
    x2, y2 = pair_from_json(json.loads(json.dumps(pair_to_json(x, y))))
    assert (x2, y2) == (x, y)


@pytest.mark.parametrize(
    "reader, data, field",
    [
        (matrix_from_json, [[1]], "matrix"),
        (matrix_from_json, {"rows": "1", "cols": 1, "entries": [["1"]]}, "matrix.rows"),
        (matrix_from_json, {"rows": 1, "cols": True, "entries": [["1"]]}, "matrix.cols"),
        (matrix_from_json, {"rows": 1, "cols": 1, "entries": 7}, "matrix.entries"),
        (matrix_from_json, {"rows": 1, "cols": 1, "entries": ["1"]}, "matrix.entries"),
        (vector_from_json, "1,2", "vector"),
        (rep_from_json, [1, 2], "input"),
        (rep_from_json, {"dim": 3}, "dim"),
        (rep_from_json, {"dim": [1, 2, 1], "F": [], "G": {}, "tau": "1"}, "F"),
        (rep_from_json, {"dim": [1, 2, 1], "F": {"xi": 0}, "G": {}, "tau": "1"}, "F.xi"),
        (triple_from_json, {"Y": {"rows": 0, "cols": 0, "entries": []}, "Z": 4}, "Z"),
        (triple_from_json, {"Y": {"rows": 0, "cols": 0, "entries": []}, "Z": {"rows": 0, "cols": 0, "entries": []}, "v": {}}, "v"),
        (triple_from_json, {"Y": {"rows": 0, "cols": 0, "entries": []}, "Z": {"rows": 0, "cols": 0, "entries": []}, "v": [], "tau": [1]}, "tau"),
        (pair_from_json, {"X": {"rows": 1, "cols": 1, "entries": [["1"]]}}, "Y"),
    ],
)
def test_readers_name_the_wrong_shaped_field(reader, data, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        reader(data)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rep_from_json({"dim": [1, 2]}), "field 'dim' must be a JSON array of three integers"),
    ],
)
def test_serialize_rejects_malformed_input_with_its_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
