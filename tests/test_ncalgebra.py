import random
from fractions import Fraction
from itertools import product

import pytest

from uhlenbeck.core import Echelon, Subspace, rat
from uhlenbeck.ncalgebra import (
    DUAL_PAIR_ORDER,
    GENERATORS,
    MPoly,
    NCElement,
    artin_moduli_determinant,
    dual_graded_dims,
    dual_multiply,
    dual_relation_kernel,
    dual_word,
    graded_dim,
    graded_dim_computed,
    monomial_str,
    normal_form,
    normal_monomials,
    pair_tensor,
    relation_kernel,
    tau_poly,
)

TAUS = [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 5)]


def coeffs_at(elem: NCElement, tau) -> dict:
    return elem.coefficients_at(tau)


# ---------------------------------------------------------------------------
# normal forms


def test_yx_rewrite():
    e = normal_form("yx")
    d = e.as_dict()
    assert d[(1, 1, 0)] == tau_poly(1)
    assert d[(0, 0, 2)] == tau_poly(-1, 1)
    assert len(d) == 2


def test_z_is_central():
    assert normal_form("zx").as_dict() == {(1, 0, 1): tau_poly(1)}
    assert normal_form("zy").as_dict() == {(0, 1, 1): tau_poly(1)}


def test_yxz_two_rewrites():
    d = normal_form("yxz").as_dict()
    assert d == {(1, 1, 1): tau_poly(1), (0, 0, 3): tau_poly(-1, 1)}


def test_commutative_at_tau_zero():
    assert normal_form("yx").coefficients_at(0) == {(1, 1, 0): Fraction(1)}


def test_normal_form_rejects_bad_letters():
    with pytest.raises(ValueError):
        normal_form("xq")


def test_confluence_on_random_words():
    rng = random.Random(301)
    for _ in range(40):
        letters = [rng.choice("xyz") for _ in range(rng.randint(0, 6))]
        cut1 = rng.randint(0, len(letters))
        cut2 = rng.randint(0, len(letters))
        lo, hi = min(cut1, cut2), max(cut1, cut2)
        a, b, c = letters[:lo], letters[lo:hi], letters[hi:]
        ab_c = normal_form("".join(a)) * normal_form("".join(b + c))
        a_bc = (normal_form("".join(a)) * normal_form("".join(b))) * normal_form("".join(c))
        assert ab_c.terms == a_bc.terms


# ---------------------------------------------------------------------------
# graded dimensions


@pytest.mark.parametrize("i,expected", [(0, 1), (1, 3), (3, 10)])
def test_graded_dim_small(i, expected):
    assert graded_dim(i) == expected


@pytest.mark.parametrize("tau", TAUS)
def test_graded_dim_flat_in_tau(tau):
    for i in range(0, 11):
        assert graded_dim_computed(i, tau) == (i + 1) * (i + 2) // 2 == graded_dim(i)


def test_normal_monomials_degree():
    assert all(sum(m) == 4 for m in normal_monomials(4))
    assert monomial_str((2, 0, 1)) == "x^2 z"


# ---------------------------------------------------------------------------
# dual algebra


def test_dual_squares_vanish():
    assert dual_multiply(dual_word(["xi"]), dual_word(["xi"])).is_zero
    assert dual_multiply(dual_word(["eta"]), dual_word(["eta"])).is_zero


def test_dual_anticommute():
    ab = dual_multiply(dual_word(["eta"]), dual_word(["xi"]))
    assert ab.as_dict() == {("xi", "eta"): tau_poly(-1)}


def test_dual_zeta_square():
    zz = dual_multiply(dual_word(["zeta"]), dual_word(["zeta"]))
    assert zz.as_dict() == {("xi", "eta"): tau_poly(-2, 1)}


@pytest.mark.parametrize("tau", TAUS)
def test_dual_graded_dims(tau):
    assert dual_graded_dims(tau, max_degree=5) == (1, 3, 3, 1, 0, 0)


def test_dual_associativity():
    rng = random.Random(302)
    gens = ["xi", "eta", "zeta"]
    for _ in range(40):
        w = [rng.choice(gens) for _ in range(rng.randint(0, 5))]
        lo = rng.randint(0, len(w))
        hi = rng.randint(lo, len(w))
        a, b, c = dual_word(w[:lo]), dual_word(w[lo:hi]), dual_word(w[hi:])
        assert dual_multiply(dual_multiply(a, b), c).terms == dual_multiply(a, dual_multiply(b, c)).terms


# ---------------------------------------------------------------------------
# relation kernels


def uvw_basis(tau: Fraction):
    """The three degree-two relations: yz-zy, xz-zx, xy-yx-tau zz."""
    return [
        pair_tensor({("y", "z"): 1, ("z", "y"): -1}),
        pair_tensor({("x", "z"): 1, ("z", "x"): -1}),
        pair_tensor({("x", "y"): 1, ("y", "x"): -1, ("z", "z"): -tau}),
    ]


@pytest.mark.parametrize("tau", TAUS)
def test_relation_kernel_matches_uvw_span(tau):
    kernel = relation_kernel(tau)
    assert len(kernel) == 3
    computed = Subspace(9, kernel)
    reference = Subspace(9, uvw_basis(tau))
    assert computed == reference


@pytest.mark.parametrize("tau", TAUS)
def test_dual_relation_kernel(tau):
    kernel = dual_relation_kernel(tau)
    assert len(kernel) == 6
    space = Subspace(9, kernel)
    assert space.contains(pair_tensor({("xi", "xi"): 1}, dual=True))
    assert space.contains(pair_tensor({("eta", "eta"): 1}, dual=True))
    relation = pair_tensor({("zeta", "zeta"): 1, ("xi", "eta"): tau, ("eta", "xi"): -tau}, dual=True)
    assert space.contains(relation)


def test_dual_relation_kernel_equals_expected_span():
    # the six tensors that check_relations hard-codes, at several tau
    for tau in TAUS:
        expected = Subspace(
            9,
            [
                pair_tensor({("xi", "xi"): 1}, dual=True),
                pair_tensor({("eta", "eta"): 1}, dual=True),
                pair_tensor({("xi", "eta"): 1, ("eta", "xi"): 1}, dual=True),
                pair_tensor({("xi", "zeta"): 1, ("zeta", "xi"): 1}, dual=True),
                pair_tensor({("eta", "zeta"): 1, ("zeta", "eta"): 1}, dual=True),
                pair_tensor({("zeta", "zeta"): 1, ("xi", "eta"): tau, ("eta", "xi"): -tau}, dual=True),
            ],
        )
        assert Subspace(9, dual_relation_kernel(tau)) == expected


def test_dual_pair_order_shape():
    assert len(DUAL_PAIR_ORDER) == 9


# ---------------------------------------------------------------------------
# pencil determinant


def test_determinant_symbolic():
    det = artin_moduli_determinant()
    w, tau = MPoly.var("w"), MPoly.var("tau")
    assert det.terms == (-(tau * w * w * w)).terms


def test_determinant_specializations():
    det = artin_moduli_determinant()
    assert det.substitute(u=1, v=1, w=0, tau=5) == 0
    assert det.substitute(u=0, v=0, w=1, tau=2) == -2
    assert det.substitute(u=3, v=-2, w=Fraction(1, 2), tau=Fraction(4, 3)) == Fraction(-4, 3) * Fraction(1, 8)


# ---------------------------------------------------------------------------
# the closed-form generator product against the branching rewriter
#
# ``_reduce_word`` and ``graded_dim_computed`` below are verbatim copies of
# the rewriting engine the closed-form rule replaced: it moves x left and z
# right, branching on y x -> x y - tau z^2, over every sub-word.

_reduce_cache = {}


def _monomial_word(m):
    a, b, c = m
    return ("x",) * a + ("y",) * b + ("z",) * c


def _reduce_word(word: tuple[str, ...]) -> NCElement:
    """Rewrite a word to normal form.  Terminates: each step drops the pair
    (number of y's, number of inversions) lexicographically."""
    cached = _reduce_cache.get(word)
    if cached is not None:
        return cached
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a == "z" and b in ("x", "y"):
            result = _reduce_word(word[:i] + (b, "z") + word[i + 2 :])
            break
        if a == "y" and b == "x":
            head, tail = word[:i], word[i + 2 :]
            result = _reduce_word(head + ("x", "y") + tail) + _reduce_word(head + ("z", "z") + tail).scale(
                tau_poly(-1, 1)
            )
            break
    else:
        a = word.count("x")
        b = word.count("y")
        c = word.count("z")
        result = NCElement(((((a, b, c)), tau_poly(1)),))
    _reduce_cache[word] = result
    return result


def rewriter_graded_dim_computed(degree: int, tau) -> int:
    t = rat(tau)
    if degree == 0:
        return 1
    index = {m: j for j, m in enumerate(normal_monomials(degree))}
    span = Echelon()
    for m in normal_monomials(degree - 1):
        for g in GENERATORS:
            elem = _reduce_word(_monomial_word(m) + (g,))
            span.add((index[mono], v) for mono, v in elem.coefficients_at(t).items())
    return span.rank


ORACLE_TAUS = [Fraction(1), Fraction(3, 7), Fraction(0), Fraction(-2)]


def all_words(max_len: int):
    for length in range(max_len + 1):
        yield from product(GENERATORS, repeat=length)


def test_normal_form_matches_rewriter_on_every_short_word():
    words = list(all_words(8))
    assert len(words) == 9841
    for word in words:
        new, old = normal_form(word), _reduce_word(word)
        assert new.terms == old.terms, word
        assert str(new) == str(old), word
        for tau in ORACLE_TAUS:
            assert new.coefficients_at(tau) == old.coefficients_at(tau), (word, tau)


def test_scaled_normal_form_matches_rewriter():
    for word in all_words(4):
        for coeff in (Fraction(-3, 2), 0, 5):
            assert normal_form(word, coeff).terms == _reduce_word(word).scale(coeff).terms


@pytest.mark.parametrize("tau", ORACLE_TAUS)
def test_graded_dim_computed_matches_rewriter(tau):
    for degree in range(13):
        assert graded_dim_computed(degree, tau) == rewriter_graded_dim_computed(degree, tau)


def test_normal_monomial_products_match_rewriter():
    # multiplying normal forms goes through the fold on the joined word
    monos = [m for d in range(4) for m in normal_monomials(d)]
    for m1 in monos:
        for m2 in monos:
            left = NCElement(((m1, tau_poly(1)),))
            right = NCElement(((m2, tau_poly(1)),))
            assert (left * right).terms == _reduce_word(_monomial_word(m1) + _monomial_word(m2)).terms
