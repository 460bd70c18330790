import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest

from conftest import kernel_vectors
from uhlenbeck import ncalgebra
from uhlenbeck.core import RatMatrix, RatPoly, Subspace, _integer_row, kernel_basis, rat
from uhlenbeck.ncalgebra import (
    DUAL_BASIS,
    DUAL_GENERATORS,
    DUAL_PAIR_ORDER,
    GENERATORS,
    PAIR_ORDER,
    DualElement,
    MPoly,
    NCElement,
    artin_moduli_determinant,
    dual_graded_dims,
    dual_relation_kernel,
    dual_word,
    graded_dim,
    graded_dim_computed,
    monomial_str,
    normal_form,
    normal_monomials,
    pair_tensor,
    relation_kernel,
    relation_pencil_matrix,
    tau_poly,
)

TAUS = [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 5)]


def coeffs_at(elem: NCElement, tau) -> dict:
    return elem.coefficients_at(tau)


# ---------------------------------------------------------------------------
# normal forms


def test_yx_rewrite():
    e = normal_form("yx")
    d = dict(e.terms)
    assert d[(1, 1, 0)] == tau_poly(1)
    assert d[(0, 0, 2)] == tau_poly(-1, 1)
    assert len(d) == 2


def test_z_is_central():
    assert dict(normal_form("zx").terms) == {(1, 0, 1): tau_poly(1)}
    assert dict(normal_form("zy").terms) == {(0, 1, 1): tau_poly(1)}


def test_yxz_two_rewrites():
    d = dict(normal_form("yxz").terms)
    assert d == {(1, 1, 1): tau_poly(1), (0, 0, 3): tau_poly(-1, 1)}


def test_commutative_at_tau_zero():
    assert normal_form("yx").coefficients_at(0) == {(1, 1, 0): Fraction(1)}


def test_normal_form_rejects_bad_letters():
    with pytest.raises(ValueError):
        normal_form("xq")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: normal_form("xq"), "unknown generator 'q'"),
        (lambda: normal_monomials(-1), "degree must be nonnegative"),
        pytest.param(lambda: dual_graded_dims(1, max_degree=-1), "degree must be nonnegative", id="dual_graded_dims-negative"),
        # the fold's one letter check serves every algebra and entry; their own
        # ids, so the normal_form row above keeps "<lambda>-unknown generator 'q'"
        pytest.param(lambda: dual_word(["q"]), "unknown generator 'q'", id="dual_word-q"),
        pytest.param(lambda: dual_word(["xi", "q"]), "unknown generator 'q'", id="dual_word-xi q"),
        pytest.param(lambda: dual_word("xi"), "unknown generator 'x'", id="dual_word-string xi"),
        pytest.param(lambda: MPoly.var("q"), "unknown generator 'q'", id="MPoly.var-q"),
    ],
)
def test_ncalgebra_rejects_malformed_input_with_its_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


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
    assert (dual_word(["xi"]) * dual_word(["xi"])).is_zero
    assert (dual_word(["eta"]) * dual_word(["eta"])).is_zero


def test_dual_anticommute():
    ab = dual_word(["eta"]) * dual_word(["xi"])
    assert dict(ab.terms) == {("xi", "eta"): tau_poly(-1)}


def test_dual_zeta_square():
    zz = dual_word(["zeta"]) * dual_word(["zeta"])
    assert dict(zz.terms) == {("xi", "eta"): tau_poly(-2, 1)}


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
        assert ((a * b) * c).terms == (a * (b * c)).terms


def test_dual_basis_is_the_sorted_square_free_words():
    assert DUAL_BASIS == ((), ("xi",), ("eta",), ("zeta",), ("xi", "eta"), ("xi", "zeta"), ("eta", "zeta"), ("xi", "eta", "zeta"))
    assert ncalgebra._DUAL_ORDER == {"xi": 0, "eta": 1, "zeta": 2}


def test_dual_basis_is_closed_under_the_rule():
    # every key the rule reaches from 1 by words of length up to 4, zero
    # coefficients included, is a basis word, and every basis word is reached
    reached = frontier = {()}
    for _ in range(4):
        frontier = {w2 for w in frontier for g in DUAL_GENERATORS for w2, _, _ in DualElement.times(w, g)}
        reached = reached | frontier
    assert reached == set(DUAL_BASIS)


def test_str_of_each_algebra_is_pinned():
    samples = [
        (NCElement(()), "0"),
        (normal_form(""), "(1) 1"),
        (normal_form("yx"), "(-tau) z^2 + (1) x y"),
        (normal_form("yyxz").scale(Fraction(-2, 3)), "(4/3*tau) y z^3 + (-2/3) x y^2 z"),
        (DualElement(()), "0"),
        (dual_word(["zeta", "zeta"]), "(-2*tau) xi.eta"),
        (dual_word([]) - dual_word(["eta", "xi"]).scale(3) + dual_word(["zeta", "xi", "eta"]), "(1) 1 + (3) xi.eta + (1) xi.eta.zeta"),
        (MPoly(()), "0"),
        (artin_moduli_determinant(), "-w^3*tau"),
        (MPoly.var("u") * MPoly.var("v") - MPoly.var("tau").scale(Fraction(1, 2)), "-1/2*tau + u*v"),
    ]
    for value, expected in samples:
        assert str(value) == expected


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
    assert space.contains(pair_tensor({("xi", "xi"): 1}))
    assert space.contains(pair_tensor({("eta", "eta"): 1}))
    relation = pair_tensor({("zeta", "zeta"): 1, ("xi", "eta"): tau, ("eta", "xi"): -tau})
    assert space.contains(relation)


def test_dual_relation_kernel_equals_expected_span():
    # the six tensors that check_relations hard-codes, at several tau
    for tau in TAUS:
        expected = Subspace(
            9,
            [
                pair_tensor({("xi", "xi"): 1}),
                pair_tensor({("eta", "eta"): 1}),
                pair_tensor({("xi", "eta"): 1, ("eta", "xi"): 1}),
                pair_tensor({("xi", "zeta"): 1, ("zeta", "xi"): 1}),
                pair_tensor({("eta", "zeta"): 1, ("zeta", "eta"): 1}),
                pair_tensor({("zeta", "zeta"): 1, ("xi", "eta"): tau, ("eta", "xi"): -tau}),
            ],
        )
        assert Subspace(9, dual_relation_kernel(tau)) == expected


def test_dual_pair_order_shape():
    assert len(DUAL_PAIR_ORDER) == 9


def test_pair_tensor_reads_the_pair_order_off_the_letters():
    # x, y, z pairs land at their PAIR_ORDER positions, xi, eta, zeta pairs at
    # their DUAL_PAIR_ORDER ones
    for order in (PAIR_ORDER, DUAL_PAIR_ORDER):
        for i, pair in enumerate(order):
            unit = [Fraction(0)] * 9
            unit[i] = Fraction(2, 3)
            assert pair_tensor({pair: Fraction(2, 3)}) == tuple(unit)
        assert pair_tensor({order[0]: 1, order[8]: -1}) == (1,) + (0,) * 7 + (-1,)
    for mixed in ({("x", "xi"): 1}, {("zeta", "z"): 1}, {("x", "y"): 1, ("eta", "xi"): 1}, {("u", "v"): 1}):
        with pytest.raises(ValueError, match="^each pair must be two generators of one algebra$"):
            pair_tensor(mixed)


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
    span = Subspace(len(index))
    for m in normal_monomials(degree - 1):
        for g in GENERATORS:
            elem = _reduce_word(_monomial_word(m) + (g,))
            span.add((index[mono], v) for mono, v in elem.coefficients_at(t).items())
    return span.dim


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
        before = normal_form(word).terms
        for coeff in (Fraction(-3, 2), 0, 5):
            assert normal_form(word).scale(coeff).terms == _reduce_word(word).scale(coeff).terms
        # scaling returns a new element; the cached normal form is untouched
        assert normal_form(word).terms == before == _reduce_word(word).terms


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


# ---------------------------------------------------------------------------
# the one fold against the three mechanisms it replaced
#
# The functions and the class below are verbatim copies of the earlier
# engines, renamed with ``_old``/``Old`` (and ``bilinear`` moved out of its
# class): the recursive rewriter of the dual, its product, the dict
# arithmetic of ``MPoly`` with the pencil, and the two kernel builders.


def _old_bilinear(self, other, product):
    """The product extending product(key1, key2) -> combination over Q[tau]."""
    out: dict[tuple, RatPoly] = {}
    for k1, c1 in self.terms:
        for k2, c2 in other.terms:
            c = c1 * c2
            for k, coeff in product(k1, k2).terms:
                out[k] = out.get(k, RatPoly((), "tau")) + coeff * c
    return type(self).from_dict(out)


_DUAL_ORDER = {"xi": 0, "eta": 1, "zeta": 2}


def _old_dual_reduce(word) -> DualElement:
    """Reduce a dual word: sort letters with signs, kill squares, expand zeta^2."""
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a == b:
            if a in ("xi", "eta"):
                return DualElement(())
            # zeta zeta = -2 tau xi eta, from the defining relation and eta xi = -xi eta
            return _old_dual_reduce(word[:i] + ("xi", "eta") + word[i + 2 :]).scale(tau_poly(-2, 1))
        if _DUAL_ORDER[a] > _DUAL_ORDER[b]:
            return _old_dual_reduce(word[:i] + (b, a) + word[i + 2 :]).scale(-1)
    return DualElement(((word, tau_poly(1)),))


def _old_dual_multiply(a: DualElement, b: DualElement) -> DualElement:
    return _old_bilinear(a, b, lambda w1, w2: _old_dual_reduce(w1 + w2))


def _old_dual_graded_dims(tau, max_degree: int = 4) -> tuple[int, ...]:
    t = rat(tau)
    dims = []
    for degree in range(max_degree + 1):
        if degree == 0:
            dims.append(1)
            continue
        index = {w: j for j, w in enumerate(DUAL_BASIS)}
        span = Subspace(len(index))
        for letters in product(DUAL_GENERATORS, repeat=degree):
            elem = _old_dual_reduce(letters)
            span.add((index[w], v) for w, v in elem.coefficients_at(t).items())
        dims.append(span.dim)
    return tuple(dims)


def _old_relation_kernel(tau):
    t = rat(tau)
    mono2 = normal_monomials(2)
    index = {m: i for i, m in enumerate(mono2)}
    cols = []
    for g1, g2 in PAIR_ORDER:
        elem = normal_form(g1 + g2)
        col = [Fraction(0)] * len(mono2)
        for m, v in elem.coefficients_at(t).items():
            col[index[m]] = v
        cols.append(col)
    return kernel_vectors(RatMatrix.from_columns(cols))


def _old_dual_relation_kernel(tau):
    t = rat(tau)
    words2 = [w for w in DUAL_BASIS if len(w) == 2]
    index = {w: i for i, w in enumerate(words2)}
    cols = []
    for g1, g2 in DUAL_PAIR_ORDER:
        elem = _old_dual_reduce((g1, g2))
        col = [Fraction(0)] * len(words2)
        for w, v in elem.coefficients_at(t).items():
            col[index[w]] = v
        cols.append(col)
    return kernel_vectors(RatMatrix.from_columns(cols))


@dataclass(frozen=True)
class OldMPoly:
    """Multivariate polynomial over Q in the fixed variables u, v, w, tau."""

    terms: tuple[tuple[tuple[int, int, int, int], Fraction], ...]

    VARS = ("u", "v", "w", "tau")

    @classmethod
    def from_dict(cls, d):
        return cls(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    @classmethod
    def var(cls, name: str):
        exps = [0, 0, 0, 0]
        exps[cls.VARS.index(name)] = 1
        return cls(((tuple(exps), Fraction(1)),))

    @classmethod
    def const(cls, c):
        c = rat(c)
        return cls((((0, 0, 0, 0), c),)) if c != 0 else cls(())

    def __add__(self, other):
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, Fraction(0)) + c
        return OldMPoly.from_dict(d)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rat(c)
        return OldMPoly.from_dict({e: c * v for e, v in self.terms})

    def __mul__(self, other):
        d = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                d[e] = d.get(e, Fraction(0)) + c1 * c2
        return OldMPoly.from_dict(d)

    def substitute(self, **values) -> Fraction:
        vals = [rat(values[name]) for name in self.VARS]
        total = Fraction(0)
        for e, c in self.terms:
            term = c
            for base, exp in zip(vals, e):
                term *= base**exp
            total += term
        return total

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.terms:
            mono = "*".join(
                (name if k == 1 else f"{name}^{k}") for name, k in zip(self.VARS, e) if k > 0
            )
            if not mono:
                pieces.append(str(c))
            elif c == 1:
                pieces.append(mono)
            elif c == -1:
                pieces.append("-" + mono)
            else:
                pieces.append(f"{c}*{mono}")
        return " + ".join(pieces)


def _old_relation_pencil_matrix():
    u, v, w, tau = (OldMPoly.var(n) for n in OldMPoly.VARS)
    zero = OldMPoly.const(0)
    return [
        [zero, w, v],
        [-w, zero, u],
        [-v, -u, -(tau * w)],
    ]


def _old_artin_moduli_determinant():
    m = _old_relation_pencil_matrix()
    det = OldMPoly.const(0)
    det = det + m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
    det = det - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
    det = det + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    return det


def assert_same_combination(new, old):
    assert new.terms == old.terms
    assert repr(new) == repr(old)
    assert str(new) == str(old)
    for tau in ORACLE_TAUS:
        assert new.coefficients_at(tau) == old.coefficients_at(tau), tau


def test_dual_words_match_old_rewriter():
    words = [w for length in range(7) for w in product(DUAL_GENERATORS, repeat=length)]
    assert len(words) == 1093
    for word in words:
        assert_same_combination(dual_word(word), _old_dual_reduce(word))


def random_coefficient(rng) -> RatPoly:
    return tau_poly(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(0, 2))


def test_random_nc_products_match_old_product():
    rng = random.Random(303)

    def random_sum():
        words = ("".join(rng.choice("xyz") for _ in range(rng.randint(0, 4))) for _ in range(rng.randint(0, 3)))
        return sum((normal_form(w).scale(random_coefficient(rng)) for w in words), NCElement(()))

    for _ in range(150):
        a, b = random_sum(), random_sum()
        old = _old_bilinear(a, b, lambda m1, m2: _reduce_word(_monomial_word(m1) + _monomial_word(m2)))
        assert_same_combination(a * b, old)


def test_random_dual_products_match_old_product():
    rng = random.Random(304)

    def random_sum():
        words = ([rng.choice(DUAL_GENERATORS) for _ in range(rng.randint(0, 3))] for _ in range(rng.randint(0, 4)))
        return sum((dual_word(w).scale(random_coefficient(rng)) for w in words), DualElement(()))

    for _ in range(300):
        a, b = random_sum(), random_sum()
        old = _old_dual_multiply(a, b)
        assert_same_combination(a * b, old)


def old_layout(p: MPoly):
    """The terms of an ``MPoly`` in the old layout: ((i, j, k, d), rational), sorted."""
    return tuple(sorted((e + (d,), c) for e, poly in p.terms for d, c in enumerate(poly.coeffs) if c != 0))


def assert_same_polynomial(new: MPoly, old: OldMPoly, rng):
    assert old_layout(new) == old.terms
    assert str(new) == str(old)
    assert new.is_zero == old.is_zero
    for tau in ORACLE_TAUS:
        values = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for n in "uvw"}
        assert new.substitute(tau=tau, **values) == old.substitute(tau=tau, **values)


def test_random_mpoly_arithmetic_matches_old_mpoly():
    rng = random.Random(305)

    def random_pair():
        new, old = MPoly(()), OldMPoly.const(0)
        for _ in range(rng.randint(0, 3)):
            names = [rng.choice(MPoly.VARS) for _ in range(rng.randint(0, 3))]
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            term_new, term_old = MPoly(((((0, 0, 0), tau_poly(1)),))), OldMPoly.const(1)
            for n in names:
                term_new, term_old = term_new * MPoly.var(n), term_old * OldMPoly.var(n)
            new, old = new + term_new.scale(c), old + term_old.scale(c)
        return new, old

    for _ in range(150):
        (a, a_old), (b, b_old) = random_pair(), random_pair()
        assert_same_polynomial(a, a_old, rng)
        assert_same_polynomial(a + b, a_old + b_old, rng)
        assert_same_polynomial(a - b, a_old - b_old, rng)
        assert_same_polynomial(a * b, a_old * b_old, rng)
        assert_same_polynomial(-a, -a_old, rng)


def test_pencil_matches_old_mpoly():
    rng = random.Random(306)
    for row, old_row in zip(relation_pencil_matrix(), _old_relation_pencil_matrix()):
        for entry, old_entry in zip(row, old_row):
            assert_same_polynomial(entry, old_entry, rng)
    det, old = artin_moduli_determinant(), _old_artin_moduli_determinant()
    assert_same_polynomial(det, old, rng)
    assert str(det) == "-w^3*tau"


@pytest.mark.parametrize("tau", sorted(set(TAUS + ORACLE_TAUS)))
def test_kernels_and_dual_dims_match_old_builders(tau):
    assert relation_kernel(tau) == _old_relation_kernel(tau)
    assert dual_relation_kernel(tau) == _old_dual_relation_kernel(tau)
    assert dual_graded_dims(tau, 6) == _old_dual_graded_dims(tau, 6)


@pytest.mark.parametrize("tau", ORACLE_TAUS + [Fraction(-3, 7), Fraction(355, 113)])
@pytest.mark.parametrize("algebra", [NCElement, DualElement])
def test_integer_rows_equal_the_rational_rows(algebra, tau):
    # the rows scaled by tau's denominator give the echelon of the rows c tau^e over Q
    for degree in range(1, 13):
        index = {k: j for j, k in enumerate(algebra.keys(degree))}
        rational = Subspace(len(index))
        for key in algebra.keys(degree - 1):
            for g in algebra.generators:
                terms = algebra.times(key, g)
                assert {e for _, _, e in terms} <= {0, 1}, (key, g)
                rational._insert(_integer_row((index[k2], c * tau**e) for k2, c, e in terms))
        assert ncalgebra._times_span(algebra, degree, tau).rows == rational.rows, degree


def _old_pair_kernel(algebra, tau):
    """``_pair_kernel`` as it was: Fraction columns of the folded products."""
    t = rat(tau)
    keys2, one = algebra.keys(2), algebra.keys(0)[0]
    index = {k: i for i, k in enumerate(keys2)}
    cols = []
    for pair in product(algebra.generators, repeat=2):
        col = [Fraction(0)] * len(keys2)
        for k, v in algebra.fold(one, pair).coefficients_at(t).items():
            col[index[k]] = v
        cols.append(col)
    k = kernel_basis(RatMatrix.from_columns(cols))
    return [k.row(i) for i in range(k.rows)]


@pytest.mark.parametrize("tau", [Fraction(0), Fraction(1), Fraction(3, 7), Fraction(-355, 113), Fraction(-2), Fraction(2**70 + 1, 3)])
def test_pair_kernels_from_the_degree_two_rows_match_the_folded_columns(tau):
    # the degree-2 rows come in product order because keys(1) spells the generators in order
    for algebra in (NCElement, DualElement):
        assert [algebra.word(key) for key in algebra.keys(1)] == [(g,) for g in algebra.generators]
    for new, old in ((relation_kernel(tau), _old_pair_kernel(NCElement, tau)), (dual_relation_kernel(tau), _old_pair_kernel(DualElement, tau))):
        assert new == old and all(type(x) is Fraction for v in new for x in v)
