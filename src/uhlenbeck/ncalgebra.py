"""The graded algebra with [x,y] = tau z^2, z central, its quadratic dual and
the polynomials of its relation pencil, all multiplied by one fold.

Each declares its generators, a basis of keys and a rule for a key times one
generator.  A key is spelled by a word in the generators, so a product of two
keys folds the letters of the second into the first one at a time, each by the
rule (``TauCombination.fold``, which rejects any other letter); every partial
product is already in the basis.
Coefficients live in Q[tau], so one rule serves the generic parameter and
every rational specialization, including tau = 0 (the commutative plane).

The algebra has the normal monomials x^a y^b z^c as keys.  Because z is
central and, by induction on b from y x = x y - tau z^2,
y^b x = x y^b - b tau z^2 y^(b-1), its rule is

    x^a y^b z^c . z = x^a y^b z^(c+1),
    x^a y^b z^c . y = x^a y^(b+1) z^c,
    x^a y^b z^c . x = x^(a+1) y^b z^c - b tau x^a y^(b-1) z^(c+2).

The quadratic dual is the twisted exterior algebra on xi, eta, zeta with
xi^2 = eta^2 = 0, anticommuting distinct letters, and zeta^2 = -2 tau xi eta,
the sign forced by zeta^2 + tau(xi eta - eta xi) = 0 and eta xi = -xi eta.
Its keys are the sorted square-free words, and its rule moves the generator
left past each larger letter, with a sign for each.  The pencil polynomials
are keyed by the exponents (i, j, k) of u^i v^j w^k; the rule adds 1 to one.

Both kernels of the degree-two multiplication maps are computed by exact
linear algebra, not read off from the presentation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .core import RatMatrix, RatPoly, Subspace, Vector, _echelon, _primitive, _term_str, kernel_basis, rat
from .partitions import Frozen

GENERATORS = ("x", "y", "z")


def tau_poly(c=1, degree: int = 0) -> RatPoly:
    """c * tau^degree as an element of Q[tau]."""
    return RatPoly((0,) * degree + (c,), "tau")


Monomial = tuple[int, int, int]  # exponents (a, b, c) of x^a y^b z^c


class TauCombination(Frozen):
    """Finite Q[tau]-linear combination of basis keys (tuples), sparse.

    Terms are sorted by (len(key), key) with zero coefficients dropped, so
    equal combinations have equal ``terms``.  A subclass is an algebra: it
    declares its ``generators``, ``times(key, letter)`` gives a key times a
    generator as (key, integer, power of tau) terms, ``word(key)`` spells a
    key in generators and ``key_str(key)`` prints it; a graded one declares
    ``keys(degree)``, its basis of that degree.
    """

    _fields = ("terms",)

    def __init__(self, terms: tuple[tuple[tuple, RatPoly], ...]):
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_dict(cls, d: dict[tuple, RatPoly]):
        items = ((k, c) for k, c in d.items() if not c.is_zero)
        return cls(tuple(sorted(items, key=lambda kc: (len(kc[0]), kc[0]))))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        d = dict(self.terms)
        for k, c in other.terms:
            d[k] = d.get(k, RatPoly((), "tau")) + c
        return type(self).from_dict(d)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        factor = c if isinstance(c, RatPoly) else tau_poly(rat(c))
        return type(self).from_dict({k: coeff * factor for k, coeff in self.terms})

    @classmethod
    def fold(cls, start: tuple, word):
        """start . word, folding the letters in one at a time by ``times``.

        Under each rule here a key is only ever reached from a given start
        and word with one power of tau, so each coefficient is an integer
        times it.  A letter that is not one of ``generators`` is rejected.
        """
        terms = {start: (1, 0)}  # key -> (integer, power of tau)
        for g in word:
            if g not in cls.generators:
                raise ValueError(f"unknown generator {g!r}")
            folded: dict[tuple, tuple[int, int]] = {}
            for key, (coeff, k) in terms.items():
                for key2, c2, k2 in cls.times(key, g):
                    folded[key2] = (folded.get(key2, (0,))[0] + coeff * c2, k + k2)
            terms = folded
        return cls.from_dict({key: tau_poly(c, k) for key, (c, k) in terms.items()})

    @classmethod
    def word(cls, key: tuple) -> tuple[str, ...]:
        """An exponent key spelled in generators, each repeated by its exponent."""
        return tuple(g for g, e in zip(cls.generators, key) for _ in range(e))

    def __mul__(self, other):
        out: dict[tuple, RatPoly] = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                c = c1 * c2
                for k, coeff in self.fold(k1, self.word(k2)).terms:
                    out[k] = out.get(k, RatPoly((), "tau")) + coeff * c
        return type(self).from_dict(out)

    def coefficients_at(self, tau) -> dict[tuple, Fraction]:
        """Specialize tau to a rational and drop vanished terms."""
        t = rat(tau)
        return {k: v for k, c in self.terms if (v := c(t))}

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c}) {self.key_str(k)}" for k, c in self.terms)


def monomial_str(m: Monomial) -> str:
    a, b, c = m
    parts = []
    for e, g in zip((a, b, c), GENERATORS):
        if e == 1:
            parts.append(g)
        elif e > 1:
            parts.append(f"{g}^{e}")
    return " ".join(parts) if parts else "1"


def normal_monomials(degree: int) -> list[Monomial]:
    """All normal-form monomials x^a y^b z^c of the given total degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return [(a, b, degree - a - b) for a in range(degree, -1, -1) for b in range(degree - a, -1, -1)]


class NCElement(TauCombination):
    """Element of the algebra in normal form: {(a,b,c): coefficient in Q[tau]}."""

    generators = GENERATORS
    keys = staticmethod(normal_monomials)

    @staticmethod
    def times(m: Monomial, g: str) -> tuple[tuple[Monomial, int, int], ...]:
        """x^a y^b z^c . g in normal form, as (monomial, integer, power of tau) terms."""
        a, b, c = m
        if g == "z":
            return (((a, b, c + 1), 1, 0),)
        if g == "y":
            return (((a, b + 1, c), 1, 0),)
        if b:
            return (((a + 1, b, c), 1, 0), ((a, b - 1, c + 2), -b, 1))
        return (((a + 1, b, c), 1, 0),)

    key_str = staticmethod(monomial_str)


# Normal forms of whole words, as asked for by ``normal_form``.
_reduce_cache: dict[tuple[str, ...], NCElement] = {}


def normal_form(word) -> NCElement:
    """Normal form of a formal word in x, y, z.

    The word is a string like "yxz" (whitespace ignored) or a sequence of
    generator names.
    """
    if isinstance(word, str):
        letters = tuple(ch for ch in word if not ch.isspace())
    else:
        letters = tuple(word)
    element = _reduce_cache.get(letters)
    if element is None:
        element = _reduce_cache[letters] = NCElement.fold((0, 0, 0), letters)
    return element


def graded_dim(degree: int) -> int:
    """Dimension of the degree-i component: the number of normal monomials."""
    return len(normal_monomials(degree))


def graded_dim_computed(degree: int, tau) -> int:
    """Dimension of the degree-i component at a rational tau, recomputed.

    Multiplies the normal basis of degree i-1 by each generator, by the
    closed-form rule at this tau (a row of at most two entries), and takes
    the exact rank of the resulting span.  Agreement with ``graded_dim``
    checks that no collapse occurs at this tau (induction on the degree
    starting from the generators).
    """
    return _times_span(NCElement, degree, rat(tau)).dim


def _times_span(algebra, degree: int, t: Fraction) -> Subspace:
    """Degree i at a rational t, for both algebras, as the span of the rows of
    ``_times_rows``.  Each key is its own word, so these span all words of length i."""
    if degree == 0:
        return Subspace.full(1)
    width, rows = _times_rows(algebra, degree, t)
    return _echelon(width, map(_primitive, rows))


def _times_rows(algebra, degree: int, t: Fraction) -> tuple[int, list[dict[int, int]]]:
    """(|keys(i)|, rows) for i >= 1: each key of degree i-1 times each generator,
    in that order, by ``algebra.times``, as a sparse row in the basis ``algebra.keys(i)``.

    The rows are integer rows, scaled by t's denominator: every term of ``times``
    is c tau^e with e in {0, 1}, so with t = p/q, q > 0, the row times q has the
    entries c p^e q^(1-e).  A positive scale gives the same primitive row, and so
    the same echelon, as clearing the denominators of the rationals c t^e."""
    index = {k: j for j, k in enumerate(algebra.keys(degree))}
    scaled = (t.denominator, t.numerator)  # q tau^e at tau = p/q, for e = 0, 1
    products = [algebra.times(key, g) for key in algebra.keys(degree - 1) for g in algebra.generators]
    return len(index), [{index[k2]: v for k2, c, e in terms if (v := c * scaled[e])} for terms in products]


# ---------------------------------------------------------------------------
# the quadratic dual


DUAL_GENERATORS = ("xi", "eta", "zeta")
_DUAL_ORDER = {g: i for i, g in enumerate(DUAL_GENERATORS)}

DualWord = tuple[str, ...]

# the sorted square-free words, shortest first
DUAL_BASIS: tuple[DualWord, ...] = tuple(w for n in range(len(DUAL_GENERATORS) + 1) for w in combinations(DUAL_GENERATORS, n))


class DualElement(TauCombination):
    """Element of the dual algebra on the canonical square-free basis."""

    generators = DUAL_GENERATORS
    keys = staticmethod(lambda degree: [w for w in DUAL_BASIS if len(w) == degree])

    @staticmethod
    def times(w: DualWord, g: str) -> tuple[tuple[DualWord, int, int], ...]:
        """A sorted square-free word times a generator, as (word, integer, power of tau) terms."""
        if g in w:
            # zeta zeta = -2 tau xi eta; a repeated xi or eta, or a longer
            # word ending in zeta times zeta (xi or eta twice), gives 0
            return ((("xi", "eta"), -2, 1),) if w == ("zeta",) else ()
        i = sum(1 for h in w if _DUAL_ORDER[h] < _DUAL_ORDER[g])
        return ((w[:i] + (g,) + w[i:], (-1) ** (len(w) - i), 0),)

    @staticmethod
    def word(w: DualWord) -> DualWord:
        return w

    @staticmethod
    def key_str(w: DualWord) -> str:
        return ".".join(w) if w else "1"


def dual_word(letters) -> DualElement:
    return DualElement.fold((), letters)


def dual_graded_dims(tau, max_degree: int = 4) -> tuple[int, ...]:
    """Dimensions of the dual algebra's graded pieces at a rational tau.

    Computed as the rank of the span of all generator words of each length,
    so the expected (1, 3, 3, 1, 0, ...) profile is verified, not assumed.
    """
    if max_degree < 0:
        raise ValueError("degree must be nonnegative")
    t = rat(tau)
    return tuple(_times_span(DualElement, i, t).dim for i in range(max_degree + 1))


# ---------------------------------------------------------------------------
# relation kernels of the degree-two multiplication maps


PAIR_ORDER: tuple[tuple[str, str], ...] = tuple(product(GENERATORS, repeat=2))
DUAL_PAIR_ORDER: tuple[tuple[str, str], ...] = tuple(product(DUAL_GENERATORS, repeat=2))


def _pair_kernel(algebra, tau) -> list[Vector]:
    """Kernel at a rational tau of g1 (x) g2 -> g1 g2, pairs in product order, in keys(2):
    the degree-2 ``_times_rows`` read as columns, in product order as keys(1) is the
    generators in order, and all scaled by one q > 0, which keeps the kernel."""
    width, rows = _times_rows(algebra, 2, rat(tau))
    k = kernel_basis(RatMatrix.from_columns([[row.get(i, 0) for i in range(width)] for row in rows]))
    return [k.row(i) for i in range(k.rows)]


def relation_kernel(tau) -> list[Vector]:
    """Basis of Ker(A_1 (x) A_1 -> A_2) at a rational tau.

    Vectors are coordinates in the ordered pair basis ``PAIR_ORDER``.
    """
    return _pair_kernel(NCElement, tau)


def dual_relation_kernel(tau) -> list[Vector]:
    """Basis of Ker(A^!_1 (x) A^!_1 -> A^!_2) at a rational tau.

    This six-dimensional kernel is the relation set imposed on quiver
    representations; coordinates follow ``DUAL_PAIR_ORDER``.
    """
    return _pair_kernel(DualElement, tau)


def pair_tensor(coeffs: dict[tuple[str, str], Fraction]) -> Vector:
    """Coordinate vector of a formal sum of tensors g1 (x) g2 of the generators
    of one algebra: in ``PAIR_ORDER`` for x, y, z, ``DUAL_PAIR_ORDER`` for xi, eta, zeta."""
    for order in (PAIR_ORDER, DUAL_PAIR_ORDER):
        if set(coeffs) <= set(order):
            return tuple(rat(coeffs.get(pair, 0)) for pair in order)
    raise ValueError("each pair must be two generators of one algebra")


# ---------------------------------------------------------------------------
# polynomials in u, v, w, tau and the moduli pencil determinant


class MPoly(TauCombination):
    """Polynomial in u, v, w over Q[tau]: {(i, j, k): coefficient of u^i v^j w^k}."""

    generators = ("u", "v", "w")
    VARS = generators + ("tau",)

    @classmethod
    def times(cls, e: Monomial, letter: str) -> tuple[tuple[Monomial, int, int], ...]:
        i = cls.generators.index(letter)
        return ((e[:i] + (e[i] + 1,) + e[i + 1 :], 1, 0),)

    @classmethod
    def var(cls, name: str) -> "MPoly":
        if name == "tau":
            return cls((((0, 0, 0), tau_poly(1, 1)),))
        return cls.fold((0, 0, 0), (name,))

    def __neg__(self) -> "MPoly":
        return self.scale(-1)

    def substitute(self, **values) -> Fraction:
        u, v, w, tau = (rat(values[name]) for name in self.VARS)
        return sum((c(tau) * u**i * v**j * w**k for (i, j, k), c in self.terms), Fraction(0))

    def __str__(self):
        # one piece per monomial u^i v^j w^k tau^d, ordered by (i, j, k, d)
        expanded = sorted((e + (d,), c) for e, poly in self.terms for d, c in enumerate(poly.coeffs) if c != 0)
        if not expanded:
            return "0"
        pieces = []
        for e, c in expanded:
            mono = "*".join(
                (name if k == 1 else f"{name}^{k}") for name, k in zip(self.VARS, e) if k > 0
            )
            pieces.append(_term_str(c, mono))
        return " + ".join(pieces)


def relation_pencil_matrix() -> list[list[MPoly]]:
    """The 3x3 pencil pairing the degree-two relation space against A_1.

    A relation u(yz - zy) + v(xz - zx) + w(xy - yx - tau zz), read as a map
    from the dual of A_1 to A_1 in the ordered basis (x, y, z), is the matrix
    below; its degeneration locus cuts out the length-one module space.
    """
    u, v, w, tau = (MPoly.var(n) for n in MPoly.VARS)
    zero = MPoly(())
    return [
        [zero, w, v],
        [-w, zero, u],
        [-v, -u, -(tau * w)],
    ]


def artin_moduli_determinant() -> MPoly:
    """Determinant of the relation pencil matrix, as a polynomial in u,v,w,tau."""
    m = relation_pencil_matrix()
    det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
    det = det - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
    det = det + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    return det
