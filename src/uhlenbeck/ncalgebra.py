"""The graded algebra with [x,y] = tau z^2, z central, its quadratic dual and
the polynomials of its relation pencil, all multiplied by one fold.

Each has a basis of keys and a rule for a key times one generator.  A key is
spelled by a word in the generators, so a product of two keys folds the
letters of the second into the first one at a time, each by the rule
(``TauCombination.fold``); every partial product is already in the basis.
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

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .core import RatMatrix, RatPoly, Subspace, Vector, kernel_basis, rat

GENERATORS = ("x", "y", "z")


def tau_poly(c=1, degree: int = 0) -> RatPoly:
    """c * tau^degree as an element of Q[tau]."""
    return RatPoly.monomial(degree, c, var="tau")


Monomial = tuple[int, int, int]  # exponents (a, b, c) of x^a y^b z^c


@dataclass(frozen=True)
class TauCombination:
    """Finite Q[tau]-linear combination of basis keys (tuples), sparse.

    Terms are sorted by (len(key), key) with zero coefficients dropped, so
    equal combinations have equal ``terms``.  A subclass is an algebra:
    ``times(key, letter)`` gives a key times a generator as (key, integer,
    power of tau) terms, and ``word(key)`` spells a key in generators.
    """

    terms: tuple[tuple[tuple, RatPoly], ...]

    @classmethod
    def from_dict(cls, d: dict[tuple, RatPoly]):
        items = ((k, c) for k, c in d.items() if not c.is_zero)
        return cls(tuple(sorted(items, key=lambda kc: (len(kc[0]), kc[0]))))

    @classmethod
    def zero(cls):
        return cls(())

    def as_dict(self) -> dict[tuple, RatPoly]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        d = self.as_dict()
        for k, c in other.terms:
            d[k] = d.get(k, RatPoly.zero("tau")) + c
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
        times it.
        """
        terms = {start: (1, 0)}  # key -> (integer, power of tau)
        for g in word:
            folded: dict[tuple, tuple[int, int]] = {}
            for key, (coeff, k) in terms.items():
                for key2, c2, k2 in cls.times(key, g):
                    folded[key2] = (folded.get(key2, (0,))[0] + coeff * c2, k + k2)
            terms = folded
        return cls.from_dict({key: tau_poly(c, k) for key, (c, k) in terms.items()})

    def __mul__(self, other):
        out: dict[tuple, RatPoly] = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                c = c1 * c2
                for k, coeff in self.fold(k1, self.word(k2)).terms:
                    out[k] = out.get(k, RatPoly.zero("tau")) + coeff * c
        return type(self).from_dict(out)

    def coefficients_at(self, tau) -> dict[tuple, Fraction]:
        """Specialize tau to a rational and drop vanished terms."""
        t = rat(tau)
        out = {}
        for k, c in self.terms:
            v = c(t)
            if v != 0:
                out[k] = v
        return out


class NCElement(TauCombination):
    """Element of the algebra in normal form: {(a,b,c): coefficient in Q[tau]}."""

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

    @staticmethod
    def word(m: Monomial) -> tuple[str, ...]:
        a, b, c = m
        return ("x",) * a + ("y",) * b + ("z",) * c

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c}) {monomial_str(m)}" for m, c in self.terms)


def monomial_str(m: Monomial) -> str:
    a, b, c = m
    parts = []
    for e, g in zip((a, b, c), GENERATORS):
        if e == 1:
            parts.append(g)
        elif e > 1:
            parts.append(f"{g}^{e}")
    return " ".join(parts) if parts else "1"


# Normal forms of whole words, as asked for by ``normal_form``.
_reduce_cache: dict[tuple[str, ...], NCElement] = {}


def normal_form(word, coeff=1) -> NCElement:
    """Normal form of a formal word in x, y, z with a rational coefficient.

    The word is a string like "yxz" (whitespace ignored) or a sequence of
    generator names.
    """
    if isinstance(word, str):
        letters = tuple(ch for ch in word if not ch.isspace())
    else:
        letters = tuple(word)
    for ch in letters:
        if ch not in GENERATORS:
            raise ValueError(f"unknown generator {ch!r}")
    element = _reduce_cache.get(letters)
    if element is None:
        element = _reduce_cache[letters] = NCElement.fold((0, 0, 0), letters)
    c = rat(coeff)
    return element if c == 1 else element.scale(c)


def normal_monomials(degree: int) -> list[Monomial]:
    """All normal-form monomials x^a y^b z^c of the given total degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return [(a, b, degree - a - b) for a in range(degree, -1, -1) for b in range(degree - a, -1, -1)]


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
    t = rat(tau)
    if degree == 0:
        return 1
    index = {m: j for j, m in enumerate(normal_monomials(degree))}
    span = Subspace(len(index))
    for m in normal_monomials(degree - 1):
        for g in GENERATORS:
            span.add((index[m2], c * t**k) for m2, c, k in NCElement.times(m, g))
    return span.dim


# ---------------------------------------------------------------------------
# the quadratic dual


DUAL_GENERATORS = ("xi", "eta", "zeta")
_DUAL_ORDER = {"xi": 0, "eta": 1, "zeta": 2}

DualWord = tuple[str, ...]

DUAL_BASIS: tuple[DualWord, ...] = (
    (),
    ("xi",),
    ("eta",),
    ("zeta",),
    ("xi", "eta"),
    ("xi", "zeta"),
    ("eta", "zeta"),
    ("xi", "eta", "zeta"),
)


class DualElement(TauCombination):
    """Element of the dual algebra on the canonical square-free basis."""

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

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c}) {'.'.join(w) if w else '1'}" for w, c in self.terms)


def dual_word(letters) -> DualElement:
    return DualElement.fold((), letters)


def dual_multiply(a: DualElement, b: DualElement) -> DualElement:
    return a * b


def dual_graded_dims(tau, max_degree: int = 4) -> tuple[int, ...]:
    """Dimensions of the dual algebra's graded pieces at a rational tau.

    Computed as the rank of the span of all generator words of each length,
    so the expected (1, 3, 3, 1, 0, ...) profile is verified, not assumed.
    """
    t = rat(tau)
    index = {w: j for j, w in enumerate(DUAL_BASIS)}
    dims = []
    for degree in range(max_degree + 1):
        span = Subspace(len(index))
        for letters in product(DUAL_GENERATORS, repeat=degree):
            span.add((index[w], v) for w, v in dual_word(letters).coefficients_at(t).items())
        dims.append(span.dim)
    return tuple(dims)


# ---------------------------------------------------------------------------
# relation kernels of the degree-two multiplication maps


PAIR_ORDER: tuple[tuple[str, str], ...] = tuple((g1, g2) for g1 in GENERATORS for g2 in GENERATORS)
DUAL_PAIR_ORDER: tuple[tuple[str, str], ...] = tuple((g1, g2) for g1 in DUAL_GENERATORS for g2 in DUAL_GENERATORS)


def _pair_kernel(pairs, reduce, keys2, tau) -> list[Vector]:
    """Kernel at a rational tau of g1 (x) g2 -> reduce(g1 g2) in the basis keys2."""
    t = rat(tau)
    index = {k: i for i, k in enumerate(keys2)}
    cols = []
    for pair in pairs:
        col = [Fraction(0)] * len(keys2)
        for k, v in reduce(pair).coefficients_at(t).items():
            col[index[k]] = v
        cols.append(col)
    return kernel_basis(RatMatrix.from_columns(cols))


def relation_kernel(tau) -> list[Vector]:
    """Basis of Ker(A_1 (x) A_1 -> A_2) at a rational tau.

    Vectors are coordinates in the ordered pair basis ``PAIR_ORDER``.
    """
    return _pair_kernel(PAIR_ORDER, normal_form, normal_monomials(2), tau)


def dual_relation_kernel(tau) -> list[Vector]:
    """Basis of Ker(A^!_1 (x) A^!_1 -> A^!_2) at a rational tau.

    This six-dimensional kernel is the relation set imposed on quiver
    representations; coordinates follow ``DUAL_PAIR_ORDER``.
    """
    return _pair_kernel(DUAL_PAIR_ORDER, dual_word, [w for w in DUAL_BASIS if len(w) == 2], tau)


def pair_tensor(coeffs: dict[tuple[str, str], Fraction], dual: bool = False) -> Vector:
    """Coordinate vector of a formal sum of tensors g1 (x) g2."""
    order = DUAL_PAIR_ORDER if dual else PAIR_ORDER
    pos = {p: i for i, p in enumerate(order)}
    v = [Fraction(0)] * len(order)
    for pair, c in coeffs.items():
        v[pos[pair]] = rat(c)
    return tuple(v)


# ---------------------------------------------------------------------------
# polynomials in u, v, w, tau and the moduli pencil determinant


class MPoly(TauCombination):
    """Polynomial in u, v, w over Q[tau]: {(i, j, k): coefficient of u^i v^j w^k}."""

    VARS = ("u", "v", "w", "tau")

    @staticmethod
    def times(e: Monomial, letter: str) -> tuple[tuple[Monomial, int, int], ...]:
        i = "uvw".index(letter)
        return ((e[:i] + (e[i] + 1,) + e[i + 1 :], 1, 0),)

    @staticmethod
    def word(e: Monomial) -> tuple[str, ...]:
        return ("u",) * e[0] + ("v",) * e[1] + ("w",) * e[2]

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
            if not mono:
                pieces.append(str(c))
            elif c == 1:
                pieces.append(mono)
            elif c == -1:
                pieces.append("-" + mono)
            else:
                pieces.append(f"{c}*{mono}")
        return " + ".join(pieces)


def relation_pencil_matrix() -> list[list[MPoly]]:
    """The 3x3 pencil pairing the degree-two relation space against A_1.

    A relation u(yz - zy) + v(xz - zx) + w(xy - yx - tau zz), read as a map
    from the dual of A_1 to A_1 in the ordered basis (x, y, z), is the matrix
    below; its degeneration locus cuts out the length-one module space.
    """
    u, v, w, tau = (MPoly.var(n) for n in MPoly.VARS)
    zero = MPoly.zero()
    return [
        [zero, w, v],
        [-w, zero, u],
        [-v, -u, -(tau * w)],
    ]


def artin_moduli_determinant() -> MPoly:
    """Determinant of the relation pencil matrix, as a polynomial in u,v,w,tau."""
    m = relation_pencil_matrix()
    det = MPoly.zero()
    det = det + m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
    det = det - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
    det = det + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    return det
