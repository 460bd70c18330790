"""The graded algebra with [x,y] = tau z^2, z central, and its quadratic dual.

Both presentations are hard-coded rewrite systems rather than general
Groebner machinery.  Normal-form words are x^a y^b z^c; rewriting moves x
left and z right, branching on the single noncommuting pair:

    z x -> x z,   z y -> y z,   y x -> x y - tau z^2.

Coefficients live in Q[tau], so one engine serves the generic parameter and
every rational specialization, including tau = 0 (the commutative plane).

The quadratic dual is the twisted exterior algebra on xi, eta, zeta with
xi^2 = eta^2 = 0, anticommuting distinct letters, and

    zeta^2 = -2 tau xi eta,

the sign being forced by zeta^2 + tau(xi eta - eta xi) = 0 together with
eta xi = -xi eta.  Both kernels of the degree-two multiplication maps are
computed by exact linear algebra, not read off from the presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .core import RatMatrix, RatPoly, Vector, kernel_basis, rat

GENERATORS = ("x", "y", "z")

TauPoly = RatPoly


def tau_poly(c=1, degree: int = 0) -> RatPoly:
    """c * tau^degree as an element of Q[tau]."""
    return RatPoly.monomial(degree, c, var="tau")


Monomial = tuple[int, int, int]  # exponents (a, b, c) of x^a y^b z^c


@dataclass(frozen=True)
class TauCombination:
    """Finite Q[tau]-linear combination of basis keys (tuples), sparse.

    Terms are sorted by (len(key), key) with zero coefficients dropped, so
    equal combinations have equal ``terms``.
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

    def bilinear(self, other, product):
        """The product extending product(key1, key2) -> combination over Q[tau]."""
        out: dict[tuple, RatPoly] = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                c = c1 * c2
                for k, coeff in product(k1, k2).terms:
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

    def __mul__(self, other: "NCElement") -> "NCElement":
        return self.bilinear(other, lambda m1, m2: _reduce_word(_monomial_word(m1) + _monomial_word(m2)))

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


def _monomial_word(m: Monomial) -> tuple[str, ...]:
    a, b, c = m
    return ("x",) * a + ("y",) * b + ("z",) * c


_reduce_cache: dict[tuple[str, ...], NCElement] = {}


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
    return _reduce_word(letters).scale(rat(coeff))


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

    Multiplies the normal basis of degree i-1 by each generator, reduces, and
    takes the exact rank of the resulting span.  Agreement with
    ``graded_dim`` checks that no collapse occurs at this tau (induction on
    the degree starting from the generators).
    """
    t = rat(tau)
    if degree == 0:
        return 1
    index = {m: j for j, m in enumerate(normal_monomials(degree))}
    rows: list[dict[int, Fraction]] = []
    for m in normal_monomials(degree - 1):
        for g in GENERATORS:
            elem = _reduce_word(_monomial_word(m) + (g,))
            row = {index[mono]: v for mono, v in elem.coefficients_at(t).items()}
            if row:
                rows.append(row)
    return _sparse_rank(rows)


def _sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    """Rank of a sparse row collection by incremental elimination."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                lv = row[lead]
                pivots[lead] = {j: v / lv for j, v in row.items()}
                break
            f = row[lead]
            for j, v in piv.items():
                nv = row.get(j, Fraction(0)) - f * v
                if nv == 0:
                    row.pop(j, None)
                else:
                    row[j] = nv
    return len(pivots)


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

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c}) {'.'.join(w) if w else '1'}" for w, c in self.terms)


def _dual_reduce(word: DualWord) -> DualElement:
    """Reduce a dual word: sort letters with signs, kill squares, expand zeta^2."""
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a == b:
            if a in ("xi", "eta"):
                return DualElement.zero()
            # zeta zeta = -2 tau xi eta, from the defining relation and eta xi = -xi eta
            return _dual_reduce(word[:i] + ("xi", "eta") + word[i + 2 :]).scale(tau_poly(-2, 1))
        if _DUAL_ORDER[a] > _DUAL_ORDER[b]:
            return _dual_reduce(word[:i] + (b, a) + word[i + 2 :]).scale(-1)
    return DualElement(((word, tau_poly(1)),))


def dual_word(letters) -> DualElement:
    return _dual_reduce(tuple(letters))


def dual_multiply(a: DualElement, b: DualElement) -> DualElement:
    return a.bilinear(b, lambda w1, w2: _dual_reduce(w1 + w2))


def dual_graded_dims(tau, max_degree: int = 4) -> tuple[int, ...]:
    """Dimensions of the dual algebra's graded pieces at a rational tau.

    Computed as the rank of the span of all generator words of each length,
    so the expected (1, 3, 3, 1, 0, ...) profile is verified, not assumed.
    """
    t = rat(tau)
    dims = []
    for degree in range(max_degree + 1):
        if degree == 0:
            dims.append(1)
            continue
        index = {w: j for j, w in enumerate(DUAL_BASIS)}
        rows = []
        for letters in product(DUAL_GENERATORS, repeat=degree):
            elem = _dual_reduce(letters)
            row = {index[w]: v for w, v in elem.coefficients_at(t).items()}
            if row:
                rows.append(row)
        dims.append(_sparse_rank(rows))
    return tuple(dims)


# ---------------------------------------------------------------------------
# relation kernels of the degree-two multiplication maps


PAIR_ORDER: tuple[tuple[str, str], ...] = tuple((g1, g2) for g1 in GENERATORS for g2 in GENERATORS)
DUAL_PAIR_ORDER: tuple[tuple[str, str], ...] = tuple((g1, g2) for g1 in DUAL_GENERATORS for g2 in DUAL_GENERATORS)


def relation_kernel(tau) -> list[Vector]:
    """Basis of Ker(A_1 (x) A_1 -> A_2) at a rational tau.

    Vectors are coordinates in the ordered pair basis ``PAIR_ORDER``.
    """
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
    return kernel_basis(RatMatrix.from_columns(cols))


def dual_relation_kernel(tau) -> list[Vector]:
    """Basis of Ker(A^!_1 (x) A^!_1 -> A^!_2) at a rational tau.

    This six-dimensional kernel is the relation set imposed on quiver
    representations; coordinates follow ``DUAL_PAIR_ORDER``.
    """
    t = rat(tau)
    words2 = [w for w in DUAL_BASIS if len(w) == 2]
    index = {w: i for i, w in enumerate(words2)}
    cols = []
    for g1, g2 in DUAL_PAIR_ORDER:
        elem = _dual_reduce((g1, g2))
        col = [Fraction(0)] * len(words2)
        for w, v in elem.coefficients_at(t).items():
            col[index[w]] = v
        cols.append(col)
    return kernel_basis(RatMatrix.from_columns(cols))


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


@dataclass(frozen=True)
class MPoly:
    """Multivariate polynomial over Q in the fixed variables u, v, w, tau."""

    terms: tuple[tuple[tuple[int, int, int, int], Fraction], ...]

    VARS = ("u", "v", "w", "tau")

    @classmethod
    def from_dict(cls, d: dict[tuple[int, int, int, int], Fraction]) -> "MPoly":
        return cls(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    @classmethod
    def var(cls, name: str) -> "MPoly":
        exps = [0, 0, 0, 0]
        exps[cls.VARS.index(name)] = 1
        return cls(((tuple(exps), Fraction(1)),))

    @classmethod
    def const(cls, c) -> "MPoly":
        c = rat(c)
        return cls((((0, 0, 0, 0), c),)) if c != 0 else cls(())

    def __add__(self, other: "MPoly") -> "MPoly":
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, Fraction(0)) + c
        return MPoly.from_dict(d)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + other.scale(-1)

    def __neg__(self) -> "MPoly":
        return self.scale(-1)

    def scale(self, c) -> "MPoly":
        c = rat(c)
        return MPoly.from_dict({e: c * v for e, v in self.terms})

    def __mul__(self, other: "MPoly") -> "MPoly":
        d: dict[tuple[int, int, int, int], Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                d[e] = d.get(e, Fraction(0)) + c1 * c2
        return MPoly.from_dict(d)

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


def relation_pencil_matrix() -> list[list[MPoly]]:
    """The 3x3 pencil pairing the degree-two relation space against A_1.

    A relation u(yz - zy) + v(xz - zx) + w(xy - yx - tau zz), read as a map
    from the dual of A_1 to A_1 in the ordered basis (x, y, z), is the matrix
    below; its degeneration locus cuts out the length-one module space.
    """
    u, v, w, tau = (MPoly.var(n) for n in MPoly.VARS)
    zero = MPoly.const(0)
    return [
        [zero, w, v],
        [-w, zero, u],
        [-v, -u, -(tau * w)],
    ]


def artin_moduli_determinant() -> MPoly:
    """Determinant of the relation pencil matrix, as a polynomial in u,v,w,tau."""
    m = relation_pencil_matrix()
    det = MPoly.const(0)
    det = det + m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
    det = det - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
    det = det + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    return det
