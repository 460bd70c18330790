"""Exact linear algebra over the rationals.

Scalars are :class:`fractions.Fraction`; there are no floats anywhere, so
every rank, kernel and characteristic polynomial below is exact.

All elimination goes through one type, :class:`Subspace`: a span is its
row echelon form over the integers.  Each input row is scaled once to
coprime integers and stored sparse, as {column: int}.  Rows are reduced one
at a time against pivots keyed by their lead column: an update
cross-multiplies by the two lead entries and divides out the gcd of the
result, touching only nonzero entries, so elimination does no Fraction
arithmetic.  ``rank`` reads the pivot count off this forward pass.
``rref``, ``kernel_basis``, ``solve_linear``, ``inverse`` and
``Subspace.basis`` also back-substitute on the integer rows and write each
result once, as a RatMatrix over the lcm of the pivots: ``_reduced_matrix``
every reduced row, ``_kernel`` every kernel row, and ``solve_linear`` reads
its x off the kernel row (-x | 1) of [m | b] at b's column, which is free.

The output does not depend on the order of the row operations.  The
reduced row echelon form of a matrix is unique, and after back-substitution
each integer row is a nonzero multiple of one of its rows, so dividing by
the pivot recovers that row exactly.  Hence ``rref``, every kernel basis
(one row per free column, with 1 there and 0 at the other free columns)
and every ``Subspace.basis`` are canonical, whatever the row order.  So the
scratch echelons of ``rank``, ``rref``, ``kernel_basis``, ``solve_linear``,
``inverse`` and ``nilpotent_jordan_type`` take their rows sparsest first
(Markowitz); returned spans keep their insertion order and raw rows.

Each value is stored in one form and the rest is derived when read.  A
Subspace is its ambient dimension and the echelon rows of a spanning set:
``dim`` is the rank; ``sum``, ``intersect``, ``image_under`` and
``contains`` work on the integer rows; ``basis``, ``==`` and ``hash``
reduce the echelon in place, and ``==`` and ``hash`` compare its rows,
each with a positive lead, without building the basis.  A RatMatrix is its
integer form (d, a): a the row-major integer numerators and d the least
common denominator, so the matrix is a / d and gcd(d, *a) = 1.  Because d
is the least one, equal matrices have equal forms, and ``==`` and ``hash``
compare them.  Nothing else is kept: ``entries``, ``entry``, ``row`` and
``column`` build only the Fractions they return, from (d, a) on each read,
and ``from_rows`` and ``diagonal`` clear int entries as they are.  Only
parsers read text, through ``rat``; ``_clear`` takes ints and Fractions only.
``+``, ``-``, ``scale``, ``commutator``, ``is_zero`` and ``transpose`` are
integer operations: sums go over the lcm of the two denominators, and every
result is divided once by the gcd of d and its numerators.
``RatMatrix.combination`` owns every longer matrix sum: sum c_i M_i goes over
one lcm and is divided once, not once per term.  ``matrix_system`` writes
every linear system in a matrix unknown X, sum c A X B per equation on
row-major X: each term adds the products of the nonzero entries of A and B
at precomputed flat offsets, over one denominator.  A block unknown is a
vertical stack, and a block row of the identity picks out a block.
``commutant_system`` (g -> [g, m] per m) is one such call.  ``@``, ``power``
and ``apply`` multiply the integer entries, skipping zeros.  A nonzero trace
refutes nilpotency (``_int_trace``); otherwise ``is_nilpotent`` is self^n = 0.
``char_poly`` runs Berkowitz's division-free algorithm on a and divides the
coefficient of t^i by d^(n-i), since det(tI - a/d) = d^-n det(dt I - a).
``rank``, ``rref`` and ``kernel_basis`` feed the integer rows of a straight
into a scratch echelon, and ``Subspace.full`` writes the unit rows, as
``Subspace.image_under`` (``column_space`` is the full space's image under its
maps), ``Subspace.intersect``, ``krylov_span_dim`` and ``nilpotent_jordan_type``
feed integer products: scaling a row changes neither the span nor the rank.
A Fraction is always stored in lowest terms, so every entry, product, power
and polynomial is the same value, digit for digit, as the one the Fraction
arithmetic computed.

``poly_gcd`` (the primitive remainder sequence, made monic at the end) and
``divmod`` (one pseudo-division) work on the integer forms of RatPolys, and
``squarefree_factorization`` is Yun's algorithm over ``poly_gcd`` and ``//``.
``convolve`` owns polynomial products: a RatPoly product convolves the
integer forms and divides once by the product of their denominators.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .partitions import Frozen, Partition

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


def rat(x) -> Fraction:
    """Coerce an int, string 'p/q' or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _clear(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, [d x for x in xs]) with d the least common denominator of xs, which are ints and Fractions."""
    try:
        d = lcm(*[x.denominator for x in xs])
    except AttributeError:
        bad = next(x for x in xs if not isinstance(x, (int, Fraction)))
        raise TypeError(f"not an exact rational: {bad!r}") from None
    return d, [x.numerator for x in xs] if d == 1 else [x.numerator * (d // x.denominator) for x in xs]


# ---------------------------------------------------------------------------
# polynomials


class RatPoly:
    """Dense univariate polynomial over Q; coefficient index = degree.

    The variable name is presentation only and is ignored by equality.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable = (), var: str = "t"):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self.var = var

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def _coerce(self, other) -> "RatPoly":
        if isinstance(other, RatPoly):
            return other
        return RatPoly((rat(other),), self.var)

    def __add__(self, other) -> "RatPoly":
        o = self._coerce(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return RatPoly((self[k] + o[k] for k in range(n)), self.var)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly((-c for c in self.coeffs), self.var)

    def __sub__(self, other) -> "RatPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RatPoly":
        (df, f), (dg, g) = _clear(self.coeffs), _clear(self._coerce(other).coeffs)
        return RatPoly(_over(convolve(f, g), df * dg), self.var)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RatPoly":
        if k < 0:
            raise ValueError("negative power")
        result = RatPoly((1,), self.var)
        for _ in range(k):
            result = result * self
        return result

    def __divmod__(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        """Division with remainder, by pseudo-division of the integer forms:
        e (df f) = q (dg g) + r gives f = (q dg / e df) g + r / e df."""
        o = self._coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        (df, f), (dg, g) = _clear(self.coeffs), _clear(o.coeffs)
        q, r, e = _pseudo_divmod(f, g)
        return RatPoly([Fraction(c * dg, e * df) for c in q], self.var), RatPoly([Fraction(c, e * df) for c in r], self.var)

    def __floordiv__(self, other) -> "RatPoly":
        return divmod(self, self._coerce(other))[0]

    def __mod__(self, other) -> "RatPoly":
        return divmod(self, self._coerce(other))[1]

    def __call__(self, value) -> Fraction:
        v = rat(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def compose(self, inner: "RatPoly") -> "RatPoly":
        acc = RatPoly((), self.var)
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def derivative(self) -> "RatPoly":
        return RatPoly((k * c for k, c in enumerate(self.coeffs) if k > 0), self.var)

    def monic(self) -> "RatPoly":
        if self.is_zero:
            return self
        a = _clear(self.coeffs)[1]  # self = a / d, so self / lead = a / a[-1]
        return RatPoly([Fraction(c, a[-1]) for c in a], self.var)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return poly_str(self.coeffs, self.var)

    def __repr__(self):
        return f"RatPoly({str(self)!r})"


def _term_str(c, mono: str) -> str:
    """Text of c times a monomial: mono, -mono or c*mono, and c alone for mono = ""."""
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return "-" + mono
    return f"{c}*{mono}"


def poly_str(coeffs: Sequence, var: str, ascending: bool = False) -> str:
    """Text of sum c_k var^k for rational or integer coefficients c_k."""
    terms = []
    ks = range(len(coeffs)) if ascending else range(len(coeffs) - 1, -1, -1)
    for k in ks:
        c = coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        terms.append(_term_str(c, mono))
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += ("-" + term[1:]) if term.startswith("-") else ("+" + term)
    return out


def convolve(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The product of two integer polynomials (low degree first), skipping the
    zero coefficients of f."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _trim(p: Sequence[int]) -> list[int]:
    """An integer polynomial (low degree first) with no trailing zeros."""
    out = list(p)
    while out and not out[-1]:
        out.pop()
    return out


def _primitive_poly(p: Sequence[int]) -> list[int]:
    """An integer polynomial over its content, with positive lead."""
    p = _trim(p)
    g = gcd(*p) if p and p[-1] > 0 else -gcd(*p)
    return [c // g for c in p] if p and g != 1 else p


def _pseudo_divmod(f: list[int], g: list[int]) -> tuple[list[int], list[int], int]:
    """(q, r, e) with e f = q g + r, deg r < deg g and e != 0 an integer.

    Long division that scales by lead(g) / gcd(lead(g), lead(r)) before each
    step.  When lead(g) > 0 and g divides f in Z[t], every scale is 1 and q is
    the exact quotient.
    """
    q, r, n, e = [0] * max(len(f) - len(g) + 1, 0), f, len(g), 1
    while len(r) >= n:
        h = gcd(g[-1], r[-1])
        x, y, k = g[-1] // h, r[-1] // h, len(r) - n
        q, r, e = [x * c for c in q], [x * c for c in r], x * e
        q[k] += y
        for j, b in enumerate(g):
            r[k + j] -= y * b
        r = _trim(r)
    return q, r, e


def _int_gcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd in Z[t] with positive lead, by the primitive remainder
    sequence (Collins, Brown): every pseudo-remainder is made primitive."""
    while g:
        f, g = g, _primitive_poly(_pseudo_divmod(f, g)[1])
    return _primitive_poly(f)


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd in Q[t] (gcd with 0 is the monic normalization)."""
    return RatPoly(_int_gcd(_clear(a.coeffs)[1], _clear(b.coeffs)[1]), a.var).monic()


def squarefree_factorization(f: RatPoly) -> list[tuple[RatPoly, int]]:
    """Yun's algorithm: monic squarefree factors with multiplicities.

    Returns pairs (g, m), g monic squarefree nonconstant, with
    f = lead(f) * prod g^m, ordered by increasing multiplicity.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree == 0:
        return []
    out: list[tuple[RatPoly, int]] = []
    g = poly_gcd(f, f.derivative())
    c = f // g
    d = f.derivative() // g - c.derivative()
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
        c = c // a
        d = d // a - c.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# matrices


class RatMatrix(Frozen):
    """Immutable dense matrix over Q, row-major, stored as self = _a / _d with
    _a integer, _d > 0 and gcd(_d, *_a) = 1 (see the module docstring)."""

    _fields = ("rows", "cols", "_d", "_a")

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match rows*cols")
        self._fill(rows, cols, *_clear(entries))

    @classmethod
    def _of(cls, rows: int, cols: int, d: int, a: Sequence[int]) -> "RatMatrix":
        """The matrix a / d for integers a and d > 0, brought to lowest terms."""
        g = gcd(d, *a) if d != 1 else 1
        out = cls.__new__(cls)
        out._fill(rows, cols, d // g, a if g == 1 else [x // g for x in a])
        return out

    def _fill(self, rows: int, cols: int, d: int, a: Sequence[int]):
        # attribute by attribute, so instances share one key table
        fill = object.__setattr__
        fill(self, "rows", rows)
        fill(self, "cols", cols)
        fill(self, "_d", d)
        fill(self, "_a", tuple(a))

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return _over(self._a, self._d)

    def __repr__(self):
        return f"RatMatrix(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [x if type(x) is int else rat(x) for row in rows for x in row])  # _clear reads ints as they are

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "RatMatrix":
        return cls.from_rows(cols).transpose()

    @classmethod
    def zero(cls, rows: int, cols: int | None = None) -> "RatMatrix":
        if cols is None:
            cols = rows
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        if n < 0:
            raise ValueError("negative matrix dimensions")
        return cls._of(n, n, 1, [int(i == j) for i in range(n) for j in range(n)])

    @classmethod
    def diagonal(cls, diag: Sequence) -> "RatMatrix":
        d, a = _clear([x if type(x) is int else rat(x) for x in diag])
        return cls._of(len(a), len(a), d, [x if i == j else 0 for i, x in enumerate(a) for j in range(len(a))])

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) of a {self.rows}x{self.cols} matrix")
        return _over((self._a[i * self.cols + j],), self._d)[0]

    def row(self, i: int) -> Vector:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} of a {self.rows}x{self.cols} matrix")
        return _over(self._a[i * self.cols : (i + 1) * self.cols], self._d)

    def column(self, j: int) -> Vector:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} of a {self.rows}x{self.cols} matrix")
        return _over(self._a[j :: self.cols], self._d)

    def row_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return not any(self._a)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other)
        d, (a, b) = _common([self, other])
        return RatMatrix._of(self.rows, self.cols, d, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other)
        d, (a, b) = _common([self, other])
        return RatMatrix._of(self.rows, self.cols, d, [x - y for x, y in zip(a, b)])

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._of(self.rows, self.cols, self._d, [-x for x in self._a])

    @classmethod
    def combination(cls, coeffs: Sequence, mats: Sequence["RatMatrix"]) -> "RatMatrix":
        """sum c_i m_i for rationals c_i and at least one matrix, all of one shape:
        the integer forms summed over d, the lcm of the denominators of the c_i
        m_i, and divided once by the gcd of d and the sum."""
        if not mats:
            raise ValueError("combination needs at least one matrix")
        first = mats[0]
        terms = []
        for c, m in zip(coeffs, mats, strict=True):
            first._same_shape(m)
            c = c if type(c) is int else rat(c)  # an int has a numerator and a denominator too
            if c:
                terms.append((c.numerator, c.denominator * m._d, m._a))
        d = lcm(*[den for _, den, _ in terms])
        out = [0] * (first.rows * first.cols)
        for i, (num, den, a) in enumerate(terms):
            s = num * (d // den)
            out = [x + s * y for x, y in zip(out, a)] if i else [s * y for y in a]
        return cls._of(first.rows, first.cols, d, out)

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix._of(self.rows, self.cols, self._d * c.denominator, [c.numerator * x for x in self._a])

    def transpose(self) -> "RatMatrix":
        a, n = self._a, self.cols
        return RatMatrix._of(n, self.rows, self._d, [x for j in range(n) for x in a[j::n]])

    def blocks(self, rows: int, cols: int) -> list["RatMatrix"]:
        """Each row cut into rows x cols matrices, read row-major, in order: a ``matrix_system``
        solution as its unknowns.  With rows * cols = 0, each (empty) row is one matrix."""
        size = rows * cols
        if rows < 0 or cols < 0 or (self.cols % size if size else self.cols):
            raise ValueError(f"a row of {self.cols} entries is not cut into {rows}x{cols} matrices")
        starts = range(0, len(self._a), size) if size else [0] * self.rows
        return [RatMatrix._of(rows, cols, self._d, self._a[i : i + size]) for i in starts]

    def _same_shape(self, other: "RatMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def _times(self, vec: dict[int, int]) -> dict[int, int]:
        """a v for the integer form a and a sparse integer v, sparse."""
        return _int_apply(self._a, self.cols, range(self.rows), vec)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        product = _int_matmul(self._a, other._a, self.rows, self.cols, other.cols)
        return RatMatrix._of(self.rows, other.cols, self._d * other._d, product)

    def apply(self, v: Sequence) -> Vector:
        """Matrix times column vector."""
        dw, ints = _clear(v)
        if len(ints) != self.cols:
            raise ValueError("vector length does not match column count")
        out = self._times({j: x for j, x in enumerate(ints) if x})
        return _over([out.get(i, 0) for i in range(self.rows)], self._d * dw)

    def trace(self) -> Fraction:
        return Fraction(self._int_trace("trace"), self._d)

    def _int_trace(self, what: str) -> int:
        """d times the trace, after a square check naming what needs it; nonzero, it refutes nilpotency."""
        if not self.is_square:
            raise ValueError(f"{what} of a non-square matrix")
        return sum(self._a[:: self.cols + 1])

    def power(self, k: int) -> "RatMatrix":
        """self^k, by repeated squaring of the integer form and one division by d^k."""
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        n = self.rows
        if k == 0:
            return RatMatrix.identity(n)
        den, base = self._d**k, self._a
        result = None
        while True:
            if k & 1:
                result = base if result is None else _int_matmul(result, base, n, n, n)
            k >>= 1
            if not k:
                return RatMatrix._of(n, n, den, result)
            base = _int_matmul(base, base, n, n, n)

    @property
    def is_nilpotent(self) -> bool:
        """Whether self^n = 0 for n x n self (raises ValueError if not square); a nonzero trace says no at once."""
        return not self._int_trace("power") and self.power(self.rows).is_zero

    def commutator(self, other: "RatMatrix") -> "RatMatrix":
        return self @ other - other @ self

    @staticmethod
    def block_diag(blocks: Sequence["RatMatrix"]) -> "RatMatrix":
        cols, c0 = sum(b.cols for b in blocks), 0
        d, forms = _common(blocks)
        out: list[int] = []
        for b, a in zip(blocks, forms):
            for i in range(b.rows):
                out += [0] * c0 + list(a[i * b.cols : (i + 1) * b.cols]) + [0] * (cols - c0 - b.cols)
            c0 += b.cols
        return RatMatrix._of(sum(b.rows for b in blocks), cols, d, out)

    @staticmethod
    def vstack(blocks: Sequence["RatMatrix"]) -> "RatMatrix":
        if not blocks:
            raise ValueError("vstack needs at least one block")
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ValueError("column mismatch in vstack")
        d, forms = _common(blocks)
        return RatMatrix._of(sum(b.rows for b in blocks), cols, d, list(chain.from_iterable(forms)))

    def __str__(self):
        return "\n".join("[" + "  ".join(str(x) for x in self.row(i)) + "]" for i in range(self.rows))


def _int_matmul(a: Sequence[int], b: Sequence[int], rows: int, inner: int, cols: int) -> list[int]:
    """Row-major integer product of an rows x inner and an inner x cols matrix, skipping zeros."""
    brows = [[(j, y) for j, y in enumerate(b[k * cols : (k + 1) * cols]) if y] for k in range(inner)]
    out: list[int] = []
    for i in range(rows):
        acc = [0] * cols
        for k, x in enumerate(a[i * inner : (i + 1) * inner]):
            if x:
                for j, y in brows[k]:
                    acc[j] += x * y
        out.extend(acc)
    return out


def _int_apply(a: Sequence[int], cols: int, rows: range, vec: dict[int, int]) -> dict[int, int]:
    """The nonzero entries i: sum_j a[i, j] vec[j] for i in rows, with a row-major
    of width cols and vec a sparse integer vector keyed by column."""
    out = {}
    for i in rows:
        base = i * cols
        s = sum([a[base + j] * x for j, x in vec.items()])
        if s:
            out[i] = s
    return out


def _common(mats: Sequence[RatMatrix]) -> tuple[int, list[Sequence[int]]]:
    """(d, [d m for m in mats]): the integer forms over the lcm d of their denominators."""
    d = lcm(*[m._d for m in mats])
    return d, [m._a if m._d == d else [x * (d // m._d) for x in m._a] for m in mats]


def _over(ints: Iterable[int], d: int) -> tuple[Fraction, ...]:
    """The entries x / d in lowest terms, one Fraction per nonzero x."""
    if d == 1:
        return tuple([Fraction(x) if x else _ZERO for x in ints])
    return tuple([Fraction(x, d) if x else _ZERO for x in ints])


def matrix_system(equations: Sequence[Sequence[tuple]]) -> RatMatrix:
    """Matrix of X -> (sum c A X B for each equation) on row-major flattened X:
    the stack of sum c A (x) B^T over the equations, in order.  Each equation
    is a list of terms (c, A, B) with A m x p and B q x r, one m x r for each
    equation and one p x q, the shape of X, for all of them."""
    if not equations:
        raise ValueError("matrix_system needs at least one equation")
    if not all(equations):
        raise ValueError("matrix_system needs at least one term in each equation")
    p, q = equations[0][0][1].cols, equations[0][0][2].rows
    width, height, terms = p * q, 0, []
    for equation in equations:
        m, r = equation[0][1].rows, equation[0][2].cols
        for c, a, b in equation:
            if (a.rows, a.cols, b.rows, b.cols) != (m, p, q, r):
                raise ValueError(f"term {a.rows}x{a.cols} X {b.rows}x{b.cols} does not match {m}x{p} X {q}x{r}")
            c = c if type(c) is int else rat(c)
            if c:
                terms.append((c.numerator, c.denominator * a._d * b._d, a, b, height, r))
        height += m * r
    d = lcm(*[den for _, den, *_ in terms])
    out = [0] * (height * width)
    for num, den, a, b, top, r in terms:
        # A[i, s] B[t, j] lands in row top + i r + j, column s q + t
        s = num * (d // den)
        offsets_a = [((top + n // p * r) * width + n % p * q, s * x) for n, x in enumerate(a._a) if x]
        offsets_b = [(n % r * width + n // r, y) for n, y in enumerate(b._a) if y]
        for o, x in offsets_a:
            for o2, y in offsets_b:
                out[o + o2] += x * y
    return RatMatrix._of(height, width, d, out)


def commutant_system(mats: Sequence[RatMatrix]) -> RatMatrix:
    """Matrix of g -> ([g, m] for m in mats), all k x k: its kernel is the joint
    centralizer of mats, and it solves the Sylvester equations [g, m] = c."""
    if not mats:
        raise ValueError("commutant_system needs at least one matrix")
    eye = RatMatrix.identity(mats[0].rows)
    return matrix_system([[(1, eye, m), (-1, m, eye)] for m in mats])


# ---------------------------------------------------------------------------
# elimination


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """A sparse integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _integer_row(entries: Iterable[tuple[int, Fraction]]) -> dict[int, int]:
    """The nonzero (column, rational) entries, scaled by one rational to coprime
    integers; ``_clear`` checks every entry, zeros too, so only exact ones pass."""
    row = dict(entries)
    return _primitive({j: x for j, x in zip(row, _clear(list(row.values()))[1]) if x})


def _cancel(row: dict[int, int], piv: dict[int, int], c: int) -> dict[int, int]:
    """A primitive integer row in the span of row and piv with column c cleared.

    Cross-multiplies by the two column-c entries (over their gcd) and divides
    out the content, touching only the nonzero entries of both rows.
    """
    a, p = row[c], piv[c]
    g = gcd(a, p)
    a, p = a // g, p // g
    out = dict(row) if p == 1 else {j: p * v for j, v in row.items()}
    for j, v in piv.items():
        w = out.get(j, 0) - a * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _primitive(out)


def _kernel(ech: Subspace, pivots: list[int], ncols: int) -> RatMatrix:
    """Kernel basis of the first ncols columns of a reduced echelon form, as rows over the lcm
    of the pivots: 1 at free column f, 0 at the other free ones, -row[f] / row[c] at pivot c."""
    d = lcm(*[ech.rows[c][c] for c in pivots])
    vecs = {f: [0] * ncols for f in range(ncols) if f not in ech.rows}
    for f, v in vecs.items():
        v[f] = d
    for c in pivots:
        row = ech.rows[c]
        s = d // row[c]
        for j, x in row.items():
            if j in vecs:
                vecs[j][c] = -x * s
    return RatMatrix._of(len(vecs), ncols, d, list(chain(*vecs.values())))


def _int_rows(a: Sequence[int], rows: int, cols: int) -> list[dict[int, int]]:
    """The nonzero rows of a row-major integer matrix, sparse, each over its content as ``Subspace.add`` makes it."""
    return [_primitive(r) for i in range(rows) if (r := {j: x for j, x in enumerate(a[i * cols : (i + 1) * cols]) if x})]


def _echelon(ambient: int, rows: Iterable[dict[int, int]]) -> Subspace:
    """The echelon of primitive integer rows, inserted in the order given: sorted by
    nonzero count (sparsest first) for a scratch echelon, as built for a returned span."""
    ech = Subspace._empty(ambient)
    for row in rows:
        ech._insert(row)
    return ech


def _row_space(a: Sequence[int], rows: int, cols: int) -> Subspace:
    """The scratch echelon of the rows of a row-major integer matrix."""
    return _echelon(cols, sorted(_int_rows(a, rows, cols), key=len))


def _reduced_matrix(ech: Subspace, pivots: list[int], start: int, stop: int, rows: int) -> RatMatrix:
    """The rows x (stop - start) matrix whose i-th row is columns start..stop-1
    of row / row[lead] for the i-th pivot row, then zero rows; written in
    integer form over d, the lcm of the pivot entries."""
    d = lcm(*[ech.rows[c][c] for c in pivots])
    width = stop - start
    a = [0] * (rows * width)
    for i, c in enumerate(pivots):
        row = ech.rows[c]
        s = d // row[c]
        for j, v in row.items():
            if start <= j < stop:
                a[i * width + j - start] = v * s
    return RatMatrix._of(rows, width, d, a)


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    if not m.rows:
        return m, ()
    ech = _row_space(m._a, m.rows, m.cols)
    pivots = ech.reduce()
    return _reduced_matrix(ech, pivots, 0, m.cols, m.rows), tuple(pivots)


def rank(m: RatMatrix) -> int:
    return _row_space(m._a, m.rows, m.cols).dim


def kernel_basis(m: RatMatrix) -> RatMatrix:
    """Deterministic basis of the right kernel {v : m v = 0}, as the rows of a matrix."""
    ech = _row_space(m._a, m.rows, m.cols)
    return _kernel(ech, ech.reduce(), m.cols)


def solve_linear(m: RatMatrix, b: Sequence) -> tuple[RatMatrix, RatMatrix] | None:
    """Solve m x = b exactly: (x as a 1 x n matrix, kernel basis as rows) or None.

    One kernel of [m | b] gives both: when the system is consistent, the
    augmented column is free, so its kernel row is (-x | 1) and the others
    are (v | 0) for the kernel rows v of m.  b is cleared once, to db b, so
    with m = a / d row i enters as (db a_i | d db b_i), d db times row i of [m | b].
    """
    db, bb = _clear(b)
    if len(bb) != m.rows:
        raise ValueError("right-hand side length mismatch")
    n, a = m.cols, m._a if db == 1 else [db * x for x in m._a]
    augmented = [chain(a[i * n : (i + 1) * n], (m._d * bb[i],)) for i in range(m.rows)]
    ech = _echelon(n + 1, sorted([_primitive({j: x for j, x in enumerate(row) if x}) for row in augmented], key=len))
    pivots = ech.reduce()
    if n in ech.rows:
        return None
    k = _kernel(ech, pivots, n + 1)
    rows = [k._a[i : i + n] for i in range(0, len(k._a), n + 1)]
    return RatMatrix._of(1, n, k._d, [-v for v in rows.pop()]), RatMatrix._of(len(rows), n, k._d, list(chain(*rows)))


def inverse(m: RatMatrix) -> RatMatrix:
    if not m.is_square:
        raise ValueError("inverse of a non-square matrix")
    n, a = m.rows, m._a
    rows = [_primitive({j: x for j, x in chain(enumerate(a[i * n : (i + 1) * n]), ((n + i, m._d),)) if x}) for i in range(n)]
    ech = _echelon(2 * n, sorted(rows, key=len))
    pivots = ech.reduce()
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return _reduced_matrix(ech, pivots, n, 2 * n, n)


def char_poly(m: RatMatrix) -> RatPoly:
    """det(tI - m), monic of degree n, by Berkowitz's division-free algorithm.

    Runs on the integer form a = d m.  Going up the trailing principal
    submatrices a[r:, r:], each step multiplies the coefficient vector by a
    lower-triangular Toeplitz matrix with first column 1, -a[r, r] and
    -R A^j C for j = 0 .. n-r-2, where R and C are the rest of row r and
    column r and A = a[r+1:, r+1:].  The coefficient of t^i is then divided
    by d^(n-i).
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    d, a = m._d, m._a
    vec = [1]  # det(tI - a[r:, r:]), highest degree first
    for r in range(n - 1, -1, -1):
        size = n - r
        row = {j: a[r * n + j] for j in range(r + 1, n) if a[r * n + j]}
        col = {i: a[i * n + r] for i in range(r + 1, n) if a[i * n + r]}
        diags = [1, -a[r * n + r]]
        for j in range(size - 1):
            if j and row and col:  # an empty R or C makes every R A^j C zero
                col = _int_apply(a, n, range(r + 1, n), col)
            diags.append(-sum([x * col[i] for i, x in row.items() if i in col]))
        vec = [sum([diags[i - j] * vec[j] for j in range(min(i, size - 1) + 1)]) for i in range(size + 1)]
    return RatPoly([Fraction(vec[n - i], d ** (n - i)) for i in range(n + 1)])


def determinant(m: RatMatrix) -> Fraction:
    cp = char_poly(m)
    n = m.rows
    return cp[0] if n % 2 == 0 else -cp[0]


class NotNilpotentError(ValueError):
    """Raised when a Jordan type is requested for a non-nilpotent matrix."""


def nilpotent_jordan_type(z: RatMatrix) -> Partition:
    """Jordan block sizes of a nilpotent matrix, from its rank sequence.

    With r_i = rank(z^i), the conjugate partition has parts r_{i-1} - r_i.
    The ranks are read off integer powers of the integer form of z, each one
    product from the last.  They fall strictly until they reach 0 exactly
    when z is nilpotent, so the first r_i == r_{i-1} > 0 proves it is not.
    """
    if z._int_trace("Jordan type"):
        raise NotNilpotentError("matrix is not nilpotent")
    k = z.rows
    if k == 0:
        return Partition()
    a = z._a
    ranks = [k]
    power = a
    while True:
        r = _row_space(power, k, k).dim
        if r == ranks[-1]:
            raise NotNilpotentError("matrix is not nilpotent")
        ranks.append(r)
        if not r:
            break
        power = _int_matmul(power, a, k, k, k)
    conj = [ranks[i - 1] - ranks[i] for i in range(1, len(ranks))]
    return Partition(tuple(conj)).conjugate()


# ---------------------------------------------------------------------------
# subspaces and Krylov closures


class Subspace:
    """A subspace of Q^n, stored only as the integer row echelon form of a
    spanning set: ``rows`` maps each lead (smallest) column to its row, sparse,
    as {column: int} with coprime entries.  Rows enter as (column, rational)
    pairs, are scaled to integers once and then eliminated fraction-free (see
    ``_cancel``); they are never changed in place, so copies may share them.
    ``basis``, ``==`` and ``hash`` read the canonical reduced form off them.
    ``add`` grows the space in place: add nothing to a space a set or dict holds.
    """

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int, vectors: Iterable[Sequence] = ()):
        if ambient < 0:
            raise ValueError(f"negative ambient dimension {ambient}")
        vectors = list(vectors)
        if any(len(v) != ambient for v in vectors):
            raise ValueError("vector length does not match ambient dimension")
        self.ambient = ambient
        self.rows: dict[int, dict[int, int]] = {}
        for v in vectors:
            self._insert(_integer_row(enumerate(v)))

    @classmethod
    def _empty(cls, ambient: int) -> "Subspace":
        out = cls.__new__(cls)
        out.ambient = ambient
        out.rows = {}
        return out

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        if ambient < 0:
            raise ValueError(f"negative ambient dimension {ambient}")
        out = cls._empty(ambient)
        out.rows = {i: {i: 1} for i in range(ambient)}
        return out

    @property
    def dim(self) -> int:
        return len(self.rows)

    def copy(self) -> "Subspace":
        out = Subspace._empty(self.ambient)
        out.rows = dict(self.rows)
        return out

    def _remainder(self, row: dict[int, int]) -> dict[int, int]:
        rows = self.rows
        while row:
            lead = min(row)
            piv = rows.get(lead)
            if piv is None:
                break
            row = _cancel(row, piv, lead)
        return row

    def _insert(self, row: dict[int, int]) -> bool:
        row = self._remainder(row)
        if row:
            self.rows[min(row)] = row
        return bool(row)

    def add(self, entries: Iterable[tuple[int, Fraction]]) -> bool:
        """Add the vector given as (column, rational) pairs, each column once and in
        range(ambient), as checked here (rows built in range go to ``_insert``); True if ``dim`` grew."""
        pairs = list(entries)
        row = dict(pairs)
        if len(row) < len(pairs):
            raise ValueError(f"column {next(j for i, (j, _) in enumerate(pairs) if j in dict(pairs[:i]))} given twice")
        if row and not 0 <= min(row) <= max(row) < self.ambient:
            raise ValueError(f"column {min(row) if min(row) < 0 else max(row)} outside range({self.ambient})")
        return self._insert(_integer_row(row.items()))

    def reduce(self) -> list[int]:
        """Back-substitute to reduced form; returns the pivot columns in order.

        Afterwards each row is zero in every pivot column but its own, so
        row / row[lead] is the matching row of the reduced echelon form.
        Rows are reduced from the right, so each one is cancelled only
        against rows that are already reduced.
        """
        rows = self.rows
        cols = sorted(rows)
        for c in reversed(cols):
            row = rows[c]
            for j in [j for j in row if j != c and j in rows]:
                row = _cancel(row, rows[j], j)
            rows[c] = row
        return cols

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The rows of the reduced row echelon form, in pivot order."""
        m = _reduced_matrix(self, self.reduce(), 0, self.ambient, self.dim)
        return tuple(m.row(i) for i in range(m.rows))

    def contains(self, v: Sequence) -> bool:
        return self.contains_subspace(Subspace(self.ambient, [v]))

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return all(not self._remainder(row) for row in other.rows.values())

    def sum(self, other: "Subspace") -> "Subspace":
        """Span of both: other's rows go into a copy of this one, until it fills
        the ambient space (every later row would reduce to zero)."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        out = self.copy()
        for row in other.rows.values():
            if len(out.rows) == self.ambient:
                break
            out._insert(row)
        return out

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: the rows (u | u) and (w | 0) span a space whose members
        with zero left half are exactly the (0 | x) with x in both.  In an
        echelon form those are the rows with lead column >= ambient."""
        n = self.ambient
        if n != other.ambient:
            raise ValueError("ambient mismatch")
        both = Subspace._empty(2 * n)
        for row in self.rows.values():
            both._insert({**row, **{n + j: v for j, v in row.items()}})
        for row in other.rows.values():
            both._insert(row)
        meet = Subspace._empty(n)
        for c, row in both.rows.items():
            if c >= n:
                meet.rows[c - n] = {j - n: v for j, v in row.items()}
        return meet

    def image_under(self, *maps: RatMatrix) -> "Subspace":
        """Span of {m v : v in this subspace, m in maps}, by one elimination.

        The maps, at least one, must all act on this ambient space and share
        a row count, which is the ambient dimension of the result.  With
        several maps this is the sum of the single-map images, without
        building them.  The integer rows of this subspace are multiplied by
        the integer forms of the maps: each is a nonzero multiple of m v for
        a basis vector v, so the span is the same.  The loop returns once the
        span fills its ambient space, before the next product is formed: every
        later product would reduce to zero, so the rows come out the same.
        """
        if not maps:
            raise ValueError("image_under needs at least one map")
        rows = maps[0].rows
        if any(m.cols != self.ambient or m.rows != rows for m in maps):
            raise ValueError("maps must act on this ambient space and share a row count")
        out = Subspace._empty(rows)
        for m in maps:
            for row in self.rows.values():
                if len(out.rows) == rows:
                    return out
                out._insert(_primitive(m._times(row)))
        return out

    def _key(self) -> tuple:
        """The reduced integer rows in pivot order, each with a positive lead: each
        is primitive and a multiple of its row of ``basis``, so as canonical."""
        rows = self.rows
        return tuple(
            tuple(sorted(rows[c].items() if rows[c][c] > 0 else [(j, -v) for j, v in rows[c].items()]))
            for c in self.reduce()
        )

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.ambient == other.ambient and self._key() == other._key()

    def __hash__(self):
        return hash((self.ambient, self._key()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def column_space(m: RatMatrix, *more: RatMatrix) -> Subspace:
    """Sum of the images of m and more, which share their shape."""
    return Subspace.full(m.cols).image_under(m, *more)


def kernel_space(m: RatMatrix, *more: RatMatrix) -> Subspace:
    """Joint kernel of m and more: the integer kernel rows of their vertical stack, in kernel order."""
    k = kernel_basis(RatMatrix.vstack([m, *more]) if more else m)
    return _echelon(k.cols, _int_rows(k._a, k.rows, k.cols))


def krylov_span_dim(mats: Sequence[RatMatrix], v: Sequence) -> int:
    """Dimension of the smallest subspace containing v stable under all mats."""
    k = len(v)
    for m in mats:
        if not m.is_square or m.rows != k:
            raise ValueError("all matrices must be square of the vector's size")
    span = Subspace._empty(k)
    queue = [_integer_row(enumerate(v))]
    while queue and span.dim < k:
        u = queue.pop()
        if span._insert(u):
            queue.extend(_primitive(m._times(u)) for m in mats)
    return span.dim
