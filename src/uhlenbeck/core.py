"""Exact linear algebra over the rationals.

Scalars are :class:`fractions.Fraction`; there are no floats anywhere, so
every rank, kernel and characteristic polynomial below is exact.  Row
reduction pivots on the first nonzero entry of each column, which makes the
reduced echelon form (and hence every kernel basis) deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .partitions import Partition

Rat = Fraction

Vector = tuple[Fraction, ...]


def rat(x) -> Fraction:
    """Coerce an int, string 'p/q' or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vector(entries: Iterable) -> Vector:
    return tuple(rat(x) for x in entries)


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

    @classmethod
    def zero(cls, var: str = "t") -> "RatPoly":
        return cls((), var)

    @classmethod
    def one(cls, var: str = "t") -> "RatPoly":
        return cls((1,), var)

    @classmethod
    def constant(cls, c, var: str = "t") -> "RatPoly":
        return cls((rat(c),), var)

    @classmethod
    def variable(cls, var: str = "t") -> "RatPoly":
        return cls((0, 1), var)

    @classmethod
    def monomial(cls, degree: int, coeff=1, var: str = "t") -> "RatPoly":
        return cls((0,) * degree + (rat(coeff),), var)

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
        o = self._coerce(other)
        if self.is_zero or o.is_zero:
            return RatPoly.zero(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return RatPoly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RatPoly":
        if k < 0:
            raise ValueError("negative power")
        result = RatPoly.one(self.var)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        o = self._coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(len(rem) - len(o.coeffs) + 1, 0)
        lead = o.leading
        while len(rem) >= len(o.coeffs) and rem:
            f = rem[-1] / lead
            k = len(rem) - len(o.coeffs)
            quot[k] = f
            for j, b in enumerate(o.coeffs):
                rem[k + j] -= f * b
            while rem and rem[-1] == 0:
                rem.pop()
        return RatPoly(quot, self.var), RatPoly(rem, self.var)

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
        acc = RatPoly.zero(self.var)
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def derivative(self) -> "RatPoly":
        return RatPoly((k * c for k, c in enumerate(self.coeffs) if k > 0), self.var)

    def monic(self) -> "RatPoly":
        if self.is_zero:
            return self
        lead = self.leading
        return RatPoly((c / lead for c in self.coeffs), self.var)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def to_str(self, ascending: bool = False) -> str:
        if self.is_zero:
            return "0"
        terms = []
        ks = range(len(self.coeffs)) if ascending else range(len(self.coeffs) - 1, -1, -1)
        for k in ks:
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(c)
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c) + "*")
                body = head + (self.var if k == 1 else f"{self.var}^{k}")
            terms.append(body)
        out = terms[0]
        for term in terms[1:]:
            out += ("-" + term[1:]) if term.startswith("-") else ("+" + term)
        return out

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"RatPoly({self.to_str()!r})"


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd in Q[t] (gcd with 0 is the monic normalization)."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def squarefree_factorization(f: RatPoly) -> list[tuple[RatPoly, int]]:
    """Yun's algorithm: monic squarefree factors with multiplicities.

    Returns pairs (g, m), g monic squarefree nonconstant, with
    f = lead(f) * prod g^m, ordered by increasing multiplicity.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    f = f.monic()
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


@dataclass(frozen=True)
class RatMatrix:
    """Immutable dense matrix of Fractions, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(rat(x) for row in rows for x in row))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "RatMatrix":
        if not cols:
            return cls(0, 0, ())
        n = len(cols[0])
        return cls.from_rows([[col[i] for col in cols] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int | None = None) -> "RatMatrix":
        if cols is None:
            cols = rows
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, diag: Sequence) -> "RatMatrix":
        d = [rat(x) for x in diag]
        n = len(d)
        return cls(n, n, tuple(d[i] if i == j else Fraction(0) for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other)
        return RatMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other)
        return RatMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def _same_shape(self, other: "RatMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        orows = other.row_lists()
        for i in range(self.rows):
            srow = self.row(i)
            acc = [Fraction(0)] * other.cols
            for k, a in enumerate(srow):
                if a == 0:
                    continue
                orow = orows[k]
                for j in range(other.cols):
                    acc[j] += a * orow[j]
            out.extend(acc)
        return RatMatrix(self.rows, other.cols, tuple(out))

    def apply(self, v: Sequence) -> Vector:
        """Matrix times column vector."""
        w = vector(v)
        if len(w) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum((a * b for a, b in zip(self.row(i), w)), Fraction(0)) for i in range(self.rows))

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows, tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)))

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum((self.entry(i, i) for i in range(self.rows)), Fraction(0))

    def power(self, k: int) -> "RatMatrix":
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = RatMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def commutator(self, other: "RatMatrix") -> "RatMatrix":
        return self @ other - other @ self

    @staticmethod
    def block_diag(blocks: Sequence["RatMatrix"]) -> "RatMatrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = [[Fraction(0)] * cols for _ in range(rows)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r0 + i][c0 + j] = b.entry(i, j)
            r0 += b.rows
            c0 += b.cols
        return RatMatrix.from_rows(out) if rows and cols else RatMatrix(rows, cols, ())

    @staticmethod
    def vstack(blocks: Sequence["RatMatrix"]) -> "RatMatrix":
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ValueError("column mismatch in vstack")
        ents: list[Fraction] = []
        for b in blocks:
            ents.extend(b.entries)
        return RatMatrix(sum(b.rows for b in blocks), cols, tuple(ents))

    def __str__(self):
        return "\n".join("[" + "  ".join(str(x) for x in self.row(i)) + "]" for i in range(self.rows))


def commutant_system(mats: Sequence[RatMatrix]) -> RatMatrix:
    """Matrix of g -> ([g, m] for m in mats) on row-major flattened g.

    Row (m, i, j) holds the coefficients of (gm - mg)[i, j], so the kernel is
    the joint centralizer of mats and, with a right-hand side, the system
    solves Sylvester equations [g, m] = c.  All mats must be k x k.
    """
    k = mats[0].rows
    rows = []
    for m in mats:
        for i in range(k):
            for j in range(k):
                row = [Fraction(0)] * (k * k)
                for t in range(k):
                    row[i * k + t] += m.entry(t, j)
                    row[t * k + j] -= m.entry(i, t)
                rows.append(row)
    return RatMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# elimination


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    rows, pivots = _rref(m.row_lists())
    return RatMatrix.from_rows(rows) if rows else m, tuple(pivots)


def rank(m: RatMatrix) -> int:
    return len(_rref(m.row_lists())[1])


def kernel_basis(m: RatMatrix) -> list[Vector]:
    """Deterministic basis of the right kernel {v : m v = 0}."""
    rows, pivots = _rref(m.row_lists())
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def solve_linear(m: RatMatrix, b: Sequence) -> tuple[Vector, list[Vector]] | None:
    """Solve m x = b exactly; returns (particular, kernel basis) or None."""
    bb = vector(b)
    if len(bb) != m.rows:
        raise ValueError("right-hand side length mismatch")
    if m.rows == 0:
        return (Fraction(0),) * m.cols, kernel_basis(m)
    aug = [list(m.row(i)) + [bb[i]] for i in range(m.rows)]
    rows, pivots = _rref(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][m.cols]
    return tuple(x), kernel_basis(m)


def inverse(m: RatMatrix) -> RatMatrix:
    if not m.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = [list(m.row(i)) + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    rows, pivots = _rref(aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return RatMatrix.from_rows([row[n:] for row in rows])


def char_poly(m: RatMatrix) -> RatPoly:
    """det(tI - m), monic of degree n, by the Faddeev-LeVerrier recursion."""
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    b = RatMatrix.identity(n)
    for k in range(1, n + 1):
        mb = m @ b
        ck = -mb.trace() / k
        coeffs[n - k] = ck
        b = RatMatrix(n, n, tuple(mb.entries[i * n + j] + (ck if i == j else 0) for i in range(n) for j in range(n)))
    return RatPoly(coeffs)


def determinant(m: RatMatrix) -> Fraction:
    cp = char_poly(m)
    n = m.rows
    return cp[0] if n % 2 == 0 else -cp[0]


class NotNilpotentError(ValueError):
    """Raised when a Jordan type is requested for a non-nilpotent matrix."""


def nilpotent_jordan_type(z: RatMatrix) -> Partition:
    """Jordan block sizes of a nilpotent matrix, from its rank sequence.

    With r_i = rank(z^i), the conjugate partition has parts r_{i-1} - r_i.
    """
    if not z.is_square:
        raise ValueError("Jordan type of a non-square matrix")
    k = z.rows
    if k == 0:
        return Partition()
    ranks = [k]
    power = RatMatrix.identity(k)
    for _ in range(k):
        power = power @ z
        ranks.append(rank(power))
        if ranks[-1] == 0:
            break
    if ranks[-1] != 0:
        raise NotNilpotentError("matrix is not nilpotent")
    conj = [ranks[i - 1] - ranks[i] for i in range(1, len(ranks))]
    conj = [c for c in conj if c > 0]
    return Partition(tuple(conj)).conjugate()


# ---------------------------------------------------------------------------
# subspaces and Krylov closures


class Subspace:
    """A subspace of Q^n, stored as a reduced-echelon row basis.

    The stored form is canonical, so equality of subspaces is tuple equality.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, vectors: Iterable[Sequence] = ()):
        self.ambient = ambient
        rows = [list(vector(v)) for v in vectors]
        for v in rows:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        if rows:
            reduced, pivots = _rref(rows)
            self.basis: tuple[Vector, ...] = tuple(tuple(reduced[i]) for i in range(len(pivots)))
        else:
            self.basis = ()

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, [tuple(Fraction(1 if i == j else 0) for j in range(ambient)) for i in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _reduce(self, v: Sequence) -> Vector:
        w = list(vector(v))
        for row in self.basis:
            piv = next(j for j, x in enumerate(row) if x != 0)
            if w[piv] != 0:
                f = w[piv]
                w = [a - f * b for a, b in zip(w, row)]
        return tuple(w)

    def contains(self, v: Sequence) -> bool:
        return all(x == 0 for x in self._reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace(self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if not self.basis or not other.basis:
            return Subspace.zero(self.ambient)
        cols = [list(v) for v in self.basis] + [list(v) for v in other.basis]
        stacked = RatMatrix.from_columns(cols)
        vecs = []
        p = len(self.basis)
        for kv in kernel_basis(stacked):
            w = [Fraction(0)] * self.ambient
            for i in range(p):
                if kv[i] != 0:
                    for j in range(self.ambient):
                        w[j] += kv[i] * self.basis[i][j]
            vecs.append(tuple(w))
        return Subspace(self.ambient, vecs)

    def image_under(self, m: RatMatrix) -> "Subspace":
        """Span of {m v : v in this subspace} inside Q^{m.rows}."""
        if m.cols != self.ambient:
            raise ValueError("matrix does not act on this ambient space")
        return Subspace(m.rows, [m.apply(v) for v in self.basis])

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def column_space(m: RatMatrix) -> Subspace:
    return Subspace(m.rows, [m.column(j) for j in range(m.cols)])


def kernel_space(m: RatMatrix) -> Subspace:
    return Subspace(m.cols, kernel_basis(m))


def krylov_span_dim(mats: Sequence[RatMatrix], v: Sequence) -> int:
    """Dimension of the smallest subspace containing v stable under all mats."""
    w = vector(v)
    k = len(w)
    for m in mats:
        if not m.is_square or m.rows != k:
            raise ValueError("all matrices must be square of the vector's size")
    span = Subspace(k)
    queue = [w]
    while queue:
        u = queue.pop()
        if span.contains(u):
            continue
        span = Subspace(k, list(span.basis) + [u])
        queue.extend(m.apply(u) for m in mats)
    return span.dim
