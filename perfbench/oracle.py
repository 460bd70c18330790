"""Exact reference arithmetic for the benchmark's correctness checks.

Everything here works on plain lists of ``Fraction``/``int`` and never calls
into ``uhlenbeck``, so a checker built on it stays independent of the code it
judges.  Matrices are lists of rows; polynomials are ascending coefficient
lists with no trailing zeros.
"""

from __future__ import annotations

from fractions import Fraction


def rows_of(m) -> list[list[Fraction]]:
    """Rows of a ``RatMatrix`` (read through its public data fields)."""
    return [list(m.entries[i * m.cols : (i + 1) * m.cols]) for i in range(m.rows)]


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a: list[list], b: list[list]) -> list[list]:
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum((row[t] * b[t][j] for t in range(inner)), Fraction(0)) for j in range(cols)] for row in a]


def sub(a: list[list], b: list[list]) -> list[list]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_zero(a: list[list]) -> bool:
    return all(x == 0 for row in a for x in row)


def commutator(a: list[list], b: list[list]) -> list[list]:
    return sub(matmul(a, b), matmul(b, a))


def rank(rows: list[list]) -> int:
    """Rank by plain Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def inverse(a: list[list]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse; raises ValueError when singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        p = m[c][c]
        m[c] = [x / p for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def int_power_is_zero(z: list[list[int]]) -> bool:
    """Whether Z^k = 0 for the k x k integer matrix Z (k >= 1)."""
    k = len(z)
    p = z
    for _ in range(k - 1):
        p = [[sum(row[t] * z[t][j] for t in range(k)) for j in range(k)] for row in p]
    return all(x == 0 for row in p for x in row)


def jordan_type_of_nilpotent(z: list[list]) -> tuple[int, ...]:
    """Jordan block sizes of a nilpotent matrix from the ranks of its powers."""
    k = len(z)
    ranks = [k]
    p = identity(k)
    while ranks[-1] > 0:
        p = matmul(p, z)
        ranks.append(rank(p))
    conj = [ranks[i - 1] - ranks[i] for i in range(1, len(ranks))]
    return conjugate(conj)


def conjugate(parts) -> tuple[int, ...]:
    parts = [p for p in parts if p > 0]
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > i) for i in range(max(parts)))


def centralizer_dim_of_nilpotent(parts) -> int:
    """dim of the centralizer of a nilpotent of Jordan type ``parts``."""
    return sum(c * c for c in conjugate(parts))


def jordan_block_matrix(parts) -> list[list[Fraction]]:
    """Block-diagonal lower shift with the given block sizes."""
    k = sum(parts)
    m = [[Fraction(0)] * k for _ in range(k)]
    start = 0
    for p in parts:
        for i in range(1, p):
            m[start + i][start + i - 1] = Fraction(1)
        start += p
    return m


def poly_mul(a: list, b: list) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def linear_power_product(roots_with_mult) -> tuple[Fraction, ...]:
    """Ascending coefficients of prod (t - u)^m."""
    out = [Fraction(1)]
    for u, m in roots_with_mult:
        for _ in range(m):
            out = poly_mul(out, [Fraction(-u), Fraction(1)])
    return tuple(out)


def in_span(basis: list[list], v: list) -> bool:
    return rank(basis + [list(v)]) == rank(basis)


def apply(m: list[list], v) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m]
