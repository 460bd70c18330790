import random
from fractions import Fraction

import pytest

from conftest import rand_invertible, rand_matrix
from uhlenbeck.bvariety import jordan_nilpotent
from uhlenbeck.core import (
    NotNilpotentError,
    RatMatrix,
    RatPoly,
    Subspace,
    char_poly,
    column_space,
    commutant_system,
    determinant,
    inverse,
    kernel_basis,
    kernel_space,
    krylov_span_dim,
    nilpotent_jordan_type,
    poly_gcd,
    rank,
    rref,
    solve_linear,
    squarefree_factorization,
    vector,
)
from uhlenbeck.partitions import Partition, partitions


def shift_matrix(k: int) -> RatMatrix:
    return RatMatrix.from_rows([[1 if i == j + 1 else 0 for j in range(k)] for i in range(k)])


# ---------------------------------------------------------------------------
# rank / kernel


def test_rank_zero_matrix():
    assert rank(RatMatrix.zero(3)) == 0


@pytest.mark.parametrize("n", [1, 2, 5])
def test_rank_identity(n):
    assert rank(RatMatrix.identity(n)) == n


def test_rank_all_ones():
    # row reduction leaves a single nonzero row
    assert rank(RatMatrix.from_rows([[1] * 4] * 4)) == 1


def test_kernel_identity_empty():
    assert kernel_basis(RatMatrix.identity(3)) == []


def test_kernel_one_equation():
    basis = kernel_basis(RatMatrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    assert Subspace(2, basis) == Subspace(2, [(1, -1)])


def test_kernel_zero_matrix():
    assert len(kernel_basis(RatMatrix.zero(2))) == 2


def test_rank_nullity_on_random_matrices():
    rng = random.Random(101)
    for _ in range(30):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = rand_matrix(rng, r, c)
        assert rank(m) + len(kernel_basis(m)) == c


def test_solve_linear_consistency():
    rng = random.Random(102)
    for _ in range(25):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_matrix(rng, r, c)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(c)]
        b = m.apply(x)
        solved = solve_linear(m, b)
        assert solved is not None
        particular, hom = solved
        assert m.apply(particular) == b
        for h in hom:
            assert all(v == 0 for v in m.apply(h))


def test_solve_linear_inconsistent():
    m = RatMatrix.from_rows([[1, 0], [1, 0]])
    assert solve_linear(m, (1, 2)) is None


def test_inverse_roundtrip():
    rng = random.Random(103)
    for n in (1, 2, 4):
        g = rand_invertible(rng, n)
        assert g @ inverse(g) == RatMatrix.identity(n)


# ---------------------------------------------------------------------------
# characteristic polynomial


def test_char_poly_diagonal():
    cp = char_poly(RatMatrix.diagonal([Fraction(2), Fraction(-3)]))
    assert cp == RatPoly([-6, 1, 1])  # (t-2)(t+3)


def test_char_poly_nilpotent_block():
    assert char_poly(shift_matrix(2)) == RatPoly([0, 0, 1])


def test_char_poly_companion():
    companion = RatMatrix.from_rows([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert char_poly(companion) == RatPoly([5, -2, 0, 1])


def test_char_poly_rejects_nonsquare():
    with pytest.raises(ValueError):
        char_poly(RatMatrix.zero(2, 3))


def test_char_poly_conjugation_invariant():
    rng = random.Random(104)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        g = rand_invertible(rng, n)
        assert char_poly(g @ m @ inverse(g)) == char_poly(m)


# ---------------------------------------------------------------------------
# Jordan type


def test_jordan_type_zero():
    assert nilpotent_jordan_type(RatMatrix.zero(3)) == Partition((1, 1, 1))


def test_jordan_type_single_block():
    assert nilpotent_jordan_type(shift_matrix(4)) == Partition((4,))


def test_jordan_type_mixed():
    z = RatMatrix.block_diag([shift_matrix(2), shift_matrix(1)])
    assert rank(z) == 1 and rank(z.power(2)) == 0
    assert nilpotent_jordan_type(z) == Partition((2, 1))


def test_jordan_type_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError):
        nilpotent_jordan_type(RatMatrix.identity(2))


def test_jordan_rank_sequence_identity():
    rng = random.Random(105)
    for lam in [Partition((3, 1)), Partition((2, 2, 1)), Partition((4, 2))]:
        z = RatMatrix.block_diag([shift_matrix(p) for p in lam])
        g = rand_invertible(rng, lam.size)
        z = g @ z @ inverse(g)
        typ = nilpotent_jordan_type(z)
        assert typ == lam
        conj = typ.conjugate().parts
        for i in range(len(conj) + 1):
            assert rank(z.power(i)) == sum(conj[i:])


# ---------------------------------------------------------------------------
# Krylov closure


def test_krylov_zero_map():
    assert krylov_span_dim([RatMatrix.zero(2)], (1, 1)) == 1


def test_krylov_full_shift():
    assert krylov_span_dim([shift_matrix(3)], (1, 0, 0)) == 3


def test_krylov_partial():
    j3 = shift_matrix(3)
    assert krylov_span_dim([j3, j3.power(2)], (0, 1, 0)) == 2


def test_krylov_monotone_in_matrix_set():
    rng = random.Random(106)
    for _ in range(15):
        n = rng.randint(1, 4)
        mats = [rand_matrix(rng, n, n) for _ in range(3)]
        v = [rng.randint(-3, 3) for _ in range(n)]
        dims = [krylov_span_dim(mats[:k], v) for k in range(1, 4)]
        assert dims == sorted(dims)


def test_krylov_dimension_mismatch():
    with pytest.raises(ValueError):
        krylov_span_dim([RatMatrix.zero(2)], (1, 0, 0))


# ---------------------------------------------------------------------------
# subspaces


def test_subspace_canonical_equality():
    a = Subspace(3, [(1, 2, 0), (0, 0, 1)])
    b = Subspace(3, [(2, 4, 2), (0, 0, 5)])
    assert a == b and a.dim == 2


def test_subspace_sum_intersect_dims():
    rng = random.Random(107)
    for _ in range(20):
        n = rng.randint(2, 5)
        u = Subspace(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))])
        w = Subspace(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))])
        s = u.sum(w)
        i = u.intersect(w)
        assert s.dim + i.dim == u.dim + w.dim
        assert u.contains_subspace(i) and w.contains_subspace(i)
        assert s.contains_subspace(u) and s.contains_subspace(w)


def test_column_and_kernel_space():
    m = RatMatrix.from_rows([[1, 2], [2, 4]])
    assert column_space(m).dim == 1
    assert kernel_space(m).dim == 1


# ---------------------------------------------------------------------------
# polynomials


def test_poly_arithmetic_and_eval():
    p = RatPoly([1, 0, 1])  # 1 + t^2
    q = RatPoly([0, 1])  # t
    assert (p * q).coeffs == (Fraction(0), Fraction(1), Fraction(0), Fraction(1))
    assert (p - p).is_zero
    assert p(Fraction(2)) == 5


def test_poly_divmod_and_gcd():
    f = RatPoly([-1, 0, 1])  # t^2 - 1
    g = RatPoly([1, 1])  # t + 1
    q, r = divmod(f, g)
    assert r.is_zero and q == RatPoly([-1, 1])
    assert poly_gcd(f, g) == RatPoly([1, 1])


def test_poly_compose_shift():
    p = RatPoly([0, 0, 1])  # t^2
    shifted = p.compose(RatPoly([-3, 1]))  # (t-3)^2
    assert shifted == RatPoly([9, -6, 1])


def test_squarefree_factorization():
    t = RatPoly.variable()
    f = (t - 2) ** 3
    assert [(str(g), m) for g, m in squarefree_factorization(f)] == [("t-2", 3)]
    f2 = (t**2) * (t - 5)
    assert squarefree_factorization(f2) == [(t - 5, 1), (t, 2)]


def test_squarefree_reconstructs():
    rng = random.Random(108)
    t = RatPoly.variable()
    for _ in range(10):
        f = RatPoly([1])
        for _ in range(rng.randint(1, 3)):
            root = rng.randint(-3, 3)
            f = f * (t - root) ** rng.randint(1, 3)
        rebuilt = RatPoly([1])
        for g, m in squarefree_factorization(f):
            rebuilt = rebuilt * g**m
        assert rebuilt == f.monic()


# ---------------------------------------------------------------------------
# commutant systems


def _commutator_system_oracle(z: RatMatrix) -> RatMatrix:
    """Matrix of Y -> YZ - ZY on row-major flattened Y, written out by hand."""
    k = z.rows
    rows = []
    for p in range(k):
        for q in range(k):
            row = [Fraction(0)] * (k * k)
            for t in range(k):
                row[p * k + t] += z.entry(t, q)
                row[t * k + q] -= z.entry(p, t)
            rows.append(row)
    return RatMatrix.from_rows(rows) if rows else RatMatrix(0, 0, ())


def test_commutant_system_matches_hand_built_rows():
    rng = random.Random(4411)
    for k in range(5):
        for _ in range(6):
            a, b = rand_matrix(rng, k, k, -3, 3), rand_matrix(rng, k, k, -3, 3)
            assert commutant_system([a]) == _commutator_system_oracle(a)
            assert commutant_system([a, b]) == RatMatrix.vstack([_commutator_system_oracle(a), _commutator_system_oracle(b)])


def test_commutant_system_centralizer_dimension():
    # the centralizer of a nilpotent of Jordan type lam has dimension sum (lam'_i)^2
    for k in range(1, 7):
        for lam in partitions(k):
            expected = sum(c * c for c in lam.conjugate().parts)
            assert len(kernel_basis(commutant_system([jordan_nilpotent(lam)]))) == expected


# ---------------------------------------------------------------------------
# elimination pinned to the column-pivoted Fraction reduction it replaced


def _rref_oracle(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
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


def _oracle_rref(m):
    rows, pivots = _rref_oracle(m.row_lists())
    return RatMatrix.from_rows(rows) if rows else m, tuple(pivots)


def _oracle_kernel(m):
    rows, pivots = _rref_oracle(m.row_lists())
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def _oracle_solve(m, b):
    if m.rows == 0:
        return (Fraction(0),) * m.cols, _oracle_kernel(m)
    aug = [list(m.row(i)) + [b[i]] for i in range(m.rows)]
    rows, pivots = _rref_oracle(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][m.cols]
    return tuple(x), _oracle_kernel(m)


def _oracle_inverse(m):
    n = m.rows
    aug = [list(m.row(i)) + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    rows, pivots = _rref_oracle(aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        return None
    return RatMatrix.from_rows([row[n:] for row in rows])


def _oracle_basis(ambient, vectors):
    rows = [list(v) for v in vectors]
    if not rows:
        return ()
    reduced, pivots = _rref_oracle(rows)
    return tuple(tuple(reduced[i]) for i in range(len(pivots)))


def _random_entry(rng: random.Random) -> Fraction:
    roll = rng.random()
    if roll < 0.4:
        return Fraction(0)
    if roll < 0.85:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return Fraction(rng.randint(-(2**70), 2**70), rng.randint(1, 2**66))


def _random_elimination_input(rng: random.Random, rows: int, cols: int) -> RatMatrix:
    """Mixed denominators, numerators above 2^64, zero and repeated rows."""
    grid = [[_random_entry(rng) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        roll = rng.random()
        if roll < 0.15:
            grid[i] = [Fraction(0)] * cols
        elif roll < 0.35 and i:
            src = grid[rng.randrange(i)]
            scale = rng.choice([Fraction(1), Fraction(-3, 7), Fraction(2**65 + 1, 3)])
            grid[i] = [scale * x for x in src]
        elif roll < 0.45 and i > 1:
            a, b = grid[rng.randrange(i)], grid[rng.randrange(i)]
            grid[i] = [x - Fraction(5, 2) * y for x, y in zip(a, b)]
    return RatMatrix(rows, cols, tuple(x for row in grid for x in row))


ELIMINATION_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 6), (6, 1), (2, 5), (5, 2), (3, 3), (4, 4), (3, 7), (7, 3), (6, 6), (9, 4)]


@pytest.mark.parametrize("shape", ELIMINATION_SHAPES)
def test_elimination_matches_pinned_rref(shape):
    rows, cols = shape
    rng = random.Random(7000 + 31 * rows + cols)
    for _ in range(12):
        m = _random_elimination_input(rng, rows, cols)
        expected, pivots = _oracle_rref(m)
        assert rref(m) == (expected, pivots)
        assert rank(m) == len(pivots)
        assert kernel_basis(m) == _oracle_kernel(m)
        assert Subspace(cols, m.row_lists()).basis == _oracle_basis(cols, m.row_lists())
        x = [_random_entry(rng) for _ in range(cols)]
        for b in (m.apply(x), tuple(_random_entry(rng) for _ in range(rows))):
            assert solve_linear(m, b) == _oracle_solve(m, b)
        if rows == cols:
            pinned = _oracle_inverse(m)
            if pinned is None:
                with pytest.raises(ValueError):
                    inverse(m)
            else:
                assert inverse(m) == pinned


def test_subspace_operations_match_pinned_rref():
    rng = random.Random(7100)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = _random_elimination_input(rng, rng.randint(0, n), n).row_lists()
        b = _random_elimination_input(rng, rng.randint(0, n), n).row_lists()
        m = _random_elimination_input(rng, rng.randint(1, 6), n)
        u, w = Subspace(n, a), Subspace(n, b)
        assert u.sum(w).basis == _oracle_basis(n, a + b)
        assert u.image_under(m).basis == _oracle_basis(m.rows, [m.apply(v) for v in u.basis])
        assert all(u.contains(v) for v in a) and u.contains_subspace(u.intersect(w))


def test_image_under_several_maps_is_sum_of_single_images():
    rng = random.Random(7150)
    for _ in range(30):
        n, rows = rng.randint(0, 5), rng.randint(0, 5)
        u = Subspace(n, _random_elimination_input(rng, rng.randint(0, n), n).row_lists())
        a, b, c = (_random_elimination_input(rng, rows, n) for _ in range(3))
        chained = u.image_under(a).sum(u.image_under(b)).sum(u.image_under(c))
        assert u.image_under(a, b, c) == chained
        assert u.image_under(a, b, c).basis == _oracle_basis(rows, [m.apply(v) for m in (a, b, c) for v in u.basis])
    with pytest.raises(ValueError):
        Subspace.full(2).image_under(RatMatrix.zero(3, 2), RatMatrix.zero(2, 2))


def test_invertible_matrices_match_pinned_inverse():
    rng = random.Random(7200)
    for n in (1, 2, 3, 5, 7):
        for _ in range(4):
            m = _random_elimination_input(rng, n, n)
            m = m + RatMatrix.identity(n).scale(Fraction(2**66 + 5, 11))
            pinned = _oracle_inverse(m)
            if pinned is not None:
                assert inverse(m) == pinned


# ---------------------------------------------------------------------------
# products pinned to the Fraction arithmetic they replaced


def _matmul_oracle(m: RatMatrix, other: RatMatrix) -> RatMatrix:
    if m.cols != other.rows:
        raise ValueError(f"cannot multiply {m.rows}x{m.cols} by {other.rows}x{other.cols}")
    out = []
    orows = [[(j, b) for j, b in enumerate(other.row(k)) if b] for k in range(other.rows)]
    for i in range(m.rows):
        acc = [Fraction(0)] * other.cols
        for k, a in enumerate(m.row(i)):
            if a:
                for j, b in orows[k]:
                    acc[j] += a * b
        out.extend(acc)
    return RatMatrix(m.rows, other.cols, tuple(out))


def _apply_oracle(m: RatMatrix, v) -> tuple:
    w = vector(v)
    if len(w) != m.cols:
        raise ValueError("vector length does not match column count")
    return tuple(sum((a * b for a, b in zip(m.row(i), w)), Fraction(0)) for i in range(m.rows))


def _power_oracle(m: RatMatrix, k: int) -> RatMatrix:
    result = RatMatrix.identity(m.rows)
    base = m
    while k:
        if k & 1:
            result = _matmul_oracle(result, base)
        base = _matmul_oracle(base, base)
        k >>= 1
    return result


def _char_poly_oracle(m: RatMatrix) -> RatPoly:
    """det(tI - m) by the Faddeev-LeVerrier recursion."""
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    b = RatMatrix.identity(n)
    for k in range(1, n + 1):
        mb = _matmul_oracle(m, b)
        ck = -mb.trace() / k
        coeffs[n - k] = ck
        b = RatMatrix(n, n, tuple(mb.entries[i * n + j] + (ck if i == j else 0) for i in range(n) for j in range(n)))
    return RatPoly(coeffs)


def _jordan_type_oracle(z: RatMatrix) -> Partition:
    k = z.rows
    if k == 0:
        return Partition()
    ranks = [k]
    power = RatMatrix.identity(k)
    for _ in range(k):
        power = _matmul_oracle(power, z)
        ranks.append(len(_rref_oracle(power.row_lists())[1]))
        if ranks[-1] == 0:
            break
    if ranks[-1] != 0:
        raise NotNilpotentError("matrix is not nilpotent")
    conj = [ranks[i - 1] - ranks[i] for i in range(1, len(ranks))]
    conj = [c for c in conj if c > 0]
    return Partition(tuple(conj)).conjugate()


def _intersect_oracle(u: Subspace, w: Subspace) -> Subspace:
    if not u.basis or not w.basis:
        return Subspace.zero(u.ambient)
    cols = [list(v) for v in u.basis] + [list(v) for v in w.basis]
    stacked = RatMatrix.from_columns(cols)
    vecs = []
    p = len(u.basis)
    for kv in kernel_basis(stacked):
        x = [Fraction(0)] * u.ambient
        for i in range(p):
            if kv[i] != 0:
                for j in range(u.ambient):
                    x[j] += kv[i] * u.basis[i][j]
        vecs.append(tuple(x))
    return Subspace(u.ambient, vecs)


def _krylov_oracle(mats, v) -> int:
    k = len(v)
    span: list = []
    queue = [vector(v)]
    while queue and len(span) < k:
        u = queue.pop()
        if len(_oracle_basis(k, span + [u])) > len(span):
            span.append(u)
            queue.extend(_apply_oracle(m, u) for m in mats)
    return len(span)


def _all_fractions(entries) -> bool:
    return all(type(x) is Fraction for x in entries)


PRODUCT_KINDS = ["zero", "identity", "integer", "mixed", "big"]


def _product_input(rng: random.Random, kind: str, rows: int, cols: int) -> RatMatrix:
    """Zero, identity (square, else zero-padded), integer-only, mixed-denominator
    or mixed with numerators above 2^64."""
    if kind == "zero":
        return RatMatrix.zero(rows, cols)
    if kind == "identity":
        return RatMatrix(rows, cols, tuple(Fraction(int(i == j)) for i in range(rows) for j in range(cols)))
    if kind == "integer":
        return RatMatrix(rows, cols, tuple(Fraction(rng.randint(-9, 9) * (rng.random() < 0.7)) for _ in range(rows * cols)))
    if kind == "mixed":
        return RatMatrix(rows, cols, tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 9)) * (rng.random() < 0.7) for _ in range(rows * cols)))
    return RatMatrix(rows, cols, tuple(_random_entry(rng) for _ in range(rows * cols)))


PRODUCT_SHAPES = [(0, 0, 0), (3, 0, 2), (0, 3, 2), (2, 3, 0), (1, 1, 1), (2, 3, 4), (4, 1, 3), (1, 5, 1), (5, 2, 5), (4, 4, 4)]


@pytest.mark.parametrize("shape", PRODUCT_SHAPES)
def test_matmul_and_apply_match_pinned_fraction_products(shape):
    rows, inner, cols = shape
    rng = random.Random(7400 + 100 * rows + 10 * inner + cols)
    for kind_a in PRODUCT_KINDS:
        for kind_b in PRODUCT_KINDS:
            a, b = _product_input(rng, kind_a, rows, inner), _product_input(rng, kind_b, inner, cols)
            product = a @ b
            assert product == _matmul_oracle(a, b)
            assert (product.rows, product.cols) == (rows, cols) and _all_fractions(product.entries)
            v = _product_input(rng, kind_b, inner, 1).entries
            assert a.apply(v) == _apply_oracle(a, v) and _all_fractions(a.apply(v))
    with pytest.raises(ValueError):
        RatMatrix.zero(2, 3) @ RatMatrix.zero(2, 3)
    with pytest.raises(ValueError):
        RatMatrix.zero(2, 3).apply((1, 2))


@pytest.mark.parametrize("n", range(6))
def test_power_char_poly_and_jordan_type_match_pinned_fraction_products(n):
    rng = random.Random(7500 + n)
    for kind in PRODUCT_KINDS:
        for _ in range(3):
            m = _product_input(rng, kind, n, n)
            for k in range(10):
                if kind == "big" and n > 3 and k > 5:
                    continue
                power = m.power(k)
                assert power == _power_oracle(m, k) and _all_fractions(power.entries)
            cp = char_poly(m)
            assert cp == _char_poly_oracle(m) and _all_fractions(cp.coeffs) and len(cp.coeffs) == n + 1
            try:
                expected = _jordan_type_oracle(m)
            except NotNilpotentError:
                with pytest.raises(NotNilpotentError, match="matrix is not nilpotent"):
                    nilpotent_jordan_type(m)
            else:
                assert nilpotent_jordan_type(m) == expected


@pytest.mark.parametrize("shape", ["lower", "upper", "blocks"])
def test_char_poly_of_structured_matrices_matches_oracle_and_diagonal(shape):
    # rows or columns with no entries past the diagonal take the shortcut in
    # char_poly; triangular and block-diagonal inputs have many of them
    rng = random.Random(7520)
    for n in range(9):
        for kind in PRODUCT_KINDS:
            m = _product_input(rng, kind, n, n)
            if shape == "blocks":
                cuts = sorted(rng.sample(range(1, n), min(2, n - 1))) if n > 1 else []
                block = [sum(i >= c for c in cuts) for i in range(n)]
                keep = [block[i] == block[j] for i in range(n) for j in range(n)]
            else:
                keep = [(i >= j) == (shape == "lower") or i == j for i in range(n) for j in range(n)]
            m = RatMatrix(n, n, tuple(x if k else Fraction(0) for x, k in zip(m.entries, keep)))
            cp = char_poly(m)
            assert cp == _char_poly_oracle(m) and _all_fractions(cp.coeffs)
            expected = RatPoly.one()
            if shape == "blocks":
                for b in sorted(set(block)):
                    idx = [i for i in range(n) if block[i] == b]
                    expected = expected * _char_poly_oracle(RatMatrix.from_rows([[m.entry(i, j) for j in idx] for i in idx]))
            else:
                for i in range(n):
                    expected = expected * RatPoly([-m.entry(i, i), 1])
            assert cp == expected


def test_jordan_type_of_conjugated_nilpotents_matches_pinned_rank_sequence():
    rng = random.Random(7550)
    for k in range(1, 7):
        for lam in partitions(k):
            g = rand_invertible(rng, k, -3, 3)
            d = RatMatrix.diagonal([Fraction(1, rng.randint(1, 5)) for _ in range(k)])
            z = g @ d @ jordan_nilpotent(lam) @ inverse(d) @ inverse(g)
            assert nilpotent_jordan_type(z) == _jordan_type_oracle(z) == lam
            # nilpotent plus a rank-one idempotent is not nilpotent
            e = RatMatrix.from_rows([[int(i == j == k - 1) for j in range(k)] for i in range(k)])
            with pytest.raises(NotNilpotentError, match="matrix is not nilpotent"):
                nilpotent_jordan_type(z + g @ e @ inverse(g))


def test_subspace_products_match_pinned_fraction_products():
    rng = random.Random(7600)
    for _ in range(60):
        n, rows = rng.randint(0, 6), rng.randint(0, 5)
        u = Subspace(n, _random_elimination_input(rng, rng.randint(0, n), n).row_lists())
        w = Subspace(n, _random_elimination_input(rng, rng.randint(0, n), n).row_lists())
        meet = u.intersect(w)
        assert meet == _intersect_oracle(u, w) and meet.basis == _intersect_oracle(u, w).basis
        assert all(_all_fractions(v) for v in meet.basis)
        maps = [_random_elimination_input(rng, rows, n) for _ in range(rng.randint(1, 3))]
        image = u.image_under(*maps)
        assert image.basis == _oracle_basis(rows, [_apply_oracle(m, v) for m in maps for v in u.basis])
        assert all(_all_fractions(v) for v in image.basis)
        if n:
            square = [_random_elimination_input(rng, n, n) for _ in range(rng.randint(1, 3))]
            v = tuple(_random_entry(rng) for _ in range(n))
            assert krylov_span_dim(square, v) == _krylov_oracle(square, v)
            for b in u.basis:
                assert krylov_span_dim(square, b) == _krylov_oracle(square, b)


# ---------------------------------------------------------------------------
# differential tests against sympy (skipped where sympy is not installed)


def _sympy_matrix(sympy, m: RatMatrix):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.entries])


def _from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def _sympy_cases():
    rng = random.Random(7300)
    for rows, cols in ELIMINATION_SHAPES:
        if rows and cols:
            for _ in range(4):
                yield _random_elimination_input(rng, rows, cols)


def test_rank_and_rref_match_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _sympy_cases():
        sm = _sympy_matrix(sympy, m)
        reduced, pivots = sm.rref()
        assert rank(m) == sm.rank()
        assert rref(m) == (RatMatrix(m.rows, m.cols, tuple(_from_sympy(x) for x in reduced)), tuple(pivots))


def test_kernel_basis_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _sympy_cases():
        expected = [tuple(_from_sympy(x) for x in v) for v in _sympy_matrix(sympy, m).nullspace()]
        assert kernel_basis(m) == expected


def _sympy_square_cases():
    rng = random.Random(7700)
    for n in range(1, 7):
        for kind in PRODUCT_KINDS:
            yield _product_input(rng, kind, n, n)
        for _ in range(3):
            yield _random_elimination_input(rng, n, n)


def test_char_poly_and_determinant_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for m in _sympy_square_cases():
        sm = _sympy_matrix(sympy, m)
        expected = [_from_sympy(c) for c in reversed(sm.charpoly(t).all_coeffs())]
        assert char_poly(m).coeffs == tuple(expected)
        assert determinant(m) == _from_sympy(sm.det())


def test_squarefree_factorization_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(7800)
    polys = [char_poly(m) for m in _sympy_square_cases()]
    for _ in range(30):
        f = RatPoly([rng.randint(1, 4)])
        for _ in range(rng.randint(1, 4)):
            factor = RatPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))] + [1])
            f = f * factor ** rng.randint(1, 3)
        polys.append(f)
    for f in polys:
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], t, domain="QQ")
        _, factors = poly.sqf_list()
        expected = sorted(((tuple(_from_sympy(c) for c in reversed(g.monic().all_coeffs())), m) for g, m in factors), key=lambda gm: gm[1])
        assert [(g.coeffs, m) for g, m in squarefree_factorization(f)] == expected


def _sympy_jordan_type(sympy, m: RatMatrix) -> Partition:
    """Block sizes read off sympy's Jordan form (ones on the superdiagonal)."""
    _, j = _sympy_matrix(sympy, m).jordan_form()
    sizes, run = [], 1
    for i in range(1, m.rows):
        if j[i - 1, i] == 1:
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    return Partition(tuple(sorted(sizes, reverse=True)))


def test_nilpotent_jordan_type_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7900)
    for k in range(1, 6):
        for lam in partitions(k):
            g = RatMatrix(k, k, tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k * k)))
            if _sympy_matrix(sympy, g).det() == 0:
                continue
            z = g @ jordan_nilpotent(lam) @ inverse(g)
            assert nilpotent_jordan_type(z) == _sympy_jordan_type(sympy, z) == lam


def test_non_nilpotent_inputs_raise_where_sympy_says_not_nilpotent():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7950)
    cases = [RatMatrix.diagonal([1, 0]), RatMatrix.identity(3), RatMatrix.from_rows([[0, 1], [0, 0]])]
    for k in range(1, 6):
        cases.append(rand_invertible(rng, k))
        cases.append(_random_elimination_input(rng, k, k))
        for lam in partitions(k):
            # nilpotent plus a rank-one idempotent e = u w^T with w^T u = 1
            u = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
            if not any(u):
                continue
            i = next(i for i, x in enumerate(u) if x)
            w = [Fraction(0)] * k
            w[i] = 1 / u[i]
            e = RatMatrix.from_rows([[a * b for b in w] for a in u])
            cases.append(jordan_nilpotent(lam) + e)
            cases.append(jordan_nilpotent(lam))
    raised = 0
    for m in cases:
        if _sympy_matrix(sympy, m).is_nilpotent():
            assert nilpotent_jordan_type(m) == _sympy_jordan_type(sympy, m)
        else:
            raised += 1
            with pytest.raises(NotNilpotentError, match="matrix is not nilpotent"):
                nilpotent_jordan_type(m)
    assert raised > len(cases) // 3
