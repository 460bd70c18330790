import itertools
import random
from fractions import Fraction
from functools import cached_property
from math import lcm

import pytest

from conftest import kernel_vectors, matrix_rows, rand_invertible, rand_matrix, solution_vectors
from uhlenbeck import core
from uhlenbeck.bvariety import jordan_nilpotent
from uhlenbeck.calogero import sample_cm
from uhlenbeck.core import (
    NotNilpotentError,
    RatMatrix,
    RatPoly,
    Subspace,
    Vector,
    _common,
    _over,
    _row_space,
    char_poly,
    column_space,
    commutant_system,
    convolve,
    determinant,
    inverse,
    kernel_basis,
    kernel_space,
    krylov_span_dim,
    matrix_system,
    nilpotent_jordan_type,
    poly_gcd,
    rank,
    rref,
    rat,
    solve_linear,
    squarefree_factorization,
)
from uhlenbeck.partitions import Partition, partitions
from uhlenbeck.quiver import ARROWS, RELATIONS


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
    assert matrix_rows(kernel_basis(RatMatrix.identity(3))) == []


def test_kernel_one_equation():
    basis = kernel_basis(RatMatrix.from_rows([[1, 1]]))
    assert basis.rows == 1
    assert Subspace(2, matrix_rows(basis)) == Subspace(2, [(1, -1)])


def test_kernel_zero_matrix():
    assert kernel_basis(RatMatrix.zero(2)).rows == 2


def test_rank_nullity_on_random_matrices():
    rng = random.Random(101)
    for _ in range(30):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = rand_matrix(rng, r, c)
        assert rank(m) + kernel_basis(m).rows == c


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
        assert m.apply(particular.row(0)) == b
        for h in matrix_rows(hom):
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


def test_subspace_add_reports_growth_and_copy_is_independent():
    rng = random.Random(1801)
    for _ in range(40):
        n = rng.randint(1, 6)
        s = Subspace(n)
        for _ in range(n + 3):
            v = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            before, rows = s.dim, dict(s.rows)
            t = s.copy()
            grew = t.add(enumerate(v))
            assert grew == (not s.contains(v)) and t.dim == before + grew and t.contains(v)
            assert s.rows == rows and s.dim == before
            s = t
        assert s == Subspace(n, s.basis)
    assert Subspace(2).add([(0, 0), (1, 0)]) is False


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


def test_subspace_dim_eq_and_hash_do_not_depend_on_reading_basis():
    # reading basis reduces the stored echelon in place; dim, == and hash must
    # give the same answers on a subspace whose basis was never read
    rng = random.Random(1130)
    for _ in range(60):
        n = rng.randint(0, 6)
        a, b = ([[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n + 1))] for _ in range(2))
        m = RatMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]) if n else None

        def spaces():
            u, w = Subspace(n, a), Subspace(n, b)
            return [u, u.sum(w), u.intersect(w)] + ([u.image_under(m)] if n else [])

        read = spaces()
        bases = [s.basis for s in read]
        for fresh, again, s, basis in zip(spaces(), spaces(), read, bases):
            assert fresh.dim == s.dim == len(basis)
            assert hash(fresh) == hash(s)
            assert again == s and s == Subspace(n, [[3 * x for x in v] for v in reversed(basis)])
            assert s.basis == basis
    # == and hash read the integer rows with a positive lead: negated and
    # rescaled spanning vectors give the same space, one flipped sign does not
    u = Subspace(3, [[1, 2, 0], [0, 1, -1]])
    w = Subspace(3, [[-2, -4, 0], [0, Fraction(-1, 3), Fraction(1, 3)]])
    assert u == w and hash(u) == hash(w)
    assert Subspace(2, [[-1, 1]]) == Subspace(2, [[3, -3]]) and hash(Subspace(2, [[-1, 1]])) == hash(Subspace(2, [[3, -3]]))
    assert Subspace(3, [[1, 2, 0], [0, 1, 1]]) != u and Subspace(2, [[1, 1]]) != Subspace(2, [[1, -1]])


def test_column_and_kernel_space():
    m = RatMatrix.from_rows([[1, 2], [2, 4]])
    assert column_space(m).dim == 1
    assert kernel_space(m).dim == 1


def test_column_and_kernel_space_of_several_maps():
    # low-rank maps with denominators, so the sums and meets are proper
    rng = random.Random(25)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a, b, c = (
            (rand_matrix(rng, rows, r, -3, 3) @ rand_matrix(rng, r, cols, -3, 3)).scale(Fraction(1, rng.randint(1, 4)))
            for r in [rng.randint(1, 2) for _ in range(3)]
        )
        assert column_space(a, b, c) == column_space(a).sum(column_space(b)).sum(column_space(c))
        assert kernel_space(a, b) == kernel_space(a).intersect(kernel_space(b))
        assert kernel_space(a, b, c) == kernel_space(a, b).intersect(kernel_space(c))
    for call in (column_space, kernel_space):
        with pytest.raises(TypeError):
            call()


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


def test_poly_equals_only_polys_and_hashes_with_them():
    # a RatPoly is never equal to a number, so == agrees with hash
    assert RatPoly((3,)) != 3 and RatPoly((3,)) != Fraction(3)
    assert RatPoly(()) != 0
    for p, q in ((RatPoly([1, 2]), RatPoly([1, 2])), (RatPoly([-1, 0, 5], "t"), RatPoly([-1, 0, 5], "q"))):
        assert p == q and hash(p) == hash(q)
    mixed = {RatPoly((3,)), 3}
    assert len(mixed) == 2 and not any(a == b for a, b in itertools.combinations(mixed, 2))


def test_squarefree_factorization():
    t = RatPoly((0, 1))
    f = (t - 2) ** 3
    assert [(str(g), m) for g, m in squarefree_factorization(f)] == [("t-2", 3)]
    f2 = (t**2) * (t - 5)
    assert squarefree_factorization(f2) == [(t - 5, 1), (t, 2)]


def test_squarefree_reconstructs():
    rng = random.Random(108)
    t = RatPoly((0, 1))
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
            assert kernel_basis(commutant_system([jordan_nilpotent(lam)])).rows == expected


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
        assert matrix_rows(kernel_basis(m)) == _oracle_kernel(m)
        assert Subspace(cols, m.row_lists()).basis == _oracle_basis(cols, m.row_lists())
        x = [_random_entry(rng) for _ in range(cols)]
        for b in (m.apply(x), tuple(_random_entry(rng) for _ in range(rows))):
            assert solution_vectors(m, b) == _oracle_solve(m, b)
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


# Verbatim copies of the Subspace.sum and Subspace.image_under loops from
# before they stopped at a full span.


def _old_sum(self: Subspace, other: Subspace) -> Subspace:
    if self.ambient != other.ambient:
        raise ValueError("ambient mismatch")
    out = self.copy()
    for row in other.rows.values():
        out._insert(row)
    return out


def _old_image_under(self: Subspace, *maps: RatMatrix) -> Subspace:
    if not maps:
        raise ValueError("image_under needs at least one map")
    rows = maps[0].rows
    if any(m.cols != self.ambient or m.rows != rows for m in maps):
        raise ValueError("maps must act on this ambient space and share a row count")
    out = Subspace._empty(rows)
    for m in maps:
        for row in self.rows.values():
            out._insert(core._primitive(m._times(row)))
    return out


def _raw_rows(s: Subspace) -> list:
    """The stored echelon rows themselves, in insertion order, as they are before any reduce."""
    return [(c, list(row.items())) for c, row in s.rows.items()]


def test_full_span_stop_keeps_the_pinned_rows():
    # the stop must leave the stored rows, not only the span, as the full loops
    # leave them; full and zero sources, ambient 0 and 0 x n maps included
    rng = random.Random(7170)
    stopped = 0
    for _ in range(300):
        n, rows = rng.randint(0, 5), rng.randint(0, 5)
        spans = [Subspace(n), Subspace.full(n)]
        spans += [Subspace(n, _random_elimination_input(rng, rng.randint(0, n + 2), n).row_lists()) for _ in range(2)]
        u, w = rng.choice(spans), rng.choice(spans)
        new, old = u.sum(w), _old_sum(u, w)
        assert _raw_rows(new) == _raw_rows(old) and new.ambient == old.ambient
        stopped += new.dim == n and len(w.rows) > 0 and len(u.rows) < n
        maps = [_random_elimination_input(rng, rows, n) for _ in range(rng.choice((1, 3)))]
        new, old = u.image_under(*maps), _old_image_under(u, *maps)
        assert _raw_rows(new) == _raw_rows(old) and new.ambient == old.ambient == rows
        stopped += new.dim == rows and len(maps) * u.dim > rows
    assert stopped > 100
    for n in (0, 3):
        for maps in ([RatMatrix(0, n, ())], [RatMatrix(0, n, ())] * 3):
            for u in (Subspace(n), Subspace.full(n)):
                assert _raw_rows(u.image_under(*maps)) == _raw_rows(_old_image_under(u, *maps)) == []
                assert u.image_under(*maps).ambient == 0
    # the ambient and shape checks still run before the loop can stop
    with pytest.raises(ValueError, match="ambient mismatch"):
        Subspace.full(2).sum(Subspace(3))
    with pytest.raises(ValueError, match="ambient mismatch"):
        Subspace.full(0).sum(Subspace(1))
    for maps in ([RatMatrix.zero(2, 3)], [RatMatrix(0, 3, ())], [RatMatrix.zero(1, 2), RatMatrix.zero(2, 2)]):
        with pytest.raises(ValueError, match="maps must act on this ambient space"):
            Subspace.full(2).image_under(*maps)


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


def vector(entries) -> tuple:
    """The removed ``core.vector``, kept for the verbatim oracles below: one
    Fraction per entry, reading text as ``rat`` does."""
    return tuple(rat(x) for x in entries)


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
        return Subspace(u.ambient)
    cols = [list(v) for v in u.basis] + [list(v) for v in w.basis]
    stacked = RatMatrix.from_columns(cols)
    vecs = []
    p = len(u.basis)
    for kv in kernel_vectors(stacked):
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
            expected = RatPoly((1,))
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
        assert matrix_rows(kernel_basis(m)) == expected


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


def _sympy_poly(sympy, f: RatPoly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], sympy.Symbol(f.var), domain="QQ")


def _coeffs_from_sympy(p) -> tuple[Fraction, ...]:
    return RatPoly(_from_sympy(c) for c in reversed(p.all_coeffs())).coeffs


def test_squarefree_factorization_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7800)
    polys = [char_poly(m) for m in _sympy_square_cases()]
    for _ in range(30):
        f = RatPoly([rng.randint(1, 4)])
        for _ in range(rng.randint(1, 4)):
            factor = RatPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))] + [1])
            f = f * factor ** rng.randint(1, 3)
        polys.append(f)
    for f in polys:
        _, factors = _sympy_poly(sympy, f).sqf_list()
        expected = sorted(((tuple(_from_sympy(c) for c in reversed(g.monic().all_coeffs())), m) for g, m in factors), key=lambda gm: gm[1])
        assert [(g.coeffs, m) for g, m in squarefree_factorization(f)] == expected


def test_poly_gcd_and_divmod_match_sympy():
    # the pinned Fraction Euclid checks gcds up to degree 12 only; sympy checks
    # them up to degree 60, and every squarefree factor is such a gcd
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8600)
    chars = [char_poly(RatMatrix(k, k, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k * k)])) for k in (5, 10, 20, 30)]
    products = [a * b for a, b in itertools.combinations(chars, 2)]
    pairs = [(f, g) for f in products + [a * a for a in chars] for g in chars] + list(itertools.combinations(products, 2))
    family = [_random_factored_poly(rng, "t") for _ in range(21)]
    pairs += list(zip(family, family[1:]))
    pairs += [(f * g, g * h) for f, g, h in zip(family, family[1:], family[2:])]
    assert max(max(f.degree, g.degree) for f, g in pairs) == 60
    for f, g in pairs:
        sf, sg = _sympy_poly(sympy, f), _sympy_poly(sympy, g)
        assert poly_gcd(f, g).coeffs == _coeffs_from_sympy(sf.gcd(sg).monic())
        for a, b, sa, sb in ((f, g, sf, sg), (g, f, sg, sf)):
            q, r = divmod(a, b)
            sq, sr = sympy.div(sa, sb)
            assert (q.coeffs, r.coeffs) == (_coeffs_from_sympy(sq), _coeffs_from_sympy(sr))


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


# ---------------------------------------------------------------------------
# entrywise arithmetic, commutant systems and squarefree factors pinned to
# the Fraction code they replaced (verbatim copies, methods as functions)


def _old_add(self, other: "RatMatrix") -> "RatMatrix":
    self._same_shape(other)
    return RatMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))


def _old_sub(self, other: "RatMatrix") -> "RatMatrix":
    self._same_shape(other)
    return RatMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))


def _old_neg(self) -> "RatMatrix":
    return RatMatrix(self.rows, self.cols, tuple(-a for a in self.entries))


def _old_scale(self, c) -> "RatMatrix":
    c = rat(c)
    return RatMatrix(self.rows, self.cols, tuple(c * a for a in self.entries))


def _old_commutator(self, other: "RatMatrix") -> "RatMatrix":
    return _old_sub(self @ other, other @ self)


def _old_is_zero(self) -> bool:
    return all(x == 0 for x in self.entries)


def _old_commutant_system(mats) -> RatMatrix:
    k = mats[0].rows
    kk = k * k
    entries = [Fraction(0)] * (len(mats) * kk * kk)
    r = 0
    for m in mats:
        for i in range(k):
            for j in range(k):
                for t in range(k):
                    entries[r + i * k + t] = m.entry(t, j)
                    entries[r + t * k + j] = -m.entry(i, t)
                # (gm)[i, j] and (mg)[i, j] both have a g[i, j] term
                entries[r + i * k + j] = m.entry(j, j) - m.entry(i, i)
                r += kk
    return RatMatrix(len(mats) * kk, kk, tuple(entries))


def _single_pass_commutant_system(mats) -> RatMatrix:
    k = mats[0].rows
    kk = k * k
    d, forms = _common(mats)
    out = [0] * (len(mats) * kk * kk)
    r = 0
    for a in forms:
        for i in range(k):
            for j in range(k):
                for t in range(k):
                    out[r + i * k + t] = a[t * k + j]
                    out[r + t * k + j] = -a[i * k + t]
                # (gm)[i, j] and (mg)[i, j] both have a g[i, j] term
                out[r + i * k + j] = a[j * k + j] - a[i * k + i]
                r += kk
    return RatMatrix._of(len(mats) * kk, kk, d, out)


def _old_poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def _old_squarefree_factorization(f: RatPoly) -> list[tuple[RatPoly, int]]:
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    f = f.monic()
    if f.degree == 0:
        return []
    out: list[tuple[RatPoly, int]] = []
    g = _old_poly_gcd(f, f.derivative())
    c = f // g
    d = f.derivative() // g - c.derivative()
    i = 1
    while c.degree > 0:
        a = _old_poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
        c = c // a
        d = d // a - c.derivative()
        i += 1
    return out


def assert_pinned(new: RatMatrix, old: RatMatrix):
    """Equal values, equal repr (so equal entry types) and Fraction entries only."""
    assert new == old and hash(new) == hash(old) and repr(new) == repr(old)
    assert _all_fractions(new.entries)


def _diagonal_cancelling_pairs(rng: random.Random, n: int):
    """(x, y, tau) with [x, y] = tau (E_00 - E_11) plus a multiple of E_01, so
    [x, y] - tau I and [x, y] + tau I each have a zero on the diagonal."""
    tau = Fraction(rng.choice([1, -3, 2**65 + 1]), rng.randint(1, 5))
    x = [[Fraction(0)] * n for _ in range(n)]
    y = [[Fraction(0)] * n for _ in range(n)]
    x[0][1], y[1][0], y[0][0] = Fraction(1), tau, Fraction(rng.randint(-4, 4), 3)
    return RatMatrix.from_rows(x), RatMatrix.from_rows(y), tau


@pytest.mark.parametrize("shape", PRODUCT_SHAPES)
def test_entrywise_arithmetic_matches_pinned_fraction_code(shape):
    rows, cols, _ = shape
    rng = random.Random(8100 + 100 * rows + 10 * cols)
    for kind_a, kind_b in itertools.product(PRODUCT_KINDS, repeat=2):
        a, b = _product_input(rng, kind_a, rows, cols), _product_input(rng, kind_b, rows, cols)
        assert_pinned(a + b, _old_add(a, b))
        assert_pinned(a - b, _old_sub(a, b))
        assert_pinned(-a, _old_neg(a))
        for c in (0, -1, Fraction(3, 7), Fraction(-(2**66) - 1, 5), _random_entry(rng)):
            assert_pinned(a.scale(c), _old_scale(a, c))
        for m in (a, b, a - a, a + b, _old_scale(a, 0)):
            assert m.is_zero == _old_is_zero(m)
        s, t = _product_input(rng, kind_a, rows, rows), _product_input(rng, kind_b, rows, rows)
        assert_pinned(s.commutator(t), _old_commutator(s, t))
        assert_pinned(s.commutator(s), _old_commutator(s, s))
    with pytest.raises(ValueError):
        RatMatrix.zero(2, 3) + RatMatrix.zero(3, 2)
    with pytest.raises(ValueError):
        RatMatrix.zero(2, 3) - RatMatrix.zero(2, 2)


def test_commutator_plus_minus_tau_with_zero_diagonal_entries_matches_pinned_fraction_code():
    rng = random.Random(8150)
    for n in range(2, 6):
        for _ in range(4):
            x, y, tau = _diagonal_cancelling_pairs(rng, n)
            comm, old_comm = x.commutator(y), _old_commutator(x, y)
            assert_pinned(comm, old_comm)
            tau_id, old_tau_id = RatMatrix.identity(n).scale(tau), _old_scale(RatMatrix.identity(n), tau)
            assert_pinned(tau_id, old_tau_id)
            for new, old in ((comm - tau_id, _old_sub(old_comm, old_tau_id)), (comm + tau_id, _old_add(old_comm, old_tau_id))):
                assert_pinned(new, old)
                assert any(new.entry(i, i) == 0 for i in range(n)) and rank(new) == rank(old)


def test_commutant_system_matches_pinned_fraction_code():
    rng = random.Random(8200)
    for k in range(5):
        for kind_a, kind_b in itertools.product(PRODUCT_KINDS, repeat=2):
            a, b = _product_input(rng, kind_a, k, k), _product_input(rng, kind_b, k, k)
            assert_pinned(commutant_system([a]), _old_commutant_system([a]))
            assert_pinned(commutant_system([a, b]), _old_commutant_system([a, b]))
            assert rank(commutant_system([a, b])) == rank(_old_commutant_system([a, b]))


def _random_factored_poly(rng: random.Random, var: str, most: int = 4) -> RatPoly:
    f = RatPoly([_random_entry(rng) or Fraction(1)], var)
    for _ in range(rng.randint(0, most)):
        factor = RatPoly([_random_entry(rng) for _ in range(rng.randint(1, 3))] + [_random_entry(rng) or 1], var)
        f = f * factor ** rng.randint(1, 4)
    return f


def test_squarefree_factorization_and_gcd_match_pinned_fraction_code():
    rng = random.Random(8300)
    t = RatPoly((0, 1))
    polys = [RatPoly([Fraction(-7, 3)]), (t - Fraction(7, 3)) ** 12, (t**2 + 1) ** 3 * (t - 2**70) ** 2, t**5 * (t + 1)]
    polys += [char_poly(_product_input(rng, kind, n, n)) for n in range(1, 6) for kind in PRODUCT_KINDS]
    polys += [_random_factored_poly(rng, var) for var in ("t", "tau") for _ in range(40)]
    for f in polys:
        new, old = squarefree_factorization(f), _old_squarefree_factorization(f)
        assert [(g.coeffs, g.var, m) for g, m in new] == [(g.coeffs, g.var, m) for g, m in old]
        assert all(_all_fractions(g.coeffs) for g, _ in new)
        # the pinned Euclid in Fractions swells on coprime inputs, so gcds are
        # pinned on the smaller polynomials only
        g = _random_factored_poly(rng, f.var, most=2)
        if f.degree > 12:
            continue
        for a, b in ((f, g), (g, f), (f * g, f), (f, RatPoly((), f.var)), (RatPoly((), f.var), g)):
            gcd_new, gcd_old = poly_gcd(a, b), _old_poly_gcd(a, b)
            assert (gcd_new.coeffs, gcd_new.var) == (gcd_old.coeffs, gcd_old.var) and _all_fractions(gcd_new.coeffs)
    with pytest.raises(ValueError):
        squarefree_factorization(RatPoly(()))


def test_equal_matrices_reached_by_different_routes_are_equal_with_equal_hash():
    # equality and hash compare the stored integer form, so every route to the
    # same matrix must reach the least common denominator
    rng = random.Random(8400)
    for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 2), (3, 4), (4, 4)]:
        for kind_a, kind_b in itertools.product(PRODUCT_KINDS, repeat=2):
            a, b = _product_input(rng, kind_a, rows, cols), _product_input(rng, kind_b, rows, cols)
            direct = RatMatrix.from_rows(a.row_lists()) if rows else RatMatrix(0, cols, ())
            p, q = rng.choice([(2, 3), (-5, 7), (2**65 + 3, 9)])
            routes = [
                (a + b) - b,
                b + (a - b),
                a.scale(Fraction(p, q)).scale(Fraction(q, p)),
                a.scale(6) + a.scale(-5),
                -(-a),
                RatMatrix.vstack([a]),
                RatMatrix.block_diag([a]),
            ]
            if rows == cols:
                routes += [a @ RatMatrix.identity(cols), a.power(1), a + a.commutator(b) - b.commutator(a).scale(-1)]
            for m in routes:
                assert m == direct and hash(m) == hash(direct) and repr(m) == repr(direct)
            # the constructor with int entries: d times a, for d the lcm of a's denominators
            d = lcm(*(x.denominator for x in a.entries))
            scaled = RatMatrix(rows, cols, tuple(int(x * d) for x in a.entries))
            assert scaled == direct.scale(d) and hash(scaled) == hash(direct.scale(d))
            assert repr(scaled) == repr(direct.scale(d))
            zero = RatMatrix.zero(rows, cols)
            for m in (a - a, a.scale(0), b.scale(Fraction(1, 3)) - b.scale(Fraction(1, 3))):
                assert m == zero and hash(m) == hash(zero) and m.is_zero


def _old_divmod(self: RatPoly, other) -> tuple[RatPoly, RatPoly]:
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


def test_poly_divmod_matches_pinned_fraction_division():
    rng = random.Random(8500)
    polys = [RatPoly(()), RatPoly([Fraction(-2, 3)]), RatPoly([0, 0, 1]), RatPoly([1, 2 ** 70, Fraction(3, 2 ** 66)])]
    polys += [_random_factored_poly(rng, "t", most=2) for _ in range(60)]
    for f in polys:
        for g in polys[1:8] + [_random_factored_poly(rng, "t", most=1) for _ in range(3)]:
            new, old = divmod(f, g), _old_divmod(f, g)
            assert [(p.coeffs, p.var) for p in new] == [(p.coeffs, p.var) for p in old]
            assert all(_all_fractions(p.coeffs) for p in new)
            assert f // g == old[0] and f % g == old[1] and divmod(f, 3) == _old_divmod(f, 3)
        with pytest.raises(ZeroDivisionError):
            divmod(f, RatPoly(()))


# ---------------------------------------------------------------------------
# linear combinations and polynomial products pinned to the term-by-term code
# they replaced


COEFFICIENTS = [0, 1, -1, 3, Fraction(-3, 7), Fraction(5, 6), Fraction(2**66 + 1, 35), "2/9"]


@pytest.mark.parametrize("shape", PRODUCT_SHAPES)
def test_combination_matches_pinned_term_by_term_sums(shape):
    rows, cols, _ = shape
    rng = random.Random(8600 + 100 * rows + 10 * cols)
    for terms in range(1, 5):
        for _ in range(8):
            mats = [_product_input(rng, rng.choice(PRODUCT_KINDS), rows, cols) for _ in range(terms)]
            coeffs = [rng.choice(COEFFICIENTS + [_random_entry(rng)]) for _ in range(terms)]
            if rng.random() < 0.3:  # a term that cancels the first one
                mats.append(mats[0].scale(Fraction(1, 3)))
                coeffs.append(-3 * rat(coeffs[0]))
            new = RatMatrix.combination(coeffs, mats)
            chain, old = RatMatrix.zero(rows, cols), RatMatrix.zero(rows, cols)
            for c, m in zip(coeffs, mats):
                chain = chain + m.scale(c)
                old = _old_add(old, _old_scale(m, c))
            assert_pinned(new, chain)
            assert_pinned(new, old)


def test_combination_rejects_a_shape_or_count_mismatch():
    a, b = RatMatrix.zero(2, 3), RatMatrix.identity(2)
    with pytest.raises(ValueError) as old:
        a + b.scale(5)
    with pytest.raises(ValueError) as new:
        RatMatrix.combination([1, 5], [a, b])
    assert str(new.value) == str(old.value) == "shape mismatch: 2x3 vs 2x2"
    with pytest.raises(ValueError):
        RatMatrix.combination([1, 2], [a])
    with pytest.raises(ValueError):
        RatMatrix.combination([1], [a, a])


def _old_mul(self, other) -> RatPoly:
    o = self._coerce(other)
    if self.is_zero or o.is_zero:
        return RatPoly((), self.var)
    out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
    for i, a in enumerate(self.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(o.coeffs):
            out[i + j] += a * b
    return RatPoly(out, self.var)


def test_poly_product_matches_pinned_fraction_product():
    rng = random.Random(8700)
    polys = [RatPoly(()), RatPoly((), "q"), RatPoly([Fraction(-2, 3)]), RatPoly([0, 0, 1], "q")]
    polys += [RatPoly([1, 2**70, Fraction(3, 2**66)]), RatPoly([Fraction(1, 6), 0, Fraction(-5, 4)])]
    polys += [RatPoly([_random_entry(rng) for _ in range(rng.randint(0, 6))], rng.choice("tq")) for _ in range(40)]
    for f in polys:
        for g in polys[:6] + rng.sample(polys, 8) + [0, 3, Fraction(-5, 4)]:
            new, old = f * g, _old_mul(f, g)
            assert (new.coeffs, new.var, repr(new), hash(new)) == (old.coeffs, old.var, repr(old), hash(old))
            assert _all_fractions(new.coeffs)
            if not isinstance(g, RatPoly):
                assert ((g * f).coeffs, (g * f).var) == (old.coeffs, old.var)
    assert convolve([], [1, 2]) == convolve([3], []) == []
    assert convolve([0, 2, 0], [1, -1]) == [0, 2, -2, 0]


# ---------------------------------------------------------------------------
# transposes, Kronecker products and nilpotency tests, and the column spaces
# and full subspaces built from them, pinned to the code they replaced
# (verbatim copies)


def _old_from_columns(cols) -> RatMatrix:
    if not cols:
        return RatMatrix(0, 0, ())
    n = len(cols[0])
    return RatMatrix.from_rows([[col[i] for col in cols] for i in range(n)])


def _old_full(ambient: int) -> Subspace:
    return Subspace(ambient, [tuple(Fraction(1 if i == j else 0) for j in range(ambient)) for i in range(ambient)])


def _old_column_space(m: RatMatrix) -> Subspace:
    return Subspace(m.rows, [m.column(j) for j in range(m.cols)])


def _old_nilpotent_ok(z: RatMatrix) -> bool:
    """BTriple.check's nilpotency test, with k the size of z."""
    k = z.rows
    return z.power(k).is_zero if k else True


def assert_same_subspace(new: Subspace, old: Subspace):
    assert type(new) is type(old) and new == old and hash(new) == hash(old) and repr(new) == repr(old)
    assert new.basis == old.basis and new.rows == old.rows


KRON_SHAPES = [(0, 0), (0, 2), (3, 0), (1, 1), (2, 3), (3, 1), (1, 4), (2, 2)]


def _kron(self, other: "RatMatrix") -> "RatMatrix":
    """The Kronecker product self (x) other: block (i, j) is self[i, j] other."""
    a, p, q = self._a, self.cols, other.cols
    rows_b = [other._a[k * q : (k + 1) * q] for k in range(other.rows)]
    out = [x * y for i in range(self.rows) for rb in rows_b for x in a[i * p : (i + 1) * p] for y in rb]
    return RatMatrix._of(self.rows * other.rows, p * q, self._d * other._d, out)


def test_transpose_and_kron_match_their_entrywise_definitions():
    rng = random.Random(8900)
    for rows, cols in KRON_SHAPES:
        for kind in PRODUCT_KINDS:
            a = _product_input(rng, kind, rows, cols)
            expected = RatMatrix(cols, rows, tuple(a.entry(i, j) for j in range(cols) for i in range(rows)))
            assert_pinned(a.transpose(), expected)
            assert_pinned(a.transpose().transpose(), a)
    for (r1, c1), (r2, c2) in itertools.product(KRON_SHAPES, repeat=2):
        for kind_a, kind_b in itertools.product(PRODUCT_KINDS[2:], repeat=2):
            a, b = _product_input(rng, kind_a, r1, c1), _product_input(rng, kind_b, r2, c2)
            entries = [a.entry(i, j) * b.entry(k, l) for i in range(r1) for k in range(r2) for j in range(c1) for l in range(c2)]
            product = _kron(a, b)
            assert (product.rows, product.cols) == (r1 * r2, c1 * c2)
            assert_pinned(product, RatMatrix(r1 * r2, c1 * c2, tuple(entries)))
            assert_pinned(product.transpose(), _kron(a.transpose(), b.transpose()))
    # the denominators of a kron can cancel against the numerators
    assert_pinned(_kron(RatMatrix.from_rows([[Fraction(2, 3)]]), RatMatrix.from_rows([[Fraction(3, 2)]])), RatMatrix.identity(1))


def test_from_columns_full_and_column_space_match_pinned_code():
    rng = random.Random(8910)
    assert_pinned(RatMatrix.from_columns([]), _old_from_columns([]))
    for rows, cols in KRON_SHAPES + [(5, 2), (2, 5), (4, 4)]:
        for kind in PRODUCT_KINDS:
            m = _product_input(rng, kind, rows, cols)
            assert_same_subspace(column_space(m), _old_column_space(m))
            if rows and cols:
                columns = [m.column(j) for j in range(cols)]
                assert_pinned(RatMatrix.from_columns(columns), _old_from_columns(columns))
                assert_pinned(RatMatrix.from_columns([list(c) for c in columns]), m)
    for n in range(7):
        assert_same_subspace(Subspace.full(n), _old_full(n))
        assert Subspace.full(n).rows == {i: {i: 1} for i in range(n)}
    # each call writes its own rows, since ``add`` grows a space in place
    assert Subspace.full(2).rows is not Subspace.full(2).rows
    # columns of length zero keep their count now; the index loop lost it
    assert (RatMatrix.from_columns([(), ()]).rows, RatMatrix.from_columns([(), ()]).cols) == (0, 2)
    assert (_old_from_columns([(), ()]).rows, _old_from_columns([(), ()]).cols) == (0, 0)


def test_commutant_system_is_a_stack_of_kronecker_sums():
    rng = random.Random(8920)
    for k in range(7):
        eye = RatMatrix.identity(k)
        for kind_a, kind_b in itertools.product(PRODUCT_KINDS, repeat=2):
            a, b = _product_input(rng, kind_a, k, k), _product_input(rng, kind_b, k, k)
            for mats in ([a], [a, b], [b, a, b]):
                expected = RatMatrix.vstack([_kron(eye, m.transpose()) - _kron(m, eye) for m in mats])
                assert_pinned(commutant_system(mats), expected)
                assert_pinned(commutant_system(mats), _single_pass_commutant_system(mats))


def _system_oracle(equations) -> RatMatrix:
    """The stack of sum c (A (x) B^T) over the equations, summed entry by entry
    in Fractions."""
    blocks = []
    for equation in equations:
        terms = [(rat(c), _kron(a, b.transpose())) for c, a, b in equation]
        rows, cols = terms[0][1].rows, terms[0][1].cols
        entries = [sum((c * m.entries[n] for c, m in terms), Fraction(0)) for n in range(rows * cols)]
        blocks.append(RatMatrix(rows, cols, tuple(entries)))
    return RatMatrix.vstack(blocks)


def _check_system(equations):
    system = matrix_system(equations)
    assert_pinned(system, _system_oracle(equations))
    return system


def test_matrix_system_matches_the_kronecker_sum_entrywise():
    rng = random.Random(8925)
    coeffs = [1, -1, 0, Fraction(3, 7), Fraction(-(2**66) - 1, 5)]
    for (m, p), (q, r) in itertools.product(KRON_SHAPES, repeat=2):
        for kind_a, kind_b in itertools.product(PRODUCT_KINDS, repeat=2):
            a, b = _product_input(rng, kind_a, m, p), _product_input(rng, kind_b, q, r)
            a2, b2 = _product_input(rng, kind_b, m, p), _product_input(rng, kind_a, q, r)
            c, c2 = rng.choice(coeffs), rng.choice(coeffs)
            system = _check_system([[(c, a, b)]])
            assert (system.rows, system.cols) == (m * r, p * q)
            _check_system([[(c, a, b), (c2, a2, b2)]])
            # a zero coefficient writes nothing, and a term can cancel another
            _check_system([[(0, a, b)]])
            _check_system([[(c, a, b), (0, a2, b2), (-c, a, b)]])
            # equations of different output shapes, stacked in order: the
            # second is m x q, the third p x r
            eye_p, eye_q = RatMatrix.identity(p), RatMatrix.identity(q)
            _check_system([[(c, a, b)], [(c2, a2, eye_q), (1, a, eye_q)], [(c, eye_p, b2)]])


def test_matrix_system_writes_the_relation_system_at_tau_zero():
    # the unknown stacks G_xi, G_eta, G_zeta; E_g picks out G_g
    rng = random.Random(8930)
    for r1, r2, r3 in [(1, 2, 1), (1, 3, 1), (2, 5, 2), (3, 2, 1)]:
        for tau in (Fraction(0), Fraction(3, 7)):
            F = {a: rand_matrix(rng, r2, r1, -3, 3) for a in ARROWS}
            eye = [[int(i == j) for j in range(3 * r3)] for i in range(3 * r3)]
            E = {a: RatMatrix.from_rows(eye[g * r3 : (g + 1) * r3]) for g, a in enumerate(ARROWS)}
            equations = [[(c * tau**p, E[g], F[f]) for g, f, c, p in terms] for _, terms in RELATIONS]
            system = _check_system(equations)
            assert (system.rows, system.cols) == (6 * r3 * r1, 3 * r3 * r2)


def test_is_nilpotent_matches_the_pinned_power_test_and_the_jordan_type():
    rng = random.Random(8930)
    cases = [RatMatrix.zero(0), RatMatrix.zero(3), RatMatrix.identity(2), RatMatrix.diagonal([0, 0, Fraction(1, 7)])]
    for k in range(1, 6):
        for lam in partitions(k):
            g = rand_invertible(rng, k, -2, 2) @ RatMatrix.diagonal([Fraction(1, rng.randint(1, 4)) for _ in range(k)])
            z = g @ jordan_nilpotent(lam) @ inverse(g)
            cases += [z, z + RatMatrix.identity(k).scale(Fraction(1, 2**65 + 1)), z.scale(Fraction(-(2**66), 9))]
        cases += [_product_input(rng, kind, k, k) for kind in PRODUCT_KINDS]
        cases += [_random_elimination_input(rng, k, k) for _ in range(4)]
    nilpotent = 0
    for z in cases:
        try:
            nilpotent_jordan_type(z)
            expected = True
        except NotNilpotentError:
            expected = False
        assert type(z.is_nilpotent) is bool and z.is_nilpotent == _old_nilpotent_ok(z) == expected
        nilpotent += expected
    assert 30 < nilpotent < len(cases) - 30
    for m in (RatMatrix.zero(2, 3), RatMatrix.zero(0, 2)):
        with pytest.raises(ValueError) as exc:
            m.is_nilpotent
        assert str(exc.value) == "power of a non-square matrix"


_A = RatMatrix.from_rows([[1, 2], [3, 4]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: RatMatrix(-1, 2, ()), "negative matrix dimensions"),
        (lambda: RatMatrix(2, 2, (1, 2, 3)), "entry count does not match rows*cols"),
        (lambda: RatMatrix.from_rows([[1, 2], [3]]), "ragged rows"),
        (lambda: RatMatrix.zero(2, 3).trace(), "trace of a non-square matrix"),
        (lambda: RatMatrix.zero(2, 3).power(2), "power of a non-square matrix"),
        (lambda: _A.power(-1), "negative power"),
        (lambda: RatMatrix.vstack([_A, RatMatrix.zero(1, 3)]), "column mismatch in vstack"),
        (lambda: matrix_system([[(1, _A, _A), (1, _A, RatMatrix.zero(2, 3))]]), "term 2x2 X 2x3 does not match 2x2 X 2x2"),
        (lambda: matrix_system([[(1, _A, _A)], [(1, RatMatrix.zero(2, 3), _A)]]), "term 2x3 X 2x2 does not match 2x2 X 2x2"),
        (lambda: solve_linear(_A, [1, 2, 3]), "right-hand side length mismatch"),
        (lambda: inverse(RatMatrix.zero(2, 3)), "inverse of a non-square matrix"),
        (lambda: nilpotent_jordan_type(RatMatrix.zero(3, 2)), "Jordan type of a non-square matrix"),
        (lambda: Subspace(3, [(1, 2)]), "vector length does not match ambient dimension"),
        (lambda: Subspace.full(2).sum(Subspace.full(3)), "ambient mismatch"),
        (lambda: Subspace.full(2).intersect(Subspace(3)), "ambient mismatch"),
        (lambda: Subspace.full(2).image_under(), "image_under needs at least one map"),
        (lambda: RatPoly(()).leading, "zero polynomial has no leading coefficient"),
        # their own ids, so the rows above keep theirs
        pytest.param(
            lambda: Subspace(2, [[1, 1]]).contains([1, 1, 0]),
            "vector length does not match ambient dimension",
            id="contains-vector length does not match ambient dimension",
        ),
        pytest.param(
            lambda: Subspace.full(3).contains_subspace(Subspace.full(2)),
            "ambient mismatch",
            id="contains_subspace-ambient mismatch",
        ),
        # its own id, so the RatMatrix row above keeps "<lambda>-negative power"
        pytest.param(lambda: RatPoly((1, 1)) ** -1, "negative power", id="RatPoly-negative power"),
        pytest.param(lambda: RatMatrix.vstack([]), "vstack needs at least one block", id="vstack-no blocks"),
        pytest.param(lambda: RatMatrix.combination([], []), "combination needs at least one matrix", id="combination-no matrices"),
        pytest.param(lambda: matrix_system([]), "matrix_system needs at least one equation", id="matrix_system-no equations"),
        pytest.param(
            lambda: matrix_system([[]]),
            "matrix_system needs at least one term in each equation",
            id="matrix_system-an equation with no terms",
        ),
        pytest.param(lambda: commutant_system([]), "commutant_system needs at least one matrix", id="commutant_system-no matrices"),
        pytest.param(lambda: RatMatrix.zero(-1), "negative matrix dimensions", id="zero-negative size"),
        pytest.param(lambda: RatMatrix.zero(2, -1), "negative matrix dimensions", id="zero-negative column count"),
        pytest.param(lambda: RatMatrix.identity(-1), "negative matrix dimensions", id="identity-negative size"),
        pytest.param(lambda: Subspace(2).add([(5, 1)]), "column 5 outside range(2)", id="add-column above the ambient"),
        pytest.param(lambda: Subspace(2).add([(-1, 1)]), "column -1 outside range(2)", id="add-negative column"),
        # a column is checked whatever its value, and given once
        pytest.param(lambda: Subspace(2).add([(5, 0)]), "column 5 outside range(2)", id="add-zero above the ambient"),
        pytest.param(lambda: Subspace(2).add([(1, 1), (-1, 0)]), "column -1 outside range(2)", id="add-negative zero column"),
        pytest.param(lambda: Subspace(2).add([(0, 1), (0, 2)]), "column 0 given twice", id="add-repeated column"),
        pytest.param(lambda: Subspace(3).add([(2, 0), (1, 1), (2, 0)]), "column 2 given twice", id="add-repeated zero column"),
        pytest.param(lambda: Subspace(-1), "negative ambient dimension -1", id="Subspace-negative ambient"),
        pytest.param(lambda: Subspace.full(-1), "negative ambient dimension -1", id="full-negative ambient"),
    ],
)
def test_core_rejects_malformed_input_with_its_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_reflected_difference_monic_zero_and_matrix_str():
    one_minus_t = 1 - RatPoly((0, 1))  # int - RatPoly goes through __rsub__
    assert one_minus_t == RatPoly((1, -1)) and str(one_minus_t) == "-t+1"
    assert RatPoly(()).monic() == RatPoly(())
    assert str(RatMatrix.from_rows([[1, Fraction(-1, 2)], [0, 3]])) == "[1  -1/2]\n[0  3]"


# ---------------------------------------------------------------------------
# one stored form: the accessors, constructors and reduced-row readers pinned
# to the code that kept a Fraction copy or read rows through _fraction_row
# (verbatim copies, methods as functions or on a stand-in)


class _OldReads:
    """The cached ``entries`` and the accessors that read it, on a copy of the
    integer form of a RatMatrix."""

    def __init__(self, m: RatMatrix):
        self.rows, self.cols, self._d, self._a = m.rows, m.cols, m._d, m._a

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        return _over(self._a, self._d)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))


def _old_from_rows(rows) -> RatMatrix:
    r = len(rows)
    c = len(rows[0]) if r else 0
    if any(len(row) != c for row in rows):
        raise ValueError("ragged rows")
    return RatMatrix(r, c, tuple(rat(x) for row in rows for x in row))


def _old_diagonal(diag) -> RatMatrix:
    d = [rat(x) for x in diag]
    n = len(d)
    return RatMatrix(n, n, tuple(d[i] if i == j else Fraction(0) for i in range(n) for j in range(n)))


def _old_fraction_row(row: dict[int, int], lead: int, start: int, stop: int) -> list[Fraction]:
    p = row[lead]
    out = [Fraction(0)] * (stop - start)
    for j, v in row.items():
        if start <= j < stop:
            out[j - start] = Fraction(v, p)
    return out


def _old_basis(s: Subspace) -> tuple[Vector, ...]:
    ech = s
    return tuple(tuple(_old_fraction_row(ech.rows[c], c, 0, s.ambient)) for c in ech.reduce())


# the Fraction kernel writer ``core._kernel`` was before it wrote integer
# matrices, kept verbatim (with its two constants) for _old_solve_linear
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _kernel(ech: Subspace, pivots: list[int], ncols: int) -> list[Vector]:
    """Kernel basis of the first ncols columns of a reduced echelon form: one
    vector per free column f, with 1 at f and 0 at the other free columns."""
    vecs = {f: [_ZERO] * ncols for f in range(ncols) if f not in ech.rows}
    for f, v in vecs.items():
        v[f] = _ONE
    for c in pivots:
        row = ech.rows[c]
        p = row[c]
        for j, x in row.items():
            if j in vecs:
                vecs[j][c] = Fraction(-x, p)
    return [tuple(v) for v in vecs.values()]


def _old_solve_linear(m: RatMatrix, b):
    bb = vector(b)
    if len(bb) != m.rows:
        raise ValueError("right-hand side length mismatch")
    n, a = m.cols, m._a
    ech = Subspace(n + 1)
    for i in range(m.rows):
        ech.add(itertools.chain(enumerate(a[i * n : (i + 1) * n]), ((n, m._d * bb[i]),)))
    pivots = ech.reduce()
    if n in ech.rows:
        return None
    x = [Fraction(0)] * n
    for c in pivots:
        x[c] = _old_fraction_row(ech.rows[c], c, n, n + 1)[0]
    return tuple(x), _kernel(ech, pivots, n)


def assert_same_read(new, old):
    """Equal value, repr and type, down to every entry, and equal hash."""
    assert new == old and repr(new) == repr(old) and hash(new) == hash(old)
    assert type(new) is type(old)
    if isinstance(new, tuple):
        for x, y in zip(new, old):
            assert_same_read(x, y)


def _mixed_entry(rng: random.Random):
    """An int, a bool, a 'p/q' or integer string, or a Fraction with a mixed
    or huge denominator."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-9, 9) * (rng.random() < 0.7)
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" if rng.random() < 0.7 else str(rng.randint(-(2**70), 2**70))
    return _random_entry(rng)


READ_SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (2, 3), (3, 2), (5, 5)]


def _read_inputs(rng: random.Random, rows: int, cols: int):
    """Matrices of one shape: all-int, mixed entries and Fraction-only; 0 x n
    matrices, which from_rows cannot write, come from zero and the constructor."""
    if not rows:
        return [RatMatrix.zero(0, cols), RatMatrix(0, cols, ())]
    grids = [[[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]]
    grids += [[[_mixed_entry(rng) for _ in range(cols)] for _ in range(rows)] for _ in range(4)]
    return [RatMatrix.from_rows(g) for g in grids] + [_random_elimination_input(rng, rows, cols)]


@pytest.mark.parametrize("shape", READ_SHAPES)
def test_matrix_reads_match_the_pinned_cached_entries(shape):
    rows, cols = shape
    rng = random.Random(9100 + 10 * rows + cols)
    for m in _read_inputs(rng, rows, cols):
        old = _OldReads(m)
        assert_same_read(m.entries, old.entries)
        for i in range(rows):
            assert_same_read(m.row(i), old.row(i))
            for j in range(cols):
                assert_same_read(m.entry(i, j), old.entry(i, j))
        for j in range(cols):
            assert_same_read(m.column(j), old.column(j))
        assert m.row_lists() == [list(old.row(i)) for i in range(rows)]
        # every read builds its Fractions afresh; the matrix keeps its integer form only
        assert set(vars(m)) == {"rows", "cols", "_d", "_a"}


@pytest.mark.parametrize("shape", READ_SHAPES)
def test_from_rows_and_diagonal_match_the_pinned_fraction_constructors(shape):
    rows, cols = shape
    rng = random.Random(9200 + 10 * rows + cols)
    for _ in range(6):
        grid = [[_mixed_entry(rng) for _ in range(cols)] for _ in range(rows)]
        new, old = RatMatrix.from_rows(grid), _old_from_rows(grid)
        assert_pinned(new, old)
        assert_same_read(new.entries, old.entries)
        diag = grid[0] if rows else []
        assert_pinned(RatMatrix.diagonal(diag), _old_diagonal(diag))
        assert_same_read(RatMatrix.diagonal(diag).entries, _old_diagonal(diag).entries)
        assert set(vars(new)) == {"rows", "cols", "_d", "_a"}


def test_int_entries_reach_the_integer_form_without_rat(monkeypatch):
    calls = []

    def counting_rat(x):
        calls.append(x)
        return rat(x)

    monkeypatch.setattr(core, "rat", counting_rat)
    rng = random.Random(9300)
    for rows, cols in READ_SHAPES:
        if rows:
            grid = [[rng.randint(-(2**66), 2**66) for _ in range(cols)] for _ in range(rows)]
            assert_pinned(RatMatrix.from_rows(grid), _old_from_rows(grid))
            assert_pinned(RatMatrix.diagonal(grid[0]), _old_diagonal(grid[0]))
    assert calls == []  # the old copies call this module's rat, not core's
    RatMatrix.from_rows([[1, "2/3"], [True, Fraction(1, 2)]])
    RatMatrix.diagonal(["1/2", 3])
    assert calls == ["2/3", True, Fraction(1, 2), "1/2"]
    for call in (lambda: RatMatrix.from_rows([[1, 0.5]]), lambda: RatMatrix.diagonal([2, 0.5]), lambda: RatMatrix(1, 2, [1, 0.5])):
        with pytest.raises(TypeError) as exc:
            call()
        assert str(exc.value) == "not an exact rational: 0.5"
    # the constructor, Subspace(...), Subspace.add, solve_linear, krylov_span_dim and apply take ints and
    # Fractions only, zero entries included, as their integer form is read off them; the bad entry is named
    # as given, not as the text m._d * "1/2" = "1/21/2" that scaling it by half's denominator 2 would make
    half = RatMatrix.from_rows([["1/2", 0], [0, 1]])
    takers = (
        lambda x: RatMatrix(1, 1, [x]),
        lambda x: Subspace(2).add([(0, 1), (1, x)]),
        lambda x: Subspace(2, [[x, 1]]),
        lambda x: solve_linear(half, [x, 0]),
        lambda x: krylov_span_dim([RatMatrix.identity(2)], [x, 0]),
        lambda x: RatMatrix.identity(2).apply([x, 0]),
    )
    for take in takers:
        for bad in ("1/2", 0.5, 0.0, None):
            with pytest.raises(TypeError) as exc:
                take(bad)
            assert str(exc.value) == f"not an exact rational: {bad!r}"
    with pytest.raises(TypeError) as exc:
        _old_from_rows([[1, 0.5]])
    assert str(exc.value) == "not an exact rational: 0.5"


@pytest.mark.parametrize("shape", ELIMINATION_SHAPES)
def test_basis_and_particular_solution_match_the_pinned_fraction_rows(shape):
    rows, cols = shape
    rng = random.Random(9400 + 31 * rows + cols)
    for _ in range(8):
        m = _random_elimination_input(rng, rows, cols)
        space = Subspace(cols, m.row_lists())
        assert_same_read(space.basis, _old_basis(Subspace(cols, m.row_lists())))
        assert_same_read(space.basis, _old_basis(space))
        for b in ([_random_entry(rng) for _ in range(rows)], m.apply([_random_entry(rng) for _ in range(cols)]), [0] * rows):
            new, old = solve_linear(m, b), _old_solve_linear(m, b)
            assert (new is None) == (old is None)
            if new is not None:
                assert_same_read(new[0].row(0), old[0])
                assert_same_read(tuple(matrix_rows(new[1])), tuple(old[1]))


def _old_kernel_basis(m: RatMatrix) -> list[Vector]:
    """kernel_basis as it was, over the Fraction writer above."""
    ech = _row_space(m._a, m.rows, m.cols)
    return _kernel(ech, ech.reduce(), m.cols)


@pytest.mark.parametrize("shape", ELIMINATION_SHAPES)
def test_kernel_space_of_the_integer_kernel_rows_matches_the_fraction_route(shape):
    # kernel_space was Subspace(cols, Fraction kernel vectors); the rows it now
    # ranks straight from kernel_basis give the same echelon, row for row
    rows, cols = shape
    rng = random.Random(9700 + 31 * rows + cols)
    for _ in range(6):
        maps = [_random_elimination_input(rng, rows, cols) for _ in range(3)]
        for n in (1, 2, 3):
            new = kernel_space(*maps[:n])
            old = Subspace(cols, _old_kernel_basis(RatMatrix.vstack(maps[:n])))
            assert new.ambient == old.ambient == cols
            assert list(new.rows.items()) == list(old.rows.items())
        k, old = kernel_basis(maps[0]), _old_kernel_basis(maps[0])
        assert (k.rows, k.cols) == (len(old), cols)
        assert_same_read(tuple(matrix_rows(k)), tuple(old))


def test_blocks_cut_each_row_into_matrices():
    m = RatMatrix.from_rows([[1, 2, 3, 4, 5, 6], [Fraction(1, 2), 0, 0, 0, 0, 7]])
    halves = [[[1, 2, 3], [4, 5, 6]], [[Fraction(1, 2), 0, 0], [0, 0, 7]]]
    assert m.blocks(2, 3) == [RatMatrix.from_rows(h) for h in halves]
    pieces = [[1, 2], [3, 4], [5, 6], [Fraction(1, 2), 0], [0, 0], [0, 7]]
    assert m.blocks(1, 2) == [RatMatrix.from_rows([p]) for p in pieces]
    # each block is in lowest terms on its own, as RatMatrix(...) would write it
    assert [(b._d, b._a) for b in m.blocks(3, 2)] == [(1, (1, 2, 3, 4, 5, 6)), (2, (1, 0, 0, 0, 0, 14))]
    # a row with no entries is one empty matrix: the k = 0 solution of a k x k unknown
    assert RatMatrix.zero(2, 0).blocks(0, 0) == [RatMatrix.zero(0, 0)] * 2
    assert RatMatrix.zero(1, 0).blocks(3, 0) == [RatMatrix.zero(3, 0)]
    assert RatMatrix.zero(0, 0).blocks(0, 0) == []
    assert RatMatrix.zero(0, 4).blocks(2, 2) == []
    for bad in ((4, 3, 1), (1, 4, 0), (1, 0, 2), (2, 2, -1), (1, 2, 2)):
        with pytest.raises(ValueError, match="is not cut into"):
            RatMatrix.zero(1, bad[0]).blocks(*bad[1:])


_M23 = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("m", [_M23, RatMatrix.zero(0, 3), RatMatrix.zero(3, 0)], ids=["2x3", "0x3", "3x0"])
def test_accessors_reject_every_index_outside_the_matrix(m):
    for i in range(-3, m.rows + 3):
        for j in range(-3, m.cols + 3):
            if 0 <= i < m.rows and 0 <= j < m.cols:
                assert m.entry(i, j) == m.entries[i * m.cols + j]
            else:
                with pytest.raises(IndexError):
                    m.entry(i, j)
        if 0 <= i < m.rows:
            assert m.row(i) == m.entries[i * m.cols : (i + 1) * m.cols]
        else:
            with pytest.raises(IndexError):
                m.row(i)
    for j in range(-3, m.cols + 3):
        if 0 <= j < m.cols:
            assert m.column(j) == tuple(m.entries[i * m.cols + j] for i in range(m.rows))
        else:
            with pytest.raises(IndexError):
                m.column(j)
    if m is _M23:
        # each of these read a wrong entry or an empty row before the check
        for call in (lambda: m.entry(0, 3), lambda: m.entry(0, -1), lambda: m.entry(-1, 0), lambda: m.row(2), lambda: m.row(-1), lambda: m.column(3)):
            with pytest.raises(IndexError):
                call()


# ---------------------------------------------------------------------------
# nilpotency refuted by the trace, and scratch eliminations fed sparsest rows
# first, pinned to the code they replaced


def test_nilpotency_tests_check_the_shape_before_the_trace(monkeypatch):
    # nonzero non-square matrices, whose stride-(cols + 1) sums are nonzero,
    # raise the messages the square checks raised before the trace was read
    for m in (RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]]), RatMatrix.from_rows([[1], [0], [2]]), RatMatrix.from_rows([[0, 0, 7]])):
        with pytest.raises(ValueError) as exc:
            m.is_nilpotent
        assert str(exc.value) == "power of a non-square matrix"
        with pytest.raises(ValueError) as exc:
            nilpotent_jordan_type(m)
        assert str(exc.value) == "Jordan type of a non-square matrix"
        assert type(exc.value) is ValueError
    # zero-trace non-nilpotents answer no through the power and the ranks
    for m in (RatMatrix.from_rows([[0, 1], [1, 0]]), RatMatrix.diagonal([1, -1, 0]), RatMatrix.diagonal([Fraction(1, 3), Fraction(-1, 3)])):
        assert m.trace() == 0 and m.is_nilpotent is False
        with pytest.raises(NotNilpotentError):
            nilpotent_jordan_type(m)
    # a nonzero trace answers without a product or a rank; trace 0 still takes them
    calls = []
    real_power, real_row_space = RatMatrix.power, core._row_space
    monkeypatch.setattr(RatMatrix, "power", lambda self, k: calls.append("power") or real_power(self, k))
    monkeypatch.setattr(core, "_row_space", lambda *args: calls.append("rank") or real_row_space(*args))
    for m in (RatMatrix.identity(3), RatMatrix.from_rows([[0, 1], [0, Fraction(1, 9)]]), RatMatrix.diagonal([1, 1, -1])):
        assert m.is_nilpotent is False
        with pytest.raises(NotNilpotentError):
            nilpotent_jordan_type(m)
    assert calls == []
    assert RatMatrix.from_rows([[0, 1], [0, 0]]).is_nilpotent and nilpotent_jordan_type(RatMatrix.from_rows([[0, 1], [0, 0]])) == Partition((2,))
    assert calls == ["power", "rank", "rank"]


# Verbatim copies of the eliminations from before their rows went in sparsest
# first: each inserted its rows in input order.


def _old_row_space(a, rows: int, cols: int) -> Subspace:
    ech = Subspace._empty(cols)
    for i in range(rows):
        row = {j: x for j, x in enumerate(a[i * cols : (i + 1) * cols]) if x}
        if row:
            ech._insert(core._primitive(row))
    return ech


def _old_rref(m: RatMatrix):
    if not m.rows:
        return m, ()
    ech = _old_row_space(m._a, m.rows, m.cols)
    pivots = ech.reduce()
    return core._reduced_matrix(ech, pivots, 0, m.cols, m.rows), tuple(pivots)


def _old_rank(m: RatMatrix) -> int:
    return _old_row_space(m._a, m.rows, m.cols).dim


def _old_integer_kernel_basis(m: RatMatrix) -> RatMatrix:
    ech = _old_row_space(m._a, m.rows, m.cols)
    return core._kernel(ech, ech.reduce(), m.cols)


def _old_integer_solve_linear(m: RatMatrix, b):
    db, bb = core._clear(b)
    if len(bb) != m.rows:
        raise ValueError("right-hand side length mismatch")
    n, a = m.cols, m._a if db == 1 else [db * x for x in m._a]
    ech = Subspace._empty(n + 1)
    for i in range(m.rows):
        ech._insert(core._primitive({j: x for j, x in enumerate(itertools.chain(a[i * n : (i + 1) * n], (m._d * bb[i],))) if x}))
    pivots = ech.reduce()
    if n in ech.rows:
        return None
    k = core._kernel(ech, pivots, n + 1)
    rows = [k._a[i : i + n] for i in range(0, len(k._a), n + 1)]
    return RatMatrix._of(1, n, k._d, [-v for v in rows.pop()]), RatMatrix._of(len(rows), n, k._d, list(itertools.chain(*rows)))


def _old_inverse(m: RatMatrix) -> RatMatrix:
    if not m.is_square:
        raise ValueError("inverse of a non-square matrix")
    n, a = m.rows, m._a
    ech = Subspace._empty(2 * n)
    for i in range(n):
        ech._insert(core._primitive({j: x for j, x in itertools.chain(enumerate(a[i * n : (i + 1) * n]), ((n + i, m._d),)) if x}))
    pivots = ech.reduce()
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return core._reduced_matrix(ech, pivots, n, 2 * n, n)


def _old_nilpotent_jordan_type(z: RatMatrix) -> Partition:
    if not z.is_square:
        raise ValueError("Jordan type of a non-square matrix")
    k = z.rows
    if k == 0:
        return Partition()
    a = z._a
    ranks = [k]
    power = a
    while True:
        r = _old_row_space(power, k, k).dim
        if r == ranks[-1]:
            raise NotNilpotentError("matrix is not nilpotent")
        ranks.append(r)
        if not r:
            break
        power = core._int_matmul(power, a, k, k, k)
    conj = [ranks[i - 1] - ranks[i] for i in range(1, len(ranks))]
    return Partition(tuple(conj)).conjugate()


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_same_eliminations(m: RatMatrix, rhs) -> bool:
    """rank, rref, kernel_basis, solve_linear (on each right-hand side), inverse
    and nilpotent_jordan_type equal their input-order copies, entry for entry.
    Returns whether the sort changed the raw echelon rows."""
    assert rank(m) == _old_rank(m)
    new, old = rref(m), _old_rref(m)
    assert new[1] == old[1]
    assert_pinned(new[0], old[0])
    assert_pinned(kernel_basis(m), _old_integer_kernel_basis(m))
    for b in rhs:
        new, old = solve_linear(m, b), _old_integer_solve_linear(m, b)
        assert (new is None) == (old is None)
        if new is not None:
            assert_pinned(new[0], old[0])
            assert_pinned(new[1], old[1])
    new, old = _outcome(lambda: inverse(m)), _outcome(lambda: _old_inverse(m))
    if isinstance(new, RatMatrix):
        assert_pinned(new, old)
    else:
        assert new == old
    assert _outcome(lambda: nilpotent_jordan_type(m)) == _outcome(lambda: _old_nilpotent_jordan_type(m))
    # the scratch echelon is the input-order one of the rows in a stable sort by nonzero count
    rows = sorted((m._a[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)), key=lambda row: sum(map(bool, row)))
    new, old = _row_space(m._a, m.rows, m.cols), _old_row_space(list(itertools.chain(*rows)), m.rows, m.cols)
    assert _raw_rows(new) == _raw_rows(old)
    return _raw_rows(new) != _raw_rows(_old_row_space(m._a, m.rows, m.cols))


@pytest.mark.parametrize("shape", ELIMINATION_SHAPES)
def test_sparsest_first_eliminations_match_the_input_order_copies(shape):
    rows, cols = shape
    rng = random.Random(9800 + 31 * rows + cols)
    reordered = 0
    for _ in range(10):
        m = _random_elimination_input(rng, rows, cols)
        x = [_random_entry(rng) for _ in range(cols)]
        reordered += _assert_same_eliminations(m, [m.apply(x), [_random_entry(rng) for _ in range(rows)], [0] * rows])
        if rows == cols:
            reordered += _assert_same_eliminations(m + RatMatrix.identity(rows).scale(Fraction(2**66 + 5, 11)), [])
    assert reordered > 0 or min(rows, cols) <= 1


def test_sparsest_first_eliminations_match_on_commutant_systems_and_centralizer_rows():
    rng = random.Random(9900)
    solved = reordered = 0
    for k in range(1, 7):
        for lam in partitions(k):
            g = rand_invertible(rng, k, -2, 2)
            z = g @ jordan_nilpotent(lam) @ inverse(g)
            system = commutant_system([z])
            # the Y-system [Y, Z] = tau Z^3 of solve_commutator_system, and an inconsistent one
            rhs = [z.power(3).scale(Fraction(3, 5)).entries, RatMatrix.identity(k).entries]
            reordered += _assert_same_eliminations(system, rhs) + _assert_same_eliminations(z, [])
            solved += solve_linear(system, rhs[0]) is not None
    assert solved == 29 and reordered > 20
    reordered = 0
    # the rows x^i y - y x^i, i = 1..n-1, that joint_centralizer_dim ranks, as it writes them
    for n in range(1, 9):
        for tau in (1, Fraction(3, 7)):
            pair = sample_cm(n, rng.sample(range(-9, 10), n), tau, [rng.randint(-3, 3) for _ in range(n)])
            xa, left, right, rows = pair.X._a, pair.Y._a, pair.Y._a, []
            for _ in range(1, n):
                left, right = core._int_matmul(xa, left, n, n, n), core._int_matmul(right, xa, n, n, n)
                rows += [p - q for p, q in zip(left, right)]
            reordered += _assert_same_eliminations(RatMatrix._of(max(n - 1, 0), n * n, 1, rows), [])
            reordered += _assert_same_eliminations(pair.X.commutator(pair.Y), [])
    assert reordered > 0
