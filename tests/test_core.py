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
    inverse,
    kernel_basis,
    kernel_space,
    krylov_span_dim,
    nilpotent_jordan_type,
    poly_gcd,
    rank,
    solve_linear,
    squarefree_factorization,
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
