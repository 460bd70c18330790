"""The Calogero-Moser matrix variety at parameter tau.

Points are pairs of n x n matrices whose commutator differs from a multiple
of the identity by a rank-one matrix.  Both orientations of that condition
occur in the literature, so membership is checked for both signs:

    plus:  rank([X, Y] - tau I) = 1
    minus: rank([X, Y] + tau I) = 1

The standard sampler X = diag(x_i), Y_ij = tau / (x_i - x_j) satisfies the
minus convention (its commutator is tau (J - I) with J the all-ones matrix),
which was fixed here by direct computation.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .core import RatMatrix, _int_matmul, commutant_system, krylov_span_dim, rank, rat
from .partitions import partition_count


CMPair = namedtuple("CMPair", "X Y tau sign")  # sign is "plus" or "minus"


class CMVerifyResult(namedtuple("CMVerifyResult", "member signs rank_plus rank_minus")):
    __slots__ = ()

    @property
    def sign(self) -> str | None:
        return self.signs[0] if self.signs else None


def verify_cm(x: RatMatrix, y: RatMatrix, tau) -> CMVerifyResult:
    """Membership test; reports which signs of the rank-one condition hold.

    The empty pair (n = 0) counts as a member: the level-zero variety is a
    single point and the rank condition is vacuous there.
    """
    tau = rat(tau)
    if tau == 0:
        raise ValueError("tau must be nonzero")
    if not (x.is_square and y.is_square and x.rows == y.rows):
        raise ValueError("X and Y must be square of equal size")
    n = x.rows
    if n == 0:
        return CMVerifyResult(True, ("minus", "plus"), 0, 0)
    # reduce the commutator once, first: on sampled members it collapses to tau (J - I)
    terms = [x.commutator(y), RatMatrix.identity(n)]
    r_plus = rank(RatMatrix.combination([1, -tau], terms))
    r_minus = rank(RatMatrix.combination([1, tau], terms))
    signs = tuple(s for s, r in (("minus", r_minus), ("plus", r_plus)) if r == 1)
    return CMVerifyResult(bool(signs), signs, r_plus, r_minus)


def sample_cm(n: int, spectrum: Sequence, tau, diagonal: Sequence | None = None) -> CMPair:
    """Standard member with X = diag(spectrum) and Y_ij = tau/(x_i - x_j).

    The Y diagonal defaults to zero; any diagonal preserves membership since
    it commutes with X.  No check is run: [X, Y] + tau I = tau J, and the
    all-ones J = u u^T has rank one, so the pair is a minus-sign member.
    """
    tau = rat(tau)
    if tau == 0:
        raise ValueError("tau must be nonzero")
    xs = [rat(s) for s in spectrum]
    if len(xs) != n:
        raise ValueError("spectrum length must equal n")
    if len(set(xs)) != n:
        raise ValueError("spectrum values must be pairwise distinct")
    diag = [rat(d) for d in diagonal] if diagonal is not None else [Fraction(0)] * n
    if len(diag) != n:
        raise ValueError("diagonal length must equal n")
    y = RatMatrix.from_rows(
        [[diag[i] if i == j else tau / (xs[i] - xs[j]) for j in range(n)] for i in range(n)]
    )
    return CMPair(RatMatrix.diagonal(xs), y, tau, "minus")


def rescale(pair: CMPair) -> CMPair:
    """(X, Y) -> (X/tau, Y), a member at tau = 1 with the same sign, since
    [X/tau, Y] -+ I = ([X, Y] -+ tau I) / tau has the same ranks."""
    if not verify_cm(pair.X, pair.Y, pair.tau).member:
        raise ValueError("rescale requires a member pair")
    if pair.tau == 1:
        return pair
    return CMPair(pair.X.scale(Fraction(1) / pair.tau), pair.Y, Fraction(1), pair.sign)


def joint_centralizer_dim(x: RatMatrix, y: RatMatrix) -> int:
    """dim {g : gX = Xg and gY = Yg}.

    Equals 1 exactly when the conjugation action is free at (X, Y).

    When the all-ones vector u is cyclic for X, the centralizer of X is
    Q[X] with basis I, X, ..., X^(n-1) (Frobenius).  Proof: u, Xu, ...,
    X^(n-1) u is a basis, so gu = p(X) u for some p of degree < n.  If
    gX = Xg, then (g - p(X)) X^j u = X^j (g - p(X)) u = 0 for every j, so
    g = p(X); and the powers are independent, since they are on u.  The
    joint centralizer is then the kernel of p -> [p(X), Y] on Q[X], and
    [I, Y] = 0, so its dimension is n minus the rank of the rows
    vec([X^i, Y]), i = 1..n-1.  Those rows are written from the integer
    forms x and y of X and Y as x^i y - y x^i, a multiple of [X^i, Y] that
    has the same rank.  Otherwise the kernel of the n^2-column commutant
    system is measured.
    """
    if not (x.is_square and y.is_square and x.rows == y.rows):
        raise ValueError("X and Y must be square of equal size")
    n = x.rows
    if krylov_span_dim([x], [1] * n) < n:
        return n * n - rank(commutant_system([x, y]))
    xa, left, right, rows = x._a, y._a, y._a, []
    for _ in range(1, n):
        left, right = _int_matmul(xa, left, n, n, n), _int_matmul(right, xa, n, n, n)
        rows += [p - q for p, q in zip(left, right)]
    return n - rank(RatMatrix._of(max(n - 1, 0), n * n, 1, rows))


def cm_fixed_point_count(n: int) -> int:
    """Number of torus-fixed points at level n: the partition count p(n)."""
    return partition_count(n)
