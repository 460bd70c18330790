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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import RatMatrix, commutant_system, kernel_basis, rank, rat
from .partitions import partition_count


@dataclass(frozen=True)
class CMPair:
    X: RatMatrix
    Y: RatMatrix
    tau: Fraction
    sign: str  # "plus" or "minus"


@dataclass(frozen=True)
class CMVerifyResult:
    member: bool
    signs: tuple[str, ...]
    rank_plus: int
    rank_minus: int

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
    comm = x.commutator(y)
    tau_id = RatMatrix.identity(n).scale(tau)
    r_plus = rank(comm - tau_id)
    r_minus = rank(comm + tau_id)
    signs = tuple(s for s, r in (("minus", r_minus), ("plus", r_plus)) if r == 1)
    return CMVerifyResult(bool(signs), signs, r_plus, r_minus)


def sample_cm(n: int, spectrum: Sequence, tau, diagonal: Sequence | None = None) -> CMPair:
    """Standard member with X = diag(spectrum) and Y_ij = tau/(x_i - x_j).

    The Y diagonal defaults to zero; any diagonal preserves membership since
    it commutes with X.
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
    x = RatMatrix.diagonal(xs)
    y = RatMatrix.from_rows(
        [[diag[i] if i == j else tau / (xs[i] - xs[j]) for j in range(n)] for i in range(n)]
    )
    pair = CMPair(x, y, tau, "minus")
    result = verify_cm(x, y, tau)
    if not result.member or "minus" not in result.signs:
        raise AssertionError("sampler lost the minus-sign membership")
    return pair


def rescale(pair: CMPair) -> CMPair:
    """(X, Y) -> (X/tau, Y), a member at tau = 1 with the same sign."""
    result = verify_cm(pair.X, pair.Y, pair.tau)
    if not result.member:
        raise ValueError("rescale requires a member pair")
    if pair.tau == 1:
        return pair
    x = pair.X.scale(Fraction(1) / pair.tau)
    out = CMPair(x, pair.Y, Fraction(1), pair.sign)
    check = verify_cm(out.X, out.Y, Fraction(1))
    if not check.member:
        raise AssertionError("rescaled pair lost membership")
    return out


def joint_centralizer_dim(x: RatMatrix, y: RatMatrix) -> int:
    """dim {g : gX = Xg and gY = Yg}, via the exact combined Sylvester system.

    Equals 1 exactly when the conjugation action is free at (X, Y).
    """
    if not (x.is_square and y.is_square and x.rows == y.rows):
        raise ValueError("X and Y must be square of equal size")
    return len(kernel_basis(commutant_system([x, y])))


def cm_fixed_point_count(n: int) -> int:
    """Number of torus-fixed points at level n: the partition count p(n)."""
    return partition_count(n)
