"""Stalk combinatorics of the Uhlenbeck compactification.

The boundary strata of the level-n space are indexed by a Calogero-Moser
level m and a partition lam of n - m recording collisions on the line at
infinity; the stratum has dimension 2m + l(lam).  The intersection
cohomology stalk on such a stratum is the graded vector space

    q^{2m} * prod_i ( sum_{mu |- lam_i} q^{2 l(mu)} ),

encoded here as a polynomial in q (a summand in shift d contributes q^d),
stored as its list of integer coefficients and multiplied by convolution.
The coefficient profile of the deepest one-point factor reproduces the Betti
numbers of the punctual Hilbert scheme of the plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .core import RatPoly, convolve, poly_str
from .partitions import Partition, partition_count, partition_count_by_length, partitions


@dataclass(frozen=True)
class GradedStalk:
    """Multiset of even shifts: ``coeffs[d]`` summands sit in shift d.

    The coefficients are plain nonnegative integers with no trailing zero,
    so the total is a sum and ``to_str`` prints them directly; ``poly`` is
    the same data as a polynomial in q.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("stalk coefficients must not end in a zero")
        for k, c in enumerate(self.coeffs):
            if c != 0 and (k % 2 == 1 or type(c) is not int or c < 0):
                raise ValueError("stalk polynomial must have nonnegative integer coefficients in even degrees")

    @property
    def poly(self) -> RatPoly:
        return RatPoly(self.coeffs, var="q")

    @property
    def total(self) -> int:
        return sum(self.coeffs)

    @property
    def min_shift(self) -> int:
        if not self.coeffs:
            raise ValueError("zero stalk")
        return next(k for k, c in enumerate(self.coeffs) if c != 0)

    @property
    def max_shift(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, shift: int) -> int:
        return self.coeffs[shift] if 0 <= shift < len(self.coeffs) else 0

    def to_str(self) -> str:
        return poly_str(self.coeffs, "q", ascending=True)

    def __str__(self):
        return self.to_str()


@lru_cache(maxsize=None)
def _length_counts(k: int) -> tuple[int, ...]:
    """Coefficients of sum over mu |- k of q^{2 l(mu)}: P(k, l) at q^{2l}."""
    coeffs = [0] * (2 * k + 1)
    coeffs[::2] = [partition_count_by_length(k, l) for l in range(k + 1)]
    return tuple(coeffs)


def length_counting_poly(k: int) -> RatPoly:
    """sum over partitions mu of k of q^{2 l(mu)}, from the counts by length."""
    return RatPoly(_length_counts(k), var="q")


def ic_stalk(n: int, m: int, lam) -> GradedStalk:
    """IC stalk on the stratum (m, lam): q^{2m} times the product over parts."""
    lam = Partition(tuple(lam))
    if m < 0 or m + lam.size != n:
        raise ValueError(f"need m + |lam| = n with m >= 0; got m={m}, |lam|={lam.size}, n={n}")
    coeffs = [0] * (2 * m) + [1]
    for part in lam:
        coeffs = convolve(coeffs, _length_counts(part))
    return GradedStalk(tuple(coeffs))


def punctual_hilbert_betti(n: int) -> list[int]:
    """Betti numbers b_0, b_2, ... of the punctual Hilbert scheme of n points.

    b_{2k-2} counts partitions of n with exactly k parts; odd Betti numbers
    vanish and are omitted.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return [partition_count_by_length(n, k) for k in range(1, n + 1)]


class Stratum(NamedTuple):
    m: int
    lam: Partition

    @property
    def dim(self) -> int:
        return 2 * self.m + self.lam.length

    @property
    def is_open(self) -> bool:
        return self.lam.length == 0


def strata(n: int) -> list[Stratum]:
    """All strata (m, lam |- n-m), open stratum first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for m in range(n, -1, -1):
        for lam in partitions(n - m):
            out.append(Stratum(m, lam))
    return out


class SmallnessRow(NamedTuple):
    stratum: Stratum
    codim: int
    fiber_bound: int
    strict: bool


def smallness_audit(n: int) -> list[SmallnessRow]:
    """Check 2 * fiber bound < codim on every non-open stratum.

    The fiber bound sum(lam_i - 1) is read off the stalk: each factor spans
    shifts 2..2*lam_i, so its width is twice the fiber dimension over that
    part.  A violation raises, since it would contradict smallness.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rows = []
    for st in strata(n):
        codim = 2 * n - st.dim
        bound = sum(p - 1 for p in st.lam)
        strict = True if st.is_open else (2 * bound < codim)
        if not strict:
            raise ValueError(f"smallness violated on stratum {st}")
        rows.append(SmallnessRow(st, codim, bound, strict))
    return rows


class UhlenbeckFixedPoint(NamedTuple):
    m: int
    lam: Partition
    k0: int
    kinf: int
    attracting: bool


def uhlenbeck_fixed_points(n: int) -> list[UhlenbeckFixedPoint]:
    """Torus-fixed points: a fixed point of level m plus a divisor supported
    at the two fixed points of the line, k0 + kinf = n - m.  Exactly one of
    them (m = 0, everything at the attracting end) is attracting."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for m in range(n, -1, -1):
        for lam in partitions(m):
            for k0 in range(n - m, -1, -1):
                kinf = n - m - k0
                attracting = m == 0 and kinf == 0
                out.append(UhlenbeckFixedPoint(m, lam, k0, kinf, attracting))
    return out


def uhlenbeck_fixed_point_count(n: int) -> int:
    """sum over m of p(m) * (n - m + 1), with no enumeration."""
    return sum(partition_count(m) * (n - m + 1) for m in range(n + 1))
