"""Integer partitions: enumeration, counting, conjugation.

Partitions index nilpotent conjugacy classes, torus fixed points and the
summands of intersection cohomology stalks, so the rest of the package leans
on this module heavily.  Enumeration (explicit recursion) lists partitions,
and one table, the counts of the partitions of n by length, answers every
count without listing any, so the two routes cross-check each other in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if any(type(p) is not int or p <= 0 for p in parts):  # no floats, no bools
            raise ValueError(f"partition parts must be positive integers: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for i in range(p):
                cols[i] += 1
        return Partition(tuple(cols))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    @property
    def key(self) -> str:
        """Compact text form, e.g. ``2+1`` (empty partition: ``0``)."""
        return "+".join(str(p) for p in self.parts) if self.parts else "0"


def partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order, largest part first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for first in range(min(remaining, cap), 0, -1):
            rec(remaining - first, first, prefix + (first,))

    rec(n, n, ())
    return out


def partition_count(n: int) -> int:
    """p(n), the sum of the counts by length (no enumeration)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(_counts_by_length(n))


@lru_cache(maxsize=None)
def _counts_by_length(n: int) -> tuple[int, ...]:
    """(P(n, 0), ..., P(n, n)), P(n, k) the partitions of n with exactly k parts.

    Removing one box from each part matches the partitions of n with k parts
    with the partitions of n - k into parts <= k.  After pass k,
    ``table[r]`` counts the partitions of r into parts <= k for r <= n - k,
    the only entries later passes read.
    """
    table = [1] + [0] * n
    row = [1 if n == 0 else 0]
    for k in range(1, n + 1):
        for r in range(k, n - k + 1):
            table[r] += table[r - k]
        row.append(table[n - k])
    return tuple(row)


def partition_count_by_length(n: int, k: int) -> int:
    """Number of partitions of n with exactly k parts."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    return _counts_by_length(n)[k] if k <= n else 0
