"""Integer partitions: enumeration, counting, conjugation.

Partitions index nilpotent conjugacy classes, torus fixed points and the
summands of intersection cohomology stalks, so the rest of the package leans
on this module heavily.  Enumeration (explicit recursion) lists partitions,
and one table, the counts of the partitions of n by length, answers every
count without listing any, so the two routes cross-check each other in tests.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter


class Frozen:
    """Base of the package's value classes, here in its lowest module: ``==`` within
    one class, ``hash`` and ``repr`` over ``_fields`` in order, and no assignment.
    ``__init__`` sets each field by ``object.__setattr__``; no ``__slots__``, for ``cached_property``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)  # reads the fields in C, for a fast ==

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._fields))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Partition(Frozen):
    """A weakly decreasing tuple of positive integers."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        parts = tuple(parts)
        if any(type(p) is not int or p <= 0 for p in parts):  # no floats, no bools
            raise ValueError(f"partition parts must be positive integers: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _of(cls, parts: tuple[int, ...]) -> "Partition":
        """The partition with these parts, weakly decreasing positive ints already."""
        out = cls.__new__(cls)
        object.__setattr__(out, "parts", parts)
        return out

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition._of(())
        cols = [0] * self.parts[0]
        for p in self.parts:
            for i in range(p):
                cols[i] += 1
        return Partition._of(tuple(cols))

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
            out.append(Partition._of(prefix))
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
