from fractions import Fraction

import pytest

from uhlenbeck.bvariety import component_dimension, fiber_probe, orbit_dimension
from uhlenbeck.ic import ic_stalk
from uhlenbeck.partitions import Partition, partition_count, partition_count_by_length, partitions


def test_empty_partition():
    p = Partition()
    assert p.size == 0 and p.length == 0
    assert p.conjugate() == Partition()


def test_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


@pytest.mark.parametrize("parts", [(2.5, 1), (2.0, 1), (True,), (2, False), ("2", 1), (Fraction(2), 1), (None,)])
def test_parts_must_be_integers(parts):
    # int() would have truncated 2.5 to 2 and read True as 1
    with pytest.raises(ValueError, match="partition parts must be positive integers"):
        Partition(parts)


def test_partition_like_arguments_are_validated():
    assert ic_stalk(3, 0, [2, 1]) == ic_stalk(3, 0, Partition((2, 1)))
    assert orbit_dimension((2, 1)) == orbit_dimension(Partition((2, 1))) == 4
    assert component_dimension([2, 1], 1) == component_dimension(Partition((2, 1)), 1)
    assert fiber_probe(iter((2, 1)), 0, 1, samples=1) == fiber_probe(Partition((2, 1)), 0, 1, samples=1)
    for call in (
        lambda: ic_stalk(3, 0, (2.5, 0.5)),
        lambda: orbit_dimension((True, True)),
        lambda: component_dimension((2.0, 1), 1),
        lambda: fiber_probe((1.5,), 0, 1),
    ):
        with pytest.raises(ValueError, match="partition parts must be positive integers"):
            call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: partitions(-1), "n must be nonnegative"),
        (lambda: partition_count(-1), "n must be nonnegative"),
        (lambda: partition_count_by_length(-1, 0), "arguments must be nonnegative"),
    ],
)
def test_partitions_rejects_malformed_input_with_its_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_partition_str():
    assert str(Partition((3, 1, 1))) == "(3,1,1)" and str(Partition()) == "()"


def test_enumeration_order():
    assert [p.parts for p in partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert partitions(0) == [Partition()]


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (4, 5), (7, 15), (10, 42)])
def test_counts_match_enumeration(n, count):
    assert len(partitions(n)) == count
    assert partition_count(n) == count


def test_conjugate_involution_and_invariants():
    for n in range(9):
        for lam in partitions(n):
            conj = lam.conjugate()
            assert Partition(lam.parts) == lam and Partition(conj.parts) == conj  # built unchecked, still valid
            assert conj.size == lam.size
            assert conj.conjugate() == lam
            if lam.parts:
                assert conj.length == lam.parts[0]


def test_count_by_length_sums_to_total():
    for n in range(1, 20):
        assert sum(partition_count_by_length(n, k) for k in range(n + 1)) == len(partitions(n))


def test_count_by_length_matches_enumeration():
    for n in range(1, 12):
        for k in range(n + 1):
            explicit = sum(1 for lam in partitions(n) if lam.length == k)
            assert partition_count_by_length(n, k) == explicit
