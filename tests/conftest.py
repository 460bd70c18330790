"""Shared helpers for the test suite.

Property-style tests draw from random.Random with seeds fixed in each test,
so every run is reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from uhlenbeck.core import RatMatrix, kernel_basis, rank, solve_linear


def rand_matrix(rng: random.Random, rows: int, cols: int, lo: int = -5, hi: int = 5) -> RatMatrix:
    return RatMatrix.from_rows([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def rand_invertible(rng: random.Random, n: int, lo: int = -5, hi: int = 5) -> RatMatrix:
    while True:
        m = rand_matrix(rng, n, n, lo, hi)
        if rank(m) == n:
            return m


def rand_fraction(rng: random.Random, lo: int = -5, hi: int = 5) -> Fraction:
    num = rng.randint(lo, hi)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def matrix_rows(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """The rows of m as Fraction tuples."""
    return [m.row(i) for i in range(m.rows)]


def kernel_vectors(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """``kernel_basis`` in the shape it had before it returned a matrix: its
    rows, one Fraction tuple each."""
    return matrix_rows(kernel_basis(m))


def solution_vectors(m: RatMatrix, b):
    """``solve_linear`` in the shape it had before it returned matrices:
    (particular, kernel vectors) as Fraction tuples, or None."""
    solved = solve_linear(m, b)
    return None if solved is None else (solved[0].row(0), matrix_rows(solved[1]))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


@pytest.fixture
def commutant_calls(monkeypatch) -> list:
    """The matrix lists of every commutant_system call bvariety and calogero
    make during the test: each call builds one k^2-column system."""
    from uhlenbeck import bvariety, calogero
    from uhlenbeck.core import commutant_system

    calls = []

    def counting(mats):
        calls.append(mats)
        return commutant_system(mats)

    for module in (bvariety, calogero):
        monkeypatch.setattr(module, "commutant_system", counting)
    return calls
