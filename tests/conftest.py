"""Shared helpers for the test suite.

Property-style tests draw from random.Random with seeds fixed in each test,
so every run is reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from uhlenbeck.core import RatMatrix, rank


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
