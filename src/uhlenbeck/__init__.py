"""Exact rational models of the Calogero-Moser space, the quiver picture of
sheaves on the noncommutative plane, and the stalk combinatorics of the
Uhlenbeck compactification."""

__version__ = "0.1.0"
