"""Exact rational models of the Calogero-Moser space, the quiver picture of
sheaves on the noncommutative plane, and the stalk combinatorics of the
Uhlenbeck compactification."""

__version__ = "0.1.0"

from .core import (
    NotNilpotentError,
    RatMatrix,
    RatPoly,
    Subspace,
    char_poly,
    kernel_basis,
    krylov_span_dim,
    nilpotent_jordan_type,
    rank,
    solve_linear,
    squarefree_factorization,
)
from .partitions import Partition, partition_count, partition_count_by_length, partitions

__all__ = [
    "NotNilpotentError",
    "Partition",
    "RatMatrix",
    "RatPoly",
    "Subspace",
    "char_poly",
    "kernel_basis",
    "krylov_span_dim",
    "nilpotent_jordan_type",
    "partition_count",
    "partition_count_by_length",
    "partitions",
    "rank",
    "solve_linear",
    "squarefree_factorization",
    "__version__",
]
