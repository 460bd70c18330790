"""Triples (Y, Z, v) with [Y, Z] = tau Z^3 and v cyclic, modulo conjugation.

These triples model the fibers of the contraction from the Gieseker to the
Uhlenbeck compactification over the most degenerate boundary points.  The
commutator identity forces Z nilpotent, so the space splits into components
indexed by the Jordan type of Z; each component is smooth of dimension k.
The support of a triple is the characteristic polynomial of Y, a degree-k
divisor on the affine line, and it is multiplicative under direct sums.

All verification here is exact: the Y-solution space of the commutator
identity is solved as a linear (Sylvester-type) system, cyclicity is a
Krylov closure, and fiber dimensions are measured as exact dimensions of
linear strata and tangent spaces at sampled rational points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .core import (
    NotNilpotentError,
    RatMatrix,
    RatPoly,
    Subspace,
    Vector,
    char_poly,
    commutant_system,
    inverse,
    kernel_basis,
    krylov_span_dim,
    rank,
    rat,
    solve_linear,
    squarefree_factorization,
)
from .partitions import Partition


class TripleCheck(NamedTuple):
    ok: bool
    commutator_ok: bool
    nilpotent_ok: bool
    cyclic_ok: bool


@dataclass(frozen=True)
class BTriple:
    Y: RatMatrix
    Z: RatMatrix
    v: Vector
    tau: Fraction

    @property
    def size(self) -> int:
        return self.Y.rows

    @cached_property
    def check(self) -> TripleCheck:
        """Commutator identity, nilpotency of Z and cyclicity of v.

        The triple is immutable, so the report is computed on first access
        and stored; every reader of the verdict shares that one computation.
        """
        y, z, v, tau = self.Y, self.Z, self.v, rat(self.tau)
        if tau == 0:
            raise ValueError("tau must be nonzero")
        if not (y.is_square and z.is_square and y.rows == z.rows):
            raise ValueError("Y and Z must be square of equal size")
        k = y.rows
        if len(v) != k:
            raise ValueError("vector length must match the matrix size")
        comm_ok = y.commutator(z) == z.power(3).scale(tau)
        nil_ok = z.is_nilpotent
        cyc_ok = krylov_span_dim([y, z], v) == k
        return TripleCheck(comm_ok and nil_ok and cyc_ok, comm_ok, nil_ok, cyc_ok)


def check_btriple(triple: BTriple) -> TripleCheck:
    """Verify the commutator identity, nilpotency of Z, and cyclicity of v.

    Returns the triple's stored report, so repeated checks cost nothing.
    """
    return triple.check


def _require_valid(triple: BTriple):
    if not triple.check.ok:
        raise ValueError(f"invalid triple: {triple.check}")


def jordan_nilpotent(lam) -> RatMatrix:
    """Block-diagonal lower-shift nilpotent with block sizes lam."""
    parts = tuple(lam)
    blocks = [
        RatMatrix.from_rows([[1 if i == j + 1 else 0 for j in range(p)] for i in range(p)]) for p in parts
    ]
    return RatMatrix.block_diag(blocks)


def depth_major_nilpotent(lam) -> RatMatrix:
    """The same nilpotent with basis vectors grouped by depth, not by block.

    All block generators come first, then all depth-one vectors, and so on.
    In this ordering the centralizer's nilpotent directions sit strictly
    below the diagonal, which makes the triangular strata of fiber_probe as
    large as possible.
    """
    parts = tuple(lam)
    positions = sorted((depth, block) for block, p in enumerate(parts) for depth in range(p))
    index = {pos: t for t, pos in enumerate(positions)}
    k = sum(parts)
    rows = [[Fraction(0)] * k for _ in range(k)]
    for block, p in enumerate(parts):
        for depth in range(p - 1):
            rows[index[(depth + 1, block)]][index[(depth, block)]] = Fraction(1)
    return RatMatrix.from_rows(rows) if k else RatMatrix(0, 0, ())


def jordan_triple(k: int, u, tau) -> BTriple:
    """The single-block triple on Q[t]/t^k: Z shifts, Y = u + tau t^3 d/dt.

    In the monomial basis Y is u on the diagonal plus tau*j two below it, so
    the support is the fully degenerate divisor (t - u)^k, and Z is a single
    Jordan block.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    u, tau = rat(u), rat(tau)
    if tau == 0:
        raise ValueError("tau must be nonzero")
    z = jordan_nilpotent((k,))
    y = RatMatrix.from_rows(
        [[(u if i == j else (tau * j if i == j + 2 else 0)) for j in range(k)] for i in range(k)]
    )
    v = tuple(Fraction(1 if i == 0 else 0) for i in range(k))
    return BTriple(y, z, v, tau)


# ---------------------------------------------------------------------------
# the Y-solution space


def solve_commutator_system(z: RatMatrix, tau) -> tuple[RatMatrix, list[RatMatrix]] | None:
    """Solve [Y, Z] = tau Z^3 exactly; None when inconsistent.

    Returns a particular solution and a basis of the homogeneous space,
    which is the centralizer of Z.
    """
    tau = rat(tau)
    k = z.rows
    rhs = z.power(3).scale(tau).entries
    solved = solve_linear(commutant_system([z]), rhs)
    if solved is None:
        return None
    particular, hom = solved
    return RatMatrix(k, k, particular), [RatMatrix(k, k, h) for h in hom]


def commutator_system_solvable(z: RatMatrix, tau) -> bool:
    """Whether [Y, Z] = tau Z^3 has a solution Y: exactly when Z is nilpotent
    or tau = 0, so no system is solved.

    Only if: with tau != 0, pairing the system against W = Z^j gives
    tr(tau Z^(3+j)) = tr((YZ - ZY) Z^j) = 0 for every j, and k consecutive
    power sums of the eigenvalues vanish only when all of them are 0.
    If: at tau = 0, Y = 0 is a solution.  A nilpotent Z is g J g^-1 for its
    rational Jordan form J.  On a lower-shift block of J (J e_i = e_(i+1)),
    Y e_i = tau i e_(i+2) gives [Y, J] e_i = tau e_(i+3) = tau J^3 e_i, so
    g Y g^-1 solves the system for Z.  ``is_nilpotent`` is read first, so a
    non-square Z raises as ``solve_commutator_system`` does.
    """
    tau = rat(tau)
    return z.is_nilpotent or tau == 0


def solve_Y_space(z: RatMatrix, tau) -> tuple[RatMatrix, list[RatMatrix]]:
    """Y-solution space over a nilpotent Z; rejects non-nilpotent input."""
    if not z.is_square:
        raise ValueError("Z must be square")
    if not z.is_nilpotent:
        raise NotNilpotentError("matrix is not nilpotent")
    solved = solve_commutator_system(z, tau)
    if solved is None:
        raise AssertionError("commutator system must be solvable for nilpotent Z")
    return solved


def orbit_dimension(lam) -> int:
    """dim of the conjugacy class of a nilpotent of Jordan type lam."""
    lam = Partition(tuple(lam))
    k = lam.size
    return k * k - sum(c * c for c in lam.conjugate().parts)


class ComponentReport(NamedTuple):
    lam: Partition
    k: int
    orbit_dim: int
    solution_dim: int
    total: int


def component_dimension(lam, tau) -> ComponentReport:
    """Dimension of the component with Jordan type lam; must equal |lam|.

    Assembled as orbit + solved Y-space + cyclic vector - group:
    the solution dimension comes from the exact linear solve, not from the
    conjugate-partition formula.
    """
    lam = Partition(tuple(lam))
    k = lam.size
    z = jordan_nilpotent(lam)
    _, hom = solve_Y_space(z, tau)
    total = orbit_dimension(lam) + len(hom) + k - k * k
    if total != k:
        raise AssertionError(f"component dimension {total} != {k} for {lam}")
    return ComponentReport(lam, k, orbit_dimension(lam), len(hom), total)


# ---------------------------------------------------------------------------
# supports


@dataclass(frozen=True)
class SupportDivisor:
    """char poly of Y; its squarefree factorization over Q is read on demand."""

    poly: RatPoly

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def factors(self) -> tuple[tuple[RatPoly, int], ...]:
        return tuple(squarefree_factorization(self.poly)) if self.poly.degree > 0 else ()

    def __mul__(self, other: "SupportDivisor") -> "SupportDivisor":
        return SupportDivisor(self.poly * other.poly)

    def __str__(self):
        return " * ".join(f"({f})^{m}" if m > 1 else f"({f})" for f, m in self.factors) or str(self.poly)


def support(triple: BTriple) -> SupportDivisor:
    """The degree-k spectrum divisor of Y, for a valid triple."""
    _require_valid(triple)
    return SupportDivisor(char_poly(triple.Y))


def support_poly_p(triple: BTriple, p: int) -> RatPoly:
    """Support pencil read off the degree-p graded piece of the module.

    The coordinate y acts from degree p to degree p+1 as Y - tau p Z^2; the
    returned polynomial is its characteristic polynomial in the affine chart,
    and it must be independent of p.
    """
    _require_valid(triple)
    twisted = RatMatrix.combination([1, -rat(triple.tau) * p], [triple.Y, triple.Z.power(2)])
    return char_poly(twisted)


def direct_sum(t1: BTriple, t2: BTriple) -> BTriple:
    """Block-diagonal sum.  The commutator identity always survives; the sum
    is cyclic exactly when the supports interact correctly (disjoint supports
    suffice), which check_btriple reports."""
    if rat(t1.tau) != rat(t2.tau):
        raise ValueError("tau mismatch")
    y = RatMatrix.block_diag([t1.Y, t2.Y])
    z = RatMatrix.block_diag([t1.Z, t2.Z])
    return BTriple(y, z, t1.v + t2.v, t1.tau)


def translate(triple: BTriple, c) -> BTriple:
    """(Y, Z, v) -> (Y + cI, Z, v); shifts the support by c."""
    y = RatMatrix.combination([1, c], [triple.Y, RatMatrix.identity(triple.size)])
    return BTriple(y, triple.Z, triple.v, triple.tau)


def conjugate_triple(triple: BTriple, g: RatMatrix) -> BTriple:
    gi = inverse(g)
    return BTriple(g @ triple.Y @ gi, g @ triple.Z @ gi, g.apply(triple.v), triple.tau)


def triple_stabilizer_dim(triple: BTriple) -> int:
    """dim of the homogeneous stabilizer system gY=Yg, gZ=Zg, gv=0.

    Zero means the affine system gY=Yg, gZ=Zg, gv=v has the identity as its
    only solution, i.e. the conjugation action is free at this triple.  On
    row-major flattened g, g -> gv is I (x) v^T.
    """
    k = triple.size
    gv = RatMatrix.identity(k).kron(RatMatrix(1, k, triple.v))
    return k * k - rank(RatMatrix.vstack([commutant_system([triple.Y, triple.Z]), gv]))


# ---------------------------------------------------------------------------
# fiber probes


class FiberProbe(NamedTuple):
    lam: Partition
    k: int
    u: Fraction
    tau: Fraction
    solution_dim: int
    stratum_dim: int
    sample_dims: tuple[int, ...]
    measured: int | None
    upper_bound: int
    cyclic_found: bool


def fiber_probe(lam, u, tau, samples: int = 8, seed: int = 0) -> FiberProbe:
    """Measure the fiber over the fully degenerate divisor k*u in one component.

    For each of two presentations of the nilpotent (block-major and
    depth-major bases) the probe parametrizes the linear stratum of
    Y-solutions with Y - uI strictly lower triangular (every member has
    characteristic polynomial (t - u)^k), then at sampled rational points
    computes the exact dimension of the stratum's image modulo the
    conjugation group: stratum directions plus the free vector minus the
    tangent overlap with the stabilizer orbit.  Reported dimensions are
    measurements on these strata together with the k-1 upper bound;
    exactness of the bound is not asserted.
    """
    lam = Partition(tuple(lam))
    u, tau = rat(u), rat(tau)
    k = lam.size
    presentations = [jordan_nilpotent(lam)]
    depth = depth_major_nilpotent(lam)
    if depth != presentations[0]:
        presentations.append(depth)

    rng = random.Random(seed)
    sample_dims: list[int | None] = []
    stratum_dim = 0
    solution_dim = 0
    target = (RatPoly.variable("t") - u) ** k if k else RatPoly.one()
    for z in presentations:
        y0, hom = solve_Y_space(z, tau)
        solution_dim = len(hom)
        base, directions = _triangular_stratum(y0, hom, u, k)
        stratum_dim = max(stratum_dim, len(directions))
        for _ in range(max(samples, 1)):
            y = RatMatrix.combination([1] + [rng.randint(-3, 3) for _ in directions], [base, *directions])
            if char_poly(y) != target:
                raise AssertionError("stratum member lost the degenerate support")
            sample_dims.append(_sample_dim(rng, y, z, hom, directions))
    return _probe(lam, u, tau, solution_dim, stratum_dim, sample_dims)


def _sample_dim(
    rng: random.Random, y: RatMatrix, z: RatMatrix, centralizer: Sequence[RatMatrix], directions: Sequence[RatMatrix]
) -> int | None:
    """The stratum's image dimension at (y, v) for the first of up to 24 random
    draws of v in [-5, 5]^k that is cyclic for (y, z); None if none is."""
    k = y.rows
    for _ in range(24):
        v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(k))
        if krylov_span_dim([y, z], v) == k:
            return _stratum_image_dim(y, z, v, centralizer, directions)
    return None


def _probe(
    lam: Partition, u: Fraction, tau: Fraction, solution_dim: int, stratum_dim: int, dims: Sequence[int | None]
) -> FiberProbe:
    """The report of a probe whose samples measured dims, None where no cyclic
    vector was found; cyclic_found says whether one ever was."""
    found = tuple(d for d in dims if d is not None)
    measured = max(found) if found else None
    k = lam.size
    return FiberProbe(lam, k, u, tau, solution_dim, stratum_dim, found, measured, max(k - 1, 0), bool(found))


def _triangular_stratum(
    y0: RatMatrix, hom: Sequence[RatMatrix], u: Fraction, k: int
) -> tuple[RatMatrix, list[RatMatrix]]:
    """Affine slice of the Y-solution set with Y - uI strictly lower triangular."""
    coords = [(i, j) for i in range(k) for j in range(k) if i <= j]
    rows = [[h.entry(i, j) for h in hom] for (i, j) in coords]
    rhs = [(u if i == j else Fraction(0)) - y0.entry(i, j) for (i, j) in coords]
    solved = solve_linear(RatMatrix.from_rows(rows) if rows else RatMatrix(0, len(hom), ()), rhs)
    if solved is None:
        raise AssertionError("lower-triangular stratum is always nonempty")
    c0, cker = solved
    base = RatMatrix.combination([1, *c0], [y0, *hom])
    directions = [RatMatrix.combination(cv, hom) for cv in cker]
    return base, directions


def pair_centralizer_basis(y: RatMatrix, z: RatMatrix) -> list[RatMatrix]:
    """Basis of {g : gY = Yg and gZ = Zg}, by an exact kernel computation."""
    k = y.rows
    return [RatMatrix(k, k, v) for v in kernel_basis(commutant_system([y, z]))]


def _stratum_image_dim(
    y: RatMatrix, z: RatMatrix, v: Vector, centralizer: Sequence[RatMatrix], directions: Sequence[RatMatrix]
) -> int:
    """Local dimension of the stratum's image in the conjugation quotient.

    Tangent to the slice at (y, v): stratum directions D on Y plus all of V.
    Tangent to the residual group orbit: g in the centralizer C of Z acting
    by ([g, Y], g v).  The image dimension is dim slice - dim(overlap), which
    equals dim(slice + orbit) - dim orbit; the slice holds all of V, so
    dim(slice + orbit) = k + dim(D + [C, y]).
    """
    k = y.rows
    comms = [g.commutator(y) for g in centralizer]
    orbit = Subspace(k * k + k, [c.entries + g.apply(v) for c, g in zip(comms, centralizer)])
    return k + Subspace(k * k, [m.entries for m in [*directions, *comms]]).dim - orbit.dim


def distinct_fiber_probe(spectrum: Sequence, tau, samples: int = 8, seed: int = 0) -> FiberProbe:
    """Measure the fiber over a multiplicity-free divisor sum(u_i).

    Here Z = 0 and Y may be fixed diagonal with the given distinct spectrum;
    the only freedom is the cyclic vector modulo the stabilizer, and the
    measured dimension comes out 0 (a single point, as factorization into
    k = 1 pieces predicts).
    """
    us = [rat(s) for s in spectrum]
    if len(set(us)) != len(us):
        raise ValueError("spectrum must be multiplicity-free")
    tau = rat(tau)
    k = len(us)
    z = RatMatrix.zero(k)
    y = RatMatrix.diagonal(us)
    joint = pair_centralizer_basis(y, z)
    rng = random.Random(seed)
    sample_dims = [_sample_dim(rng, y, z, joint, []) for _ in range(max(samples, 1))]
    return _probe(Partition((1,) * k), us[0] if us else Fraction(0), tau, len(joint), 0, sample_dims)
