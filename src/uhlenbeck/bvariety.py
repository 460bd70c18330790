"""Triples (Y, Z, v) with [Y, Z] = tau Z^3 and v cyclic, modulo conjugation.

These triples model the fibers of the contraction from the Gieseker to the
Uhlenbeck compactification over the most degenerate boundary points.  The
commutator identity forces Z nilpotent, so the space splits into components
indexed by the Jordan type of Z; each component is smooth of dimension k.
The support of a triple is the characteristic polynomial of Y, a degree-k
divisor on the affine line, and it is multiplicative under direct sums.

All verification here is exact: the Y-solution space of the commutator
identity is solved as a linear (Sylvester-type) system, the fiber probes
draw N = Y - uI directly (u only labels the divisor), cyclicity is a Krylov
closure or, in the probes, a rank and one coordinate (Nakayama) or the zero
entries (Vandermonde), and fiber dimensions are exact dimensions of linear
strata and tangent spaces at sampled points.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cached_property

from .core import (
    NotNilpotentError,
    RatMatrix,
    RatPoly,
    Vector,
    _int_matmul,
    char_poly,
    column_space,
    commutant_system,
    inverse,
    kernel_basis,
    krylov_span_dim,
    matrix_system,
    rank,
    rat,
    solve_linear,
    squarefree_factorization,
)
from .partitions import Frozen, Partition


TripleCheck = namedtuple("TripleCheck", "ok commutator_ok nilpotent_ok cyclic_ok")


class BTriple(Frozen):
    _fields = ("Y", "Z", "v", "tau")

    def __init__(self, Y: RatMatrix, Z: RatMatrix, v: Vector, tau: Fraction):
        for name, value in zip(self._fields, (Y, Z, v, rat(tau))):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return self.Y.rows

    @cached_property
    def check(self) -> TripleCheck:
        """Commutator identity, nilpotency of Z and cyclicity of v.

        The triple is immutable, so the report is computed on first access
        and stored; every reader of the verdict shares that one computation.
        """
        y, z, v, tau = self.Y, self.Z, self.v, self.tau
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


def _lower_shift(lam, key) -> RatMatrix:
    """The nilpotent with block sizes lam sending basis vector (depth, block)
    to (depth + 1, block), or to 0 at the end of its block, on the basis
    sorted by key(depth, block)."""
    basis = sorted(((depth, block) for block, p in enumerate(lam) for depth in range(p)), key=key)
    return RatMatrix.from_rows([[int(pos == (depth + 1, block)) for depth, block in basis] for pos in basis])


def jordan_nilpotent(lam) -> RatMatrix:
    """Block-diagonal lower-shift nilpotent with block sizes lam."""
    return _lower_shift(lam, key=lambda pos: pos[::-1])


def depth_major_nilpotent(lam) -> RatMatrix:
    """The same nilpotent with basis vectors grouped by depth, not by block.

    All block generators come first, then all depth-one vectors, and so on.
    In this ordering the centralizer's nilpotent directions sit strictly
    below the diagonal, which makes the triangular strata of fiber_probe as
    large as possible.
    """
    return _lower_shift(lam, key=None)


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
    return particular.blocks(k, k)[0], hom.blocks(k, k)


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


ComponentReport = namedtuple("ComponentReport", "lam k orbit_dim solution_dim total")


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
    orbit = orbit_dimension(lam)
    total = orbit + len(hom) + k - k * k
    if total != k:
        raise AssertionError(f"component dimension {total} != {k} for {lam}")
    return ComponentReport(lam, k, orbit, len(hom), total)


# ---------------------------------------------------------------------------
# supports


class SupportDivisor(Frozen):
    """char poly of Y; its squarefree factorization over Q is read on demand."""

    _fields = ("poly",)

    def __init__(self, poly: RatPoly):
        object.__setattr__(self, "poly", poly)

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
    twisted = RatMatrix.combination([1, -triple.tau * p], [triple.Y, triple.Z.power(2)])
    return char_poly(twisted)


def direct_sum(t1: BTriple, t2: BTriple) -> BTriple:
    """Block-diagonal sum.  The commutator identity always survives; the sum
    is cyclic exactly when the supports interact correctly (disjoint supports
    suffice), which check_btriple reports."""
    if t1.tau != t2.tau:
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
    only solution, i.e. the conjugation action is free at this triple.

    It is 0 whenever v is cyclic for (Y, Z), and then no system is built.
    Proof: if g commutes with Y and Z and gv = 0, then g w(Y, Z) v =
    w(Y, Z) g v = 0 for every word w in Y and Z.  Those vectors span Q^k,
    so g = 0.  Cyclicity is read from the triple's stored check, or, at
    tau = 0 where ``check`` raises, from a Krylov closure.  Otherwise the
    kernel of the k^2-column system is measured: the commutant rows stacked
    over the rows of g -> gv.
    """
    y, z, v, k = triple.Y, triple.Z, triple.v, triple.size
    cyclic = triple.check.cyclic_ok if triple.tau else krylov_span_dim([y, z], v) == k
    if cyclic:
        return 0
    gv = matrix_system([[(1, RatMatrix.identity(k), RatMatrix(k, 1, v))]])
    return k * k - rank(RatMatrix.vstack([commutant_system([y, z]), gv]))


# ---------------------------------------------------------------------------
# fiber probes


FiberProbe = namedtuple("FiberProbe", "lam k u tau solution_dim stratum_dim sample_dims measured upper_bound cyclic_found")


def fiber_probe(lam, u, tau, samples: int = 8, seed: int = 0) -> FiberProbe:
    """Measure the fiber over the fully degenerate divisor k*u in one component.

    For each of two presentations of the nilpotent (block-major and
    depth-major bases) the probe draws members N = Y - uI, directly, of the
    linear stratum of Y-solutions with N strictly lower triangular, checks
    its base point and directions are (the hypothesis of both proofs), and at
    them computes the exact dimension of the stratum's image modulo the
    conjugation group: stratum directions plus the free vector minus the
    tangent overlap with the stabilizer orbit.  uI is central, so u only
    labels the divisor.  Reported dimensions are measurements on these strata
    together with the k-1 upper bound; exactness of the bound is not asserted.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    lam = Partition(tuple(lam))
    u, tau = rat(u), rat(tau)
    k = lam.size
    presentations = dict.fromkeys([jordan_nilpotent(lam), depth_major_nilpotent(lam)])  # one when they agree
    rng = random.Random(seed)
    sample_dims, stratum_dim = [], 0
    for z in presentations:
        centralizer = kernel_basis(commutant_system([z])).blocks(k, k)  # the homogeneous Y-solutions
        n0, directions = _lower_stratum(z, tau)
        if any(x for m in (n0, *directions) for i in range(k) for x in m._a[i * k + i : (i + 1) * k]):
            raise AssertionError("stratum member N = Y - uI is not strictly lower triangular")
        stratum_dim = max(stratum_dim, len(directions))
        image_dim = _stratum_image_dim(centralizer, directions)
        for _ in range(samples):
            n = RatMatrix.combination([1] + [rng.randint(-3, 3) for _ in directions], [n0, *directions])
            found = _cyclic_drawn(rng, k, _nakayama_test(n, z))
            sample_dims.append(image_dim(n) if found else None)
    return _probe(lam, u, tau, len(centralizer), stratum_dim, sample_dims)


def _nakayama_test(n: RatMatrix, z: RatMatrix) -> Callable[[Sequence], bool]:
    """Cyclicity for (n + uI, z) with n and z strictly lower triangular, as on
    every member of ``fiber_probe``: v is cyclic exactly when Qv + W = V for
    W = im(n) + im(z), and as row 0 of n and z is 0, W lies in x_0 = 0, so
    when k = 0, or when dim W = k - 1 and v_0 != 0.  Proof (Nakayama): n and
    z generate an algebra N with N^k = 0 and NV = W, and A = Q1 + N.  Av lies
    in Qv + W, and Qv + W = V gives V = Qv + NV = Av + N^2 V = ... = Av.
    """
    spans = column_space(n, z).dim == n.rows - 1
    return lambda v: not v or spans and v[0] != 0


def _cyclic_drawn(rng: random.Random, k: int, cyclic: Callable[[list[int]], bool]) -> bool:
    """Whether one of up to 24 random draws of v in [-5, 5]^k passes the test
    cyclic; the draws stop at the first that passes."""
    return any(cyclic([rng.randint(-5, 5) for _ in range(k)]) for _ in range(24))


def _probe(
    lam: Partition, u: Fraction, tau: Fraction, solution_dim: int, stratum_dim: int, dims: Sequence[int | None]
) -> FiberProbe:
    """The report of a probe whose samples measured dims, None where no cyclic
    vector was found; cyclic_found says whether one ever was."""
    found = tuple(d for d in dims if d is not None)
    k = lam.size
    return FiberProbe(lam, k, u, tau, solution_dim, stratum_dim, found, max(found, default=None), max(k - 1, 0), bool(found))


def _lower_stratum(z: RatMatrix, tau: Fraction) -> tuple[RatMatrix, list[RatMatrix]]:
    """{N strictly lower triangular : [N, Z] = tau Z^3}, the stratum of Y - uI for every u
    (uI is central), as (N0, directions) from one system: [N, Z] = tau Z^3 over P_j N e_j = 0,
    P_j the first j + 1 rows of I.  The answer of ``solve_linear`` is canonical (N0 is 0 at the
    free entries), so it depends only on this set and the row-major order of N's entries."""
    k = z.rows
    eye = RatMatrix.identity(k)
    units = eye.blocks(1, k)
    upper = [[(1, RatMatrix.vstack(units[: j + 1]), units[j].transpose())] for j in range(k)]
    system = matrix_system([[(1, eye, z), (-1, z, eye)], *upper])
    solved = solve_linear(system, z.power(3).scale(tau).entries + (0,) * (k * (k + 1) // 2))
    if solved is None:
        raise AssertionError("lower-triangular stratum is always nonempty")
    return solved[0].blocks(k, k)[0], solved[1].blocks(k, k)


def pair_centralizer_basis(y: RatMatrix, z: RatMatrix) -> list[RatMatrix]:
    """Basis of {g : gY = Yg and gZ = Zg}, by an exact kernel computation."""
    k = y.rows
    return kernel_basis(commutant_system([y, z])).blocks(k, k)


def _stratum_image_dim(centralizer: Sequence[RatMatrix], directions: Sequence[RatMatrix]) -> Callable[[RatMatrix], int]:
    """n = Y - uI -> local dimension of the stratum's image in the conjugation
    quotient at (Y, v), for any v cyclic for (Y, Z), a basis C of Z's
    centralizer and the stratum directions D.  The slice's tangent is D on Y
    plus all of V, the residual orbit's is g in C acting by ([g, Y], g v), and
    the image dimension is dim(slice + orbit) - dim orbit = k + dim(D + [C,
    n]) - |C|, as [g, n] = [g, Y]: a g in span C with [g, Y] = 0 and g v = 0
    commutes with Y and Z and kills a cyclic vector, so g = 0 (the proof in
    ``triple_stabilizer_dim``).  D + [C, n] is ranked from integer forms: m._a
    for m in D, and g._a n._a - n._a g._a, read off the stacked g times n and
    the stacked g^T times n^T, so each product builds only n's sparse rows."""
    c, top = len(centralizer), [x for m in directions for x in m._a]
    stack, stack_t = [x for g in centralizer for x in g._a], [x for g in centralizer for x in g.transpose()._a]

    def dim(n: RatMatrix) -> int:
        k, kk = n.rows, n.rows**2
        gn, ng_t = _int_matmul(stack, n._a, c * k, k, k), _int_matmul(stack_t, n.transpose()._a, c * k, k, k)
        rows = top + [gn[b * kk + i] - ng_t[b * kk + i % k * k + i // k] for b in range(c) for i in range(kk)]
        return k + rank(RatMatrix._of(len(directions) + c, kk, 1, rows)) - c

    return dim


def distinct_fiber_probe(spectrum: Sequence, tau, samples: int = 8, seed: int = 0) -> FiberProbe:
    """Measure the fiber over a multiplicity-free divisor sum(u_i).

    Here Z = 0 and Y may be fixed diagonal with the given distinct spectrum;
    the only freedom is the cyclic vector modulo the stabilizer, and the
    dimension, measured once, comes out 0 (a single point, as factorization
    into k = 1 pieces predicts).  v is cyclic exactly when no entry is 0: the
    words in Y and Z = 0 send v to the (p(u_i) v_i)_i, and the u_i are
    distinct, so the (p(u_i))_i run over all of Q^k (Vandermonde).
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    us = [rat(s) for s in spectrum]
    if len(set(us)) != len(us):
        raise ValueError("spectrum must be multiplicity-free")
    k = len(us)
    y = RatMatrix.diagonal(us)
    joint = pair_centralizer_basis(y, RatMatrix.zero(k))
    dim = _stratum_image_dim(joint, [])(y)
    rng = random.Random(seed)
    sample_dims = [dim if _cyclic_drawn(rng, k, all) else None for _ in range(samples)]
    return _probe(Partition((1,) * k), us[0] if us else Fraction(0), rat(tau), len(joint), 0, sample_dims)
