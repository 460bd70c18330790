"""Representations of the three-vertex quiver attached to the dual algebra.

A representation is a pair of linear maps per dual generator,

    F_a : V1 -> V2,   G_a : V2 -> V3,   a in {xi, eta, zeta},

subject to the condition that the composite V1 -> V3 factors through the
degree-two component of the dual algebra.  Concretely this means one
identity per basis element of the degree-two multiplication kernel:

    G_xi F_xi = 0                      G_eta F_eta = 0
    G_eta F_xi + G_xi F_eta = 0        G_zeta F_xi + G_xi F_zeta = 0
    G_zeta F_eta + G_eta F_zeta = 0    G_zeta F_zeta + tau (G_eta F_xi - G_xi F_eta) = 0

The module also carries the standard dimension vector and polarization
formulas, and exact slope-stability decision procedures: exact where
r1, r3 <= 1, witness search elsewhere.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import lcm
import random

from .core import RatMatrix, Subspace, Vector, column_space, inverse, kernel_basis, kernel_space, matrix_system, rat
from .ncalgebra import DUAL_GENERATORS, DUAL_PAIR_ORDER
from .partitions import Frozen

ARROWS = DUAL_GENERATORS  # one F and one G per dual generator

DimVector = tuple[int, int, int]

# The six identities, each a sum of coefficient * tau^power * G_g F_f over
# its terms (g, f, coefficient, power).  Names are the check_relations
# failure labels, in reporting order.
RELATIONS: tuple[tuple[str, tuple[tuple[str, str, int, int], ...]], ...] = (
    ("xi.xi", (("xi", "xi", 1, 0),)),
    ("eta.eta", (("eta", "eta", 1, 0),)),
    ("xi.eta+eta.xi", (("eta", "xi", 1, 0), ("xi", "eta", 1, 0))),
    ("xi.zeta+zeta.xi", (("zeta", "xi", 1, 0), ("xi", "zeta", 1, 0))),
    ("eta.zeta+zeta.eta", (("zeta", "eta", 1, 0), ("eta", "zeta", 1, 0))),
    ("zeta.zeta+tau(xi.eta-eta.xi)", (("zeta", "zeta", 1, 0), ("eta", "xi", 1, 1), ("xi", "eta", -1, 1))),
)


class Polarization(Frozen):
    _fields = ("theta",)

    def __init__(self, t1, t2, t3):
        object.__setattr__(self, "theta", (rat(t1), rat(t2), rat(t3)))

    def __iter__(self):
        return iter(self.theta)

    def __str__(self):
        return "(" + ", ".join(str(t) for t in self.theta) + ")"


def slope(theta: Polarization, dim: DimVector) -> Fraction:
    """The pairing theta_1 d_1 + theta_2 d_2 + theta_3 d_3."""
    return sum((t * d for t, d in zip(theta, dim)), Fraction(0))


class QuiverRep(Frozen):
    """Six matrices (F_a: r2 x r1, G_a: r3 x r2) and the parameter tau."""

    _fields = ("dim", "F", "G", "tau")

    def __init__(self, dim: DimVector, F: dict[str, RatMatrix], G: dict[str, RatMatrix], tau: Fraction):
        r1, r2, r3 = dim
        for a in ARROWS:
            if a not in F or a not in G:
                raise ValueError(f"missing arrow matrix for {a}")
            if (F[a].rows, F[a].cols) != (r2, r1):
                raise ValueError(f"F_{a} must be {r2}x{r1}")
            if (G[a].rows, G[a].cols) != (r3, r2):
                raise ValueError(f"G_{a} must be {r3}x{r2}")
        for name, value in zip(self._fields, (dim, F, G, rat(tau))):
            object.__setattr__(self, name, value)


RelationReport = namedtuple("RelationReport", "ok failures")


def check_relations(rep: QuiverRep) -> RelationReport:
    """Exact check of the six factorization identities."""
    products = {(g, f): rep.G[g] @ rep.F[f] for g in ARROWS for f in ARROWS}
    failures = []
    for name, terms in RELATIONS:
        coeffs = [c * rep.tau**p for _, _, c, p in terms]
        residual = RatMatrix.combination(coeffs, [products[g, f] for g, f, _, _ in terms])
        if not residual.is_zero:
            failures.append(name)
    return RelationReport(not failures, tuple(failures))


def relation_tensor_residual(rep: QuiverRep, tensor: Vector) -> RatMatrix:
    """Evaluate sum c_{ab} G_b F_a for a coordinate vector over ordered pairs.

    Pairs (a, b) follow ncalgebra.DUAL_PAIR_ORDER, with a the first arrow
    applied.  Used to cross-check the hard-coded identities against the
    computed multiplication kernel.
    """
    return RatMatrix.combination(tensor, [rep.G[b] @ rep.F[a] for a, b in DUAL_PAIR_ORDER])


# ---------------------------------------------------------------------------
# numeric invariants


def alpha(r: int, d: int, n: int) -> DimVector:
    """Dimension vector (n - d(d-1)/2, 2n - d^2 + r, n - d(d+1)/2)."""
    _check_rdn(r, d, n)
    return (n - d * (d - 1) // 2, 2 * n - d * d + r, n - d * (d + 1) // 2)


def _check_rdn(r: int, d: int, n: int):
    if not ((0 <= d < r) or (r == 0 and d == 0)):
        raise ValueError(f"need 0 <= d < r or (r, d) = (0, 0); got r={r}, d={d}")
    if n < d * (d + 1) // 2:
        raise ValueError(f"need n >= d(d+1)/2; got n={n}, d={d}")


def polarizations(r: int, d: int, n: int) -> tuple[Polarization, Polarization]:
    """The Mumford-side and Gieseker-refinement polarizations.

    Both pair to zero against alpha(r, d, n); the first is independent of n.
    """
    _check_rdn(r, d, n)
    theta0 = Polarization(-r - d, d, r - d)
    theta1 = Polarization(2 * n - d * d + r, d * d - 2 * n, 2 * n - d * d + r)
    return theta0, theta1


# ---------------------------------------------------------------------------
# constructions


def monad_of_point(h: tuple, tau) -> QuiverRep:
    """The (1,2,1) representation of the point [a:b] on the line at infinity.

    Writing h = a xi + b eta, the two maps are (h, zeta)^T and (-zeta, h).
    """
    a, b = (rat(h[0]), rat(h[1]))
    tau = rat(tau)
    if a == 0 and b == 0:
        raise ValueError("h must be a nonzero vector")
    if tau == 0:
        raise ValueError("tau must be nonzero")
    F = {
        "xi": RatMatrix.from_rows([[a], [0]]),
        "eta": RatMatrix.from_rows([[b], [0]]),
        "zeta": RatMatrix.from_rows([[0], [1]]),
    }
    G = {
        "xi": RatMatrix.from_rows([[0, a]]),
        "eta": RatMatrix.from_rows([[0, b]]),
        "zeta": RatMatrix.from_rows([[-1, 0]]),
    }
    return QuiverRep((1, 2, 1), F, G, tau)


def rep_direct_sum(r1: QuiverRep, r2: QuiverRep) -> QuiverRep:
    if r1.tau != r2.tau:
        raise ValueError("tau mismatch")
    dim = tuple(a + b for a, b in zip(r1.dim, r2.dim))
    F = {a: RatMatrix.block_diag([r1.F[a], r2.F[a]]) for a in ARROWS}
    G = {a: RatMatrix.block_diag([r1.G[a], r2.G[a]]) for a in ARROWS}
    return QuiverRep(dim, F, G, r1.tau)


def conjugate_rep(rep: QuiverRep, g1: RatMatrix, g2: RatMatrix, g3: RatMatrix) -> QuiverRep:
    """Change of basis (g1, g2, g3) at the three vertices; a singular g raises."""
    g1i, g2i, _ = inverse(g1), inverse(g2), inverse(g3)  # g3's inverse is not used, only its check
    F = {a: g2 @ rep.F[a] @ g1i for a in ARROWS}
    G = {a: g3 @ rep.G[a] @ g2i for a in ARROWS}
    return QuiverRep(rep.dim, F, G, rep.tau)


# ---------------------------------------------------------------------------
# subrepresentations and stability


def _maps(arrows: dict[str, RatMatrix]) -> list[RatMatrix]:
    return [arrows[a] for a in ARROWS]


def generated_subrep(
    rep: QuiverRep, u1: Subspace, u2: Subspace, u3: Subspace
) -> tuple[DimVector, tuple[Subspace, Subspace, Subspace]]:
    """Smallest subrepresentation containing the given seed subspaces.

    Vertex 1 has no incoming arrows, so the closure is one downward sweep:
    push F-images of U1 into U2, then G-images of the enlarged U2 into U3.
    """
    r1, r2, r3 = rep.dim
    if (u1.ambient, u2.ambient, u3.ambient) != (r1, r2, r3):
        raise ValueError("seed subspaces do not match the dimension vector")
    s2 = u2.sum(u1.image_under(*_maps(rep.F)))
    s3 = u3.sum(s2.image_under(*_maps(rep.G)))
    return (u1.dim, s2.dim, s3.dim), (u1, s2, s3)


StabilityWitness = namedtuple("StabilityWitness", "dim slopes subspaces")


def _extend_to_dim(base: Subspace, inside: Subspace, target: int) -> Subspace:
    """Grow base to the target dimension using vectors of `inside` first.

    The basis vectors of `inside` are tried in order, each through its reduced
    integer echelon row (a nonzero multiple of it), on one copy of base.
    """
    out, rows = base.copy(), inside.rows
    for c in inside.reduce():
        if out.dim >= target:
            break
        out._insert(rows[c])
    if out.dim < target:
        raise ValueError("cannot extend to requested dimension")
    return out


def _lex_slopes(rep: QuiverRep, theta: Polarization, tiebreak: Polarization | None):
    """(key, slopes) of dims, theta then tiebreak, each of which must pair to zero with rep.dim.
    Callers compare keys: integer slope tuples, each polarization scaled by the lcm of its
    denominators, so ordered (and checked on rep.dim) as the slopes are.  ``slopes`` builds Fractions."""
    thetas = (theta,) if tiebreak is None else (theta, tiebreak)
    lcms = [lcm(*(x.denominator for x in t)) for t in thetas]
    scaled = [[int(x * m) for x in t] for t, m in zip(thetas, lcms)]
    key = lambda dims: tuple(a * dims[0] + b * dims[1] + c * dims[2] for a, b, c in scaled)
    for name, total in zip(("theta0", "theta1"), key(rep.dim)):
        if total:
            raise ValueError(f"total slope of {name} must vanish on the dimension vector")
    return key, lambda dims: tuple(slope(t, dims) for t in thetas)


def decide_stability_121(
    rep: QuiverRep, theta: Polarization, theta_tiebreak: Polarization | None = None
) -> tuple[str, StabilityWitness | None]:
    """Exact stability decision wherever r1, r3 <= 1 (the name dates from (1,2,1)).

    There U1 is 0 or V1, U3 is 0 or V3, and U2 is any subspace between low
    (im F when U1 = V1, else 0) and high (the joint kernel K of the G maps
    when U3 = 0 < r3, else V2).  The least (slope tuple, dimension vector)
    over these classes (u1, d2, u3), proper and nonzero, decides; slope
    tuples compare lexicographically, theta first, and every polarization
    must pair to zero with rep.dim.  Returns ("stable", None), ("semistable",
    witness with zero slopes) or ("unstable", destabilizing witness); a rep
    with no proper nonzero class is stable.
    """
    r1, r2, r3 = rep.dim
    if r1 > 1 or r3 > 1:
        raise ValueError(f"exact decision needs r1, r3 <= 1; got {rep.dim}")
    key_of, slopes_of = _lex_slopes(rep, theta, theta_tiebreak)
    imf, ker, v2 = column_space(*_maps(rep.F)), kernel_space(*_maps(rep.G)), Subspace.full(r2)
    least = None
    for u1 in range(r1 + 1):
        for u3 in range(r3 + 1):
            low, high = (imf if u1 else Subspace(r2)), (ker if u3 < r3 else v2)
            if not high.contains_subspace(low):
                continue
            for d2 in range(low.dim, high.dim + 1):
                dims = (u1, d2, u3)
                if dims == (0, 0, 0) or dims == rep.dim:
                    continue
                key = (key_of(dims), dims)
                if least is None or key < least[0]:
                    least = (key, low, high)
    if least is None:
        return "stable", None
    (least_key, dims), low, high = least
    zero = key_of((0, 0, 0))
    if least_key > zero:
        return "stable", None
    u1, d2, u3 = dims
    sub1 = Subspace.full(r1) if u1 else Subspace(r1)
    sub3 = Subspace.full(r3) if u3 else Subspace(r3)
    closure_dims, spaces = generated_subrep(rep, sub1, _extend_to_dim(low, high, d2), sub3)
    if closure_dims != dims:
        raise AssertionError(f"witness construction drifted: {closure_dims} != {dims}")
    return ("unstable" if least_key < zero else "semistable"), StabilityWitness(dims, slopes_of(dims), spaces)


def _distinct(spaces: list[Subspace]) -> list[Subspace]:
    """The first space of each span, in order, keyed once each: by dimension if zero or full, else by ``_key``."""
    first = {}
    for s in spaces:
        first.setdefault(s.dim if s.dim in (0, s.ambient) else s._key(), s)
    return list(first.values())


def find_destabilizer(
    rep: QuiverRep,
    theta: Polarization,
    theta_tiebreak: Polarization | None = None,
    *,
    budget: int,
    seed: int = 0,
) -> StabilityWitness | None:
    """One-sided destabilizer search over generated subrepresentations.

    Seeds the closure with kernels, images, their meets and joins, and
    `budget` random vectors per vertex; a returned witness has slope tuple
    lexicographically below zero.  None means only that the search failed;
    it certifies semistability only where the exact decision applies.

    The witness is the first closure in loop order with a new dimension vector below
    zero, and four rules skip only closures whose vectors all came earlier: where
    S2 = U2 + F(U1) is 0 or V2, G(S2) is 0 or the sum of im G_b, so only the first pair
    with its (dim U1, dim S2) runs; where G(S2) = V3, every S3 is V3, so only the first
    U3 runs; ``_distinct`` keys zero and full spans by dimension; F's joint kernel, which
    is 0 (a copy of the first U1) if one kernel is, is built only when none is.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    key_of, slopes_of = _lex_slopes(rep, theta, theta_tiebreak)
    zero = key_of((0, 0, 0))
    r1, r2, r3 = rep.dim
    F, G = _maps(rep.F), _maps(rep.G)

    cands1 = [Subspace(r1), Subspace.full(r1), *map(kernel_space, F)]
    if all(k.dim for k in cands1[2:]):
        cands1.append(kernel_space(*F))

    cands2 = [Subspace(r2), Subspace.full(r2)]
    for a in ARROWS:
        cands2.append(kernel_space(rep.G[a]))
        cands2.append(column_space(rep.F[a]))
    cands2.append(column_space(*F))
    cands2.append(kernel_space(*G))
    # the meets and joins of pairs, in order, while fewer than budget (at least one pair)
    pairwise = []
    for a, b in combinations(cands2[2:], 2):
        pairwise += (a.intersect(b), a.sum(b))
        if len(pairwise) >= budget:
            break
    cands2.extend(pairwise)

    cands3 = [Subspace(r3), Subspace.full(r3), *map(column_space, G)]

    rng = random.Random(seed)
    for _ in range(budget):
        for cands, n in ((cands1, r1), (cands2, r2), (cands3, r3)):
            if n:
                cands.append(Subspace(n, [[rng.randint(-5, 5) for _ in range(n)]]))

    cands1, cands2, cands3 = map(_distinct, (cands1, cands2, cands3))
    seen_dims, ends_run = set(), set()
    # generated_subrep(rep, u1, u2, u3) with its images hoisted: the F-image
    # depends only on u1, and s2 and its G-image only on (u1, u2)
    for u1 in cands1:
        f1 = u1.image_under(*F)
        for u2 in cands2:
            s2 = u2.sum(f1)
            if s2.dim in (0, r2):
                if (u1.dim, s2.dim) in ends_run:
                    continue
                ends_run.add((u1.dim, s2.dim))
            g2 = s2.image_under(*G)
            for u3 in cands3 if g2.dim < r3 else cands3[:1]:
                s3 = u3.sum(g2)
                dims = (u1.dim, s2.dim, s3.dim)
                if dims == (0, 0, 0) or dims == rep.dim or dims in seen_dims:
                    continue
                seen_dims.add(dims)
                if key_of(dims) < zero:
                    return StabilityWitness(dims, slopes_of(dims), (u1, s2, s3))
    return None


def sample_relation_rep(dim: DimVector, tau, seed: int = 0) -> QuiverRep | None:
    """Random representation satisfying the relations: draw F, solve for G.

    The six identities are linear in G once F is fixed, one ``matrix_system``
    equation each in the stacked unknown X = (G_xi; G_eta; G_zeta), where
    G_g = E_g X for E_g the g-th block row of the identity; a random kernel
    element gives G.  Returns None when r1 r3 = 0, where there are no relations
    and G is unconstrained, and when the only solution, G = 0, is rejected.
    """
    r1, r2, r3 = dim
    tau = rat(tau)
    rng = random.Random(seed)
    F = {
        a: RatMatrix.from_rows([[rng.randint(-3, 3) for _ in range(r1)] for _ in range(r2)])
        for a in ARROWS
    }
    eye = [[int(i == j) for j in range(3 * r3)] for i in range(3 * r3)]
    E = {a: RatMatrix.from_rows(eye[g * r3 : (g + 1) * r3]) for g, a in enumerate(ARROWS)}
    system = matrix_system([[(c * tau**p, E[g], F[f]) for g, f, c, p in terms] for _, terms in RELATIONS])
    if not r1 * r3 or not (kb := kernel_basis(system)).rows:
        return None
    coeffs = [rng.randint(-3, 3) for _ in range(kb.rows)]
    G = dict(zip(ARROWS, (RatMatrix(1, kb.rows, coeffs) @ kb).blocks(r3, r2)))
    return QuiverRep(dim, F, G, tau)
