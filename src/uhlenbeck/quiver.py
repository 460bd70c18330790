"""Representations of the three-vertex quiver attached to the dual algebra.

A representation is a pair of linear maps per dual generator,

    F_a : V1 -> V2,   G_a : V2 -> V3,   a in {xi, eta, zeta},

subject to the condition that the composite V1 -> V3 factors through the
degree-two component of the dual algebra.  Concretely this means one
identity per basis element of the degree-two multiplication kernel:

    G_xi F_xi = 0                      G_eta F_eta = 0
    G_eta F_xi + G_xi F_eta = 0        G_zeta F_xi + G_xi F_zeta = 0
    G_zeta F_eta + G_eta F_zeta = 0    G_zeta F_zeta + tau (G_eta F_xi - G_xi F_eta) = 0

The module also carries numeric sheaf invariants (rank, degree, second Chern
class), the standard dimension vector and polarization formulas, and exact
slope-stability decision procedures: complete at dimension (1,2,1), witness
search elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import random

from .core import RatMatrix, RatPoly, Subspace, Vector, column_space, inverse, kernel_basis, kernel_space, rat

ARROWS = ("xi", "eta", "zeta")

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


@dataclass(frozen=True)
class Polarization:
    theta: tuple[Fraction, Fraction, Fraction]

    def __init__(self, t1, t2, t3):
        object.__setattr__(self, "theta", (rat(t1), rat(t2), rat(t3)))

    def __iter__(self):
        return iter(self.theta)

    def __str__(self):
        return "(" + ", ".join(str(t) for t in self.theta) + ")"


def slope(theta: Polarization, dim: DimVector) -> Fraction:
    """The pairing theta_1 d_1 + theta_2 d_2 + theta_3 d_3."""
    return sum((t * d for t, d in zip(theta, dim)), Fraction(0))


@dataclass(frozen=True)
class QuiverRep:
    """Six matrices (F_a: r2 x r1, G_a: r3 x r2) and the parameter tau."""

    dim: DimVector
    F: dict[str, RatMatrix]
    G: dict[str, RatMatrix]
    tau: Fraction

    def __post_init__(self):
        r1, r2, r3 = self.dim
        object.__setattr__(self, "tau", rat(self.tau))
        for a in ARROWS:
            if a not in self.F or a not in self.G:
                raise ValueError(f"missing arrow matrix for {a}")
            if (self.F[a].rows, self.F[a].cols) != (r2, r1):
                raise ValueError(f"F_{a} must be {r2}x{r1}")
            if (self.G[a].rows, self.G[a].cols) != (r3, r2):
                raise ValueError(f"G_{a} must be {r3}x{r2}")


@dataclass(frozen=True)
class RelationReport:
    ok: bool
    failures: tuple[str, ...]


def check_relations(rep: QuiverRep) -> RelationReport:
    """Exact check of the six factorization identities."""
    r1, _, r3 = rep.dim
    failures = []
    for name, terms in RELATIONS:
        residual = RatMatrix.zero(r3, r1)
        for g, f, c, p in terms:
            residual = residual + (rep.G[g] @ rep.F[f]).scale(c * rep.tau**p)
        if not residual.is_zero:
            failures.append(name)
    return RelationReport(not failures, tuple(failures))


def relation_tensor_residual(rep: QuiverRep, tensor: Vector) -> RatMatrix:
    """Evaluate sum c_{ab} G_b F_a for a coordinate vector over ordered pairs.

    Pair order matches ncalgebra.DUAL_PAIR_ORDER: (a, b) with a the first
    arrow applied.  Used to cross-check the hard-coded identities against the
    computed multiplication kernel.
    """
    r1, _, r3 = rep.dim
    out = RatMatrix.zero(r3, r1)
    idx = 0
    for a in ARROWS:
        for b in ARROWS:
            c = tensor[idx]
            idx += 1
            if c != 0:
                out = out + (rep.G[b] @ rep.F[a]).scale(c)
    return out


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


@dataclass(frozen=True)
class SheafNumerics:
    """(rank, degree, second Chern class) of a sheaf on the noncommutative plane."""

    r: int
    d: int
    n: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("rank must be nonnegative")

    @property
    def ch2(self) -> Fraction:
        return Fraction(self.d * self.d, 2) - self.n

    def direct_sum(self, other: "SheafNumerics") -> "SheafNumerics":
        # Whitney sum: c2 picks up the product of first Chern classes
        return SheafNumerics(self.r + other.r, self.d + other.d, self.n + other.n + self.d * other.d)


def artin_numerics(length: int) -> SheafNumerics:
    """Numerics of a finite-length (Artin) sheaf: rank 0, degree 0, c2 = -length."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return SheafNumerics(0, 0, -length)


def line_bundle_numerics(i: int) -> SheafNumerics:
    """Numerics of the line bundle O(i): rank 1, degree i, c2 = 0."""
    return SheafNumerics(1, i, 0)


def hilbert_poly(num: SheafNumerics) -> RatPoly:
    """r (t+1)(t+2)/2 + d (2t+3)/2 + d^2/2 - c2, as a polynomial in t."""
    t = RatPoly.variable("t")
    half = Fraction(1, 2)
    return (
        (t + 1) * (t + 2) * Fraction(num.r, 2)
        + (t * 2 + 3) * (num.d * half)
        + RatPoly.constant(num.ch2)
    )


def slopes_MG(num: SheafNumerics) -> tuple[Fraction, RatPoly]:
    """Mumford slope d/r and Gieseker slope h(t)/r; requires positive rank."""
    if num.r <= 0:
        raise ValueError("slopes require positive rank")
    mu_m = Fraction(num.d, num.r)
    h = hilbert_poly(num)
    mu_g = RatPoly((c / num.r for c in h.coeffs), "t")
    return mu_m, mu_g


def poly_eventually_positive(p: RatPoly) -> bool:
    """Whether p(t) > 0 for all large t."""
    return (not p.is_zero) and p.leading > 0


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
    """Change of basis (g1, g2, g3) at the three vertices."""
    g1i, g2i = inverse(g1), inverse(g2)
    F = {a: g2 @ rep.F[a] @ g1i for a in ARROWS}
    G = {a: g3 @ rep.G[a] @ g2i for a in ARROWS}
    return QuiverRep(rep.dim, F, G, rep.tau)


# ---------------------------------------------------------------------------
# subrepresentations and stability


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
    s1 = u1
    s2 = u2
    for a in ARROWS:
        s2 = s2.sum(s1.image_under(rep.F[a]))
    s3 = u3
    for a in ARROWS:
        s3 = s3.sum(s2.image_under(rep.G[a]))
    return (s1.dim, s2.dim, s3.dim), (s1, s2, s3)


@dataclass(frozen=True)
class StabilityWitness:
    dim: DimVector
    slopes: tuple[Fraction, ...]
    subspaces: tuple[Subspace, Subspace, Subspace]


def _f_image(rep: QuiverRep) -> Subspace:
    spans = [column_space(rep.F[a]) for a in ARROWS]
    out = spans[0]
    for s in spans[1:]:
        out = out.sum(s)
    return out


def _g_joint_kernel(rep: QuiverRep) -> Subspace:
    out = kernel_space(rep.G["xi"])
    for a in ("eta", "zeta"):
        out = out.intersect(kernel_space(rep.G[a]))
    return out


def _extend_to_dim(base: Subspace, inside: Subspace, target: int) -> Subspace:
    """Grow base to the target dimension using vectors of `inside` first."""
    out = base
    for v in inside.basis:
        if out.dim >= target:
            return out
        if not out.contains(v):
            out = Subspace(out.ambient, list(out.basis) + [v])
    if out.dim < target:
        raise ValueError("cannot extend to requested dimension")
    return out


def _subrep_classes_121(rep: QuiverRep) -> list[tuple[DimVector, tuple[Subspace, Subspace, Subspace]]]:
    """All realizable proper nonzero subrepresentation dimension classes.

    At dimension (1,2,1) the constraints are: U2 must contain the image of F
    when U1 is everything, and U3 may be zero only when G kills U2, i.e. when
    U2 lies inside the joint kernel K of the G maps.  Both conditions reduce
    to comparisons against the two distinguished subspaces im F and K, so the
    enumeration below is exhaustive.
    """
    imf = _f_image(rep)
    ker = _g_joint_kernel(rep)
    f = imf.dim
    kdim = ker.dim
    imf_in_ker = ker.contains_subspace(imf)
    v2_full = Subspace.full(2)

    out = []
    for u1 in (0, 1):
        for u2 in range(0, 3):
            if u1 == 1 and u2 < f:
                continue
            for u3 in (0, 1):
                dims = (u1, u2, u3)
                if dims == (0, 0, 0) or dims == (1, 2, 1):
                    continue
                base = imf if u1 == 1 else Subspace.zero(2)
                if u3 == 1:
                    sub2 = _extend_to_dim(base, v2_full, u2)
                else:
                    realizable = (u2 <= kdim) if u1 == 0 else (imf_in_ker and f <= u2 <= kdim)
                    if not realizable:
                        continue
                    sub2 = _extend_to_dim(base, ker, u2)
                sub1 = Subspace.full(1) if u1 else Subspace.zero(1)
                sub3 = Subspace.full(1) if u3 else Subspace.zero(1)
                closure_dims, spaces = generated_subrep(rep, sub1, sub2, sub3)
                if closure_dims != dims:
                    raise AssertionError(f"witness construction drifted: {closure_dims} != {dims}")
                out.append((dims, spaces))
    return out


def decide_stability_121(rep: QuiverRep, theta: Polarization) -> tuple[str, StabilityWitness | None]:
    """Exact stability decision at dimension vector (1,2,1).

    Returns ("stable", None), ("semistable", witness with slope zero) or
    ("unstable", destabilizing witness).  The polarization must pair to zero
    against (1,2,1).
    """
    if rep.dim != (1, 2, 1):
        raise ValueError(f"exact decision only at dimension (1,2,1); got {rep.dim}")
    if slope(theta, rep.dim) != 0:
        raise ValueError("total slope must vanish")
    worst: tuple[Fraction, DimVector, tuple] | None = None
    for dims, spaces in _subrep_classes_121(rep):
        s = slope(theta, dims)
        if worst is None or s < worst[0]:
            worst = (s, dims, spaces)
    assert worst is not None
    s, dims, spaces = worst
    witness = StabilityWitness(dims, (s,), spaces)
    if s < 0:
        return "unstable", witness
    if s == 0:
        return "semistable", witness
    return "stable", None


def _lex_slopes(thetas: tuple[Polarization, ...], dims: DimVector) -> tuple[Fraction, ...]:
    return tuple(slope(t, dims) for t in thetas)


def find_destabilizer(
    rep: QuiverRep,
    theta: Polarization,
    theta_tiebreak: Polarization | None = None,
    budget: int = 48,
    seed: int = 0,
) -> StabilityWitness | None:
    """One-sided destabilizer search over generated subrepresentations.

    Seeds the closure with kernels, images, their meets and joins, and
    `budget` random vectors per vertex; a returned witness has slope tuple
    lexicographically below zero.  None means only that the search failed;
    it certifies semistability only where the exact decision applies.
    """
    if slope(theta, rep.dim) != 0:
        raise ValueError("total slope must vanish")
    thetas = (theta,) if theta_tiebreak is None else (theta, theta_tiebreak)
    zero_tuple = tuple(Fraction(0) for _ in thetas)
    r1, r2, r3 = rep.dim

    cands1 = [Subspace.zero(r1), Subspace.full(r1)]
    for a in ARROWS:
        cands1.append(kernel_space(rep.F[a]))
    k12 = cands1[2].intersect(cands1[3]).intersect(cands1[4])
    cands1.append(k12)

    cands2 = [Subspace.zero(r2), Subspace.full(r2)]
    for a in ARROWS:
        cands2.append(kernel_space(rep.G[a]))
        cands2.append(column_space(rep.F[a]))
    cands2.append(_f_image(rep))
    cands2.append(_g_joint_kernel(rep))
    pairwise = []
    for i in range(2, len(cands2)):
        for j in range(i + 1, len(cands2)):
            pairwise.append(cands2[i].intersect(cands2[j]))
            pairwise.append(cands2[i].sum(cands2[j]))
            if len(pairwise) >= budget:
                break
        if len(pairwise) >= budget:
            break
    cands2.extend(pairwise)

    cands3 = [Subspace.zero(r3), Subspace.full(r3)]
    for a in ARROWS:
        cands3.append(column_space(rep.G[a]))

    rng = random.Random(seed)
    for _ in range(budget):
        for cands, n in ((cands1, r1), (cands2, r2), (cands3, r3)):
            if n:
                cands.append(Subspace(n, [[rng.randint(-5, 5) for _ in range(n)]]))

    def dedup(spaces):
        seen = set()
        out = []
        for s in spaces:
            key = (s.ambient, s.basis)
            if key not in seen:
                seen.add(key)
                out.append(s)
        return out

    cands1, cands2, cands3 = dedup(cands1), dedup(cands2), dedup(cands3)
    seen_dims = set()
    for u1 in cands1:
        for u2 in cands2:
            for u3 in cands3:
                dims, spaces = generated_subrep(rep, u1, u2, u3)
                if dims == (0, 0, 0) or dims == rep.dim or dims in seen_dims:
                    continue
                seen_dims.add(dims)
                slopes = _lex_slopes(thetas, dims)
                if slopes < zero_tuple:
                    return StabilityWitness(dims, slopes, spaces)
    return None


def sample_relation_rep(dim: DimVector, tau, seed: int = 0, value_range: int = 3) -> QuiverRep | None:
    """Random representation satisfying the relations: draw F, solve for G.

    The six identities are linear in the G-block once F is fixed, so a random
    kernel element gives a valid representation.  Returns None when the only
    solution is G = 0 and the zero solution is rejected by the caller.
    """
    r1, r2, r3 = dim
    tau = rat(tau)
    rng = random.Random(seed)
    F = {
        a: RatMatrix.from_rows([[rng.randint(-value_range, value_range) for _ in range(r1)] for _ in range(r2)])
        for a in ARROWS
    }
    # unknowns: entries of G_xi, G_eta, G_zeta, flattened in that order
    nunk = 3 * r3 * r2
    rows: list[list[Fraction]] = []

    def g_entry_index(arrow_idx: int, i: int, j: int) -> int:
        return arrow_idx * r3 * r2 + i * r2 + j

    # entry (i, j) of an identity is sum_t c tau^p G_g[i, t] F_f[t, j]
    for _, terms in RELATIONS:
        for i in range(r3):
            for j in range(r1):
                row = [Fraction(0)] * nunk
                for g_arrow, f_arrow, c, p in terms:
                    gi, coeff = ARROWS.index(g_arrow), c * tau**p
                    for t in range(r2):
                        row[g_entry_index(gi, i, t)] += coeff * F[f_arrow].entry(t, j)
                rows.append(row)
    kb = kernel_basis(RatMatrix.from_rows(rows)) if rows else []
    if not kb:
        return None
    coeffs = [rng.randint(-value_range, value_range) for _ in kb]
    flat = [sum((c * v[i] for c, v in zip(coeffs, kb)), Fraction(0)) for i in range(nunk)]
    G = {}
    for ai, a in enumerate(ARROWS):
        ents = flat[ai * r3 * r2 : (ai + 1) * r3 * r2]
        G[a] = RatMatrix(r3, r2, tuple(ents))
    return QuiverRep(dim, F, G, tau)
