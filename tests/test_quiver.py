import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import kernel_vectors, rand_invertible, rand_matrix
from test_core import PRODUCT_KINDS, _product_input, _random_entry, assert_pinned
from uhlenbeck import quiver
from uhlenbeck.core import RatMatrix, Subspace, column_space, kernel_space
from uhlenbeck.ncalgebra import dual_relation_kernel
from uhlenbeck.quiver import (
    ARROWS,
    Polarization,
    QuiverRep,
    StabilityWitness,
    alpha,
    check_relations,
    conjugate_rep,
    decide_stability_121,
    find_destabilizer,
    generated_subrep,
    monad_of_point,
    polarizations,
    relation_tensor_residual,
    rep_direct_sum,
    sample_relation_rep,
    slope,
)
from uhlenbeck.serialize import rep_from_json

ONE = Fraction(1)


def zero_rep(dim, tau=ONE) -> QuiverRep:
    r1, r2, r3 = dim
    F = {a: RatMatrix.zero(r2, r1) for a in ("xi", "eta", "zeta")}
    G = {a: RatMatrix.zero(r3, r2) for a in ("xi", "eta", "zeta")}
    return QuiverRep(dim, F, G, tau)


# ---------------------------------------------------------------------------
# dimension vectors and polarizations


def test_alpha_rank_one():
    for n in range(0, 6):
        assert alpha(1, 0, n) == (n, 2 * n + 1, n)


def test_alpha_artin_bookkeeping():
    for n in range(0, 6):
        assert alpha(0, 0, n) == (n, 2 * n, n)


def test_alpha_specific():
    assert alpha(2, 1, 1) == (1, 3, 0)


def test_alpha_preconditions():
    with pytest.raises(ValueError):
        alpha(1, 1, 5)
    with pytest.raises(ValueError):
        alpha(3, 2, 2)  # n < d(d+1)/2


def test_polarizations_rank_one():
    for n in range(1, 5):
        theta0, theta1 = polarizations(1, 0, n)
        assert theta0.theta == (Fraction(-1), Fraction(0), Fraction(1))
        assert theta1.theta == (Fraction(2 * n + 1), Fraction(-2 * n), Fraction(2 * n + 1))


def test_pairings_vanish_on_grid():
    for r in range(1, 5):
        for d in range(0, r):
            for n in range(d * (d + 1) // 2, 9):
                a = alpha(r, d, n)
                theta0, theta1 = polarizations(r, d, n)
                assert slope(theta0, a) == 0
                assert slope(theta1, a) == 0


def test_theta1_on_point_dimension():
    for (r, d, n) in [(2, 1, 3), (3, 1, 4), (4, 2, 6)]:
        _, theta1 = polarizations(r, d, n)
        assert slope(theta1, (1, 2, 1)) == 2 * r


def test_slope_examples():
    theta = Polarization(-1, 0, 1)
    assert slope(theta, (0, 0, 1)) == 1
    assert slope(theta, (0, 0, 0)) == 0
    for n in range(4):
        assert slope(theta, (n, 2 * n, n)) == 0


# ---------------------------------------------------------------------------
# relations


def test_zero_rep_passes():
    assert check_relations(zero_rep((2, 3, 2))).ok


def test_monad_passes():
    rep = monad_of_point((Fraction(2), Fraction(-1)), Fraction(3, 7))
    assert check_relations(rep).ok
    assert rep.dim == (1, 2, 1)


def test_identity_rep_fails_first_identity():
    one = RatMatrix.identity(1)
    zero = RatMatrix.zero(1)
    F = {"xi": one, "eta": zero, "zeta": zero}
    G = {"xi": one, "eta": zero, "zeta": zero}
    report = check_relations(QuiverRep((1, 1, 1), F, G, ONE))
    assert not report.ok
    assert "xi.xi" in report.failures


def test_relations_equal_kernel_membership():
    # passing check_relations must coincide with vanishing of G_b F_a summed
    # against every basis vector of the computed multiplication kernel
    rng = random.Random(401)
    for trial in range(12):
        tau = Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5]))
        dim = (rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 2))
        if trial % 2 == 0:
            rep = sample_relation_rep(dim, tau, seed=rng.randint(0, 10**6))
            if rep is None:
                continue
        else:
            F = {a: rand_matrix(rng, dim[1], dim[0], -2, 2) for a in ("xi", "eta", "zeta")}
            G = {a: rand_matrix(rng, dim[2], dim[1], -2, 2) for a in ("xi", "eta", "zeta")}
            rep = QuiverRep(dim, F, G, tau)
        kernel = dual_relation_kernel(tau)
        residuals_vanish = all(relation_tensor_residual(rep, kv).is_zero for kv in kernel)
        assert residuals_vanish == check_relations(rep).ok


def test_relations_conjugation_invariant():
    rng = random.Random(402)
    for _ in range(8):
        dim = (2, 4, 2)
        h1 = (Fraction(rng.randint(1, 4)), Fraction(rng.randint(-4, -1)))
        h2 = (Fraction(rng.randint(-4, -1)), Fraction(rng.randint(1, 4)))
        rep = rep_direct_sum(monad_of_point(h1, Fraction(2)), monad_of_point(h2, Fraction(2)))
        bad = QuiverRep(
            dim,
            {a: rand_matrix(rng, 4, 2, -2, 2) for a in ("xi", "eta", "zeta")},
            {a: rand_matrix(rng, 2, 4, -2, 2) for a in ("xi", "eta", "zeta")},
            Fraction(2),
        )
        gs = tuple(rand_invertible(rng, n) for n in dim)
        for candidate in (rep, bad):
            assert check_relations(conjugate_rep(candidate, *gs)).ok == check_relations(candidate).ok


def test_monad_rejects_degenerate_input():
    with pytest.raises(ValueError):
        monad_of_point((Fraction(0), Fraction(0)), ONE)
    with pytest.raises(ValueError):
        monad_of_point((ONE, ONE), Fraction(0))


def test_monad_scalar_rescaling_equivalence():
    # h and c*h define the same point; the reps differ by a vertex change of basis
    h = (Fraction(2), Fraction(5))
    c = Fraction(3, 4)
    rep = monad_of_point(h, ONE)
    scaled = monad_of_point((c * h[0], c * h[1]), ONE)
    g1 = RatMatrix.identity(1)
    g2 = RatMatrix.diagonal([c, 1])
    g3 = RatMatrix.diagonal([c])
    transformed = conjugate_rep(rep, g1, g2, g3)
    assert transformed.F == scaled.F and transformed.G == scaled.G


def test_conjugate_rep_rejects_a_singular_change_of_basis():
    # a singular g3 once sent every G to 0, and the (1,2,1) decision then
    # called the stable point unstable
    rep, theta = monad_of_point((1, 2), 3), Polarization(-1, 0, 1)
    one, two = RatMatrix.identity(1), RatMatrix.identity(2)
    for gs in ((RatMatrix.zero(1), two, one), (one, RatMatrix.from_rows([[1, 2], [2, 4]]), one), (one, two, RatMatrix.zero(1))):
        with pytest.raises(ValueError, match="^matrix is singular$"):
            conjugate_rep(rep, *gs)
    moved = conjugate_rep(rep, RatMatrix.diagonal([3]), RatMatrix.from_rows([[1, 2], [0, 1]]), RatMatrix.diagonal([-2]))
    assert decide_stability_121(moved, theta) == decide_stability_121(rep, theta) == ("stable", None)


def test_monad_torus_equivariance():
    # diag(s, 1/s) on the point matches rescaling the arrows (xi, eta) by (s, 1/s)
    h = (Fraction(1), Fraction(2))
    s = Fraction(3)
    rep = monad_of_point(h, ONE)
    moved = monad_of_point((s * h[0], h[1] / s), ONE)
    assert moved.F["xi"] == rep.F["xi"].scale(s)
    assert moved.F["eta"] == rep.F["eta"].scale(1 / s)
    assert moved.F["zeta"] == rep.F["zeta"]
    assert moved.G["xi"] == rep.G["xi"].scale(s)
    assert moved.G["eta"] == rep.G["eta"].scale(1 / s)
    assert moved.G["zeta"] == rep.G["zeta"]


# ---------------------------------------------------------------------------
# subrepresentation closure


def test_generated_subrep_zero_seeds():
    rep = monad_of_point((ONE, ONE), ONE)
    dims, _ = generated_subrep(rep, Subspace(1), Subspace(2), Subspace(1))
    assert dims == (0, 0, 0)


def test_generated_subrep_full_top():
    rep = monad_of_point((ONE, Fraction(2)), ONE)
    dims, _ = generated_subrep(rep, Subspace.full(1), Subspace(2), Subspace(1))
    assert dims == (1, 2, 1)


def test_generated_subrep_bottom_only():
    rep = monad_of_point((ONE, Fraction(2)), ONE)
    dims, _ = generated_subrep(rep, Subspace(1), Subspace(2), Subspace.full(1))
    assert dims == (0, 0, 1)


# ---------------------------------------------------------------------------
# stability


def test_monad_stable_for_theta0_grid():
    for r in range(1, 4):
        for d in range(0, r):
            theta0, _ = polarizations(r, d, max(1, d * (d + 1) // 2))
            rep = monad_of_point((Fraction(1), Fraction(-2)), ONE)
            verdict, witness = decide_stability_121(rep, theta0)
            assert verdict == "stable" and witness is None


def test_decide_preconditions():
    rep1 = monad_of_point((ONE, ONE), ONE)
    doubled = rep_direct_sum(rep1, monad_of_point((ONE, Fraction(2)), ONE))
    theta0, _ = polarizations(1, 0, 1)
    with pytest.raises(ValueError):
        decide_stability_121(doubled, theta0)
    with pytest.raises(ValueError):
        decide_stability_121(rep1, Polarization(1, 1, 1))


def test_g_zero_rep_unstable_by_exhaustion():
    # F as in a point monad, G identically zero: the (1,2,0) closure of the
    # full first vertex destabilizes theta0 = (-1, 0, 1) at slope -1
    rep = monad_of_point((ONE, Fraction(2)), ONE)
    gzero = QuiverRep(rep.dim, rep.F, {a: RatMatrix.zero(1, 2) for a in ("xi", "eta", "zeta")}, ONE)
    verdict, witness = decide_stability_121(gzero, Polarization(-1, 0, 1))
    assert verdict == "unstable"
    assert witness.dim == (1, 2, 0)
    assert witness.slopes[0] == -1


def test_negative_third_weight_destabilizes_monad():
    rep = monad_of_point((ONE, ONE), ONE)
    theta = Polarization(1, 0, -1)
    verdict, witness = decide_stability_121(rep, theta)
    assert verdict == "unstable" and witness.dim == (0, 0, 1)
    found = find_destabilizer(rep, theta, budget=8, seed=0)
    assert found is not None and found.dim == (0, 0, 1)


def test_find_destabilizer_monad_theta0_none():
    rep = monad_of_point((Fraction(3), Fraction(-1)), ONE)
    theta0, _ = polarizations(1, 0, 2)
    assert find_destabilizer(rep, theta0, budget=16, seed=1) is None


def test_find_destabilizer_zero_rep():
    rep = zero_rep((1, 2, 1))
    for r, d in [(1, 0), (2, 1), (3, 1)]:
        theta0, _ = polarizations(r, d, max(1, d * (d + 1) // 2))
        witness = find_destabilizer(rep, theta0, budget=8, seed=0)
        assert witness is not None
        assert witness.dim == (1, 0, 0)
        assert witness.slopes[0] == -(r + d)


def test_decide_agrees_with_found_witnesses():
    rng = random.Random(403)
    for _ in range(25):
        rep = sample_relation_rep((1, 2, 1), Fraction(1), seed=rng.randint(0, 10**6))
        if rep is None:
            continue
        t1, t2 = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        theta = Polarization(t1, t2, -t1 - 2 * t2)
        witness = find_destabilizer(rep, theta, budget=12, seed=7)
        verdict, _ = decide_stability_121(rep, theta)
        if witness is not None:
            assert verdict == "unstable"
        if verdict == "stable":
            assert witness is None


def brute_force_min_slope(rep, theta):
    """Oracle for the (1,2,1) decision: sweep closures over a dense family of
    rational lines plus the distinguished subspaces (images of the F maps,
    kernels of the G maps and their meets), and take the minimal slope over
    proper nonzero subrepresentation classes.  Any subrepresentation's middle
    space is a sum of such seeds, so the sweep reaches every realizable
    dimension class."""
    from uhlenbeck.core import column_space, kernel_space

    lines2 = [Subspace(2, [(a, b)]) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    distinguished = [column_space(rep.F[a]) for a in ("xi", "eta", "zeta")]
    distinguished.append(distinguished[0].sum(distinguished[1]).sum(distinguished[2]))
    kernels = [kernel_space(rep.G[a]) for a in ("xi", "eta", "zeta")]
    distinguished.extend(kernels)
    distinguished.append(kernels[0].intersect(kernels[1]).intersect(kernels[2]))
    v2_options = [Subspace(2), Subspace.full(2)] + lines2 + distinguished
    v1_options = [Subspace(1), Subspace.full(1)]
    v3_options = [Subspace(1), Subspace.full(1)]
    best = None
    for u1 in v1_options:
        for u2 in v2_options:
            for u3 in v3_options:
                dims, _ = generated_subrep(rep, u1, u2, u3)
                if dims == (0, 0, 0) or dims == (1, 2, 1):
                    continue
                s = slope(theta, dims)
                if best is None or s < best:
                    best = s
    return best


def test_decide_matches_brute_force_enumeration():
    rng = random.Random(406)
    checked = 0
    while checked < 20:
        rep = sample_relation_rep((1, 2, 1), Fraction(2), seed=rng.randint(0, 10**6))
        if rep is None:
            continue
        checked += 1
        t1, t2 = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        theta = Polarization(t1, t2, -t1 - 2 * t2)
        verdict, witness = decide_stability_121(rep, theta)
        brute = brute_force_min_slope(rep, theta)
        assert brute is not None
        if verdict == "unstable":
            assert witness.slopes[0] == brute < 0
        elif verdict == "semistable":
            assert brute == 0
        else:
            assert brute > 0


def test_lexicographic_tiebreak():
    # theta0-slope 0 everywhere, theta1 negative on a (0,0,1) subrep
    rep = zero_rep((1, 2, 1))
    theta0 = Polarization(0, 0, 0)
    theta1 = Polarization(1, 0, -1)
    witness = find_destabilizer(rep, theta0, theta1, budget=8, seed=0)
    assert witness is not None
    assert witness.slopes[0] == 0 and witness.slopes[1] < 0


# ---------------------------------------------------------------------------
# pinned closure and destabilizer search
#
# Verbatim copies of generated_subrep and find_destabilizer (with their
# helpers) from before the images were built in one elimination each and
# hoisted out of the search loops.  Every witness must come out identical.


def _old_generated_subrep(rep, u1, u2, u3):
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


def _old_f_image(rep):
    spans = [column_space(rep.F[a]) for a in ARROWS]
    out = spans[0]
    for s in spans[1:]:
        out = out.sum(s)
    return out


def _old_g_joint_kernel(rep):
    out = kernel_space(rep.G["xi"])
    for a in ("eta", "zeta"):
        out = out.intersect(kernel_space(rep.G[a]))
    return out


def test_several_map_spaces_are_sums_and_meets_on_sampled_reps():
    rng = random.Random(25)
    reps = 0
    for dim in [(1, 2, 1), (1, 3, 1), (1, 4, 1), (2, 5, 1), (1, 3, 2), (1, 4, 2), (2, 5, 2)]:
        for tau in (ONE, Fraction(3, 7)):
            rep = sample_relation_rep(dim, tau, seed=rng.randint(0, 10**6))
            if rep is None:
                continue
            reps += 1
            F, G = [rep.F[a] for a in ARROWS], [rep.G[a] for a in ARROWS]
            assert column_space(*F) == _old_f_image(rep)
            assert kernel_space(*G) == _old_g_joint_kernel(rep)
            assert column_space(*G) == column_space(G[0]).sum(column_space(G[1])).sum(column_space(G[2]))
            assert kernel_space(*F) == kernel_space(F[0]).intersect(kernel_space(F[1])).intersect(kernel_space(F[2]))
            assert kernel_space(G[0], G[1]) == kernel_space(G[0]).intersect(kernel_space(G[1]))
    assert reps >= 10


def _old_find_destabilizer(rep, theta, theta_tiebreak=None, budget=48, seed=0):
    if slope(theta, rep.dim) != 0:
        raise ValueError("total slope must vanish")
    thetas = (theta,) if theta_tiebreak is None else (theta, theta_tiebreak)
    zero_tuple = tuple(Fraction(0) for _ in thetas)
    r1, r2, r3 = rep.dim

    cands1 = [Subspace(r1), Subspace.full(r1)]
    for a in ARROWS:
        cands1.append(kernel_space(rep.F[a]))
    k12 = cands1[2].intersect(cands1[3]).intersect(cands1[4])
    cands1.append(k12)

    cands2 = [Subspace(r2), Subspace.full(r2)]
    for a in ARROWS:
        cands2.append(kernel_space(rep.G[a]))
        cands2.append(column_space(rep.F[a]))
    cands2.append(_old_f_image(rep))
    cands2.append(_old_g_joint_kernel(rep))
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

    cands3 = [Subspace(r3), Subspace.full(r3)]
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
                dims, spaces = _old_generated_subrep(rep, u1, u2, u3)
                if dims == (0, 0, 0) or dims == rep.dim or dims in seen_dims:
                    continue
                seen_dims.add(dims)
                slopes = tuple(slope(t, dims) for t in thetas)
                if slopes < zero_tuple:
                    return StabilityWitness(dims, slopes, spaces)
    return None


def _witness_key(w):
    return None if w is None else (w.dim, w.slopes, tuple(s.basis for s in w.subspaces))


def _random_seed_rows(rng, n):
    return [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))]


def _random_seed_subspace(rng, n):
    return Subspace(n, _random_seed_rows(rng, n))


def _fractional(theta0, theta1):
    """theta0 / 2 + theta1 / 3, theta1 / 7 and theta0 / 5: still zero on alpha, but
    with denominators, so that a slope rule that drops them orders tuples wrongly."""
    mixed = Polarization(*(a / 2 + b / 3 for a, b in zip(theta0, theta1)))
    return mixed, Polarization(*(b / 7 for b in theta1)), Polarization(*(a / 5 for a in theta0))


def _assert_fraction_slopes(witness):
    assert witness is None or all(type(s) is Fraction for s in witness.slopes)


def test_destabilizer_search_matches_pinned_search():
    # theta0 (and theta0 / 5) first exhausts the search at these reps, theta1
    # first finds a witness, and (r3, 0, -r1) is destabilized by a seed at the
    # third vertex; the largest vector, (2, 5, 2), runs at one tau to keep this fast
    searched = found = 0
    for i, rdn in enumerate([(1, 0, 1), (2, 0, 1), (2, 1, 2), (1, 0, 2), (0, 0, 1)]):
        theta0, theta1 = polarizations(*rdn)
        mixed, seventh, fifth = _fractional(theta0, theta1)
        assert slope(mixed, alpha(*rdn)) == slope(seventh, alpha(*rdn)) == slope(fifth, alpha(*rdn)) == 0
        r1, _, r3 = alpha(*rdn)
        for tau in (ONE, Fraction(3, 7)) if rdn != (1, 0, 2) else (Fraction(3, 7),):
            rep = sample_relation_rep(alpha(*rdn), tau, seed=2)
            rng = random.Random(i)
            for _ in range(4):
                seeds = [_random_seed_subspace(rng, n) for n in rep.dim]
                assert generated_subrep(rep, *seeds) == _old_generated_subrep(rep, *seeds)
            third = Polarization(r3, 0, -r1)
            integral = ((theta0, theta1), (theta1, theta0), (theta1, None), (third, None))
            for theta, tiebreak in integral + ((mixed, seventh), (seventh, mixed), (fifth, mixed), (mixed, None)):
                for budget in (0, 2, 5, 32):
                    new = find_destabilizer(rep, theta, tiebreak, budget=budget, seed=i)
                    old = _old_find_destabilizer(rep, theta, tiebreak, budget=budget, seed=i)
                    assert _witness_key(new) == _witness_key(old)
                    _assert_fraction_slopes(new)
                    searched += 1
                    found += new is not None
    assert searched == 288 and 0 < found < searched


def test_candidate_dedupe_keeps_each_first_space_in_order():
    # equal spans stored with opposite signs, or through different spanning sets,
    # have different raw rows: the search must go on with the first of each
    from uhlenbeck.quiver import _distinct

    rng = random.Random(3503)
    for n in (1, 2, 3):
        for _ in range(30):
            spaces = [Subspace(n), Subspace.full(n)]
            spaces += [Subspace(n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]) for _ in range(8)]
            spaces += [Subspace(n, [[-x for x in v] for v in s.basis]) for s in rng.sample(spaces, 4)]
            # dict.fromkeys keeps the first of each equal run, in order
            assert [id(s) for s in _distinct(list(spaces))] == [id(s) for s in dict.fromkeys(spaces)]


def test_destabilizer_search_matches_pinned_search_without_g():
    # alpha(2, 1, 1) = (1, 3, 0): the G maps are 0 x 3, so every closure has
    # nothing at the third vertex
    rng = random.Random(2111)
    F = {a: RatMatrix.from_rows([[rng.randint(-3, 3)] for _ in range(3)]) for a in ARROWS}
    rep = QuiverRep(alpha(2, 1, 1), F, {a: RatMatrix(0, 3, ()) for a in ARROWS}, ONE)
    theta0, theta1 = polarizations(2, 1, 1)
    for theta, tiebreak in ((theta0, theta1), (theta1, theta0), (theta0, None)):
        for budget in (0, 2, 5):
            new = find_destabilizer(rep, theta, tiebreak, budget=budget, seed=3)
            old = _old_find_destabilizer(rep, theta, tiebreak, budget=budget, seed=3)
            assert _witness_key(new) == _witness_key(old)


# ---------------------------------------------------------------------------
# the destabilizer search before its skipping rules
#
# Verbatim copies of find_destabilizer and _distinct from before the search
# skipped closures whose dimension vectors were already decided.  Every
# witness must come out identical, down to the raw echelon rows of each
# subspace, which ``==``, ``hash`` and ``basis`` would reduce in place.

from itertools import combinations  # noqa: E402

from uhlenbeck.quiver import _lex_slopes  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"


def _unpruned_distinct(spaces: list[Subspace]) -> list[Subspace]:
    """The first space of each span, in order; unlike ``dict.fromkeys``, keys each space once."""
    first = {}
    for s in spaces:
        first.setdefault(s._key(), s)
    return list(first.values())


def _unpruned_find_destabilizer(rep, theta, theta_tiebreak=None, *, budget, seed=0):
    key_of, slopes_of = _lex_slopes(rep, theta, theta_tiebreak)
    zero = key_of((0, 0, 0))
    r1, r2, r3 = rep.dim
    F, G = quiver._maps(rep.F), quiver._maps(rep.G)

    cands1 = [Subspace(r1), Subspace.full(r1), *map(kernel_space, F), kernel_space(*F)]

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

    cands1, cands2, cands3 = map(_unpruned_distinct, (cands1, cands2, cands3))
    seen_dims = set()
    # generated_subrep(rep, u1, u2, u3) with its images hoisted: the F-image
    # depends only on u1, and s2 and its G-image only on (u1, u2)
    for u1 in cands1:
        f1 = u1.image_under(*F)
        for u2 in cands2:
            s2 = u2.sum(f1)
            g2 = s2.image_under(*G)
            for u3 in cands3:
                s3 = u3.sum(g2)
                dims = (u1.dim, s2.dim, s3.dim)
                if dims == (0, 0, 0) or dims == rep.dim or dims in seen_dims:
                    continue
                seen_dims.add(dims)
                if key_of(dims) < zero:
                    return StabilityWitness(dims, slopes_of(dims), (u1, s2, s3))
    return None


def _raw_witness(w):
    """dims, slopes and each subspace's echelon rows as stored: lead columns and entries in order."""
    if w is None:
        return None
    assert all(type(s) is Fraction for s in w.slopes)
    return w.dim, w.slopes, tuple(tuple((c, tuple(row.items())) for c, row in s.rows.items()) for s in w.subspaces)


def _three_orders(theta0, theta1):
    return ((theta0, theta1), (theta1, theta0), (theta0, None))


def _assert_unpruned_witnesses(rep, orders, budgets, seed=0) -> int:
    """Both searches on every order and budget; returns the number of witnesses found."""
    found = 0
    for theta, tiebreak in orders:
        for budget in budgets:
            new = _raw_witness(find_destabilizer(rep, theta, tiebreak, budget=budget, seed=seed))
            old = _raw_witness(_unpruned_find_destabilizer(rep, theta, tiebreak, budget=budget, seed=seed))
            assert new == old, (rep.dim, theta, tiebreak, budget)
            found += new is not None
    return found


def _random_rep(dim, seed):
    """Integer maps in [-3, 3], F then G in ARROWS order, row by row; the relations need not hold."""
    r1, r2, r3 = dim
    rng = random.Random(seed)
    F = {a: RatMatrix(r2, r1, [rng.randint(-3, 3) for _ in range(r1 * r2)]) for a in ARROWS}
    G = {a: RatMatrix(r3, r2, [rng.randint(-3, 3) for _ in range(r2 * r3)]) for a in ARROWS}
    return QuiverRep(dim, F, G, ONE)


def _shape_polarizations(dim):
    """(-r3, 0, r1) and (r2, -r1 - r3, r2), or (r3, 0, -r1) where r2 = 0: both pair to zero with dim."""
    r1, r2, r3 = dim
    return Polarization(-r3, 0, r1), Polarization(r2, -r1 - r3, r2) if r2 else Polarization(r3, 0, -r1)


def test_skipping_search_keeps_every_witness_on_the_quiver_search_vectors():
    # the four vectors quiver-search samples, at both of its taus; budget 32
    # runs on one rep per vector and tau, since the unpruned search is slow there
    found = searched = 0
    for i, rdn in enumerate(((1, 0, 1), (2, 0, 1), (2, 1, 2), (1, 0, 2))):
        orders = _three_orders(*polarizations(*rdn))
        for tau in (ONE, Fraction(3, 7)):
            for seed, budgets in ((40 + i, (0, 2, 5, 32)), (50 + i, (0, 2, 5))):
                rep = sample_relation_rep(alpha(*rdn), tau, seed=seed)
                found += _assert_unpruned_witnesses(rep, orders, budgets, seed=seed)
                searched += len(orders) * len(budgets)
    assert searched == 168 and 0 < found < searched


def test_skipping_search_keeps_every_witness_on_the_rep_files():
    found = 0
    for name, theta0, theta1, budgets in (
        ("rep_252.json", Polarization(-1, 0, 1), Polarization(5, -4, 5), (2, 32)),
        ("rep_234.json", Polarization(-4, 0, 2), Polarization(3, -2, 0), (0, 5)),
    ):
        rep = rep_from_json(json.loads((DATA / name).read_text(encoding="utf-8")))
        found += _assert_unpruned_witnesses(rep, _three_orders(theta0, theta1), budgets)
    assert 0 < found < 12


def test_skipping_search_keeps_every_witness_on_every_rep_size_9_shape():
    # one random rep per shape r1 + r2 + r3 = 9 at small budgets, and the edge
    # shapes, each with one vertex of dimension 0, at every budget
    shapes = [(r1, r2, 9 - r1 - r2) for r1 in range(10) for r2 in range(10 - r1)]
    found = 0
    for seed, dim in enumerate(shapes):
        found += _assert_unpruned_witnesses(_random_rep(dim, seed), _three_orders(*_shape_polarizations(dim)), (0, 2, 5), seed)
    for seed, dim in enumerate(((1, 3, 0), (0, 3, 2), (2, 0, 2))):
        found += _assert_unpruned_witnesses(_random_rep(dim, seed), _three_orders(*_shape_polarizations(dim)), (0, 2, 5, 32), seed)
    assert len(shapes) == 55 and 0 < found < 9 * 55 + 36


def test_at_cap_search_of_rep_252_makes_few_subspace_sums(monkeypatch):
    # 27,016 sums before the search skipped decided closures
    rep = rep_from_json(json.loads((DATA / "rep_252.json").read_text(encoding="utf-8")))
    calls, real = [], Subspace.sum

    def counting(self, other):
        calls.append(None)
        return real(self, other)

    monkeypatch.setattr(Subspace, "sum", counting)
    assert find_destabilizer(rep, Polarization(-1, 0, 1), Polarization(5, -4, 5), budget=32, seed=0) is None
    assert 0 < len(calls) <= 2100


def test_negative_budget_is_rejected_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the search ran before checking its budget")

    for name in ("_lex_slopes", "kernel_space", "column_space"):
        monkeypatch.setattr(quiver, name, no_work)
    # (1, 1, 1) does not even pair to zero with the dimension vector
    for budget in (-1, -3):
        with pytest.raises(ValueError, match="^budget must be nonnegative$"):
            find_destabilizer(zero_rep((2, 3, 2)), Polarization(1, 1, 1), budget=budget)


# ---------------------------------------------------------------------------
# pinned (1,2,1) decision
#
# Verbatim copies of _subrep_classes_121 and decide_stability_121 from before
# the interval argument replaced the enumeration of the twelve candidate
# classes.  At (1,2,1) every verdict, witness dimension, slope and witness
# subspace basis must come out identical.

from uhlenbeck.quiver import _extend_to_dim, _maps  # noqa: E402


def _old_subrep_classes_121(rep: QuiverRep) -> list[tuple[tuple, tuple[Subspace, Subspace, Subspace]]]:
    """All realizable proper nonzero subrepresentation dimension classes.

    At dimension (1,2,1) the constraints are: U2 must contain the image of F
    when U1 is everything, and U3 may be zero only when G kills U2, i.e. when
    U2 lies inside the joint kernel K of the G maps.  Both conditions reduce
    to comparisons against the two distinguished subspaces im F and K, so the
    enumeration below is exhaustive.
    """
    imf = column_space(*_maps(rep.F))
    ker = kernel_space(*_maps(rep.G))
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
                base = imf if u1 == 1 else Subspace(2)
                if u3 == 1:
                    sub2 = _extend_to_dim(base, v2_full, u2)
                else:
                    realizable = (u2 <= kdim) if u1 == 0 else (imf_in_ker and f <= u2 <= kdim)
                    if not realizable:
                        continue
                    sub2 = _extend_to_dim(base, ker, u2)
                sub1 = Subspace.full(1) if u1 else Subspace(1)
                sub3 = Subspace.full(1) if u3 else Subspace(1)
                closure_dims, spaces = generated_subrep(rep, sub1, sub2, sub3)
                if closure_dims != dims:
                    raise AssertionError(f"witness construction drifted: {closure_dims} != {dims}")
                out.append((dims, spaces))
    return out


def _old_decide_stability_121(rep: QuiverRep, theta: Polarization) -> tuple[str, StabilityWitness | None]:
    """Exact stability decision at dimension vector (1,2,1).

    Returns ("stable", None), ("semistable", witness with slope zero) or
    ("unstable", destabilizing witness).  The polarization must pair to zero
    against (1,2,1).
    """
    if rep.dim != (1, 2, 1):
        raise ValueError(f"exact decision only at dimension (1,2,1); got {rep.dim}")
    if slope(theta, rep.dim) != 0:
        raise ValueError("total slope must vanish")
    worst: tuple[Fraction, tuple, tuple] | None = None
    for dims, spaces in _old_subrep_classes_121(rep):
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


def _with_maps(rep, F=None, G=None):
    return QuiverRep(rep.dim, F or rep.F, G or rep.G, rep.tau)


def _sampled_121_reps():
    """(1,2,1) relation reps at three taus, point monads, and monads with G = 0, F = 0 or both."""
    rng = random.Random(811)
    reps = []
    for tau in (ONE, Fraction(3, 7), Fraction(2)):
        while sum(r.tau == tau for r in reps) < 6:
            rep = sample_relation_rep((1, 2, 1), tau, seed=rng.randint(0, 10**6))
            if rep is not None:
                reps.append(rep)
    zero_f = {a: RatMatrix.zero(2, 1) for a in ARROWS}
    zero_g = {a: RatMatrix.zero(1, 2) for a in ARROWS}
    for h in [(1, 0), (0, 1), (1, -2), (3, 1), (-2, 5)]:
        monad = monad_of_point(h, Fraction(3, 7))
        reps += [monad, _with_maps(monad, G=zero_g), _with_maps(monad, F=zero_f)]
    reps.append(zero_rep((1, 2, 1)))
    return reps


def _polarization_grid(dim):
    """Polarizations pairing to zero with dim: t1, t2 in -3 .. 3 with t3 solved for, or,
    when r3 = 0, the (t1, t2) that pair to zero on their own, with t3 = t1 - t2."""
    r1, r2, r3 = dim
    out = []
    for t1 in range(-3, 4):
        for t2 in range(-3, 4):
            if r3:
                out.append(Polarization(t1, t2, Fraction(-t1 * r1 - t2 * r2, r3)))
            elif t1 * r1 + t2 * r2 == 0:
                out.append(Polarization(t1, t2, t1 - t2))
    return out


def test_decide_matches_pinned_121_decision():
    # the integer grid, then theta / 7 and (t1 / 2, t2 / 3, t3) with t3 solved for
    reps = _sampled_121_reps()
    thetas = _polarization_grid((1, 2, 1))
    for t1, t2, _ in list(thetas):
        thetas += [Polarization(t1 / 7, t2 / 7, (-t1 - 2 * t2) / 7), Polarization(t1 / 2, t2 / 3, -t1 / 2 - 2 * t2 / 3)]
    verdicts = set()
    for rep in reps:
        for theta in thetas:
            verdict, witness = decide_stability_121(rep, theta)
            old_verdict, old_witness = _old_decide_stability_121(rep, theta)
            assert (verdict, _witness_key(witness)) == (old_verdict, _witness_key(old_witness))
            _assert_fraction_slopes(witness)
            verdicts.add(verdict)
    assert len(reps) * len(thetas) == 49 * 34 * 3 and verdicts == {"stable", "semistable", "unstable"}


def _assert_witness_is_subrep(rep, witness):
    u1, u2, u3 = witness.subspaces
    assert (u1.dim, u2.dim, u3.dim) == witness.dim
    assert all(u2.contains_subspace(u1.image_under(rep.F[a])) for a in ARROWS)
    assert all(u3.contains_subspace(u2.image_under(rep.G[a])) for a in ARROWS)


def _reached_classes(rep):
    """Dimension classes of the closures of U1 in {0, V1}, U3 in {0, V3} and U2
    among small-integer lines, planes and hyperplanes, im F, the joint kernel K
    of the G maps, and the meets of K with all of these."""
    r1, r2, r3 = rep.dim
    # one vector per line: the first nonzero entry is 1
    vectors = [v for v in itertools.product(range(-1, 2), repeat=r2) if any(v) and next(x for x in v if x) == 1]
    lines = [Subspace(r2, [v]) for v in vectors]
    planes = [Subspace(r2, [v, w]) for v, w in itertools.combinations(vectors, 2)]
    hyperplanes = [kernel_space(RatMatrix.from_rows([v])) for v in vectors]
    imf = Subspace.full(r1).image_under(*(rep.F[a] for a in ARROWS))
    ker = kernel_space(RatMatrix.vstack([rep.G[a] for a in ARROWS])) if r3 else Subspace.full(r2)
    seeds = set(lines + planes + hyperplanes + [Subspace(r2), Subspace.full(r2), imf, ker])
    seeds |= {ker.intersect(s) for s in seeds}
    reached = set()
    for u1 in (Subspace(r1), Subspace.full(r1)):
        for u3 in (Subspace(r3), Subspace.full(r3)):
            for u2 in seeds:
                reached.add(generated_subrep(rep, u1, u2, u3)[0])
    return reached - {(0, 0, 0), rep.dim}


def _hand_built_130(seed):
    # alpha(2, 1, 1) = (1, 3, 0); sample_relation_rep has no G to solve for there
    rng = random.Random(seed)
    F = {a: RatMatrix.from_rows([[rng.randint(-2, 2)] for _ in range(3)]) for a in ARROWS}
    return QuiverRep(alpha(2, 1, 1), F, {a: RatMatrix(0, 3, ()) for a in ARROWS}, ONE)


@pytest.mark.parametrize("rdn", [(1, 0, 1), (2, 0, 1), (2, 1, 1)])
def test_decide_matches_brute_force_oracle_beyond_121(rdn):
    dim = alpha(*rdn)
    rng = random.Random(812)
    reps = [zero_rep(dim), _hand_built_130(0)] if dim == (1, 3, 0) else [zero_rep(dim)]
    while len(reps) < 5:
        seed = rng.randint(0, 10**6)
        rep = _hand_built_130(seed) if dim == (1, 3, 0) else sample_relation_rep(dim, Fraction(3, 7), seed=seed)
        if rep is not None:
            reps.append(rep)
    grid = _polarization_grid(dim)
    theta0, theta1 = polarizations(*rdn)
    pairs = [(t, None) for t in grid] + [(theta0, theta1), (theta1, theta0), (Polarization(0, 0, 0), theta0)]
    verdicts = set()
    for rep in reps:
        reached = _reached_classes(rep)
        for theta, tiebreak in pairs:
            thetas = (theta,) if tiebreak is None else (theta, tiebreak)
            least = min(tuple(slope(t, d) for t in thetas) for d in reached)
            zero = (0,) * len(thetas)
            verdict, witness = decide_stability_121(rep, theta, tiebreak)
            verdicts.add(verdict)
            if verdict == "stable":
                assert witness is None and least > zero
                continue
            _assert_witness_is_subrep(rep, witness)
            assert witness.dim in reached and witness.slopes == least
            assert (least < zero) if verdict == "unstable" else (least == zero)
    # (1, 4, 1) is never stable: (0, 1, 0), (0, 0, 1) and (1, f, 1) with f = dim im F <= 3
    # are always classes, and positive slopes t2, t3 on the first two give the third (f - 4) t2
    assert verdicts == ({"semistable", "unstable"} if dim == (1, 4, 1) else {"stable", "semistable", "unstable"})


def test_both_procedures_reject_a_nonvanishing_tiebreak():
    # theta0 pairs to zero with (2, 5, 2) and (1, 2, 1), (1, 0, 0) with neither
    theta0, _ = polarizations(1, 0, 2)
    rep = sample_relation_rep(alpha(1, 0, 2), ONE, seed=2)
    with pytest.raises(ValueError, match="total slope of theta1 must vanish on the dimension vector"):
        find_destabilizer(rep, theta0, Polarization(1, 0, 0), budget=4)
    with pytest.raises(ValueError, match="total slope of theta1 must vanish on the dimension vector"):
        decide_stability_121(monad_of_point((ONE, ONE), ONE), Polarization(-1, 0, 1), Polarization(1, 0, 0))


def test_the_integer_pairing_check_raises_exactly_where_slope_is_nonzero():
    # both procedures check theta . rep.dim on the polarizations scaled to integers;
    # that must raise exactly where the Fraction pairing is nonzero, theta0 first
    rng = random.Random(4200)
    raised = {"theta0": 0, "theta1": 0, None: 0}
    for _ in range(120):
        dim = rng.choice([(1, 2, 1), (1, 3, 1), (0, 2, 1), (1, 1, 0)])
        thetas = []
        for _ in range(2):
            t = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(3)]
            if rng.random() < 0.6:  # pairs to zero with dim
                j = max(range(3), key=lambda i: dim[i])
                t[j] = -sum(x * d for i, (x, d) in enumerate(zip(t, dim)) if i != j) / dim[j]
            thetas.append(Polarization(*t))
        expected = next((name for name, t in zip(("theta0", "theta1"), thetas) if slope(t, dim) != 0), None)
        raised[expected] += 1
        rep = zero_rep(dim)
        for call in (lambda: decide_stability_121(rep, *thetas), lambda: find_destabilizer(rep, *thetas, budget=1)):
            if expected is None:
                call()
            else:
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == f"total slope of {expected} must vanish on the dimension vector"
    assert min(raised.values()) > 15


def test_decide_without_proper_classes_is_stable():
    for dim in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        assert decide_stability_121(zero_rep(dim), Polarization(0, 0, 0)) == ("stable", None)


def test_decide_rejects_large_ends_and_nonvanishing_tiebreak():
    theta0, theta1 = polarizations(1, 0, 2)
    with pytest.raises(ValueError):
        decide_stability_121(zero_rep(alpha(1, 0, 2)), theta0, theta1)  # (2, 5, 2)
    for dim in [(2, 3, 1), (1, 3, 2), (2, 0, 0)]:
        with pytest.raises(ValueError):
            decide_stability_121(zero_rep(dim), Polarization(0, 0, 0))
    with pytest.raises(ValueError):
        decide_stability_121(zero_rep((1, 2, 1)), Polarization(-1, 0, 1), Polarization(1, 1, 1))


# ---------------------------------------------------------------------------
# pinned extension of the witness subspace


def _old_extend_to_dim(base: Subspace, inside: Subspace, target: int) -> Subspace:
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


def test_extend_to_dim_matches_pinned_extension():
    # _extend_to_dim runs first, on fresh subspaces: reading inside.basis, as
    # the pinned copy does, reduces inside's echelon in place, and an
    # extension through unreduced rows picks other vectors
    rng = random.Random(813)
    for _ in range(80):
        n = rng.randint(0, 7)
        inside_rows = _random_seed_rows(rng, n)
        meet = rng.random() < 0.7
        other_rows = _random_seed_rows(rng, n)

        def spaces():
            inside, other = Subspace(n, inside_rows), Subspace(n, other_rows)
            return (inside.intersect(other) if meet else other), inside

        for target in range(n + 2):
            try:
                got = quiver._extend_to_dim(*spaces(), target)
            except ValueError as exc:
                assert "cannot extend" in str(exc)
                with pytest.raises(ValueError, match="cannot extend"):
                    _old_extend_to_dim(*spaces(), target)
            else:
                expected = _old_extend_to_dim(*spaces(), target)
                assert got == expected and got.basis == expected.basis


def test_decide_witnesses_match_pinned_extension(monkeypatch):
    # the (1, 120, 1) case has a witness with d2 = 117, so the extension adds
    # over a hundred vectors to a one-dimensional base
    cases = [(rep, theta) for rep in _sampled_121_reps() for theta in _polarization_grid((1, 2, 1))]
    cases.append((sample_relation_rep((1, 120, 1), ONE, seed=0), Polarization(0, -1, 120)))
    new = [decide_stability_121(rep, theta) for rep, theta in cases]
    monkeypatch.setattr(quiver, "_extend_to_dim", _old_extend_to_dim)
    old = [decide_stability_121(rep, theta) for rep, theta in cases]
    assert [(v, _witness_key(w)) for v, w in new] == [(v, _witness_key(w)) for v, w in old]
    assert new[-1][0] == "unstable" and new[-1][1].dim == (0, 117, 0)


# ---------------------------------------------------------------------------
# relation residuals pinned to the term-by-term sums they replaced (verbatim
# copies; the old check also hands back its residuals for the comparison)


def _old_check_relations(rep: QuiverRep):
    r1, _, r3 = rep.dim
    failures = []
    residuals = []
    for name, terms in quiver.RELATIONS:
        residual = RatMatrix.zero(r3, r1)
        for g, f, c, p in terms:
            residual = residual + (rep.G[g] @ rep.F[f]).scale(c * rep.tau**p)
        residuals.append(residual)
        if not residual.is_zero:
            failures.append(name)
    return quiver.RelationReport(not failures, tuple(failures)), residuals


def _old_relation_tensor_residual(rep: QuiverRep, tensor) -> RatMatrix:
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


def _pinned_reps():
    """Sampled relation reps and point monads at several tau, zero reps, reps
    with an empty vertex, and random reps with mixed and huge entries."""
    rng = random.Random(8800)
    for tau in (ONE, Fraction(3, 7), Fraction(-2), Fraction(2**65 + 1, 9)):
        yield monad_of_point((1, 2), tau)
        yield monad_of_point((Fraction(-5, 3), 0), tau)
        for dim in ((1, 2, 1), (1, 3, 1), (2, 5, 2), (1, 1, 1), (0, 2, 1), (1, 2, 0)):
            rep = sample_relation_rep(dim, tau, seed=rng.randint(0, 10**6))
            if rep is not None:
                yield rep
            yield zero_rep(dim, tau)
            r1, r2, r3 = dim
            kinds = [rng.choice(PRODUCT_KINDS) for _ in range(6)]
            F = {a: _product_input(rng, kind, r2, r1) for a, kind in zip(ARROWS, kinds)}
            G = {a: _product_input(rng, kind, r3, r2) for a, kind in zip(ARROWS, kinds[3:])}
            yield QuiverRep(dim, F, G, tau)


def test_relation_checks_and_residuals_match_pinned_sums(monkeypatch):
    rng = random.Random(8801)
    computed = []
    combination = RatMatrix.combination
    monkeypatch.setattr(
        RatMatrix, "combination", lambda coeffs, mats: computed.append(combination(coeffs, mats)) or computed[-1]
    )
    valid = 0
    for rep in _pinned_reps():
        computed.clear()
        report = check_relations(rep)
        old_report, old_residuals = _old_check_relations(rep)
        assert report == old_report and repr(report) == repr(old_report)
        assert len(computed) == len(old_residuals)
        for new, old in zip(computed, old_residuals):
            assert_pinned(new, old)
        valid += report.ok
        tensors = [(0,) * 9, *dual_relation_kernel(rep.tau)]
        tensors += [tuple(_random_entry(rng) for _ in range(9)) for _ in range(3)]
        for tensor in tensors:
            assert_pinned(relation_tensor_residual(rep, tensor), _old_relation_tensor_residual(rep, tensor))
    assert valid >= 30


def test_check_relations_computes_each_product_once(monkeypatch):
    calls = []
    matmul = RatMatrix.__matmul__
    monkeypatch.setattr(RatMatrix, "__matmul__", lambda a, b: calls.append((a.rows, b.cols)) or matmul(a, b))
    checked = 0
    for rep in _pinned_reps():
        calls.clear()
        check_relations(rep)
        r1, _, r3 = rep.dim
        assert calls == [(r3, r1)] * 9
        checked += 1
    assert checked > 40


# ---------------------------------------------------------------------------
# the sampler's Kronecker-form system pinned to the index loop it replaced
# (verbatim copy)


def _old_sample_relation_rep(dim, tau, seed: int = 0):
    r1, r2, r3 = dim
    tau = quiver.rat(tau)
    rng = random.Random(seed)
    F = {
        a: RatMatrix.from_rows([[rng.randint(-3, 3) for _ in range(r1)] for _ in range(r2)])
        for a in ARROWS
    }
    # unknowns: entries of G_xi, G_eta, G_zeta, flattened in that order
    nunk = 3 * r3 * r2
    rows: list[list[Fraction]] = []

    def g_entry_index(arrow_idx: int, i: int, j: int) -> int:
        return arrow_idx * r3 * r2 + i * r2 + j

    # entry (i, j) of an identity is sum_t c tau^p G_g[i, t] F_f[t, j]
    for _, terms in quiver.RELATIONS:
        for i in range(r3):
            for j in range(r1):
                row = [Fraction(0)] * nunk
                for g_arrow, f_arrow, c, p in terms:
                    gi, coeff = ARROWS.index(g_arrow), c * tau**p
                    for t in range(r2):
                        row[g_entry_index(gi, i, t)] += coeff * F[f_arrow].entry(t, j)
                rows.append(row)
    kb = kernel_vectors(RatMatrix.from_rows(rows)) if rows else []
    if not kb:
        return None
    coeffs = [rng.randint(-3, 3) for _ in kb]
    flat = [sum((c * v[i] for c, v in zip(coeffs, kb)), Fraction(0)) for i in range(nunk)]
    G = {}
    for ai, a in enumerate(ARROWS):
        ents = flat[ai * r3 * r2 : (ai + 1) * r3 * r2]
        G[a] = RatMatrix(r3, r2, tuple(ents))
    return QuiverRep(dim, F, G, tau)


def test_sample_relation_rep_matches_pinned_index_loop():
    rng = random.Random(8960)
    dims = [(1, 2, 1), (1, 3, 1), (1, 4, 1), (2, 5, 2), (2, 5, 1), (1, 1, 1), (2, 3, 2), (3, 7, 3)]
    empty_ends = [(0, 2, 1), (1, 2, 0), (0, 0, 0), (0, 3, 0), (2, 0, 2)]
    found = 0
    for dim in dims + empty_ends:
        for tau in (ONE, Fraction(3, 7), Fraction(0), Fraction(-(2**65) - 1, 9)):
            for seed in (0, rng.randint(0, 10**6)):
                new, old = sample_relation_rep(dim, tau, seed), _old_sample_relation_rep(dim, tau, seed)
                if dim in empty_ends or new is None:
                    assert new is None and old is None
                    continue
                assert type(new) is type(old) is QuiverRep
                assert new == old and repr(new) == repr(old) and type(new.tau) is Fraction
                for a in ARROWS:
                    assert_pinned(new.F[a], old.F[a])
                    assert_pinned(new.G[a], old.G[a])
                assert check_relations(new).ok
                found += any(not new.G[a].is_zero for a in ARROWS)
    assert found >= 2 * len(dims)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: QuiverRep((1, 1, 1), {}, {}, 1), "missing arrow matrix for xi"),
        (
            lambda: QuiverRep((1, 2, 1), {a: RatMatrix.zero(2, 1) for a in ("xi", "eta")}, zero_rep((1, 2, 1)).G, 1),
            "missing arrow matrix for zeta",
        ),
        (lambda: QuiverRep((1, 2, 1), zero_rep((2, 2, 1)).F, zero_rep((1, 2, 1)).G, 1), "F_xi must be 2x1"),
        (lambda: QuiverRep((1, 2, 1), zero_rep((1, 2, 1)).F, zero_rep((1, 2, 2)).G, 1), "G_xi must be 1x2"),
        (lambda: rep_direct_sum(zero_rep((1, 2, 1)), zero_rep((1, 2, 1), Fraction(2))), "tau mismatch"),
        (
            lambda: generated_subrep(zero_rep((1, 2, 1)), Subspace(1), Subspace(3), Subspace(1)),
            "seed subspaces do not match the dimension vector",
        ),
    ],
)
def test_quiver_rejects_malformed_input_with_its_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_polarization_str():
    assert str(Polarization(-3, Fraction(1, 2), 0)) == "(-3, 1/2, 0)"
